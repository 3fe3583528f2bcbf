"""connes_fusion against the full Gram quotient and its block correspondence.

connes_fusion returns block_correspondence of the product multiplicities
and identifies it with the Gram quotient of the ambient tensor through S,
the direct sum over middle blocks b of (H.p_b) (x) (p_b.K), gated by
positive block constants, one Gram residual and the compressed generating
units.  This test records every fusion built on the corpus of
tests/test_lawful_correspondences.py (the wstar-morita inputs, the 20 W*
coherence chains and the three CLI demos) at three seeds, and compares
each with the full quotient of G built pair by pair (oracles.fusion_gram),
whose fused actions are formed with explicit Kronecker products: the same
rank, project.section = 1, and a unitary intertwiner from the fused
correspondence onto the full one.  On the same fusions the stacks are
those of the block correspondence bit for bit, every unit compressed as
before agrees with them, and the block constants are |(rho^{-1/2})_00|^2
of the middle block.  Components that lose one block pair keep the
block constants positive, and the residual check must catch it.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

import moritalab.wstar.fusion as fusion_module
from moritalab.numkernel import DEFAULT_TOL, gram_quotient
from moritalab.wstar import (
    Correspondence,
    MultiMatrixAlgebra,
    block_correspondence,
    conjugate_correspondence,
    connes_fusion,
    gns_standard_form,
    identity_correspondence,
    random_faithful_state,
    unitary_intertwiner,
)
from oracles import compressed_units, fusion_gram, unchecked_correspondence
from test_lawful_correspondences import _coherence_batch, _demos, _wstar_morita


@pytest.fixture
def fusions(monkeypatch):
    """Every FusionResult connes_fusion returns, with its middle standard form."""
    out, real = [], fusion_module.FusionResult

    def record(**kwargs):
        out.append((real(**kwargs), sys._getframe(1).f_locals["std_N"]))
        return out[-1][0]
    monkeypatch.setattr(fusion_module, "FusionResult", record)
    return out


def full_quotient(fus, std_N) -> Correspondence:
    """The fused correspondence from the full Gram quotient, Kronecker products formed."""
    H, K = fus.left_factor, fus.right_factor
    q = gram_quotient(fusion_gram(H, K, std_N), scale=1.0)
    pi_l = [q.project @ np.kron(U, np.eye(K.dim)) @ q.section for U in H.pi_l_units]
    pi_r = [q.project @ np.kron(np.eye(H.dim), U) @ q.section for U in K.pi_r_units]
    return unchecked_correspondence(H.left_algebra, K.right_algebra, q.rank, pi_l, pi_r)


def mismatches(fus, std_N) -> list[str]:
    full = full_quotient(fus, std_N)
    out = []
    if full.dim != fus.corr.dim:
        out.append(f"rank {fus.corr.dim} against the full {full.dim}")
    elif np.max(np.abs(fus.project @ fus.section - np.eye(full.dim)), initial=0.0) \
            > DEFAULT_TOL:
        out.append("project.section is not the identity")
    elif unitary_intertwiner(fus.corr, full) is None:
        out.append("no unitary onto the full quotient")
    return [f"{fus.corr!r}: {m}" for m in out]


@pytest.mark.parametrize("seed", [1, 7, 31])
def test_reduced_fusions_match_the_full_quotient(fusions, seed, tmp_path):
    _wstar_morita(seed)
    _coherence_batch(seed)
    _demos(tmp_path)
    assert len(fusions) > 500
    assert [m for fus, std_N in fusions for m in mismatches(fus, std_N)] == []


def middle_blocks(fus) -> np.ndarray:
    """The middle block b of each fused basis vector: block pairs (a, d) in
    order, each with copies (b, s, t), n_a p_d vectors a copy."""
    H, K = fus.left_factor, fus.right_factor
    mH, mK = H.multiplicities, K.multiplicities
    n, p = H.left_algebra.block_sizes, K.right_algebra.block_sizes
    return np.array([b for a in range(len(n)) for d in range(len(p))
                     for b in range(len(mK))
                     for _ in range(mH[a][b] * mK[b][d] * n[a] * p[d])], dtype=int)


def exactness_mismatches(fus, std_N) -> list[str]:
    H, K = fus.left_factor, fus.right_factor
    block = block_correspondence(H.left_algebra, K.right_algebra,
                                 np.array(H.multiplicities) @ np.array(K.multiplicities))
    out = []
    if not (np.array_equal(fus.corr.pi_l_units, block.pi_l_units)
            and np.array_equal(fus.corr.pi_r_units, block.pi_r_units)):
        out.append("stacks differ from the block correspondence")
    lefts, rights = compressed_units(fus)
    apart = max(np.max(np.abs(lefts - block.pi_l_units), initial=0.0),
                np.max(np.abs(rights - block.pi_r_units), initial=0.0))
    if apart > 1e-12:
        out.append(f"compressed units {apart:.3g} from the fused ones")
    # c_j = 1/|section_j|^2, S's columns being unit vectors
    w, V = np.linalg.eigh(std_N.state.density)
    root = (V * w ** -0.5) @ V.conj().T
    N = std_N.algebra
    expected = np.array([abs(root[N.block_offset(b), N.block_offset(b)]) ** 2
                         for b in range(len(N.block_sizes))])[middle_blocks(fus)]
    measured = 1.0 / np.sum(np.abs(fus.section) ** 2, axis=0)
    if np.any(np.abs(measured - expected) > 1e-12 * expected):
        out.append("block constants differ from |(rho^{-1/2})_00|^2")
    return [f"{fus.corr!r}: {m}" for m in out]


@pytest.mark.parametrize("seed", [1, 7, 31])
def test_fusions_are_the_block_correspondence_of_the_product_multiplicities(
        fusions, seed, tmp_path):
    _wstar_morita(seed)
    _coherence_batch(seed)
    _demos(tmp_path)
    assert len(fusions) > 500
    assert [m for fus, std_N in fusions for m in exactness_mismatches(fus, std_N)] == []


def _two_block_fusion_inputs():
    """H over (M2+C, M2+C) with both block pairs, L2 of a non-tracial state."""
    A = MultiMatrixAlgebra((2, 1), name="M2+C")
    std = gns_standard_form(A, random_faithful_state(A, np.random.default_rng(3)))
    return block_correspondence(A, A, [[1, 0], [0, 1]]), identity_correspondence(std), std


def test_unmutated_inputs_pass_both_gates():
    H, L2, std = _two_block_fusion_inputs()
    assert connes_fusion(H, L2, std).corr.dim == 5


def test_residual_check_catches_a_dropped_block_pair(monkeypatch):
    # the components lose H's block pair (1, 1): every block constant stays
    # positive and the compression is never reached, so only the Gram
    # residual, through the mass of the coefficients no node gathers, sees
    # the loss
    from test_component_fusion import mutated_components
    H, L2, std = _two_block_fusion_inputs()
    first = H.right_algebra.unit_index(1, 0, 0)

    def dropped(*fields):
        keep = fields[3][:, 0] < first
        return tuple(x[keep] for x in fields)
    mutated_components(monkeypatch, dropped)
    with pytest.raises(RuntimeError, match=r"fusion Gram residual \S+ exceeds \S+: the reduced"):
        connes_fusion(H, L2, std)


def test_inputs_lawful_within_the_boundary_tolerance_still_fuse():
    # unit images perturbed by 1e-9 in operator norm pass the boundary
    # checks; the full quotient fused them, and the reduced one must too
    rng = np.random.default_rng(0)
    A, B = MultiMatrixAlgebra((2, 1)), MultiMatrixAlgebra((2,))
    exact = block_correspondence(A, B, [[1], [2]])
    std = gns_standard_form(B, random_faithful_state(B, rng))

    def perturbed(units):
        noise = [rng.normal(size=U.shape) + 1j * rng.normal(size=U.shape) for U in units]
        return [U + 1e-9 * E / np.linalg.norm(E, 2) for U, E in zip(units, noise)]
    for _ in range(5):
        H = Correspondence(A, B, exact.dim, perturbed(exact.pi_l_units),
                           perturbed(exact.pi_r_units))
        assert connes_fusion(H, conjugate_correspondence(H), std).corr.dim == 16
        assert connes_fusion(H, identity_correspondence(std), std).corr.dim == 8
