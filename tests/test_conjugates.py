"""The conjugate correspondence is the transposed multiplicity table.

conjugate_correspondence(H) is the block correspondence of H's table
transposed, built with no stack read.  Against the entrywise conjugate of
H's stacks (oracles.dense_conjugate) it must be unitarily equivalent with
a residual within DEFAULT_TOL, for block correspondences, L², fusion
results and checked correspondences with a frame; conjugating twice must
give a block correspondence back, and conjugating a table must write no
stack of either side.  Block correspondences whose tables are permutations
other than the identity must certify with residual exactly 0 at random
faithful, non-tracial states on both sides, and so must their fusion;
conjugation must reverse the order of a fusion.
"""

from __future__ import annotations

import numpy as np
import pytest

from moritalab.numkernel import DEFAULT_TOL
from moritalab.wstar import (
    Correspondence,
    MultiMatrixAlgebra,
    block_correspondence,
    certify_morita_equivalent,
    conjugate_correspondence,
    connes_fusion,
    correspondences_close,
    gns_standard_form,
    identity_correspondence,
    random_faithful_state,
    unitary_intertwiner,
    vector_correspondence,
)

from oracles import dense_conjugate

STACKS = {"pi_l_units", "pi_r_units"}
TABLES = [((2,), (1,), ((1,),)),
          ((2, 1), (2,), ((1,), (2,))),
          ((2, 1), (1, 3), ((0, 1), (1, 0))),
          ((1, 2), (2, 1, 1), ((1, 0, 2), (0, 1, 1))),
          ((3,), (2, 1), ((2, 1),))]


def _state(A, seed):
    return random_faithful_state(A, np.random.default_rng(seed), floor=0.05)


def _block(left, right, table):
    return block_correspondence(MultiMatrixAlgebra(left), MultiMatrixAlgebra(right), table)


def _l2(blocks, seed):
    A = MultiMatrixAlgebra(blocks)
    return identity_correspondence(gns_standard_form(A, _state(A, seed)))


def _fused(left, right, table, seed):
    H = _block(left, right, table)
    std = gns_standard_form(H.right_algebra, _state(H.right_algebra, seed))
    return connes_fusion(H, conjugate_correspondence(H), std).corr


def _rotated(left, right, table, seed):
    """A block correspondence moved by a random unitary, through the checked
    constructor: its table and frame come from eigh."""
    H = _block(left, right, table)
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((H.dim, H.dim)) + 1j * rng.standard_normal((H.dim, H.dim))
    W = np.linalg.qr(Z)[0]
    return Correspondence(H.left_algebra, H.right_algebra, H.dim,
                          W @ H.pi_l_units @ W.conj().T, W @ H.pi_r_units @ W.conj().T)


KINDS = {
    **{f"block{t}": (lambda t=t: _block(*TABLES[t])) for t in range(len(TABLES))},
    "L2(M3)": lambda: _l2((3,), 1),
    "L2(M2+M3)": lambda: _l2((2, 3), 2),
    "fused": lambda: _fused(*TABLES[3], 3),
    "fused-vector": lambda: _fused((3,), (1,), ((1,),), 4),
    **{f"rotated{t}": (lambda t=t: _rotated(*TABLES[t], 10 + t)) for t in (1, 3, 4)},
}


@pytest.mark.parametrize("kind", KINDS)
def test_the_conjugate_is_the_transposed_table(kind):
    H = KINDS[kind]()
    tabled = H.frame is None
    conj = conjugate_correspondence(H)
    if tabled:
        assert not STACKS & set(vars(H)) and not STACKS & set(vars(conj))
    assert conj.table == tuple(zip(*H.multiplicities))
    assert (conj.left_algebra, conj.right_algebra, conj.dim) == \
        (H.right_algebra, H.left_algebra, H.dim)
    found = unitary_intertwiner(dense_conjugate(H), conj)
    assert found is not None and found[1] <= DEFAULT_TOL
    if tabled:
        assert correspondences_close(conjugate_correspondence(conj), H)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_the_conjugate_of_a_vector_space_is_the_entrywise_one(n):
    H = vector_correspondence(n)
    conj, dense = conjugate_correspondence(H), dense_conjugate(H)
    # equal entries; the entrywise conjugate's imaginary zeros are -0.0
    for key in sorted(STACKS):
        got, want = getattr(conj, key), getattr(dense, key)
        assert got.real.tobytes() == want.real.tobytes()
        assert np.array_equal(got, want)


PERMUTATIONS = [((2, 3), (3, 2), ((0, 1), (1, 0))),
                ((1, 2, 3), (3, 1, 2), ((0, 1, 0), (0, 0, 1), (1, 0, 0))),
                ((2, 1), (1, 2), ((0, 1), (1, 0)))]


@pytest.mark.parametrize("left, right, table", PERMUTATIONS)
def test_permutation_tables_certify_at_non_tracial_states(left, right, table):
    H = _block(left, right, table)
    for seed in range(3):
        phi_M, phi_N = _state(H.left_algebra, seed), _state(H.right_algebra, seed + 50)
        assert not phi_M.is_tracial() and not phi_N.is_tracial()
        cert = certify_morita_equivalent(H, phi_M, phi_N)
        # both fusions passed their three gates, and land on L² exactly
        assert cert.equivalent and cert.residual == 0.0
        assert cert.fusion_left.corr.table == H.left_algebra.identity_table
        assert cert.fusion_right.corr.table == H.right_algebra.identity_table


def test_a_fusion_of_permutation_tables_certifies_at_non_tracial_states():
    A, B, C = (MultiMatrixAlgebra(blocks) for blocks in ((1, 2, 3), (3, 1, 2), (2, 3, 1)))
    H1 = block_correspondence(A, B, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    H2 = block_correspondence(B, C, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    states = {X: _state(X, seed) for X, seed in ((A, 7), (B, 8), (C, 9))}
    assert not any(phi.is_tracial() for phi in states.values())
    fused = connes_fusion(H1, H2, gns_standard_form(B, states[B])).corr
    assert fused.table == ((0, 0, 1), (1, 0, 0), (0, 1, 0))
    cert = certify_morita_equivalent(fused, states[A], states[C])
    assert cert.equivalent and cert.residual == 0.0


def test_conjugation_reverses_a_fusion():
    A, B, C = (MultiMatrixAlgebra(blocks) for blocks in ((2, 3), (3, 2), (1, 2)))
    H1 = block_correspondence(A, B, [[0, 1], [1, 0]])
    H2 = block_correspondence(B, C, [[1, 2], [0, 1]])
    std_A, std_B = (gns_standard_form(X, _state(X, seed)) for X, seed in ((A, 5), (B, 6)))
    fused = connes_fusion(H1, H2, std_B).corr
    reversed_ = connes_fusion(conjugate_correspondence(H2), conjugate_correspondence(H1),
                              std_B).corr
    assert conjugate_correspondence(fused).table == reversed_.table
    assert correspondences_close(conjugate_correspondence(fused), reversed_)
    # and conj(H1) fused back onto H1 is L²(B), whatever the state on A
    back = connes_fusion(conjugate_correspondence(H1), H1, std_A).corr
    assert back.table == B.identity_table
