"""The one gather of ξ -> x.ξ.y against the constructions it replaced.

L²'s unit stacks, Δ, Δ^{±1/2} and the creation inverse must match the
boolean broadcasts and index formulas bit for bit, block correspondences
the per-unit Kronecker products, and Λ^{±1} the stacked products E_u.ρ^{±1/2}
up to the sign of exact zeros.  L²(A) is block_correspondence(A, A, 1) bit
for bit, and no correspondence's unit stacks can be written in place.
Every comparison runs within one process, so no float digest is stored.
"""

import itertools

import numpy as np
import pytest

from moritalab.numkernel import hermitian_spectrum, spectral_powers
from moritalab.wstar import (
    Correspondence,
    MultiMatrixAlgebra,
    block_correspondence,
    conjugate_correspondence,
    connes_fusion,
    gns_standard_form,
    identity_correspondence,
    random_faithful_state,
    trace_state,
)

from oracles import (
    broadcast_regular_units,
    index_modular_tables,
    kron_block_units,
    product_lambdas,
    unchecked_correspondence,
)

PATTERNS = ((1,), (2,), (1, 1), (2, 3), (1, 2, 2), (4,))
POWERS = (1.0, 0.5, -0.5, -1.0)


def same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def identity_table(A):
    return [[int(b == c) for c in range(len(A.block_sizes))]
            for b in range(len(A.block_sizes))]


@pytest.mark.parametrize("blocks", PATTERNS)
def test_regular_units_match_the_broadcasts(blocks):
    A = MultiMatrixAlgebra(blocks)
    L2 = identity_correspondence(gns_standard_form(A, trace_state(A)))
    left, right = broadcast_regular_units(A)
    assert same_bits(L2.pi_l_units, left)
    assert same_bits(L2.pi_r_units, right)


@pytest.mark.parametrize("seed", [1, 7, 31])
def test_modular_tables_match_the_index_formulas(seed):
    rng = np.random.default_rng(seed)
    forms = 0
    for blocks in PATTERNS:
        A = MultiMatrixAlgebra(blocks)
        for _ in range(25):
            phi = random_faithful_state(A, rng, floor=0.05)
            std = gns_standard_form(A, phi)
            rho = dict(zip(POWERS, spectral_powers(*hermitian_spectrum(phi.density),
                                                   POWERS)))
            tables = (std.delta, std.delta_half, std.delta_minus_half,
                      std.creation_inverse)
            assert all(same_bits(got, want) for got, want in
                       zip(tables, index_modular_tables(A, rho)))
            # the products may give -0 where the gather gives +0
            lam, lam_inv = product_lambdas(A, rho[0.5], rho[-0.5])
            assert np.array_equal(std.lam, lam)
            assert np.array_equal(std.lam_inv, lam_inv)
            forms += 1
    assert forms == 150


def test_block_units_match_the_kronecker_products():
    rng = np.random.default_rng(23)
    algebras = [MultiMatrixAlgebra(blocks) for blocks in PATTERNS]
    tables = 0
    for A, B in itertools.product(algebras, repeat=2):
        for _ in range(4):
            mult = rng.integers(0, 3, size=(len(A.block_sizes), len(B.block_sizes)))
            H = block_correspondence(A, B, mult.tolist())
            pi_l, pi_r = kron_block_units(A, B, mult.tolist())
            assert same_bits(H.pi_l_units, pi_l) and same_bits(H.pi_r_units, pi_r)
            tables += 1
    assert tables == 144


@pytest.mark.parametrize("blocks", PATTERNS)
def test_l2_is_the_identity_block_correspondence(blocks):
    A = MultiMatrixAlgebra(blocks)
    rng = np.random.default_rng(len(blocks))
    L2 = identity_correspondence(gns_standard_form(A, random_faithful_state(A, rng)))
    H = block_correspondence(A, A, identity_table(A))
    assert L2.dim == H.dim
    assert same_bits(L2.pi_l_units, H.pi_l_units)
    assert same_bits(L2.pi_r_units, H.pi_r_units)


def _correspondences():
    """A checked, an unchecked, a fused, a conjugate, an L² and a block one."""
    A, B = MultiMatrixAlgebra((2, 1)), MultiMatrixAlgebra((2,))
    block = block_correspondence(A, B, [[1], [2]])
    checked = Correspondence(A, B, block.dim, list(block.pi_l_units),
                             list(block.pi_r_units))
    lawful = unchecked_correspondence(A, B, block.dim, np.array(block.pi_l_units),
                                      np.array(block.pi_r_units))
    std = gns_standard_form(B, random_faithful_state(B, np.random.default_rng(5)))
    conjugate = conjugate_correspondence(block)
    fused = connes_fusion(block, conjugate, std).corr
    return {"checked": checked, "lawful": lawful, "fused": fused,
            "conjugate": conjugate, "L2": identity_correspondence(std),
            "block": block}


@pytest.mark.parametrize("kind", ["checked", "lawful", "fused", "conjugate",
                                  "L2", "block"])
def test_unit_stacks_are_read_only(kind):
    H = _correspondences()[kind]
    for units in (H.pi_l_units, H.pi_r_units):
        assert units.dtype == np.complex128 and units.shape[1:] == (H.dim, H.dim)
        # one unit after another, so each unit image is a contiguous matrix
        assert units.flags.c_contiguous
        with pytest.raises(ValueError, match="read-only"):
            units[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            units *= 2.0
