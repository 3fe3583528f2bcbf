"""One side's unit images summed with coefficients, Correspondence.unit_sum.

pi_l, pi_r, the creation operators r_eta and the twisted balancing check
read a factor only through unit_sum, which gathers on the table and
conjugates by the frame of a checked correspondence.  On a factor with no
frame none of them writes a stack, and each value equals the one read off
the checked copy's stacks: r_eta bit for bit, pi_l, pi_r and unit_sum up
to the sign of a zero (array_equal), and the balancing residual bit for
bit.
"""

import numpy as np
import pytest

from moritalab.wstar import (
    Correspondence,
    FusionResult,
    MultiMatrixAlgebra,
    block_correspondence,
    connes_fusion,
    gns_standard_form,
    identity_correspondence,
    r_eta,
    random_faithful_state,
    twisted_balancing_residual,
)

STACKS = ("pi_l_units", "pi_r_units")
TABLES = [
    ((2,), (1,), ((1,),)),
    ((2, 1), (1, 2), ((0, 1), (1, 0))),
    ((2,), (2, 1), ((2, 1),)),
    ((2, 1), (2, 1), ((1, 2), (2, 0))),
]


def _checked_copy(H: Correspondence) -> Correspondence:
    """H's stacks through the checked constructor, which gives it a frame;
    read off a second block correspondence, so H writes none."""
    X = block_correspondence(H.left_algebra, H.right_algebra, H.table)
    return Correspondence(X.left_algebra, X.right_algebra, X.dim, X.pi_l_units, X.pi_r_units)


def _std(A, rng):
    return gns_standard_form(A, random_faithful_state(A, rng, floor=0.05))


def _no_stack(*corrs):
    return not any(set(STACKS) & set(vars(X)) for X in corrs)


@pytest.mark.parametrize("left, right, table", TABLES)
def test_a_unit_sum_is_the_contraction_with_the_stack(left, right, table):
    A, B = MultiMatrixAlgebra(left), MultiMatrixAlgebra(right)
    H = block_correspondence(A, B, table)
    dense = _checked_copy(H)
    rng = np.random.default_rng(len(left) + 3 * len(right))
    for side, X in (("left", A), ("right", B)):
        coef = rng.standard_normal((3, 2, X.vector_dim)) \
            + 1j * rng.standard_normal((3, 2, X.vector_dim))
        got = H.unit_sum(side, coef)
        assert np.array_equal(got, dense.unit_sum(side, coef))
        assert np.array_equal(got, np.tensordot(coef, getattr(dense, STACKS[side == "right"]), 1))
    assert _no_stack(H)


@pytest.mark.parametrize("left, right, table", TABLES)
def test_pi_l_and_pi_r_write_no_stack(left, right, table):
    A, B = MultiMatrixAlgebra(left), MultiMatrixAlgebra(right)
    H = block_correspondence(A, B, table)
    rng = np.random.default_rng(len(left) + 3 * len(right))
    x, y = A.random_element(rng), B.random_element(rng)
    got = H.pi_l(x), H.pi_r(y)
    assert _no_stack(H)
    dense = _checked_copy(H)
    assert np.array_equal(got[0], dense.pi_l(x))
    assert np.array_equal(got[1], dense.pi_r(y))


@pytest.mark.parametrize("left, right, table", TABLES)
def test_r_eta_writes_no_stack_and_is_the_checked_copy_s(left, right, table):
    A, B = MultiMatrixAlgebra(left), MultiMatrixAlgebra(right)
    rng = np.random.default_rng(sum(map(sum, table)))
    std_B = _std(B, rng)
    H = block_correspondence(A, B, table)
    eta = rng.standard_normal((4, H.dim)) + 1j * rng.standard_normal((4, H.dim))
    got = r_eta(H, std_B, eta)
    assert _no_stack(H)
    assert got.tobytes() == r_eta(_checked_copy(H), std_B, eta).tobytes()
    # one vector at a time gives the rows of the stack
    assert np.allclose(got[1], r_eta(H, std_B, eta[1]), rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("blocks", [(2,), (2, 1)])
def test_balancing_two_l2_factors_writes_no_stack(blocks):
    A = MultiMatrixAlgebra(blocks)
    std = _std(A, np.random.default_rng(len(blocks)))
    L2 = identity_correspondence(std)
    fus = connes_fusion(L2, L2, std)
    res = twisted_balancing_residual(fus, std, np.random.default_rng(5), samples=40)
    assert res <= 1e-8
    assert _no_stack(L2, fus.corr)
    # the same quotient with factors that hold their stacks
    dense = FusionResult(fus.corr, fus.project, fus.section,
                         _checked_copy(L2), _checked_copy(L2))
    assert twisted_balancing_residual(dense, std, np.random.default_rng(5),
                                      samples=40).hex() == res.hex()
