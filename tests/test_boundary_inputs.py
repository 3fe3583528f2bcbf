"""Sizes and floors at the Python boundary.

A size is an integer, a NumPy integer included: a float, a numeric string
or a bool raises ValueError rather than being truncated or read, as spec
files already reject them.  So is every entry of a public IntegerMatrix.  A state's floor is finite and positive, so a
State is faithful by construction.  A unitor or an associator handed
fusion data checks that data's factors, not only their dimensions, and a
balancing check draws at least one sample.
"""

import numpy as np
import pytest

from moritalab.exact import FiniteAbelianGroup, IntegerMatrix
from moritalab.rings import column_module, cyclic_ring, matrix_ring, row_module
from moritalab.errors import AlgebraMismatch
from moritalab.wstar import (
    MultiMatrixAlgebra,
    State,
    associator,
    block_correspondence,
    connes_fusion,
    gns_standard_form,
    identity_correspondence,
    left_unitor,
    right_unitor,
    trace_state,
    twisted_balancing_residual,
)

NON_INTEGERS = [2.5, 2.0, "3", True, None]
M2 = MultiMatrixAlgebra((2,), name="M2")
C = MultiMatrixAlgebra((1,), name="C")


@pytest.mark.parametrize("bad", NON_INTEGERS)
def test_group_factors_are_integers(bad):
    with pytest.raises(ValueError):
        FiniteAbelianGroup((bad,))
    group = FiniteAbelianGroup((np.int64(2), np.int32(4)))
    assert group == FiniteAbelianGroup((2, 4))
    assert all(type(d) is int for d in group.invariant_factors)


@pytest.mark.parametrize("bad", NON_INTEGERS)
def test_cyclic_ring_order_is_an_integer(bad):
    with pytest.raises(ValueError):
        cyclic_ring(bad)
    assert cyclic_ring(np.int64(3)).name == "Z/3"


@pytest.mark.parametrize("bad", NON_INTEGERS)
@pytest.mark.parametrize("build", [column_module, row_module, matrix_ring])
def test_matrix_sizes_are_integers(build, bad):
    # before, 2.5, '3' and True raised TypeError from deep inside the build
    with pytest.raises(ValueError):
        build(cyclic_ring(2), bad)
    assert build(cyclic_ring(2), np.int64(2)).name == build(cyclic_ring(2), 2).name


@pytest.mark.parametrize("bad", NON_INTEGERS + [1.5, np.float64(2.0)])
def test_integer_matrix_entries_are_integers(bad):
    # before, [[1.5]] was [[1]], [['2']] was [[2]] and [[True]] was [[1]]
    with pytest.raises(ValueError):
        IntegerMatrix([[1, bad]])
    M = IntegerMatrix([[np.int64(2), np.uint8(3)], [-1, 2 ** 70]])
    assert M.tolist() == [[2, 3], [-1, 2 ** 70]]
    assert all(type(v) is int for v in M.array.flat)
    # adopt wraps an array as it is, unchecked
    assert IntegerMatrix.adopt(np.array([[1.5]], dtype=object)).array[0, 0] == 1.5


@pytest.mark.parametrize("bad", NON_INTEGERS)
def test_block_sizes_are_integers(bad):
    with pytest.raises(ValueError):
        MultiMatrixAlgebra((2, bad))
    A = MultiMatrixAlgebra((np.int64(2), np.uint8(3)))
    assert A == MultiMatrixAlgebra((2, 3)) and A.dim == 5
    assert all(type(n) is int for n in A.block_sizes)


@pytest.mark.parametrize("bad", NON_INTEGERS)
def test_multiplicities_are_integers(bad):
    with pytest.raises(ValueError):
        block_correspondence(M2, C, [[bad]])
    H = block_correspondence(M2, C, [[np.int64(2)]])
    assert H.table == ((2,),) and H.dim == 4


@pytest.mark.parametrize("floor", [0.0, -1.0, float("nan"), float("inf")])
def test_a_state_floor_is_finite_and_positive(floor):
    # a floor of 0 admitted the singular diag(1, 0), left for
    # gns_standard_form to refuse; a negative one the non-positive
    # diag(1.5, -0.5)
    for density in (np.diag([1.0, 0.0]), np.diag([1.5, -0.5]), np.eye(2) / 2):
        with pytest.raises(ValueError, match="floor"):
            State(M2, density, floor=floor)
    assert State(M2, np.eye(2) / 2, floor=0.5).floor == 0.5


C2 = MultiMatrixAlgebra((1, 1), name="C+C")
C4 = MultiMatrixAlgebra((1, 1, 1, 1), name="C4")


def _std(A):
    return gns_standard_form(A, trace_state(A))


def test_a_unitor_checks_the_factors_of_its_fusion():
    # K1 and K2 have one dimension over the same algebras, and so have the
    # standard forms of M2 and C4: before, the left unitor of K2 on K1's
    # fusion said unitary with residual 1.0, and C4's leaked numpy's
    # broadcast error
    std, std4 = _std(M2), _std(C4)
    K1, K2 = (block_correspondence(M2, C2, t) for t in ([[1, 0]], [[0, 1]]))
    fus = connes_fusion(identity_correspondence(std), K1, std)
    assert left_unitor(K1, std, fus).residual() <= 1e-12
    for K, std_M in ((K2, std), (K1, std4)):
        with pytest.raises(ValueError, match="unitor factors"):
            left_unitor(K, std_M, fus)
    with pytest.raises(AlgebraMismatch):
        left_unitor(K1, std4)
    H1, H2 = (block_correspondence(C2, M2, t) for t in ([[1], [0]], [[0], [1]]))
    fus = connes_fusion(H1, identity_correspondence(std), std)
    assert right_unitor(H1, std, fus).residual() <= 1e-12
    for H, std_N in ((H2, std), (H1, std4)):
        with pytest.raises(ValueError, match="unitor factors"):
            right_unitor(H, std_N, fus)
    with pytest.raises(AlgebraMismatch):
        right_unitor(H1, std4)


def test_the_associator_checks_the_factors_of_its_fusions():
    std, std2 = _std(M2), _std(C2)
    L2, L2_C2 = identity_correspondence(std), identity_correspondence(std2)
    K1, K2 = (block_correspondence(M2, C2, t) for t in ([[1, 0]], [[0, 1]]))
    f_ab = connes_fusion(L2, K1, std)
    f_ab_c = connes_fusion(f_ab.corr, L2_C2, std2)

    def rebracket(K):
        f_bc = connes_fusion(K, L2_C2, std2)
        return f_bc, connes_fusion(L2, f_bc.corr, std)
    assert associator(f_ab, f_ab_c, *rebracket(K1)).is_unitary()
    # before, K2 in place of K1 gave a non-unitary map and no error
    with pytest.raises(ValueError, match="inner factors disagree"):
        associator(f_ab, f_ab_c, *rebracket(K2))
    with pytest.raises(ValueError, match="right-bracketed"):
        associator(f_ab, f_ab_c, rebracket(K1)[0], rebracket(K2)[1])
    with pytest.raises(ValueError, match="left-bracketed"):
        associator(f_ab, connes_fusion(connes_fusion(L2, K2, std).corr, L2_C2, std2),
                   *rebracket(K1))


@pytest.mark.parametrize("samples", [0, -3])
def test_a_balancing_check_draws_at_least_one_sample(samples):
    # before, no sample read 0.0, a pass on nothing
    std = _std(M2)
    L2 = identity_correspondence(std)
    fus = connes_fusion(L2, L2, std)
    with pytest.raises(ValueError, match="at least one sample"):
        twisted_balancing_residual(fus, std, np.random.default_rng(0), samples=samples)
    assert twisted_balancing_residual(fus, std, np.random.default_rng(0), samples=1) <= 1e-12
