"""Sizes and floors at the Python boundary.

A size is an integer, a NumPy integer included: a float, a numeric string
or a bool raises ValueError rather than being truncated or read, as spec
files already reject them.  So is every entry of a public IntegerMatrix.  A state's floor is finite and positive, so a
State is faithful by construction.
"""

import numpy as np
import pytest

from moritalab.exact import FiniteAbelianGroup, IntegerMatrix
from moritalab.rings import column_module, cyclic_ring, matrix_ring, row_module
from moritalab.wstar import MultiMatrixAlgebra, State, block_correspondence

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
