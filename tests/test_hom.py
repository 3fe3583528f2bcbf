"""Hom groups and endomorphism rings against exhaustive matrix enumeration."""

from __future__ import annotations

import numpy as np
import pytest

from moritalab.errors import SearchBudgetExceeded, UnitDegenerate
from moritalab.exact import IntegerMatrix, solve_integer
from moritalab.rings import (
    bimodule_direct_sum,
    bimodule_isomorphic,
    column_module,
    cyclic_ring,
    end_ring,
    endomorphism_ring,
    hom_group,
    matrix_ring,
    quotient_right_module,
    regular_bimodule,
    right_ideals,
    right_module,
    ring_iso_search,
    row_module,
    scalar_bimodule,
    tensor_product,
    truncated_polynomial_ring,
    zero_bimodule,
)

from oracles import hom_count_oracle


def _hom_pairs():
    Z2, Z4 = cyclic_ring(2), cyclic_ring(4)
    F2x = truncated_polynomial_ring(2, 2)
    R4 = regular_bimodule(Z4)
    S2 = scalar_bimodule(Z2, Z4, 2)
    V = bimodule_direct_sum(regular_bimodule(Z2), regular_bimodule(Z2))
    RF = regular_bimodule(F2x)
    return [
        (R4, R4, "right"),
        (R4, S2, "right"),
        (S2, R4, "right"),
        (V, regular_bimodule(Z2), "right"),
        (V, V, "right"),
        (RF, RF, "right"),
        (RF, RF, "both"),
        (R4, R4, "both"),
    ]


class TestHomGroups:
    def test_orders_match_enumeration(self):
        for M, N, side in _hom_pairs():
            H = hom_group(M, N, side)
            assert H.group.order == hom_count_oracle(M, N, side), (M.name, N.name, side)

    def test_regular_hom_is_the_ring(self):
        Z4 = cyclic_ring(4)
        H = hom_group(regular_bimodule(Z4), regular_bimodule(Z4), "right")
        assert H.group.invariant_factors == (4,)

    def test_elements_and_coordinates_round_trip(self):
        Z2 = cyclic_ring(2)
        V = bimodule_direct_sum(regular_bimodule(Z2), regular_bimodule(Z2))
        H = hom_group(V, V, "right")
        seen = set()
        for f in H.elements():
            coords = H.coordinates(f)
            assert H.from_coordinates(coords).matrix == f.matrix
            seen.add(tuple(tuple(row) for row in f.matrix.tolist()))
        assert len(seen) == H.group.order == 16

    def test_stored_decomposition_matches_fresh_solve(self):
        # coordinates go through the Smith form kept with the group; a fresh
        # solve of the same square, nonsingular basis must agree everywhere
        Z4, F2x = cyclic_ring(4), truncated_polynomial_ring(2, 2)
        pairs = _hom_pairs() + [(column_module(R, 2), column_module(R, 2), "right")
                                for R in (Z4, F2x)]
        for M, N, side in pairs:
            H = hom_group(M, N, side)
            K = H.basis_matrix
            assert K.rows == K.cols == M.rank * N.rank
            for coords in H.group.elements():
                f = H.from_coordinates(coords)
                flat = [v for row in f.matrix.tolist() for v in row]
                assert H.coordinates(f) == H._proj.apply(solve_integer(K, flat)) \
                    == coords

    def test_hom_from_zero_is_trivial(self):
        Z4 = cyclic_ring(4)
        Z = zero_bimodule(Z4, Z4)
        H = hom_group(Z, regular_bimodule(Z4), "right")
        assert H.group.order == 1
        H = hom_group(regular_bimodule(Z4), Z, "right")
        assert H.group.order == 1

    def test_two_sided_hom_of_column_module(self):
        # only scalar maps commute with both actions
        Z2 = cyclic_ring(2)
        C = column_module(Z2, 2)
        H = hom_group(C, C, "both")
        assert H.group.order == hom_count_oracle(C, C, "both") == 2


class TestEndomorphismRings:
    def test_end_of_plane_is_two_by_two_matrices(self):
        Z2 = cyclic_ring(2)
        V = bimodule_direct_sum(regular_bimodule(Z2), regular_bimodule(Z2))
        E = endomorphism_ring(V, "right")
        assert E.ring.order == 16
        iso = ring_iso_search(E.ring, matrix_ring(Z2, 2))
        assert iso is not None

    def test_composition_order(self):
        # matrix_of respects (f.g)(x) = f(g(x))
        Z2 = cyclic_ring(2)
        V = bimodule_direct_sum(regular_bimodule(Z2), regular_bimodule(Z2))
        E = endomorphism_ring(V, "right")
        a = E.coordinates_of(IntegerMatrix([[0, 1], [0, 0]]))
        b = E.coordinates_of(IntegerMatrix([[0, 0], [1, 0]]))
        prod = E.ring.mul(a, b)
        assert E.matrix_of(prod) == IntegerMatrix([[1, 0], [0, 0]])

    def test_end_ring_wrapper(self):
        Z4 = cyclic_ring(4)
        E = end_ring(regular_bimodule(Z4))
        assert E.additive.invariant_factors == (4,)
        assert E.characteristic == 4

    def test_end_of_zero_module_degenerate(self):
        Z4 = cyclic_ring(4)
        with pytest.raises(UnitDegenerate):
            endomorphism_ring(zero_bimodule(Z4, Z4))


class TestModuleIsomorphism:
    def test_swapped_summands_isomorphic(self):
        Z4 = cyclic_ring(4)
        R4 = right_module(Z4, Z4.additive, [Z4.right_mult_matrix((1,))])
        S2 = quotient_right_module(Z4, frozenset({(0,), (2,)}))
        A = bimodule_direct_sum(R4, S2)
        B = bimodule_direct_sum(S2, R4)
        f = bimodule_isomorphic(A, B)
        assert f is not None and f.is_bijective()

    def test_socle_action_distinguishes(self):
        # regular F2[x]/(x^2) vs two copies of its residue field: same carrier,
        # x acts nonzero on one and zero on the other
        F2x = truncated_polynomial_ring(2, 2)
        RF = right_module(F2x, F2x.additive,
                          [F2x.right_mult_matrix((1, 0)), F2x.right_mult_matrix((0, 1))])
        socle = frozenset({(0, 0), (0, 1)})
        assert socle in right_ideals(F2x)
        k = quotient_right_module(F2x, socle)
        N = bimodule_direct_sum(k, k)
        assert N.carrier.invariant_factors == RF.carrier.invariant_factors
        assert bimodule_isomorphic(RF, N) is None

    def test_mismatch_short_circuits(self):
        Z4 = cyclic_ring(4)
        Z6 = cyclic_ring(6)
        assert bimodule_isomorphic(regular_bimodule(Z4), regular_bimodule(Z6)) is None

    def test_budget_guard(self):
        Z4 = cyclic_ring(4)
        R4 = regular_bimodule(Z4)
        with pytest.raises(SearchBudgetExceeded):
            bimodule_isomorphic(R4, R4, budget=1)

    def test_zero_modules_isomorphic(self):
        Z4 = cyclic_ring(4)
        f = bimodule_isomorphic(zero_bimodule(Z4, Z4), zero_bimodule(Z4, Z4))
        assert f is not None

    def test_tensor_collapse_isomorphism(self):
        # column (x)_{Z2} row recovers the regular M2(F2) bimodule
        Z2 = cyclic_ring(2)
        M2 = matrix_ring(Z2, 2)
        C = column_module(Z2, 2, M2)
        W = row_module(Z2, 2, M2)
        tp = tensor_product(C, W)
        f = bimodule_isomorphic(tp.module, regular_bimodule(M2))
        assert f is not None


def test_stacked_coordinates_equal_one_map_at_a_time():
    # a stack of maps is solved on one factorization: each column must be
    # the coordinates of its map alone, and one non-map anywhere must raise
    Z4 = cyclic_ring(4)
    C = column_module(Z4, 2)
    for M, N, side in _hom_pairs() + [(C, C, "left")]:
        H = hom_group(M, N, side)
        maps = [f.matrix for f in H.elements()]
        stacked = H.coordinates(np.array([X.array for X in maps], dtype=object))
        assert stacked.columns() == [list(H.coordinates(X)) for X in maps]
    not_a_map = IntegerMatrix([[1, 0], [0, 0]])
    with pytest.raises(ValueError, match="^matrix is not a map in this hom group$"):
        H.coordinates(not_a_map)
    with pytest.raises(ValueError, match="^matrix is not a map in this hom group$"):
        H.coordinates(np.array([maps[1].array, not_a_map.array], dtype=object))
