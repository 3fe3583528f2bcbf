"""Finite ring constructors and bimodule validation."""

import numpy as np
import pytest

from moritalab.errors import RingMismatch, UnitDegenerate
from moritalab.exact import FiniteAbelianGroup, IntegerMatrix
from moritalab.rings import (
    Bimodule,
    BimoduleMap,
    bimodule_direct_sum,
    column_module,
    cyclic_ring,
    direct_product_ring,
    matrix_ring,
    opposite_ring,
    regular_bimodule,
    row_module,
    scalar_bimodule,
    truncated_polynomial_ring,
    zero_bimodule,
)
from moritalab.rings.base import FiniteRing

from oracles import matrices


def vec(matrix_2x2, p=2):
    return tuple(matrix_2x2[i][j] % p for i in range(2) for j in range(2))


class TestRingConstructors:
    def test_cyclic_ring_basics(self):
        Z6 = cyclic_ring(6)
        assert Z6.order == 6
        assert Z6.mul((4,), (5,)) == (2,)
        assert Z6.characteristic == 6

    def test_cyclic_ring_rejects_degenerate(self):
        with pytest.raises(UnitDegenerate):
            cyclic_ring(1)

    def test_truncated_polynomial_ring(self):
        F = truncated_polynomial_ring(2, 2)
        assert F.additive.invariant_factors == (2, 2)
        one, x = (1, 0), (0, 1)
        assert F.mul(x, x) == (0, 0)
        assert F.mul(one, x) == x
        assert F.characteristic == 2

    def test_matrix_ring_multiplication_matches_direct_oracle(self):
        M2 = matrix_ring(cyclic_ring(2), 2)
        assert M2.order == 16
        A = [[1, 1], [0, 1]]
        B = [[0, 1], [1, 1]]
        AB = [[sum(A[i][k] * B[k][j] for k in range(2)) % 2
               for j in range(2)] for i in range(2)]
        assert M2.mul(vec(A), vec(B)) == vec(AB)

    def test_matrix_ring_n1_is_base(self):
        Z4 = cyclic_ring(4)
        M1 = matrix_ring(Z4, 1)
        assert M1.additive == Z4.additive
        assert M1.mult == Z4.mult
        assert M1.unit == Z4.unit

    def test_matrix_ring_over_z4(self):
        M2 = matrix_ring(cyclic_ring(4), 2)
        assert M2.order == 4 ** 4
        assert M2.additive.invariant_factors == (4, 4, 4, 4)

    def test_opposite_ring_reverses_and_involutes(self):
        M2 = matrix_ring(cyclic_ring(2), 2)
        op = opposite_ring(M2)
        a, b = vec([[1, 1], [0, 1]]), vec([[0, 1], [1, 1]])
        assert op.mul(a, b) == M2.mul(b, a)
        assert opposite_ring(op).mult == M2.mult

    def test_opposite_of_commutative_is_same(self):
        Z6 = cyclic_ring(6)
        assert opposite_ring(Z6).mult == Z6.mult

    def test_direct_product_crt(self):
        P = direct_product_ring(cyclic_ring(2), cyclic_ring(3))
        assert P.additive.invariant_factors == (6,)
        assert P.mul(P.unit, P.unit) == P.unit

    def test_unit_degenerate_in_validation(self):
        group = FiniteAbelianGroup((2,))
        with pytest.raises(UnitDegenerate):
            # unit = 0 has additive order 1
            from moritalab.rings.base import FiniteRing
            FiniteRing(group, (((0,),),), (0,))

    def test_associativity_enforced(self):
        from moritalab.rings.base import FiniteRing
        group = FiniteAbelianGroup((4,))
        # e*e = 2e is not associative with unit law (no unit exists);
        # the unit law check rejects this table
        with pytest.raises(ValueError):
            FiniteRing(group, (((2,),),), (1,))


def _ring(factors, table, unit):
    return FiniteRing(FiniteAbelianGroup(factors), table, unit)


class TestRingLaws:
    """Each table breaks one law; the checker must name it."""

    def test_non_associative_table_with_two_sided_unit(self):
        # basis 1, a, b of (Z/2)^3: a.a = b, a.b = a, b.a = b.b = 0, so
        # (a.a).a = 0 but a.(a.a) = a, while 1 is a two-sided unit
        one, a, b, zero = (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)
        table = ((one, a, b), (a, b, a), (b, zero, zero))
        with pytest.raises(ValueError, match="not associative"):
            _ring((2, 2, 2), table, one)

    def test_only_the_right_unit_law_fails(self):
        # e0.y = y for every y and e1.y = 0: associative, e0 is a left unit,
        # but e1.e0 = 0 != e1
        table = (((1, 0), (0, 1)), ((0, 0), (0, 0)))
        with pytest.raises(ValueError, match="unit law"):
            _ring((2, 2), table, (1, 0))

    def test_ill_defined_in_second_slot(self):
        # e1.e0 = e1 has order 4 although e0 has order 2
        table = (((0, 0), (0, 0)), ((0, 1), (0, 0)))
        with pytest.raises(ValueError, match="second slot"):
            _ring((2, 4), table, (0, 1))

    def test_ill_defined_in_first_slot(self):
        # e0.e1 = e1 has order 4 although e0 has order 2
        table = (((0, 0), (0, 1)), ((0, 0), (0, 0)))
        with pytest.raises(ValueError, match="first slot"):
            _ring((2, 4), table, (0, 1))

    def test_table_shape_checked(self):
        with pytest.raises(ValueError):
            _ring((2, 2), (((1, 0), (0, 1)),), (1, 0))

    def test_is_commutative(self):
        assert truncated_polynomial_ring(2, 2).is_commutative
        assert cyclic_ring(6).is_commutative
        assert not matrix_ring(cyclic_ring(2), 2).is_commutative

    def test_wrong_length_elements_raise(self):
        F = truncated_polynomial_ring(2, 2)
        B = regular_bimodule(F)
        calls = [lambda: F.mul((1,), (0, 1)), lambda: F.mul((0, 1), (1, 0, 0)),
                 lambda: F.left_mult_matrix((1,)), lambda: F.right_mult_matrix((1, 0, 1)),
                 lambda: B.act_left((1, 0, 1), (0, 1)), lambda: B.act_left((1, 0), (0,)),
                 lambda: B.act_right((0, 1), (1,)), lambda: B.act_right((0, 1, 1), (1, 0))]
        for call in calls:
            with pytest.raises(ValueError, match="element length mismatch"):
                call()
        assert F.mul((1, 1), (0, 1)) == B.act_left((1, 1), (0, 1)) == (0, 1)


class TestBimoduleValidation:
    def test_representation_is_not_a_right_action(self):
        # the matrices of M_2(Z/2) on columns multiply the wrong way round
        # for a right action; every other law holds
        Z2 = cyclic_ring(2)
        M2 = matrix_ring(Z2, 2)
        C = column_module(Z2, 2, M2)
        with pytest.raises(ValueError, match="anti-multiplicative"):
            Bimodule(Z2, M2, C.carrier, (IntegerMatrix.identity(2),),
                     matrices(C.left_action))

    def test_only_commutation_fails(self):
        # s -> s^T is an anti-representation of M_2(Z/2), so both actions
        # are valid alone, but E_01 and E_01^T = E_10 do not commute
        Z2 = cyclic_ring(2)
        M2 = matrix_ring(Z2, 2)
        lam = matrices(column_module(Z2, 2, M2).left_action)
        rho = tuple(lam[2 * j + i] for i in range(2) for j in range(2))
        with pytest.raises(ValueError, match="do not commute"):
            Bimodule(M2, M2, FiniteAbelianGroup((2, 2)), lam, rho)

    def test_regular_bimodule_round_trip(self):
        Z4 = cyclic_ring(4)
        R = regular_bimodule(Z4)
        assert R.act_left((3,), (2,)) == (2,)
        assert R.act_right((2,), (3,)) == (2,)

    def test_scalar_bimodule_requires_divisibility(self):
        with pytest.raises(ValueError):
            scalar_bimodule(cyclic_ring(4), cyclic_ring(6), 4)

    def test_noncommuting_actions_rejected(self):
        M2 = matrix_ring(cyclic_ring(2), 2)
        C = column_module(cyclic_ring(2), 2, M2)
        # swap a left-action matrix with a non-commuting one
        bad_left = matrices(C.left_action)
        bad_left[1] = bad_left[2]
        with pytest.raises(ValueError):
            Bimodule(C.left_ring, C.right_ring, C.carrier,
                     tuple(bad_left), matrices(C.right_action))

    def test_map_must_intertwine(self):
        Z4 = cyclic_ring(4)
        R = regular_bimodule(Z4)
        S2 = scalar_bimodule(Z4, Z4, 2)
        # reduction mod 2 is a genuine bimodule map Z4 -> Z2
        f = BimoduleMap(R, S2, IntegerMatrix([[1]]))
        assert f.apply((3,)) == (1,)
        # a map that ignores orders is rejected
        with pytest.raises(ValueError):
            BimoduleMap(S2, R, IntegerMatrix([[1]]))

    def test_ring_mismatch(self):
        Z2, Z4 = cyclic_ring(2), cyclic_ring(4)
        with pytest.raises(RingMismatch):
            bimodule_direct_sum(regular_bimodule(Z2), regular_bimodule(Z4))

    def test_direct_sum_carrier_and_actions(self):
        Z4 = cyclic_ring(4)
        R = regular_bimodule(Z4)
        D = bimodule_direct_sum(R, scalar_bimodule(Z4, Z4, 2))
        assert D.carrier.invariant_factors == (2, 4)
        assert D.carrier.order == 8

    def test_column_and_row_modules(self):
        Z2 = cyclic_ring(2)
        M2 = matrix_ring(Z2, 2)
        C = column_module(Z2, 2, M2)
        W = row_module(Z2, 2, M2)
        assert C.left_ring == M2 and C.right_ring == Z2
        assert W.left_ring == Z2 and W.right_ring == M2
        E01 = [0] * 4
        E01[1] = 1  # matrix unit in slot (0, 1)
        assert C.act_left(E01, (0, 1)) == (1, 0)
        assert C.act_left(E01, (1, 0)) == (0, 0)
        assert W.act_right((1, 0), E01) == (0, 1)

    @pytest.mark.parametrize("R", [cyclic_ring(4),
                                   truncated_polynomial_ring(2, 2)],
                             ids=["Z4", "F2x2"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matrix_module_actions_entrywise(self, R, n):
        # entry ((m, b), (l, a)) of r_g.e_ij on columns is the m-coordinate
        # of r_g.r_l when a == j and b == i; rows use r_l.r_g, a == i, b == j
        k = R.rank
        slots = [(l, a) for l in range(k) for a in range(n)]

        def mat(entry):
            return IntegerMatrix([[entry(l, a, m, b) for (l, a) in slots]
                                  for (m, b) in slots])

        def unit(g, i, j, cols):
            def entry(l, a, m, b):
                prod = R.mult[g][l] if cols else R.mult[l][g]
                src, dst = (j, i) if cols else (i, j)
                return prod[m] if (a, b) == (src, dst) else 0
            return mat(entry)

        def scalar(g, left):
            def entry(l, a, m, b):
                prod = R.mult[g][l] if left else R.mult[l][g]
                return prod[m] if a == b else 0
            return mat(entry)

        units = [(g, i, j) for g in range(k) for i in range(n) for j in range(n)]
        C, W = column_module(R, n), row_module(R, n)
        assert matrices(C.left_action) == [unit(*u, cols=True) for u in units]
        assert matrices(C.right_action) == [scalar(g, False) for g in range(k)]
        assert matrices(W.left_action) == [scalar(g, True) for g in range(k)]
        assert matrices(W.right_action) == [unit(*u, cols=False) for u in units]

    def test_zero_bimodule(self):
        Z2, Z4 = cyclic_ring(2), cyclic_ring(4)
        Z = zero_bimodule(Z2, Z4)
        assert Z.carrier.order == 1
        assert Z.rank == 0


class TestOneStack:
    def test_equality_reads_reduced_stacks_and_ignores_the_name(self):
        # Z/2 x Z/4 has carrier factors (2, 4): each row has its own modulus
        R = direct_product_ring(cyclic_ring(2), cyclic_ring(4))
        B = regular_bimodule(R)
        fs = B.carrier.invariant_factors
        renamed = Bimodule(R, R, B.carrier, matrices(B.left_action),
                           matrices(B.right_action), name="another name")
        assert renamed == B and renamed.name != B.name
        assert B != regular_bimodule(cyclic_ring(4))
        assert B != "not a bimodule"
        with pytest.raises(TypeError):
            hash(B)
        for side in ("left", "right"):
            stack = getattr(B, f"{side}_action")
            for g, a, b in np.ndindex(stack.shape):
                for delta, same in ((fs[a], True), (-3 * fs[a], True), (1, False)):
                    moved = stack.copy()
                    moved[g, a, b] += delta
                    stacks = {"left_action": B.left_action, "right_action": B.right_action,
                              f"{side}_action": moved}
                    other = Bimodule._lawful(R, R, B.carrier, **stacks)
                    assert (other == B) is same, (side, g, a, b, delta)
