"""Tensor products over a middle ring, checked against brute enumeration.

The oracle side never touches Smith forms: it lists every generator-pair
relation, closes the relation subgroup by hand, and reads the quotient's
invariant factors off element-order counts.
"""

from __future__ import annotations

from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moritalab.errors import NotBalanced, RingMismatch
from moritalab.exact import IntegerMatrix, kron
from moritalab.rings import (
    Bimodule,
    BimoduleMap,
    column_module,
    cyclic_ring,
    direct_product_ring,
    factor_through_tensor,
    hom_group,
    identity_map,
    invert_bimodule_map,
    left_unitor,
    maps_equal,
    matrix_ring,
    regular_bimodule,
    right_unitor,
    row_module,
    scalar_bimodule,
    tensor_associator,
    tensor_of_maps,
    tensor_oracle_corpus,
    tensor_product,
    truncated_polynomial_ring,
    zero_bimodule,
)
from moritalab.rings.base import reduced_stack

from oracles import determinant, kron_differences, matrices, stacked, tensor_invariants_oracle


def _generators(rank):
    return [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]


class TestAgainstOracle:
    def test_corpus_matches_enumeration(self):
        corpus = tensor_oracle_corpus()
        assert len(corpus) >= 20
        for M, N in corpus:
            assert M.right_ring.order <= 12
            tp = tensor_product(M, N)
            got = tp.module.carrier.invariant_factors
            want = tensor_invariants_oracle(M, N)
            assert got == want, f"{M.name} (x) {N.name}: {got} != {want}"
            # the kept relation basis lies in the kernel and has the index of
            # the quotient, so it spans the whole relation lattice
            rel = tp.relation_matrix
            assert rel.cols <= tp.ambient_size
            assert all(not any(tp.projection.apply(c)) for c in rel.columns())
            assert abs(determinant(rel)) == tp.module.carrier.order

    def test_cyclic_scalars(self):
        # Z/4 (x)_{Z/12} Z/6 collapses to Z/2
        Z12 = cyclic_ring(12)
        M = scalar_bimodule(cyclic_ring(4), Z12, 4)
        N = scalar_bimodule(Z12, cyclic_ring(6), 6)
        tp = tensor_product(M, N)
        assert tp.module.carrier.invariant_factors == (2,)
        assert tp.module.left_ring.order == 4
        assert tp.module.right_ring.order == 6

    @given(st.integers(2, 12), st.data())
    @settings(max_examples=40, deadline=None)
    def test_scalar_tensor_is_gcd(self, m, data):
        divisors = [d for d in range(2, m + 1) if m % d == 0]
        d1 = data.draw(st.sampled_from(divisors))
        d2 = data.draw(st.sampled_from(divisors))
        S = cyclic_ring(m)
        M = scalar_bimodule(cyclic_ring(d1), S, d1)
        N = scalar_bimodule(S, cyclic_ring(d2), d2)
        got = tensor_product(M, N).module.carrier.invariant_factors
        g = gcd(d1, d2)
        assert got == (() if g == 1 else (g,))
        assert got == tensor_invariants_oracle(M, N)

    def test_zero_factor(self):
        Z4 = cyclic_ring(4)
        Z = zero_bimodule(Z4, Z4)
        tp = tensor_product(Z, regular_bimodule(Z4))
        assert tp.module.rank == 0
        tp = tensor_product(regular_bimodule(Z4), Z)
        assert tp.module.rank == 0

    def test_middle_ring_mismatch(self):
        M = regular_bimodule(cyclic_ring(4))
        N = regular_bimodule(cyclic_ring(6))
        with pytest.raises(RingMismatch):
            tensor_product(M, N)


class TestPureTensors:
    def test_biadditive_and_balanced(self):
        M2 = matrix_ring(cyclic_ring(2), 2)
        W = row_module(cyclic_ring(2), 2, M2)
        C = column_module(cyclic_ring(2), 2, M2)
        tp = tensor_product(W, C)
        g = tp.module.carrier
        for m1 in W.carrier.elements():
            for m2 in W.carrier.elements():
                for n in C.carrier.elements():
                    lhs = tp.pure(W.carrier.add(m1, m2), n)
                    rhs = g.add(tp.pure(m1, n), tp.pure(m2, n))
                    assert lhs == rhs
        for m in W.carrier.elements():
            for s in M2.elements():
                for n in C.carrier.elements():
                    assert tp.pure(W.act_right(m, s), n) == tp.pure(m, C.act_left(s, n))

    def test_actions_on_generator_pairs_of_the_corpus(self):
        # r.(m (x) n) = (r.m) (x) n and (m (x) n).s = m (x) (n.s)
        for M, N in tensor_oracle_corpus():
            tp = tensor_product(M, N)
            T = tp.module
            for m in _generators(M.rank):
                for n in _generators(N.rank):
                    mn = tp.pure(m, n)
                    for r in _generators(M.left_ring.rank):
                        assert T.act_left(r, mn) == tp.pure(M.act_left(r, m), n)
                    for s in _generators(N.right_ring.rank):
                        assert T.act_right(mn, s) == tp.pure(m, N.act_right(n, s))

    def test_actions_on_pure_tensors(self):
        Z4 = cyclic_ring(4)
        R = regular_bimodule(Z4)
        S = scalar_bimodule(Z4, cyclic_ring(2), 2)
        tp = tensor_product(R, S)
        T = tp.module
        for r in Z4.elements():
            for m in R.carrier.elements():
                for n in S.carrier.elements():
                    assert T.act_left(r, tp.pure(m, n)) == tp.pure(R.act_left(r, m), n)


class TestUnitors:
    def test_left_unitor(self):
        R = truncated_polynomial_ring(2, 2)
        M = regular_bimodule(R)
        tp = tensor_product(regular_bimodule(R), M)
        lu = left_unitor(tp)
        assert lu.is_bijective()
        for r in R.elements():
            for m in M.carrier.elements():
                assert lu.apply(tp.pure(r, m)) == M.act_left(r, m)

    def test_right_unitor(self):
        Z4 = cyclic_ring(4)
        M = scalar_bimodule(cyclic_ring(2), Z4, 2)
        tp = tensor_product(M, regular_bimodule(Z4))
        ru = right_unitor(tp)
        assert ru.is_bijective()
        for m in M.carrier.elements():
            for s in Z4.elements():
                assert ru.apply(tp.pure(m, s)) == M.act_right(m, s)

    def test_unitor_rejects_non_regular_factor(self):
        Z4 = cyclic_ring(4)
        M = scalar_bimodule(Z4, Z4, 2)
        tp = tensor_product(M, M)
        with pytest.raises(ValueError):
            left_unitor(tp)

    def test_unitor_rejects_a_twisted_factor_on_the_regular_group(self):
        # Z/2 x Z/2 acting on itself through the swap of its two idempotents
        # is a bimodule on the regular group, but r (x) m -> r.m is not linear
        R = direct_product_ring(cyclic_ring(2), cyclic_ring(2))
        reg = regular_bimodule(R)
        lam, rho = matrices(reg.left_action), matrices(reg.right_action)
        twisted_left = Bimodule(R, R, R.additive, lam[::-1], rho)
        twisted_right = Bimodule(R, R, R.additive, lam, rho[::-1])
        with pytest.raises(ValueError, match="^left factor is not a regular"):
            left_unitor(tensor_product(twisted_left, reg))
        with pytest.raises(ValueError, match="^right factor is not a regular"):
            right_unitor(tensor_product(reg, twisted_right))


class TestAssociator:
    def test_pentagon_legs_share_values(self):
        Z4 = cyclic_ring(4)
        A = regular_bimodule(Z4)
        B = scalar_bimodule(Z4, Z4, 2)
        C = scalar_bimodule(Z4, cyclic_ring(2), 2)
        t_ab = tensor_product(A, B)
        t_ab_c = tensor_product(t_ab.module, C)
        t_bc = tensor_product(B, C)
        t_a_bc = tensor_product(A, t_bc.module)
        assoc = tensor_associator(t_ab, t_ab_c, t_bc, t_a_bc)
        assert assoc.is_bijective()
        for a in A.carrier.elements():
            for b in B.carrier.elements():
                for c in C.carrier.elements():
                    lhs = assoc.apply(t_ab_c.pure(t_ab.pure(a, b), c))
                    rhs = t_a_bc.pure(a, t_bc.pure(b, c))
                    assert lhs == rhs
        inv = invert_bimodule_map(assoc)
        assert maps_equal(inv.after(assoc), identity_map(t_ab_c.module))
        assert maps_equal(assoc.after(inv), identity_map(t_a_bc.module))

    def test_presentations_must_share_their_factors(self):
        Z4 = cyclic_ring(4)
        A, C = regular_bimodule(Z4), scalar_bimodule(Z4, Z4, 2)
        t_ab = tensor_product(A, scalar_bimodule(Z4, Z4, 2))
        t_bc = tensor_product(regular_bimodule(Z4), C)  # another B
        with pytest.raises(ValueError, match="^the four presentations do not share"):
            tensor_associator(t_ab, tensor_product(t_ab.module, C), t_bc,
                              tensor_product(A, t_bc.module))

    def test_matrix_ring_chain(self):
        Z2 = cyclic_ring(2)
        M2 = matrix_ring(Z2, 2)
        W = row_module(Z2, 2, M2)   # (Z2, M2)
        C = column_module(Z2, 2, M2)  # (M2, Z2)
        R = regular_bimodule(Z2)
        t_wc = tensor_product(W, C)
        t_wc_r = tensor_product(t_wc.module, R)
        t_cr = tensor_product(C, R)
        t_w_cr = tensor_product(W, t_cr.module)
        assoc = tensor_associator(t_wc, t_wc_r, t_cr, t_w_cr)
        assert assoc.is_bijective()
        for w in _generators(W.rank):
            for c in _generators(C.rank):
                for r in _generators(R.rank):
                    lhs = assoc.apply(t_wc_r.pure(t_wc.pure(w, c), r))
                    assert lhs == t_w_cr.pure(w, t_cr.pure(c, r))


class TestFunctoriality:
    def test_identity_pair(self):
        Z4 = cyclic_ring(4)
        M = regular_bimodule(Z4)
        N = scalar_bimodule(Z4, Z4, 2)
        tp = tensor_product(M, N)
        t = tensor_of_maps(tp, tp, identity_map(M), identity_map(N))
        assert maps_equal(t, identity_map(tp.module))

    def test_composition(self):
        Z4 = cyclic_ring(4)
        M = regular_bimodule(Z4)
        N = scalar_bimodule(Z4, Z4, 2)
        # maps M -> M and N -> N given by integer scalars
        g1 = BimoduleMap(M, M, IntegerMatrix([[3]]))
        f1 = BimoduleMap(M, M, IntegerMatrix([[2]]))
        g2 = BimoduleMap(regular_bimodule(Z4), N, IntegerMatrix([[1]]))
        f2 = BimoduleMap(N, N, IntegerMatrix([[1]]))
        t0 = tensor_product(M, regular_bimodule(Z4))
        t1 = tensor_product(M, N)
        t2 = tensor_product(M, N)
        lhs = tensor_of_maps(t0, t2, f1.after(g1), f2.after(g2))
        rhs = tensor_of_maps(t1, t2, f1, f2).after(tensor_of_maps(t0, t1, g1, g2))
        assert maps_equal(lhs, rhs)

    def test_mismatched_factors_rejected(self):
        Z4 = cyclic_ring(4)
        M = regular_bimodule(Z4)
        N = scalar_bimodule(Z4, Z4, 2)
        tp = tensor_product(M, N)
        with pytest.raises(ValueError):
            tensor_of_maps(tp, tp, identity_map(N), identity_map(N))

    def test_unbalanced_pair_rejected(self):
        # swapping 1 and x is additive but not F2[x]/x^2-linear, so it sends
        # the relation x (x) 1 - 1 (x) x to 1 (x) 1 - x (x) x = 1 != 0
        R = regular_bimodule(truncated_polynomial_ring(2, 2))
        tp = tensor_product(R, R)
        swap = BimoduleMap(R, R, IntegerMatrix([[0, 1], [1, 0]]), ())
        with pytest.raises(NotBalanced):
            tensor_of_maps(tp, tp, swap, identity_map(R))

    def test_pair_order_violation_rejected(self):
        # Z/2 (x) Z/4 -> Z/4 (x) Z/4 sending the order-2 pair to 1 (x) 1,
        # which has order 4; no balancing relation is involved
        Z4 = cyclic_ring(4)
        half = scalar_bimodule(Z4, Z4, 2)
        M = regular_bimodule(Z4)
        tp_src = tensor_product(half, M)
        tp_tgt = tensor_product(M, M)
        assert tp_src.relation_matrix == IntegerMatrix([[2]])
        f = BimoduleMap(half, M, IntegerMatrix([[2]]))
        f.matrix = IntegerMatrix([[1]])  # past the constructor's order check
        with pytest.raises(NotBalanced):
            tensor_of_maps(tp_src, tp_tgt, f, identity_map(M))


class TestFactorThrough:
    def test_multiplication_pairing(self):
        # row (x)_{M2} column -> Z2, w (x) c -> w.c
        Z2 = cyclic_ring(2)
        M2 = matrix_ring(Z2, 2)
        W = row_module(Z2, 2, M2)
        C = column_module(Z2, 2, M2)
        tp = tensor_product(W, C)
        target = scalar_bimodule(Z2, Z2, 2)
        cols = [[0] for _ in range(tp.ambient_size)]
        for a in range(2):
            cols[tp.ambient_index(a, a)] = [1]
        amb = IntegerMatrix.from_columns(cols, 1)
        pairing = factor_through_tensor(tp, amb, target)
        assert pairing.is_bijective()
        for w in W.carrier.elements():
            for c in C.carrier.elements():
                dot = sum(w[a] * c[a] for a in range(2)) % 2
                assert pairing.apply(tp.pure(w, c)) == (dot,)

    def test_unbalanced_rejected(self):
        Z2 = cyclic_ring(2)
        M2 = matrix_ring(Z2, 2)
        W = row_module(Z2, 2, M2)
        C = column_module(Z2, 2, M2)
        tp = tensor_product(W, C)
        target = scalar_bimodule(Z2, Z2, 2)
        cols = [[0] for _ in range(tp.ambient_size)]
        cols[tp.ambient_index(0, 0)] = [1]  # picks one coefficient, not balanced
        amb = IntegerMatrix.from_columns(cols, 1)
        with pytest.raises(NotBalanced):
            factor_through_tensor(tp, amb, target)

    def test_order_violation_rejected(self):
        Z4 = cyclic_ring(4)
        M = regular_bimodule(Z4)
        N = scalar_bimodule(Z4, Z4, 2)
        tp = tensor_product(M, N)  # ambient order 2
        target = regular_bimodule(Z4)
        amb = IntegerMatrix([[1]])  # 2.(m (x) n) = 0 but 2.1 != 0 in Z4
        with pytest.raises(NotBalanced):
            factor_through_tensor(tp, amb, target)


def _square_stack(data, k, n):
    return [IntegerMatrix([data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
                           for _ in range(n)], n, n) for _ in range(k)]


class TestKroneckerStack:
    @settings(max_examples=60, derandomize=True)
    @given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.data())
    def test_stack_is_x_kron_one_minus_one_kron_y(self, k, a, b, data):
        X, Y = _square_stack(data, k, a), _square_stack(data, k, b)
        fa, fb = (data.draw(st.lists(st.sampled_from([2, 3, 4, 6]), min_size=n, max_size=n))
                  for n in (a, b))
        D = kron_differences(reduced_stack(stacked(X, a), fa), reduced_stack(stacked(Y, b), fb))
        assert D.shape == (k, a * b, a * b)

        def reduced(M, fs):
            return IntegerMatrix([[v % f for v in row] for row, f in zip(M.tolist(), fs)], M.rows, M.cols)

        one_a, one_b = IntegerMatrix.identity(a), IntegerMatrix.identity(b)
        for g in range(k):
            left, right = kron(reduced(X[g], fa), one_b), kron(one_a, reduced(Y[g], fb))
            assert D[g].tolist() == [[u - v for u, v in zip(ru, rv)]
                                     for ru, rv in zip(left.tolist(), right.tolist())]

    def test_zero_bimodule_hom_and_tensor(self):
        Z4 = cyclic_ring(4)
        Z = zero_bimodule(Z4, Z4)
        for side in ("left", "right", "both"):
            assert hom_group(Z, regular_bimodule(Z4), side).rank == 0
            assert hom_group(regular_bimodule(Z4), Z, side).rank == 0
        assert tensor_product(Z, Z).module.rank == 0


def _shifted(B: Bimodule) -> Bimodule:
    """B with every action entry in row a moved by 2^80 times the a-th factor."""
    fs = B.carrier.invariant_factors

    def shift(mats):
        return tuple(IntegerMatrix([[v + 2 ** 80 * f for v in row]
                                    for row, f in zip(M.tolist(), fs)], M.rows, M.cols)
                     for M in mats)

    return Bimodule(B.left_ring, B.right_ring, B.carrier, shift(matrices(B.left_action)),
                    shift(matrices(B.right_action)), name=B.name)


def _past_int64_pairs():
    Z4, F = cyclic_ring(4), truncated_polynomial_ring(2, 2)
    out = [(regular_bimodule(Z4), scalar_bimodule(Z4, Z4, 2)),
           (regular_bimodule(F), regular_bimodule(F))]
    for R in (Z4, F):
        Mn = matrix_ring(R, 2)
        col, row = column_module(R, 2, Mn), row_module(R, 2, Mn)
        out += [(col, row), (row, col)]
    return out


class TestExactPastInt64:
    @pytest.mark.parametrize("idx", range(6))
    def test_shifted_tensor_equals_the_reduced_one(self, idx):
        M, N = _past_int64_pairs()[idx]
        tp = tensor_product(M, N)
        big = tensor_product(_shifted(M), _shifted(N))
        assert big.module.carrier == tp.module.carrier
        assert np.array_equal(big.module.left_action, tp.module.left_action)
        assert np.array_equal(big.module.right_action, tp.module.right_action)

    @pytest.mark.parametrize("idx", range(6))
    def test_shifted_hom_equals_the_reduced_one(self, idx):
        M = _past_int64_pairs()[idx][0]
        big = _shifted(M)
        for side in ("left", "right", "both"):
            H, Hb = hom_group(M, M, side), hom_group(big, big, side)
            assert Hb.group == H.group
            for X in H.generator_matrices():
                Hb.coordinates(X)
            for X in Hb.generator_matrices():
                H.coordinates(X)
