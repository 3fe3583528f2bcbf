"""Morita certification and the ring isomorphism search."""

from __future__ import annotations

import pytest

from moritalab.errors import SearchBudgetExceeded, UnitDegenerate
from moritalab.exact import FiniteAbelianGroup, IntegerMatrix
from moritalab.rings import (
    FiniteRing,
    canonical_end_map,
    certify_invertible_bimodule,
    column_module,
    cyclic_ring,
    direct_product_ring,
    is_fg_projective,
    is_generator,
    is_progenerator,
    is_ring_isomorphism,
    matrix_ring,
    morita_context,
    opposite_ring,
    quotient_right_module,
    regular_bimodule,
    ring_iso_search,
    truncated_polynomial_ring,
    zero_bimodule,
)


def _f4_dual_numbers() -> FiniteRing:
    """F4[v]/(v^2): generators 1, w, v, wv with w^2 = 1 + w and v^2 = 0."""
    g = FiniteAbelianGroup((2, 2, 2, 2))
    e = lambda *c: tuple(c)
    mult = [[None] * 4 for _ in range(4)]
    mult[0] = [e(1, 0, 0, 0), e(0, 1, 0, 0), e(0, 0, 1, 0), e(0, 0, 0, 1)]
    mult[1][0] = e(0, 1, 0, 0)
    mult[1][1] = e(1, 1, 0, 0)
    mult[1][2] = e(0, 0, 0, 1)
    mult[1][3] = e(0, 0, 1, 1)
    mult[2][0] = e(0, 0, 1, 0)
    mult[2][1] = e(0, 0, 0, 1)
    mult[2][2] = e(0, 0, 0, 0)
    mult[2][3] = e(0, 0, 0, 0)
    mult[3][0] = e(0, 0, 0, 1)
    mult[3][1] = e(0, 0, 1, 1)
    mult[3][2] = e(0, 0, 0, 0)
    mult[3][3] = e(0, 0, 0, 0)
    return FiniteRing(g, tuple(tuple(row) for row in mult), (1, 0, 0, 0),
                      name="F4[v]/(v2)")


class TestContext:
    def test_context_shape_for_regular_module(self):
        Z4 = cyclic_ring(4)
        ctx = morita_context(regular_bimodule(Z4))
        assert ctx.ground_ring == Z4
        assert ctx.end.ring.order == 4
        assert ctx.dual.carrier.invariant_factors == (4,)
        # alpha lands in the ground ring, beta in the endomorphism ring
        assert ctx.alpha.target.carrier == Z4.additive
        assert ctx.beta.target.carrier == ctx.end.ring.additive

    def test_generator_preimages_evaluate(self):
        Z4 = cyclic_ring(4)
        P = regular_bimodule(Z4)
        ctx = morita_context(P)
        cert = is_generator(P, ctx)
        assert cert.holds
        for g, pre in enumerate(cert.preimages):
            want = tuple(1 if i == g else 0 for i in range(Z4.rank))
            assert ctx.alpha.apply(pre) == want

    def test_progenerator_combines_both(self):
        Z2 = cyclic_ring(2)
        P = column_module(Z2, 2)
        cert = is_progenerator(P)
        assert cert.holds

    def test_small_ideal_is_projective_not_generator(self):
        # 2.Z/4 inside Z/4: projective fails too (not a direct summand),
        # and generation fails with trace ideal 2.Z/4
        Z4 = cyclic_ring(4)
        P = quotient_right_module(Z4, frozenset({(0,), (2,)}))
        assert P.carrier.invariant_factors == (2,)
        ctx = morita_context(P)
        gen = is_generator(P, ctx)
        assert not gen.holds
        assert gen.obstruction == (2,)
        assert not is_fg_projective(P, ctx).holds

    def test_zero_module_degenerate(self):
        Z4 = cyclic_ring(4)
        with pytest.raises(UnitDegenerate):
            morita_context(zero_bimodule(Z4, Z4))


class TestCertification:
    def test_column_modules_certify(self):
        for R, n in [(cyclic_ring(2), 2), (cyclic_ring(4), 2),
                     (truncated_polynomial_ring(2, 2), 3)]:
            P = column_module(R, n)
            cert = certify_invertible_bimodule(P)
            assert cert.equivalent, cert.reason
            assert cert.iso_to_left.is_bijective()
            assert cert.iso_to_right.is_bijective()
            assert cert.inverse.left_ring == R
            assert cert.inverse.right_ring == P.left_ring

    def test_regular_bimodule_certifies(self):
        Z6 = cyclic_ring(6)
        cert = certify_invertible_bimodule(regular_bimodule(Z6))
        assert cert.equivalent
        # the inverse is again the ring on itself
        assert cert.inverse.carrier.invariant_factors == (6,)

    def test_small_ideal_refuted(self):
        Z4 = cyclic_ring(4)
        P = quotient_right_module(Z4, frozenset({(0,), (2,)}))
        cert = certify_invertible_bimodule(P)
        assert cert.refuted
        assert "not onto" in cert.reason
        assert cert.context is not None

    def test_zero_module_refuted(self):
        Z4 = cyclic_ring(4)
        cert = certify_invertible_bimodule(zero_bimodule(Z4, Z4))
        assert cert.refuted
        assert cert.reason == "zero module"

    def test_canonical_map_square(self):
        # for the column module the canonical map hits every endomorphism
        Z2 = cyclic_ring(2)
        P = column_module(Z2, 2)
        ctx = morita_context(P)
        cmat = canonical_end_map(P, ctx)
        assert cmat.rows == ctx.end.ring.rank
        assert cmat.cols == P.left_ring.rank

    def test_certified_isos_invert_each_other_pointwise(self):
        Z4 = cyclic_ring(4)
        P = column_module(Z4, 2)
        cert = certify_invertible_bimodule(P)
        assert cert.equivalent
        S = P.right_ring
        # evaluation sends q (x) p to a ring element; the unit must be hit
        unit_pre = cert.iso_to_right.preimage(S.one())
        assert cert.iso_to_right.apply(unit_pre) == S.one()


class TestRingIsoSearch:
    def test_crt_isomorphism(self):
        Z6 = cyclic_ring(6)
        prod = direct_product_ring(cyclic_ring(2), cyclic_ring(3))
        T = ring_iso_search(Z6, prod)
        assert T is not None
        assert is_ring_isomorphism(Z6, prod, T)

    def test_rejected_leaf_backtracks(self, monkeypatch):
        # M_2(Z/2) and its opposite are isomorphic in six ways; a leaf that
        # fails the independent check must send the search on, not end it
        import moritalab.rings.isosearch as isosearch

        M2 = matrix_ring(cyclic_ring(2), 2)
        E = opposite_ring(M2)
        assert E.mult != M2.mult
        real = isosearch.is_ring_isomorphism
        seen = []

        def reject_first(A, B, T):
            seen.append((A, B, T))
            return len(seen) > 1 and real(A, B, T)

        monkeypatch.setattr(isosearch, "is_ring_isomorphism", reject_first)
        T = ring_iso_search(E, M2)
        assert len(seen) >= 2 and real(*seen[0])
        assert T is not None and is_ring_isomorphism(E, M2, T)

    def test_additive_mismatch_is_refuted_fast(self):
        Z4 = cyclic_ring(4)
        F2x = truncated_polynomial_ring(2, 2)
        assert ring_iso_search(Z4, F2x) is None

    def test_square_profile_refutes(self):
        F2x = truncated_polynomial_ring(2, 2)
        prod = direct_product_ring(cyclic_ring(2), cyclic_ring(2))
        assert ring_iso_search(F2x, prod) is None

    def test_deep_refutation_needs_search(self):
        # same additive group, characteristic, commutativity, idempotent and
        # square-zero counts; only the search itself can tell them apart
        R1 = truncated_polynomial_ring(2, 4)
        R2 = _f4_dual_numbers()

        def sq(R):
            idem = sum(1 for x in R.elements() if R.mul(x, x) == x)
            nil = sum(1 for x in R.elements() if R.mul(x, x) == R.zero())
            return idem, nil

        assert sq(R1) == sq(R2)
        assert ring_iso_search(R1, R2) is None

    def test_opposite_matrix_ring(self):
        M2 = matrix_ring(cyclic_ring(2), 2)
        T = ring_iso_search(M2, opposite_ring(M2))
        assert T is not None
        assert is_ring_isomorphism(M2, opposite_ring(M2), T)

    def test_identity_fast_path(self):
        M2 = matrix_ring(cyclic_ring(4), 2)
        T = ring_iso_search(M2, matrix_ring(cyclic_ring(4), 2))
        assert T is not None
        assert T == IntegerMatrix.identity(M2.rank)

    def test_order_cap(self):
        M3 = matrix_ring(cyclic_ring(4), 3)
        op = opposite_ring(M3)
        with pytest.raises(SearchBudgetExceeded):
            ring_iso_search(M3, op, order_cap=1 << 16)
        T = ring_iso_search(M3, op, order_cap=1 << 18)
        assert T is not None and is_ring_isomorphism(M3, op, T)

    def test_checker_rejects_bad_map(self):
        Z6 = cyclic_ring(6)
        prod = direct_product_ring(cyclic_ring(2), cyclic_ring(3))
        bad = IntegerMatrix([[2]])  # additive but not unital
        assert not is_ring_isomorphism(Z6, prod, bad)
