"""The stacked law kernel against the generator-pair loops it replaced.

Every verdict of ``broken_law``, ``intertwines`` and the bimodule
commutation check must equal the reference loops in ``oracles`` (law name
or None), on the regular and matrix-module corpus, on single-entry
perturbations, on rank-0 carriers, and past the int64 guard.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import broken_law_loop, intertwines_loop, matrices, stacked

from moritalab.exact import FiniteAbelianGroup, IntegerMatrix
from moritalab.rings import (
    column_module,
    cyclic_ring,
    direct_product_ring,
    matrix_ring,
    regular_bimodule,
    row_module,
    truncated_polynomial_ring,
    zero_bimodule,
)
from moritalab.rings.base import (
    FiniteRing,
    broken_law,
    checked_stack,
    intertwines,
    law_dtype,
    reduced_stack,
    stacks_commute,
)
from moritalab.rings.bimodules import Bimodule

RINGS = {"Z/2": cyclic_ring(2), "Z/4": cyclic_ring(4),
         "F2[x]/x^2": truncated_polynomial_ring(2, 2),
         # mixed invariant factors (2, 4), so "well defined" and "additive" can break
         "Z/2xZ/4": direct_product_ring(cyclic_ring(2), cyclic_ring(4))}


def _corpus():
    for label, R in RINGS.items():
        yield f"{label} regular", regular_bimodule(R)
        for n in (1, 2, 3):
            Mn = matrix_ring(R, n)
            if n < 3 or R.rank == 1:
                yield f"M_{n}({label}) regular", regular_bimodule(Mn)
            yield f"{label}^{n} columns", column_module(R, n, Mn)
            yield f"{label}^{n} rows", row_module(R, n, Mn)


CORPUS = dict(_corpus())
SMALL = {name: B for name, B in CORPUS.items()
         if B.rank <= 4 and B.left_ring.rank <= 8 and B.right_ring.rank <= 8}


def _sides(B: Bimodule):
    yield matrices(B.left_action), B.left_ring
    yield matrices(B.right_action), B.right_ring


def _commute_loop(lam, rho, fs) -> bool:
    return all(intertwines_loop(L, rho, rho, fs) for L in lam)


def _commute(B: Bimodule, lam=None, rho=None) -> bool:
    """The stacked commutation check, on B's actions or on replacement lists."""
    fs = B.carrier.invariant_factors
    lam = B.left_action if lam is None else stacked(lam, len(fs))
    rho = B.right_action if rho is None else stacked(rho, len(fs))
    return stacks_commute(checked_stack(lam, fs, B.left_ring)[1],
                          checked_stack(rho, fs, B.right_ring, True)[1], fs)


def _assert_laws_agree(mats, factors, ring):
    for anti in (False, True):
        assert broken_law(stacked(mats, len(factors)), factors, ring, anti) == \
            broken_law_loop(mats, factors, ring, anti)


@pytest.mark.parametrize("name", list(CORPUS))
def test_corpus_verdicts_equal_the_loops(name):
    B = CORPUS[name]
    fs = B.carrier.invariant_factors
    for mats, ring in _sides(B):
        _assert_laws_agree(mats, fs, ring)
    assert _commute(B) and _commute_loop(matrices(B.left_action), matrices(B.right_action), fs)


RING_TABLES = {R.name: R for B in CORPUS.values() for R in (B.left_ring, B.right_ring)}


@pytest.mark.parametrize("name", list(RING_TABLES))
def test_ring_tables_equal_the_loops(name):
    """The left-regular matrices of each ring, as FiniteRing checks them."""
    R = RING_TABLES[name]
    left_regular = [IntegerMatrix.from_columns(row, R.rank) for row in R.mult]
    _assert_laws_agree(left_regular, R.additive.invariant_factors, R)


def test_corpus_reaches_both_anti_verdicts():
    """Checking an action with the wrong handedness names a broken law."""
    B = CORPUS["F2[x]/x^2^2 columns"]
    fs = B.carrier.invariant_factors
    assert broken_law(B.left_action, fs, B.left_ring, anti=True) == \
        "anti-multiplicative"
    assert broken_law(B.left_action, fs, B.left_ring) is None


def _perturbed(M: IntegerMatrix, a: int, b: int, delta: int) -> IntegerMatrix:
    data = [row[:] for row in M.tolist()]
    data[a][b] += delta
    return IntegerMatrix(data)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.sampled_from(sorted(SMALL)), st.booleans(), st.data())
def test_single_entry_perturbations_equal_the_loops(name, right, data):
    B = SMALL[name]
    fs = B.carrier.invariant_factors
    mats, ring = list(_sides(B))[right]
    g = data.draw(st.integers(0, len(mats) - 1))
    a, b = data.draw(st.integers(0, B.rank - 1)), data.draw(st.integers(0, B.rank - 1))
    delta = data.draw(st.one_of(st.integers(-3, 3), st.sampled_from(
        [fs[a], -fs[a], fs[b], 2 ** 40, fs[-1] * 2 ** 40])))
    bent = list(mats)
    bent[g] = _perturbed(mats[g], a, b, delta)
    _assert_laws_agree(bent, fs, ring)
    lam, rho = (matrices(B.left_action), bent) if right else (bent, matrices(B.right_action))
    if broken_law(stacked(lam, B.rank), fs, B.left_ring) is None and \
            broken_law(stacked(rho, B.rank), fs, B.right_ring, True) is None:
        assert _commute(B, lam, rho) == _commute_loop(lam, rho, fs)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from(sorted(SMALL)), st.data())
def test_perturbed_maps_intertwine_like_the_loop(name, data):
    """A perturbed identity, kept a group map, intertwines as the loop says."""
    B = SMALL[name]
    fs = B.carrier.invariant_factors
    a, b = data.draw(st.integers(0, B.rank - 1)), data.draw(st.integers(0, B.rank - 1))
    # f_a / gcd(f_a, f_b) * t keeps M[a][b] * f_b = 0 (mod f_a)
    step = fs[a] // np.gcd(fs[a], fs[b])
    delta = int(step) * data.draw(st.integers(-3, 3))
    M = _perturbed(IntegerMatrix.identity(B.rank), a, b, delta)
    for mats, _ in _sides(B):
        stack = reduced_stack(stacked(mats, B.rank), fs)
        assert intertwines(M, stack, stack, fs, fs) == intertwines_loop(M, mats, mats, fs)


# ----------------------------------------------------------- rank 0


def test_zero_bimodule_and_rank_zero_carriers():
    for R in RINGS.values():
        for S in RINGS.values():
            Z = zero_bimodule(R, S)
            for mats, ring in _sides(Z):
                _assert_laws_agree(mats, (), ring)
                assert broken_law(stacked(mats, 0), (), ring) is None
            assert _commute(Z)
            assert _commute_loop(matrices(Z.left_action), matrices(Z.right_action), ())
    R = RINGS["F2[x]/x^2"]
    empty = IntegerMatrix.zeros(0, 0)
    _assert_laws_agree([], (), R)
    assert broken_law(stacked([], 0), (), R) == "well shaped"
    _assert_laws_agree([empty] * R.rank, (), R)
    M = IntegerMatrix.zeros(0, 2)  # a map from Z/2 x Z/2 onto the zero group
    src = regular_bimodule(R)
    assert intertwines(M, src.left_action, reduced_stack(stacked([empty] * R.rank, 0), ()),
                       (2, 2), ())
    assert intertwines_loop(M, matrices(src.left_action), [empty] * R.rank, ())


# -------------------------------------------------------- int64 guard

P61 = 2 ** 61 - 1        # (P61 - 1)^2 is far past 2^63
EDGE = 3037000501        # (EDGE - 1)^2 = 9223372037000250000 > 2^63 - 1


@pytest.mark.parametrize("width, exponent", [
    (1, 2), (1, EDGE - 1), (1, EDGE), (2, 2 ** 31), (3, 2 ** 31), (18, 2 ** 29),
    (1, P61), (4, 1)])
def test_law_dtype_is_the_exact_bound(width, exponent):
    fits = width * (exponent - 1) ** 2 < 2 ** 63
    assert law_dtype(width, exponent) is (np.int64 if fits else object)


@pytest.mark.parametrize("modulus", [P61, EDGE, 2 ** 70])
def test_object_dtype_past_the_guard(modulus):
    R = cyclic_ring(modulus)
    fs = (modulus,)
    B = regular_bimodule(R)
    assert law_dtype(1, modulus) is object
    for mats, ring in _sides(B):
        law, stack = checked_stack(stacked(mats, 1), fs, ring)
        assert stack.dtype == object
        assert law is None and broken_law_loop(mats, fs, ring) is None
    # -1 squares to 1, not to -1: int64 products of (modulus - 1)^2 would wrap
    for bad in ([[modulus - 1]], [[2]], [[modulus + 5]]):
        mats = [IntegerMatrix(bad)]
        law, stack = checked_stack(stacked(mats, 1), fs, R)
        assert stack.dtype == object
        assert law == broken_law_loop(mats, fs, R) == "multiplicative"
    unit_broken = [IntegerMatrix([[1 + modulus * 2 ** 70]]), IntegerMatrix([[0]])]
    assert broken_law(stacked(unit_broken[:1], 1), fs, R) is None
    assert broken_law(stacked(unit_broken[1:], 1), fs, R) == broken_law_loop(
        unit_broken[1:], fs, R) == "unital"


def test_unreduced_entries_stay_in_int64():
    """Entries near 2^40 are reduced before any product, so int64 is exact."""
    R = RINGS["Z/4"]
    B = column_module(R, 2)
    fs = B.carrier.invariant_factors
    big = 4 * 2 ** 38
    lam = [IntegerMatrix([[v + big for v in row] for row in M.tolist()])
           for M in matrices(B.left_action)]
    assert law_dtype(max(B.rank, B.left_ring.rank), 4) is np.int64
    law, stack = checked_stack(stacked(lam, B.rank), fs, B.left_ring)
    assert np.array_equal(stack, B.left_action)
    assert law is None and broken_law_loop(lam, fs, B.left_ring) is None
    lam[1] = _perturbed(lam[1], 0, 1, 1)
    assert broken_law(stacked(lam, B.rank), fs, B.left_ring) == \
        broken_law_loop(lam, fs, B.left_ring) == "multiplicative"
    huge = [IntegerMatrix([[v + 4 * 2 ** 80 for v in row] for row in M.tolist()])
            for M in matrices(B.right_action)]
    assert law_dtype(max(B.rank, B.right_ring.rank), 4) is np.int64
    law, stack = checked_stack(stacked(huge, B.rank), fs, B.right_ring, True)
    assert np.array_equal(stack, B.right_action) and law is None
    assert stacks_commute(checked_stack(B.left_action, fs, B.left_ring)[1], stack, fs)


def test_bimodule_over_a_large_modulus_validates():
    R = cyclic_ring(P61)
    one = IntegerMatrix([[1]])
    B = Bimodule(R, R, FiniteAbelianGroup((P61,)), (one,), (one,))
    assert _commute(B)
    with pytest.raises(ValueError, match="left action is not multiplicative"):
        Bimodule(R, R, B.carrier, (IntegerMatrix([[P61 - 1]]),), (one,))


def test_ring_coefficients_are_reduced_before_products():
    """Z/M on the generator -1 has table entry M - 1; acting on Z/3 it must not wrap."""
    M = 3 * 2 ** 61
    R = FiniteRing(FiniteAbelianGroup((M,)), (((M - 1,),),), (M - 1,))
    minus_one = [IntegerMatrix([[2]])]
    assert law_dtype(1, 3) is np.int64
    law, stack = checked_stack(stacked(minus_one, 1), (3,), R)
    assert law is None and broken_law_loop(minus_one, (3,), R) is None
    assert broken_law(stacked([IntegerMatrix([[1]])], 1), (3,), R) == \
        broken_law_loop([IntegerMatrix([[1]])], (3,), R) == "multiplicative"
