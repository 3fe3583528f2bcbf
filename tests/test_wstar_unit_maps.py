"""Per-unit analytic maps against the element-by-element formulas they replace.

The Gram matrix of a fusion, both unitors and the modular twist are linear
in the middle algebra, so the library forms each of them once per matrix
unit.  The references below (and oracles.fusion_gram) build the same maps
one pair, one unit or one element at a time, reading every middle element
back through Lambda_inv and the checked extension pi_l / pi_r.  A fusion
does not keep its Gram matrix; its quotient must reproduce the reference
one as project*.project.
"""

import numpy as np
import pytest

from moritalab.errors import NotFaithful
from moritalab.numkernel import DEFAULT_TOL, gram_quotient, operator_norm
from moritalab.wstar import (
    MultiMatrixAlgebra,
    block_correspondence,
    conjugate_correspondence,
    connes_fusion,
    gns_standard_form,
    identity_correspondence,
    left_unitor,
    r_eta,
    random_faithful_state,
    right_unitor,
    trace_state,
)

from oracles import fusion_gram

PATTERNS = ((2,), (2, 3), (1, 2, 2))


def _reference_twist(std, y, sign):
    """The twist of one element, with its drift check."""
    a, b = ((std.delta_minus_half, std.delta_half) if sign == -1
            else (std.delta_half, std.delta_minus_half))
    pi_l = identity_correspondence(std).pi_l
    op = a @ pi_l(y) @ b
    twisted = std.Lambda_inv(op @ std.cyclic_vector())
    resid = operator_norm(op - pi_l(twisted))
    if resid > DEFAULT_TOL * (1.0 + operator_norm(op)):
        raise NotFaithful(f"modular twist left the algebra, residual {resid:.3g}")
    return twisted


def _reference_left_unitor(K, std, fusion):
    A = np.hstack([K.pi_l(std.algebra.from_coords(std.lam_inv[:, u]))
                   for u in range(std.dim)])
    return A @ fusion.section


def _reference_right_unitor(H, std, fusion):
    acts = [H.pi_r(_reference_twist(
        std, std.algebra.from_coords(std.lam_inv[:, v]), -1))
        for v in range(std.dim)]
    A = np.stack(acts, axis=2).reshape(H.dim, H.dim * std.dim)
    return A @ fusion.section


def _assert_close(got, want):
    scale = operator_norm(want) if want.ndim == 2 else float(np.max(
        np.abs(want), initial=0.0))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * (1.0 + scale)


def _standard_forms(blocks):
    A = MultiMatrixAlgebra(blocks)
    rng = np.random.default_rng(sum(blocks) * 7)
    return [gns_standard_form(A, trace_state(A)),
            gns_standard_form(A, random_faithful_state(A, rng)),
            gns_standard_form(A, random_faithful_state(A, rng, floor=0.05))]


def _left_factors(A):
    """(M2 + C, A)-correspondences: one copy of each block pair, and none."""
    B = MultiMatrixAlgebra((2, 1))
    ones = [[1] * len(A.block_sizes)] * len(B.block_sizes)
    zeros = [[0] * len(A.block_sizes)] * len(B.block_sizes)
    return [block_correspondence(B, A, ones), block_correspondence(B, A, zeros)]


@pytest.mark.parametrize("blocks", PATTERNS)
def test_twists_equal_the_per_element_twist(blocks):
    for std in _standard_forms(blocks):
        A = std.algebra
        rng = np.random.default_rng(len(blocks))
        samples = [A.random_element(rng) for _ in range(4)] + A.matrix_units()
        for y in samples:
            for sign in (-1, 1):
                _assert_close(std.modular_twist(y, sign=sign),
                              _reference_twist(std, y, sign))


@pytest.mark.parametrize("blocks", PATTERNS)
def test_gram_and_rank_equal_the_per_pair_loop(blocks):
    for std in _standard_forms(blocks):
        L2 = identity_correspondence(std)
        for H in [L2] + _left_factors(std.algebra):
            for K in (L2, conjugate_correspondence(H)):
                f = connes_fusion(H, K, std)
                G = fusion_gram(H, K, std)
                # the quotient reproduces G: project*.project is G on S's span
                _assert_close(f.project.conj().T @ f.project, G)
                assert f.corr.dim == gram_quotient(G, scale=1.0).rank


@pytest.mark.parametrize("blocks", PATTERNS)
def test_unitors_equal_the_per_unit_loops(blocks):
    for std in _standard_forms(blocks):
        L2 = identity_correspondence(std)
        for H in [L2] + _left_factors(std.algebra):
            K = conjugate_correspondence(H)
            fl = connes_fusion(L2, K, std)
            _assert_close(left_unitor(K, std, fl).matrix,
                          _reference_left_unitor(K, std, fl))
            fr = connes_fusion(H, L2, std)
            _assert_close(right_unitor(H, std, fr).matrix,
                          _reference_right_unitor(H, std, fr))


@pytest.mark.parametrize("blocks", PATTERNS)
def test_stacked_creation_operators_equal_the_single_ones(blocks):
    std = _standard_forms(blocks)[1]
    H = _left_factors(std.algebra)[0]
    rng = np.random.default_rng(3)
    etas = rng.normal(size=(3, H.dim)) + 1j * rng.normal(size=(3, H.dim))
    stacked = r_eta(H, std, etas)
    assert stacked.shape == (3, H.dim, std.dim)
    for eta, R in zip(etas, stacked):
        _assert_close(R, r_eta(H, std, eta))
