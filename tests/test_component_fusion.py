"""connes_fusion by components against its dense route (oracles.dense_fusion).

Two block correspondences that hold their tables' frames are fused with
no ambient Gram matrix: S is a 0/1 choice of ambient coordinates, G and
project*.project vanish off the components (one right orbit of H times one
left orbit of K over a middle block), and each gate is measured on small
stacks.  On five cases, L² of (3), (4), (2, 3) and (1, 2, 2) at random
faithful states and H fused with conj(H) for the table [[0, 1], [2, 1]],
project, section and the block constants c are the dense route's bit for
bit, the dense residual project*.project - G is exactly zero off the
components and the stacked one's on them, and both compression stacks
have the dense ones' nonzeros and norms.  Mutations aimed at each gate
trip it on the component route too, replaced frames and coefficients
that break the components' zeros take the dense route, and the witness
of two correspondences of one table is the full computation's identity.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import moritalab.wstar.fusion as fusion_module
from moritalab.numkernel import max_operator_norm, operator_norm
from moritalab.wstar import (
    Intertwiner,
    MultiMatrixAlgebra,
    block_correspondence,
    conjugate_correspondence,
    connes_fusion,
    gns_standard_form,
    identity_correspondence,
    random_faithful_state,
    trace_state,
    unitary_intertwiner,
)
from oracles import dense_fusion

CASES = ["L2(3)", "L2(4)", "L2(2,3)", "L2(1,2,2)", "H*conj(H)"]


def _case(name: str):
    """(H, K, std) of one of the five cases, at a random faithful state."""
    rng = np.random.default_rng(CASES.index(name) + 40)
    if name.startswith("L2"):
        A = MultiMatrixAlgebra(tuple(int(n) for n in name[3:-1].split(",")))
        std = gns_standard_form(A, random_faithful_state(A, rng))
        L2 = identity_correspondence(std)
        return L2, L2, std
    A, B = MultiMatrixAlgebra((2, 1)), MultiMatrixAlgebra((1, 3))
    H = block_correspondence(A, B, [[0, 1], [2, 1]])
    std = gns_standard_form(B, random_faithful_state(B, rng))
    return H, conjugate_correspondence(H), std


@pytest.fixture
def measured(monkeypatch):
    """The block constants and every (matrix, bound) norm_exceeds sees in fusion,
    and which route each fusion took."""
    out = {"c": [], "norms": [], "routes": []}
    scales, exceeds = fusion_module._block_scales, fusion_module.norm_exceeds

    def record_scales(c):
        out["c"].append(c.copy())
        return scales(c)

    def record_norms(A, bound):
        out["norms"].append((np.array(A), bound))
        return exceeds(A, bound)
    monkeypatch.setattr(fusion_module, "_block_scales", record_scales)
    monkeypatch.setattr(fusion_module, "norm_exceeds", record_norms)
    for name in ("_dense_quotient", "_component_quotient"):
        route = getattr(fusion_module, name)

        def recorded(*args, route=route, name=name):
            out["routes"].append(name)
            return route(*args)
        monkeypatch.setattr(fusion_module, name, recorded)
    return out


def _parts(H, K):
    return fusion_module._components(H.left_algebra, H.right_algebra, K.right_algebra,
                                     H.table, K.table)


@pytest.mark.parametrize("name", CASES)
def test_components_give_the_dense_values(name, measured):
    H, K, std = _case(name)
    fus = connes_fusion(H, K, std)
    dense = dense_fusion(H, K, std)
    assert measured["routes"] == ["_component_quotient"]
    assert np.array_equal(fus.project, dense.project)
    assert np.array_equal(fus.section, dense.section)
    (c,) = measured["c"]
    assert np.array_equal(c, dense.c)
    (miss, bound), *compressed = measured["norms"]
    assert bound == pytest.approx(dense.bound, rel=1e-12)
    # the dense residual vanishes off the components, and on them is the stack
    parts = _parts(H, K)
    inside = np.zeros_like(dense.miss, dtype=bool)
    for nodes, valid in zip(parts.nodes, parts.valid):
        inside[np.ix_(nodes[valid], nodes[valid])] = True
    assert not np.any(dense.miss[~inside])
    for block, nodes, valid in zip(miss, parts.nodes, parts.valid):
        assert np.allclose(block[np.ix_(valid, valid)], dense.miss[np.ix_(nodes[valid], nodes[valid])],
                           rtol=0.0, atol=1e-15)
    assert max_operator_norm(miss) == pytest.approx(operator_norm(dense.miss), rel=1e-4)
    # each side's gathered stack has the dense one's nonzeros, on fewer columns
    assert len(compressed) == 2
    for (off, off_bound), full in zip(compressed, dense.compressed):
        assert off_bound == bound
        assert off.shape[:2] == full.shape[:2] and off.shape[2] <= full.shape[2]
        assert np.count_nonzero(off) == np.count_nonzero(full)
        assert np.sort(np.abs(off[off != 0])).tolist() == np.sort(np.abs(full[full != 0])).tolist()
        assert max_operator_norm(off) == pytest.approx(max_operator_norm(full), rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("name", CASES)
def test_the_witness_shortcut_is_the_full_computation(name, monkeypatch):
    H, K, std = _case(name)
    fused = connes_fusion(H, K, std).corr
    same = block_correspondence(fused.left_algebra, fused.right_algebra, fused.table)
    calls = []
    residual = Intertwiner.residual

    def counted(self):
        calls.append(self)
        return residual(self)
    monkeypatch.setattr(Intertwiner, "residual", counted)
    U, r = unitary_intertwiner(fused, same)
    assert not calls
    assert r == 0.0 and np.array_equal(U, np.eye(fused.dim))
    # frames a caller put in place, equal or not, take the full computation
    vars(same)["frames"] = tuple(map(tuple, same.frames))
    full_U, full_r = unitary_intertwiner(fused, same)
    assert len(calls) == 1
    assert full_r == r and np.array_equal(full_U, U)


def test_replaced_frames_take_the_dense_route(measured):
    H, K, std = _case("L2(2,3)")
    fast = connes_fusion(H, K, std)
    K2 = block_correspondence(K.left_algebra, K.right_algebra, K.table)
    vars(K2)["frames"] = tuple(map(tuple, K2.frames))
    slow = connes_fusion(H, K2, std)
    assert measured["routes"] == ["_component_quotient", "_dense_quotient"]
    assert np.array_equal(fast.project, slow.project)
    assert np.array_equal(fast.section, slow.section)


def test_coefficients_off_the_components_take_the_dense_route(measured):
    # a rounding-sized entry of Lambda^{-1} across blocks gives coef entries
    # in the wrong middle block: G no longer vanishes off the components, so
    # they are not used, and the dense route fuses as before
    H, K, std = _case("L2(2,3)")
    lam_inv = std.lam_inv.copy()
    lam_inv[0, -1] = 1e-12
    assert connes_fusion(H, K, replace(std, lam_inv=lam_inv)).corr.dim == 13
    assert measured["routes"] == ["_dense_quotient"]


def test_multiplicities_of_a_table_read_no_frames():
    H = block_correspondence(MultiMatrixAlgebra((2, 1)), MultiMatrixAlgebra((1, 3)),
                             [[0, 1], [2, 1]])
    assert H.multiplicities == ((0, 1), (2, 1))
    assert "frames" not in vars(H)


class TestComponentGates:
    """Mutated reduced bases that stay 0/1 selections trip each gate on the
    component route, with the dense route's messages."""

    @staticmethod
    def _fuse(monkeypatch, mutate, measured):
        H, K, std = _case("H*conj(H)")
        reduced = fusion_module._reduced_basis
        monkeypatch.setattr(fusion_module, "_reduced_basis", lambda H, K: mutate(reduced(H, K), H, K))
        connes_fusion(H, K, std)

    def test_a_column_off_every_component_is_null(self, monkeypatch, measured):
        def off_components(S, H, K):
            S = S.copy()
            S[:, 0] = 0.0
            S[np.flatnonzero(_parts(H, K).comp < 0)[0], 0] = 1.0
            return S
        with pytest.raises(RuntimeError, match=r"fusion block constant 0 is not "
                                               r"above \S+: a reduced basis vector is null"):
            self._fuse(monkeypatch, off_components, measured)
        assert measured["routes"] == ["_component_quotient"]

    def test_a_dropped_column_misses_the_gram_matrix(self, monkeypatch, measured):
        with pytest.raises(RuntimeError, match=r"fusion Gram residual \S+ exceeds \S+: "
                                               r"the reduced quotient"):
            self._fuse(monkeypatch, lambda S, H, K: S[:, :-1], measured)
        assert measured["routes"] == ["_component_quotient"]

    def test_two_columns_in_one_component_measure_as_the_dense_route(self, monkeypatch,
                                                                      measured):
        # column j reads another node of column i's component: that component
        # has two rows and j's own none, so the Gram gate trips, with the
        # residual and bound that the dense route measures on the same S
        def doubled(S, H, K):
            parts = _parts(H, K)
            i = int(np.flatnonzero(parts.valid.sum(axis=1) > 1)[0])
            j = (i + 1) % S.shape[1]
            S = S.copy()
            S[:, j] = 0.0
            S[parts.nodes[i, 1], j] = 1.0
            return S
        message = r"fusion Gram residual \S+ exceeds \S+: the reduced quotient"
        with pytest.raises(RuntimeError, match=message):
            self._fuse(monkeypatch, doubled, measured)
        H, K, std = _case("H*conj(H)")
        vars(H)["frames"] = tuple(map(tuple, H.frames))
        with pytest.raises(RuntimeError, match=message):
            connes_fusion(H, K, std)
        assert measured["routes"] == ["_component_quotient", "_dense_quotient"]
        (stacked, bound), (dense, dense_bound) = measured["norms"]
        assert bound == pytest.approx(dense_bound, rel=1e-12)
        assert max_operator_norm(stacked) == pytest.approx(operator_norm(dense), rel=1e-12)

    def test_swapped_columns_miss_the_fused_units(self, monkeypatch, measured):
        with pytest.raises(RuntimeError, match=r"fusion compression residual \S+ "
                                               r"exceeds \S+: the reduced basis"):
            self._fuse(monkeypatch, lambda S, H, K: S[:, [1, 0] + list(range(2, S.shape[1]))],
                       measured)
        assert measured["routes"] == ["_component_quotient"]


def test_no_ambient_gram_matrix_is_formed():
    # L²(M_6) fused with itself: its ambient Gram matrix alone is 26.9 MB,
    # and the dense route peaked at 59 MB
    M6 = MultiMatrixAlgebra((6,))
    std = gns_standard_form(M6, trace_state(M6))
    L2 = identity_correspondence(std)
    L2.frames
    tracemalloc.start()
    try:
        connes_fusion(L2, L2, std)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    gram = (L2.dim ** 2) ** 2 * 16
    assert peak < gram / 4, (peak, gram)
