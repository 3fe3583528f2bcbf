"""connes_fusion by components against the dense reference (oracles.dense_fusion).

Two tables are fused with no ambient Gram matrix: S is a 0/1 choice of
ambient coordinates, G and project*.project vanish off the components (one
right orbit of H times one left orbit of K over a middle block), and each
gate is measured on small stacks.  On five cases, L² of (3), (4), (2, 3)
and (1, 2, 2) at random faithful states and H fused with conj(H) for the
table [[0, 1], [2, 1]], project, section and the block constants c are the
dense reference's bit for bit, the dense residual project*.project - G is
exactly zero off the components and the stacked one's on them, and both
compression stacks have the dense ones' nonzeros and norms.  Mutations of
the components trip each gate, a dropped node or component too;
coefficients off the components enter the Gram gate as their mass, the
Frobenius norm of G off the components; and the witness of two
correspondences of one table is the full computation's identity.
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
from oracles import dense_fusion, fusion_gram

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
    """The block constants and every (matrix, bound) norm_exceeds sees in fusion."""
    out = {"c": [], "norms": []}
    scales, exceeds = fusion_module._block_scales, fusion_module.norm_exceeds

    def record_scales(c):
        out["c"].append(c.copy())
        return scales(c)

    def record_norms(A, bound):
        out["norms"].append((np.array(A), bound))
        return exceeds(A, bound)
    monkeypatch.setattr(fusion_module, "_block_scales", record_scales)
    monkeypatch.setattr(fusion_module, "norm_exceeds", record_norms)
    return out


def _parts(H, K):
    return fusion_module._components(H.left_algebra, H.right_algebra, K.right_algebra,
                                     H.table, K.table)


@pytest.mark.parametrize("name", CASES)
def test_components_give_the_dense_values(name, measured):
    H, K, std = _case(name)
    fus = connes_fusion(H, K, std)
    dense = dense_fusion(H, K, std)
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
    # what the shortcut skips: the identity's residual, exactly 0
    assert Intertwiner(fused, same, U).residual() == 0.0
    # frames a caller puts in place change no route
    vars(same)["frames"] = tuple(map(tuple, same.frames))
    assert unitary_intertwiner(fused, same)[1] == 0.0 and len(calls) == 1


def test_frames_put_in_place_change_no_route(measured):
    H, K, std = _case("L2(2,3)")
    fast = connes_fusion(H, K, std)
    K2 = block_correspondence(K.left_algebra, K.right_algebra, K.table)
    vars(K2)["frames"] = tuple(tuple(2.0 * F for F in row) for row in K2.frames)
    again = connes_fusion(H, K2, std)
    assert np.array_equal(fast.project, again.project)
    assert np.array_equal(fast.section, again.section)


def _lam_inv_across_blocks(std, entry):
    """std with one entry of Lambda^{-1} across its two blocks, so that coef
    has entries in the wrong middle block: off the components."""
    lam_inv = std.lam_inv.copy()
    lam_inv[0, -1] = entry
    return replace(std, lam_inv=lam_inv)


def _mass(H, K, std):
    """The mass: coef's Frobenius norm weighted by the entries of G at each
    coefficient that the components' node pairs miss (_uncounted)."""
    R = fusion_module._creation_operators(H, std)
    coef = (R @ std.cyclic_vector()) @ (R.conj() @ std.lam_inv.T)
    weights = fusion_module._uncounted(_parts(H, K), H.dim)
    return np.sqrt(np.sum(weights * np.abs(coef) ** 2))


def test_the_mass_is_g_off_the_components():
    # coef[a, c, u] is G's entry at each entry of K's left unit u, whose
    # supports are disjoint, so the mass is the Frobenius norm of G off the
    # components, and bounds its operator norm
    H, K, std = _case("L2(2,3)")
    parts = _parts(H, K)
    assert _mass(H, K, std) == 0.0
    inside = np.zeros((H.dim * K.dim,) * 2, dtype=bool)
    for nodes, valid in zip(parts.nodes, parts.valid):
        inside[np.ix_(nodes[valid], nodes[valid])] = True
    for entry in (1e-12, 1e-3, 1.0):
        bent = _lam_inv_across_blocks(std, entry)
        off = np.where(inside, 0.0, fusion_gram(H, K, bent))
        assert _mass(H, K, bent) == pytest.approx(np.linalg.norm(off), rel=1e-12)
        assert 0.0 < operator_norm(off) <= _mass(H, K, bent) * (1.0 + 1e-12)


def test_coefficients_off_the_components_enter_the_gram_gate(measured):
    # a rounding-sized entry of Lambda^{-1} across blocks adds its mass to the
    # Gram residual and still fuses; a large one trips the Gram gate
    H, K, std = _case("L2(2,3)")
    bent = _lam_inv_across_blocks(std, 1e-12)
    assert connes_fusion(H, K, bent).corr.dim == 13
    (_, reduced), (_, bound), _ = measured["norms"][:3]
    assert 0.0 < _mass(H, K, bent) < bound
    assert reduced == bound - _mass(H, K, bent)
    with pytest.raises(RuntimeError, match=r"fusion Gram residual \S+ exceeds \S+: "
                                           r"the reduced quotient"):
        connes_fusion(H, K, _lam_inv_across_blocks(std, 1e-3))


def test_multiplicities_of_a_table_read_no_frames():
    H = block_correspondence(MultiMatrixAlgebra((2, 1)), MultiMatrixAlgebra((1, 3)),
                             [[0, 1], [2, 1]])
    assert H.multiplicities == ((0, 1), (2, 1))
    assert "frames" not in vars(H)


def mutated_components(monkeypatch, mutate):
    """Have fusion read its components through mutate, which takes copies of
    their index arrays (nodes, valid, vec, unit, col) and returns new ones."""
    real = fusion_module._components

    def mutated(*key):
        parts = real(*key)
        nodes, valid, vec, unit, col = mutate(*(np.array(getattr(parts, name)) for name in
                                                ("nodes", "valid", "vec", "unit", "col")))
        pads = None if valid.all() else ~(valid[:, :, None] & valid[:, None, :])
        return replace(parts, nodes=nodes, valid=valid, vec=vec, unit=unit, col=col,
                       pads=pads, plans={})
    monkeypatch.setattr(fusion_module, "_components", mutated)


class TestComponentGates:
    """Mutated components trip each gate, with its message."""

    @staticmethod
    def _fuse(monkeypatch, mutate):
        H, K, std = _case("H*conj(H)")
        mutated_components(monkeypatch, mutate)
        connes_fusion(H, K, std)

    def test_a_component_read_in_the_wrong_middle_block_is_null(self, monkeypatch):
        # coef vanishes on units of another middle block, so the component's
        # block of G, and its constant, are 0
        N = _case("H*conj(H)")[0].right_algebra

        def elsewhere(nodes, valid, vec, unit, col):
            j = int(np.flatnonzero(unit[:, 0] == N.unit_index(0, 0, 0))[0])
            unit[j] = N.unit_index(1, 0, 0)
            return nodes, valid, vec, unit, col
        with pytest.raises(RuntimeError, match=r"fusion block constant 0 is not "
                                               r"above \S+: a reduced basis vector is null"):
            self._fuse(monkeypatch, elsewhere)

    def test_a_node_read_at_another_unit_misses_the_gram_matrix(self, monkeypatch):
        # node (0, 1) of a component read at node (1, 0)'s middle unit: the
        # block of G measured there is no longer project*.project's
        def misread(nodes, valid, vec, unit, col):
            i = int(np.flatnonzero(valid.sum(axis=1) > 1)[0])
            unit[i, 1] = unit[i, int(round(np.sqrt(valid[i].sum())))]
            return nodes, valid, vec, unit, col
        with pytest.raises(RuntimeError, match=r"fusion Gram residual \S+ exceeds \S+: "
                                               r"the reduced quotient"):
            self._fuse(monkeypatch, misread)

    def test_a_dropped_node_misses_the_gram_matrix(self, monkeypatch):
        # node (1, 1) of a component marked padding: its entries of G, one a
        # block constant's, are gathered by no node pair, so they are mass
        def dropped(nodes, valid, vec, unit, col):
            i = int(np.flatnonzero(valid.sum(axis=1) > 1)[0])
            valid[i, int(round(np.sqrt(valid[i].sum()))) + 1] = False
            return nodes, valid, vec, unit, col
        with pytest.raises(RuntimeError, match=r"fusion Gram residual \S+ exceeds \S+: "
                                               r"the reduced quotient"):
            self._fuse(monkeypatch, dropped)

    def test_a_dropped_component_misses_the_gram_matrix(self, monkeypatch):
        # the last fused basis vector gone: its block of G is measured nowhere
        # but in the mass, which every node pair's count still reaches
        with pytest.raises(RuntimeError, match=r"fusion Gram residual \S+ exceeds \S+: "
                                               r"the reduced quotient"):
            self._fuse(monkeypatch, lambda *fields: tuple(x[:-1] for x in fields))

    def test_swapped_components_miss_the_fused_units(self, monkeypatch):
        def swapped(*fields):
            for x in fields:
                x[[0, 1]] = x[[1, 0]]
            return fields
        with pytest.raises(RuntimeError, match=r"fusion compression residual \S+ "
                                               r"exceeds \S+: the reduced basis"):
            self._fuse(monkeypatch, swapped)


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
