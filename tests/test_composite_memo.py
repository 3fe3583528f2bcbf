"""RingsBicategory and WStarBicategory compose each distinct pair once.

Each instance keeps its latest composites by exact content: both cells'
rings, carriers and stacks on the ring side, (M, N, P, H.table, K.table)
for two W* cells with no frame.  On the coherence-batch chains every
composite, reused or not, must equal a fresh tensor_product or
connes_fusion field for field, with the caller's own cells as its
factors; equal cells with other names get their own names; checked
correspondences are fused on every call; a compose that raises keeps
nothing; the memo is bounded; and the coherence verdicts on one shared
instance are those of a fresh instance per check, bit for bit, with fewer
computations.
"""

from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest

import moritalab.bicategory.instances as instances
import moritalab.wstar.fusion as fusion_module
from moritalab.bicategory import (
    RingsBicategory,
    WStarBicategory,
    verify_associator_naturality,
    verify_pentagon,
    verify_triangle,
    verify_unitor_naturality,
)
from moritalab.errors import CapExceeded, NotComposable
from moritalab.rings.base import cyclic_ring
from moritalab.rings.bimodules import Bimodule, regular_bimodule, scalar_bimodule
from moritalab.rings.families import CoherencePool
from moritalab.rings.tensor import tensor_product
from moritalab.wstar import (
    Correspondence,
    MultiMatrixAlgebra,
    block_correspondence,
    connes_fusion,
    random_faithful_state,
)
from test_lawful_correspondences import CHAIN_SEED, STATE_FLOOR, _chains


def _ring_chains(seed=7):
    """The 50 coherence-batch ring chains: shapes from CHAIN_SEED, cells of
    the same ranks redrawn at seed."""
    pool = CoherencePool()
    shape_rng, rng = random.Random(CHAIN_SEED), random.Random(seed)
    shapes = [pool.sample_chain(shape_rng, 4, max_order=16) for _ in range(50)]
    index = {id(R): i for i, R in enumerate(pool.rings)}
    chains = []
    for shape in shapes:
        chain = []
        for cell in shape:
            i, j = index[id(cell.left_ring)], index[id(cell.right_ring)]
            for _ in range(64):
                M = pool.sample_bimodule(rng, i, j, 16)
                if M.rank == cell.rank:
                    break
            else:
                M = cell
            chain.append(M)
        chains.append(chain)
    return chains


def _wstar_states(chains, seed=7):
    rng = np.random.default_rng(seed)
    algebras = {H.left_algebra for c in chains for H in c} \
        | {H.right_algebra for c in chains for H in c}
    return {A: random_faithful_state(A, rng, floor=STATE_FLOOR)
            for A in sorted(algebras, key=lambda A: A.block_sizes)}


@pytest.fixture(scope="module")
def ring_chains():
    return _ring_chains()


@pytest.fixture(scope="module")
def wstar_chains():
    chains = _chains()
    return chains, _wstar_states(chains)


@pytest.fixture
def computed(monkeypatch):
    """How often compose computes tensor_product and connes_fusion."""
    counts = Counter()
    real_tensor, real_fusion = instances.tensor_product, fusion_module.connes_fusion

    def counted_tensor(*args, **kwargs):
        counts["tensor_product"] += 1
        return real_tensor(*args, **kwargs)

    def counted_fusion(*args, **kwargs):
        counts["connes_fusion"] += 1
        return real_fusion(*args, **kwargs)
    monkeypatch.setattr(instances, "tensor_product", counted_tensor)
    monkeypatch.setattr(fusion_module, "connes_fusion", counted_fusion)
    return counts


def recording(inst):
    """inst, with every (P, Q, composite) of its compose appended to a list."""
    calls, compose = [], inst.compose

    def record(P, Q):
        calls.append((P, Q, compose(P, Q)))
        return calls[-1][2]
    inst.compose = record
    return inst, calls


def ring_differences(P, Q, tp) -> list[str]:
    fresh = tensor_product(P, Q)
    out = []
    if tp.left_factor is not P or tp.right_factor is not Q:
        out.append("factors are not the caller's cells")
    for label in ("matrix", "section_matrix", "relations"):
        a, b = getattr(tp.projection, label), getattr(fresh.projection, label)
        if a.array.shape != b.array.shape or not np.array_equal(a.array, b.array):
            out.append(f"projection {label} differs")
    M, F = tp.module, fresh.module
    if not (M.left_ring is F.left_ring and M.right_ring is F.right_ring):
        out.append("module rings are not the caller's")
    if M.carrier != F.carrier or not (np.array_equal(M.left_action, F.left_action)
                                      and np.array_equal(M.right_action, F.right_action)):
        out.append("module carrier or stacks differ")
    if M.name != F.name:
        out.append(f"name {M.name!r} against {F.name!r}")
    if tp.ambient_moduli != fresh.ambient_moduli:
        out.append("ambient moduli differ")
    return [f"{P!r} (x) {Q!r}: {m}" for m in out]


def wstar_differences(inst, P, Q, fus) -> list[str]:
    fresh = connes_fusion(P, Q, inst.standard_form(P.right_algebra))
    out = []
    if fus.left_factor is not P or fus.right_factor is not Q:
        out.append("factors are not the caller's cells")
    C, F = fus.corr, fresh.corr
    if C.table != F.table or not (C.left_algebra is F.left_algebra
                                  and C.right_algebra is F.right_algebra):
        out.append("table or algebras differ")
    if C.name != F.name:
        out.append(f"name {C.name!r} against {F.name!r}")
    if not (np.array_equal(fus.project, fresh.project)
            and np.array_equal(fus.section, fresh.section)):
        out.append("project or section differs")
    return [f"{P!r} * {Q!r}: {m}" for m in out]


def test_ring_composites_equal_fresh_tensor_products(ring_chains, computed):
    inst, calls = recording(RingsBicategory())
    for P, Q, R, S in ring_chains:
        assert verify_pentagon(inst, P, Q, R, S).holds
        assert verify_triangle(inst, P, Q).holds
    assert computed["tensor_product"] < len(calls) * 0.7, (computed, len(calls))
    assert [m for call in calls for m in ring_differences(*call)] == []


def test_wstar_composites_equal_fresh_fusions(wstar_chains, computed):
    chains, states = wstar_chains
    inst, calls = recording(WStarBicategory(states=states))
    rng = np.random.default_rng(7)
    for P, Q, R, S in chains:
        for result in (verify_pentagon(inst, P, Q, R, S), verify_triangle(inst, P, Q),
                       verify_associator_naturality(inst, P, Q, R, rng),
                       verify_unitor_naturality(inst, P, rng)):
            assert result.holds, result
    assert computed["connes_fusion"] < len(calls) * 0.7, (computed, len(calls))
    assert [m for call in calls for m in wstar_differences(inst, *call)] == []


def test_equal_ring_cells_keep_their_own_names(computed):
    Z4 = cyclic_ring(4)
    P, R = scalar_bimodule(Z4, Z4, 2), regular_bimodule(Z4)
    cells = [Bimodule._lawful(P.left_ring, P.right_ring, P.carrier, P.left_action,
                              P.right_action, name=name) for name in ("A", "B", "")]
    Q = Bimodule._lawful(R.left_ring, R.right_ring, R.carrier, R.left_action,
                         R.right_action, name="Q")
    inst = RingsBicategory()
    composites = [inst.compose(X, Q) for X in cells]
    assert [c.module.name for c in composites] == ["A(x)Q", "B(x)Q", ""]
    assert all(c.left_factor is X and c.right_factor is Q
               for c, X in zip(composites, cells))
    assert computed["tensor_product"] == 1


def test_equal_wstar_cells_keep_their_own_names(computed):
    A, B = MultiMatrixAlgebra((2,), name="M2"), MultiMatrixAlgebra((2, 1))
    cells = [block_correspondence(A, B, [[1, 2]], name=name) for name in ("H", "K", "")]
    L = block_correspondence(B, A, [[1], [1]], name="L")
    inst = WStarBicategory()
    composites = [inst.compose(H, L) for H in cells]
    assert [c.corr.name for c in composites] == ["(H*L)", "(K*L)", ""]
    assert all(c.left_factor is H and c.right_factor is L
               for c, H in zip(composites, cells))
    assert computed["connes_fusion"] == 1


def test_checked_correspondences_are_fused_on_every_call(computed):
    # a checked correspondence has a frame, so its composites are not kept;
    # frames a caller puts in place of a table's change nothing
    A, B = MultiMatrixAlgebra((2,)), MultiMatrixAlgebra((2, 1))
    H = block_correspondence(A, B, [[1, 1]])
    checked = Correspondence(A, B, H.dim, H.pi_l_units, H.pi_r_units)
    replaced = block_correspondence(A, B, [[1, 1]])
    vars(replaced)["frames"] = tuple(tuple(F.copy() for F in row) for row in H.frames)
    L = block_correspondence(B, A, [[1], [2]])
    inst = WStarBicategory()
    for X in (checked, replaced):
        for _ in range(3):
            inst.compose(X, L)
    assert computed["connes_fusion"] == 4
    assert len(inst._composites) == 1


def test_a_raising_ring_compose_keeps_nothing(computed):
    Z2, Z4 = cyclic_ring(2), cyclic_ring(4)
    P = regular_bimodule(Z4)
    inst = RingsBicategory(rank_cap=0)
    for _ in range(2):
        with pytest.raises(CapExceeded):
            inst.compose(P, P)
        with pytest.raises(NotComposable):
            inst.compose(P, regular_bimodule(Z2))
    assert computed["tensor_product"] == 0 and len(inst._composites) == 0
    # the cap is checked before the lookup: a kept composite is not handed
    # out past a cap lowered since
    inst.rank_cap = 1
    inst.compose(P, P)
    inst.rank_cap = 0
    with pytest.raises(CapExceeded):
        inst.compose(P, P)
    assert computed["tensor_product"] == 1


def test_a_raising_wstar_compose_keeps_nothing(computed, monkeypatch):
    C, A = MultiMatrixAlgebra((1,)), MultiMatrixAlgebra((2,))
    big = block_correspondence(C, C, [[101]])
    inst = WStarBicategory()
    H, L = block_correspondence(A, A, [[1]]), block_correspondence(A, C, [[1]])

    def tripped(c):
        raise RuntimeError("fusion block constant tripped")
    with monkeypatch.context() as patch:
        patch.setattr(fusion_module, "_block_scales", tripped)
        for _ in range(2):
            with pytest.raises(CapExceeded):
                inst.compose(big, big)
            with pytest.raises(NotComposable):
                inst.compose(L, L)
            with pytest.raises(RuntimeError, match="tripped"):
                inst.compose(H, L)
        assert computed["connes_fusion"] == 4 and len(inst._composites) == 0
    assert inst.compose(H, L).corr.dim == 2
    assert computed["connes_fusion"] == 5 and len(inst._composites) == 1


def test_the_memo_is_bounded(computed):
    size = instances._MEMO_SIZE
    inst = RingsBicategory()
    cells = [regular_bimodule(cyclic_ring(n)) for n in range(2, size + 4)]
    for P in cells:
        inst.compose(P, P)
    assert len(inst._composites) == size
    assert computed["tensor_product"] == len(cells)
    # cells[0] and cells[1] were dropped; a recall makes cells[2] the most
    # recently used, so the next new pair drops cells[3] instead
    inst.compose(cells[2], cells[2])
    new = regular_bimodule(cyclic_ring(size + 4))
    inst.compose(new, new)
    inst.compose(cells[2], cells[2])
    assert computed["tensor_product"] == len(cells) + 1
    for P in (cells[3], cells[0]):
        inst.compose(P, P)
    assert computed["tensor_product"] == len(cells) + 3
    assert len(inst._composites) == size
    C = MultiMatrixAlgebra((1,))
    inst = WStarBicategory()
    L = block_correspondence(C, C, [[1]])
    for k in range(1, size + 3):
        inst.compose(block_correspondence(C, C, [[k]]), L)
    assert len(inst._composites) == size


def _verdicts(chains, make):
    """(holds, discrepancy) of every check on every chain, on instances from
    make(): make returns the same instance each time or a new one."""
    out = []
    for k, (P, Q, R, S) in enumerate(chains):
        checks = [lambda inst: verify_pentagon(inst, P, Q, R, S),
                  lambda inst: verify_triangle(inst, P, Q),
                  lambda inst: verify_associator_naturality(
                      inst, P, Q, R, np.random.default_rng([k, 0])),
                  lambda inst: verify_unitor_naturality(inst, P, np.random.default_rng([k, 1]))]
        out += [(r.holds, r.discrepancy) for r in (check(make()) for check in checks)]
    return out


@pytest.mark.parametrize("side", ["rings", "wstar"])
def test_reuse_keeps_every_verdict(side, ring_chains, wstar_chains, computed):
    if side == "rings":
        chains, fresh = ring_chains, RingsBicategory
        counted = "tensor_product"
    else:
        chains, states = wstar_chains
        counted = "connes_fusion"

        def fresh():
            return WStarBicategory(states=states)
    shared = fresh()
    reused = _verdicts(chains, lambda: shared)
    once = computed[counted]
    apart = _verdicts(chains, fresh)
    assert all(holds for holds, _ in reused)
    assert [(h, np.float64(d).tobytes()) for h, d in reused] \
        == [(h, np.float64(d).tobytes()) for h, d in apart]
    assert once < computed[counted] - once, (once, computed[counted] - once)
