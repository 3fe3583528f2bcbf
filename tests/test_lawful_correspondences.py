"""Differential law test of the lawful correspondences.

Every correspondence the library builds is a multiplicity table, lawful
by construction (block correspondences once their table has passed,
fusion results, the block correspondences of the product multiplicities,
L², the identity table, and conjugates, the transposed table), and skips
the law check when it is built.  This test records every such
correspondence built on a corpus of inputs, with its builder, and re-runs
the public ``Correspondence`` constructor on its unit stacks, which each
writes from its table on first read.  The unit images stored on the
lawful path must equal the checked ones bit for bit, in the same dtype,
and the table must be the multiplicities, with the frame projections,
that the checked one measures with eigh.  The corpus is the
wstar-morita benchmark inputs (M_n vs C for n = 2..6, the L² self-pairs,
the two refutations, the unitor and balancing fusions), the 20 W*
coherence-batch chains through pentagon, triangle and both naturality
checks, and the three CLI demos.  Deliberately broken constructions show
that the test bites, and a mutation aimed at the fusion's block-constant
or compression gate shows that each gate does.
"""

from __future__ import annotations

import json
import sys
import tracemalloc

import numpy as np
import pytest

import moritalab.wstar.correspondences as correspondences
from moritalab.bicategory import (
    WStarBicategory,
    sample_wstar_chain,
    verify_associator_naturality,
    verify_pentagon,
    verify_triangle,
    verify_unitor_naturality,
)
from moritalab.cli import DEMOS, main
from moritalab.wstar import (
    Correspondence,
    MultiMatrixAlgebra,
    State,
    block_correspondence,
    certify_morita_equivalent,
    conjugate_correspondence,
    connes_fusion,
    gns_standard_form,
    identity_correspondence,
    left_unitor,
    random_faithful_state,
    right_unitor,
    trace_state,
    twisted_balancing_residual,
    unitary_intertwiner,
    vector_correspondence,
)

from oracles import dense_conjugate
from test_component_fusion import mutated_components

CHAIN_SEED = 20030301   # the coherence-batch chain shapes
STATE_FLOOR = 0.05


def law_violations(obj) -> list[str]:
    """What the public constructor finds wrong with one lawful build."""
    stored = np.concatenate([obj.pi_l_units, obj.pi_r_units])
    try:
        checked = Correspondence(obj.left_algebra, obj.right_algebra, obj.dim,
                                 obj.pi_l_units, obj.pi_r_units, name=obj.name)
    except ValueError as exc:
        return [f"{obj!r}: {exc}"]
    fresh = np.concatenate([checked.pi_l_units, checked.pi_r_units])
    same = len(stored) == len(fresh) \
        and all(a.dtype == b.dtype and np.array_equal(a, b)
                for a, b in zip(stored, fresh))
    if not same:
        return [f"{obj!r}: stored units differ from the checked ones"]
    if not (obj.multiplicities == checked.multiplicities == obj.table
            and all(np.allclose(np.einsum("sik,sjk->ij", F, F.conj()),
                                np.einsum("sik,sjk->ij", E, E.conj()), rtol=0.0, atol=1e-12)
                    for rows in zip(obj.frames, checked.frames) for F, E in zip(*rows))):
        return [f"{obj!r}: table frames differ from the measured ones"]
    return []


@pytest.fixture
def built(monkeypatch):
    """Every correspondence the lawful path builds, with builder and arguments."""
    out = []
    lawful = Correspondence._lawful.__func__

    def record(cls, *args, **kwargs):
        obj = lawful(cls, *args, **kwargs)
        out.append((sys._getframe(1).f_code.co_name, obj))
        return obj
    monkeypatch.setattr(Correspondence, "_lawful", classmethod(record))
    return out


def violations(built) -> list[str]:
    return [v for _, obj in built for v in law_violations(obj)]


def _wstar_morita(seed=7):
    rng = np.random.default_rng(seed)
    for n in range(2, 7):
        assert certify_morita_equivalent(vector_correspondence(n)).equivalent
    for blocks in ((2,), (3,), (2, 3)):
        A = MultiMatrixAlgebra(blocks)
        L2 = identity_correspondence(gns_standard_form(A, trace_state(A)))
        assert certify_morita_equivalent(L2).equivalent
    for A, mult in (((2, 1), [[1], [0]]), ((2,), [[2]])):
        H = block_correspondence(MultiMatrixAlgebra(A), MultiMatrixAlgebra((1,)), mult)
        assert not certify_morita_equivalent(H).equivalent
    M2, B = MultiMatrixAlgebra((2,)), MultiMatrixAlgebra((2, 1))
    skew = gns_standard_form(M2, State(M2, np.diag([2.0 / 3.0, 1.0 / 3.0])))
    H3 = vector_correspondence(3)
    for H, std_M, std_N in (
            (identity_correspondence(skew), skew, skew),
            (block_correspondence(M2, B, [[1, 1]]),
             gns_standard_form(M2, random_faithful_state(M2, rng, floor=STATE_FLOOR)),
             gns_standard_form(B, random_faithful_state(B, rng, floor=STATE_FLOOR))),
            (H3, gns_standard_form(H3.left_algebra, trace_state(H3.left_algebra)),
             gns_standard_form(H3.right_algebra, trace_state(H3.right_algebra)))):
        right_unitor(H, std_N)
        left_unitor(H, std_M)
        fus = connes_fusion(H, conjugate_correspondence(H), std_N)
        assert twisted_balancing_residual(fus, std_N, rng, samples=5) <= 1e-8


def _chains():
    shape_rng = np.random.default_rng(CHAIN_SEED)
    return [sample_wstar_chain(shape_rng, 4, dim_cap=24)[1] for _ in range(20)]


def _coherence_batch(seed=7, bicategory=WStarBicategory):
    chains, rng = _chains(), np.random.default_rng(seed)
    algebras = {H.left_algebra for c in chains for H in c} \
        | {H.right_algebra for c in chains for H in c}
    inst = bicategory(states={A: random_faithful_state(A, rng, floor=STATE_FLOOR)
                              for A in sorted(algebras, key=lambda A: A.block_sizes)})
    results = []
    for P, Q, R, S in chains:
        for result in (verify_pentagon(inst, P, Q, R, S), verify_triangle(inst, P, Q),
                       verify_associator_naturality(inst, P, Q, R, rng),
                       verify_unitor_naturality(inst, P, rng)):
            assert result.holds, result
            results.append(result)
    return results


def _demos(tmp_path):
    for name in sorted(DEMOS):
        assert main(["demo", name, "--report", str(tmp_path / f"{name}.json")]) == 0


def test_every_lawful_correspondence_passes_the_boundary_checks(built, tmp_path):
    _wstar_morita()
    _coherence_batch()
    _demos(tmp_path)
    builders = {builder for builder, *_ in built}
    # identity_correspondence is every L², the ones certification maps onto too
    assert builders == {"block_correspondence", "conjugate_correspondence",
                        "connes_fusion", "identity_correspondence"}, builders
    assert violations(built) == []


def test_the_check_finds_an_untransposed_conjugate(monkeypatch):
    # a conjugate that keeps H's table is a lawful block correspondence of
    # the wrong class: the certification's witness and the entrywise
    # conjugate both refuse it.  H is a 3-cycle, so its table is square and
    # not symmetric, and H fused with the mutated conjugate is the other 3-cycle
    A, B = MultiMatrixAlgebra((1, 2, 3)), MultiMatrixAlgebra((3, 1, 2))
    H = block_correspondence(A, B, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert certify_morita_equivalent(H).residual == 0.0
    lawful = Correspondence._lawful.__func__

    def untransposed(cls, left, right, table, name=""):
        if sys._getframe(1).f_code.co_name == "conjugate_correspondence":
            table = tuple(zip(*table))
        return lawful(cls, left, right, table, name)
    monkeypatch.setattr(Correspondence, "_lawful", classmethod(untransposed))
    assert conjugate_correspondence(H).table == H.table
    with pytest.raises(RuntimeError, match="no unitary maps the fusion"):
        certify_morita_equivalent(H)
    assert unitary_intertwiner(dense_conjugate(H), conjugate_correspondence(H)) is None


def test_the_check_finds_a_transposed_block_unit(built, monkeypatch):
    # a block correspondence hands _lawful no stacks: it writes them from its
    # table on first read, so the mutation sits in that lazy write
    write = correspondences.table_stack

    def transpose_second_left_unit(A, B, table, side):
        units = write(A, B, table, side)
        if side == "left" and len(units) > 1:
            units = np.array(units)
            units[1] = units[1].T
        return units
    monkeypatch.setattr(correspondences, "table_stack", transpose_second_left_unit)
    vector_correspondence(3)
    _chains()
    assert [v for v in violations(built) if "star property" in v]


def _zero_component(nodes, valid, vec, unit, col):
    """Component 0 read as padding throughout: its block of G is zero."""
    valid[0] = False
    return nodes, valid, vec, unit, col


def _swap_components(*fields):
    """Components 0 and 1 exchanged: fused basis vectors out of order."""
    for x in fields:
        x[[0, 1]] = x[[1, 0]]
    return fields


class TestFusionGates:
    """Each gate of connes_fusion trips on the mutation aimed at it."""

    @staticmethod
    def _fuse(H):
        std = gns_standard_form(H.right_algebra, trace_state(H.right_algebra))
        return connes_fusion(H, conjugate_correspondence(H), std)

    def test_a_zeroed_component_raises_on_its_block_constant(self, monkeypatch):
        mutated_components(monkeypatch, _zero_component)
        with pytest.raises(RuntimeError, match=r"fusion block constant 0 is not "
                                               r"above \S+: a reduced basis vector is null"):
            self._fuse(vector_correspondence(3))

    def test_cli_row_is_error(self, monkeypatch, tmp_path):
        mutated_components(monkeypatch, _zero_component)
        report = tmp_path / "mn-vs-c.json"
        assert main(["demo", "mn-vs-c", "--report", str(report)]) == 1
        rows = {row["task"]: row for row in json.loads(report.read_text())["tasks"]}
        assert rows["morita-wstar"]["status"] == "Error"
        assert rows["morita-wstar"]["detail"].startswith(
            "RuntimeError: fusion block constant 0 is not above")

    def test_components_out_of_order_raise_on_the_compressed_units(self, monkeypatch):
        # permuted components keep every block constant and the Gram
        # residual, but their basis no longer matches the block
        # correspondence's order
        mutated_components(monkeypatch, _swap_components)
        with pytest.raises(RuntimeError, match=r"fusion compression residual \S+ "
                                               r"exceeds \S+: the reduced basis"):
            self._fuse(vector_correspondence(3))


def test_validation_holds_the_two_stored_stacks_and_no_reordered_copy():
    # a 42-dimensional (M_6, M_2 + M_3) correspondence whose caller keeps its
    # own lists: the constructor stores 1.39 MB of units; a third, reordered
    # copy of the right stack for the antihomomorphism check took the peak
    # to 3.00 MB, past twice the stored units, and commutators formed against
    # the whole right generator stack to 2.63 MB (1.90 times); one commutator
    # at a time left 1.73 times, and the norm screens' SVDs on views of the
    # stacks instead of copies of them 1.51 times
    M6, M23 = MultiMatrixAlgebra((6,)), MultiMatrixAlgebra((2, 3))
    H = block_correspondence(M6, M23, [[2, 1]])
    lefts, rights = [U.copy() for U in H.pi_l_units], [U.copy() for U in H.pi_r_units]
    tracemalloc.start()
    try:
        K = Correspondence(M6, M23, H.dim, lefts, rights)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stored = K.pi_l_units.nbytes + K.pi_r_units.nbytes
    assert H.dim == 42 and stored == (36 + 13) * 42 * 42 * 16
    assert peak < 1.6 * stored, (peak, stored)
    assert np.array_equal(K.pi_r_units, H.pi_r_units)
