"""Differential law test of the lawful-by-construction path.

Bimodules and rings that the library builds from lawful inputs (regular
bimodules, tensor products, direct sums, the Morita context's P_up and
P*, the inverse Q, endomorphism rings, and matrix, opposite and direct
product rings of checked rings) skip the law kernel when they are built,
and so do the bimodule maps it builds (identities, composites, tensors of
maps, associators, unitors and hom-group elements).  This test records
every such object built on a corpus of inputs and re-runs the boundary
checks on it: ``checked_stack`` on both action stacks, ``stacks_commute``
on the two checked stacks, the public ``FiniteRing`` constructor on each
ring, and the public ``BimoduleMap`` constructor (``is_group_map`` and
``intertwines`` on every tagged side) on each map.  Each stack a bimodule
stores must be read-only, of object dtype and reduced (equal to the
checked stack), and equal to the stack the public ``Bimodule``
constructor stores for the same matrices.  The
corpus is the tensor oracle corpus, the eight benchmark certification
inputs with the right-module families of their rings run through the
benchmark's round trips and naturality squares, opposite and direct
product rings of small rings, pentagons, triangles and unitor naturality
on sampled coherence chains, and the ``matrix-ring-pair`` demo.  Four
deliberately broken constructions show that the test bites.
"""

from __future__ import annotations

import random
import sys

import numpy as np
import pytest

import moritalab.rings.bimodules as bimodules_module
import moritalab.rings.tensor as tensor_module
from moritalab.bicategory import (
    RingsBicategory,
    verify_pentagon,
    verify_triangle,
    verify_unitor_naturality,
)
from moritalab.cli import main
from moritalab.errors import RingMismatch
from moritalab.exact import IntegerMatrix, kron_apply
from moritalab.rings import (
    Bimodule,
    BimoduleMap,
    FiniteRing,
    bimodule_direct_sum,
    certify_invertible_bimodule,
    column_module,
    cyclic_ring,
    direct_product_ring,
    hom_group,
    identity_map,
    maps_equal,
    matrix_ring,
    opposite_ring,
    regular_bimodule,
    right_module_family,
    right_unitor,
    scalar_bimodule,
    tensor_of_maps,
    tensor_oracle_corpus,
    tensor_product,
    truncated_polynomial_ring,
)
from moritalab.rings.base import checked_stack, reduced_stack, stacks_commute
from moritalab.rings.families import CoherencePool

from oracles import matrices


def law_violations(obj) -> list[str]:
    """What the boundary checks find wrong with one internally built object."""
    if isinstance(obj, BimoduleMap):
        try:
            BimoduleMap(obj.source, obj.target, obj.matrix, obj.sides)
        except (ValueError, RingMismatch) as exc:
            return [f"map {obj.source!r} -> {obj.target!r}: {exc}"]
        return []
    if isinstance(obj, FiniteRing):
        try:
            checked = FiniteRing(obj.additive, obj.mult, obj.unit)
        except ValueError as exc:
            return [f"{obj!r}: {exc}"]
        same = (checked.mult, checked.unit) == (obj.mult, obj.unit)
        return [] if same else [f"{obj!r}: reduction differs"]
    fs = obj.carrier.invariant_factors
    found, stacks = [], []
    for side, ring, anti in (("left", obj.left_ring, False), ("right", obj.right_ring, True)):
        stored = getattr(obj, f"{side}_action")
        law, stack = checked_stack(stored, fs, ring, anti)
        if law is not None:
            found.append(f"{obj!r}: {side} action is not {law}")
        elif stored.flags.writeable or stored.dtype != object or not np.array_equal(stack, stored):
            found.append(f"{obj!r}: stored {side} stack differs from the checked one")
        stacks.append(stack)
    if not found and not stacks_commute(stacks[0], stacks[1], fs):
        found.append(f"{obj!r}: left and right actions do not commute")
    if not found and Bimodule(obj.left_ring, obj.right_ring, obj.carrier, matrices(stacks[0]),
                              matrices(stacks[1])) != obj:
        found.append(f"{obj!r}: stored stacks differ from the public constructor's")
    return found


@pytest.fixture
def built(monkeypatch):
    """Every object the lawful path builds while the test runs, with its builder."""
    out = []
    for cls in (Bimodule, BimoduleMap, FiniteRing):
        lawful = cls._lawful.__func__

        def record(cls, *args, _lawful=lawful, **kwargs):
            obj = _lawful(cls, *args, **kwargs)
            out.append((sys._getframe(1).f_code.co_name, obj))
            return obj
        monkeypatch.setattr(cls, "_lawful", classmethod(record))
    return out


def _oracle_tensors():
    for M, N in tensor_oracle_corpus():
        tensor_product(M, N)


def _round_trip(cert, U):
    """The benchmark's canonical map (U (x) Q) (x) P -> U (x) (Q (x) P) -> U (x) S -> U.

    The associator is read off ``tensor_module`` so that a test can swap it.
    """
    P, Q = cert.module, cert.inverse
    t_uq = tensor_product(U, Q)
    t_uq_p = tensor_product(t_uq.module, P)
    t_u_qp = tensor_product(U, cert.tensor_to_right.module)
    assoc = tensor_module.tensor_associator(t_uq, t_uq_p, cert.tensor_to_right, t_u_qp)
    t_u_s = tensor_product(U, cert.iso_to_right.target)
    mid = tensor_of_maps(t_u_qp, t_u_s, identity_map(U), cert.iso_to_right)
    return t_uq, t_uq_p, right_unitor(t_u_s).after(mid).after(assoc)


def _naturality_square(cert, U, V, trip_U, trip_V):
    """The benchmark's square: a right-linear f : U -> V commutes with the round trips."""
    (t_uq, t_uq_p, full_U), (t_vq, t_vq_p, full_V) = trip_U, trip_V
    H = hom_group(U, V, side="right")
    f = H.from_coordinates([d - 1 for d in H.group.invariant_factors])
    s1 = tensor_of_maps(t_uq, t_vq, f, identity_map(cert.inverse))
    s2 = tensor_of_maps(t_uq_p, t_vq_p, s1, identity_map(cert.module))
    assert maps_equal(full_V.after(s2), f.after(full_U))


def _certification_corpus():
    Z2, Z4 = cyclic_ring(2), cyclic_ring(4)
    F2x2, F2x3 = truncated_polynomial_ring(2, 2), truncated_polynomial_ring(2, 3)
    families = {R.name: right_module_family(R, 16) for R in (Z2, Z4, F2x2, F2x3)}
    for R, n in ((Z2, 2), (Z2, 3), (Z4, 2), (Z4, 3), (F2x2, 2), (F2x2, 3), (Z2, 4), (F2x3, 2)):
        cert = certify_invertible_bimodule(column_module(R, n))
        assert cert.equivalent, cert.reason
        family = families[R.name]
        trips = [_round_trip(cert, U) for U in family]
        assert all(full.is_bijective() for _, _, full in trips)
        live = [i for i, U in enumerate(family) if U.rank][:2]
        for i in live:
            for j in live:
                _naturality_square(cert, family[i], family[j], trips[i], trips[j])
    assert not certify_invertible_bimodule(scalar_bimodule(Z4, Z4, 2)).equivalent


def _coherence_chains():
    pool, inst = CoherencePool(), RingsBicategory()
    for seed in range(3):
        rng = random.Random(seed)
        assert verify_pentagon(inst, *pool.sample_chain(rng, 4, max_order=16)).holds
        P, Q = pool.sample_chain(rng, 2, max_order=16)
        assert verify_triangle(inst, P, Q).holds
        assert verify_unitor_naturality(inst, P, np.random.default_rng(seed)).holds


def _ring_constructions():
    Z2, Z4, F2x2 = cyclic_ring(2), cyclic_ring(4), truncated_polynomial_ring(2, 2)
    for R in (Z4, F2x2, matrix_ring(Z2, 2)):
        opposite_ring(R)
        direct_product_ring(R, Z2)
    direct_product_ring(Z4, F2x2)


def _demo(tmp_path):
    assert main(["demo", "matrix-ring-pair", "--report", str(tmp_path / "demo.json")]) == 0


def test_every_lawful_construction_passes_the_boundary_checks(built, tmp_path):
    _oracle_tensors()
    _certification_corpus()
    _ring_constructions()
    _coherence_chains()
    _demo(tmp_path)
    builders = {builder for builder, _ in built}
    assert builders == {"regular_bimodule", "tensor_product", "bimodule_direct_sum",
                        "morita_context", "certify_invertible_bimodule",
                        "endomorphism_ring", "matrix_ring", "opposite_ring",
                        "direct_product_ring", "identity_map", "after", "tensor_of_maps",
                        "tensor_associator", "left_unitor", "right_unitor",
                        "from_coordinates"}, builders
    assert [v for _, obj in built for v in law_violations(obj)] == []


def test_stored_stacks_refuse_in_place_writes():
    F = truncated_polynomial_ring(2, 2)
    P = column_module(F, 2)
    cert = certify_invertible_bimodule(P)
    reg = regular_bimodule(F)
    for B in (P, reg, tensor_product(reg, reg).module, bimodule_direct_sum(reg, reg),
              cert.context.dual, cert.inverse):
        for stack in (B.left_action, B.right_action):
            assert stack.dtype == object
            with pytest.raises(ValueError):
                stack[0, 0, 0] = 1


def test_the_check_finds_swapped_transported_generators(built, monkeypatch):
    class Swapped:
        """tensor.py's Bimodule, with its first two left generators swapped."""

        @staticmethod
        def _lawful(left_ring, right_ring, carrier, left_action, right_action, name=""):
            left = left_action.copy()
            left[:2] = left_action[1::-1]
            return Bimodule._lawful(left_ring, right_ring, carrier, left, right_action, name)

    monkeypatch.setattr(tensor_module, "Bimodule", Swapped)
    _oracle_tensors()
    assert [v for _, obj in built for v in law_violations(obj) if "action is not" in v]


def test_the_check_finds_a_stack_in_the_wrong_dtype(built, monkeypatch):
    monkeypatch.setattr(bimodules_module, "reduced_stack",
                        lambda stack, factors: reduced_stack(stack, factors).astype(np.int64))
    _oracle_tensors()
    assert [v for _, obj in built for v in law_violations(obj) if "stack differs" in v]


def _column_round_trips():
    """Round trips of the F2[x]/(x^2) column module, whose presentations are not all trivial."""
    R = truncated_polynomial_ring(2, 2)
    cert = certify_invertible_bimodule(column_module(R, 2))
    for U in right_module_family(R, 16):
        _round_trip(cert, U)


def _map_violations(built, builder):
    return [v for b, obj in built if b == builder for v in law_violations(obj)]


def test_the_check_finds_a_composite_taken_in_the_wrong_order(built, monkeypatch):
    def after(self, other):
        sides = tuple(s for s in self.sides if s in other.sides)
        return BimoduleMap._lawful(other.source, self.target, other.matrix @ self.matrix, sides)

    monkeypatch.setattr(BimoduleMap, "after", after)
    _column_round_trips()
    assert _map_violations(built, "after")


def test_the_check_finds_an_associator_that_skips_the_inner_projection(built, monkeypatch):
    def tensor_associator(t_ab, t_ab_c, t_bc, t_a_bc):
        """tensor.py's associator, reading B (x) C through its section's transpose."""
        one_A = IntegerMatrix.identity(t_ab.left_factor.rank)
        one_C = IntegerMatrix.identity(t_ab_c.right_factor.rank)
        from_ab_c = kron_apply(t_ab.projection.section_matrix, one_C,
                               t_ab_c.projection.section_matrix)
        inner = IntegerMatrix.adopt(t_bc.projection.section_matrix.array.T)
        matrix = t_a_bc.projection.project(kron_apply(one_A, inner, from_ab_c))
        return BimoduleMap._lawful(t_ab_c.module, t_a_bc.module, matrix)

    monkeypatch.setattr(tensor_module, "tensor_associator", tensor_associator)
    _column_round_trips()
    assert _map_violations(built, "tensor_associator")
