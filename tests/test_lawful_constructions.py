"""Differential law test of the lawful-by-construction path.

Bimodules and rings that the library builds from lawful inputs (regular
bimodules, tensor products, direct sums, the Morita context's P_up and
P*, the inverse Q, endomorphism rings, and matrix, opposite and direct
product rings of checked rings) skip the law kernel when they are built.  This test records every such object built on a corpus of
inputs and re-runs the boundary checks on it: ``checked_stack`` on both
action families, ``stacks_commute`` on the two checked stacks, and the
public ``FiniteRing`` constructor on each ring.  The stack a bimodule
stores must equal the checked stack bit for bit, in the same dtype.  The
corpus is the tensor oracle corpus, the eight benchmark certification
inputs with the right-module families of their rings run through the
benchmark's round-trip tensors, opposite and direct product rings of
small rings, and the ``matrix-ring-pair`` demo.  Two
deliberately broken constructions show that the test bites.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

import moritalab.rings.bimodules as bimodules_module
import moritalab.rings.tensor as tensor_module
from moritalab.cli import main
from moritalab.rings import (
    Bimodule,
    FiniteRing,
    certify_invertible_bimodule,
    column_module,
    cyclic_ring,
    direct_product_ring,
    matrix_ring,
    opposite_ring,
    right_module_family,
    scalar_bimodule,
    tensor_oracle_corpus,
    tensor_product,
    truncated_polynomial_ring,
)
from moritalab.rings.base import checked_stack, reduced_stack, stacks_commute


def law_violations(obj) -> list[str]:
    """What the boundary checks find wrong with one internally built object."""
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
        law, stack = checked_stack(getattr(obj, f"{side}_action"), fs, ring, anti)
        stored = obj.action_stack(side)
        if law is not None:
            found.append(f"{obj!r}: {side} action is not {law}")
        elif stack.dtype != stored.dtype or not np.array_equal(stack, stored):
            found.append(f"{obj!r}: stored {side} stack differs from the checked one")
        stacks.append(stack)
    if not found and not stacks_commute(stacks[0], stacks[1], fs):
        found.append(f"{obj!r}: left and right actions do not commute")
    return found


@pytest.fixture
def built(monkeypatch):
    """Every object the lawful path builds while the test runs, with its builder."""
    out = []
    for cls in (Bimodule, FiniteRing):
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


def _certification_corpus():
    Z2, Z4 = cyclic_ring(2), cyclic_ring(4)
    F2x2, F2x3 = truncated_polynomial_ring(2, 2), truncated_polynomial_ring(2, 3)
    families = {R.name: right_module_family(R, 16) for R in (Z2, Z4, F2x2, F2x3)}
    for R, n in ((Z2, 2), (Z2, 3), (Z4, 2), (Z4, 3), (F2x2, 2), (F2x2, 3), (Z2, 4), (F2x3, 2)):
        cert = certify_invertible_bimodule(column_module(R, n))
        assert cert.equivalent, cert.reason
        # the benchmark's round trip (U (x) Q) (x) P and U (x) (Q (x) P)
        for U in families[R.name]:
            tensor_product(tensor_product(U, cert.inverse).module, cert.module)
            tensor_product(U, cert.tensor_to_right.module)
    assert not certify_invertible_bimodule(scalar_bimodule(Z4, Z4, 2)).equivalent


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
    _demo(tmp_path)
    builders = {builder for builder, _ in built}
    assert builders == {"regular_bimodule", "tensor_product", "bimodule_direct_sum",
                        "morita_context", "certify_invertible_bimodule",
                        "endomorphism_ring", "matrix_ring", "opposite_ring",
                        "direct_product_ring"}, builders
    assert [v for _, obj in built for v in law_violations(obj)] == []


def test_the_check_finds_swapped_transported_generators(built, monkeypatch):
    class Swapped:
        """tensor.py's Bimodule, with its first two left generators swapped."""

        @staticmethod
        def _lawful(left_ring, right_ring, carrier, left_action, right_action, name=""):
            left = list(left_action)
            left[:2] = left[1::-1]
            return Bimodule._lawful(left_ring, right_ring, carrier, tuple(left),
                                    right_action, name)

    monkeypatch.setattr(tensor_module, "Bimodule", Swapped)
    _oracle_tensors()
    assert [v for _, obj in built for v in law_violations(obj) if "action is not" in v]


def test_the_check_finds_a_stack_in_the_wrong_dtype(built, monkeypatch):
    monkeypatch.setattr(bimodules_module, "law_stack",
                        lambda mats, factors, ring: reduced_stack(mats, factors))
    _oracle_tensors()
    assert [v for _, obj in built for v in law_violations(obj) if "stack differs" in v]
