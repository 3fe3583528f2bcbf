"""Pinned exact outputs: presentations, certificates and the ring demo.

Every presentation on the ring side is read off a Smith normal form with
a fixed pivot rule, so the same relation columns in the same order give
the same projection, section, relation basis and transported actions on
every run.  These digests pin those matrices.  A refactor that builds the
same maps another way must leave every digest unchanged; a digest that
moves means some Smith form saw different input.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from moritalab.cli import main
from moritalab.rings import (
    bimodule_direct_sum,
    certify_invertible_bimodule,
    column_module,
    cyclic_ring,
    direct_product_ring,
    hom_group,
    matrix_ring,
    regular_bimodule,
    right_module_family,
    row_module,
    scalar_bimodule,
    tensor_associator,
    tensor_oracle_corpus,
    tensor_product,
    truncated_polynomial_ring,
)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _actions(B):
    return [[A.tolist() for A in B.left_action], [A.tolist() for A in B.right_action]]


def _tensor_presentations():
    out = []
    for M, N in tensor_oracle_corpus():
        tp = tensor_product(M, N)
        out.append([tp.projection.matrix.tolist(), tp.projection.section_matrix.tolist(),
                    tp.relation_matrix.tolist()])
    return out


def _tensor_actions():
    return [_actions(tensor_product(M, N).module) for M, N in tensor_oracle_corpus()]


def _hom_presentations():
    out = []
    seen = []
    for M, N in tensor_oracle_corpus():
        for B in (M, N):
            if any(B is b for b in seen):
                continue
            seen.append(B)
            for side in ("right", "left", "both"):
                H = hom_group(B, B, side)
                out.append([H.group.invariant_factors, H.basis_matrix.tolist(),
                            [X.tolist() for X in H.generator_matrices()]])
    return out


def _certificates():
    out = []
    for R, n in ((cyclic_ring(2), 2), (cyclic_ring(4), 2),
                 (truncated_polynomial_ring(2, 2), 2), (cyclic_ring(2), 3)):
        cert = certify_invertible_bimodule(column_module(R, n))
        assert cert.equivalent
        out.append([cert.iso_to_left.matrix.tolist(), cert.iso_to_right.matrix.tolist(),
                    cert.inverse.carrier.invariant_factors, _actions(cert.inverse)])
    return out


def _associators():
    Z2, Z4, F = cyclic_ring(2), cyclic_ring(4), truncated_polynomial_ring(2, 2)
    M2 = matrix_ring(Z2, 2)
    FM2 = matrix_ring(F, 2)
    chains = [
        (regular_bimodule(Z4), scalar_bimodule(Z4, Z4, 2), regular_bimodule(Z4)),
        (column_module(Z2, 2, M2), row_module(Z2, 2, M2), column_module(Z2, 2, M2)),
        (row_module(F, 2, FM2), column_module(F, 2, FM2), regular_bimodule(F)),
    ]
    out = []
    for A, B, C in chains:
        t_ab = tensor_product(A, B)
        t_ab_c = tensor_product(t_ab.module, C)
        t_bc = tensor_product(B, C)
        t_a_bc = tensor_product(A, t_bc.module)
        out.append(tensor_associator(t_ab, t_ab_c, t_bc, t_a_bc).matrix.tolist())
    return out


def _re_presented():
    Z2, Z4 = cyclic_ring(2), cyclic_ring(4)
    P = direct_product_ring(Z4, cyclic_ring(6))
    D = bimodule_direct_sum(regular_bimodule(Z4), scalar_bimodule(Z4, Z4, 2))
    E = bimodule_direct_sum(regular_bimodule(Z2), regular_bimodule(Z2))
    fam = right_module_family(Z4, 16) + right_module_family(truncated_polynomial_ring(2, 2), 8)
    return [[P.additive.invariant_factors, P.mult, P.unit],
            [D.carrier.invariant_factors, _actions(D)],
            [E.carrier.invariant_factors, _actions(E)],
            [[B.carrier.invariant_factors, _actions(B)] for B in fam]]


def _matrix_ring_pair(tmp_path):
    report = tmp_path / "report.json"
    assert main(["demo", "matrix-ring-pair", "--report", str(report)]) == 0
    rows = {r["name"].split("#")[0]: r["data"]
            for r in json.loads(report.read_text())["tasks"]}
    return [rows["morita-ring"]["iso_to_left"], rows["morita-ring"]["iso_to_right"],
            rows["tensor"]["carrier"]]


PINNED = [
    (_tensor_presentations, "adfd919070ad473ae3102580ff1bd50d604d3dac76c0c81a43e3901f5d222c6d"),
    (_tensor_actions, "657f1864228f7b3a2cc56f98060bd9f9c558d217eef9638c175f3e842e732b3b"),
    (_hom_presentations, "1fee3ced5fbdff154dea022aaf3217046eabb3685acfb0598e4c19d5bfcc7ba7"),
    (_certificates, "7a870f393c59b21d1a21bf6dca0ffb71f178289b37e151990af05cf48eeb5530"),
    (_associators, "4c9d4c3ab5b88b24b49e89b2670d08c8f54fff26063c87d5222a6a6a029fec33"),
    (_re_presented, "511dbcf8f938eae125aa678192a1fb295a844718e40972b240df135ea19f67f9"),
]


@pytest.mark.parametrize("build, digest", PINNED,
                         ids=[build.__name__.strip("_") for build, _ in PINNED])
def test_presentations_are_pinned(build, digest):
    assert _digest(build()) == digest


def test_tensor_corpus_has_28_pairs():
    assert len(tensor_oracle_corpus()) == 28


def test_matrix_ring_pair_demo_is_pinned(tmp_path, capsys):
    assert _digest(_matrix_ring_pair(tmp_path)) == \
        "8cf61e6d788d6fdd7b91cf70959115203a5fda3b14fbc614b482d1d1fe355326"
