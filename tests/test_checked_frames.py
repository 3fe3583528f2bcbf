"""Checked input is a table placed by a frame unitary, against the dense reference.

The public constructor validates the unit stacks, reads the table and the
frame W off their isotypic frames, gates W, and keeps no stack.  Each
factor of the five cases of tests/test_component_fusion.py is rotated by
a seeded random unitary and built through the constructor.  The rotated
copy must have the unrotated table and certification verdict; its fusion
must agree with oracles.dense_fusion on the rotated stacks in the
basis-free products section.project and project*.project (eigh may order
the copies inside a multiplicity space either way); its witness, unitor
and balancing residuals must stay within DEFAULT_TOL; and a spec file
must write it as dense entries that load as checked input again.  The
frame gate trips on a scaled frame, and no near-threshold input that
passes the law checks is rejected by it.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import moritalab.wstar.correspondences as correspondences
from moritalab.numkernel import DEFAULT_TOL
from moritalab.specfile import SpecFile, load_spec_dict, serialize_spec
from moritalab.wstar import (
    Correspondence,
    certify_morita_equivalent,
    connes_fusion,
    left_unitor,
    right_unitor,
    twisted_balancing_residual,
    unitary_intertwiner,
)
from oracles import dense_fusion
from test_component_fusion import CASES, _case
from test_wstar_fusion import TestGeneratingRelations, _violation
from test_wstar_intertwiners import _haar_unitary, _near_identity_unitary

FRAME_MESSAGE = "isotypic frames do not give a unitary carrying the table"


def _rotated(H, seed):
    """H moved by a seeded Haar unitary, through the checked constructor."""
    W = _haar_unitary(H.dim, np.random.default_rng(seed))
    return Correspondence(H.left_algebra, H.right_algebra, H.dim,
                          W @ H.pi_l_units @ W.conj().T, W @ H.pi_r_units @ W.conj().T)


def _rotated_case(name):
    """(H, K, std, rotated H, rotated K) of one case, each factor its own unitary."""
    H, K, std = _case(name)
    seed = 60 + 2 * CASES.index(name)
    return H, K, std, _rotated(H, seed), _rotated(K, seed + 1)


def _relative(a, b) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


@pytest.mark.parametrize("name", CASES)
def test_a_rotated_factor_keeps_its_table_and_verdict(name):
    H, K, _, Hr, Kr = _rotated_case(name)
    for X, Xr in ((H, Hr), (K, Kr)):
        assert Xr.frame is not None and Xr.table == X.table
        assert not {"pi_l_units", "pi_r_units"} & set(vars(Xr))
        plain, rotated = certify_morita_equivalent(X), certify_morita_equivalent(Xr)
        assert (rotated.equivalent, rotated.reason) == (plain.equivalent, plain.reason)
        assert rotated.residual <= DEFAULT_TOL


@pytest.mark.parametrize("name", CASES)
def test_rotated_fusions_agree_with_the_dense_reference(name):
    _, _, std, Hr, Kr = _rotated_case(name)
    fus, dense = connes_fusion(Hr, Kr, std), dense_fusion(Hr, Kr, std)
    assert fus.corr.frame is None
    assert _relative(fus.section @ fus.project, dense.section @ dense.project) <= 1e-12
    assert _relative(fus.project.conj().T @ fus.project,
                     dense.project.conj().T @ dense.project) <= 1e-12


@pytest.mark.parametrize("name", CASES)
def test_rotated_witness_unitor_and_balancing_residuals(name):
    H, K, std, Hr, Kr = _rotated_case(name)
    for X, Xr in ((H, Hr), (K, Kr)):
        U, residual = unitary_intertwiner(X, Xr)
        assert residual <= DEFAULT_TOL
    fus = connes_fusion(Hr, Kr, std)
    assert left_unitor(Kr, std).residual() <= DEFAULT_TOL
    assert right_unitor(Hr, std).residual() <= DEFAULT_TOL
    rng = np.random.default_rng(CASES.index(name))
    assert twisted_balancing_residual(fus, std, rng, samples=5) <= DEFAULT_TOL


@pytest.mark.parametrize("name", CASES)
def test_a_rotated_correspondence_round_trips_as_checked_input(name):
    _, _, _, Hr, _ = _rotated_case(name)
    A, B = Hr.left_algebra, Hr.right_algebra
    algebras = {"A": A} if A == B else {"A": A, "B": B}
    doc = serialize_spec(SpecFile(algebras=algebras, correspondences={"H": Hr}))
    assert set(doc["correspondences"]["H"]) == {"left", "right", "dim", "pi_l", "pi_r"}
    back = load_spec_dict(json.loads(json.dumps(doc))).correspondences["H"]
    assert back.frame is not None and back.table == Hr.table
    for key in ("pi_l_units", "pi_r_units"):
        assert np.allclose(getattr(back, key), getattr(Hr, key), rtol=0.0, atol=1e-12)


def test_a_scaled_frame_trips_the_frame_gate(monkeypatch):
    # one frame of one block pair scaled by 1 + 1e-6: every law holds, but
    # W is no longer unitary
    H = _case("H*conj(H)")[0]
    measured, scaled_one = correspondences.isotypic_frames, []

    def scaled(lefts, rights):
        frames = measured(lefts, rights)
        if len(frames) and not scaled_one:
            scaled_one.append(frames)
            frames = frames.copy()
            frames[0] *= 1.0 + 1e-6
        return frames
    monkeypatch.setattr(correspondences, "isotypic_frames", scaled)
    with pytest.raises(ValueError, match=FRAME_MESSAGE):
        Correspondence(H.left_algebra, H.right_algebra, H.dim, H.pi_l_units, H.pi_r_units)


def _near_threshold_inputs():
    """(A, B, pi_l, pi_r) of the near-threshold checked inputs of the suite:
    the generating-relation band cases, the near-identity rotations of
    correspondences_close and the 1e-9 perturbations that still fuse."""
    yield from TestGeneratingRelations()._cases()
    H = _case("H*conj(H)")[0]
    rng = np.random.default_rng(11)
    for eps in (1e-3, 1e-9):
        W = _near_identity_unitary(H.dim, eps, rng)
        yield (H.left_algebra, H.right_algebra,
               [W @ U @ W.conj().T for U in H.pi_l_units],
               [W @ U @ W.conj().T for U in H.pi_r_units])
    rng = np.random.default_rng(0)
    for _ in range(5):
        yield (H.left_algebra, H.right_algebra,
               *([U + 1e-9 * E / np.linalg.norm(E, 2)
                  for U, E in zip(units, rng.normal(size=units.shape)
                                  + 1j * rng.normal(size=units.shape))]
                 for units in (H.pi_l_units, H.pi_r_units)))


def test_no_near_threshold_input_is_rejected_by_the_frame_gate():
    outcomes = [_violation(*case) for case in _near_threshold_inputs()]
    assert outcomes.count(None) >= 10
    assert not [m for m in outcomes if m is not None and FRAME_MESSAGE in m]
