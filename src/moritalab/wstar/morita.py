"""Equivalence certification for correspondences between multi-matrix algebras.

A correspondence implements an equivalence exactly when its left action is
faithful, its right action spans the full commutant of the left one, and
fusing with the conjugate on either side returns the identity
correspondence up to unitary intertwiner. The certificate records the
witnesses; a refutation records which gate failed. Faithfulness and the
commutant come from the left action's isotypic frames, counted at the
spectral cutoff 1/2, and the span comparison decides at DEFAULT_TOL. The
fusion gates compare multiplicity matrices and build their unitaries from
the frames, so the certificate is deterministic; callers gate its residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import AlgebraMismatch
from .algebras import State, left_frames, right_fills_commutant, trace_state
from .correspondences import (
    Correspondence,
    Intertwiner,
    conjugate_correspondence,
    identity_correspondence,
    unitary_intertwiner,
)
from .fusion import FusionResult, connes_fusion
from .standard import StandardFormData, gns_standard_form


@dataclass(frozen=True)
class WStarMoritaCertificate:
    """Outcome of certifying a correspondence as a Morita equivalence."""

    corr: Correspondence
    equivalent: bool
    reason: str
    residual: float = 0.0
    conjugate: Correspondence | None = None
    fusion_left: FusionResult | None = field(default=None, repr=False)
    fusion_right: FusionResult | None = field(default=None, repr=False)
    unitary_left: np.ndarray | None = field(default=None, repr=False)
    unitary_right: np.ndarray | None = field(default=None, repr=False)


def certify_morita_equivalent(H: Correspondence,
                              phi_M: State | None = None,
                              phi_N: State | None = None
                              ) -> WStarMoritaCertificate:
    """Decide whether H implements an equivalence between its two algebras.

    States default to the normalized traces; by state independence of the
    fusion the verdict does not depend on the choice, only the recorded
    unitaries do.
    """
    M, N = H.left_algebra, H.right_algebra
    if phi_M is None:
        phi_M = trace_state(M)
    if phi_N is None:
        phi_N = trace_state(N)
    if phi_M.algebra != M or phi_N.algebra != N:
        raise AlgebraMismatch("states are not on the correspondence algebras")

    frames = left_frames(M, H.pi_l_units)
    if not all(len(F) for F in frames):
        return WStarMoritaCertificate(
            corr=H, equivalent=False,
            reason="left action is not faithful")

    same, res = right_fills_commutant(frames, H.pi_r_units)
    if not same:
        return WStarMoritaCertificate(
            corr=H, equivalent=False, residual=res,
            reason="right action does not fill the commutant of the left one")

    std_M = gns_standard_form(M, phi_M)
    std_N = gns_standard_form(N, phi_N)
    Hbar = conjugate_correspondence(H)

    fus_left = connes_fusion(H, Hbar, std_N)
    ident_M = identity_correspondence(std_M)
    U_left = unitary_intertwiner(fus_left.corr, ident_M)
    if U_left is None:
        return WStarMoritaCertificate(
            corr=H, equivalent=False, conjugate=Hbar, fusion_left=fus_left,
            reason="fusion with the conjugate is not the identity "
                   "correspondence of the left algebra")

    fus_right = connes_fusion(Hbar, H, std_M)
    ident_N = identity_correspondence(std_N)
    U_right = unitary_intertwiner(fus_right.corr, ident_N)
    if U_right is None:
        return WStarMoritaCertificate(
            corr=H, equivalent=False, conjugate=Hbar,
            fusion_left=fus_left, fusion_right=fus_right,
            reason="conjugate fusion is not the identity correspondence "
                   "of the right algebra")

    worst = max(Intertwiner(fus_left.corr, ident_M, U_left).residual(),
                Intertwiner(fus_right.corr, ident_N, U_right).residual(),
                res)
    return WStarMoritaCertificate(
        corr=H, equivalent=True, reason="certified", residual=worst,
        conjugate=Hbar, fusion_left=fus_left, fusion_right=fus_right,
        unitary_left=U_left, unitary_right=U_right)
