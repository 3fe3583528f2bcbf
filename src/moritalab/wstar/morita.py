"""Equivalence certification for correspondences between multi-matrix algebras.

A correspondence between multi-matrix algebras implements an equivalence
exactly when its multiplicity matrix is a permutation matrix (Jones and
Sunder, Introduction to Subfactors, ch. 1-2).  That integer matrix, the
frame counts of Correspondence.multiplicities, alone decides the verdict:
a refutation names the first way it fails and has no residual.  For a
permutation matrix, fusing with the conjugate on either side and the
unitaries onto the identity correspondences are the certificate's
witnesses.  They are built from the frames, so the certificate is
deterministic; callers gate its residual.  The conjugate, the fusions and
the L² they map onto are tables, built without a law check or a stack
(see certify_morita_equivalent).  A fusion that does not match L² although
the multiplicities predict it raises RuntimeError, never a refutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import AlgebraMismatch
from .algebras import State, trace_state
from .correspondences import (
    Correspondence,
    conjugate_correspondence,
    identity_correspondence,
    unitary_intertwiner,
)
from .fusion import FusionResult, connes_fusion
from .standard import gns_standard_form


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


def _refutation(mult) -> str | None:
    """Why a multiplicity matrix is not a permutation matrix, None if it is."""
    rows = [sum(row) for row in mult]
    cols = [sum(col) for col in zip(*mult)]
    if 0 in rows:
        return "left action is not faithful"
    if any(r != 1 for r in rows) or any(c > 1 for c in cols):
        return "right action does not fill the commutant of the left one"
    if 0 in cols:
        return ("conjugate fusion is not the identity correspondence "
                "of the right algebra")
    return None


def _witness(fus: FusionResult, ident: Correspondence):
    """The unitary from a fusion onto the L² ident, and its residual."""
    found = unitary_intertwiner(fus.corr, ident)
    if found is None:
        raise RuntimeError(
            f"the multiplicities predict an equivalence, but no unitary maps "
            f"the fusion with multiplicities {fus.corr.multiplicities} onto "
            f"the identity correspondence with {ident.multiplicities}")
    return found


def certify_morita_equivalent(H: Correspondence,
                              phi_M: State | None = None,
                              phi_N: State | None = None
                              ) -> WStarMoritaCertificate:
    """Decide whether H implements an equivalence between its two algebras.

    States default to the normalized traces; they enter only the fusions'
    project and section, so neither the verdict nor the witnesses depend
    on the choice.  When M is N under one state (both defaulted, or the
    same object), one standard form and one L² serve both sides.

    For a permutation multiplicity matrix P, H fused with its conjugate is
    block_correspondence(M, M, P.P^T = 1), L²(M) stack for stack, so the
    witness U is the identity and its residual exactly 0.  That zero is not
    vacuous: connes_fusion's three gates carry the identification of the
    block correspondence with the Gram quotient of H (x) conj(H).
    """
    M, N = H.left_algebra, H.right_algebra
    self_pair = M == N and phi_M is phi_N
    if phi_M is None:
        phi_M = trace_state(M)
    if phi_N is None:
        phi_N = trace_state(N)
    if phi_M.algebra != M or phi_N.algebra != N:
        raise AlgebraMismatch("states are not on the correspondence algebras")

    reason = _refutation(H.multiplicities)
    if reason is not None:
        return WStarMoritaCertificate(corr=H, equivalent=False, reason=reason)

    std_M = gns_standard_form(M, phi_M)
    std_N = std_M if self_pair else gns_standard_form(N, phi_N)
    Hbar = conjugate_correspondence(H)
    L2_M = identity_correspondence(std_M)
    L2_N = L2_M if self_pair else identity_correspondence(std_N)
    fus_left = connes_fusion(H, Hbar, std_N)
    U_left, res_left = _witness(fus_left, L2_M)
    fus_right = connes_fusion(Hbar, H, std_M)
    U_right, res_right = _witness(fus_right, L2_N)
    return WStarMoritaCertificate(
        corr=H, equivalent=True, reason="certified",
        residual=max(res_left, res_right), conjugate=Hbar,
        fusion_left=fus_left, fusion_right=fus_right,
        unitary_left=U_left, unitary_right=U_right)
