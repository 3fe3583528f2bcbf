"""GNS construction and the standard form with its modular data, in closed form.

L²(A, φ) is realized on the matrix-unit coordinate space of the algebra:
Λ(x) = x·ρ^{1/2} identifies elements with vectors, and the matrix units
are an orthonormal basis for <x, y> = φ(x*y), which is the trace inner
product of the vectors ξ = Λ(x).  For A = ⊕_b M_{n_b} the standard form
is then known exactly (Haagerup, Math. Scand. 37, 1975; Takesaki, Theory
of Operator Algebras II): J ξ = ξ*, Δ^s ξ = ρ^s·ξ·ρ^{-s} and
π_r(y) ξ = ξ·y.  J permutes the unit basis, one read-only matrix per
algebra; Λ^{±1} (ξ -> ξ·ρ^{±1/2}), Δ^s and
the creation inverse are each one gather of ξ -> x·ξ·y
(algebras._bimodule_action) from the powers of ρ.  The actions are
state-free and live on L² alone, identity_correspondence(std).

The involution S(Λx) = Λ(x*) is still built from its definition, on the
stacked products E_u·ρ^{-1/2}, and every residual is measured against
it.  S is invertible, so its polar decomposition S = J·Δ^{1/2}, J
antiunitary and Δ positive, is unique: a small |J·Δ^{1/2} - S| shows
that the closed form is that decomposition.  The commutation theorem is
checked against the commutant read off the left action's isotypic
frames, not solved for, once per algebra: both actions depend on the
algebra alone.  Antilinear maps are stored as matrices M acting by
v -> M.conj(v).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..errors import NotFaithful, Singular
from ..numkernel import (
    DEFAULT_TOL,
    hermitian_spectrum,
    max_operator_norm,
    operator_norm,
    spectral_powers,
)
from .algebras import MultiMatrixAlgebra, State, _bimodule_action, _read_only

_POWERS = (1.0, 0.5, -0.5, -1.0)


@dataclass(frozen=True)
class StandardFormData:
    """L²(A, φ) with Λ, the modular involution J, and the modular matrix Δ."""

    algebra: MultiMatrixAlgebra
    state: State
    lam: np.ndarray          # coords of x -> coords of Λ(x) = x.rho^{1/2}
    lam_inv: np.ndarray
    S: np.ndarray            # antilinear, v -> S.conj(v)
    J: np.ndarray            # antilinear, v -> J.conj(v)
    delta: np.ndarray
    delta_half: np.ndarray
    delta_minus_half: np.ndarray
    # inverse of coords of y -> J Λ(y*) = rho^{1/2}.y, left multiplication by
    # rho^{-1/2}: column u of a stack of right actions on a vector, times
    # this, gives that vector's creation operator (see fusion.r_eta)
    creation_inverse: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.algebra.vector_dim

    def Lambda(self, x: np.ndarray) -> np.ndarray:
        return self.lam @ self.algebra.coords(x)

    def Lambda_inv(self, v: np.ndarray) -> np.ndarray:
        return self.algebra.from_coords(self.lam_inv @ v)

    def cyclic_vector(self) -> np.ndarray:
        """Λ(1), the cyclic and separating vector of the standard form, read-only."""
        return self._cyclic_vector

    @cached_property
    def _cyclic_vector(self) -> np.ndarray:
        return _read_only(self.lam @ self.algebra.coords(self.algebra.identity()))

    def modular_twist(self, y: np.ndarray, sign: int = -1) -> np.ndarray:
        """The algebra element with π_l-image Δ^{sign/2}·π_l(y)·Δ^{-sign/2}.

        That element is rho^{sign/2}.y.rho^{-sign/2}, so its coordinates are
        Δ^{sign/2} applied to those of y.
        """
        if sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")
        table = self.delta_half if sign == 1 else self.delta_minus_half
        return self.algebra.from_coords(table @ self.algebra.coords(y))


def _block_condition(A: MultiMatrixAlgebra, w: np.ndarray, V: np.ndarray) -> float:
    """The largest ratio of extreme eigenvalues within one block of rho.

    Eigenvalue k belongs to block b when eigenvector k has weight on b.  An
    eigenspace shared by several blocks may mix them, but some vector of
    its basis keeps weight at least 1/A.dim on each, above the cutoff.
    """
    starts = [A.block_offset(b) for b in range(len(A.block_sizes))]
    weight = np.add.reduceat(np.abs(V) ** 2, starts, axis=0)
    return max(w[on].max() / w[on].min() for on in weight > 0.5 / A.dim)


def gns_standard_form(A: MultiMatrixAlgebra, phi: State) -> StandardFormData:
    """Standard form of (A, φ), its modular data in closed form from rho's spectrum."""
    if phi.algebra != A:
        raise NotFaithful("state was built on a different algebra")
    w, V = hermitian_spectrum(phi.density)
    rho = dict(zip(_POWERS, spectral_powers(w, V, _POWERS)))
    # Δ's spectrum is the ratios within each block, from 1/top to top: the
    # negative-power guard of spectral_powers at Δ's scale
    top = _block_condition(A, w, V)
    if 1.0 / top <= DEFAULT_TOL * top:
        raise Singular("negative power of a singular matrix")
    rows, cols = A.unit_positions
    # Λ^{±1} is ξ -> ξ.rho^{±1/2} and Δ^s is ξ -> rho^s.ξ.rho^{-s}
    lam, lam_inv = (_bimodule_action(rows, cols, y=rho[s]) for s in (0.5, -0.5))
    delta, delta_half, delta_minus_half = (
        _bimodule_action(rows, cols, rho[s], rho[-s]) for s in (1.0, 0.5, -0.5))
    # S(ξ) = Λ((Λ^{-1}ξ)*) from its definition, on the products E_w.rho^{-1/2}
    S = ((A.unit_stack @ rho[-0.5]).conj().transpose(0, 2, 1) @ rho[0.5])[:, rows, cols].T
    # the inverse of Λ's own rho^{1/2}, an A.dim-square matrix, rather than
    # rho^{-1/2}: fusion pairs the creation operators with Λ(1)
    creation_inverse = _bimodule_action(rows, cols, x=np.linalg.inv(rho[0.5]))
    # J ξ = ξ*: the coordinate of E_u in J ξ is conj of that of E_u*
    return StandardFormData(A, phi, lam, lam_inv, S, A._involution, delta, delta_half,
                            delta_minus_half, creation_inverse)


def standard_form_residuals(std: StandardFormData) -> dict[str, float]:
    """Deviation of each defining identity of the standard form.

    Keys: "polar" (S against J.Delta^{1/2}), "involution" (J squared
    against the identity), "commutant" (right action against the
    commutant of the left one), "center" (Delta-conjugation moving a
    central element).  The arrays are read as built, none re-validated.

    "polar" is the one state-dependent measurement, an SVD of
    J.conj(Δ^{1/2}) - S.  "commutant" is a per-algebra measurement: both
    actions are the algebra's regular unit stacks whatever the state, so
    the algebra measures their residual once, on the frame commutant of
    the left stack, and a StandardFormData carries no stacks.  On
    gns_standard_form's output "involution" and "center" are exactly 0,
    and neither passes vacuously: J squared is the identity because
    adjoint_order is an involution, and Δ commutes with the center because
    it has exact zeros across blocks while a central element acts by one
    scalar per block.  A J or Δ breaking either law shows in its value.
    """
    A = std.algebra
    polar = operator_norm(std.J @ np.conj(std.delta_half) - std.S)
    involution = operator_norm(std.J @ np.conj(std.J) - np.eye(std.dim))
    # pi_l of block b's identity is the diagonal z_b, 1 on the units of
    # block b, so Δ.Z_b - Z_b.Δ has entry Δ[v, w].(z_w - z_v); adding 0.0
    # turns its -0 entries into the +0 the two products give, since the sign
    # of a zero can steer the SVD's reflections and so the value's last bit
    k = len(A.block_sizes)
    z = (np.repeat(np.arange(k), np.square(A.block_sizes))
         == np.arange(k)[:, None]).astype(float)
    center = max_operator_norm(std.delta * (z[:, None, :] - z[:, :, None]) + 0.0)
    return {"polar": polar, "involution": involution,
            "commutant": A.regular_commutant_residual, "center": center}
