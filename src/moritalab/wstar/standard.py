"""GNS construction and the standard form with its modular data.

L²(A, φ) is realized on the matrix-unit coordinate space of the algebra:
Λ(x) = x·ρ^{1/2} identifies elements with vectors, and the matrix units
are an orthonormal basis for <x, y> = φ(x*y). The involution S(Λx) = Λ(x*)
is assembled as an antilinear matrix and handed to the polar routine; J,
Δ and Δ^{±1/2} are whatever comes back from its one spectrum of Δ, never
a closed form assumed up front, and ρ^{±1/2} share one spectrum of ρ. The
commutation theorem is checked against the commutant read off the left
action's isotypic frames, not solved for.  Λ, Λ^{-1} and S are read off
the stacked products E_u·X, whose entries are single products; the
modular twist is a coordinate table over the units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..errors import NotFaithful
from ..numkernel import (
    DEFAULT_TOL,
    AntilinearOp,
    hermitian_powers,
    max_operator_norm,
    norm_exceeds,
    operator_norm,
    orthonormal_columns,
    polar_antilinear,
    spans_equal,
)
from .algebras import MultiMatrixAlgebra, State, left_commutant, left_frames


@dataclass(frozen=True)
class StandardFormData:
    """L²(A, φ) with Λ, the modular involution J, and the modular matrix Δ."""

    algebra: MultiMatrixAlgebra
    state: State
    lam: np.ndarray          # coords of x -> coords of Λ(x) = x.rho^{1/2}
    lam_inv: np.ndarray
    S: AntilinearOp
    J: AntilinearOp
    delta: np.ndarray
    delta_half: np.ndarray
    delta_minus_half: np.ndarray
    pi_l_units: tuple[np.ndarray, ...] = field(repr=False, default=())
    pi_r_units: tuple[np.ndarray, ...] = field(repr=False, default=())

    @property
    def dim(self) -> int:
        return self.algebra.vector_dim

    def Lambda(self, x: np.ndarray) -> np.ndarray:
        return self.lam @ self.algebra.coords(x)

    def Lambda_inv(self, v: np.ndarray) -> np.ndarray:
        return self.algebra.from_coords(self.lam_inv @ v)

    def pi_l(self, x: np.ndarray) -> np.ndarray:
        return self.algebra.extend_linearly(x, self.pi_l_units)

    def pi_r(self, y: np.ndarray) -> np.ndarray:
        return self.algebra.extend_linearly(y, self.pi_r_units)

    def cyclic_vector(self) -> np.ndarray:
        """Λ(1), the cyclic and separating vector of the standard form."""
        return self.lam @ self.algebra.coords(self.algebra.identity())

    @cached_property
    def creation_inverse(self) -> np.ndarray:
        """Inverse of the matrix sending coords of y to J Λ(y*).

        Column u of a stack of right actions on a vector, times this,
        gives that vector's creation operator (see fusion.r_eta).
        """
        return np.linalg.inv(self.J.matrix @ np.conj(self.lam[:, self.algebra.adjoint_order]))

    @cached_property
    def twist_tables(self) -> dict[int, np.ndarray]:
        """Per sign s, column u holds the coordinates of Δ^{s/2}·π_l(E_u)·Δ^{-s/2}.

        Every matrix unit's twist is checked to stay inside the algebra.
        """
        units, tables = np.stack(self.pi_l_units), {}
        for sign, a, b in ((-1, self.delta_minus_half, self.delta_half),
                           (1, self.delta_half, self.delta_minus_half)):
            ops = a @ units @ b
            tables[sign] = self.lam_inv @ (ops @ self.cyclic_vector()).T
            resid = ops - np.tensordot(tables[sign].T, units, 1)
            if norm_exceeds(resid, DEFAULT_TOL):  # else below every unit's bound
                resid = np.linalg.norm(resid, 2, axis=(1, 2))
                drift = resid > DEFAULT_TOL * (1.0 + np.linalg.norm(ops, 2, axis=(1, 2)))
                if np.any(drift):
                    raise NotFaithful("modular twist left the algebra, "
                                      f"residual {resid[drift].max():.3g}")
        return tables

    def modular_twist(self, y: np.ndarray, sign: int = -1) -> np.ndarray:
        """The algebra element with π_l-image Δ^{sign/2}·π_l(y)·Δ^{-sign/2}."""
        if sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")
        return self.algebra.from_coords(self.twist_tables[sign] @ self.algebra.coords(y))


def gns_standard_form(A: MultiMatrixAlgebra, phi: State) -> StandardFormData:
    """Standard form of (A, φ) with modular data from the polar step."""
    if phi.algebra != A:
        raise NotFaithful("state was built on a different algebra")
    rho_half, rho_minus_half = hermitian_powers(phi.density, (0.5, -0.5))
    units = np.stack(A.matrix_units())
    rows, cols = A.unit_positions
    lam = (units @ rho_half)[:, rows, cols].T
    right_minus_half = units @ rho_minus_half
    lam_inv = right_minus_half[:, rows, cols].T
    # S(ξ) = Λ((Λ^{-1}ξ)*): columns are images of the basis vectors
    S = AntilinearOp((right_minus_half.conj().transpose(0, 2, 1)
                      @ rho_half)[:, rows, cols].T)
    J, delta, delta_half, delta_minus_half = polar_antilinear(S)

    # pi_l(E_u) sends E_w to E_u.E_w: a 1 at (v, w) exactly when row(v) =
    # row(u), row(w) = col(u) and col(v) = col(w), as global matrix positions
    lefts = ((rows[:, None, None] == rows[:, None]) & (cols[:, None, None] == rows)
             & (cols[:, None] == cols)).astype(np.complex128)
    # right action through the modular involution: y -> J y* J
    pi_r_units = [J.matrix @ np.conj(lefts[u] @ J.matrix) for u in A.adjoint_order]
    return StandardFormData(A, phi, lam, lam_inv, S, J, delta, delta_half,
                            delta_minus_half, tuple(lefts), tuple(pi_r_units))


def standard_form_residuals(std: StandardFormData) -> dict[str, float]:
    """Deviation of each defining identity of the standard form.

    Keys: "polar" (S against J.Delta^{1/2}), "involution" (J squared
    against the identity), "commutant" (right action against the
    commutant of the left one), "center" (Delta-conjugation moving a
    central element).  The arrays are read as built, none re-validated.
    """
    polar = operator_norm(std.J.matrix @ np.conj(std.delta_half) - std.S.matrix)
    involution = operator_norm(std.J.compose_antilinear(std.J) - np.eye(std.dim))
    rights = np.stack(std.pi_r_units).reshape(len(std.pi_r_units), -1).T
    _, comm_res = spans_equal(left_commutant(left_frames(std.algebra, std.pi_l_units)),
                              orthonormal_columns(rights))
    units, pos = np.stack(std.pi_l_units), std.algebra.unit_positions
    Zs = [np.tensordot(z[pos], units, 1) for z in std.algebra.center_basis()]
    center = max_operator_norm([std.delta @ Z - Z @ std.delta for Z in Zs])
    return {"polar": polar, "involution": involution,
            "commutant": comm_res, "center": center}
