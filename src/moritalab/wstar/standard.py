"""GNS construction and the standard form with its modular data.

L²(A, φ) is realized on the matrix-unit coordinate space of the algebra:
Λ(x) = x·ρ^{1/2} identifies elements with vectors, and the matrix units
are an orthonormal basis for <x, y> = φ(x*y). The involution S(Λx) = Λ(x*)
is assembled as an antilinear matrix and handed to the polar routine; J
and Δ are whatever comes back, never a closed form assumed up front. The
commutation theorem is checked against the commutant read off the left
action's isotypic frames, not solved for.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import NotFaithful
from ..numkernel import (
    DEFAULT_TOL,
    AntilinearOp,
    hermitian_power,
    max_operator_norm,
    operator_norm,
    polar_antilinear,
)
from .algebras import MultiMatrixAlgebra, State, left_frames, right_fills_commutant


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

    def modular_twist(self, y: np.ndarray, sign: int = -1) -> np.ndarray:
        """The algebra element with π_l-image Δ^{sign/2}·π_l(y)·Δ^{-sign/2}."""
        if sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")
        a, b = ((self.delta_minus_half, self.delta_half) if sign == -1
                else (self.delta_half, self.delta_minus_half))
        op = a @ self.pi_l(y) @ b
        twisted = self.Lambda_inv(op @ self.cyclic_vector())
        # the twist stays inside the algebra; detect drift early
        resid = operator_norm(op - self.pi_l(twisted))
        if resid > DEFAULT_TOL * (1.0 + operator_norm(op)):
            raise NotFaithful(f"modular twist left the algebra, residual {resid:.3g}")
        return twisted


def gns_standard_form(A: MultiMatrixAlgebra, phi: State) -> StandardFormData:
    """Standard form of (A, φ) with modular data from the polar step."""
    if phi.algebra != A:
        raise NotFaithful("state was built on a different algebra")
    rho = phi.density
    rho_half = hermitian_power(rho, 0.5)
    rho_minus_half = hermitian_power(rho, -0.5)
    units = A.matrix_units()

    lam = np.stack([A.coords(E @ rho_half) for E in units], axis=1)
    lam_inv = np.stack([A.coords(E @ rho_minus_half) for E in units], axis=1)

    # S(ξ) = Λ((Λ^{-1}ξ)*): columns are images of the basis vectors
    S = AntilinearOp(np.stack([A.coords((E @ rho_minus_half).conj().T @ rho_half)
                               for E in units], axis=1))
    J, delta = polar_antilinear(S)
    delta_half = hermitian_power(delta, 0.5)
    delta_minus_half = hermitian_power(delta, -0.5)

    # e_{b,i,j} . e_{b,j,l} = e_{b,i,l}: an identity block from row j to row i
    lefts = [np.zeros((A.vector_dim,) * 2, dtype=np.complex128) for _ in units]
    for L, (b, i, j) in zip(lefts, A.unit_triples()):
        r, c, n = A.unit_index(b, i, 0), A.unit_index(b, j, 0), A.block_sizes[b]
        L[r:r + n, c:c + n] = np.eye(n)
    # right action through the modular involution: y -> J y* J
    MJ = J.matrix
    pi_r_units = [MJ @ np.conj(lefts[u] @ MJ) for u in A.adjoint_order]
    return StandardFormData(A, phi, lam, lam_inv, S, J, delta,
                            delta_half, delta_minus_half,
                            tuple(lefts), tuple(pi_r_units))


def standard_form_residuals(std: StandardFormData) -> dict[str, float]:
    """Deviation of each defining identity of the standard form.

    Keys: "polar" (S against J.Delta^{1/2}), "involution" (J squared
    against the identity), "commutant" (right action against the
    commutant of the left one), "center" (Delta-conjugation moving a
    central element).
    """
    d = std.dim
    s_built = std.J.compose_linear(std.delta_half).matrix
    polar = operator_norm(s_built - std.S.matrix)
    involution = operator_norm(std.J.compose_antilinear(std.J) - np.eye(d))
    _, comm_res = right_fills_commutant(
        left_frames(std.algebra, std.pi_l_units), std.pi_r_units)
    Zs = [std.pi_l(z) for z in std.algebra.center_basis()]
    center = max_operator_norm([std.delta @ Z - Z @ std.delta for Z in Zs])
    return {"polar": polar, "involution": involution,
            "commutant": comm_res, "center": center}
