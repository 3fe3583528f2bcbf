"""Fusion of correspondences over a common algebra in standard form.

The fused space is the Gram quotient of the algebraic tensor product,
where the inner product of elementary tensors routes the middle algebra
through bounded right-creation operators: each vector eta of the left
factor gives R_eta: L2(N) -> H, and R_eta1* R_eta2 lands in pi_l(N), so
it can be moved onto the right factor before taking plain inner products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AlgebraMismatch, CapExceeded
from ..numkernel import gram_quotient
from .correspondences import Correspondence, Intertwiner, identity_correspondence
from .standard import StandardFormData

FUSION_DIM_CAP = 10 ** 4


def r_eta(H: Correspondence, std_N: StandardFormData,
          eta: np.ndarray) -> np.ndarray:
    """The creation operator L2(N) -> H sending J Lambda(y*) to eta . y.

    The map y -> J Lambda(y*) is linear and carries the matrix units to a
    basis of L2(N), so the operator is determined by matching columns.
    """
    if H.right_algebra != std_N.algebra:
        raise AlgebraMismatch("standard form is not over the right algebra")
    eta = np.asarray(eta, dtype=np.complex128).reshape(H.dim)
    V = _unit_images(std_N)
    W = np.stack([U @ eta for U in H.pi_r_units], axis=1)
    return W @ np.linalg.inv(V)


def _unit_images(std: StandardFormData) -> np.ndarray:
    """Columns J Lambda(E_u*) over the matrix units E_u, in unit order."""
    return np.stack([std.J.apply(std.lam[:, u])
                     for u in std.algebra.adjoint_order], axis=1)


@dataclass(frozen=True, eq=False)
class FusionResult:
    """Fused correspondence plus the quotient data of the ambient tensor.

    project maps the ambient tensor coordinates onto the fused space and
    section embeds it back; project @ section is the identity on the
    quotient, and gram is the ambient Gram matrix that was quotiented.
    """

    corr: Correspondence
    project: np.ndarray
    section: np.ndarray
    gram: np.ndarray
    left_factor: Correspondence
    right_factor: Correspondence

    @property
    def left_dim(self) -> int:
        return self.left_factor.dim

    @property
    def right_dim(self) -> int:
        return self.right_factor.dim

    def pure(self, eta: np.ndarray, zeta: np.ndarray) -> np.ndarray:
        """Quotient class of the elementary tensor eta (x) zeta."""
        eta = np.asarray(eta, dtype=np.complex128).reshape(self.left_dim)
        zeta = np.asarray(zeta, dtype=np.complex128).reshape(self.right_dim)
        return self.project @ np.kron(eta, zeta)


def connes_fusion(H: Correspondence, K: Correspondence,
                  std_N: StandardFormData,
                  cap: int = FUSION_DIM_CAP) -> FusionResult:
    """Fuse an (M, N)- with an (N, P)-correspondence over N."""
    N = std_N.algebra
    if H.right_algebra != N or K.left_algebra != N:
        raise AlgebraMismatch("fusion factors do not share the middle algebra")
    dH, dK = H.dim, K.dim
    ambient = dH * dK
    if ambient > cap:
        raise CapExceeded(f"ambient tensor dimension {ambient} exceeds {cap}")

    V = _unit_images(std_N)
    V_inv = np.linalg.inv(V)
    cyc = std_N.cyclic_vector()
    R = [np.stack([U[:, a] for U in H.pi_r_units], axis=1) @ V_inv
         for a in range(dH)]

    G = np.zeros((ambient, ambient), dtype=np.complex128)
    for a in range(dH):
        for c in range(dH):
            T_ac = R[a].conj().T @ R[c]
            n_ac = std_N.Lambda_inv(T_ac @ cyc)
            G[a * dK:(a + 1) * dK, c * dK:(c + 1) * dK] = K.pi_l(n_ac)
    q = gram_quotient(G, scale=1.0)

    eye_K = np.eye(dK)
    eye_H = np.eye(dH)
    pi_l = tuple(q.project @ np.kron(U, eye_K) @ q.section
                 for U in H.pi_l_units)
    pi_r = tuple(q.project @ np.kron(eye_H, U) @ q.section
                 for U in K.pi_r_units)
    name = f"({H.name}*{K.name})" if H.name and K.name else ""
    corr = Correspondence(H.left_algebra, K.right_algebra, q.rank,
                          pi_l, pi_r, name=name)
    return FusionResult(corr=corr, project=q.project, section=q.section,
                        gram=G, left_factor=H, right_factor=K)


def left_unitor(K: Correspondence, std_M: StandardFormData,
                fusion: FusionResult | None = None) -> Intertwiner:
    """The intertwiner L2(M) fused with K -> K, Lambda(x) (x) zeta -> x.zeta."""
    if fusion is None:
        fusion = connes_fusion(identity_correspondence(std_M), K, std_M)
    if fusion.left_dim != std_M.dim or fusion.right_dim != K.dim:
        raise ValueError("fusion data does not match the unitor factors")
    A = np.hstack([K.pi_l(std_M.algebra.from_coords(std_M.lam_inv[:, u]))
                   for u in range(std_M.dim)])
    return Intertwiner(fusion.corr, K, A @ fusion.section)


def right_unitor(H: Correspondence, std_N: StandardFormData,
                 fusion: FusionResult | None = None) -> Intertwiner:
    """The intertwiner H fused with L2(N) -> H.

    An elementary tensor eta (x) Lambda(y) lands on eta acted on the right
    by the modular twist of y; when the state is tracial the twist is the
    identity and the map reduces to eta (x) Lambda(y) -> eta . y.
    """
    if fusion is None:
        fusion = connes_fusion(H, identity_correspondence(std_N), std_N)
    if fusion.left_dim != H.dim or fusion.right_dim != std_N.dim:
        raise ValueError("fusion data does not match the unitor factors")
    acts = [H.pi_r(std_N.modular_twist(
        std_N.algebra.from_coords(std_N.lam_inv[:, v]), sign=-1))
        for v in range(std_N.dim)]
    # column a * n + v of the map is column a of acts[v]
    A = np.stack(acts, axis=2).reshape(H.dim, H.dim * std_N.dim)
    return Intertwiner(fusion.corr, H, A @ fusion.section)


def associator(f_ab: FusionResult, f_ab_c: FusionResult,
               f_bc: FusionResult, f_a_bc: FusionResult) -> Intertwiner:
    """The rebracketing intertwiner (H * K) * L -> H * (K * L).

    Quotient representatives are rebracketed in the ambient triple tensor
    and re-projected; the four fusion results must share their factors.
    """
    dH, dK = f_ab.left_dim, f_ab.right_dim
    dL = f_bc.right_dim
    if f_bc.left_dim != dK:
        raise ValueError("inner factors disagree")
    if f_ab_c.left_dim != f_ab.corr.dim or f_ab_c.right_dim != dL:
        raise ValueError("left-bracketed fusion does not match")
    if f_a_bc.left_dim != dH or f_a_bc.right_dim != f_bc.corr.dim:
        raise ValueError("right-bracketed fusion does not match")
    mat = f_a_bc.project \
        @ np.kron(np.eye(dH), f_bc.project) \
        @ np.kron(f_ab.section, np.eye(dL)) \
        @ f_ab_c.section
    return Intertwiner(f_ab_c.corr, f_a_bc.corr, mat)


def twisted_balancing_residual(fus: FusionResult, std_N: StandardFormData,
                               rng, samples: int = 100) -> float:
    """Worst deviation of the twisted middle-slide identities on samples.

    Sliding a middle-algebra element across the fusion sign picks up a
    modular twist: eta.n (x) zeta matches eta (x) twist_+(n).zeta, and
    eta (x) n.zeta matches twist_-(n).eta (x) zeta.
    """
    H, K = fus.left_factor, fus.right_factor
    worst = 0.0
    for _ in range(samples):
        eta = rng.standard_normal(H.dim) + 1j * rng.standard_normal(H.dim)
        zeta = rng.standard_normal(K.dim) + 1j * rng.standard_normal(K.dim)
        n = std_N.algebra.random_element(rng)
        plus = std_N.modular_twist(n, sign=+1)
        minus = std_N.modular_twist(n, sign=-1)
        v = fus.pure(H.pi_r(n) @ eta, zeta) - fus.pure(eta, K.pi_l(plus) @ zeta)
        w = fus.pure(eta, K.pi_l(n) @ zeta) - fus.pure(H.pi_r(minus) @ eta, zeta)
        worst = max(worst, float(np.linalg.norm(v)), float(np.linalg.norm(w)))
    return worst
