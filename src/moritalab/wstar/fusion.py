"""Fusion of correspondences over a common algebra in standard form.

The fused space is the Gram quotient of the algebraic tensor product,
where the inner product of elementary tensors routes the middle algebra
through bounded right-creation operators: each vector eta of the left
factor gives R_eta: L2(N) -> H, and R_eta1* R_eta2 lands in pi_l(N), so
it can be moved onto the right factor before taking plain inner products.
Every map here is linear in the middle algebra, so each is one sum of
middle coordinates times a factor's unit images, Correspondence.unit_sum:
those of the creation inverse give R, those of R_a*.R_c over basis pairs
the Gram matrix G, and those of Lambda^{-1} of L2's basis (twisted by
Δ^{-1/2} on the right) the unitors.  Factors are read only through
Correspondence, which chooses between a table's index data and a stack.

The quotient is exact: with p_b = e_{b00} in middle block b, the fused
space is the sum over b of (H.p_b) (x) (p_b.K) (Sauvageot, J. Operator
Theory 9, 1983) and multiplicities multiply (Jones and Sunder,
Introduction to Subfactors, ch. 1-2), so it is block_correspondence of
mult(H).mult(K), and the state enters only project and section.  The
result carries that table alone and writes its stacks on first read; the
gate below reads the fused generating units as their index data.  S, the
products of orthonormal frame bases of H.p_b and p_b.K in that basis
order, has S*.G.S = c_b on block b (p_b is minimal): section = S.c^{-1/2},
project = c^{-1/2}.S*.G (G's Hermitian part).  Three gates carry this:
every c_j is positive; |G - project*.project| bounds how far G is from
Hermitian, positive and spanned by S, and S*.G.S from diagonal; and the
generating units of either side compress to the fused ones, so every
unit does, both being *-representations; the gate takes one side at a
time.  Kronecker factors are applied by reshaping (numkernel.kron_sandwich)
or, for a factor with a table, by moving rows, never formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AlgebraMismatch, CapExceeded
from ..numkernel import (
    DEFAULT_TOL,
    kron_sandwich,
    max_operator_norm,
    norm_exceeds,
    operator_norm,
)
from .algebras import table_dim, table_units
from .correspondences import (
    Correspondence,
    Intertwiner,
    _generators_on_section,
    correspondences_close,
    identity_correspondence,
)
from .standard import StandardFormData

FUSION_DIM_CAP = 10 ** 4


def _creation_operators(H: Correspondence, std_N: StandardFormData) -> np.ndarray:
    """R, C-contiguous, R[a] the creation operator of H's basis vector a:
    column a of sum_u creation_inverse[u, v].U_u over H's right units."""
    R = H.unit_sum("right", std_N.creation_inverse.T)
    return np.ascontiguousarray(R.transpose(2, 1, 0))


def r_eta(H: Correspondence, std_N: StandardFormData,
          eta: np.ndarray) -> np.ndarray:
    """The creation operator L2(N) -> H sending J Lambda(y*) to eta . y.

    The map y -> J Lambda(y*) is linear and carries the matrix units to a
    basis of L2(N), so the operator is determined by matching columns: it
    is sum_a eta[a].R[a].  A stack of vectors, one per row, gives the
    stack of their operators.
    """
    if H.right_algebra != std_N.algebra:
        raise AlgebraMismatch("standard form is not over the right algebra")
    return np.tensordot(eta, _creation_operators(H, std_N), 1)


@dataclass(frozen=True, eq=False)
class FusionResult:
    """Fused correspondence plus the quotient data of the ambient tensor:
    project maps the ambient tensor coordinates onto the fused space and
    section embeds it back, project @ section the identity on the quotient."""

    corr: Correspondence
    project: np.ndarray
    section: np.ndarray
    left_factor: Correspondence
    right_factor: Correspondence

    @property
    def left_dim(self) -> int:
        return self.left_factor.dim

    @property
    def right_dim(self) -> int:
        return self.right_factor.dim

    def pure(self, eta: np.ndarray, zeta: np.ndarray) -> np.ndarray:
        """Quotient class of the elementary tensor eta (x) zeta.

        Stacks of vectors, one per row, give the stack of their classes.
        """
        eta = np.asarray(eta, dtype=np.complex128)[..., :, None]
        zeta = np.asarray(zeta, dtype=np.complex128)[..., :, None]
        return kron_sandwich(self.project, eta, zeta, np.ones((1, 1)))[..., 0]

    def fuses(self, H: Correspondence, K: Correspondence) -> bool:
        """Whether the factors are H and K (correspondences_close)."""
        return correspondences_close(self.left_factor, H) \
            and correspondences_close(self.right_factor, K)


def _reduced_basis(H: Correspondence, K: Correspondence) -> np.ndarray:
    """S, orthonormal ambient columns x (x) y in the fused basis order: per
    outer block pair (a, d) and middle block b, slot (i, 0) of H's (a, b)
    frames times slot (0, j) of K's (b, d) frames, columns (copy s, copy t,
    i, j), so copy k of (a, d) in the fused basis is (b, s, t).  On block
    correspondences the frames are the tables' coordinate columns, so S is
    0/1 and its copies come in table order."""
    ns, ps = H.right_algebra.block_sizes, K.right_algebra.block_sizes
    Xs = [[F[:, :, ::n].transpose(1, 0, 2)[:, None, :, None, :, None]
           for F, n in zip(row, ns)] for row in H.frames]
    Ys = [[F[:, :, :p].transpose(1, 0, 2)[None, :, None, :, None, :]
           for F, p in zip(row, ps)] for row in K.frames]
    parts = [X * Ys[b][d] for row in Xs for d in range(len(ps)) for b, X in enumerate(row)]
    return np.concatenate([xy.reshape(H.dim * K.dim, np.prod(xy.shape[2:], dtype=int))
                           for xy in parts], axis=1)


def connes_fusion(H: Correspondence, K: Correspondence,
                  std_N: StandardFormData,
                  cap: int = FUSION_DIM_CAP) -> FusionResult:
    """Fuse an (M, N)- with an (N, P)-correspondence over N.

    corr is block_correspondence(M, P, mult(H).mult(K)), built from that
    table alone, its stacks written on first read.  RuntimeError is
    raised by a block constant c_j at or below DEFAULT_TOL.max(max c, 1),
    |G - project*.project| above bound = DEFAULT_TOL.max(|project|^2, 1)
    (G's top eigenvalue), or a compressed generating unit further than
    bound from the fused one: operator norms behind a Frobenius screen.
    """
    N = std_N.algebra
    if H.right_algebra != N or K.left_algebra != N:
        raise AlgebraMismatch("fusion factors do not share the middle algebra")
    ambient = H.dim * K.dim
    if ambient > cap:
        raise CapExceeded(f"ambient tensor dimension {ambient} exceeds {cap}")

    # R[a] is r_eta of basis vector a
    R = _creation_operators(H, std_N)
    # coordinates lam_inv.R_a*.R_c.Lambda(1) of the middle element of (a, c)
    coef = (R @ std_N.cyclic_vector()) @ (R.conj() @ std_N.lam_inv.T)
    # G[(a, b), (c, d)] = sum_u coef[a, c, u].pi_l(e_u)[b, d]
    G = K.unit_sum("left", coef).transpose(0, 2, 1, 3).reshape(ambient, ambient)
    S = _reduced_basis(H, K)
    # project reads (G + G*)/2, halved after the product; the residual reads G
    Gh = np.conjugate(G.T, order="C")
    Gh += G
    SG = (S.conj().T @ Gh) * 0.5
    del Gh
    # S*.G.S is c_b times the identity on middle block b: its diagonal
    c = np.einsum("ji,ij->j", SG, S).real
    cut = DEFAULT_TOL * max(np.max(c, initial=0.0), 1.0)
    if np.any(c <= cut):
        raise RuntimeError(f"fusion block constant {np.min(c):.3g} is not "
                           f"above {cut:.3g}: a reduced basis vector is null")
    scale = 1.0 / np.sqrt(c)
    section, project = S * scale, SG * scale[:, None]
    # project*.project is G once S spans it, so its top eigenvalue is G's
    bound = DEFAULT_TOL * max(operator_norm(project) ** 2, 1.0)
    miss = project.conj().T @ project
    miss -= G
    del G
    if norm_exceeds(miss, bound):
        raise RuntimeError(f"fusion Gram residual {operator_norm(miss):.3g} "
                           f"exceeds {bound:.3g}: the reduced quotient does "
                           f"not span the Gram matrix")
    M, P = H.left_algebra, K.right_algebra
    table = tuple(tuple(sum(h * k for h, k in zip(row, col)) for col in zip(*K.multiplicities))
                  for row in H.multiplicities)
    # compressed generating units less the fused ones, 1 at their index
    # data, one side at a time
    for factor, side, other in ((H, "left", K.dim), (K, "right", H.dim)):
        off = project @ _generators_on_section(factor, side, section, other)
        off[table_units(M, P, table, side, generators=True)] -= 1.0
        if norm_exceeds(off, bound):
            raise RuntimeError(f"fusion compression residual {max_operator_norm(off):.3g} "
                               f"exceeds {bound:.3g}: the reduced basis is not in the "
                               f"fused basis order")
        del off
    corr = Correspondence._lawful(M, P, table_dim(M, P, table), table=table,
                                  name=f"({H.name}*{K.name})" if H.name and K.name else "")
    return FusionResult(corr=corr, project=project, section=section,
                        left_factor=H, right_factor=K)


def left_unitor(K: Correspondence, std_M: StandardFormData,
                fusion: FusionResult | None = None) -> Intertwiner:
    """The intertwiner L2(M) fused with K -> K, Lambda(x) (x) zeta -> x.zeta.

    Block u of its ambient matrix is K.pi_l of Lambda^{-1} of basis vector
    u, all blocks one K.unit_sum.  fusion, if given, must fuse L2(M) with K.
    """
    if fusion is None:
        fusion = connes_fusion(identity_correspondence(std_M), K, std_M)
    elif not fusion.fuses(identity_correspondence(std_M), K):
        raise ValueError("fusion data does not match the unitor factors")
    A = K.unit_sum("left", std_M.lam_inv.T).transpose(1, 0, 2)
    return Intertwiner(fusion.corr, K, A.reshape(K.dim, std_M.dim * K.dim) @ fusion.section)


def right_unitor(H: Correspondence, std_N: StandardFormData,
                 fusion: FusionResult | None = None) -> Intertwiner:
    """The intertwiner H fused with L2(N) -> H.

    An elementary tensor eta (x) Lambda(y) lands on eta acted on the right
    by the modular twist of y; when the state is tracial the twist is the
    identity and the map reduces to eta (x) Lambda(y) -> eta . y.  fusion,
    if given, must fuse H with L2(N).
    """
    if fusion is None:
        fusion = connes_fusion(H, identity_correspondence(std_N), std_N)
    elif not fusion.fuses(H, identity_correspondence(std_N)):
        raise ValueError("fusion data does not match the unitor factors")
    # column a * n + v is column a of H.pi_r(twist of Lambda^{-1}(e_v))
    twists = std_N.delta_minus_half @ std_N.lam_inv
    A = H.unit_sum("right", twists.T).transpose(1, 2, 0)
    return Intertwiner(fusion.corr, H, A.reshape(H.dim, H.dim * std_N.dim) @ fusion.section)


def associator(f_ab: FusionResult, f_ab_c: FusionResult,
               f_bc: FusionResult, f_a_bc: FusionResult) -> Intertwiner:
    """The rebracketing intertwiner (H * K) * L -> H * (K * L).

    Quotient representatives are rebracketed in the ambient triple tensor
    and re-projected; the four fusion results must share their factors
    (correspondences_close).
    """
    if not correspondences_close(f_bc.left_factor, f_ab.right_factor):
        raise ValueError("inner factors disagree")
    if not f_ab_c.fuses(f_ab.corr, f_bc.right_factor):
        raise ValueError("left-bracketed fusion does not match")
    if not f_a_bc.fuses(f_ab.left_factor, f_bc.corr):
        raise ValueError("right-bracketed fusion does not match")
    dH, dL = f_ab.left_dim, f_bc.right_dim
    rebracketed = kron_sandwich(None, f_ab.section, dL, f_ab_c.section)
    mat = kron_sandwich(f_a_bc.project, dH, f_bc.project, rebracketed)
    return Intertwiner(f_ab_c.corr, f_a_bc.corr, mat)


def twisted_balancing_residual(fus: FusionResult, std_N: StandardFormData,
                               rng, samples: int = 100) -> float:
    """Worst deviation of the twisted middle-slide identities on samples.

    Sliding a middle-algebra element across the fusion sign picks up a
    modular twist: eta.n (x) zeta matches eta (x) twist_+(n).zeta, and
    eta (x) n.zeta matches twist_-(n).eta (x) zeta.  The samples are drawn
    one (eta, zeta, n) at a time and then evaluated as one stack; fewer
    than one sample is a ValueError, as it would check nothing.
    """
    if samples < 1:
        raise ValueError(f"balancing needs at least one sample, not {samples}")
    H, K, N = fus.left_factor, fus.right_factor, std_N.algebra
    draws = [(rng.standard_normal(H.dim) + 1j * rng.standard_normal(H.dim),
              rng.standard_normal(K.dim) + 1j * rng.standard_normal(K.dim),
              N.random_element(rng)[N.unit_positions]) for _ in range(samples)]
    eta, zeta, n = (np.stack(x) for x in zip(*draws))
    plus, minus = std_N.delta_half, std_N.delta_minus_half

    def act(X, side, coords, vecs):
        return (X.unit_sum(side, coords) @ vecs[:, :, None])[:, :, 0]

    v = fus.pure(act(H, "right", n, eta), zeta) \
        - fus.pure(eta, act(K, "left", n @ plus.T, zeta))
    w = fus.pure(eta, act(K, "left", n, zeta)) \
        - fus.pure(act(H, "right", n @ minus.T, eta), zeta)
    return float(np.max(np.linalg.norm(np.concatenate([v, w]), axis=1)))
