"""Morita contexts and certification of invertible bimodules.

For a right S-module P the context packages P upgraded to a left module
over E = End_S(P), the dual P* = Hom_S(P, S), and the two pairings

    alpha : P* (x)_E P -> S,   f (x) p -> f(p)
    beta  : P (x)_S P* -> E,   p (x) f -> (p' -> p . f(p'))

P is a generator iff alpha is onto, finitely generated projective iff
beta is onto, and an (R, S)-bimodule P is invertible precisely when P is
a progenerator on the right and the canonical map R -> E is bijective;
the certificate carries explicit isomorphisms P (x) Q -> R, Q (x) P -> S.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import NoSolution
from ..exact import IntegerMatrix, cokernel, invert_group_map, moduli_column, solve_congruences
from .base import FiniteRing
from .bimodules import BOTH_SIDES, Bimodule, BimoduleMap, regular_bimodule
from .hom import EndomorphismRing, HomGroup, endomorphism_ring, hom_group
from .tensor import TensorProduct, factor_through_tensor, tensor_product


@dataclass
class MoritaContext:
    """(S, P, P*, End_S(P); alpha, beta) for a right S-module P."""

    ground_ring: FiniteRing      # S
    module: Bimodule             # P as an (End, S)-bimodule
    dual: Bimodule               # P* as an (S, End)-bimodule
    end: EndomorphismRing
    dual_hom: HomGroup           # Hom_S(P, S) backing the dual's coordinates
    tensor_alpha: TensorProduct  # P* (x)_End P
    tensor_beta: TensorProduct   # P (x)_S P*
    alpha: BimoduleMap           # -> S regular
    beta: BimoduleMap            # -> End regular
    ev: IntegerMatrix            # f (x) p -> f(p) on generator pairs
    co: IntegerMatrix            # p (x) f -> (p' -> p . f(p')) on generator pairs


def _pairing_matrices(P: Bimodule, F: np.ndarray,
                      E: EndomorphismRing) -> tuple[IntegerMatrix, IntegerMatrix]:
    """Evaluation and coevaluation on elementary tensors of generators.

    F stacks the dual's generator maps P -> S.  The first matrix sends
    f_a (x) p_j to f_a(p_j) in S coordinates, the second sends
    p_i (x) f_a to the endomorphism p -> p_i . f_a(p) in End coordinates.
    """
    S, h, n = P.right_ring, len(F), P.rank
    ev = IntegerMatrix.adopt(F.transpose(1, 0, 2).reshape(S.rank, h * n))
    # column l of R_i is p_i . s_l, so p -> p_i . f_a(p) is R_i @ F_a, at column (i, a)
    R = P.right_action.transpose(2, 1, 0)
    ops = (R[:, None] @ F[None]) % moduli_column(P.carrier.invariant_factors)
    return S.additive.reduce_columns(ev), E.hom.coordinates(ops.reshape(n * h, n, n))


def morita_context(P: Bimodule) -> MoritaContext:
    """Context of P as a right module; the given left structure is ignored."""
    S = P.right_ring
    E = endomorphism_ring(P, side="right")
    X = E.hom.generator_stack()
    P_up = Bimodule._lawful(E.ring, S, P.carrier, X, P.right_action, name=P.name)

    Sreg = regular_bimodule(S)
    H = hom_group(P_up, Sreg, side="right")
    F = H.generator_stack()
    h, n = len(F), P.rank
    L = Sreg.left_action

    def action(images: np.ndarray) -> np.ndarray:
        # images[g, a] is generator g acting on f_a; its coordinates are column a
        k = len(images)
        C = H.coordinates(images.reshape(k * h, S.rank, n)).array
        return C.reshape(h, k, h).transpose(1, 0, 2)

    # s . f = L_s @ f and f . x = f @ X_x, in the dual's coordinates
    P_star = Bimodule._lawful(S, E.ring, H.group, action(L[:, None] @ F[None]),
                              action(F[None] @ X[:, None]),
                              name=f"({P.name})*" if P.name else "")

    ev, co = _pairing_matrices(P, F, E)
    T_alpha = tensor_product(P_star, P_up)
    alpha = factor_through_tensor(T_alpha, ev, Sreg, BOTH_SIDES)
    T_beta = tensor_product(P_up, P_star)
    beta = factor_through_tensor(T_beta, co, regular_bimodule(E.ring),
                                 BOTH_SIDES)

    return MoritaContext(S, P_up, P_star, E, H, T_alpha, T_beta, alpha, beta,
                         ev, co)


@dataclass
class PropertyCertificate:
    """Outcome of a generator/projectivity test with preimage witnesses."""

    holds: bool
    preimages: list[tuple[int, ...]] = field(default_factory=list)
    obstruction: tuple[int, ...] = ()


def _surjectivity_certificate(f: BimoduleMap) -> PropertyCertificate:
    tfs = f.target.carrier.invariant_factors
    try:  # preimages of all target generators on one factorization
        X = solve_congruences(f.matrix, tfs,
                              IntegerMatrix.identity(f.target.rank)).particular
    except NoSolution:
        group, _ = cokernel(f.matrix, tfs)
        return PropertyCertificate(False, obstruction=group.invariant_factors)
    pres = f.source.carrier.reduce_columns(X).columns()
    return PropertyCertificate(True, preimages=[tuple(p) for p in pres])


def is_generator(P: Bimodule, ctx: MoritaContext | None = None) -> PropertyCertificate:
    """alpha onto S; witnesses are tensor-coordinate preimages of generators."""
    ctx = ctx or morita_context(P)
    return _surjectivity_certificate(ctx.alpha)


def is_fg_projective(P: Bimodule, ctx: MoritaContext | None = None) -> PropertyCertificate:
    """beta onto End; equivalently the identity has a dual basis expansion."""
    ctx = ctx or morita_context(P)
    return _surjectivity_certificate(ctx.beta)


def is_progenerator(P: Bimodule, ctx: MoritaContext | None = None) -> PropertyCertificate:
    ctx = ctx or morita_context(P)
    gen = is_generator(P, ctx)
    if not gen.holds:
        return gen
    proj = is_fg_projective(P, ctx)
    if not proj.holds:
        return proj
    return PropertyCertificate(True, preimages=gen.preimages + proj.preimages)


def canonical_end_map(P: Bimodule, ctx: MoritaContext) -> IntegerMatrix:
    """Left-ring coordinates -> End coordinates, r -> (p -> r.p)."""
    return ctx.end.hom.coordinates(P.left_action)


@dataclass
class MoritaCertificate:
    """Outcome of certifying that P is an invertible (R, S)-bimodule."""

    module: Bimodule
    equivalent: bool
    reason: str = ""
    context: MoritaContext | None = None
    inverse: Bimodule | None = None
    tensor_to_left: TensorProduct | None = None   # P (x)_S Q
    tensor_to_right: TensorProduct | None = None  # Q (x)_R P
    iso_to_left: BimoduleMap | None = None        # P (x) Q -> R
    iso_to_right: BimoduleMap | None = None       # Q (x) P -> S

    @property
    def refuted(self) -> bool:
        return not self.equivalent


def certify_invertible_bimodule(P: Bimodule) -> MoritaCertificate:
    """Decide whether P implements an equivalence between its two rings."""
    if P.rank == 0:
        return MoritaCertificate(P, False, reason="zero module")
    ctx = morita_context(P)
    gen = is_generator(P, ctx)
    if not gen.holds:
        return MoritaCertificate(
            P, False, context=ctx,
            reason=f"evaluation not onto, trace quotient {gen.obstruction}")
    proj = is_fg_projective(P, ctx)
    if not proj.holds:
        return MoritaCertificate(
            P, False, context=ctx,
            reason="coevaluation not onto the endomorphism ring")

    R = P.left_ring
    S = P.right_ring
    E = ctx.end
    cmat = canonical_end_map(P, ctx)
    if R.order != E.ring.order:
        return MoritaCertificate(
            P, False, context=ctx,
            reason="left ring order differs from the endomorphism ring")
    try:  # onto between groups of one order, so bijective
        cinv = invert_group_map(cmat, R.additive, E.ring.additive)
    except NoSolution:
        return MoritaCertificate(
            P, False, context=ctx,
            reason="canonical map to the endomorphism ring is not onto")

    # Q = P* with the right End-action pulled back along the canonical map
    Q_star = ctx.dual
    rho_R = np.tensordot(cmat.array.T, Q_star.right_action, 1)
    Q = Bimodule._lawful(S, R, Q_star.carrier, Q_star.left_action, rho_R, name=Q_star.name)

    T_QP = tensor_product(Q, P)
    iso_right = factor_through_tensor(T_QP, ctx.ev, ctx.alpha.target, BOTH_SIDES)
    T_PQ = tensor_product(P, Q)
    to_left = R.additive.reduce_columns(cinv @ ctx.co)
    iso_left = factor_through_tensor(T_PQ, to_left, regular_bimodule(R),
                                     BOTH_SIDES)

    if not iso_right.is_bijective() or not iso_left.is_bijective():
        return MoritaCertificate(
            P, False, context=ctx, inverse=Q,
            reason="context pairings failed to invert")
    return MoritaCertificate(P, True, context=ctx, inverse=Q,
                             tensor_to_left=T_PQ, tensor_to_right=T_QP,
                             iso_to_left=iso_left, iso_to_right=iso_right)
