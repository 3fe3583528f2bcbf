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

from ..exact import IntegerMatrix, cokernel, invert_group_map
from .base import FiniteRing, combine_matrices
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


def _pairing_matrices(P: Bimodule, F: list[IntegerMatrix],
                      E: EndomorphismRing) -> tuple[IntegerMatrix, IntegerMatrix]:
    """Evaluation and coevaluation on elementary tensors of generators.

    F lists the dual's generator maps P -> S.  The first matrix sends
    f_a (x) p_j to f_a(p_j) in S coordinates, the second sends
    p_i (x) f_a to the endomorphism p -> p_i . f_a(p) in End coordinates.
    """
    S = P.right_ring
    ev_cols = [list(S.additive.reduce(Fa.column(j)))
               for Fa in F for j in range(P.rank)]
    co_cols = []
    for i in range(P.rank):
        # column l of R_i is p_i . s_l, so p -> p_i . f_a(p) is R_i @ F_a
        R_i = IntegerMatrix.from_columns([rho.column(i) for rho in P.right_action], P.rank)
        for Fa in F:
            op_matrix = P.carrier.reduce_columns(R_i @ Fa)
            co_cols.append(list(E.coordinates_of(op_matrix)))
    return (IntegerMatrix.from_columns(ev_cols, S.rank),
            IntegerMatrix.from_columns(co_cols, E.ring.rank))


def morita_context(P: Bimodule) -> MoritaContext:
    """Context of P as a right module; the given left structure is ignored."""
    S = P.right_ring
    E = endomorphism_ring(P, side="right")
    X = E.hom.generator_matrices()
    P_up = Bimodule(E.ring, S, P.carrier, tuple(X), P.right_action,
                    name=P.name)

    Sreg = regular_bimodule(S)
    H = hom_group(P_up, Sreg, side="right")
    F = H.generator_matrices()
    r = H.rank
    lam = []
    for g in range(S.rank):
        gen = tuple(1 if i == g else 0 for i in range(S.rank))
        L = S.left_mult_matrix(gen)
        cols = [list(H.coordinates(L @ F[a])) for a in range(r)]
        lam.append(IntegerMatrix.from_columns(cols, r))
    rho = []
    for b in range(E.ring.rank):
        cols = [list(H.coordinates(F[a] @ X[b])) for a in range(r)]
        rho.append(IntegerMatrix.from_columns(cols, r))
    P_star = Bimodule(S, E.ring, H.group, tuple(lam), tuple(rho),
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
    tfs = list(f.target.carrier.invariant_factors)
    group, _ = cokernel(f.matrix, tfs)
    if group.order != 1:
        return PropertyCertificate(False, obstruction=group.invariant_factors)
    pres = []
    for g in range(f.target.rank):
        e = [1 if i == g else 0 for i in range(f.target.rank)]
        pres.append(f.preimage(e))
    return PropertyCertificate(True, preimages=pres)


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
    R = P.left_ring
    cols = [list(ctx.end.coordinates_of(P.left_action[l]))
            for l in range(R.rank)]
    return IntegerMatrix.from_columns(cols, ctx.end.ring.rank)


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
    emods = list(E.ring.additive.invariant_factors)
    if R.order != E.ring.order:
        return MoritaCertificate(
            P, False, context=ctx,
            reason="left ring order differs from the endomorphism ring")
    cgroup, _ = cokernel(cmat, emods)
    if cgroup.order != 1:
        return MoritaCertificate(
            P, False, context=ctx,
            reason="canonical map to the endomorphism ring is not onto")
    cinv = invert_group_map(cmat, R.additive, E.ring.additive)

    # Q = P* with the right End-action pulled back along the canonical map
    Q_star = ctx.dual
    rho_R = []
    for g in range(R.rank):
        coeffs = cmat.column(g)
        rho_R.append(combine_matrices(Q_star.right_action, coeffs))
    Q = Bimodule(S, R, Q_star.carrier, Q_star.left_action, tuple(rho_R),
                 name=Q_star.name)

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
