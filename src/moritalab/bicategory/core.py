"""Instance-independent coherence checks for bicategory data.

An instance object supplies the concrete cells and operations through a
small duck-typed surface:

    dom(P), cod(P)              endpoints of a 1-cell
    identity(obj)               identity 1-cell at an object
    compose(P, Q)               composite structure; cell(c) is its 1-cell
    associator(c_ab, c_ab_c, c_bc, c_a_bc)
                                2-cell (AB)C -> A(BC) built from the four
                                composite structures
    left_unitor(c) / right_unitor(c)
                                2-cells I.P -> P and P.I -> P
    identity_2cell(P)           identity 2-cell on a 1-cell
    vcompose(g, f)              vertical composite g after f
    hcomp_left(f, c_src, c_dst) f * id on composites with a fixed right leg
    hcomp_right(c_src, c_dst, f)
                                id * f with a fixed left leg
    cells_equal(f, g)           (bool, discrepancy)
    find_iso(X, Y)              invertible 2-cell X -> Y or None
    invertible_2cell(f)         whether a 2-cell is invertible
    random_endo_2cell(P, rng)   a sampled 2-cell P -> P

compose may share structure with an earlier composite of equal content,
its arrays then read-only and shared, but the factors of what it
returns are always the caller's own P and Q: the associator finds the
composites it rebrackets by identity.

The checks run on caller-supplied tuples; passing them on sampled data is
the verification contract, with commutativity of all remaining diagrams
delegated to the general coherence theorem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..errors import NotComposable


@dataclass(frozen=True)
class CoherenceResult:
    """Outcome of one coherence check: exact or within-tolerance equality."""

    holds: bool
    discrepancy: float
    law: str

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True)
class IsoCertificate:
    """Objects isomorphic inside the bicategory, with 2-cell witnesses."""

    forward: Any
    backward: Any
    to_identity_source: Any
    to_identity_target: Any

    def swapped(self) -> "IsoCertificate":
        return IsoCertificate(self.backward, self.forward,
                              self.to_identity_target, self.to_identity_source)


@dataclass(frozen=True)
class IsoRefutation:
    """Which side of the invertibility requirement failed, and why."""

    side: str
    detail: str


def _require_composable(inst, *cells):
    for left, right in zip(cells, cells[1:]):
        if inst.cod(left) != inst.dom(right):
            raise NotComposable("consecutive 1-cells do not share an object")


def verify_pentagon(inst, P, Q, R, S) -> CoherenceResult:
    """Compare the two rebracketing routes ((PQ)R)S -> P(Q(RS))."""
    _require_composable(inst, P, Q, R, S)
    c_pq = inst.compose(P, Q)
    c_qr = inst.compose(Q, R)
    c_rs = inst.compose(R, S)
    PQ = inst.cell(c_pq)
    QR = inst.cell(c_qr)
    RS = inst.cell(c_rs)
    c_pq_r = inst.compose(PQ, R)
    c_p_qr = inst.compose(P, QR)
    c_q_rs = inst.compose(Q, RS)
    c_qr_s = inst.compose(QR, S)
    c_pqr_s = inst.compose(inst.cell(c_pq_r), S)
    c_pq_rs = inst.compose(PQ, RS)
    c_pqr_r_s = inst.compose(inst.cell(c_p_qr), S)
    c_p_qr_s = inst.compose(P, inst.cell(c_qr_s))
    c_p_q_rs = inst.compose(P, inst.cell(c_q_rs))

    # short route: two associators
    b1 = inst.associator(c_pq_r, c_pqr_s, c_rs, c_pq_rs)
    b2 = inst.associator(c_pq, c_pq_rs, c_q_rs, c_p_q_rs)
    short = inst.vcompose(b2, b1)

    # long route: associator on each bracketing with a spectator leg
    b_pqr = inst.associator(c_pq, c_pq_r, c_qr, c_p_qr)
    s1 = inst.hcomp_left(b_pqr, c_pqr_s, c_pqr_r_s)
    s2 = inst.associator(c_p_qr, c_pqr_r_s, c_qr_s, c_p_qr_s)
    b_qrs = inst.associator(c_qr, c_qr_s, c_rs, c_q_rs)
    s3 = inst.hcomp_right(c_p_qr_s, c_p_q_rs, b_qrs)
    long = inst.vcompose(s3, inst.vcompose(s2, s1))

    holds, disc = inst.cells_equal(long, short)
    return CoherenceResult(holds, disc, "pentagon")


def verify_triangle(inst, P, Q) -> CoherenceResult:
    """Compare the two ways (P.I)Q -> PQ around the inserted identity."""
    _require_composable(inst, P, Q)
    I = inst.identity(inst.cod(P))
    c_pi = inst.compose(P, I)
    c_iq = inst.compose(I, Q)
    c_pq = inst.compose(P, Q)
    c_pi_q = inst.compose(inst.cell(c_pi), Q)
    c_p_iq = inst.compose(P, inst.cell(c_iq))
    beta = inst.associator(c_pi, c_pi_q, c_iq, c_p_iq)
    r_p = inst.right_unitor(c_pi)
    l_q = inst.left_unitor(c_iq)
    direct = inst.hcomp_left(r_p, c_pi_q, c_pq)
    around = inst.vcompose(inst.hcomp_right(c_p_iq, c_pq, l_q), beta)
    holds, disc = inst.cells_equal(direct, around)
    return CoherenceResult(holds, disc, "triangle")


def verify_associator_naturality(inst, P, Q, R, rng) -> CoherenceResult:
    """Naturality of rebracketing against sampled endomorphism 2-cells."""
    _require_composable(inst, P, Q, R)
    f = inst.random_endo_2cell(P, rng)
    g = inst.random_endo_2cell(Q, rng)
    h = inst.random_endo_2cell(R, rng)
    c_pq = inst.compose(P, Q)
    c_qr = inst.compose(Q, R)
    c_pq_r = inst.compose(inst.cell(c_pq), R)
    c_p_qr = inst.compose(P, inst.cell(c_qr))
    beta = inst.associator(c_pq, c_pq_r, c_qr, c_p_qr)

    fg = inst.vcompose(inst.hcomp_left(f, c_pq, c_pq),
                       inst.hcomp_right(c_pq, c_pq, g))
    fg_h = inst.vcompose(inst.hcomp_left(fg, c_pq_r, c_pq_r),
                         inst.hcomp_right(c_pq_r, c_pq_r, h))
    gh = inst.vcompose(inst.hcomp_left(g, c_qr, c_qr),
                       inst.hcomp_right(c_qr, c_qr, h))
    f_gh = inst.vcompose(inst.hcomp_left(f, c_p_qr, c_p_qr),
                         inst.hcomp_right(c_p_qr, c_p_qr, gh))

    holds, disc = inst.cells_equal(inst.vcompose(beta, fg_h),
                                   inst.vcompose(f_gh, beta))
    return CoherenceResult(holds, disc, "associator naturality")


def verify_unitor_naturality(inst, P, rng) -> CoherenceResult:
    """Naturality of both unitors against a sampled endomorphism 2-cell."""
    f = inst.random_endo_2cell(P, rng)
    I_l = inst.identity(inst.dom(P))
    I_r = inst.identity(inst.cod(P))
    c_ip = inst.compose(I_l, P)
    c_pi = inst.compose(P, I_r)
    lu = inst.left_unitor(c_ip)
    ru = inst.right_unitor(c_pi)
    lhs = inst.vcompose(f, lu)
    rhs = inst.vcompose(lu, inst.hcomp_right(c_ip, c_ip, f))
    ok_l, d_l = inst.cells_equal(lhs, rhs)
    lhs = inst.vcompose(f, ru)
    rhs = inst.vcompose(ru, inst.hcomp_left(f, c_pi, c_pi))
    ok_r, d_r = inst.cells_equal(lhs, rhs)
    return CoherenceResult(ok_l and ok_r, max(d_l, d_r), "unitor naturality")


def certify_object_isomorphism(inst, A, B, candidate, inverse_candidate):
    """Decide isomorphism of A and B witnessed by the given 1-cell pair.

    Total: malformed input refutes rather than raising.
    """
    if inst.dom(candidate) != A or inst.cod(candidate) != B:
        return IsoRefutation("forward", "candidate does not run from A to B")
    if inst.dom(inverse_candidate) != B or inst.cod(inverse_candidate) != A:
        return IsoRefutation("backward",
                             "inverse candidate does not run from B to A")
    c_fwd = inst.compose(candidate, inverse_candidate)
    u_src = inst.find_iso(inst.cell(c_fwd), inst.identity(A))
    if u_src is None or not inst.invertible_2cell(u_src):
        return IsoRefutation(
            "forward", "composite with the inverse candidate is not "
            "2-isomorphic to the identity 1-cell of A")
    c_bwd = inst.compose(inverse_candidate, candidate)
    u_tgt = inst.find_iso(inst.cell(c_bwd), inst.identity(B))
    if u_tgt is None or not inst.invertible_2cell(u_tgt):
        return IsoRefutation(
            "backward", "composite with the candidate is not 2-isomorphic "
            "to the identity 1-cell of B")
    return IsoCertificate(candidate, inverse_candidate, u_src, u_tgt)
