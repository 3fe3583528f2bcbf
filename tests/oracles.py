"""Independent brute-force oracles used by the test suite.

Everything on the ring side avoids the library's Smith-normal-form path:
quotients are computed by enumerating finite ambient groups and
reconstructing invariant factors from element-order counts, and
determinants by fraction-free elimination.  On the analytic side the
modular data of a standard form come from a numerical polar
decomposition of S, the reference for the library's closed form, the
maps ξ -> x.ξ.y from the broadcasts, Kronecker products and stacked
products the library's one gather replaced, fusion Gram matrices pair by
pair, fused actions compressed unit by unit, the witness residual and
the unitors as products and contractions with the unit stacks, the
conjugate as the entrywise conjugate of the stacks, and subspaces are
compared through fresh orthonormal bases.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

import numpy as np

from moritalab.errors import Singular
from moritalab.exact import IntegerMatrix
from moritalab.numkernel import (
    DEFAULT_TOL,
    as_complex_matrix,
    hermitian_spectrum,
    kron_sandwich,
    operator_norm,
    orthonormal_columns,
    spans_equal,
    spectral_powers,
)
from moritalab.rings.bimodules import Bimodule
from moritalab.wstar import Correspondence


def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def invariant_factors_from_counts(count_fn, order: int) -> tuple[int, ...]:
    """Reconstruct invariant factors of an abelian group of known order.

    count_fn(d) must return the number of elements x with d*x = 0.
    """
    if order == 1:
        return ()
    exps_by_prime: dict[int, list[int]] = {}
    for p in factorize(order):
        m = []
        prev = 1
        j = 1
        while True:
            c = count_fn(p ** j)
            ratio, k = c // prev, 0
            while ratio > 1:
                ratio //= p
                k += 1
            if k == 0:
                break
            m.append(k)
            prev = c
            j += 1
        ncomp = m[0] if m else 0
        exps = [sum(1 for mj in m if mj >= i) for i in range(1, ncomp + 1)]
        exps_by_prime[p] = exps
    width = max(len(v) for v in exps_by_prime.values())
    factors_desc = []
    for t in range(width):
        d = 1
        for p, exps in exps_by_prime.items():
            if t < len(exps):
                d *= p ** exps[t]
        factors_desc.append(d)
    return tuple(sorted(factors_desc))


def group_closure(moduli: tuple[int, ...], gens: set) -> frozenset:
    zero = tuple(0 for _ in moduli)
    seen = {zero}
    frontier = [zero]
    gens = list(gens)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple((a + b) % m for a, b, m in zip(x, g, moduli))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


def tensor_invariants_oracle(M: Bimodule, N: Bimodule,
                             cap: int = 1 << 13) -> tuple[int, ...]:
    """Invariant factors of M (x)_S N by full lattice enumeration."""
    S = M.right_ring
    cM = M.carrier.invariant_factors
    cN = N.carrier.invariant_factors
    moduli = tuple(gcd(cM[i], cN[j])
                   for i in range(M.rank) for j in range(N.rank))
    total = 1
    for m in moduli:
        total *= m
    if total > cap:
        raise ValueError(f"ambient too large for the oracle: {total}")

    def pure(m, n):
        return tuple((m[i] * n[j]) % moduli[i * N.rank + j]
                     for i in range(M.rank) for j in range(N.rank))

    rels = set()
    for m in M.carrier.elements():
        for s in S.elements():
            ms = M.act_right(m, s)
            for n in N.carrier.elements():
                sn = N.act_left(s, n)
                a, b = pure(ms, n), pure(m, sn)
                rels.add(tuple((x - y) % mm for x, y, mm in zip(a, b, moduli)))
    H = group_closure(moduli, rels)
    ambient = list(itertools.product(*(range(m) for m in moduli)))
    q_order = total // len(H)

    def count(d: int) -> int:
        hits = sum(1 for x in ambient
                   if tuple((d * v) % m for v, m in zip(x, moduli)) in H)
        return hits // len(H)

    return invariant_factors_from_counts(count, q_order)


def hom_count_oracle(M: Bimodule, N: Bimodule, side: str = "right") -> int:
    """Number of side-linear maps M -> N by exhaustive matrix enumeration."""
    cS = M.carrier.invariant_factors
    cT = N.carrier.invariant_factors
    nt, ns = N.rank, M.rank
    ranges = [range(cT[i]) for i in range(nt) for _ in range(ns)]
    pairs = []
    if side in ("right", "both"):
        pairs += list(zip(M.right_action, N.right_action))
    if side in ("left", "both"):
        pairs += list(zip(M.left_action, N.left_action))
    pairs = [(As.tolist(), At.tolist()) for As, At in pairs]
    count = 0
    for flat in itertools.product(*ranges):
        X = [[flat[i * ns + j] for j in range(ns)] for i in range(nt)]
        ok = all((X[i][j] * cS[j]) % cT[i] == 0
                 for i in range(nt) for j in range(ns))
        if not ok:
            continue
        for As, At in pairs:
            for i in range(nt):
                for j in range(ns):
                    lhs = sum(X[i][k] * As[k][j] for k in range(ns))
                    rhs = sum(At[i][k] * X[k][j] for k in range(nt))
                    if (lhs - rhs) % cT[i]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


# ------------------------------------------- reference law checker loops

def matrices(stack: np.ndarray) -> list[IntegerMatrix]:
    """A (k, n, n) action stack as the list of matrices the loops and ``Bimodule`` take."""
    return [IntegerMatrix.adopt(A) for A in stack]


def stacked(mats, n: int) -> np.ndarray:
    """A list of n x n matrices as one exact (k, n, n) stack, the law kernel's input."""
    return np.array([M.array for M in mats], dtype=object).reshape(len(mats), n, n)


def _matmul(A: list[list[int]], B: list[list[int]], inner: int) -> list[list[int]]:
    cols = len(B[0]) if B else 0
    return [[sum(A[a][c] * B[c][b] for c in range(inner)) for b in range(cols)]
            for a in range(len(A))]


def _congruent(A: list[list[int]], B: list[list[int]], moduli) -> bool:
    return not any((x - y) % t for ra, rb, t in zip(A, B, moduli)
                   for x, y in zip(ra, rb))


def broken_law_loop(mats, factors, ring, anti: bool = False) -> str | None:
    """The first broken law, checked one generator pair at a time.

    Plain Python integers on unreduced entries, with one matrix product per
    pair (i, j): the reference for ``moritalab.rings.base.broken_law``.
    """
    n, k = len(factors), ring.rank
    if len(mats) != k or any(M.rows != n or M.cols != n for M in mats):
        return "well shaped"
    data = [M.tolist() for M in mats]
    if any(v * s % t for A in data for row, t in zip(A, factors)
           for v, s in zip(row, factors)):
        return "well defined"
    if any(v * d % t for A, d in zip(data, ring.additive.invariant_factors)
           for row, t in zip(A, factors) for v in row):
        return "additive"

    def combo(coeffs):
        return [[sum(c * A[a][b] for c, A in zip(coeffs, data)) for b in range(n)]
                for a in range(n)]

    for i in range(k):
        for j in range(k):
            left, right = (data[j], data[i]) if anti else (data[i], data[j])
            if not _congruent(_matmul(left, right, n), combo(ring.mult[i][j]),
                              factors):
                return "anti-multiplicative" if anti else "multiplicative"
    eye = [[int(a == b) for b in range(n)] for a in range(n)]
    if not _congruent(combo(ring.unit), eye, factors):
        return "unital"
    return None


def intertwines_loop(M, src_mats, tgt_mats, moduli) -> bool:
    """M @ A = B @ M modulo the target orders, one pair (A, B) at a time."""
    return all(_congruent(_matmul(M.tolist(), A.tolist(), M.cols),
                          _matmul(B.tolist(), M.tolist(), M.rows), moduli)
               for A, B in zip(src_mats, tgt_mats))


def determinant(A: IntegerMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if A.rows != A.cols:
        raise ValueError("determinant of a non-square matrix")
    n = A.rows
    if n == 0:
        return 1
    M = A.array.tolist()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def subspaces_equal(A: np.ndarray, B: np.ndarray) -> tuple[bool, float]:
    """Same span at the fixed cutoff, and the mutual containment residual."""
    return spans_equal(orthonormal_columns(A), orthonormal_columns(B))


@dataclass(frozen=True)
class AntilinearOp:
    """v -> matrix . conj(v) in the ambient basis."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", as_complex_matrix(self.matrix))

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ np.conj(v)

    def compose_antilinear(self, other: "AntilinearOp") -> np.ndarray:
        """self . other is linear: A1 . conj(A2) as a plain matrix."""
        return self.matrix @ np.conj(other.matrix)

    def compose_linear(self, M: np.ndarray) -> "AntilinearOp":
        """self . M, still antilinear."""
        return AntilinearOp(self.matrix @ np.conj(M))


def polar_antilinear(S: AntilinearOp):
    """S = J . Delta^{1/2}, J antiunitary, Delta = S*S positive: returns
    (J, Delta, Delta^{1/2}, Delta^{-1/2}) read off one spectrum of Delta."""
    M = S.matrix
    delta = M.T @ np.conj(M)
    w, V = hermitian_spectrum(delta)
    smin, smax = np.sqrt(np.clip(w[[0, -1]], 0.0, None))
    if smin <= DEFAULT_TOL * max(1.0, smax):
        raise Singular("antilinear operator is numerically singular")
    half, minus_half = spectral_powers(w, V, (0.5, -0.5))
    return AntilinearOp(M @ np.conj(minus_half)), delta, half, minus_half


def fusion_gram(H, K, std):
    """The ambient Gram matrix of H fused with K over std's algebra, one
    block K.pi_l(n_ac) per pair (a, c) of H's basis vectors.

    n_ac = Lambda^{-1}(R_a*.R_c.Lambda(1)) for R_a the creation operator of
    basis vector a, matched on the basis J Lambda(E_u*) of L²: no stacked
    contraction and no creation_inverse of the standard form.
    """
    dH, dK = H.dim, K.dim
    V = np.stack([std.J @ np.conj(std.lam[:, u])
                  for u in std.algebra.adjoint_order], axis=1)
    V_inv = np.linalg.inv(V)
    cyc = std.cyclic_vector()
    R = [np.stack([U[:, a] for U in H.pi_r_units], axis=1) @ V_inv
         for a in range(dH)]
    G = np.zeros((dH * dK, dH * dK), dtype=np.complex128)
    for a in range(dH):
        for c in range(dH):
            n_ac = std.Lambda_inv(R[a].conj().T @ R[c] @ cyc)
            G[a * dK:(a + 1) * dK, c * dK:(c + 1) * dK] = K.pi_l(n_ac)
    return G


def compressed_units(fus):
    """Every unit of either factor compressed onto the quotient, the fused
    actions as connes_fusion formed them before it built the block
    correspondence: project.(U (x) 1).section and project.(1 (x) V).section."""
    H, K = fus.left_factor, fus.right_factor
    return (kron_sandwich(fus.project, H.pi_l_units, K.dim, fus.section),
            kron_sandwich(fus.project, H.dim, K.pi_r_units, fus.section))


# ------------------------- dense readers of the unit stacks, one unit at a time

def dense_residual(w) -> tuple[float, float]:
    """w's residual per side, (left, right): the largest |T.A_u - B_u.T|
    over the units of that side, each a product with the unit stacks and
    one SVD, in a plain loop."""
    T, H, K = w.matrix, w.source, w.target
    return tuple(max((operator_norm(T @ A - B @ T) for A, B in zip(src, tgt)), default=0.0)
                 for src, tgt in ((H.pi_l_units, K.pi_l_units), (H.pi_r_units, K.pi_r_units)))


def dense_left_unitor(K, std, fus) -> np.ndarray:
    """left_unitor's matrix as a contraction of Lambda^{-1} with K's left stack."""
    A = np.tensordot(std.lam_inv.T, K.pi_l_units, 1).transpose(1, 0, 2)
    return A.reshape(K.dim, std.dim * K.dim) @ fus.section


def dense_right_unitor(H, std, fus) -> np.ndarray:
    """right_unitor's matrix as a contraction of the modular twists of
    Lambda^{-1} with H's right stack."""
    twists = std.delta_minus_half @ std.lam_inv
    A = np.tensordot(twists.T, H.pi_r_units, 1).transpose(1, 2, 0)
    return A.reshape(H.dim, H.dim * std.dim) @ fus.section


# --------------------------------------- correspondences wrapped unchecked

def unchecked_correspondence(A, B, dim, pi_l, pi_r, name=""):
    """An (A, B) Correspondence holding the stacks pi_l and pi_r read-only,
    with no law checked and no table: a fixture for the dense readers, and
    for corrupted actions the public constructor would refuse."""
    H = object.__new__(Correspondence)
    vars(H).update(left_algebra=A, right_algebra=B, dim=dim, name=name)
    for key, units in (("pi_l_units", pi_l), ("pi_r_units", pi_r)):
        view = np.asarray(units, dtype=np.complex128).view()
        view.flags.writeable = False
        vars(H)[key] = view
    return H


def dense_conjugate(H):
    """H's conjugate entrywise, in H's basis: the left action of n is
    conj(pi_r(n*)) and the right action of m conj(pi_l(m*)), both read off
    H's stacks."""
    A, B = H.left_algebra, H.right_algebra
    return unchecked_correspondence(B, A, H.dim, np.conj(H.pi_r_units[B.adjoint_order]),
                                    np.conj(H.pi_l_units[A.adjoint_order]),
                                    f"conj({H.name})" if H.name else "")


# ------------------------------------ reference constructions of x.ξ.y maps

def broadcast_regular_units(A):
    """L²(A)'s unit stacks (left, right) by boolean broadcasts on the unit
    positions: a 1 at (v, w) of left unit u exactly when row(v) = row(u),
    row(w) = col(u) and col(v) = col(w), and of right unit u exactly when
    row(v) = row(w), col(w) = row(u) and col(v) = col(u)."""
    rows, cols = A.unit_positions
    left = ((rows[:, None, None] == rows[:, None]) & (cols[:, None, None] == rows)
            & (cols[:, None] == cols)).astype(np.complex128)
    right = ((rows[:, None] == rows) & (rows[:, None, None] == cols)
             & (cols[:, None, None] == cols[:, None])).astype(np.complex128)
    return left, right


def kron_block_units(A, B, mult):
    """block_correspondence(A, B, mult)'s unit stacks, one Kronecker product
    x (x) 1 or 1 (x) y^T (x) 1 per unit, restricted to the occupied slots."""
    copies = max(max(row) for row in mult)
    slots = np.array([((A.block_offset(b) + i) * B.dim + B.block_offset(c) + j)
                      * copies + k
                      for b, n in enumerate(A.block_sizes)
                      for c, m in enumerate(B.block_sizes)
                      for k in range(mult[b][c]) for i in range(n)
                      for j in range(m)], dtype=int)
    pick = np.ix_(slots, slots)
    pi_l = [np.kron(E, np.eye(B.dim * copies))[pick] for E in A.matrix_units()]
    pi_r = [np.kron(np.eye(A.dim), np.kron(F.T, np.eye(copies)))[pick]
            for F in B.matrix_units()]
    return np.stack(pi_l), np.stack(pi_r)


def product_lambdas(A, rho_half, rho_minus_half):
    """Λ and Λ^{-1} in coordinates, read off the stacked products E_u.ρ^{±1/2}."""
    rows, cols = A.unit_positions
    return tuple((A.unit_stack @ r)[:, rows, cols].T for r in (rho_half, rho_minus_half))


def index_modular_tables(A, rho):
    """Δ, Δ^{1/2}, Δ^{-1/2} and the creation inverse by index formulas, for
    rho a dict of the density's powers 1, 1/2, -1/2 and -1: the entry of
    Δ^s at (v, w) is rho^s[row(v), row(w)] . rho^{-s}[col(w), col(v)]."""
    rows, cols = A.unit_positions
    deltas = [rho[s][rows[:, None], rows] * rho[-s][cols, cols[:, None]]
              for s in (1.0, 0.5, -0.5)]
    inverse = np.linalg.inv(rho[0.5])[rows[:, None], rows] * (cols[:, None] == cols)
    return deltas + [inverse]


def center_basis(A) -> list[np.ndarray]:
    """The block identities of a multi-matrix algebra, which span its center."""
    return [sum(A.matrix_unit(b, i, i) for i in range(n))
            for b, n in enumerate(A.block_sizes)]


def rejection_sampled_state(A, rng: np.random.Generator, floor: float):
    """random_faithful_state's density as it was sampled before any fallback:
    up to 64 draws of a random basis with spectrum floor + e, e exponential,
    normalized by the trace; None when no draw clears the floor."""
    for _ in range(64):
        rho = np.zeros((A.dim, A.dim), dtype=np.complex128)
        for b, n in enumerate(A.block_sizes):
            off = A.block_offset(b)
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            Q, _ = np.linalg.qr(g)
            evals = floor + rng.exponential(scale=1.0, size=n)
            rho[off:off + n, off:off + n] = (Q * evals) @ Q.conj().T
        rho = rho / np.trace(rho).real
        if float(np.min(np.linalg.eigvalsh(rho))) >= floor:
            return rho
    return None
