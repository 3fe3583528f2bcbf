"""Independent brute-force oracles used by the test suite.

Everything on the ring side avoids the library's Smith-normal-form path:
quotients are computed by enumerating finite ambient groups and
reconstructing invariant factors from element-order counts, and
determinants by fraction-free elimination.  The dense Smith elimination
and the dense relation stacks the library used before it went sparse
are kept here as the references its sparse rows must reproduce.  On the analytic side the
modular data of a standard form come from a numerical polar
decomposition of S, the reference for the library's closed form, the
maps ξ -> x.ξ.y from the broadcasts, Kronecker products and stacked
products the library's one gather replaced, fusion Gram matrices pair by
pair, fused actions compressed unit by unit, the witness residual and
the unitors as products and contractions with the unit stacks, the
conjugate as the entrywise conjugate of the stacks, the correspondence
of a *-homomorphism as L² densely compressed to the range of ρ(1), the
balancing samples drawn one at a time, and subspaces are compared
through fresh orthonormal bases.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

import numpy as np

from moritalab.errors import Singular
from moritalab.exact import IntegerMatrix, SmithDecomposition
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
from moritalab.wstar.algebras import isotypic_frames
from moritalab.wstar.correspondences import _unit_blocks


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


def looped_balancing_draws(dH, dK, N, rng, samples):
    """The balancing samples (eta, zeta, n), drawn one sample at a time with
    n through N.random_element, as twisted_balancing_residual drew them
    before it took one draw for all."""
    draws = [(rng.standard_normal(dH) + 1j * rng.standard_normal(dH),
              rng.standard_normal(dK) + 1j * rng.standard_normal(dK),
              N.random_element(rng)[N.unit_positions]) for _ in range(samples)]
    return tuple(np.stack(x) for x in zip(*draws))


def compressed_units(fus):
    """Every unit of either factor compressed onto the quotient, the fused
    actions as connes_fusion formed them before it built the block
    correspondence: project.(U (x) 1).section and project.(1 (x) V).section."""
    H, K = fus.left_factor, fus.right_factor
    return (kron_sandwich(fus.project, H.pi_l_units, K.dim, fus.section),
            kron_sandwich(fus.project, H.dim, K.pi_r_units, fus.section))


@dataclass
class DenseFusion:
    """What the dense reference fusion measures: project, section, the block
    constants c, the Gram residual matrix project*.project - G, its bound,
    and per side the compressed generating units less the fused ones."""

    project: np.ndarray
    section: np.ndarray
    c: np.ndarray
    miss: np.ndarray
    bound: float
    compressed: tuple[np.ndarray, np.ndarray]


def dense_fusion(H, K, std) -> DenseFusion:
    """connes_fusion formed densely, as it was before it fused by
    components, with its gates measured, not applied: the ambient Gram
    matrix contracted with K's left stack, S from the frames, and each
    side's (generators, ambient, fused) stack of generating units applied
    to section, Kronecker factors by reshaping."""
    from moritalab.wstar.algebras import table_units
    from moritalab.wstar.fusion import _creation_operators

    R = _creation_operators(H, std)
    coef = (R @ std.cyclic_vector()) @ (R.conj() @ std.lam_inv.T)
    ambient = H.dim * K.dim
    G = np.tensordot(coef, K.pi_l_units, 1).transpose(0, 2, 1, 3).reshape(ambient, ambient)
    ns, ps = H.right_algebra.block_sizes, K.right_algebra.block_sizes
    Xs = [[F[:, :, ::n].transpose(1, 0, 2)[:, None, :, None, :, None]
           for F, n in zip(row, ns)] for row in H.frames]
    Ys = [[F[:, :, :p].transpose(1, 0, 2)[None, :, None, :, None, :]
           for F, p in zip(row, ps)] for row in K.frames]
    S = np.concatenate([xy.reshape(ambient, np.prod(xy.shape[2:], dtype=int))
                        for xy in (X * Ys[b][d] for row in Xs for d in range(len(ps))
                                   for b, X in enumerate(row))], axis=1)
    SG = (S.conj().T @ (np.conjugate(G.T) + G)) * 0.5
    c = np.einsum("ji,ij->j", SG, S).real
    scale = 1.0 / np.sqrt(c)
    section, project = S * scale, SG * scale[:, None]
    bound = DEFAULT_TOL * max(operator_norm(project) ** 2, 1.0)
    miss = project.conj().T @ project - G
    M, P = H.left_algebra, K.right_algebra
    table = tuple(tuple(sum(h * k for h, k in zip(row, col)) for col in zip(*K.multiplicities))
                  for row in H.multiplicities)
    compressed = []
    for side, A in (("left", M), ("right", P)):
        gens = (H.pi_l_units[M.generator_units] if side == "left"
                else K.pi_r_units[P.generator_units])
        moved = kron_sandwich(None, gens, K.dim, section) if side == "left" \
            else kron_sandwich(None, H.dim, gens, section)
        off = project @ moved
        off[table_units(M, P, table, side, generators=True)] -= 1.0
        compressed.append(off)
    return DenseFusion(project, section, c, miss, bound, tuple(compressed))


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


# ------------------------------------ correspondences read off unchecked stacks

def unchecked_correspondence(A, B, dim, pi_l, pi_r, name=""):
    """An (A, B) Correspondence read off the stacks pi_l and pi_r as the
    constructor reads checked input, its table the isotypic frame counts
    and its frame those frames in the table's basis order, with no law and
    no frame gated: for corrupted actions the public constructor would
    refuse, whose corruption the readers then meet in the frame."""
    lefts, rights = (np.asarray(units, dtype=np.complex128) for units in (pi_l, pi_r))
    frames = [[isotypic_frames(L[:, 0], R[0]) for R in _unit_blocks(B, rights)]
              for L in _unit_blocks(A, lefts)]
    W = np.concatenate([F.transpose(1, 0, 2).reshape(dim, F.shape[0] * F.shape[2])
                        for row in frames for F in row], axis=1)
    assert W.shape == (dim, dim), "the frames do not fill the space"
    H = Correspondence._lawful(A, B, tuple(tuple(len(F) for F in row) for row in frames), name)
    W.flags.writeable = False
    vars(H)["frame"] = W
    return H


def dense_conjugate(H):
    """H's conjugate entrywise, in H's basis: the left action of n is
    conj(pi_r(n*)) and the right action of m conj(pi_l(m*)), both read off
    H's stacks."""
    A, B = H.left_algebra, H.right_algebra
    return unchecked_correspondence(B, A, H.dim, np.conj(H.pi_r_units[B.adjoint_order]),
                                    np.conj(H.pi_l_units[A.adjoint_order]),
                                    f"conj({H.name})" if H.name else "")



def dense_homomorphism_correspondence(rho_units, source, N):
    """L²(N)·ρ(1) for a *-homomorphism ρ: source -> N, built densely and
    read through the checked constructor: the range Q of ξ -> ξ.ρ(1) on
    L²(N)'s matrix units, N acting by left multiplication and source by
    ξ -> ξ.ρ(y), both compressed to Q."""
    rows, cols = N.unit_positions
    # entry (s, t) of ξ -> ξ.y is [r_s = r_t].y[c_t, c_s]
    right = np.asarray(rho_units, dtype=np.complex128)[:, cols, cols[:, None]] \
        * (rows[:, None] == rows)
    Q = orthonormal_columns(sum(right[source.unit_index(b, i, i)]
                                for b, n in enumerate(source.block_sizes)
                                for i in range(n)))
    lefts = broadcast_regular_units(N)[0]
    return Correspondence(N, source, Q.shape[1], Q.conj().T @ lefts @ Q,
                          Q.conj().T @ right @ Q)

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


# The dense relation stacks the tensor and hom builders read before they
# took the nonzeros of each column (rings.base.kron_difference_columns).
def kron_differences(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X[g] (x) 1 - 1 (x) Y[g] for every g, as one (k, a b, a b) array.

    X is (k, a, a) and Y is (k, b, b), both exact (object dtype); row and
    column (i, j) sit at i * b + j, the pair index of ``kron``.
    """
    k, a, b = len(X), X.shape[1], Y.shape[1]
    D = np.zeros((k, a, b, a, b), dtype=object)
    # D[g, i, j, i', j'] = X[g, i, i'] [j = j'] - [i = i'] Y[g, j, j']
    D[:, :, np.arange(b), :, np.arange(b)] = X
    D[:, np.arange(a), :, np.arange(a), :] -= Y
    return D.reshape(k, a * b, a * b)


# The Smith normal form on dense Python lists, as the library computed it
# before its rows went sparse: the reference the sparse elimination must
# match entry for entry, kept verbatim.
def dense_smith_normal_form(A: IntegerMatrix, track_V: bool = True,
                      track_U_inv: bool = True) -> SmithDecomposition:
    """Smith normal form with tracked transforms and the inverse of U.

    The diagonal of D is nonnegative and satisfies d_1 | d_2 | ... with
    zeros last.  Pivot choice is the smallest nonzero absolute value in
    the trailing submatrix, ties broken by the lowest (row, col), which
    makes the output deterministic.  A matrix already in Smith form is
    returned with U = V = I.  A caller that never reads V or U_inv can
    skip tracking it, and gets None in its place.

    The last pivot is a floor (1 at the start): after step t every entry
    of the trailing block is a multiple of p_t, since the divisibility
    scan has just shown it or p_t equals the previous floor, and each
    operation of the step (swaps, the negation, subtracting multiples of
    a row or column of multiples of p_t) keeps that.  So the search stops
    at the first entry equal to the floor in row-major order, the one the
    full search picks, and a pivot equal to the floor skips the scan,
    which would find nothing: the operations, and U, D, V and U^-1, stay.
    """
    m, n = A.rows, A.cols
    D = A.array.tolist()
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    # U_inv and V are kept transposed, so a column operation on either is
    # one row update; an untracked one is an empty list and never touched
    UinvT = [[1 if i == j else 0 for j in range(m)] for i in range(m)] if track_U_inv else []
    VT = [[1 if i == j else 0 for j in range(n)] for i in range(n)] if track_V else []

    def add_row(rows: list[list[int]], j: int, i: int, q: int) -> None:
        # rows[j] += q * rows[i]
        if rows:
            rows[j] = [a + q * b for a, b in zip(rows[j], rows[i])]

    def swap_rows(rows: list[list[int]], i: int, j: int) -> None:
        if rows:
            rows[i], rows[j] = rows[j], rows[i]

    def row_sub(i: int, j: int, q: int) -> None:
        # row_i -= q * row_j; inverse transform gains column_j += q * column_i
        if not q:
            return
        Di, Dj = D[i], D[j]
        for c in range(n):
            Di[c] -= q * Dj[c]
        Ui, Uj = U[i], U[j]
        for c in range(m):
            Ui[c] -= q * Uj[c]
        add_row(UinvT, j, i, q)

    def col_sub(j: int, q: int) -> None:
        # col_j -= q * col_t; only called once the row pass has cleared
        # column t below the pivot, and rows above t are zero from column t
        # on, so D changes in row t alone
        if q:
            D[t][j] -= q * D[t][t]
            add_row(VT, j, t, -q)

    def row_swap(i: int, j: int) -> None:
        if i == j:
            return
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]
        swap_rows(UinvT, i, j)

    def col_swap(j: int) -> None:
        # rows above t are zero in both columns
        if j == t:
            return
        for r in range(t, m):
            D[r][t], D[r][j] = D[r][j], D[r][t]
        swap_rows(VT, t, j)

    def row_negate(i: int) -> None:
        D[i] = [-v for v in D[i]]
        U[i] = [-v for v in U[i]]
        if UinvT:
            UinvT[i] = [-v for v in UinvT[i]]

    t = 0
    bound = min(m, n)
    floor = 1  # every entry of the trailing block is a multiple of floor
    while t < bound:
        best = None
        for i in range(t, m):
            row = D[i]
            for j in range(t, n):
                v = row[j]
                if v:
                    a = -v if v < 0 else v
                    if best is None or a < best[0]:
                        best = (a, i, j)
                        if a == floor:
                            break
            if best is not None and best[0] == floor:
                break
        if best is None:
            break
        row_swap(t, best[1])
        col_swap(best[2])
        if D[t][t] < 0:
            row_negate(t)

        while True:
            restarted = False
            for i in range(t + 1, m):
                v = D[i][t]
                if v:
                    row_sub(i, t, v // D[t][t])
                    if D[i][t]:
                        row_swap(t, i)  # remainder is a strictly smaller pivot
                        restarted = True
                        break
            if restarted:
                continue
            for j in range(t + 1, n):
                v = D[t][j]
                if v:
                    col_sub(j, v // D[t][t])
                    if D[t][j]:
                        col_swap(j)
                        restarted = True
                        break
            if restarted:
                continue
            p = D[t][t]
            offender = None
            if p != floor:
                for i in range(t + 1, m):
                    row = D[i]
                    for j in range(t + 1, n):
                        if row[j] % p:
                            offender = i
                            break
                    if offender is not None:
                        break
            if offender is None:
                break
            row_sub(t, offender, -1)  # fold the offending row in, shrink the pivot gcd
        floor = D[t][t]
        t += 1

    def wrap(lists: list[list[int]], rows: int, cols: int) -> IntegerMatrix:
        return IntegerMatrix.adopt(np.array(lists, dtype=object).reshape(rows, cols))

    def untranspose(lists: list[list[int]], size: int, tracked: bool) -> IntegerMatrix | None:
        return IntegerMatrix.adopt(wrap(lists, size, size).array.T) if tracked else None

    return SmithDecomposition(wrap(U, m, m), wrap(D, m, n), untranspose(VT, n, track_V),
                              untranspose(UinvT, m, track_U_inv))
