"""Backtracking search for isomorphisms between finite rings.

The search assigns images to additive generators one at a time.  Products
among already-assigned generators impose congruences that are linear in
the next unknown image, so each level is a congruence solve followed by
enumeration of a (usually small) solution coset; self-products stay
nonlinear and are applied as filters.  Candidate pools that cannot be cut
down linearly (the first level, typically) are filtered with vectorized
element tables.
"""

from __future__ import annotations

import numpy as np

from ..errors import NoSolution, SearchBudgetExceeded
from ..exact import (
    IntegerMatrix,
    cokernel,
    invert_group_map,
    moduli_column,
    solve_congruences,
)
from .base import FiniteRing, is_group_map

NODE_CAP = 200_000
COSET_CAP = 1 << 14


def is_ring_isomorphism(A: FiniteRing, B: FiniteRing, T: IntegerMatrix) -> bool:
    """Full independent check that T (A coords -> B coords) is a ring iso."""
    if A.additive != B.additive:
        return False
    if not is_group_map(T, A.additive.invariant_factors, B.additive.invariant_factors):
        return False
    t, f = T.array, np.array(B.additive.invariant_factors, dtype=object)
    # T(e_i) T(e_j) - T(e_i e_j) at (i, j, l), and T(1) - 1, modulo B's factors
    products = np.tensordot(np.tensordot(t, B.table, axes=(0, 0)), t, axes=(1, 0))
    if ((products.transpose(0, 2, 1) - A.table @ t.T) % f).any():
        return False
    if ((t @ np.array(A.unit, dtype=object) - np.array(B.unit, dtype=object)) % f).any():
        return False
    group, _ = cokernel(T, list(B.additive.invariant_factors))
    return group.order == 1


def _element_table(factors: tuple[int, ...]) -> np.ndarray:
    N = 1
    for d in factors:
        N *= d
    k = len(factors)
    coords = np.empty((N, k), dtype=np.int64)
    rem = np.arange(N, dtype=np.int64)
    for i in range(k - 1, -1, -1):
        coords[:, i] = rem % factors[i]
        rem //= factors[i]
    return coords


def _square_table(X: np.ndarray, ring: FiniteRing) -> np.ndarray:
    k = ring.rank
    table = ring.table.astype(np.int64)  # entries below the exponent of an enumerable ring
    acc = np.zeros_like(X)
    for i in range(k):
        acc += X[:, i:i + 1] * (X @ table[i])
    fs = np.array(ring.additive.invariant_factors, dtype=np.int64)
    return acc % fs


def _element_orders(X: np.ndarray, factors: tuple[int, ...]) -> np.ndarray:
    fs = np.array(factors, dtype=np.int64)
    per = fs // np.gcd(X, fs)
    return np.lcm.reduce(per, axis=1)


def _subgroup_order(cols: list[tuple[int, ...]], ring: FiniteRing) -> int:
    if not cols:
        return 1
    M = IntegerMatrix.from_columns(cols, ring.rank)
    group, _ = cokernel(M, list(ring.additive.invariant_factors))
    return ring.order // group.order


def _enumerate_coset(particular: list[int], kernel: IntegerMatrix,
                     factors: tuple[int, ...]) -> list[tuple[int, ...]]:
    k = len(factors)
    base = tuple(particular[i] % factors[i] for i in range(k))
    gens = [tuple(g) for g in (kernel.array % moduli_column(factors)).T.tolist()]
    seen = {base}
    frontier = [base]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple((x[i] + g[i]) % factors[i] for i in range(k))
                if y not in seen:
                    if len(seen) >= COSET_CAP:
                        raise SearchBudgetExceeded(
                            "solution coset too large to enumerate")
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(seen)


def _square_profile(R: FiniteRing) -> tuple[int, int]:
    """(#idempotents, #square-zero elements), invariant under isomorphism."""
    X = _element_table(R.additive.invariant_factors)
    SQ = _square_table(X, R)
    return int((SQ == X).all(axis=1).sum()), int((SQ == 0).all(axis=1).sum())


def _prefix_score(R: FiniteRing) -> int:
    score = 0
    for i in range(R.rank):
        for j in range(R.rank):
            support = [l for l, c in enumerate(R.mult[i][j]) if c]
            if all(l <= max(i, j) for l in support):
                score += 1
    return score


class _Search:
    def __init__(self, D: FiniteRing, C: FiniteRing):
        self.D = D
        self.C = C
        self.k = D.rank
        self.factors = C.additive.invariant_factors
        self.nodes = 0
        self._table: np.ndarray | None = None
        self._squares: np.ndarray | None = None
        self._orders: np.ndarray | None = None
        # level at which each product pair becomes fully determined
        self.pair_level: dict[tuple[int, int], int] = {}
        for i in range(self.k):
            for j in range(self.k):
                support = [l for l, c in enumerate(D.mult[i][j]) if c]
                self.pair_level[(i, j)] = max([i, j] + support)
        usupport = [l for l, c in enumerate(D.unit) if c]
        self.unit_level = max(usupport) if usupport else 0

    def table(self) -> np.ndarray:
        if self._table is None:
            self._table = _element_table(self.factors)
        return self._table

    def squares(self) -> np.ndarray:
        if self._squares is None:
            self._squares = _square_table(self.table(), self.C)
        return self._squares

    def orders(self) -> np.ndarray:
        if self._orders is None:
            self._orders = _element_orders(self.table(), self.factors)
        return self._orders

    def known_sum(self, coeffs, chosen) -> tuple[int, ...]:
        C = self.C
        acc = C.additive.zero()
        for l, c in enumerate(coeffs):
            if c and l < len(chosen):
                acc = C.additive.add(acc, C.additive.scale(c, chosen[l]))
        return acc

    def candidates(self, p: int, chosen: list[tuple[int, ...]]):
        D, C, k = self.D, self.C, self.k
        fs = self.factors
        dp = D.additive.invariant_factors[p]
        ident = np.identity(k, dtype=object)
        # each block B with right-hand side t is the congruence B x = t (mod fs)
        blocks, rhs = [dp * ident], [C.additive.zero()]
        for (i, j), lvl in self.pair_level.items():
            if lvl != p or (i == p and j == p):
                continue
            coeffs = D.mult[i][j]
            cp = coeffs[p] if p < len(coeffs) else 0
            known = self.known_sum(coeffs, chosen)
            if i == p:
                blocks.append(C.right_mult_matrix(chosen[j]).array - cp * ident)
                rhs.append(known)
            elif j == p:
                blocks.append(C.left_mult_matrix(chosen[i]).array - cp * ident)
                rhs.append(known)
            else:
                prod = C.mul(chosen[i], chosen[j])
                blocks.append(cp * ident)
                rhs.append(C.additive.add(prod, C.additive.neg(known)))
        if self.unit_level == p:
            known = self.known_sum(D.unit, chosen)
            blocks.append(D.unit[p] * ident)
            rhs.append(C.additive.add(C.unit, C.additive.neg(known)))

        if len(blocks) > 1:
            A = IntegerMatrix.adopt(np.vstack(blocks))
            try:
                sol = solve_congruences(A, list(fs) * len(blocks), [v for t in rhs for v in t])
            except NoSolution:
                return []
            pool = _enumerate_coset(sol.particular, sol.kernel, fs)
        else:
            mask = self.orders() == dp
            if not mask.any():
                return []
            pool_arr = self.table()[mask]
            sq_arr = self.squares()[mask]
            if (p, p) in self.pair_level and self.pair_level[(p, p)] == p:
                coeffs = self.D.mult[p][p]
                cp = coeffs[p]
                known = np.array(self.known_sum(coeffs, chosen), dtype=np.int64)
                fsa = np.array(fs, dtype=np.int64)
                want = (known + cp * pool_arr) % fsa
                keep = (sq_arr == want).all(axis=1)
                pool_arr = pool_arr[keep]
            if len(pool_arr) > COSET_CAP:
                raise SearchBudgetExceeded("level pool too large")
            return [tuple(int(v) for v in row) for row in pool_arr]

        out = []
        square_here = self.pair_level.get((p, p)) == p
        if square_here:
            coeffs = self.D.mult[p][p]
            cp = coeffs[p]
            known = self.known_sum(coeffs, chosen)
        for t in pool:
            if C.additive.element_order(t) != dp:
                continue
            if square_here:
                want = C.additive.add(known, C.additive.scale(cp, t))
                if C.mul(t, t) != want:
                    continue
            out.append(t)
        return out

    def run(self) -> IntegerMatrix | None:
        return self._dfs([])

    def _dfs(self, chosen: list[tuple[int, ...]]) -> IntegerMatrix | None:
        p = len(chosen)
        if p == self.k:
            # a leaf failing the independent check is a dead end, not a refutation
            T = IntegerMatrix.from_columns(chosen, self.k)
            return T if is_ring_isomorphism(self.D, self.C, T) else None
        self.nodes += 1
        if self.nodes > NODE_CAP:
            raise SearchBudgetExceeded("search node budget exhausted")
        expected = 1
        for l in range(p + 1):
            expected *= self.D.additive.invariant_factors[l]
        for t in self.candidates(p, chosen):
            if _subgroup_order(chosen + [t], self.C) != expected:
                continue
            res = self._dfs(chosen + [t])
            if res is not None:
                return res
        return None


def ring_iso_search(A: FiniteRing, B: FiniteRing,
                    order_cap: int = 1 << 16) -> IntegerMatrix | None:
    """Find a ring isomorphism A -> B as a coordinate matrix, or None.

    Raises SearchBudgetExceeded when the ring order exceeds order_cap or
    an intermediate enumeration blows past its internal cap; callers that
    accept the cost pass a larger order_cap.
    """
    if A.additive != B.additive:
        return None
    if A.additive.element_order(A.unit) != B.additive.element_order(B.unit):
        return None
    if A.is_commutative != B.is_commutative:
        return None
    if A.mult == B.mult and A.unit == B.unit:
        return IntegerMatrix.identity(A.rank)
    if A.order > order_cap:
        raise SearchBudgetExceeded(
            f"ring order {A.order} exceeds cap {order_cap}")
    if A.order <= 1 << 12 and _square_profile(A) != _square_profile(B):
        return None

    swapped = _prefix_score(B) > _prefix_score(A)
    D, C = (B, A) if swapped else (A, B)
    T = _Search(D, C).run()
    if T is None or not swapped:
        return T
    T = invert_group_map(T, B.additive, A.additive)
    if not is_ring_isomorphism(A, B, T):
        raise RuntimeError("inverse of a checked ring isomorphism failed the check")
    return T
