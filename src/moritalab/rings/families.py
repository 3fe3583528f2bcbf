"""Built-in module families, tensor corpora, and coherence samplers.

The right-module family over a ring enumerates direct sums of cyclic
quotients R/I over the right ideals I.  Over the base rings used in the
certification suite every finitely generated right module decomposes
this way, so the family is exhaustive up to the order bound there; the
sampler procedures feed the coherence checks with composable bimodule
tuples built from validated atoms (scalars, regulars, column and row
modules over 2x2 matrix rings).
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from ..exact import FiniteAbelianGroup, IntegerMatrix, cokernel
from .base import (
    FiniteRing,
    cyclic_ring,
    matrix_ring,
    truncated_polynomial_ring,
)
from .bimodules import (
    Bimodule,
    bimodule_direct_sum,
    column_module,
    regular_bimodule,
    right_module,
    row_module,
    scalar_bimodule,
    zero_bimodule,
)

# ----------------------------------------------------------- subgroups

def subgroup_closure(group: FiniteAbelianGroup,
                     gens: Sequence[tuple[int, ...]]) -> frozenset:
    seen = {group.zero()}
    frontier = [group.zero()]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = group.add(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


def all_subgroups(group: FiniteAbelianGroup) -> list[frozenset]:
    """Every subgroup of a small group, found by closing joins."""
    singles = {subgroup_closure(group, [x]) for x in group.elements()}
    found = set(singles)
    frontier = set(singles)
    while frontier:
        new = set()
        for H in frontier:
            for K in singles:
                J = subgroup_closure(group, list(H | K))
                if J not in found:
                    found.add(J)
                    new.add(J)
        frontier = new
    return sorted(found, key=lambda H: (len(H), sorted(H)))


def right_ideals(R: FiniteRing) -> list[frozenset]:
    gens = [tuple(1 if j == i else 0 for j in range(R.rank))
            for i in range(R.rank)]
    out = []
    for H in all_subgroups(R.additive):
        if all(R.mul(h, g) in H for h in H for g in gens):
            out.append(H)
    return out


def quotient_right_module(R: FiniteRing, ideal: frozenset,
                          name: str = "") -> Bimodule:
    """R/I as a right R-module (scalar left action by Z/char)."""
    elems = [list(x) for x in sorted(ideal)]
    rel = IntegerMatrix.from_columns(elems, R.rank) if elems \
        else IntegerMatrix.zeros(R.rank, 0)
    group, proj = cokernel(rel, list(R.additive.invariant_factors))
    gens = [tuple(1 if j == i else 0 for j in range(R.rank))
            for i in range(R.rank)]
    mats = [proj.transport(R.right_mult_matrix(g)) for g in gens]
    return right_module(R, group, mats, name=name)


def cyclic_right_modules(R: FiniteRing) -> list[Bimodule]:
    """Nonzero quotients R/I over all proper right ideals I."""
    out = []
    for ideal in right_ideals(R):
        if len(ideal) == R.order:
            continue
        out.append(quotient_right_module(R, ideal,
                                         name=f"{R.name}/I{len(ideal)}"))
    return out


def right_module_family(R: FiniteRing, max_order: int) -> list[Bimodule]:
    """Direct sums of cyclic right modules with carrier order <= max_order.

    Includes the zero module.  Over a principal ideal coefficient ring
    this family contains every module up to the bound, one per
    isomorphism class (distinct cyclic multisets are non-isomorphic).
    """
    cyclics = cyclic_right_modules(R)
    out = [zero_bimodule(cyclic_ring(R.characteristic), R)]

    def extend(start: int, current: Bimodule | None, order: int):
        for idx in range(start, len(cyclics)):
            piece = cyclics[idx]
            new_order = order * piece.carrier.order
            if new_order > max_order:
                continue
            summed = piece if current is None \
                else bimodule_direct_sum(current, piece)
            out.append(summed)
            extend(idx, summed, new_order)

    extend(0, None, 1)
    return out


# --------------------------------------------------- scalar-type atoms

def augmentation_scalar(A: FiniteRing, B: FiniteRing, d: int,
                        name: str = "") -> Bimodule:
    """Z/d with both rings acting through unit-coefficient evaluation.

    Works for rings presented with unit = e_0 whose other generators act
    trivially on Z/d (nilpotent or d-divisible); validation rejects the
    rest.
    """
    for ring in (A, B):
        if ring.unit != tuple([1] + [0] * (ring.rank - 1)):
            raise ValueError("ring unit must be the first generator")
    carrier = FiniteAbelianGroup((d,))
    one = IntegerMatrix([[1]])
    zero = IntegerMatrix([[0]])
    lam = tuple(one if i == 0 else zero for i in range(A.rank))
    rho = tuple(one if i == 0 else zero for i in range(B.rank))
    return Bimodule(A, B, carrier, lam, rho, name=name or f"Z/{d}")


# ------------------------------------------------------- tensor corpus

def tensor_oracle_corpus() -> list[tuple[Bimodule, Bimodule]]:
    """Deterministic bimodule pairs with middle rings of order <= 12."""
    pairs: list[tuple[Bimodule, Bimodule]] = []

    def cyclic_scalar_pairs(m: int, divisors: list[tuple[int, int]]):
        Zm = cyclic_ring(m)
        for a, b in divisors:
            M = scalar_bimodule(Zm, Zm, a)
            N = scalar_bimodule(Zm, Zm, b)
            pairs.append((M, N))

    cyclic_scalar_pairs(4, [(2, 2), (4, 2), (4, 4)])
    cyclic_scalar_pairs(6, [(2, 3), (6, 2), (6, 6), (3, 3)])
    cyclic_scalar_pairs(8, [(4, 2), (8, 4), (2, 2)])
    cyclic_scalar_pairs(9, [(3, 3), (9, 3)])
    cyclic_scalar_pairs(12, [(4, 6), (6, 4), (12, 4)])

    for m in (4, 6, 9, 12):
        R = regular_bimodule(cyclic_ring(m))
        pairs.append((R, R))
    Z4 = cyclic_ring(4)
    pairs.append((regular_bimodule(Z4), scalar_bimodule(Z4, Z4, 2)))
    pairs.append((scalar_bimodule(Z4, Z4, 2), regular_bimodule(Z4)))

    F2x = truncated_polynomial_ring(2, 2)
    pairs.append((regular_bimodule(F2x), regular_bimodule(F2x)))
    pairs.append((regular_bimodule(F2x), augmentation_scalar(F2x, F2x, 2)))
    pairs.append((augmentation_scalar(F2x, F2x, 2),
                  augmentation_scalar(F2x, F2x, 2)))
    F3x = truncated_polynomial_ring(3, 2)
    pairs.append((regular_bimodule(F3x), augmentation_scalar(F3x, F3x, 3)))

    Z2 = cyclic_ring(2)
    M2 = matrix_ring(Z2, 2)
    C = column_module(Z2, 2, M2)
    W = row_module(Z2, 2, M2)
    pairs.append((C, W))

    Z6 = cyclic_ring(6)
    two_six = bimodule_direct_sum(scalar_bimodule(Z6, Z6, 2),
                                  scalar_bimodule(Z6, Z6, 6))
    pairs.append((two_six, scalar_bimodule(Z6, Z6, 3)))
    pairs.append((two_six, two_six))
    return pairs


# --------------------------------------------------- coherence sampler

class CoherencePool:
    """Ring pool plus atom builders for composable bimodule sampling."""

    def __init__(self):
        self.rings: list[FiniteRing] = []
        self.atoms: dict[tuple[int, int], list[Callable[[], Bimodule]]] = {}
        self._build()

    def _add_atom(self, i: int, j: int, builder: Callable[[], Bimodule]):
        self.atoms.setdefault((i, j), []).append(builder)

    def _build(self):
        Z2 = cyclic_ring(2)
        Z4 = cyclic_ring(4)
        Z8 = cyclic_ring(8)
        Z6 = cyclic_ring(6)
        F2x = truncated_polynomial_ring(2, 2)
        M2 = matrix_ring(Z2, 2)
        self.rings = [Z2, Z4, Z8, Z6, F2x, M2]
        idx = {id(r): i for i, r in enumerate(self.rings)}
        cyclics = [Z2, Z4, Z8, Z6]
        from math import gcd
        for A in cyclics:
            for B in cyclics:
                g = gcd(A.characteristic, B.characteristic)
                for d in range(2, g + 1):
                    if g % d == 0:
                        self._add_atom(idx[id(A)], idx[id(B)],
                                       lambda A=A, B=B, d=d:
                                       scalar_bimodule(A, B, d))
        for R in self.rings:
            self._add_atom(idx[id(R)], idx[id(R)],
                           lambda R=R: regular_bimodule(R))
        for A in cyclics + [F2x]:
            if A.characteristic % 2 == 0:
                self._add_atom(idx[id(A)], idx[id(F2x)],
                               lambda A=A, F=F2x: augmentation_scalar(A, F, 2))
                self._add_atom(idx[id(F2x)], idx[id(A)],
                               lambda A=A, F=F2x: augmentation_scalar(F, A, 2))
        self._add_atom(idx[id(M2)], idx[id(Z2)],
                       lambda: column_module(Z2, 2, M2))
        self._add_atom(idx[id(Z2)], idx[id(M2)],
                       lambda: row_module(Z2, 2, M2))

    def sample_bimodule(self, rng: random.Random, i: int, j: int,
                        max_order: int) -> Bimodule:
        builders = self.atoms.get((i, j), [])
        if not builders or rng.random() < 0.05:
            return zero_bimodule(self.rings[i], self.rings[j])
        picks = []
        order = 1
        for _ in range(rng.randint(1, 3)):
            M = rng.choice(builders)()
            if order * max(M.carrier.order, 1) > max_order:
                break
            picks.append(M)
            order *= max(M.carrier.order, 1)
        if not picks:
            return zero_bimodule(self.rings[i], self.rings[j])
        total = picks[0]
        for M in picks[1:]:
            total = bimodule_direct_sum(total, M)
        return total

    def sample_chain(self, rng: random.Random, length: int,
                     max_order: int = 16) -> list[Bimodule]:
        """length composable bimodules, consecutive rings matching."""
        n = len(self.rings)
        for _ in range(200):
            ring_idx = [rng.randrange(n)]
            ok = True
            for _ in range(length):
                cands = [j for j in range(n)
                         if self.atoms.get((ring_idx[-1], j))]
                if not cands:
                    ok = False
                    break
                ring_idx.append(rng.choice(cands))
            if not ok:
                continue
            chain = [self.sample_bimodule(rng, ring_idx[t], ring_idx[t + 1],
                                          max_order)
                     for t in range(length)]
            return chain
        raise RuntimeError("could not sample a composable chain")
