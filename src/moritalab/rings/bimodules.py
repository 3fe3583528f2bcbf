"""Bimodules over finite rings and the maps between them.

A bimodule stores its carrier group plus one integer action matrix per
additive generator of each ring.  Construction states its laws through
the ring layer's stacked checker (``checked_stack`` in ``base``): the
left matrices must represent the left ring, the right matrices must
anti-represent the right ring, and ``stacks_commute`` compares
lambda_i @ rho_j with rho_j @ lambda_i on the same two reduced stacks
(int64, or object dtype past the overflow guard described in ``base``),
one left generator against all right ones at a time.  A map must be a
group map of the carriers (``is_group_map``) that intertwines the
actions on its tagged sides (``intertwines``).

Maps carry a ``sides`` tag: hom computations for one-sided module maps
reuse the same class with ``sides=("right",)`` or ``("left",)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..errors import NoSolution, RingMismatch
from ..exact import (
    FiniteAbelianGroup,
    IntegerMatrix,
    cokernel,
    direct_sum,
    invert_group_map,
    solve_congruences,
)
from .base import (
    FiniteRing,
    checked_stack,
    combine_matrices,
    cyclic_ring,
    intertwines,
    is_group_map,
    matrices_congruent,
    matrix_ring,
    stacks_commute,
)

BOTH_SIDES = ("left", "right")


@dataclass(frozen=True)
class Bimodule:
    """An (R, S)-bimodule with commuting validated actions."""

    left_ring: FiniteRing
    right_ring: FiniteRing
    carrier: FiniteAbelianGroup
    left_action: tuple[IntegerMatrix, ...]
    right_action: tuple[IntegerMatrix, ...]
    name: str = field(default="", compare=False)

    def __post_init__(self):
        fs = self.carrier.invariant_factors
        stacks = []
        for side, mats, ring, anti in (
                ("left", self.left_action, self.left_ring, False),
                ("right", self.right_action, self.right_ring, True)):
            law, stack = checked_stack(mats, fs, ring, anti)
            if law is not None:
                raise ValueError(f"{side} action is not {law}")
            stacks.append(stack)
        if not stacks_commute(*stacks, fs):
            raise ValueError("left and right actions do not commute")

    # ----------------------------------------------------- element ops

    @property
    def rank(self) -> int:
        return self.carrier.rank

    def act_left(self, r: Sequence[int], m: Sequence[int]) -> tuple[int, ...]:
        mat = combine_matrices(self.left_action, list(r))
        return self.carrier.reduce(mat.apply(list(m)))

    def act_right(self, m: Sequence[int], s: Sequence[int]) -> tuple[int, ...]:
        mat = combine_matrices(self.right_action, list(s))
        return self.carrier.reduce(mat.apply(list(m)))

    def __repr__(self) -> str:
        label = self.name or f"carrier {self.carrier.invariant_factors}"
        return f"Bimodule({label}; {self.left_ring!r} | {self.right_ring!r})"


@dataclass
class BimoduleMap:
    """Additive map between bimodules intertwining the tagged sides."""

    source: Bimodule
    target: Bimodule
    matrix: IntegerMatrix
    sides: tuple[str, ...] = BOTH_SIDES

    def __post_init__(self):
        src, tgt = self.source, self.target
        sfs, tfs = src.carrier.invariant_factors, tgt.carrier.invariant_factors
        if not is_group_map(self.matrix, sfs, tfs):
            raise ValueError("map matrix is not a group map between the carriers")
        for side in BOTH_SIDES:
            if side not in self.sides:
                continue
            if getattr(src, f"{side}_ring") != getattr(tgt, f"{side}_ring"):
                raise RingMismatch(f"{side} rings differ")
            if not intertwines(self.matrix, getattr(src, f"{side}_action"),
                               getattr(tgt, f"{side}_action"), sfs, tfs):
                raise ValueError(f"map does not intertwine the {side} action")

    def apply(self, m: Sequence[int]) -> tuple[int, ...]:
        return self.target.carrier.reduce(self.matrix.apply(list(m)))

    def after(self, other: "BimoduleMap") -> "BimoduleMap":
        """self composed after other (self . other)."""
        if other.target is not self.source and other.target != self.source:
            raise ValueError("maps are not composable")
        sides = tuple(s for s in self.sides if s in other.sides)
        return BimoduleMap(other.source, self.target, self.matrix @ other.matrix, sides)

    def is_surjective(self) -> bool:
        tfs = list(self.target.carrier.invariant_factors)
        group, _ = cokernel(self.matrix, tfs)
        return group.order == 1

    def is_bijective(self) -> bool:
        return (self.source.carrier.order == self.target.carrier.order
                and self.is_surjective())

    def preimage(self, target_vec: Sequence[int]) -> tuple[int, ...]:
        """Some source element mapping onto target_vec; NoSolution if none."""
        tfs = list(self.target.carrier.invariant_factors)
        sol = solve_congruences(self.matrix, tfs, list(target_vec))
        return self.source.carrier.reduce(sol.particular)


def maps_equal(f: BimoduleMap, g: BimoduleMap) -> bool:
    if f.source.carrier != g.source.carrier or f.target.carrier != g.target.carrier:
        return False
    return matrices_congruent(f.matrix, g.matrix, f.target.carrier.invariant_factors)


def identity_map(M: Bimodule, sides: tuple[str, ...] = BOTH_SIDES) -> BimoduleMap:
    return BimoduleMap(M, M, IntegerMatrix.identity(M.rank), sides)


def invert_bimodule_map(f: BimoduleMap) -> BimoduleMap:
    """Two-sided inverse of a bijective map, found by congruence solving."""
    try:
        inv = invert_group_map(f.matrix, f.source.carrier, f.target.carrier)
    except NoSolution as exc:
        raise ValueError("map is not surjective, cannot invert") from exc
    except ValueError as exc:
        raise ValueError("map is not injective, cannot invert") from exc
    return BimoduleMap(f.target, f.source, inv, f.sides)


# --------------------------------------------------------- constructors

def regular_bimodule(R: FiniteRing) -> Bimodule:
    """R as an (R, R)-bimodule by left and right multiplication."""
    gens = [tuple(1 if j == i else 0 for j in range(R.rank)) for i in range(R.rank)]
    lam = tuple(R.left_mult_matrix(g) for g in gens)
    rho = tuple(R.right_mult_matrix(g) for g in gens)
    return Bimodule(R, R, R.additive, lam, rho, name=f"{R.name or 'R'} (regular)")


def zero_bimodule(R: FiniteRing, S: FiniteRing) -> Bimodule:
    empty = IntegerMatrix.zeros(0, 0)
    return Bimodule(R, S, FiniteAbelianGroup(()),
                    tuple(empty for _ in range(R.rank)),
                    tuple(empty for _ in range(S.rank)), name="0")


def scalar_bimodule(A: FiniteRing, B: FiniteRing, d: int) -> Bimodule:
    """Z/d with both cyclic rings acting by multiplication.

    Requires A and B to be cyclic ring presentations (single generator
    equal to the unit) with d dividing both characteristics.
    """
    for ring in (A, B):
        if ring.rank != 1 or ring.unit != (1,):
            raise ValueError("scalar bimodules need cyclic rings generated by 1")
    if A.characteristic % d or B.characteristic % d:
        raise ValueError("d must divide both characteristics")
    one = IntegerMatrix([[1]])
    return Bimodule(A, B, FiniteAbelianGroup((d,)), (one,), (one,), name=f"Z/{d}")


def right_module(R: FiniteRing, carrier: FiniteAbelianGroup,
                 action: Sequence[IntegerMatrix], name: str = "") -> Bimodule:
    """A right R-module, packaged with scalar left action by Z/char(R)."""
    char = R.characteristic
    C = cyclic_ring(char)
    n = carrier.rank
    return Bimodule(C, R, carrier, (IntegerMatrix.identity(n),), tuple(action),
                    name=name)


def _slot_action(R: FiniteRing, n: int, g: int, ring_left: bool,
                 move: tuple[int, int] | None = None) -> IntegerMatrix:
    """Generator g of R multiplying each entry of R^n, then moving slots.

    The basis of R^n is (l, a): generator l of R in slot a.  Each entry is
    multiplied by g on the left (ring_left) or on the right; move (src,
    dst) then carries slot src to slot dst and kills the others, while
    without move every slot stays.
    """
    rank = R.rank * n
    rows = [[0] * rank for _ in range(rank)]
    for l in range(R.rank):
        prod = R.mult[g][l] if ring_left else R.mult[l][g]
        for a in (range(n) if move is None else (move[0],)):
            dst = a if move is None else move[1]
            for m, cval in enumerate(prod):
                if cval:
                    rows[m * n + dst][l * n + a] = cval
    return IntegerMatrix.adopt(rows, rank, rank)


def _matrix_module(R: FiniteRing, n: int, Mn: FiniteRing | None,
                   columns: bool) -> Bimodule:
    """R^n with M_n(R) acting on one side and R scaling on the other.

    The generator (g, i, j) of M_n(R) is r_g . e_ij; on columns it moves
    slot j to slot i with r_g on the left, on rows slot i to slot j with
    r_g on the right.
    """
    if Mn is None:
        Mn = matrix_ring(R, n)
    k = R.rank
    fs = R.additive.invariant_factors
    carrier = FiniteAbelianGroup(tuple(fs[l] for l in range(k) for _ in range(n)))
    units = tuple(_slot_action(R, n, g, columns, (j, i) if columns else (i, j))
                  for g in range(k) for i in range(n) for j in range(n))
    scalars = tuple(_slot_action(R, n, g, not columns) for g in range(k))
    label = R.name or "R"
    if columns:
        return Bimodule(Mn, R, carrier, units, scalars,
                        name=f"{label}^{n} (columns)")
    return Bimodule(R, Mn, carrier, scalars, units, name=f"{label}^{n} (rows)")


def column_module(R: FiniteRing, n: int, Mn: FiniteRing | None = None) -> Bimodule:
    """R^n as a (M_n(R), R)-bimodule: matrices act on the left, R scales."""
    return _matrix_module(R, n, Mn, columns=True)


def row_module(R: FiniteRing, n: int, Mn: FiniteRing | None = None) -> Bimodule:
    """R^n as an (R, M_n(R))-bimodule: R scales, matrices act on the right."""
    return _matrix_module(R, n, Mn, columns=False)


def bimodule_direct_sum(M1: Bimodule, M2: Bimodule) -> Bimodule:
    """Direct sum, re-presented so the carrier stays in canonical form."""
    if M1.left_ring != M2.left_ring or M1.right_ring != M2.right_ring:
        raise RingMismatch("direct sum needs matching rings on both sides")
    combined = list(M1.carrier.invariant_factors) + list(M2.carrier.invariant_factors)
    n = len(combined)
    group, proj = cokernel(IntegerMatrix.zeros(n, 0), combined)
    lam = tuple(proj.transport(direct_sum(A1, A2))
                for A1, A2 in zip(M1.left_action, M2.left_action))
    rho = tuple(proj.transport(direct_sum(A1, A2))
                for A1, A2 in zip(M1.right_action, M2.right_action))
    name = f"{M1.name}+{M2.name}" if M1.name and M2.name else ""
    return Bimodule(M1.left_ring, M1.right_ring, group, lam, rho, name=name)
