"""Bimodules over finite rings and the maps between them.

A bimodule stores its carrier group and each ring's action as one
read-only exact stack: ``left_action[i]`` acts for additive generator i
of the left ring, a (k, n, n) object array of Python ints with row a
reduced modulo the carrier factor f_a, and likewise ``right_action``.
Two bimodules are equal when their rings, carriers and stacks are (the
name aside); they are not hashable.  Construction states its laws
through the ring layer's stacked checker (``checked_stack`` in
``base``): the left stack must represent the left ring, the right stack
must anti-represent the right ring, and ``stacks_commute`` compares
lambda_i @ rho_j with rho_j @ lambda_i (int64, or object dtype past the
overflow guard described in ``base``), one left generator against all
right ones at a time.  A map must be a group map of the carriers
(``is_group_map``) that intertwines the actions on its tagged sides
(``intertwines``).  Each check casts the exact stacks to its
``law_dtype`` when it runs; a bimodule keeps no cast copy.

Validation happens once, at the boundary: ``Bimodule(...)`` takes one
``IntegerMatrix`` per generator on each side, stacks them once and
checks every law, as do the constructors that take caller data (the spec loader,
``scalar_bimodule``, ``right_module``, ``augmentation_scalar``, and
``column_module``/``row_module``, which accept a matrix ring).  Regular
bimodules, direct sums, tensor products and the Morita context's P_up,
P* and inverse Q are lawful by construction from lawful inputs, so they
hand their stacks to ``Bimodule._lawful``, which only reduces them.
Likewise identities, composites, hom-group elements, tensors of maps,
associators and unitors are maps lawful by construction
(``BimoduleMap._lawful``), while ``BimoduleMap(...)``,
``factor_through_tensor`` and ``invert_bimodule_map`` check theirs, as do
the Morita certificate's pairing maps built through them.  A
differential test re-checks every such object and map built on a corpus
of inputs.

Maps carry a ``sides`` tag: hom computations for one-sided module maps
reuse the same class with ``sides=("right",)`` or ``("left",)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import NoSolution, RingMismatch
from ..exact import (
    FiniteAbelianGroup,
    IntegerMatrix,
    as_int,
    cokernel,
    invert_group_map,
    kron,
    solve_congruences,
)
from .base import (
    FiniteRing,
    checked_stack,
    cyclic_ring,
    intertwines,
    is_group_map,
    matrices_congruent,
    matrix_ring,
    reduced_stack,
    stacks_commute,
)

BOTH_SIDES = ("left", "right")


@dataclass(frozen=True, eq=False)
class Bimodule:
    """An (R, S)-bimodule with commuting validated actions, one exact stack per side."""

    left_ring: FiniteRing
    right_ring: FiniteRing
    carrier: FiniteAbelianGroup
    left_action: np.ndarray
    right_action: np.ndarray
    name: str = ""

    def __post_init__(self):
        fs = self.carrier.invariant_factors
        n = len(fs)
        for side, ring, anti in (("left", self.left_ring, False),
                                 ("right", self.right_ring, True)):
            mats = getattr(self, f"{side}_action")
            if len(mats) != ring.rank or any(M.rows != n or M.cols != n for M in mats):
                raise ValueError(f"{side} action is not well shaped")
            stack = np.array([M.array for M in mats], dtype=object).reshape(ring.rank, n, n)
            law, stack = checked_stack(stack, fs, ring, anti)
            if law is not None:
                raise ValueError(f"{side} action is not {law}")
            stack.flags.writeable = False
            object.__setattr__(self, f"{side}_action", stack)
        if not stacks_commute(self.left_action, self.right_action, fs):
            raise ValueError("left and right actions do not commute")

    @classmethod
    def _lawful(cls, left_ring: FiniteRing, right_ring: FiniteRing,
                carrier: FiniteAbelianGroup, left_action: np.ndarray,
                right_action: np.ndarray, name: str = "") -> "Bimodule":
        """A bimodule lawful by construction from its two stacks: reduced, no law re-checked."""
        B = object.__new__(cls)
        left, right = (reduced_stack(stack, carrier.invariant_factors)
                       for stack in (left_action, right_action))
        left.flags.writeable = right.flags.writeable = False
        vars(B).update(left_ring=left_ring, right_ring=right_ring, carrier=carrier,
                       left_action=left, right_action=right, name=name)
        return B

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bimodule):
            return NotImplemented
        return (self.left_ring == other.left_ring and self.right_ring == other.right_ring
                and self.carrier == other.carrier
                and np.array_equal(self.left_action, other.left_action)
                and np.array_equal(self.right_action, other.right_action))

    # ----------------------------------------------------- element ops

    @property
    def rank(self) -> int:
        return self.carrier.rank

    def _act(self, stack: np.ndarray, ring: FiniteRing, r: Sequence[int],
             m: Sequence[int]) -> tuple[int, ...]:
        mat = np.tensordot(np.array(ring.additive.reduce(r), dtype=object), stack, 1)
        return self.carrier.reduce(mat @ np.array(self.carrier.reduce(m), dtype=object))

    def act_left(self, r: Sequence[int], m: Sequence[int]) -> tuple[int, ...]:
        return self._act(self.left_action, self.left_ring, r, m)

    def act_right(self, m: Sequence[int], s: Sequence[int]) -> tuple[int, ...]:
        return self._act(self.right_action, self.right_ring, s, m)

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

    @classmethod
    def _lawful(cls, source: Bimodule, target: Bimodule, matrix: IntegerMatrix,
                sides: tuple[str, ...] = BOTH_SIDES) -> "BimoduleMap":
        """A map lawful by construction: a group map intertwining its sides, not re-checked."""
        f = object.__new__(cls)
        vars(f).update(source=source, target=target, matrix=matrix, sides=sides)
        return f

    def apply(self, m: Sequence[int]) -> tuple[int, ...]:
        return self.target.carrier.reduce(self.matrix.apply(list(m)))

    def after(self, other: "BimoduleMap") -> "BimoduleMap":
        """self composed after other (self . other)."""
        if other.target is not self.source and other.target != self.source:
            raise ValueError("maps are not composable")
        sides = tuple(s for s in self.sides if s in other.sides)
        return BimoduleMap._lawful(other.source, self.target, self.matrix @ other.matrix,
                                   sides)

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
    return BimoduleMap._lawful(M, M, IntegerMatrix.identity(M.rank), sides)


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
    # column j of lambda_i is e_i e_j = table[i, j], of rho_i it is e_j e_i = table[j, i]
    return Bimodule._lawful(R, R, R.additive, R.table.transpose(0, 2, 1),
                            R.table.transpose(1, 2, 0), name=f"{R.name or 'R'} (regular)")


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


def _matrix_module(R: FiniteRing, n: int, Mn: FiniteRing | None,
                   columns: bool) -> Bimodule:
    """R^n with M_n(R) acting on one side and R scaling on the other.

    The basis of R^n is (l, a), generator l of R in slot a, at l * n + a,
    so an action is M (x) S: M multiplies each entry, S moves the slots.
    The generator (g, i, j) of M_n(R) is r_g . e_ij; on columns it is
    L_g (x) e_ij, left multiplication by r_g moving slot j to slot i; on
    rows it is R_g (x) e_ji.  The scalar r_g is R_g (x) 1 on columns and
    L_g (x) 1 on rows.
    """
    n = as_int(n)
    if Mn is None:
        Mn = matrix_ring(R, n)
    k = R.rank
    fs = R.additive.invariant_factors
    carrier = FiniteAbelianGroup(tuple(fs[l] for l in range(k) for _ in range(n)))
    gens = IntegerMatrix.identity(k).columns()
    left = [R.left_mult_matrix(x) for x in gens]
    right = [R.right_mult_matrix(x) for x in gens]

    def e(i: int, j: int) -> IntegerMatrix:
        unit = np.zeros((n, n), dtype=object)
        unit[i, j] = 1
        return IntegerMatrix.adopt(unit)

    units = tuple(kron(left[g], e(i, j)) if columns else kron(right[g], e(j, i))
                  for g in range(k) for i in range(n) for j in range(n))
    scalars = tuple(kron(right[g] if columns else left[g], IntegerMatrix.identity(n))
                    for g in range(k))
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
    n1, n = M1.rank, len(combined)
    group, proj = cokernel(IntegerMatrix.zeros(n, 0), combined)

    def transported(A1: np.ndarray, A2: np.ndarray) -> np.ndarray:
        # every generator's block sum A1 + A2 carried to the canonical carrier at once
        D = np.zeros((len(A1), n, n), dtype=object)
        D[:, :n1, :n1], D[:, n1:, n1:] = A1, A2
        return proj.matrix.array @ D @ proj.section_matrix.array

    name = f"{M1.name}+{M2.name}" if M1.name and M2.name else ""
    return Bimodule._lawful(M1.left_ring, M1.right_ring, group,
                            transported(M1.left_action, M2.left_action),
                            transported(M1.right_action, M2.right_action), name=name)
