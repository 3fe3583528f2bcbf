"""Hom groups and endomorphism rings of bimodules, computed exactly.

A module map is a matrix X with X[i][j] * ord(src_j) = 0 (mod ord(tgt_i))
that intertwines the requested actions: for each action pair (As, At)
the rows of 1 (x) As^T - At (x) 1, applied to X read row-major (the pair
index of ``exact.kron``), vanish modulo the target orders.  The solution
lattice K of those congruences, modulo the lattice K0 of matrices
representing the zero map, is the hom group; its cokernel presentation
supplies coordinates.  K contains K0, which has full rank, so the basis
matrix of K is square and nonsingular: every map has unique K
coordinates, found through one Smith decomposition kept with the group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from ..errors import SearchBudgetExceeded, UnitDegenerate
from ..exact import (
    CokernelProjection,
    FiniteAbelianGroup,
    IntegerMatrix,
    SmithDecomposition,
    cokernel,
    lattice_basis,
    smith_normal_form,
    solve_congruences,
)
from .base import FiniteRing, kron_differences, reduced_stack
from .bimodules import BOTH_SIDES, Bimodule, BimoduleMap


def _sides_tuple(side: str) -> tuple[str, ...]:
    if side == "both":
        return BOTH_SIDES
    if side in ("left", "right"):
        return (side,)
    raise ValueError("side must be 'left', 'right', or 'both'")


@dataclass
class HomGroup:
    """All maps source -> target intertwining the tagged sides."""

    source: Bimodule
    target: Bimodule
    sides: tuple[str, ...]
    group: FiniteAbelianGroup
    basis_matrix: IntegerMatrix  # lattice basis of K, one column per basis map
    _proj: CokernelProjection    # K coordinates -> hom group coordinates
    _basis_snf: SmithDecomposition  # of basis_matrix, solves for K coordinates

    @property
    def rank(self) -> int:
        return self.group.rank

    def _unflatten(self, flat: Sequence[int]) -> IntegerMatrix:
        nt, ns = self.target.rank, self.source.rank
        return IntegerMatrix([flat[i * ns:(i + 1) * ns] for i in range(nt)], nt, ns)

    def from_coordinates(self, coords: Sequence[int]) -> BimoduleMap:
        vec = self._proj.section_matrix.apply(list(coords))
        return BimoduleMap(self.source, self.target,
                           self._unflatten(self.basis_matrix.apply(vec)), self.sides)

    def coordinates(self, f: BimoduleMap | IntegerMatrix) -> tuple[int, ...]:
        M = f.matrix if isinstance(f, BimoduleMap) else f
        flat = [M.data[i][j] for i in range(M.rows) for j in range(M.cols)]
        y = self._basis_snf.solve(flat)
        if y is None:
            raise ValueError("matrix is not a map in this hom group")
        return self._proj.apply(y)

    def generator_matrices(self) -> list[IntegerMatrix]:
        """Matrices of the maps at the group's generators, in order."""
        gens = self.basis_matrix @ self._proj.section_matrix
        return [self._unflatten(col) for col in gens.columns()]

    def elements(self) -> Iterator[BimoduleMap]:
        for coords in self.group.elements():
            yield self.from_coordinates(coords)


def hom_group(M: Bimodule, N: Bimodule, side: str = "right") -> HomGroup:
    sides = _sides_tuple(side)
    if "left" in sides and M.left_ring != N.left_ring:
        raise ValueError("left rings differ")
    if "right" in sides and M.right_ring != N.right_ring:
        raise ValueError("right rings differ")
    nt, ns = N.rank, M.rank
    nvars = nt * ns
    if nvars == 0:
        group, proj = cokernel(IntegerMatrix.zeros(0, 0), [])
        empty = IntegerMatrix.zeros(0, 0)
        return HomGroup(M, N, sides, group, empty, proj, smith_normal_form(empty))
    cS = M.carrier.invariant_factors
    cT = N.carrier.invariant_factors

    # X[i][j] sits at i * ns + j; each variable first carries its order
    row_moduli = [cT[i] for i in range(nt) for _ in range(ns)]
    rows = [[cS[v % ns] if u == v else 0 for u in range(nvars)] for v in range(nvars)]
    moduli = row_moduli[:]
    action_pairs = []
    if "right" in sides:
        action_pairs += list(zip(M.right_action, N.right_action))
    if "left" in sides:
        action_pairs += list(zip(M.left_action, N.left_action))
    # X @ As = At @ X entry-wise: the rows of 1 (x) As^T - At (x) 1 on X.
    # Moving row k of As by ord(src_k), or row i of At by ord(tgt_i),
    # moves X @ As - At @ X by a multiple of ord(tgt_i) in row i, so each
    # action row is read modulo its order; unreduced entries would only
    # feed coefficient growth to the Smith form.
    src = reduced_stack([As for As, _ in action_pairs], cS).transpose(0, 2, 1)
    tgt = reduced_stack([At for _, At in action_pairs], cT)
    D = -kron_differences(tgt, src).reshape(len(action_pairs) * nvars, nvars)
    for row, d in zip(D.tolist(), row_moduli * len(action_pairs)):
        if any(row):
            rows.append(row)
            moduli.append(d)
    A = IntegerMatrix.adopt(rows, len(rows), nvars)
    sol = solve_congruences(A, moduli, [0] * len(rows))
    K, K_snf = lattice_basis(sol.kernel)

    K0_in_K = []
    for v in range(nvars):
        col = [0] * nvars
        col[v] = row_moduli[v]
        y = K_snf.solve(col)
        if y is None:
            raise RuntimeError("zero-map lattice escaped the solution lattice")
        K0_in_K.append(y)
    rank = K.cols
    group, proj = cokernel(IntegerMatrix.from_columns(K0_in_K, rank), [0] * rank)
    return HomGroup(M, N, sides, group, K, proj, K_snf)


@dataclass
class EndomorphismRing:
    """End(M) as a finite ring, with the dictionary back to matrices."""

    ring: FiniteRing
    hom: HomGroup

    def matrix_of(self, coords: Sequence[int]) -> IntegerMatrix:
        return self.hom.from_coordinates(coords).matrix

    def coordinates_of(self, X: IntegerMatrix) -> tuple[int, ...]:
        return self.hom.coordinates(X)


def endomorphism_ring(M: Bimodule, side: str = "right",
                      name: str = "") -> EndomorphismRing:
    """End of M over the given side, composition (f.g)(x) = f(g(x))."""
    if M.rank == 0:
        raise UnitDegenerate("endomorphism ring of the zero module")
    H = hom_group(M, M, side)
    r = H.rank
    basis_mats = H.generator_matrices()
    mult = tuple(
        tuple(H.coordinates(basis_mats[a] @ basis_mats[b]) for b in range(r))
        for a in range(r)
    )
    unit = H.coordinates(IntegerMatrix.identity(M.rank))
    ring = FiniteRing(H.group, mult, unit, name=name or f"End({M.name})")
    return EndomorphismRing(ring, H)


def end_ring(M: Bimodule, side: str = "right") -> FiniteRing:
    """The endomorphism ring of M alone, without the matrix dictionary."""
    return endomorphism_ring(M, side).ring


def bimodule_isomorphic(M: Bimodule, N: Bimodule,
                        budget: int = 1 << 16) -> BimoduleMap | None:
    """Search for a two-sided bimodule isomorphism M -> N, None if absent."""
    if M.left_ring != N.left_ring or M.right_ring != N.right_ring:
        return None
    if M.carrier != N.carrier:
        return None
    if M.rank == 0:
        return BimoduleMap(M, N, IntegerMatrix.zeros(0, 0), BOTH_SIDES)
    H = hom_group(M, N, side="both")
    if H.group.order > budget:
        raise SearchBudgetExceeded(
            f"hom group of order {H.group.order} exceeds budget {budget}")
    for f in H.elements():
        if f.is_bijective():
            return f
    return None
