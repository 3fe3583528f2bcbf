"""Correspondences: Hilbert spaces with commuting left and right actions.

Both actions are specified on matrix units and extended linearly: a unital
*-homomorphism on the left, a unital *-antihomomorphism on the right, with
commuting images.  Inputs are validated once, at the boundary: the public
constructor checks unitality and the star law on every unit, the rest on
the generating relations (see _generator_eps).  Every correspondence the
library builds goes through Correspondence._lawful, which checks nothing.

A checked correspondence holds each action as one read-only complex128
(units, dim, dim) stack, which the constructor stacks once from its
validated images.  It reads the right action's reversed products through
views with each block's unit axes swapped: it holds no reordered copy.

Every other correspondence, L², a block correspondence, a fusion result or
a conjugate, is its multiplicity table, which fixes it up to the basis
order (Jones and Sunder, Introduction to Subfactors, ch. 1-2); a
conjugate's is the transposed table.  It is built one way, from the table
alone: its frames are coordinate columns read off the table
(algebras.table_frames), not eigendecompositions, and its unit images are
partial permutations, given by index data (algebras.table_units), unit u
sending basis vector s to t.  Whether a side is read through that index
data or a stack is decided here, by the readers of the actions:
Correspondence.unit_sum (pi_l, pi_r, and fusion's creation operators, Gram
matrix, unitors and balancing check), the witness residual and fusion's
dense compression gate, each a gather with a table, one term per entry.
A table that still holds its own frames (_holds_table_frames) needs no
reader at all where only its table matters: two of one table are close
with no stack read, and are each other's witness with no unit read, and
fusion of two of them works on their index data (fusion._components).
A stack is written (algebras.table_stack) only when something reads
pi_l_units or pi_r_units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..errors import AlgebraMismatch, NotComposable, NotHomomorphism
from ..exact import as_int
from ..numkernel import (
    DEFAULT_TOL,
    as_complex_matrix,
    kron_sandwich,
    max_operator_norm,
    max_operator_norm_of,
    norm_exceeds,
    orthonormal_columns,
)
from .algebras import (
    MultiMatrixAlgebra,
    _bimodule_action,
    _read_only,
    frame_products,
    isotypic_frames,
    table_dim,
    table_frames,
    table_stack,
    table_unit_slices,
    table_units,
)
from .standard import StandardFormData


_SIDES = {"pi_l_units": "left", "pi_r_units": "right"}
_STACKS = {side: key for key, side in _SIDES.items()}


def _generator_eps(t: float) -> float:
    """Tolerance on the generating relations that bounds every unit pair.

    Let one action's unit images U_bij have norms at most s <= t and every
    generating residual, U_bi0.U_b0j - U_bij or U_b0j.U_ck0 - [b=c, j=k].U_b00,
    be at most eps.  With r1 to r5 the residuals, up to sign, of U_bij, U_ckl,
    the pair (U_b0j, U_ck0), U_bi0 = U_bi0.U_b00 and U_bil,
        U_bij.U_ckl - [b=c, j=k].U_bil = r1.U_ckl + U_bi0.U_b0j.r2
            + U_bi0.r3.U_c0l + [b=c, j=k].(r4.U_b0l + r5)
    is at most eps.(1 + 2s + 2s^2) <= DEFAULT_TOL.(1 + s), the all-pairs
    bound, as (1 + s)(1 + 2t)^2 - (1 + t)(1 + 2s + 2s^2) is concave in s
    and nonnegative at s = 0 and s = t.  For left and right unit images
    X = AB + r1 and Y = CD + r2, with A, B, C, D images of units with a 0
    index whose commutators across the actions are at most eps,
        [X, Y] = AC[B, D] + A[B, C]D + C[A, D]B + [A, C]DB
            + [X, r2] - [r1, r2] + [r1, Y]
    is at most eps.(4t^2 + 4t + 2 eps) <= DEFAULT_TOL.(1 + t), as eps <= 1/2.
    """
    return DEFAULT_TOL * (1.0 + t) / (1.0 + 2.0 * t) ** 2


def _unit_blocks(A: MultiMatrixAlgebra, units: np.ndarray) -> list[np.ndarray]:
    """Per block, the (n, n, d, d) view of a unit stack holding U_bij at [i, j]."""
    return [units[A.unit_index(b, 0, 0):][:n * n].reshape((n, n) + units.shape[1:])
            for b, n in enumerate(A.block_sizes)]


def _broken_unit_relation(A: MultiMatrixAlgebra, blocks: list[np.ndarray],
                          top: float, eps: float) -> str | None:
    """Which law unit images U_bij at blocks[b][i, j] break first: "star", "product" or None.

    The star law is checked on every unit, a block row at a time, against
    DEFAULT_TOL.(1 + top) for top the largest unit norm, and the product law
    against eps on the generating pairs e_bi0.e_b0j = e_bij and
    e_b0i.e_cj0 = [b = c, i = j].e_b00, one generator at a time against a stack.
    """
    bound = DEFAULT_TOL * (1.0 + top)
    if any(norm_exceeds(row.transpose(0, 2, 1).conj() - blk[:, i], bound)
           for blk in blocks for i, row in enumerate(blk)):
        return "star"
    firsts = np.concatenate([blk[:, 0] for blk in blocks])
    for b, blk in enumerate(blocks):
        for i in range(len(blk)):
            onto = blk[0, i] @ firsts
            onto[A.block_offset(b) + i] -= blk[0, 0]
            if norm_exceeds(blk[i, 0] @ blk[0] - blk[i], eps) \
                    or norm_exceeds(onto, eps):
                return "product"
    return None


@dataclass(frozen=True, eq=False)
class Correspondence:
    """A bimodule Hilbert space between two multi-matrix algebras.

    Instances compare by identity; use correspondences_close to test
    whether two of them carry the same actions numerically.
    """

    # the multiplicity table of what _lawful builds; only _lawful sets one
    table = None

    left_algebra: MultiMatrixAlgebra
    right_algebra: MultiMatrixAlgebra
    dim: int
    pi_l_units: np.ndarray
    pi_r_units: np.ndarray
    name: str = field(default="", compare=False)

    def __post_init__(self):
        M, N = self.left_algebra, self.right_algebra
        images = [[as_complex_matrix(U) for U in units]
                  for units in (self.pi_l_units, self.pi_r_units)]
        for A, units, label in zip((M, N), images, ("left action", "right action")):
            if len(units) != A.vector_dim:
                raise ValueError(f"{label}: expected {A.vector_dim} unit images")
            if any(U.shape != (self.dim, self.dim) for U in units):
                raise ValueError(f"{label}: unit image has wrong shape")
        lefts, pi_r = (_read_only(np.stack(units)) for units in images)
        vars(self).update(pi_l_units=lefts, pi_r_units=pi_r)
        # y -> pi_r(y^T) is a homomorphism exactly when pi_r reverses products:
        # its unit (b, i, j) is pi_r's (b, j, i), read through swapped block axes
        sides = (_unit_blocks(M, lefts),
                 [blk.transpose(1, 0, 2, 3) for blk in _unit_blocks(N, pi_r)])
        tops = [max_operator_norm(lefts), max_operator_norm(pi_r)]
        eps = _generator_eps(max(tops))
        for A, blocks, top, label, kind in (
                (M, sides[0], tops[0], "left action", "homomorphism"),
                (N, sides[1], tops[1], "right action", "antihomomorphism")):
            total = sum(blk[i, i] for blk in blocks for i in range(len(blk)))
            if norm_exceeds(total - np.eye(self.dim), DEFAULT_TOL * (1.0 + top)):
                raise ValueError(f"{label}: representation is not unital")
            broken = _broken_unit_relation(A, blocks, top, eps)
            if broken == "star":
                raise ValueError(f"{label}: star property fails on a unit")
            if broken == "product":
                raise ValueError(f"{label}: not a {kind} on unit pairs")
        # one commutator of generating units at a time, formed in place
        ab, ba = np.empty((2, self.dim, self.dim), dtype=np.complex128)
        if any(norm_exceeds(np.subtract(np.matmul(lefts[u], pi_r[v], out=ab),
                                        np.matmul(pi_r[v], lefts[u], out=ba), out=ab), eps)
               for u in M.generator_units for v in N.generator_units):
            raise ValueError("left and right actions do not commute")

    @classmethod
    def _lawful(cls, left_algebra: MultiMatrixAlgebra, right_algebra: MultiMatrixAlgebra,
                table, name: str = "") -> "Correspondence":
        """block_correspondence(left_algebra, right_algebra, table) in its basis
        order, lawful by construction, so no law is checked.  table is a tuple
        of int tuples; the stacks are written from it on first read."""
        H = object.__new__(cls)
        vars(H).update(left_algebra=left_algebra, right_algebra=right_algebra,
                       dim=table_dim(left_algebra, right_algebra, table),
                       table=table, name=name)
        return H

    def __getattr__(self, key: str):
        # reached only for what the instance lacks: a block correspondence's
        # stack that nothing has read yet
        if key not in _SIDES or self.table is None:
            raise AttributeError(key)
        vars(self)[key] = units = table_stack(
            self.left_algebra, self.right_algebra, self.table, _SIDES[key])
        return units

    @cached_property
    def frames(self) -> tuple[tuple[np.ndarray, ...], ...]:
        """Isotypic frames per block pair: frames[b][c] is (mult, dim, n_b m_c),
        read off the table of a block correspondence, otherwise from column 0
        of each left unit block and row 0 of each right one."""
        if self.table is not None:
            return table_frames(self.left_algebra, self.right_algebra, self.table)
        rights = _unit_blocks(self.right_algebra, self.pi_r_units)
        return tuple(tuple(isotypic_frames(L[:, 0], R[0]) for R in rights)
                     for L in _unit_blocks(self.left_algebra, self.pi_l_units))

    @property
    def multiplicities(self) -> tuple[tuple[int, ...], ...]:
        """How often each simple (b, c) bimodule occurs: the frame counts, or
        the table of a block correspondence whose frames nothing has read."""
        if self.table is not None and "frames" not in vars(self):
            return self.table
        return tuple(tuple(len(F) for F in row) for row in self.frames)

    def unit_sum(self, side: str, coef: np.ndarray) -> np.ndarray:
        """sum_u coef[..., u].U_u over the unit images U_u of one side,
        "left" or "right": on a block correspondence coef[..., k] written
        at each entry (t, s) of unit k (algebras.table_units), its one
        term, with no stack read; otherwise a contraction with the stack."""
        if self.table is None:
            return np.tensordot(coef, getattr(self, _STACKS[side]), 1)
        k, t, s = table_units(self.left_algebra, self.right_algebra, self.table, side)
        out = np.zeros(coef.shape[:-1] + (self.dim, self.dim), dtype=np.complex128)
        out[..., t, s] = coef[..., k]
        return out

    def pi_l(self, x: np.ndarray) -> np.ndarray:
        return self.unit_sum("left", self.left_algebra.coords(x))

    def pi_r(self, y: np.ndarray) -> np.ndarray:
        return self.unit_sum("right", self.right_algebra.coords(y))

    def __repr__(self) -> str:
        return (f"Correspondence({self.name or 'H'}: "
                f"{self.left_algebra!r} | {self.right_algebra!r}, dim={self.dim})")


def correspondences_close(a: Correspondence, b: Correspondence,
                          tol: float = DEFAULT_TOL) -> bool:
    """Same algebra pair, same dimension, and actions within tol."""
    if a is b:
        return True
    if (a.left_algebra, a.right_algebra, a.dim) != \
            (b.left_algebra, b.right_algebra, b.dim):
        return False
    if a.table is not None and a.table == b.table:
        # one table_stack key on both sides: their difference is exactly 0,
        # within every tol but a negative one
        return not tol < 0.0
    return not norm_exceeds(np.concatenate([a.pi_l_units - b.pi_l_units,
                                            a.pi_r_units - b.pi_r_units]), tol)


@dataclass(frozen=True, eq=False)
class Intertwiner:
    """A linear map between correspondences commuting with both actions."""

    source: Correspondence
    target: Correspondence
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", as_complex_matrix(self.matrix))
        if self.matrix.shape != (self.target.dim, self.source.dim):
            raise ValueError("intertwiner shape mismatch")
        if self.source.left_algebra != self.target.left_algebra or \
                self.source.right_algebra != self.target.right_algebra:
            raise AlgebraMismatch("intertwiner endpoints over different algebras")

    def residual(self) -> float:
        """max over unit pairs of |T.A_u - B_u.T|, one difference formed at a time.

        On a side with a table, unit u sends basis vector s to t and has no
        other entry, so T.A_u is T's column t moved to column s and B_u.T
        T's row s moved to row t: gathers, not products.  Each entry of
        either product has that one term, so the difference, and the
        residual, is the matmul's bit for bit.  A side without a table
        keeps its matmul.
        """
        T, H, K = self.matrix, self.source, self.target
        return max(max_operator_norm_of(_unit_difference(T, H, K, key), A.vector_dim)
                   for key, A in zip(_SIDES, (H.left_algebra, H.right_algebra)))

    def is_unitary(self, tol: float = DEFAULT_TOL) -> bool:
        T = self.matrix
        return T.shape[0] == T.shape[1] and not norm_exceeds(
            np.stack([T.conj().T @ T, T @ T.conj().T]) - np.eye(len(T)), tol)

    def compose(self, other: "Intertwiner") -> "Intertwiner":
        if not correspondences_close(other.target, self.source):
            raise NotComposable("intertwiners do not compose")
        return Intertwiner(other.source, self.target, self.matrix @ other.matrix)


def _holds_table_frames(H: Correspondence) -> bool:
    """Whether H is a block correspondence holding the frames table_frames
    reads off its table, as read now: not frames a caller put in their place."""
    return H.table is not None and getattr(H.frames, "key", None) == \
        (H.left_algebra, H.right_algebra, H.table)


def _unit_difference(T: np.ndarray, H: Correspondence, K: Correspondence, key: str):
    """u -> T.H_u - K_u.T on one side, H_u and K_u its unit images: on a side
    with a table, gathers at the unit's slices (algebras.table_unit_slices),
    on one without, a product with the stack."""
    side = _SIDES[key]
    src = getattr(H, key) if H.table is None else \
        table_unit_slices(H.left_algebra, H.right_algebra, H.table, side)
    tgt = getattr(K, key) if K.table is None else \
        table_unit_slices(K.left_algebra, K.right_algebra, K.table, side)

    def difference(u: int) -> np.ndarray:
        if H.table is None:
            D = T @ src[u]
        else:
            to, fro = src[u]
            D = np.zeros(T.shape, dtype=np.complex128)
            D[:, fro] = T[:, to]
        if K.table is None:
            D -= tgt[u] @ T
        else:
            to, fro = tgt[u]
            D[to] -= T[fro]
        return D
    return difference


def _generators_on_section(H: Correspondence, side: str, section: np.ndarray,
                           other: int) -> np.ndarray:
    """(U_g (x) 1).section for H's left generating units U_g, side "left",
    or (1 (x) U_g).section for its right ones, H the factor on that side of
    a tensor and other the other factor's dimension: one stack per unit.

    On a block correspondence U_g moves rows s of H's axis of section to
    rows t (algebras.table_unit_slices), so no unit stack is written; each
    entry has that one term, so the stack is the matmul's bit for bit.
    """
    cols = section.shape[1]
    if H.table is None:
        A = H.left_algebra if side == "left" else H.right_algebra
        gens = getattr(H, _STACKS[side])[A.generator_units]
        return kron_sandwich(None, gens, other, section) if side == "left" \
            else kron_sandwich(None, other, gens, section)
    # H's axis of section, between the axes before and after it
    before, after = (1, other * cols) if side == "left" else (other, cols)
    X = section.reshape(before, H.dim, after)
    units = table_unit_slices(H.left_algebra, H.right_algebra, H.table, side, generators=True)
    moved = np.zeros((len(units), before, H.dim, after), dtype=np.complex128)
    for out, (to, fro) in zip(moved, units):
        out[:, to] = X[:, fro]
    return moved.reshape(len(units), H.dim * other, cols)


def identity_correspondence(std: StandardFormData) -> Correspondence:
    """L²(A) as an (A, A)-correspondence, x.ξ.y on the standard form.

    Its unit stacks, E_w -> E_u.E_w and E_w -> E_w.E_u, are exact 0/1 index
    matrices whatever the state: block_correspondence(A, A, 1)'s, whose
    table L² is, so it is lawful by construction and not checked.
    """
    A = std.algebra
    return Correspondence._lawful(A, A, A.identity_table,
                                  f"L2({A.name})" if A.name else "L2")


def block_correspondence(A: MultiMatrixAlgebra, B: MultiMatrixAlgebra,
                         mult, name: str = "") -> Correspondence:
    """The (A, B)-correspondence with mult[b][c] copies of C^{n_b x m_c}.

    Basis order: (block pair (b, c), copy k, row i, col j), rows fastest
    last (algebras.table_units).  Slot (b, c, k, i, j) is the unit at
    (row i of A's block b, column j of B's block c) in copy k, acted on by
    x.ξ.y.  Once the table passes its checks the result is lawful by
    construction: it is the table, with no stack until one is read.
    """
    shape = (len(A.block_sizes), len(B.block_sizes))
    if len(mult) != shape[0] or any(len(row) != shape[1] for row in mult):
        raise ValueError(f"multiplicity table must be {shape[0]} x {shape[1]}")
    table = tuple(tuple(as_int(m) for m in row) for row in mult)
    if any(m < 0 for row in table for m in row):
        raise ValueError("multiplicities must be nonnegative")
    return Correspondence._lawful(A, B, table, name=name)


def vector_correspondence(n: int) -> Correspondence:
    """C^n as a correspondence from M_n to the scalars."""
    A = MultiMatrixAlgebra((n,), name=f"M{n}")
    B = MultiMatrixAlgebra((1,), name="C")
    return block_correspondence(A, B, [[1]])


def conjugate_correspondence(H: Correspondence) -> Correspondence:
    """The conjugate space with n.xi.m given by the adjoint actions.

    The conjugate of the simple (b, c) bimodule C^{n_b x m_c} is the simple
    (c, b) one, so this is the block correspondence of H's multiplicities
    transposed, read with no stack: the entrywise conjugate, n acting by
    conj(pi_r(n*)) and m by conj(pi_l(m*)), up to a basis permutation.
    """
    return Correspondence._lawful(H.right_algebra, H.left_algebra,
                                  tuple(zip(*H.multiplicities)),
                                  f"conj({H.name})" if H.name else "")


def corr_from_homomorphism(rho_units, source: MultiMatrixAlgebra,
                           std_N: StandardFormData) -> Correspondence:
    """L²(N)·ρ(1) as an (N, source)-correspondence for a *-hom ρ: source -> N.

    ρ need not be unital; the carrier shrinks to the range of right
    multiplication by the projection ρ(1).
    """
    N = std_N.algebra
    if len(rho_units) != source.vector_dim:
        raise NotHomomorphism("wrong number of unit images")
    imgs = [as_complex_matrix(U) for U in rho_units]
    for U in imgs:
        if not N.contains(U):
            raise NotHomomorphism("unit image leaves the target algebra")
    imgs = np.stack(imgs)
    top = max_operator_norm(imgs)
    broken = _broken_unit_relation(source, _unit_blocks(source, imgs), top,
                                   _generator_eps(top))
    if broken == "star":
        raise NotHomomorphism("images do not respect the involution")
    if broken == "product":
        raise NotHomomorphism("images do not multiply like matrix units")
    unit_img = sum(U for (b, i, j), U in zip(source.unit_triples(), imgs) if i == j)

    # the range of ξ -> ξ.ρ(1), on which ρ acts by right multiplication
    rows, cols = N.unit_positions
    Q = orthonormal_columns(_bimodule_action(rows, cols, y=unit_img))
    pi_r = Q.conj().T @ _bimodule_action(rows, cols, y=imgs) @ Q
    pi_l = Q.conj().T @ table_stack(N, N, N.identity_table, "left") @ Q
    return Correspondence(N, source, Q.shape[1], pi_l, pi_r)


def _frame_pairs(H: Correspondence, K: Correspondence):
    """(frames of K, frames of H) per block pair, both over one algebra pair."""
    if H.left_algebra != K.left_algebra or H.right_algebra != K.right_algebra:
        raise AlgebraMismatch("correspondences over different algebra pairs")
    return [pair for rows in zip(K.frames, H.frames) for pair in zip(*rows)]


def intertwiner_basis(H: Correspondence, K: Correspondence) -> np.ndarray:
    """Orthonormal basis of Hom(H, K) as vectorized d_K x d_H matrices.

    Built from the matrix units, with no linear system solved: on each
    block pair (b, c) the intertwiners are A_s . B_t* / sqrt(n m), for A_s
    a frame of K and B_t a frame of H, so their count is the sum over
    (b, c) of mult_H[b][c] * mult_K[b][c].
    """
    return frame_products(_frame_pairs(H, K))


def unitary_intertwiner(H: Correspondence, K: Correspondence
                        ) -> tuple[np.ndarray, float] | None:
    """A unitary intertwiner H -> K with its residual, or None if none exists.

    H and K are unitarily equivalent exactly when their multiplicity
    matrices agree.  Then U = sum over block pairs and s of A_s . B_s*,
    for A_s the frames of K and B_s those of H, maps H's orthonormal frame
    basis onto K's slot by slot, so it is unitary and intertwines.  U is
    accepted only if it is unitary and its residual r is at most
    DEFAULT_TOL, both re-checked; callers gate r against their own
    tolerance.

    Unitarity lets r carry laws across U onto a side built without a
    check.  With U*U and UU* within DEFAULT_TOL =: d of 1, pi_H(x) lies
    within (1 + d) r + d |pi_H(x)| of U*.pi_K(x).U, and pi_K(x) as near
    U.pi_H(x).U*, so either side's laws hold on the units within O(r + d)
    times their norms plus the other's law residual.  A scaled U would make
    r small and bound nothing.

    Block correspondences of one table, such as L²(M) and H fused with
    conj(H) for an equivalence H, hold the same exact frames: U is the
    identity and every unit difference exactly 0.  Two that hold their
    table's frames (_holds_table_frames) get that identity and 0.0 with no
    unit read; any other pair, replaced frames included, is computed.
    """
    pairs = _frame_pairs(H, K)
    if H.dim != K.dim or H.multiplicities != K.multiplicities:
        return None
    if H.table == K.table and _holds_table_frames(H) and _holds_table_frames(K):
        return np.eye(H.dim, dtype=np.complex128), 0.0
    U = sum(np.tensordot(A, B.conj(), axes=([0, 2], [0, 2]))
            for A, B in pairs)
    witness = Intertwiner(H, K, U)
    if not witness.is_unitary():
        return None
    residual = witness.residual()
    return (U, residual) if residual <= DEFAULT_TOL else None
