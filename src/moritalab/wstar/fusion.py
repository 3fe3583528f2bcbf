"""Fusion of correspondences over a common algebra in standard form.

The fused space is the Gram quotient of the algebraic tensor product,
where the inner product of elementary tensors routes the middle algebra
through bounded right-creation operators: each vector eta of the left
factor gives R_eta: L2(N) -> H, and R_eta1* R_eta2 lands in pi_l(N), so
it can be moved onto the right factor before taking plain inner products.
Every map here is linear in the middle algebra, so each is one sum of
middle coordinates times a factor's unit images, Correspondence.unit_sum:
those of the creation inverse give R, those of R_a*.R_c over basis pairs
the coefficients coef of the Gram matrix G, and those of Lambda^{-1} of
L2's basis (twisted by Δ^{-1/2} on the right) the unitors.

The quotient is exact: with p_b = e_{b00} in middle block b, the fused
space is the sum over b of (H.p_b) (x) (p_b.K) (Sauvageot, J. Operator
Theory 9, 1983) and multiplicities multiply (Jones and Sunder,
Introduction to Subfactors, ch. 1-2), so it is block_correspondence of
mult(H).mult(K), and the state enters only project and section.  The
result carries that table alone and writes its stacks on first read.

The two tables are fused, with no ambient G and no unit stack (Connes,
Noncommutative Geometry, ch. V, appendix B, for the block structure).
G[(a, t), (c, s)] is coef[a, c, k] for the unit k of K sending s to t,
and coef[a, c, u] vanishes unless a and c lie in one right orbit of H
(the slots (i, .) of one copy of a block pair (., b)) and u in that
middle block b: both tables' unit images are partial permutations and
the standard form's matrices have exact zeros across blocks.  So G is
its part on the components, the products of one right orbit of H and one
left orbit of K (the slots (., j) of a copy of a pair (b, .)) over one
middle block, at most max n_b^2 coordinates each, plus G_off, its entries
off them.  K's left units have disjoint supports, so coef[a, c, u] is G's
entry at each of the entries of unit u, and |G_off| is at most its
Frobenius norm, the mass: the root of the sum of |coef[a, c, u]|^2 times
how many of unit u's entries the valid nodes miss for (a, c), or gather
more than once (_uncounted).  That count is read off the nodes the
fusion gathers, so a node or a component that _components drops or
repeats enters the mass.  The fused basis vectors are the components
(_components), and S, the products of orthonormal frame bases of H.p_b
and p_b.K in that basis order, picks node (0, 0) of each: S*.G.S = c_b
on block b (p_b is minimal), section = S.c^{-1/2} and project =
c^{-1/2}.S*.G (G's Hermitian part), so row j of project is G's row and
column at S's coordinate j, on its component.  Three gates carry this:
every c_j is positive; |G - project*.project|, at most the largest
residual of one component, measured on one stack of the blocks, plus the
mass, bounds how far G is from Hermitian, positive and spanned by S, and
S*.G.S from diagonal; and the generating units of either side compress
to the fused ones, so every unit does, both being *-representations.
The compression gate gathers: U_g (x) 1 moves one coordinate of each
column of section, so project.(U_g (x) 1).section is a column gather of
project, kept on the columns that move or that the fused unit has an
entry in, one side at a time.  A factor with a frame W is its table
placed by W, so project and section are conjugated by W_H (x) W_K at the
end; Kronecker factors are applied by reshaping (numkernel.kron_sandwich),
never formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..errors import AlgebraMismatch, CapExceeded
from ..numkernel import (
    DEFAULT_TOL,
    kron_sandwich,
    max_operator_norm,
    norm_exceeds,
)
from .algebras import MultiMatrixAlgebra, table_dim, table_units
from .correspondences import (
    Correspondence,
    Intertwiner,
    correspondences_close,
    identity_correspondence,
)
from .standard import StandardFormData

FUSION_DIM_CAP = 10 ** 4


def _creation_operators(H: Correspondence, std_N: StandardFormData) -> np.ndarray:
    """R, C-contiguous, R[a] the creation operator of H's basis vector a:
    column a of sum_u creation_inverse[u, v].U_u over H's right units."""
    R = H.unit_sum("right", std_N.creation_inverse.T)
    return np.ascontiguousarray(R.transpose(2, 1, 0))


def r_eta(H: Correspondence, std_N: StandardFormData,
          eta: np.ndarray) -> np.ndarray:
    """The creation operator L2(N) -> H sending J Lambda(y*) to eta . y.

    The map y -> J Lambda(y*) is linear and carries the matrix units to a
    basis of L2(N), so the operator is determined by matching columns: it
    is sum_a eta[a].R[a].  A stack of vectors, one per row, gives the
    stack of their operators.
    """
    if H.right_algebra != std_N.algebra:
        raise AlgebraMismatch("standard form is not over the right algebra")
    return np.tensordot(eta, _creation_operators(H, std_N), 1)


@dataclass(frozen=True, eq=False)
class FusionResult:
    """Fused correspondence plus the quotient data of the ambient tensor:
    project maps the ambient tensor coordinates onto the fused space and
    section embeds it back, project @ section the identity on the quotient."""

    corr: Correspondence
    project: np.ndarray
    section: np.ndarray
    left_factor: Correspondence
    right_factor: Correspondence

    @property
    def left_dim(self) -> int:
        return self.left_factor.dim

    @property
    def right_dim(self) -> int:
        return self.right_factor.dim

    def pure(self, eta: np.ndarray, zeta: np.ndarray) -> np.ndarray:
        """Quotient class of the elementary tensor eta (x) zeta.

        Stacks of vectors, one per row, give the stack of their classes.
        """
        eta = np.asarray(eta, dtype=np.complex128)[..., :, None]
        zeta = np.asarray(zeta, dtype=np.complex128)[..., :, None]
        return kron_sandwich(self.project, eta, zeta, np.ones((1, 1)))[..., 0]

    def fuses(self, H: Correspondence, K: Correspondence) -> bool:
        """Whether the factors are H and K (correspondences_close)."""
        return correspondences_close(self.left_factor, H) \
            and correspondences_close(self.right_factor, K)


def _pair_starts(A: MultiMatrixAlgebra, B: MultiMatrixAlgebra, table) -> list[list[int]]:
    """Where each block pair's basis vectors start in that block correspondence."""
    sizes = [k * n * m for row, n in zip(table, A.block_sizes)
             for k, m in zip(row, B.block_sizes)]
    starts = np.cumsum([0] + sizes[:-1]).tolist()
    return [starts[b * len(B.block_sizes):][:len(B.block_sizes)] for b in range(len(A.block_sizes))]


@dataclass(frozen=True, eq=False)
class _Components:
    """Index data of the fusion of an (M, N)- with an (N, P)-block
    correspondence (_components).

    Component j is fused basis vector j: right orbit (copy s, row i) of
    H's block pair (a, b) times left orbit (copy t, column j) of K's pair
    (b, d), over middle block b of size n.  Node (p, q), at p.n + q, is
    the ambient coordinate of H's slot (i, p) times K's slot (q, j), and
    node (0, 0) is S's column j.  The (fused, m) arrays, m the largest
    n^2, are padded past n^2.  plans keeps what the fusion derives from
    the nodes: the gather plans per side (_gather_plan) and the mass's
    counts (_uncounted).
    """

    nodes: np.ndarray    # ambient coordinate of each node
    valid: np.ndarray    # False on the padding
    vec: np.ndarray      # H's basis vector of each node, slot (i, p)
    unit: np.ndarray     # N's unit index of e_{b q 0}: e_{b q q'} is unit + q'
    col: np.ndarray      # q of each node
    reach: np.ndarray    # (units of N,): the entries of each unit of K's left action
    pads: np.ndarray | None  # (fused, m, m): the padding of the blocks, None if there is none
    plans: dict = field(default_factory=dict)

    @property
    def sel(self) -> np.ndarray:
        """S's coordinate in each column."""
        return self.nodes[:, 0]


@lru_cache(maxsize=512)
def _components(M: MultiMatrixAlgebra, N: MultiMatrixAlgebra, P: MultiMatrixAlgebra,
                h_table, k_table) -> _Components:
    """The components of H (x) K for tables h_table and k_table, per outer
    block pair (a, d) and middle block b, copies (s, t) of H's (a, b) and
    K's (b, d), then row i and column j: copy k of (a, d) in the fused
    basis is (b, s, t).  The latest 512 calls keep theirs: per call
    5.fused.m ints, the gather plans and, once fused, dim H^2 times N's
    units int32 counts, 1.2 MB for L²(M_8) (x) L²(M_8), where one unit
    stack of L²(M_8) is 4.2 MB."""
    ns = N.block_sizes
    dK = table_dim(N, P, k_table)
    h_starts, k_starts = _pair_starts(M, N, h_table), _pair_starts(N, P, k_table)
    m = max(n * n for n in ns)
    parts = []
    for a, na in enumerate(M.block_sizes):
        for d, pd in enumerate(P.block_sizes):
            for b, n in enumerate(ns):
                p = np.arange(n)
                # axes (s, t, i, j, p, q): H's slot (i, p) of copy s, K's (q, j) of copy t
                h = h_starts[a][b] + np.arange(h_table[a][b])[:, None] * na * n + np.arange(na) * n
                k = k_starts[b][d] + np.arange(k_table[b][d])[:, None] * n * pd + np.arange(pd)
                vec = h[:, None, :, None, None, None] + p[:, None]
                kvec = k[None, :, None, :, None, None] + pd * p
                shape = np.broadcast_shapes(vec.shape, kvec.shape)
                unit = N.unit_index(b, 0, 0) + n * p
                parts.append([np.pad(np.broadcast_to(x, shape).reshape(-1, n * n),
                                     ((0, 0), (0, m - n * n)))
                              for x in (vec * dK + kvec, np.ones(shape, bool), vec, unit, p)])
    nodes, valid, vec, unit, col = (np.concatenate(x) for x in zip(*parts))
    reach = np.bincount(table_units(N, P, k_table, "left")[0], minlength=N.vector_dim)
    pads = None if valid.all() else ~(valid[:, :, None] & valid[:, None, :])
    for x in (nodes, valid, vec, unit, col, reach, pads):
        if x is not None:
            x.flags.writeable = False
    return _Components(nodes, valid, vec, unit, col, reach, pads)


def _uncounted(parts: _Components, dH: int) -> np.ndarray:
    """(dim H, dim H, units of N): for each coefficient (a, c, u), how many
    entries of K's left unit u (parts.reach) the valid node pairs of the
    components miss, or gather more than once, for (a, c).

    A node pair (x, y) gathers coef[vec_x, vec_y, unit_x + col_y], so the
    count is read off the nodes, not off the tables that built them."""
    units = len(parts.reach)
    pairs = parts.valid[:, :, None] & parts.valid[:, None, :]
    at = ((parts.vec[:, :, None] * dH + parts.vec[:, None, :]) * units
          + parts.unit[:, :, None] + parts.col[:, None, :])[pairs]
    count = np.bincount(at, minlength=dH * dH * units).reshape(dH, dH, units)
    return np.abs(parts.reach - count).astype(np.int32)


def _block_scales(c: np.ndarray) -> np.ndarray:
    """c^{-1/2} for the block constants c, RuntimeError unless each is above
    DEFAULT_TOL.max(max c, 1)."""
    cut = DEFAULT_TOL * max(np.max(c, initial=0.0), 1.0)
    if np.any(c <= cut):
        raise RuntimeError(f"fusion block constant {np.min(c):.3g} is not "
                           f"above {cut:.3g}: a reduced basis vector is null")
    return 1.0 / np.sqrt(c)


def _gram_gate(miss: np.ndarray, bound: float, mass: float) -> None:
    """RuntimeError if the Gram residual, at most the largest operator norm
    of the blocks miss plus mass, is above bound."""
    if norm_exceeds(miss, bound - mass):
        top = max_operator_norm(miss) + mass
        raise RuntimeError(f"fusion Gram residual {top:.3g} exceeds {bound:.3g}: the "
                           f"reduced quotient does not span the Gram matrix")


def _component_quotient(parts: _Components, coef: np.ndarray, ambient: int):
    """(project, section, scale, bound) from G's components, with the first
    two gates (see the module docstring)."""
    fused = len(parts.nodes)
    # G on each component
    blocks = coef[parts.vec[:, :, None], parts.vec[:, None, :],
                  parts.unit[:, :, None] + parts.col[:, None, :]]
    if parts.pads is not None:
        blocks[parts.pads] = 0.0
    # row j of (G + G*)/2 at S's coordinate, node 0 of component j: G's row and column there
    rows = (blocks[:, 0] + blocks[:, :, 0].conj()) * 0.5
    # S*.G.S is c_b times the identity on middle block b: its diagonal
    scale = _block_scales(rows[:, 0].real)
    rows *= scale[:, None]
    project = np.zeros((fused, ambient), dtype=np.complex128)
    project[np.nonzero(parts.valid)[0], parts.nodes[parts.valid]] = rows[parts.valid]
    section = np.zeros((ambient, fused), dtype=np.complex128)
    section[parts.sel, np.arange(fused)] = scale
    # project*.project on each component, its row's outer product there;
    # |project| is its largest row's norm
    miss = rows.conj()[:, :, None] @ rows[:, None, :]
    bound = DEFAULT_TOL * max(float(np.max(np.linalg.norm(rows, axis=1), initial=0.0)) ** 2, 1.0)
    miss -= blocks
    if "mass" not in parts.plans:
        parts.plans["mass"] = _uncounted(parts, len(coef))
    mass = np.sqrt(np.vdot(parts.plans["mass"], coef.real ** 2 + coef.imag ** 2))
    _gram_gate(miss, bound, float(mass))
    return project, section, scale, bound


def _pairs(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All index pairs (e, j) with keys[e] == values[j], e ascending."""
    order = np.argsort(values, kind="stable")
    lo, hi = (np.searchsorted(values[order], keys, side) for side in ("left", "right"))
    count = hi - lo
    e = np.repeat(np.arange(len(keys)), count)
    j = order[np.arange(count.sum()) + np.repeat(lo - np.cumsum(count) + count, count)]
    return e, j


def _gather_plan(H: Correspondence, side: str, sel: np.ndarray, dK: int, fused_units):
    """Index data of _gathered_generators: per moved column its unit, its
    slot, the coordinate project's column is read at and the column; the
    fused units' entries with their slots; and the number of slots."""
    fused = len(sel)
    k, t, s = table_units(H.left_algebra, H.right_algebra, H.table, side, generators=True)
    outer, inner = np.divmod(sel, dK)
    at, rest = (outer, inner) if side == "left" else (inner, outer)
    e, j = _pairs(s, at)
    dest = t[e] * dK + rest[j] if side == "left" else rest[j] * dK + t[e]
    fk, ft, fs = fused_units
    moved, held = k[e] * fused + j, fk * fused + fs
    # sorted, each once: np.unique would import numpy.ma on its first call
    keys = np.sort(np.concatenate([moved, held]))
    keys = keys[np.diff(keys, prepend=-1) != 0]
    first = keys // fused
    slot = np.arange(len(keys)) - np.searchsorted(first, first)
    return ((k[e], slot[np.searchsorted(keys, moved)], dest, j),
            (fk, ft, slot[np.searchsorted(keys, held)]), int(np.max(slot, initial=-1)) + 1)


def _gathered_generators(H: Correspondence, side: str, plan, project: np.ndarray,
                         scale: np.ndarray) -> np.ndarray:
    """project.(U_g (x) 1).section for side "left", or project.(1 (x) U_g).section
    for side "right", less the fused unit g, for each generating unit U_g
    of the table H on that side, section scale at S's coordinates and plan
    their _gather_plan.

    U_g sends one basis vector to one other, so column j is scale_j times
    project's column at the coordinate U_g moves S's column j to, or zero.
    Unit g keeps the columns that move or hold an entry of the fused unit,
    the others being zero in both, padded with zero columns: no norm
    changes.
    """
    (k, slot, dest, j), held, width = plan
    gens = H.left_algebra if side == "left" else H.right_algebra
    off = np.zeros((len(gens.generator_units), len(project), width), dtype=np.complex128)
    off[k, :, slot] = (project[:, dest] * scale[j]).T
    off[held] -= 1.0
    return off


def connes_fusion(H: Correspondence, K: Correspondence,
                  std_N: StandardFormData,
                  cap: int = FUSION_DIM_CAP) -> FusionResult:
    """Fuse an (M, N)- with an (N, P)-correspondence over N.

    corr is block_correspondence(M, P, mult(H).mult(K)), built from that
    table alone, its stacks written on first read.  RuntimeError is
    raised by a block constant c_j at or below DEFAULT_TOL.max(max c, 1),
    |G - project*.project| above bound = DEFAULT_TOL.max(|project|^2, 1)
    (G's top eigenvalue), or a compressed generating unit further than
    bound from the fused one: operator norms behind a Frobenius screen.
    The tables are fused by components, with no ambient G and no unit
    stack, and project and section are conjugated by the factors' frames
    (see the module docstring).
    """
    N = std_N.algebra
    if H.right_algebra != N or K.left_algebra != N:
        raise AlgebraMismatch("fusion factors do not share the middle algebra")
    ambient = H.dim * K.dim
    if ambient > cap:
        raise CapExceeded(f"ambient tensor dimension {ambient} exceeds {cap}")

    M, P = H.left_algebra, K.right_algebra
    # R[a] is r_eta of basis vector a of H's table
    R = _creation_operators(Correspondence._lawful(M, N, H.table), std_N)
    # coordinates lam_inv.R_a*.R_c.Lambda(1) of the middle element of (a, c)
    coef = (R @ std_N.cyclic_vector()) @ (R.conj() @ std_N.lam_inv.T)
    parts = _components(M, N, P, H.table, K.table)
    project, section, scale, bound = _component_quotient(parts, coef, ambient)
    table = tuple(tuple(sum(h * k for h, k in zip(row, col)) for col in zip(*K.table))
                  for row in H.table)
    # compressed generating units less the fused ones, 1 at their index
    # data, one side at a time
    for factor, side in ((H, "left"), (K, "right")):
        if side not in parts.plans:
            parts.plans[side] = _gather_plan(factor, side, parts.sel, K.dim, table_units(
                M, P, table, side, generators=True))
        off = _gathered_generators(factor, side, parts.plans[side], project, scale)
        if norm_exceeds(off, bound):
            raise RuntimeError(f"fusion compression residual {max_operator_norm(off):.3g} "
                               f"exceeds {bound:.3g}: the reduced basis is not in the "
                               f"fused basis order")
        del off
    if H.frame is not None or K.frame is not None:
        # the factors' basis vectors x (x) y are W_H.x_t (x) W_K.y_t
        frames = [X.dim if X.frame is None else X.frame for X in (H, K)]
        section = kron_sandwich(None, *frames, section)
        project = kron_sandwich(None, *frames, project.conj().T).conj().T
    corr = Correspondence._lawful(M, P, table,
                                  f"({H.name}*{K.name})" if H.name and K.name else "")
    return FusionResult(corr=corr, project=project, section=section,
                        left_factor=H, right_factor=K)


def left_unitor(K: Correspondence, std_M: StandardFormData,
                fusion: FusionResult | None = None) -> Intertwiner:
    """The intertwiner L2(M) fused with K -> K, Lambda(x) (x) zeta -> x.zeta.

    Block u of its ambient matrix is K.pi_l of Lambda^{-1} of basis vector
    u, all blocks one K.unit_sum.  fusion, if given, must fuse L2(M) with K.
    """
    if fusion is None:
        fusion = connes_fusion(identity_correspondence(std_M), K, std_M)
    elif not fusion.fuses(identity_correspondence(std_M), K):
        raise ValueError("fusion data does not match the unitor factors")
    A = K.unit_sum("left", std_M.lam_inv.T).transpose(1, 0, 2)
    return Intertwiner(fusion.corr, K, A.reshape(K.dim, std_M.dim * K.dim) @ fusion.section)


def right_unitor(H: Correspondence, std_N: StandardFormData,
                 fusion: FusionResult | None = None) -> Intertwiner:
    """The intertwiner H fused with L2(N) -> H.

    An elementary tensor eta (x) Lambda(y) lands on eta acted on the right
    by the modular twist of y; when the state is tracial the twist is the
    identity and the map reduces to eta (x) Lambda(y) -> eta . y.  fusion,
    if given, must fuse H with L2(N).
    """
    if fusion is None:
        fusion = connes_fusion(H, identity_correspondence(std_N), std_N)
    elif not fusion.fuses(H, identity_correspondence(std_N)):
        raise ValueError("fusion data does not match the unitor factors")
    # column a * n + v is column a of H.pi_r(twist of Lambda^{-1}(e_v))
    twists = std_N.delta_minus_half @ std_N.lam_inv
    A = H.unit_sum("right", twists.T).transpose(1, 2, 0)
    return Intertwiner(fusion.corr, H, A.reshape(H.dim, H.dim * std_N.dim) @ fusion.section)


def associator(f_ab: FusionResult, f_ab_c: FusionResult,
               f_bc: FusionResult, f_a_bc: FusionResult) -> Intertwiner:
    """The rebracketing intertwiner (H * K) * L -> H * (K * L).

    Quotient representatives are rebracketed in the ambient triple tensor
    and re-projected; the four fusion results must share their factors
    (correspondences_close).
    """
    if not correspondences_close(f_bc.left_factor, f_ab.right_factor):
        raise ValueError("inner factors disagree")
    if not f_ab_c.fuses(f_ab.corr, f_bc.right_factor):
        raise ValueError("left-bracketed fusion does not match")
    if not f_a_bc.fuses(f_ab.left_factor, f_bc.corr):
        raise ValueError("right-bracketed fusion does not match")
    dH, dL = f_ab.left_dim, f_bc.right_dim
    rebracketed = kron_sandwich(None, f_ab.section, dL, f_ab_c.section)
    mat = kron_sandwich(f_a_bc.project, dH, f_bc.project, rebracketed)
    return Intertwiner(f_ab_c.corr, f_a_bc.corr, mat)


def _balancing_draws(dH: int, dK: int, N: MultiMatrixAlgebra, rng, samples: int):
    """(eta, zeta, n), one row per sample: complex vectors of dimensions dH
    and dK and the unit coordinates of an element of N, all from one draw.

    Row s of the draw is read in the order of drawing one sample at a time,
    eta's real and imaginary parts, zeta's, then each block's, so the values
    are those of that loop bit for bit (Generator.normal is 0 + 1 times a
    standard normal); a block's entries are its units in basis order.
    """
    sizes = [2 * dH, 2 * dK] + [2 * n * n for n in N.block_sizes]
    parts = np.split(rng.standard_normal((samples, sum(sizes))), np.cumsum(sizes)[:-1], axis=1)
    eta, zeta, *blocks = (re + 1j * im for re, im in (np.split(x, 2, axis=1) for x in parts))
    return eta, zeta, np.concatenate(blocks, axis=1)


def twisted_balancing_residual(fus: FusionResult, std_N: StandardFormData,
                               rng, samples: int = 100) -> float:
    """Worst deviation of the twisted middle-slide identities on samples.

    Sliding a middle-algebra element across the fusion sign picks up a
    modular twist: eta.n (x) zeta matches eta (x) twist_+(n).zeta, and
    eta (x) n.zeta matches twist_-(n).eta (x) zeta.  The samples are drawn
    at once (_balancing_draws) and evaluated as one stack; fewer than one
    sample is a ValueError, as it would check nothing.
    """
    if samples < 1:
        raise ValueError(f"balancing needs at least one sample, not {samples}")
    H, K, N = fus.left_factor, fus.right_factor, std_N.algebra
    eta, zeta, n = _balancing_draws(H.dim, K.dim, N, rng, samples)
    plus, minus = std_N.delta_half, std_N.delta_minus_half

    def act(X, side, coords, vecs):
        return (X.unit_sum(side, coords) @ vecs[:, :, None])[:, :, 0]

    v = fus.pure(act(H, "right", n, eta), zeta) \
        - fus.pure(eta, act(K, "left", n @ plus.T, zeta))
    w = fus.pure(eta, act(K, "left", n, zeta)) \
        - fus.pure(act(H, "right", n @ minus.T, eta), zeta)
    return float(np.max(np.linalg.norm(np.concatenate([v, w]), axis=1)))
