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
L2's basis (twisted by Δ^{-1/2} on the right) the unitors.  Factors are
read only through Correspondence, which chooses between a table's index
data and a stack.

The quotient is exact: with p_b = e_{b00} in middle block b, the fused
space is the sum over b of (H.p_b) (x) (p_b.K) (Sauvageot, J. Operator
Theory 9, 1983) and multiplicities multiply (Jones and Sunder,
Introduction to Subfactors, ch. 1-2), so it is block_correspondence of
mult(H).mult(K), and the state enters only project and section.  The
result carries that table alone and writes its stacks on first read; the
gate below reads the fused generating units as their index data.  S, the
products of orthonormal frame bases of H.p_b and p_b.K in that basis
order, has S*.G.S = c_b on block b (p_b is minimal): section = S.c^{-1/2},
project = c^{-1/2}.S*.G (G's Hermitian part).  Three gates carry this:
every c_j is positive; |G - project*.project| bounds how far G is from
Hermitian, positive and spanned by S, and S*.G.S from diagonal; and the
generating units of either side compress to the fused ones, so every
unit does, both being *-representations; the gate takes one side at a
time.

Two block correspondences that hold their tables' frames are fused with
no ambient G and no unit stack (Connes, Noncommutative Geometry, ch. V,
appendix B, for the block structure).  G[(a, t), (c, s)] is coef[a, c, k]
for the unit k of K sending s to t, and coef[a, c, u] vanishes unless a
and c lie in one right orbit of H (the slots (i, .) of one copy of a
block pair (., b)) and u in that middle block b: both factors' unit
images are partial permutations and the standard form's matrices have
exact zeros across blocks, and the fusion checks those zeros of coef on
each call, taking the dense route if one fails.  So G vanishes off the
components, the products of one right orbit of H and one left orbit of
K (the slots (., j) of a copy of a pair (b, .)) over one middle block,
at most max n_b^2 coordinates each.  S's columns are each one ambient
coordinate, node (0, 0) of one component: the fused basis vectors are
the components (_components).  Row j of project is G's row and column
at S's coordinate, so it lies in that coordinate's component, and
project*.project, like G, vanishes off the components: |G -
project*.project| is the largest residual of one component, measured on
one stack of the blocks, and |project| the largest of one component's
rows.  Each entry of G, project and section keeps its one term, so they
are the dense route's values bit for bit up to the sign of zeros.  The
compression gate gathers: U_g (x) 1 moves one coordinate of each column
of section, so project.(U_g (x) 1).section is a column gather of
project, kept on the columns that move or that the fused unit has an
entry in.  Kronecker factors are otherwise applied by reshaping
(numkernel.kron_sandwich) or, for a factor with a table, by moving rows,
never formed.  A factor with no table or with frames a caller replaced
takes the dense route: G, its Hermitian part and residual in full, and
one (generators, ambient, fused) stack per side.
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
    operator_norm,
)
from .algebras import MultiMatrixAlgebra, table_dim, table_units
from .correspondences import (
    Correspondence,
    Intertwiner,
    _generators_on_section,
    _holds_table_frames,
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
    correspondence that hold their tables' frames (_components).

    Component j is fused basis vector j: right orbit (copy s, row i) of
    H's block pair (a, b) times left orbit (copy t, column j) of K's pair
    (b, d), over middle block b of size n.  Node (p, q), at p.n + q, is
    the ambient coordinate of H's slot (i, p) times K's slot (q, j), and
    node (0, 0) is S's column j.  The (fused, m) arrays, m the largest
    n^2, are padded past n^2.  plans keeps what the fusion derives from
    S's coordinates when they are sel (_planned).
    """

    nodes: np.ndarray    # ambient coordinate of each node
    valid: np.ndarray    # False on the padding
    vec: np.ndarray      # H's basis vector of each node, slot (i, p)
    unit: np.ndarray     # N's unit index of e_{b q 0}: e_{b q q'} is unit + q'
    col: np.ndarray      # q of each node
    comp: np.ndarray     # (ambient,): each coordinate's component, -1 off all
    node: np.ndarray     # (ambient,): its node there
    outside: np.ndarray  # (dim H, dim H, units of N): where coef vanishes by construction
    pads: np.ndarray | None  # (fused, m, m): the padding of the blocks, None if there is none
    plans: dict = field(default_factory=dict)

    @property
    def sel(self) -> np.ndarray:
        """S's coordinate in each column."""
        return self.nodes[:, 0]


@lru_cache(maxsize=512)
def _components(M: MultiMatrixAlgebra, N: MultiMatrixAlgebra, P: MultiMatrixAlgebra,
                h_table, k_table) -> _Components:
    """The components of H (x) K for tables h_table and k_table, in the fused
    basis order of _reduced_basis.  The latest 512 calls keep theirs: per
    call 5.fused.m + 2.dim H.dim K ints, dim H^2 times N's units bools and
    the gather plans, 0.48 MB for L²(M_8) (x) L²(M_8), where one unit stack
    of L²(M_8) is 4.2 MB."""
    ns = N.block_sizes
    dH, dK = table_dim(M, N, h_table), table_dim(N, P, k_table)
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
    comp, node = np.full((2, dH * dK), -1)
    comp[nodes[valid]], node[nodes[valid]] = np.nonzero(valid)
    # right orbits of H, as the index of their first vector, and their middle blocks
    orbit, mid = np.empty((2, dH), dtype=int)
    for a, na in enumerate(M.block_sizes):
        for b, n in enumerate(ns):
            r = np.arange(h_table[a][b] * na * n)
            orbit[h_starts[a][b] + r] = h_starts[a][b] + r - r % n
            mid[h_starts[a][b] + r] = b
    blocks = np.repeat(np.arange(len(ns)), np.square(ns))
    outside = ~((orbit[:, None] == orbit)[:, :, None] & (mid[:, None] == blocks)[:, None, :])
    pads = None if valid.all() else ~(valid[:, :, None] & valid[:, None, :])
    for x in (nodes, valid, vec, unit, col, comp, node, outside, pads):
        if x is not None:
            x.flags.writeable = False
    return _Components(nodes, valid, vec, unit, col, comp, node, outside, pads)


def _planned(parts: _Components, own: bool, key, build):
    """build(), kept in parts.plans under key when S's coordinates are
    parts.sel (own)."""
    if not own:
        return build()
    if key not in parts.plans:
        parts.plans[key] = build()
    return parts.plans[key]


def _reduced_basis(H: Correspondence, K: Correspondence) -> np.ndarray:
    """S, orthonormal ambient columns x (x) y in the fused basis order: per
    outer block pair (a, d) and middle block b, slot (i, 0) of H's (a, b)
    frames times slot (0, j) of K's (b, d) frames, columns (copy s, copy t,
    i, j), so copy k of (a, d) in the fused basis is (b, s, t).  On block
    correspondences the frames are the tables' coordinate columns, so S is
    0/1 and its copies come in table order; on two that hold their tables'
    frames it is written from the components' coordinates, no frame read."""
    if _holds_table_frames(H) and _holds_table_frames(K):
        sel = _components(H.left_algebra, H.right_algebra, K.right_algebra,
                          H.table, K.table).sel
        S = np.zeros((H.dim * K.dim, len(sel)), dtype=np.complex128)
        S[sel, np.arange(len(sel))] = 1.0
        return S
    ns, ps = H.right_algebra.block_sizes, K.right_algebra.block_sizes
    Xs = [[F[:, :, ::n].transpose(1, 0, 2)[:, None, :, None, :, None]
           for F, n in zip(row, ns)] for row in H.frames]
    Ys = [[F[:, :, :p].transpose(1, 0, 2)[None, :, None, :, None, :]
           for F, p in zip(row, ps)] for row in K.frames]
    parts = [X * Ys[b][d] for row in Xs for d in range(len(ps)) for b, X in enumerate(row)]
    return np.concatenate([xy.reshape(H.dim * K.dim, np.prod(xy.shape[2:], dtype=int))
                           for xy in parts], axis=1)


def _coordinates(S: np.ndarray) -> np.ndarray | None:
    """The ambient coordinate of each column of S if S is a 0/1 coordinate
    selection, one entry 1 per column, else None."""
    cols, rows = np.nonzero(S.T)
    if not np.array_equal(cols, np.arange(S.shape[1])) or np.any(S[rows, cols] != 1.0):
        return None
    return rows


def _block_scales(c: np.ndarray) -> np.ndarray:
    """c^{-1/2} for the block constants c, RuntimeError unless each is above
    DEFAULT_TOL.max(max c, 1)."""
    cut = DEFAULT_TOL * max(np.max(c, initial=0.0), 1.0)
    if np.any(c <= cut):
        raise RuntimeError(f"fusion block constant {np.min(c):.3g} is not "
                           f"above {cut:.3g}: a reduced basis vector is null")
    return 1.0 / np.sqrt(c)


def _gram_gate(miss: np.ndarray, bound: float) -> None:
    """RuntimeError if the Gram residual miss, a matrix or a stack of
    blocks, is above bound in operator norm."""
    if norm_exceeds(miss, bound):
        top = max_operator_norm(miss.reshape((-1,) + miss.shape[-2:]))
        raise RuntimeError(f"fusion Gram residual {top:.3g} exceeds {bound:.3g}: the "
                           f"reduced quotient does not span the Gram matrix")


def _dense_quotient(coef: np.ndarray, S: np.ndarray, K: Correspondence):
    """(project, section, bound) from the ambient Gram matrix G, its
    Hermitian part and the residual, all formed, with the first two gates."""
    ambient = S.shape[0]
    # G[(a, b), (c, d)] = sum_u coef[a, c, u].pi_l(e_u)[b, d]
    G = K.unit_sum("left", coef).transpose(0, 2, 1, 3).reshape(ambient, ambient)
    # project reads (G + G*)/2, halved after the product; the residual reads G
    Gh = np.conjugate(G.T, order="C")
    Gh += G
    SG = (S.conj().T @ Gh) * 0.5
    del Gh
    # S*.G.S is c_b times the identity on middle block b: its diagonal
    scale = _block_scales(np.einsum("ji,ij->j", SG, S).real)
    section, project = S * scale, SG * scale[:, None]
    # project*.project is G once S spans it, so its top eigenvalue is G's
    bound = DEFAULT_TOL * max(operator_norm(project) ** 2, 1.0)
    miss = project.conj().T @ project
    miss -= G
    del G
    _gram_gate(miss, bound)
    return project, section, bound


def _component_quotient(parts: _Components, coef: np.ndarray, sel: np.ndarray, own: bool):
    """(project, section, scale, bound) from G's components, S's columns the
    coordinates sel, own if they are parts.sel, with the first two gates
    (see the module docstring)."""
    fused, ambient = len(sel), len(parts.comp)
    # G on each component, and one zero block for coordinates off them
    blocks = np.zeros((len(parts.nodes) + 1,) + parts.vec.shape[1:] * 2, dtype=np.complex128)
    blocks[:-1] = coef[parts.vec[:, :, None], parts.vec[:, None, :],
                       parts.unit[:, :, None] + parts.col[:, None, :]]
    if parts.pads is not None:
        blocks[:-1][parts.pads] = 0.0
    comp, node = parts.comp[sel], parts.node[sel]
    # row j of (G + G*)/2 at sel_j, on its component: G's row and column there
    rows = (blocks[comp, node] + blocks[comp, :, node].conj()) * 0.5
    # S*.G.S is c_b times the identity on middle block b: its diagonal
    scale = _block_scales(rows[np.arange(fused), node].real)
    rows *= scale[:, None]
    on = parts.valid[comp]
    project = np.zeros((fused, ambient), dtype=np.complex128)
    project[np.nonzero(on)[0], parts.nodes[comp][on]] = rows[on]
    section = np.zeros((ambient, fused), dtype=np.complex128)
    section[sel, np.arange(fused)] = scale
    # project*.project on each component, its rows' outer products there;
    # |project| is its largest component's, a row's norm if each has one
    outer = rows.conj()[:, :, None] @ rows[:, None, :]
    gram = np.zeros_like(blocks[:-1])
    if own or not np.any(np.diff(np.sort(comp)) == 0):
        gram[comp] = outer
        top = np.linalg.norm(rows, axis=1)
    else:
        np.add.at(gram, comp, outer)
        top = np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0))
    bound = DEFAULT_TOL * max(float(np.max(top, initial=0.0)) ** 2, 1.0)
    gram -= blocks[:-1]
    _gram_gate(gram, bound)
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
    Two factors that hold their tables' frames are fused by components,
    with no ambient G and no unit stack (see the module docstring).
    """
    N = std_N.algebra
    if H.right_algebra != N or K.left_algebra != N:
        raise AlgebraMismatch("fusion factors do not share the middle algebra")
    ambient = H.dim * K.dim
    if ambient > cap:
        raise CapExceeded(f"ambient tensor dimension {ambient} exceeds {cap}")

    # R[a] is r_eta of basis vector a
    R = _creation_operators(H, std_N)
    # coordinates lam_inv.R_a*.R_c.Lambda(1) of the middle element of (a, c)
    coef = (R @ std_N.cyclic_vector()) @ (R.conj() @ std_N.lam_inv.T)
    S = _reduced_basis(H, K)
    M, P = H.left_algebra, K.right_algebra
    parts = _components(M, N, P, H.table, K.table) \
        if _holds_table_frames(H) and _holds_table_frames(K) else None
    sel = None if parts is None or coef[parts.outside].any() else _coordinates(S)
    if sel is None:
        project, section, bound = _dense_quotient(coef, S, K)
    else:
        own = np.array_equal(sel, parts.sel)
        project, section, scale, bound = _component_quotient(parts, coef, sel, own)
    del S
    table = tuple(tuple(sum(h * k for h, k in zip(row, col)) for col in zip(*K.multiplicities))
                  for row in H.multiplicities)
    # compressed generating units less the fused ones, 1 at their index
    # data, one side at a time
    for factor, side, other in ((H, "left", K.dim), (K, "right", H.dim)):
        fused_units = table_units(M, P, table, side, generators=True)
        if sel is None:
            off = project @ _generators_on_section(factor, side, section, other)
            off[fused_units] -= 1.0
        else:
            plan = _planned(parts, own, side, lambda: _gather_plan(
                factor, side, sel, K.dim, fused_units))
            off = _gathered_generators(factor, side, plan, project, scale)
        if norm_exceeds(off, bound):
            raise RuntimeError(f"fusion compression residual {max_operator_norm(off):.3g} "
                               f"exceeds {bound:.3g}: the reduced basis is not in the "
                               f"fused basis order")
        del off
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
