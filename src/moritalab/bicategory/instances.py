"""Concrete cell suppliers for the coherence engine.

Two worlds plug into the same checks: bimodules over finite rings with
tensor product as composition (equalities exact), and correspondences
over multi-matrix algebras with fusion as composition (equalities up to
an operator-norm tolerance).

Each instance composes each distinct pair of 1-cells once.  The checks
compose many pairs with equal content: P.I presents P itself on most
ring chains and I.Q always presents Q, so (P.I).Q repeats P.Q, and
(PQ)R equals P(QR) as a presentation; a coherence-batch pass at seed 7
composes 901 ring pairs of which 476 are distinct, and 511 W* pairs of
which 248 are.  So compose keeps its latest _MEMO_SIZE composites,
keyed by exact content, never by a bare hash: on the ring side both
cells' rings, carriers and reduced action stacks as exact integers, so
a dict hit is confirmed by full equality; on the W* side (M, N, P,
H.table, K.table), kept only when neither factor has a frame, as such a
fusion depends on nothing else but the instance's one standard form of
N.  Checked input, which has a frame, is fused on every call.  A
hit is what a fresh compose returns, field for field: a new composite
whose factors are the caller's own cells and whose cell carries the
name a fresh compose gives it, sharing the stored presentation's
read-only arrays.  The composability and cap checks run first and a
compose that raises keeps nothing.  The bound is least recently used
and fixed: 64 entries add under 1 MB to coherence-batch's peak memory,
where keeping every composite added about 6 MB, a tenth of it.
"""

from __future__ import annotations

import copy
from collections import OrderedDict

import numpy as np

from ..errors import CapExceeded, NotComposable
from ..exact import as_int
from ..numkernel import DEFAULT_TOL, kron_sandwich, operator_norm
from ..rings.base import FiniteRing
from ..rings.bimodules import (
    Bimodule,
    BimoduleMap,
    identity_map,
    maps_equal,
    regular_bimodule,
)
from ..rings.hom import bimodule_isomorphic, hom_group
from ..rings.tensor import (
    TensorProduct,
    left_unitor as ring_left_unitor,
    right_unitor as ring_right_unitor,
    tensor_associator,
    tensor_of_maps,
    tensor_product,
)
from ..wstar.algebras import MultiMatrixAlgebra, State, trace_state
from ..wstar.correspondences import (
    Correspondence,
    Intertwiner,
    block_correspondence,
    correspondences_close,
    identity_correspondence,
    intertwiner_basis,
    unitary_intertwiner,
)
from ..wstar import fusion as wf
from ..wstar.standard import StandardFormData, gns_standard_form

_MEMO_SIZE = 64


class _Memo(OrderedDict):
    """The latest _MEMO_SIZE composites by key, the least recently used dropped first."""

    def recall(self, key):
        found = self.get(key)
        if found is not None:
            self.move_to_end(key)
        return found

    def keep(self, key, value) -> None:
        self[key] = value
        if len(self) > _MEMO_SIZE:
            self.popitem(last=False)


class _Key(tuple):
    """A content key hashed once, not at each of compose's dict calls."""

    def __new__(cls, *parts):
        key = super().__new__(cls, parts)
        key.hash = tuple.__hash__(key)
        return key

    def __hash__(self) -> int:
        return self.hash


def _content(P: Bimodule) -> tuple:
    """P's rings, carrier and reduced stacks as exact integers: equal keys
    are equal bimodules, the name aside."""
    return (P.left_ring, P.right_ring, P.carrier.invariant_factors,
            tuple(P.left_action.ravel().tolist()), tuple(P.right_action.ravel().tolist()))


class RingsBicategory:
    """Bimodules over finite rings; 2-cell equality is exact.

    compose keeps the latest composites by the content of both cells (see
    the module docstring) and hands out a new TensorProduct on the
    caller's cells for each repeat.
    """

    def __init__(self, rank_cap: int = 4096):
        self.rank_cap = rank_cap
        self._composites = _Memo()

    def dom(self, P: Bimodule) -> FiniteRing:
        return P.left_ring

    def cod(self, P: Bimodule) -> FiniteRing:
        return P.right_ring

    def identity(self, R: FiniteRing) -> Bimodule:
        return regular_bimodule(R)

    def compose(self, P: Bimodule, Q: Bimodule) -> TensorProduct:
        if P.right_ring != Q.left_ring:
            raise NotComposable("middle rings differ")
        if P.rank * Q.rank > self.rank_cap:
            raise CapExceeded("ambient tensor generator count exceeds the cap")
        key = _Key(_content(P), _content(Q))
        tp = self._composites.recall(key)
        if tp is None:
            tp = tensor_product(P, Q)
            for m in (tp.projection.matrix, tp.projection.section_matrix,
                      tp.projection.relations):
                m.array.flags.writeable = False
            self._composites.keep(key, tp)
            return tp
        module = copy.copy(tp.module)
        vars(module).update(left_ring=P.left_ring, right_ring=Q.right_ring,
                            name=f"{P.name}(x){Q.name}" if P.name and Q.name else "")
        return TensorProduct(P, Q, module, tp.projection, tp.ambient_moduli)

    def cell(self, comp: TensorProduct) -> Bimodule:
        return comp.module

    def associator(self, c_ab, c_ab_c, c_bc, c_a_bc) -> BimoduleMap:
        return tensor_associator(c_ab, c_ab_c, c_bc, c_a_bc)

    def left_unitor(self, c_iq: TensorProduct) -> BimoduleMap:
        return ring_left_unitor(c_iq)

    def right_unitor(self, c_pi: TensorProduct) -> BimoduleMap:
        return ring_right_unitor(c_pi)

    def identity_2cell(self, P: Bimodule) -> BimoduleMap:
        return identity_map(P)

    def vcompose(self, g: BimoduleMap, f: BimoduleMap) -> BimoduleMap:
        return g.after(f)

    def hcomp_left(self, f: BimoduleMap, c_src: TensorProduct,
                   c_dst: TensorProduct) -> BimoduleMap:
        return tensor_of_maps(c_src, c_dst, f, identity_map(c_src.right_factor))

    def hcomp_right(self, c_src: TensorProduct, c_dst: TensorProduct,
                    f: BimoduleMap) -> BimoduleMap:
        return tensor_of_maps(c_src, c_dst, identity_map(c_src.left_factor), f)

    def cells_equal(self, f: BimoduleMap, g: BimoduleMap):
        same = maps_equal(f, g)
        return same, 0.0 if same else 1.0

    def find_iso(self, X: Bimodule, Y: Bimodule):
        return bimodule_isomorphic(X, Y)

    def invertible_2cell(self, f: BimoduleMap) -> bool:
        return f.is_bijective()

    def random_endo_2cell(self, P: Bimodule, rng) -> BimoduleMap:
        # a uniform element of the two-sided End(P), not just a scalar
        H = hom_group(P, P, side="both")
        return H.from_coordinates([int(rng.integers(0, d))
                                   for d in H.group.invariant_factors])


class WStarBicategory:
    """Correspondences over multi-matrix algebras, compared in operator norm.

    Standard forms (one per algebra) are built lazily from the supplied
    states and cached, so every composite over the same middle algebra
    reuses one relative-tensor presentation; L²(A), lawful by construction,
    never checked and with no stack until one is read, is cached with its
    standard form and reused by every triangle and unitor check.  Next to
    them compose keeps the latest fusions of two correspondences with no
    frame by (M, N, P, H.table, K.table) (see the module docstring).  tol
    gates only cells_equal, the measured discrepancy of a coherence law;
    fusion gates and invertibility use the fixed cutoff DEFAULT_TOL.
    find_iso decides by multiplicity and builds its unitary from the frames.
    """

    def __init__(self, states: dict[MultiMatrixAlgebra, State] | None = None,
                 tol: float = DEFAULT_TOL):
        self.tol = tol
        self._states = dict(states) if states else {}
        self._std: dict[MultiMatrixAlgebra, StandardFormData] = {}
        self._l2: dict[MultiMatrixAlgebra, Correspondence] = {}
        self._composites = _Memo()

    def standard_form(self, A: MultiMatrixAlgebra) -> StandardFormData:
        if A not in self._std:
            self._std[A] = gns_standard_form(A, self._states.get(A) or trace_state(A))
        return self._std[A]

    def dom(self, P: Correspondence) -> MultiMatrixAlgebra:
        return P.left_algebra

    def cod(self, P: Correspondence) -> MultiMatrixAlgebra:
        return P.right_algebra

    def identity(self, A: MultiMatrixAlgebra) -> Correspondence:
        if A not in self._l2:
            self._l2[A] = identity_correspondence(self.standard_form(A))
        return self._l2[A]

    def compose(self, P: Correspondence, Q: Correspondence) -> wf.FusionResult:
        if P.right_algebra != Q.left_algebra:
            raise NotComposable("middle algebras differ")
        std_N = self.standard_form(P.right_algebra)
        if P.frame is not None or Q.frame is not None:
            return wf.connes_fusion(P, Q, std_N)
        key = (P.left_algebra, P.right_algebra, Q.right_algebra, P.table, Q.table)
        fus = self._composites.recall(key)
        if fus is None:
            fus = wf.connes_fusion(P, Q, std_N)
            fus.project.flags.writeable = fus.section.flags.writeable = False
            self._composites.keep(key, fus)
            return fus
        corr = block_correspondence(P.left_algebra, Q.right_algebra, fus.corr.table,
                                    f"({P.name}*{Q.name})" if P.name and Q.name else "")
        return wf.FusionResult(corr=corr, project=fus.project, section=fus.section,
                               left_factor=P, right_factor=Q)

    def cell(self, comp: wf.FusionResult) -> Correspondence:
        return comp.corr

    def associator(self, c_ab, c_ab_c, c_bc, c_a_bc) -> Intertwiner:
        return wf.associator(c_ab, c_ab_c, c_bc, c_a_bc)

    def left_unitor(self, c_iq: wf.FusionResult) -> Intertwiner:
        K = c_iq.right_factor
        return wf.left_unitor(K, self.standard_form(K.left_algebra), c_iq)

    def right_unitor(self, c_pi: wf.FusionResult) -> Intertwiner:
        H = c_pi.left_factor
        return wf.right_unitor(H, self.standard_form(H.right_algebra), c_pi)

    def identity_2cell(self, P: Correspondence) -> Intertwiner:
        return Intertwiner(P, P, np.eye(P.dim))

    def vcompose(self, g: Intertwiner, f: Intertwiner) -> Intertwiner:
        return g.compose(f)

    def hcomp_left(self, f: Intertwiner, c_src: wf.FusionResult,
                   c_dst: wf.FusionResult) -> Intertwiner:
        if not (c_src.fuses(f.source, c_dst.right_factor)
                and correspondences_close(f.target, c_dst.left_factor)):
            raise NotComposable("composites do not fuse the 2-cell's ends with one right leg")
        mat = kron_sandwich(c_dst.project, f.matrix, c_src.right_dim, c_src.section)
        return Intertwiner(c_src.corr, c_dst.corr, mat)

    def hcomp_right(self, c_src: wf.FusionResult, c_dst: wf.FusionResult,
                    f: Intertwiner) -> Intertwiner:
        if not (c_src.fuses(c_dst.left_factor, f.source)
                and correspondences_close(f.target, c_dst.right_factor)):
            raise NotComposable("composites do not fuse one left leg with the 2-cell's ends")
        mat = kron_sandwich(c_dst.project, c_src.left_dim, f.matrix, c_src.section)
        return Intertwiner(c_src.corr, c_dst.corr, mat)

    def cells_equal(self, f: Intertwiner, g: Intertwiner):
        if not (correspondences_close(f.source, g.source)
                and correspondences_close(f.target, g.target)):
            return False, float("inf")
        disc = operator_norm(f.matrix - g.matrix)
        return disc <= self.tol, disc

    def find_iso(self, X: Correspondence, Y: Correspondence):
        found = unitary_intertwiner(X, Y)
        return None if found is None else Intertwiner(X, Y, found[0])

    def invertible_2cell(self, f: Intertwiner) -> bool:
        if f.matrix.shape[0] != f.matrix.shape[1]:
            return False
        if f.matrix.size == 0:
            return True
        s = np.linalg.svd(f.matrix, compute_uv=False)
        return bool(s[-1] > DEFAULT_TOL * s[0])

    def random_endo_2cell(self, P: Correspondence, rng) -> Intertwiner:
        basis = intertwiner_basis(P, P)
        k = basis.shape[1]
        if k == 0:
            return self.identity_2cell(P)
        coeffs = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        mat = (basis @ coeffs).reshape(P.dim, P.dim)
        top = operator_norm(mat)
        if top > 0:
            mat = mat / top
        return Intertwiner(P, P, mat)


def sample_wstar_chain(rng, length: int, dim_cap: int = 24):
    """A composable chain of multiplicity correspondences, dims summing
    under the cap.  Returns (algebras, cells).

    A length that is not an integer of at least 1 raises ValueError, and
    as every cell has dimension at least 1, a cap below the length
    CapExceeded, both before anything is drawn.
    """
    length = as_int(length)
    if length < 1:
        raise ValueError(f"a chain needs at least one cell, got length {length}")
    if dim_cap < length:
        raise CapExceeded(
            f"a chain of {length} cells needs a dimension cap of at least "
            f"{length}, got {dim_cap}")
    patterns = [(1,), (2,), (1, 1), (3,), (2, 1)]
    while True:
        algs = [MultiMatrixAlgebra(tuple(patterns[rng.integers(len(patterns))]))
                for _ in range(length + 1)]
        cells = []
        total = 0
        for A, B in zip(algs, algs[1:]):
            mult = [[int(rng.integers(0, 3)) for _ in B.block_sizes]
                    for _ in A.block_sizes]
            if not any(any(row) for row in mult):
                mult[0][0] = 1
            H = block_correspondence(A, B, mult)
            cells.append(H)
            total += H.dim
        if 0 < total <= dim_cap:
            return algs, cells
