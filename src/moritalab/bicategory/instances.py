"""Concrete cell suppliers for the coherence engine.

Two worlds plug into the same checks: bimodules over finite rings with
tensor product as composition (equalities exact), and correspondences
over multi-matrix algebras with fusion as composition (equalities up to
an operator-norm tolerance).
"""

from __future__ import annotations

import numpy as np

from ..errors import CapExceeded, NotComposable
from ..numkernel import DEFAULT_TOL, operator_norm
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


class RingsBicategory:
    """Bimodules over finite rings; 2-cell equality is exact."""

    def __init__(self, rank_cap: int = 4096):
        self.rank_cap = rank_cap

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
        return tensor_product(P, Q)

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
    reuses one relative-tensor presentation.  tol gates only cells_equal,
    the measured discrepancy of a coherence law; fusion ranks, unitary
    witnesses and invertibility use the fixed cutoff DEFAULT_TOL.
    """

    def __init__(self, states: dict[MultiMatrixAlgebra, State] | None = None,
                 tol: float = DEFAULT_TOL, seed: int = 0):
        self.tol = tol
        self.seed = seed
        self._states = dict(states) if states else {}
        self._std: dict[MultiMatrixAlgebra, StandardFormData] = {}
        self._ident: dict[MultiMatrixAlgebra, Correspondence] = {}

    def standard_form(self, A: MultiMatrixAlgebra) -> StandardFormData:
        if A not in self._std:
            phi = self._states.get(A) or trace_state(A)
            self._std[A] = gns_standard_form(A, phi)
        return self._std[A]

    def dom(self, P: Correspondence) -> MultiMatrixAlgebra:
        return P.left_algebra

    def cod(self, P: Correspondence) -> MultiMatrixAlgebra:
        return P.right_algebra

    def identity(self, A: MultiMatrixAlgebra) -> Correspondence:
        if A not in self._ident:
            self._ident[A] = identity_correspondence(self.standard_form(A))
        return self._ident[A]

    def compose(self, P: Correspondence, Q: Correspondence) -> wf.FusionResult:
        if P.right_algebra != Q.left_algebra:
            raise NotComposable("middle algebras differ")
        return wf.connes_fusion(P, Q, self.standard_form(P.right_algebra))

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
        d = c_src.right_dim
        if c_dst.right_dim != d:
            raise NotComposable("right legs of the composites differ")
        mat = c_dst.project @ np.kron(f.matrix, np.eye(d)) @ c_src.section
        return Intertwiner(c_src.corr, c_dst.corr, mat)

    def hcomp_right(self, c_src: wf.FusionResult, c_dst: wf.FusionResult,
                    f: Intertwiner) -> Intertwiner:
        d = c_src.left_dim
        if c_dst.left_dim != d:
            raise NotComposable("left legs of the composites differ")
        mat = c_dst.project @ np.kron(np.eye(d), f.matrix) @ c_src.section
        return Intertwiner(c_src.corr, c_dst.corr, mat)

    def cells_equal(self, f: Intertwiner, g: Intertwiner):
        if not (correspondences_close(f.source, g.source)
                and correspondences_close(f.target, g.target)):
            return False, float("inf")
        disc = operator_norm(f.matrix - g.matrix)
        return disc <= self.tol, disc

    def find_iso(self, X: Correspondence, Y: Correspondence):
        U = unitary_intertwiner(X, Y, seed=self.seed)
        return None if U is None else Intertwiner(X, Y, U)

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

    Every cell has dimension at least 1, so a cap below the length can
    never be met and raises CapExceeded before anything is drawn.
    """
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
