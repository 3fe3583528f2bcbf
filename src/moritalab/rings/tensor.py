"""Balanced tensor products of bimodules over a shared middle ring.

The tensor M (x)_S N is presented on the ambient group generated by the
generator pairs (i, j), with modulus gcd(ord e_i, ord e_j), modulo the
middle-linearity relations (e_i . s) (x) e_j = e_i (x) (s . e_j) taken over
the additive generators s of S.  Everything downstream (induced maps,
associators, unitors) factors through that presentation, and a map out of
the ambient group is well defined on the tensor exactly when it kills the
relation lattice basis the presentation keeps.

Every map here is a Kronecker formula on the pair index i * n_N + j, the
index of ``exact.kron`` and of ``wstar.fusion``: the relations of s are
the columns of rho_s (x) 1 - 1 (x) lambda_s, the actions are transported
as L (x) 1 and 1 (x) R, and the associator is
proj_{A(BC)} . (1_A (x) proj_{BC}) . (sec_{AB} (x) 1_C) . sec_{(AB)C}.
A Kronecker product is never formed to be multiplied: ``exact.kron_apply``
applies its factors one at a time, and the actions of one side are
transported in one product over the bimodule's action stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

import numpy as np

from ..errors import NotBalanced, RingMismatch
from ..exact import CokernelProjection, IntegerMatrix, SparseRows, cokernel, kron_apply
from .base import kron_difference_columns
from .bimodules import BOTH_SIDES, Bimodule, BimoduleMap, regular_bimodule


@dataclass
class TensorProduct:
    """Presentation of M (x)_S N together with its universal data."""

    left_factor: Bimodule
    right_factor: Bimodule
    module: Bimodule
    projection: CokernelProjection
    ambient_moduli: tuple[int, ...]

    @property
    def relation_matrix(self) -> IntegerMatrix:
        """Basis of the relation lattice: balancing relations and pair orders."""
        return self.projection.relations

    @property
    def ambient_size(self) -> int:
        return len(self.ambient_moduli)

    def ambient_index(self, i: int, j: int) -> int:
        return i * self.right_factor.rank + j

    def pure(self, m: Sequence[int], n: Sequence[int]) -> tuple[int, ...]:
        """Image of the pure tensor m (x) n in the quotient coordinates."""
        return self.projection.apply([a * b for a in m for b in n])


def tensor_product(M: Bimodule, N: Bimodule, name: str = "") -> TensorProduct:
    if M.right_ring != N.left_ring:
        raise RingMismatch("middle rings differ, cannot balance the tensor")
    nM, nN = M.rank, N.rank
    cM = M.carrier.invariant_factors
    cN = N.carrier.invariant_factors
    amb = nM * nN
    moduli = tuple(gcd(cM[i], cN[j]) for i in range(nM) for j in range(nN))

    # generator g relates column (i, j) of rho_g (x) 1 - 1 (x) lambda_g to
    # zero.  Relations only matter modulo the pair orders, which the
    # lattice holds; the pair order of (k, l) divides ord e_k and ord f_l,
    # so rho_g and lambda_g may be read modulo their row orders first.
    # Each distinct nonzero column is kept once, at its first (g, i, j),
    # and enters the presentation by its entries.
    relations: dict[frozenset[tuple[int, int]], None] = {}
    for _, col in kron_difference_columns(M.right_action, N.left_action):
        key = frozenset([(r, v % moduli[r]) for r, v in col.items() if v % moduli[r]])
        if key:
            relations[key] = None
    rows: list[dict[int, int]] = [{} for _ in range(amb)]
    for k, col in enumerate(relations):
        for r, v in col:
            rows[r][k] = v
    group, proj = cokernel(SparseRows(rows, len(relations)), list(moduli))
    r = group.rank
    sec = proj.section_matrix.array.reshape(nM, nN, r)

    def transported(side_stack: np.ndarray, factor: np.ndarray, m: int,
                    axes: tuple[int, ...]) -> np.ndarray:
        # factor is the section with the acted-on index first, (n, m * r);
        # stacked (k * n, n) @ factor holds generator g's image of section
        # column c at (g, acted index, other index, c), and axes reorder
        # that to the ambient pair (i, j), then (g, c)
        k, n = len(side_stack), side_stack.shape[1]
        A = IntegerMatrix.adopt(side_stack.reshape(k * n, n))
        images = (A @ IntegerMatrix.adopt(factor)).array.reshape(k, n, m, r).transpose(axes)
        X = proj.project(IntegerMatrix.adopt(images.reshape(amb, k * r))).array
        return X.reshape(r, k, r).transpose(1, 0, 2)

    # the actions transported as L (x) 1 and 1 (x) R, every generator in one product
    lamT = transported(M.left_action, sec.reshape(nM, nN * r), nN, (1, 2, 0, 3))
    rhoT = transported(N.right_action, sec.transpose(1, 0, 2).reshape(nN, nM * r),
                       nM, (2, 1, 0, 3))

    label = name or (f"{M.name}(x){N.name}" if M.name and N.name else "")
    module = Bimodule._lawful(M.left_ring, N.right_ring, group, lamT, rhoT, name=label)
    return TensorProduct(M, N, module, proj, moduli)


def _induced(tp: TensorProduct, B: IntegerMatrix, target: Bimodule) -> IntegerMatrix:
    """The matrix on the tensor of B on generator pairs; NotBalanced unless well defined."""
    if B.rows != target.rank or B.cols != tp.ambient_size:
        raise ValueError("ambient matrix shape mismatch")
    if target.carrier.reduce_columns(B @ tp.relation_matrix).array.any():
        raise NotBalanced("map does not kill the balancing relations and pair orders")
    return target.carrier.reduce_columns(B @ tp.projection.section_matrix)


def factor_through_tensor(tp: TensorProduct, ambient_matrix: IntegerMatrix,
                          target: Bimodule,
                          sides: tuple[str, ...] = BOTH_SIDES) -> BimoduleMap:
    """Induce a map on the tensor from a balanced map on generator pairs.

    ambient_matrix columns are indexed by the pairs (i, j); the map must
    kill every balancing relation and pair order, otherwise NotBalanced is
    raised.  The induced map is checked like any caller's map.
    """
    return BimoduleMap(tp.module, target, _induced(tp, ambient_matrix, target), sides)


def tensor_of_maps(tp_src: TensorProduct, tp_tgt: TensorProduct,
                   f: BimoduleMap, g: BimoduleMap) -> BimoduleMap:
    """The induced map f (x) g between two tensor presentations."""
    if f.source is not tp_src.left_factor and f.source != tp_src.left_factor:
        raise ValueError("f does not start at the source left factor")
    if g.source is not tp_src.right_factor and g.source != tp_src.right_factor:
        raise ValueError("g does not start at the source right factor")
    if f.target != tp_tgt.left_factor or g.target != tp_tgt.right_factor:
        raise ValueError("maps do not land in the target factors")
    # f (x) g on the source relations, then on the source section, in target coordinates
    rel, sec = tp_src.relation_matrix, tp_src.projection.section_matrix
    both = IntegerMatrix.adopt(np.concatenate((rel.array, sec.array), axis=1))
    images = tp_tgt.projection.project(kron_apply(f.matrix, g.matrix, both)).array
    if images[:, :rel.cols].any():
        raise NotBalanced("map pair does not preserve balancing relations and pair orders")
    induced = IntegerMatrix.adopt(images[:, rel.cols:])
    sides = []
    if "left" in f.sides:
        sides.append("left")
    if "right" in g.sides:
        sides.append("right")
    return BimoduleMap._lawful(tp_src.module, tp_tgt.module, induced, tuple(sides))


def tensor_associator(t_ab: TensorProduct, t_ab_c: TensorProduct,
                      t_bc: TensorProduct, t_a_bc: TensorProduct) -> BimoduleMap:
    """Canonical map (A (x) B) (x) C -> A (x) (B (x) C) on presentations."""
    if t_ab_c.left_factor is not t_ab.module:
        raise ValueError("(A(x)B)(x)C must be built on the A(x)B presentation")
    if t_a_bc.right_factor is not t_bc.module:
        raise ValueError("A(x)(B(x)C) must be built on the B(x)C presentation")
    for X, Y in ((t_ab.left_factor, t_a_bc.left_factor), (t_ab.right_factor, t_bc.left_factor),
                 (t_ab_c.right_factor, t_bc.right_factor)):
        if X is not Y and X != Y:
            raise ValueError("the four presentations do not share A, B and C")
    # proj_{A(BC)} . (1_A (x) proj_{BC}) . (sec_{AB} (x) 1_C) . sec_{(AB)C}
    one_A = IntegerMatrix.identity(t_ab.left_factor.rank)
    one_C = IntegerMatrix.identity(t_ab_c.right_factor.rank)
    from_ab_c = kron_apply(t_ab.projection.section_matrix, one_C,
                           t_ab_c.projection.section_matrix)
    matrix = t_a_bc.projection.project(kron_apply(one_A, t_bc.projection.matrix, from_ab_c))
    return BimoduleMap._lawful(t_ab_c.module, t_a_bc.module, matrix, BOTH_SIDES)


def left_unitor(tp: TensorProduct) -> BimoduleMap:
    """R (x)_R M -> M, r (x) m -> r.m, for tp built on the regular bimodule."""
    M = tp.right_factor
    R = tp.left_factor
    if R != regular_bimodule(R.left_ring):
        raise ValueError("left factor is not a regular bimodule presentation")
    # column (i, j) is lambda_i e_j
    k, n = len(M.left_action), M.rank
    amb = IntegerMatrix.adopt(M.left_action.transpose(1, 0, 2).reshape(n, k * n))
    return BimoduleMap._lawful(tp.module, M, _induced(tp, amb, M))


def right_unitor(tp: TensorProduct) -> BimoduleMap:
    """M (x)_S S -> M, m (x) s -> m.s, for tp built on the regular bimodule."""
    M = tp.left_factor
    S = tp.right_factor
    if S != regular_bimodule(S.right_ring):
        raise ValueError("right factor is not a regular bimodule presentation")
    # column (j, s) is rho_s e_j
    k, n = len(M.right_action), M.rank
    amb = IntegerMatrix.adopt(M.right_action.transpose(1, 2, 0).reshape(n, n * k))
    return BimoduleMap._lawful(tp.module, M, _induced(tp, amb, M))
