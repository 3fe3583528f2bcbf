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
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

import numpy as np

from ..errors import NotBalanced, RingMismatch
from ..exact import CokernelProjection, IntegerMatrix, cokernel, kron
from .base import kron_differences, matrices_congruent, reduced_stack
from .bimodules import BOTH_SIDES, Bimodule, BimoduleMap


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
    S = M.right_ring
    nM, nN = M.rank, N.rank
    cM = M.carrier.invariant_factors
    cN = N.carrier.invariant_factors
    amb = nM * nN
    moduli = tuple(gcd(cM[i], cN[j]) for i in range(nM) for j in range(nN))

    # generator g relates column (i, j) of rho_g (x) 1 - 1 (x) lambda_g to
    # zero.  Relations only matter modulo the pair orders, which the
    # lattice holds; the pair order of (k, l) divides ord e_k and ord f_l,
    # so rho_g and lambda_g may be read modulo their row orders first.
    D = kron_differences(reduced_stack(M.right_action, cM), reduced_stack(N.left_action, cN))
    cols = D.transpose(0, 2, 1).reshape(S.rank * amb, amb) % np.array(moduli, dtype=object)
    rel_cols = dict.fromkeys(tuple(c) for c in cols.tolist() if any(c))
    relations = IntegerMatrix.from_columns(list(rel_cols), amb)
    group, proj = cokernel(relations, list(moduli))
    one_M, one_N = IntegerMatrix.identity(nM), IntegerMatrix.identity(nN)
    lamT = tuple(proj.transport(kron(L, one_N)) for L in M.left_action)
    rhoT = tuple(proj.transport(kron(one_M, R)) for R in N.right_action)

    label = name or (f"{M.name}(x){N.name}" if M.name and N.name else "")
    module = Bimodule(M.left_ring, N.right_ring, group, lamT, rhoT, name=label)
    return TensorProduct(M, N, module, proj, moduli)


def factor_through_tensor(tp: TensorProduct, ambient_matrix: IntegerMatrix,
                          target: Bimodule,
                          sides: tuple[str, ...] = BOTH_SIDES) -> BimoduleMap:
    """Induce a map on the tensor from a balanced map on generator pairs.

    ambient_matrix columns are indexed by the pairs (i, j); the map must
    kill every balancing relation and pair order, otherwise NotBalanced is
    raised.
    """
    B = ambient_matrix
    if B.rows != target.rank or B.cols != tp.ambient_size:
        raise ValueError("ambient matrix shape mismatch")
    tfs = target.carrier.invariant_factors
    rel = tp.relation_matrix
    if not matrices_congruent(B @ rel, IntegerMatrix.zeros(B.rows, rel.cols), tfs):
        raise NotBalanced("map does not kill the balancing relations and pair orders")
    induced = target.carrier.reduce_columns(B @ tp.projection.section_matrix)
    return BimoduleMap(tp.module, target, induced, sides)


def tensor_of_maps(tp_src: TensorProduct, tp_tgt: TensorProduct,
                   f: BimoduleMap, g: BimoduleMap) -> BimoduleMap:
    """The induced map f (x) g between two tensor presentations."""
    if f.source is not tp_src.left_factor and f.source != tp_src.left_factor:
        raise ValueError("f does not start at the source left factor")
    if g.source is not tp_src.right_factor and g.source != tp_src.right_factor:
        raise ValueError("g does not start at the source right factor")
    if f.target != tp_tgt.left_factor or g.target != tp_tgt.right_factor:
        raise ValueError("maps do not land in the target factors")
    # ambient of the source -> quotient coordinates of the target
    to_tgt = tp_tgt.projection.matrix @ kron(f.matrix, g.matrix)
    tgt = tp_tgt.module.carrier
    rel = tp_src.relation_matrix
    if not matrices_congruent(to_tgt @ rel, IntegerMatrix.zeros(tgt.rank, rel.cols),
                              tgt.invariant_factors):
        raise NotBalanced("map pair does not preserve balancing relations and pair orders")
    induced = tgt.reduce_columns(to_tgt @ tp_src.projection.section_matrix)
    sides = []
    if "left" in f.sides:
        sides.append("left")
    if "right" in g.sides:
        sides.append("right")
    return BimoduleMap(tp_src.module, tp_tgt.module, induced, tuple(sides))


def tensor_associator(t_ab: TensorProduct, t_ab_c: TensorProduct,
                      t_bc: TensorProduct, t_a_bc: TensorProduct) -> BimoduleMap:
    """Canonical map (A (x) B) (x) C -> A (x) (B (x) C) on presentations."""
    if t_ab_c.left_factor is not t_ab.module:
        raise ValueError("(A(x)B)(x)C must be built on the A(x)B presentation")
    if t_a_bc.right_factor is not t_bc.module:
        raise ValueError("A(x)(B(x)C) must be built on the B(x)C presentation")
    # proj_{A(BC)} . (1_A (x) proj_{BC}) . (sec_{AB} (x) 1_C) . sec_{(AB)C}
    one_A = IntegerMatrix.identity(t_ab.left_factor.rank)
    one_C = IntegerMatrix.identity(t_ab_c.right_factor.rank)
    to_a_bc = kron(one_A, t_bc.projection.matrix)
    from_ab_c = kron(t_ab.projection.section_matrix, one_C) @ t_ab_c.projection.section_matrix
    matrix = t_a_bc.projection.transport(to_a_bc, from_ab_c)
    return BimoduleMap(t_ab_c.module, t_a_bc.module, matrix, BOTH_SIDES)


def left_unitor(tp: TensorProduct) -> BimoduleMap:
    """R (x)_R M -> M, r (x) m -> r.m, for tp built on the regular bimodule."""
    M = tp.right_factor
    R = tp.left_factor
    if R.carrier != R.left_ring.additive:
        raise ValueError("left factor is not a regular bimodule presentation")
    amb = IntegerMatrix.from_columns(
        [col for act in M.left_action for col in act.columns()], M.rank)
    return factor_through_tensor(tp, amb, M, BOTH_SIDES)


def right_unitor(tp: TensorProduct) -> BimoduleMap:
    """M (x)_S S -> M, m (x) s -> m.s, for tp built on the regular bimodule."""
    M = tp.left_factor
    S = tp.right_factor
    if S.carrier != S.right_ring.additive:
        raise ValueError("right factor is not a regular bimodule presentation")
    amb = IntegerMatrix.from_columns(
        [act.column(j) for j in range(M.rank) for act in M.right_action], M.rank)
    return factor_through_tensor(tp, amb, M, BOTH_SIDES)
