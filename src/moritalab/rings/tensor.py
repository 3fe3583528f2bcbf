"""Balanced tensor products of bimodules over a shared middle ring.

The tensor M (x)_S N is presented on the ambient group generated by the
generator pairs (i, j), with modulus gcd(ord e_i, ord e_j), modulo the
middle-linearity relations (e_i . s) (x) e_j = e_i (x) (s . e_j) taken over
the additive generators s of S.  Everything downstream (induced maps,
associators, unitors) factors through that presentation, and a map out of
the ambient group is well defined on the tensor exactly when it kills the
relation lattice basis the presentation keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import gcd
from typing import Sequence

from ..errors import NotBalanced, RingMismatch
from ..exact import CokernelProjection, IntegerMatrix, cokernel
from .base import matrices_congruent
from .bimodules import BOTH_SIDES, Bimodule, BimoduleMap


def kron(A: IntegerMatrix, B: IntegerMatrix) -> IntegerMatrix:
    rows = A.rows * B.rows
    cols = A.cols * B.cols
    data = [[0] * cols for _ in range(rows)]
    for i in range(A.rows):
        arow = A.data[i]
        for k in range(B.rows):
            brow = B.data[k]
            out = data[i * B.rows + k]
            for j in range(A.cols):
                a = arow[j]
                if not a:
                    continue
                base = j * B.cols
                for l in range(B.cols):
                    out[base + l] = a * brow[l]
    return IntegerMatrix.adopt(data, rows, cols)


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
        nN = self.right_factor.rank
        amb = [0] * self.ambient_size
        for i, a in enumerate(m):
            if not a:
                continue
            for j, b in enumerate(n):
                if b:
                    amb[i * nN + j] = a * b
        return self.projection.apply(amb)

    def section(self, a: int) -> list[int]:
        return self.projection.section(a)


def tensor_product(M: Bimodule, N: Bimodule, name: str = "") -> TensorProduct:
    if M.right_ring != N.left_ring:
        raise RingMismatch("middle rings differ, cannot balance the tensor")
    S = M.right_ring
    nM, nN = M.rank, N.rank
    cM = M.carrier.invariant_factors
    cN = N.carrier.invariant_factors
    amb = nM * nN
    moduli = tuple(gcd(cM[i], cN[j]) for i in range(nM) for j in range(nN))

    # relations only matter modulo the pair orders, which the lattice holds
    rel_cols: dict[tuple[int, ...], None] = {}
    for g in range(S.rank):
        rho = M.right_action[g]
        lam = N.left_action[g]
        for i in range(nM):
            for j in range(nN):
                col = [0] * amb
                for k in range(nM):
                    v = rho.data[k][i]
                    if v:
                        col[k * nN + j] += v
                for l in range(nN):
                    v = lam.data[l][j]
                    if v:
                        col[i * nN + l] -= v
                col = tuple(v % d for v, d in zip(col, moduli))
                if any(col):
                    rel_cols[col] = None
    relations = IntegerMatrix.from_columns(list(rel_cols), amb)
    group, proj = cokernel(relations, list(moduli))

    def act_left(Lr: IntegerMatrix, v: list[int]) -> list[int]:
        # (Lr (x) 1) v: row block i of v moves to row block k with weight Lr[k][i]
        out = [0] * amb
        for i in range(nM):
            row = v[i * nN:(i + 1) * nN]
            if not any(row):
                continue
            for k in range(nM):
                c = Lr.data[k][i]
                if not c:
                    continue
                base = k * nN
                for j in range(nN):
                    if row[j]:
                        out[base + j] += c * row[j]
        return out

    def act_right(Rt: IntegerMatrix, v: list[int]) -> list[int]:
        # (1 (x) Rt) v: Rt acts on each row block of v
        out = [0] * amb
        for i in range(nM):
            row = v[i * nN:(i + 1) * nN]
            if any(row):
                out[i * nN:(i + 1) * nN] = Rt.apply(row)
        return out

    lamT = tuple(proj.transport(partial(act_left, Lr)) for Lr in M.left_action)
    rhoT = tuple(proj.transport(partial(act_right, Rt)) for Rt in N.right_action)

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
    A = t_ab.left_factor
    B = t_ab.right_factor
    C = t_ab_c.right_factor
    nA, nB, nC = A.rank, B.rank, C.rank
    nBC = t_bc.module.rank

    pure_bc = {}
    eB = [0] * nB
    eC = [0] * nC
    for j in range(nB):
        eB[j] = 1
        for k in range(nC):
            eC[k] = 1
            pure_bc[(j, k)] = t_bc.pure(eB, eC)
            eC[k] = 0
        eB[j] = 0

    def act(v: list[int]) -> list[int]:
        # v is indexed by (x, k), x a generator of A(x)B; the result by (i, y),
        # y a generator of B(x)C, through (a (x) b) (x) c -> a (x) (b (x) c)
        amb = [0] * (nA * nBC)
        for x in range(t_ab.module.rank):
            for k in range(nC):
                c1 = v[x * nC + k]
                if not c1:
                    continue
                s = t_ab.section(x)  # indexed by (i, j)
                for i in range(nA):
                    for j in range(nB):
                        c2 = s[i * nB + j]
                        if not c2:
                            continue
                        w = pure_bc[(j, k)]
                        base = i * nBC
                        for y in range(nBC):
                            if w[y]:
                                amb[base + y] += c1 * c2 * w[y]
        return amb

    matrix = t_a_bc.projection.transport(act, t_ab_c.projection.section_matrix)
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
