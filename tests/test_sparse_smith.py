"""The Smith form on sparse rows against the dense elimination it replaced.

``smith_normal_form`` keeps each row as a dict of its nonzero entries and
swaps columns by relabelling them.  It must make the same pivots as the
dense elimination kept in ``oracles.dense_smith_normal_form``, so U, D, V
and U^-1 agree entry for entry, for every combination of tracked
transforms.  Each small input below forces one branch of the
elimination; the branch is named next to it.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moritalab.exact import (
    IntegerMatrix,
    SparseRows,
    cokernel,
    smith_normal_form,
    solve_congruences,
)
from moritalab.rings import (
    augmentation_scalar,
    column_module,
    cyclic_ring,
    hom_group,
    matrix_ring,
    regular_bimodule,
    scalar_bimodule,
    tensor_oracle_corpus,
    tensor_product,
    truncated_polynomial_ring,
)
from moritalab.rings.base import kron_difference_columns

from oracles import dense_smith_normal_form, kron_differences

FLAGS = list(itertools.product((True, False), repeat=2))

# (branch, input): each input reaches its branch of the elimination
BRANCHES = [
    ("negative pivot", [[-1]]),
    ("column entry cancels to zero", [[1, -1]]),
    ("restart from the row pass", [[2], [-3]]),
    ("restart from the column pass", [[-3, 2]]),
    ("divisibility fold", [[0, -2], [3, 0]]),
    ("zero quotient in the row pass", [[-3, 4], [3, -3]]),
    ("zero quotient in the column pass", [[-2, 2], [-2, 3]]),
    ("pivot ties break by row, then position", [[0, 2, 2], [2, 0, 2], [2, 2, 0]]),
    ("floor exit in the first row", [[1, 0, 3], [0, 2, 4], [6, 8, 2]]),
]

SHAPES = [
    ("all zero", IntegerMatrix.zeros(3, 4)),
    ("m x 0", IntegerMatrix.zeros(3, 0)),
    ("0 x n", IntegerMatrix.zeros(0, 4)),
    ("0 x 0", IntegerMatrix.zeros(0, 0)),
]


def _rows(A: IntegerMatrix) -> SparseRows:
    return SparseRows([{j: v for j, v in enumerate(row) if v} for row in A.tolist()], A.cols)


def _python_ints(M: IntegerMatrix) -> bool:
    return (M.array.dtype == object and M.array.shape == (M.rows, M.cols)
            and all(type(v) is int for v in M.array.flat))


def assert_same_factorization(A: IntegerMatrix, track_V: bool, track_U_inv: bool) -> None:
    want = dense_smith_normal_form(A, track_V, track_U_inv)
    for given_A in (A, _rows(A)):
        got = smith_normal_form(given_A, track_V, track_U_inv)
        for name in ("U", "D", "V", "U_inv"):
            mine, theirs = getattr(got, name), getattr(want, name)
            if theirs is None:
                assert mine is None, name
                continue
            assert mine.array.shape == theirs.array.shape, name
            assert mine.tolist() == theirs.tolist(), name
            assert _python_ints(mine), name


@pytest.mark.parametrize("track_V, track_U_inv", FLAGS)
@pytest.mark.parametrize("branch, data", BRANCHES, ids=[b for b, _ in BRANCHES])
def test_each_branch_matches_the_dense_elimination(branch, data, track_V, track_U_inv):
    A = IntegerMatrix(data)
    assert_same_factorization(A, track_V, track_U_inv)
    dec = smith_normal_form(A)
    assert dec.U @ A @ dec.V == dec.D
    assert dec.U @ dec.U_inv == IntegerMatrix.identity(A.rows)


@pytest.mark.parametrize("track_V, track_U_inv", FLAGS)
@pytest.mark.parametrize("shape, A", SHAPES, ids=[s for s, _ in SHAPES])
def test_empty_and_zero_inputs(shape, A, track_V, track_U_inv):
    assert_same_factorization(A, track_V, track_U_inv)
    dec = smith_normal_form(_rows(A), track_V, track_U_inv)
    assert dec.U == IntegerMatrix.identity(A.rows) and dec.D == A
    assert dec.V is None if not track_V else dec.V == IntegerMatrix.identity(A.cols)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.data())
def test_random_inputs_match_the_dense_elimination(m, n, data):
    values = st.integers(-9, 9) | st.just(0) | st.just(0)
    A = IntegerMatrix([[data.draw(values) for _ in range(n)] for _ in range(m)], m, n)
    track_V, track_U_inv = data.draw(st.sampled_from(FLAGS))
    assert_same_factorization(A, track_V, track_U_inv)


def test_entries_past_a_machine_word_stay_python_ints():
    big = 3 ** 50
    A = IntegerMatrix([[2 * big, 3 * big, 0], [0, 5 * big, 7], [big, 0, 11]])
    for track_V, track_U_inv in FLAGS:
        assert_same_factorization(A, track_V, track_U_inv)


def test_sparse_input_is_read_not_written():
    A = SparseRows([{0: 4, 2: 6}, {1: 3}, {0: 2, 1: 5}], 3)
    before = [dict(row) for row in A.entries]
    smith_normal_form(A)
    assert [dict(row) for row in A.entries] == before


def test_stored_zeros_are_not_pivots():
    A = SparseRows([{0: 0, 1: 2}, {0: 0}], 2)
    assert smith_normal_form(A).diagonal() == [2, 0]


def test_cokernel_and_solve_read_sparse_rows_as_their_dense_matrix():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n, m = rng.integers(1, 6, size=2)
        A = IntegerMatrix((rng.integers(-4, 5, size=(n, m)) * (rng.random((n, m)) < 0.4)).tolist(),
                          int(n), int(m))
        moduli = [int(d) for d in rng.choice([2, 3, 4, 6, 8], size=n)]
        dense, sparse = cokernel(A, moduli), cokernel(_rows(A), moduli)
        assert dense[0] == sparse[0]
        for name in ("matrix", "section_matrix", "relations"):
            assert getattr(dense[1], name) == getattr(sparse[1], name)
        b = [int(v) for v in rng.integers(0, 5, size=n)]
        try:
            want = solve_congruences(A, moduli, b)
        except Exception as exc:  # the sparse system must fail the same way
            with pytest.raises(type(exc)):
                solve_congruences(_rows(A), moduli, b)
            continue
        got = solve_congruences(_rows(A), moduli, b)
        assert got.particular == want.particular and (got.free == want.free).all()


@settings(max_examples=60, derandomize=True)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.data())
def test_kron_difference_columns_are_the_dense_columns(k, a, b, data):
    def stack(n):
        return np.array([[[data.draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)]
                         for _ in range(k)], dtype=object).reshape(k, n, n)
    X, Y = stack(a), stack(b)
    dense = kron_differences(X, Y).transpose(0, 2, 1).reshape(k * a * b, a * b).tolist()
    columns = dict(kron_difference_columns(X, Y))
    assert list(columns) == sorted(columns)
    for index, want in enumerate(dense):
        col = columns.get(index, {})
        assert {r: v for r, v in col.items() if v} == {r: v for r, v in enumerate(want) if v}
        # a column is skipped only when neither factor has an entry in it
        g, i, j = index // (a * b), index % (a * b) // max(b, 1), index % max(b, 1)
        assert (index in columns) == bool(X[g][:, i].any() or Y[g][:, j].any())


def test_hom_groups_match_the_dense_congruence_system():
    # the congruence rows hom_group builds from nonzeros, against the dense
    # system [orders; 1 (x) As^T - At (x) 1] with its all-zero rows dropped
    Z4, F2x = cyclic_ring(4), truncated_polynomial_ring(2, 2)
    cases = [(regular_bimodule(Z4), scalar_bimodule(Z4, Z4, 2)),
             (column_module(F2x, 2), column_module(F2x, 2)),
             (augmentation_scalar(F2x, F2x, 2), regular_bimodule(F2x)),
             (column_module(cyclic_ring(2), 2, matrix_ring(cyclic_ring(2), 2)),
              column_module(cyclic_ring(2), 2, matrix_ring(cyclic_ring(2), 2)))]
    for M, N in cases:
        for side in ("left", "right", "both"):
            order = [s for s in ("right", "left") if side in (s, "both")]
            src = np.concatenate([getattr(M, f"{s}_action") for s in order])
            tgt = np.concatenate([getattr(N, f"{s}_action") for s in order])
            nt, ns = N.rank, M.rank
            cS, cT = M.carrier.invariant_factors, N.carrier.invariant_factors
            D = -kron_differences(tgt, src.transpose(0, 2, 1)).reshape(len(src) * nt * ns, nt * ns)
            live = (D != 0).any(axis=1)
            orders = np.diag(np.array([cS[v % ns] for v in range(nt * ns)], dtype=object))
            row_moduli = [cT[i] for i in range(nt) for _ in range(ns)]
            moduli = row_moduli + [d for d, keep in zip(row_moduli * len(src), live) if keep]
            K = solve_congruences(IntegerMatrix.adopt(np.vstack([orders, D[live]])), moduli,
                                  [0] * len(moduli)).kernel
            assert hom_group(M, N, side).basis_matrix == K


def test_tensor_presentations_match_the_dense_relation_matrix():
    # the relation columns tensor_product builds from nonzeros, against the
    # dense columns of rho_g (x) 1 - 1 (x) lambda_g reduced and deduplicated
    for M, N in tensor_oracle_corpus():
        tp = tensor_product(M, N)
        moduli = np.array(tp.ambient_moduli, dtype=object)
        amb = len(moduli)
        D = kron_differences(M.right_action, N.left_action)
        cols = D.transpose(0, 2, 1).reshape(len(D) * amb, amb) % moduli
        kept = list(dict.fromkeys(map(tuple, cols[(cols != 0).any(axis=1)].tolist())))
        relations = IntegerMatrix.adopt(np.array(kept, dtype=object).reshape(len(kept), amb).T)
        group, proj = cokernel(relations, list(tp.ambient_moduli))
        assert group == tp.module.carrier
        for name in ("matrix", "section_matrix", "relations"):
            assert getattr(proj, name) == getattr(tp.projection, name)
