"""Exact integer core: Smith form, cokernels, congruence systems.

Oracles here are deliberately independent of the code under test: the
quotient-order oracle enumerates cosets with set arithmetic, and the
congruence oracle enumerates candidate solutions directly.
"""

from __future__ import annotations

from itertools import permutations, product
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from moritalab.errors import InfiniteQuotient, NoSolution
from moritalab.exact import (
    CongruenceSolution,
    FiniteAbelianGroup,
    IntegerMatrix,
    cokernel,
    determinant,
    direct_sum,
    kron,
    lattice_basis,
    lattice_column_basis,
    smith_normal_form,
    solve_congruences,
    solve_integer,
)


# ---------------------------------------------------------------- oracles

def subgroup_closure(generators, moduli):
    """All elements of the subgroup of prod(Z/moduli) the generators span."""
    zero = tuple(0 for _ in moduli)
    seen = {zero}
    frontier = [zero]
    gens = [tuple(g[i] % moduli[i] for i in range(len(moduli))) for g in generators]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = tuple((a + b) % m for a, b, m in zip(x, g, moduli))
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return seen


def quotient_order_oracle(A, moduli):
    """|prod(Z/moduli) / <columns of A>| by brute-force enumeration."""
    cols = [A.column(j) for j in range(A.cols)]
    sub = subgroup_closure(cols, moduli)
    return prod(moduli) // len(sub)


def congruence_solutions_oracle(A, moduli, b):
    """All solutions of A x = b (mod moduli) with x enumerated mod L."""
    L = 1
    for m in moduli:
        L = L * m // gcd(L, m) if m else L
    sols = set()
    for x in product(range(L), repeat=A.cols):
        ok = True
        for i in range(A.rows):
            lhs = sum(A.data[i][j] * x[j] for j in range(A.cols)) - b[i]
            if moduli[i]:
                if lhs % moduli[i]:
                    ok = False
                    break
            elif lhs:
                ok = False
                break
        if ok:
            sols.add(x)
    return L, sols


# ------------------------------------------------------- integer matrix

def test_public_constructor_converts_and_checks_shape():
    M = IntegerMatrix([(True, 2.0), range(2)])
    assert M.data == [[1, 2], [0, 1]] and all(type(v) is int for r in M.data for v in r)
    with pytest.raises(ValueError, match="inconsistent matrix shape"):
        IntegerMatrix([[1, 2], [3]])


def test_internal_builders_own_fresh_int_rows():
    """Products, columns and reductions build new rows the inputs do not share."""
    A = IntegerMatrix([[1, 2], [3, 4]])
    cols = [(5, 6), (7, 8)]
    built = [A @ A, IntegerMatrix.from_columns(cols), IntegerMatrix.identity(2),
             FiniteAbelianGroup((3, 6)).reduce_columns(A), smith_normal_form(A).U]
    assert [M.data for M in built[:4]] == [[[7, 10], [15, 22]], [[5, 7], [6, 8]],
                                           [[1, 0], [0, 1]], [[1, 2], [3, 4]]]
    for M in built:
        assert M.rows == len(M.data) and all(len(r) == M.cols for r in M.data)
        assert all(type(v) is int for r in M.data for v in r)
        assert not any(r is s for r in M.data for s in A.data)


# ---------------------------------------------------------- smith form

def test_snf_two_by_two_coprime_diagonal():
    A = IntegerMatrix([[2, 0], [0, 3]])
    dec = smith_normal_form(A)
    assert dec.diagonal() == [1, 6]
    assert (dec.U @ A @ dec.V) == dec.D


def test_snf_identity_is_fixed():
    A = IntegerMatrix.identity(3)
    dec = smith_normal_form(A)
    assert dec.D == IntegerMatrix.identity(3)
    assert dec.U == IntegerMatrix.identity(3)
    assert dec.V == IntegerMatrix.identity(3)


def test_snf_empty_matrix():
    A = IntegerMatrix.zeros(0, 0)
    dec = smith_normal_form(A)
    assert dec.diagonal() == []
    assert dec.D.rows == 0 and dec.D.cols == 0


def test_snf_zero_matrix():
    A = IntegerMatrix.zeros(2, 3)
    dec = smith_normal_form(A)
    assert dec.diagonal() == [0, 0]


@settings(max_examples=200, derandomize=True)
@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_snf_properties(m, n, data):
    entries = data.draw(st.lists(st.integers(-5, 5), min_size=m * n, max_size=m * n))
    A = IntegerMatrix([entries[i * n:(i + 1) * n] for i in range(m)], m, n)
    dec = smith_normal_form(A)
    assert (dec.U @ A @ dec.V) == dec.D
    assert abs(determinant(dec.U)) == 1
    assert abs(determinant(dec.V)) == 1
    assert (dec.U @ dec.U_inv) == IntegerMatrix.identity(m)
    diag = dec.diagonal()
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    # off-diagonal must vanish
    for i in range(m):
        for j in range(n):
            if i != j:
                assert dec.D.data[i][j] == 0


def test_snf_deterministic():
    A = IntegerMatrix([[4, 6, 2], [6, 4, 8]])
    d1 = smith_normal_form(A)
    d2 = smith_normal_form(A)
    assert d1.U == d2.U and d1.V == d2.V and d1.D == d2.D


# ------------------------------------------------------------- cokernel

def test_cokernel_single_relation():
    # Z/4 modulo the image of multiplication by 2
    group, proj = cokernel(IntegerMatrix([[2]]), [4])
    assert group.invariant_factors == (2,)
    assert proj.apply([1]) != group.zero()
    assert proj.apply([2]) == group.zero()


def test_cokernel_trivial_quotient():
    group, _ = cokernel(IntegerMatrix([[1, 0], [0, 1]]), [0, 0])
    assert group.invariant_factors == ()
    assert group.order == 1


def test_cokernel_infinite_raises():
    with pytest.raises(InfiniteQuotient):
        cokernel(IntegerMatrix.zeros(2, 0), [3, 0])


def test_cokernel_projection_kernel_is_relation_lattice():
    A = IntegerMatrix([[2, 0], [2, 4]])
    moduli = [8, 8]
    group, proj = cokernel(A, moduli)
    # brute force: a vector maps to zero iff it lies in the relation subgroup
    sub = subgroup_closure([A.column(0), A.column(1)], moduli)
    for v in product(range(8), repeat=2):
        in_sub = tuple(v) in sub
        assert (proj.apply(list(v)) == group.zero()) == in_sub


@settings(max_examples=120, derandomize=True)
@given(st.integers(1, 3), st.integers(0, 3), st.data())
def test_cokernel_order_matches_enumeration(n, m, data):
    moduli = data.draw(st.lists(st.sampled_from([2, 3, 4, 6]), min_size=n, max_size=n))
    entries = data.draw(st.lists(st.integers(-4, 4), min_size=n * m, max_size=n * m))
    A = IntegerMatrix([entries[i * m:(i + 1) * m] for i in range(n)], n, m)
    group, proj = cokernel(A, moduli)
    assert group.order == quotient_order_oracle(A, moduli)
    # sections really are preimages
    for a in range(group.rank):
        e = [1 if i == a else 0 for i in range(group.rank)]
        assert list(proj.apply(proj.section(a))) == e


# ---------------------------------------------------- congruence systems

def test_single_congruence_matches_listed_solutions():
    # 2x = 0 (mod 4) has solutions {0, 2} mod 4
    sol = solve_congruences(IntegerMatrix([[2]]), [4], [0])
    L, oracle = congruence_solutions_oracle(IntegerMatrix([[2]]), [4], [0])
    got = set()
    for k in range(-4, 5):
        for col in sol.kernel.columns() or [[0]]:
            got.add(tuple((sol.particular[i] + k * col[i]) % L for i in range(1)))
    assert got == oracle == {(0,), (2,)}


def test_no_solution_raises():
    with pytest.raises(NoSolution):
        solve_congruences(IntegerMatrix([[2]]), [4], [1])
    with pytest.raises(NoSolution):
        solve_congruences(IntegerMatrix([[0]]), [0], [5])


def coset_mod_L(sol: CongruenceSolution, L: int, dim: int):
    """Expand particular + kernel into the full residue set mod L."""
    base = tuple(v % L for v in sol.particular)
    seen = {base}
    frontier = [base]
    cols = sol.kernel.columns()
    while frontier:
        new = []
        for x in frontier:
            for col in cols:
                y = tuple((a + c) % L for a, c in zip(x, col))
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return seen


@settings(max_examples=120, derandomize=True)
@given(st.integers(1, 2), st.integers(1, 3), st.data())
def test_congruences_match_enumeration(n, m, data):
    moduli = data.draw(st.lists(st.sampled_from([2, 3, 4]), min_size=n, max_size=n))
    entries = data.draw(st.lists(st.integers(-3, 3), min_size=n * m, max_size=n * m))
    b = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    A = IntegerMatrix([entries[i * m:(i + 1) * m] for i in range(n)], n, m)
    L, oracle = congruence_solutions_oracle(A, moduli, b)
    if L ** m > 10 ** 4:
        return
    try:
        sol = solve_congruences(A, moduli, b)
    except NoSolution:
        assert not oracle
        return
    assert oracle
    assert coset_mod_L(sol, L, m) == oracle


def test_solve_integer_exact():
    M = IntegerMatrix([[2, 1], [0, 3]])
    y = solve_integer(M, [5, 9])
    assert y is not None
    assert M.apply(y) == [5, 9]
    assert solve_integer(IntegerMatrix([[2]]), [3]) is None


def leibniz_determinant(rows):
    n = len(rows)
    total = 0
    for p in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])
        total += (-1) ** inversions * prod(rows[i][p[i]] for i in range(n))
    return total


def on_lattice_oracle(M, t):
    """t in col_span_Z(M) for square nonsingular M, by Cramer's rule."""
    det = leibniz_determinant(M.data)
    for i in range(M.cols):
        Mi = [row[:i] + [t[r]] + row[i + 1:] for r, row in enumerate(M.data)]
        if leibniz_determinant(Mi) % det:
            return False
    return True


@settings(max_examples=200, derandomize=True)
@given(st.integers(1, 3), st.integers(0, 3), st.data())
def test_smith_solve_is_none_exactly_off_the_lattice(m, n, data):
    entries = data.draw(st.lists(st.integers(-3, 3), min_size=m * n, max_size=m * n))
    M = IntegerMatrix([entries[i * n:(i + 1) * n] for i in range(m)], m, n)
    x0 = data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    t = data.draw(st.lists(st.integers(-6, 6), min_size=m, max_size=m))
    dec = smith_normal_form(M)
    hit = M.apply(x0)
    y = dec.solve(hit)
    assert y is not None and M.apply(y) == hit
    y = dec.solve(t)
    assert solve_integer(M, t) == y
    if y is not None:
        assert M.apply(y) == t
    if m == n and leibniz_determinant(M.data):
        assert (y is not None) == on_lattice_oracle(M, t)
    # the basis decomposition reuses M's U: it must be a Smith form of the
    # basis and solve exactly as a fresh factorization of the basis does
    L, ldec = lattice_basis(M)
    assert L == lattice_column_basis(M)
    assert ldec.U @ L @ ldec.V == ldec.D
    for target in (hit, t):
        got = ldec.solve(target)
        assert (got is None) == (solve_integer(L, target) is None) == \
            (solve_integer(M, target) is None)
        if got is not None:
            assert L.apply(got) == target


def test_lattice_column_basis_spans_same_lattice():
    M = IntegerMatrix([[2, 4, 6], [0, 2, 2]])
    B = lattice_column_basis(M)
    # both generating sets must produce the same subgroup mod a big modulus
    mod = [24, 24]
    assert subgroup_closure(M.columns(), mod) == subgroup_closure(B.columns(), mod)


# ------------------------------------------------- Kronecker and block maps

def _matrix(data, rows, cols):
    entries = data.draw(st.lists(st.integers(-5, 5), min_size=rows * cols,
                                 max_size=rows * cols))
    return IntegerMatrix([entries[i * cols:(i + 1) * cols] for i in range(rows)], rows, cols)


_dims = st.integers(0, 3)


@settings(max_examples=100, derandomize=True)
@given(_dims, _dims, _dims, _dims, st.data())
def test_kron_matches_its_index_definition(ar, ac, br, bc, data):
    A, B = _matrix(data, ar, ac), _matrix(data, br, bc)
    K = kron(A, B)
    assert (K.rows, K.cols) == (ar * br, ac * bc)
    assert len(K.data) == K.rows and all(len(row) == K.cols for row in K.data)
    for i, j, k, l in product(range(ar), range(ac), range(br), range(bc)):
        assert K.data[i * br + k][j * bc + l] == A.data[i][j] * B.data[k][l]


@settings(max_examples=100, derandomize=True)
@given(_dims, _dims, _dims, _dims, st.data())
def test_direct_sum_matches_its_index_definition(ar, ac, br, bc, data):
    A, B = _matrix(data, ar, ac), _matrix(data, br, bc)
    D = direct_sum(A, B)
    assert (D.rows, D.cols) == (ar + br, ac + bc)
    assert len(D.data) == D.rows and all(len(row) == D.cols for row in D.data)
    for r, c in product(range(D.rows), range(D.cols)):
        if r < ar and c < ac:
            want = A.data[r][c]
        elif r >= ar and c >= ac:
            want = B.data[r - ar][c - ac]
        else:
            want = 0
        assert D.data[r][c] == want


@settings(max_examples=100, derandomize=True)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.data())
def test_transport_projects_the_image_of_each_section_column(n, m, width, data):
    moduli = data.draw(st.lists(st.sampled_from([2, 3, 4, 6]), min_size=n, max_size=n))
    group, proj = cokernel(_matrix(data, n, m), moduli)
    K = _matrix(data, n, n)
    section = _matrix(data, n, width)
    T = proj.transport(K, section)
    assert (T.rows, T.cols) == (group.rank, width)
    assert T.columns() == [list(proj.apply(K.apply(col))) for col in section.columns()]
    own = proj.transport(K)
    assert own.columns() == [list(proj.apply(K.apply(proj.section(a))))
                             for a in range(group.rank)]


# ------------------------------------------------------------ the group

def test_group_validation():
    with pytest.raises(ValueError):
        FiniteAbelianGroup((1, 2))
    with pytest.raises(ValueError):
        FiniteAbelianGroup((4, 2))
    g = FiniteAbelianGroup((2, 4))
    assert g.order == 8
    assert g.exponent == 4
    assert len(list(g.elements())) == 8
    assert g.element_order((1, 2)) == 2
    assert g.element_order((0, 1)) == 4
    assert g.element_order((0, 0)) == 1


def test_group_trivial():
    g = FiniteAbelianGroup(())
    assert g.order == 1
    assert list(g.elements()) == [()]
