"""Numeric kernel: spectra, antilinear polar parts, kernels, Gram quotients."""

import warnings

import numpy as np
import pytest

from moritalab.errors import NotPSD, Singular
from moritalab.numkernel import (
    as_complex_matrix,
    commutant,
    containment_residual,
    gram_quotient,
    hermitian_powers,
    hermitian_spectrum,
    joint_null_space,
    kron_sandwich,
    matrices_to_columns,
    max_operator_norm,
    max_operator_norm_of,
    norm_exceeds,
    null_space,
    operator_norm,
    orthonormal_columns,
)

from oracles import AntilinearOp, polar_antilinear, subspaces_equal


def _haar_unitary(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestBasics:
    def test_operator_norm_matches_top_singular_value(self):
        A = np.array([[3.0, 0.0], [0.0, -4.0]])
        assert operator_norm(A) == pytest.approx(4.0)
        assert operator_norm(np.zeros((0, 0))) == 0.0

    def test_norm_exceeds_agrees_with_operator_norm(self):
        rng = np.random.default_rng(3)
        # rank one: both norms equal 5, so the bound decides at exactly 5
        v = np.array([[3.0], [4.0]])
        one = v @ np.array([[1.0, 0.0]])
        assert not norm_exceeds(one, 5.0 + 1e-12)
        assert norm_exceeds(one, 5.0 - 1e-12)
        for _ in range(20):
            A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            top, frob = operator_norm(A), float(np.linalg.norm(A))
            for bound in (0.5 * top, 0.999 * top, 1.001 * top,
                          0.5 * (top + frob), 1.001 * frob):
                assert norm_exceeds(A, bound) == (top > bound)
        assert not norm_exceeds(np.zeros((0, 0)), 0.0)

    def test_max_operator_norm_equals_the_loop(self):
        # representation checks size their bounds with the stacked call; it
        # must equal the per-matrix loop bit for bit, so that no accept or
        # reject decision moves
        rng = np.random.default_rng(12)
        for d in (1, 2, 5, 12, 36):
            for k in (1, 4, 9):
                mats = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                        for _ in range(k)]
                mats[0] *= 10.0 ** rng.integers(-8, 9)
                assert max_operator_norm(mats) == max(operator_norm(M)
                                                      for M in mats)
        assert max_operator_norm([]) == 0.0
        assert max_operator_norm([np.zeros((0, 0))] * 3) == 0.0
        assert max_operator_norm(np.zeros((0, 4, 4))) == 0.0
        # the SVDs are screened by Frobenius norm; on stacks where the
        # screen prunes everything, nothing, or ties, the value stays the loop's
        Q = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))[0]
        rank_two = Q[:, :2] @ Q[:, :2].conj().T
        stacks = [
            np.zeros((5, 4, 4), dtype=np.complex128),
            [np.eye(3)] * 4,
            [Q, Q.conj().T, Q @ Q, np.zeros((6, 6))],
            [rank_two, 3.0 * rank_two, np.eye(6), Q[:, :1] @ Q[:, 1:2].conj().T],
            [np.kron(np.eye(3), U) for U in (np.diag([1.0, 0.0]),
                                             np.array([[0.0, 1.0], [0.0, 0.0]]))],
        ]
        for mats in stacks:
            assert max_operator_norm(mats) == max(operator_norm(M) for M in mats)

    def test_streamed_max_equals_the_loop(self):
        # terms formed on demand, as Intertwiner.residual forms its products
        rng = np.random.default_rng(13)
        for d in (1, 3, 8, 20):
            for k in (1, 5, 16):
                A, B = (rng.normal(size=(k, d, d)) + 1j * rng.normal(size=(k, d, d))
                        for _ in range(2))
                A *= 10.0 ** rng.integers(-3, 4, size=(k, 1, 1))

                def term(j):
                    return A[j] @ B[j] - B[j] @ A[j]
                got = max_operator_norm_of(term, k)
                assert got.hex() == max(operator_norm(term(j)) for j in range(k)).hex()
        assert max_operator_norm_of(lambda j: np.eye(2), 0) == 0.0

    def test_zero_matrices_read_zero_without_an_svd(self, monkeypatch):
        calls = []
        norm = np.linalg.norm

        def counted(*args, **kwargs):
            if np.size(args[0]):  # an empty stack runs no SVD
                calls.append(args[1:])
            return norm(*args, **kwargs)
        monkeypatch.setattr(np.linalg, "norm", counted)
        zero = np.zeros((4, 4), dtype=np.complex128)
        assert operator_norm(zero) == 0.0
        assert operator_norm(-zero) == 0.0
        assert max_operator_norm(np.zeros((3, 4, 4))) == 0.0
        assert max_operator_norm([zero, -zero]) == 0.0
        assert max_operator_norm_of(lambda k: zero, 5) == 0.0
        assert calls == []
        # a single nonzero entry anywhere brings the SVD back
        one = zero.copy()
        one[1, 2] = 1e-3j
        assert operator_norm(one) == pytest.approx(1e-3)
        assert max_operator_norm([zero, one]) == pytest.approx(1e-3)
        assert max_operator_norm_of(lambda k: one if k == 3 else zero, 5) \
            == pytest.approx(1e-3)
        assert len(calls) == 3

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_norm_exceeds_non_finite_is_exceeding(self, bad):
        A = np.array([[1.0, bad], [0.0, 1.0]], dtype=np.complex128)
        assert norm_exceeds(A, 1e300)
        assert norm_exceeds(np.array([[complex(0.0, bad)]]), 1.0)

    def test_norm_exceeds_on_a_stack_equals_the_loop(self):
        rng = np.random.default_rng(13)
        for d in (1, 3, 8):
            for k in (1, 2, 7):
                mats = rng.normal(size=(k, d, d)) \
                    + 1j * rng.normal(size=(k, d, d))
                mats *= 10.0 ** rng.integers(-3, 4, size=(k, 1, 1))
                tops = [operator_norm(M) for M in mats]
                frobs = [float(np.linalg.norm(M)) for M in mats]
                for bound in sorted(tops + frobs) + [0.0, 2.0 * max(frobs)]:
                    for scale in (0.999, 1.001):
                        want = any(top > scale * bound for top in tops)
                        assert norm_exceeds(mats, scale * bound) == want
                        assert norm_exceeds(mats[0], scale * bound) == \
                            (tops[0] > scale * bound)
        for empty in (np.zeros((0, 0)), np.zeros((0, 3, 3)),
                      np.zeros((4, 0, 0))):
            assert not norm_exceeds(empty, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_norm_exceeds_non_finite_stack_is_exceeding(self, bad):
        stack = np.zeros((3, 2, 2), dtype=np.complex128)
        stack[1, 0, 1] = complex(bad, bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert norm_exceeds(stack, 1e300)
            assert norm_exceeds(stack[1], 1e300)
            assert not norm_exceeds(stack[[0, 2]], 0.0)

    def test_norm_exceeds_overflowing_frobenius_uses_the_operator_norm(self):
        # the Frobenius norm overflows, the operator norm is 1.4e200
        A = np.array([[0, 1e200 + 1e200j]])
        stack = np.stack([np.zeros((2, 2)), np.full((2, 2), 1e300)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not norm_exceeds(A, 1e300)
            assert norm_exceeds(A, 1e199)
            assert not norm_exceeds(stack, 1.8e308)
            assert norm_exceeds(stack, 1e300)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_norm_exceeds_non_finite_beside_overflow_is_exceeding(self, bad):
        A = np.array([[1e200 + 1e200j, bad]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert norm_exceeds(A, 1e300)
            assert norm_exceeds(np.stack([np.array([[1e300, 1e300]]), A]),
                                1.8e308)

    def test_as_complex_matrix_rejects_bad_input(self):
        with pytest.raises(ValueError):
            as_complex_matrix(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            as_complex_matrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_hermitian_spectrum_sorted_and_reconstructs(self):
        H = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=np.complex128)
        w, V = hermitian_spectrum(H)
        assert np.allclose(w, [1.0, 3.0])
        assert operator_norm(V @ np.diag(w) @ V.conj().T - H) < 1e-12

    def test_hermitian_spectrum_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_hermitian_power_square_root(self):
        H = np.diag([4.0, 9.0]).astype(np.complex128)
        half, minus_half = hermitian_powers(H, (0.5, -0.5))
        assert np.allclose(half, np.diag([2.0, 3.0]))
        assert np.allclose(minus_half, np.diag([0.5, 1 / 3]))

    def test_hermitian_power_guards(self):
        with pytest.raises(NotPSD, match="^negative eigenvalue beyond tolerance$"):
            hermitian_powers(np.diag([1.0, -1.0]), (0.5,))
        with pytest.raises(Singular, match="^negative power of a singular matrix$"):
            hermitian_powers(np.diag([1.0, 0.0]), (0.5, -0.5))
        # a singular matrix has every nonnegative power
        half, = hermitian_powers(np.diag([1.0, 0.0]), (0.5,))
        assert np.array_equal(half, np.diag([1.0, 0.0]))

    def test_non_hermitian_input_is_rejected_by_every_caller(self):
        H = np.array([[1.0, 1.0], [0.0, 1.0]])
        for call in (hermitian_spectrum, lambda M: hermitian_powers(M, (0.5,))):
            with pytest.raises(ValueError, match="^matrix is not Hermitian$"):
                call(H)
        # anti-Hermitian noise above DEFAULT_TOL but below DEFAULT_TOL * (1 + ||H||)
        # passes, so the screen falls back to the scaled bound
        big = np.diag([1e3, 1.0]).astype(np.complex128)
        noise = np.array([[0.0, 1.0], [0.0, 0.0]])
        hermitian_spectrum(big + 5e-8 * noise)
        with pytest.raises(ValueError, match="^matrix is not Hermitian$"):
            hermitian_spectrum(big + 5e-5 * noise)

    @pytest.mark.parametrize("H, message", [
        # Hermitian, but H + H* and the spectrum overflow
        ([[1.7e308, 1.7e308], [1.7e308, 1.7e308]],
         "^eigendecomposition failed to reconstruct input$"),
        # H - H* overflows
        ([[0.0, 1.7e308], [-1.7e308, 0.0]], "^matrix is not Hermitian$"),
    ])
    def test_overflow_near_the_float_limit_raises_the_library_error(self, H, message):
        # the suite turns RuntimeWarning into an error, so a leaked warning fails here too
        for call in (hermitian_spectrum, lambda M: hermitian_powers(M, (0.5,))):
            with pytest.raises(ValueError, match=message):
                call(np.array(H))

    def test_spectrum_whose_hermitian_sum_would_overflow(self):
        # H + H* overflows, H/2 + H*/2 is H itself
        H = np.diag([1.7e308, -1.7e308])
        w, V = hermitian_spectrum(H)
        assert np.array_equal(w, [-1.7e308, 1.7e308])
        assert np.array_equal(np.abs(V), [[0.0, 1.0], [1.0, 0.0]])

    def test_halving_first_keeps_the_spectrum_bitwise(self):
        rng = np.random.default_rng(20)
        for n in (1, 2, 5, 16, 36):
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            H = (g + g.conj().T) * 10.0 ** rng.integers(-6, 7) + 1e-12 * g
            w, V = hermitian_spectrum(H)
            w_sum, V_sum = np.linalg.eigh((H + H.conj().T) / 2.0)
            assert np.array_equal(w, w_sum) and np.array_equal(V, V_sum)

    def test_reconstruction_check_still_bites(self, monkeypatch):
        # the Frobenius screen must not let a bad eigendecomposition through
        eigh = np.linalg.eigh

        def perturbed(M):
            w, V = eigh(M)
            return w, V + 1e-6 * np.ones_like(V)
        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        H = np.diag([1.0, 2.0, 3.0]).astype(np.complex128)
        for call in (hermitian_spectrum, lambda M: hermitian_powers(M, (0.5,)),
                     lambda M: polar_antilinear(AntilinearOp(M))):
            with pytest.raises(ValueError,
                               match="^eigendecomposition failed to reconstruct input$"):
                call(H)


class TestAntilinear:
    def test_apply_conjugates_then_multiplies(self):
        J = AntilinearOp(np.eye(2, dtype=np.complex128))
        v = np.array([1.0 + 2.0j, -1.0j])
        assert np.allclose(J.apply(v), v.conj())

    def test_composition_rules(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        B = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        L = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        Ja, Jb = AntilinearOp(A), AntilinearOp(B)
        # antilinear after antilinear is linear
        assert np.allclose(Ja.compose_antilinear(Jb) @ v, Ja.apply(Jb.apply(v)))
        # antilinear after linear stays antilinear
        assert np.allclose(Ja.compose_linear(L).apply(v), Ja.apply(L @ v))

    def test_polar_of_involution(self):
        # S with S^2 = 1 but S not antiunitary: J must be involutive and
        # conjugate delta to its inverse
        S = AntilinearOp(np.array([[0.0, 2.0], [0.5, 0.0]], dtype=np.complex128))
        v = np.array([1.0 + 1.0j, -2.0])
        assert np.allclose(S.apply(S.apply(v)), v)
        J, delta, half, minus_half = polar_antilinear(S)
        assert operator_norm(J.compose_linear(half).matrix - S.matrix) < 1e-12
        assert operator_norm(J.compose_antilinear(J) - np.eye(2)) < 1e-12
        assert operator_norm(half @ minus_half - np.eye(2)) < 1e-12
        inv, = hermitian_powers(delta, (-1.0,))
        assert operator_norm(J.compose_linear(delta).compose_antilinear(J) - inv) < 1e-12

    def test_polar_rejects_singular(self):
        with pytest.raises(Singular, match="^antilinear operator is numerically singular$"):
            polar_antilinear(AntilinearOp(
                np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.complex128)))

    def test_polar_applies_the_power_guards_after_its_own(self):
        # smallest singular value 1e-6 clears the polar cutoff 1e-8 but its
        # square 1e-12 is below the cutoff for Delta^{-1/2}
        with pytest.raises(Singular, match="^negative power of a singular matrix$"):
            polar_antilinear(AntilinearOp(np.diag([1.0, 1e-6]).astype(np.complex128)))


class TestKernels:
    def test_null_space_of_rank_one(self):
        A = np.array([[1.0, 1.0]], dtype=np.complex128)
        B = null_space(A)
        assert B.shape == (2, 1)
        assert operator_norm(A @ B) < 1e-12

    def test_null_space_scale_anchors_noise(self):
        noise = 1e-13 * np.ones((2, 2))
        # relative to itself the noise looks rank one
        assert null_space(noise).shape[1] == 1
        # anchored at the scale of the cancelled operands it is zero
        assert null_space(noise, scale=1.0).shape[1] == 2

    def test_joint_null_space_matches_stacked(self):
        rng = np.random.default_rng(1)
        blocks = [rng.normal(size=(2, 4)) for _ in range(3)]
        joint = joint_null_space(blocks, 4, scale=1.0)
        stacked = null_space(np.vstack(blocks), scale=1.0)
        same, res = subspaces_equal(joint, stacked)
        assert same and res < 1e-8

    def test_joint_null_space_empty_family_is_everything(self):
        assert joint_null_space([], 3).shape == (3, 3)

    def test_orthonormal_columns_and_containment(self):
        A = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]], dtype=np.complex128)
        Q = orthonormal_columns(A)
        assert Q.shape == (3, 1)
        assert containment_residual(A, Q) < 1e-12
        assert containment_residual(np.eye(3), Q) > 0.5

    def test_subspaces_equal_detects_difference(self):
        same, _ = subspaces_equal(np.eye(3)[:, :2], np.eye(3)[:, 1:])
        assert not same


class TestCommutant:
    def test_commutant_of_nothing_is_everything(self):
        assert commutant([], 2).shape == (4, 4)

    def test_commutant_of_full_matrix_units_is_scalars(self):
        units = [np.zeros((2, 2), dtype=np.complex128) for _ in range(4)]
        for k, (i, j) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            units[k][i, j] = 1.0
        C = commutant(units, 2)
        assert C.shape[1] == 1
        X = C[:, 0].reshape(2, 2)
        assert operator_norm(X - X[0, 0] * np.eye(2)) < 1e-10

    def test_commutant_of_tensor_factor(self):
        # M2 (x) 1 acting on C^6 commutes exactly with 1 (x) M3
        gens = []
        for i in range(2):
            for j in range(2):
                E = np.zeros((2, 2), dtype=np.complex128)
                E[i, j] = 1.0
                gens.append(np.kron(E, np.eye(3)))
        C = commutant(gens, 6)
        assert C.shape[1] == 9
        other = matrices_to_columns(
            [np.kron(np.eye(2), E.reshape(3, 3))
             for E in np.eye(9, dtype=np.complex128).T])
        same, res = subspaces_equal(C, other)
        assert same and res < 1e-8

    @pytest.mark.parametrize("pattern,comm_dim", [
        ([(4, 1)], 1),
        ([(2, 2)], 4),
        ([(2, 1), (2, 1)], 2),
        ([(2, 1), (1, 2)], 5),
        ([(1, 1)] * 4, 4),
    ])
    def test_double_commutant_recovers_subalgebra(self, pattern, comm_dim):
        # subalgebras of M4 given by block sizes with multiplicities,
        # moved to general position by a random unitary
        rng = np.random.default_rng(sum(n * 10 + m for n, m in pattern))
        U = _haar_unitary(4, rng)
        gens = []
        off = 0
        for n, m in pattern:
            for p in range(n):
                for q in range(n):
                    E = np.zeros((4, 4), dtype=np.complex128)
                    for k in range(m):
                        E[off + p * m + k, off + q * m + k] = 1.0
                    gens.append(U @ E @ U.conj().T)
            off += n * m
        first = commutant(gens, 4)
        assert first.shape[1] == comm_dim
        second = commutant([first[:, k].reshape(4, 4)
                            for k in range(first.shape[1])], 4)
        alg = matrices_to_columns(gens)
        assert second.shape[1] == sum(n * n for n, m in pattern)
        same, res = subspaces_equal(second, alg)
        assert same and res < 1e-8
        assert containment_residual(alg, second) < 1e-8


class TestGramQuotient:
    def test_rank_one_quotient_preserves_inner_products(self):
        G = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=np.complex128)
        q = gram_quotient(G)
        assert q.rank == 1
        v = np.array([2.0, 0.0])
        w = np.array([0.0, 3.0])
        got = np.vdot(q.project @ w, q.project @ v)
        assert got == pytest.approx(np.vdot(w, G @ v))

    def test_null_vectors_are_killed(self):
        G = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=np.complex128)
        q = gram_quotient(G)
        assert np.linalg.norm(q.project @ np.array([1.0, -1.0])) < 1e-12

    def test_project_section_identity(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(4, 3))
        G = (A @ A.T).astype(np.complex128)
        q = gram_quotient(G)
        assert q.rank == 3
        assert operator_norm(q.project @ q.section - np.eye(3)) < 1e-10

    def test_zero_gram_empty_quotient(self):
        q = gram_quotient(np.zeros((3, 3), dtype=np.complex128), scale=1.0)
        assert q.rank == 0
        assert q.project.shape == (0, 3)

    def test_noise_gram_with_scale_is_empty(self):
        q = gram_quotient(1e-13 * np.eye(2, dtype=np.complex128), scale=1.0)
        assert q.rank == 0

    def test_rejects_non_psd(self):
        with pytest.raises(NotPSD):
            gram_quotient(np.diag([1.0, -1.0]).astype(np.complex128))
        with pytest.raises(NotPSD):
            gram_quotient(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128))



class TestKronSandwich:
    """project @ kron(left, right) @ section against the formed Kronecker product."""

    @staticmethod
    def _factor(rng, spec):
        """A random matrix or stack for a shape tuple, the int itself for an identity."""
        if isinstance(spec, int):
            return spec, np.eye(spec)
        M = rng.normal(size=spec) + 1j * rng.normal(size=spec)
        return M, M

    @pytest.mark.parametrize("left, right", [
        ((3, 2), (4, 5)), (2, (4, 3)), ((3, 2), 4), ((6, 3, 2), 4), (2, (6, 4, 3)),
        ((6, 3, 2), (6, 4, 5)), ((0, 2), (4, 3)), ((3, 0), 4), (0, (3, 3)),
        ((6, 3, 2), 0), (2, (6, 0, 3)), ((1, 1), (1, 1))])
    @pytest.mark.parametrize("cols", [0, 1, 3])
    @pytest.mark.parametrize("with_project", [False, True])
    def test_matches_the_formed_kronecker_product(self, left, right, cols,
                                                  with_project):
        rng = np.random.default_rng(cols)
        L, L_ref = self._factor(rng, left)
        R, R_ref = self._factor(rng, right)
        stack = max(L_ref.ndim, R_ref.ndim) == 3
        rows_in = L_ref.shape[-1] * R_ref.shape[-1]
        rows_out = L_ref.shape[-2] * R_ref.shape[-2]
        section = rng.normal(size=(rows_in, cols)) + 1j * rng.normal(size=(rows_in, cols))
        project = rng.normal(size=(2, rows_out)) if with_project else None
        got = kron_sandwich(project, L, R, section)
        if stack:
            count = max(len(M) for M in (L_ref, R_ref) if M.ndim == 3)
            lefts = L_ref if L_ref.ndim == 3 else [L_ref] * count
            rights = R_ref if R_ref.ndim == 3 else [R_ref] * count
            want = np.stack([np.kron(A, B) @ section for A, B in zip(lefts, rights)])
        else:
            want = np.kron(L_ref, R_ref) @ section
        if project is not None:
            want = project @ want
        assert got.shape == want.shape
        assert np.allclose(got, want, atol=1e-12)
