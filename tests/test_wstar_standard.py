"""Standard forms: modular data, commutation theorem, tracial degeneration."""

import dataclasses

import numpy as np
import pytest

from moritalab import numkernel
from moritalab.errors import AlgebraMismatch, NotFaithful
from moritalab.numkernel import (
    AntilinearOp,
    commutant,
    hermitian_spectrum,
    hermitian_powers,
    matrices_to_columns,
    max_operator_norm,
    operator_norm,
    orthonormal_columns,
    spans_equal,
    subspaces_equal,
)
from moritalab.wstar import (
    MultiMatrixAlgebra,
    StandardFormData,
    State,
    connes_fusion,
    conjugate_correspondence,
    gns_standard_form,
    identity_correspondence,
    random_faithful_state,
    right_unitor,
    standard_form_residuals,
    trace_state,
    twisted_balancing_residual,
)
from moritalab.wstar.algebras import left_commutant, left_frames

M2 = MultiMatrixAlgebra((2,), name="M2")
M3 = MultiMatrixAlgebra((3,), name="M3")
M23 = MultiMatrixAlgebra((2, 3), name="M2+M3")


def _check_modular_identities(std, tol=1e-9):
    d = std.dim
    half = std.delta_half
    S_from_parts = std.J.compose_linear(half).matrix
    assert operator_norm(S_from_parts - std.S.matrix) <= tol
    assert operator_norm(std.J.compose_antilinear(std.J) - np.eye(d)) <= tol
    # the right action is exactly the commutant of the left one
    comm = commutant(std.pi_l_units, d)
    same, res = subspaces_equal(comm, matrices_to_columns(std.pi_r_units))
    assert same and res <= 1e-8
    # conjugating by the modular operator fixes the center pointwise
    for z in std.algebra.center_basis():
        Z = std.pi_l(z)
        assert operator_norm(std.delta @ Z - Z @ std.delta) <= tol


class TestAlgebras:
    def test_dimensions_and_units(self):
        assert M23.dim == 5
        assert M23.vector_dim == 13
        assert len(M23.matrix_units()) == 13
        assert len(M23.center_basis()) == 2

    def test_coords_round_trip(self):
        rng = np.random.default_rng(0)
        x = M23.random_element(rng)
        assert np.allclose(M23.from_coords(M23.coords(x)), x)

    def test_coords_match_per_entry_reference(self):
        rng = np.random.default_rng(5)
        for A in (M2, M23, MultiMatrixAlgebra((1, 3, 2))):
            pos = [(A.block_offset(b) + i, A.block_offset(b) + j)
                   for b, i, j in A.unit_triples()]
            x = A.random_element(rng)
            want = np.array([x[r, c] for r, c in pos])
            assert A.coords(x).tobytes() == want.tobytes()
            ref = np.zeros((A.dim, A.dim), dtype=np.complex128)
            for val, (r, c) in zip(want, pos):
                ref[r, c] = val
            assert A.from_coords(want).tobytes() == ref.tobytes()

    def test_coords_rejects_off_block_entries(self):
        x = np.zeros((5, 5), dtype=np.complex128)
        x[0, 3] = 1.0
        with pytest.raises(AlgebraMismatch):
            M23.coords(x)

    def test_coords_off_block_boundary(self):
        # on a norm-1 element the off-block bound is about 2e-8
        x = np.zeros((5, 5), dtype=np.complex128)
        x[0, 0] = 1.0
        x[0, 3] = 1e-12
        assert M23.coords(x)[0] == 1.0
        x[0, 3] = 1e-6
        with pytest.raises(AlgebraMismatch):
            M23.coords(x)

    def test_state_guards(self):
        with pytest.raises(NotFaithful):
            State(M2, np.diag([1.0, 0.0]).astype(np.complex128))
        with pytest.raises(NotFaithful):
            State(M2, np.diag([0.7, 0.7]).astype(np.complex128))
        with pytest.raises(AlgebraMismatch):
            State(M23, np.eye(4, dtype=np.complex128) / 4.0)

    def test_random_state_faithful_normalized(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            phi = random_faithful_state(M23, rng)
            evals = np.linalg.eigvalsh(phi.density)
            assert evals.min() >= 1e-3 - 1e-12
            assert abs(np.trace(phi.density) - 1.0) < 1e-10

    def test_trace_state_is_tracial(self):
        assert trace_state(M23).is_tracial()
        rng = np.random.default_rng(2)
        assert not random_faithful_state(M23, rng).is_tracial()


class TestModularData:
    def test_known_spectrum_of_modular_operator(self):
        # density diag(2/3, 1/3): conjugation by it has eigenvalues
        # {1, 1, 2, 1/2}, computed directly from rho E rho^{-1}
        phi = State(M2, np.diag([2 / 3, 1 / 3]).astype(np.complex128))
        std = gns_standard_form(M2, phi)
        got = np.sort(np.linalg.eigvalsh(std.delta))
        assert np.allclose(got, [0.5, 1.0, 1.0, 2.0], atol=1e-9)
        rho = phi.density
        rho_inv = np.diag(1.0 / np.diag(rho))
        oracle = np.stack(
            [M2.coords(rho @ E @ rho_inv) for E in M2.matrix_units()], axis=1)
        assert operator_norm(std.delta - oracle) <= 1e-9

    def test_lambda_is_isometric_for_the_state(self):
        rng = np.random.default_rng(3)
        phi = random_faithful_state(M23, rng)
        std = gns_standard_form(M23, phi)
        for _ in range(5):
            x = M23.random_element(rng)
            y = M23.random_element(rng)
            got = np.vdot(std.Lambda(x), std.Lambda(y))
            assert abs(got - phi(x.conj().T @ y)) < 1e-10

    def test_cyclic_vector_is_fixed_by_modular_data(self):
        rng = np.random.default_rng(4)
        std = gns_standard_form(M23, random_faithful_state(M23, rng))
        cyc = std.cyclic_vector()
        assert np.allclose(std.delta @ cyc, cyc, atol=1e-9)
        assert np.allclose(std.J.apply(cyc), cyc, atol=1e-9)

    @pytest.mark.parametrize("alg", [M2, M3, M23])
    def test_modular_identities_random_states(self, alg):
        rng = np.random.default_rng(alg.dim)
        for _ in range(2):
            std = gns_standard_form(alg, random_faithful_state(alg, rng))
            _check_modular_identities(std)

    def test_left_action_reproduces_state(self):
        rng = np.random.default_rng(5)
        phi = random_faithful_state(M2, rng)
        std = gns_standard_form(M2, phi)
        cyc = std.cyclic_vector()
        for _ in range(5):
            x = M2.random_element(rng)
            assert abs(np.vdot(cyc, std.pi_l(x) @ cyc) - phi(x)) < 1e-10

    def test_modular_twist_matches_density_conjugation(self):
        phi = State(M2, np.diag([2 / 3, 1 / 3]).astype(np.complex128))
        std = gns_standard_form(M2, phi)
        rng = np.random.default_rng(6)
        y = M2.random_element(rng)
        rho = phi.density
        r_half = np.diag(np.diag(rho) ** 0.5)
        r_mhalf = np.diag(np.diag(rho) ** -0.5)
        assert np.allclose(std.modular_twist(y, sign=-1),
                           r_mhalf @ y @ r_half, atol=1e-10)
        assert np.allclose(std.modular_twist(y, sign=+1),
                           r_half @ y @ r_mhalf, atol=1e-10)

    def test_twist_leaving_the_algebra_is_not_faithful(self):
        # a modular operator swapped for a generic unitary conjugation
        # carries pi_l(A) off itself, which the twist's drift check reports
        std = gns_standard_form(M2, State(M2, np.diag([2 / 3, 1 / 3])
                                          .astype(np.complex128)))
        rng = np.random.default_rng(9)
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        W, _ = np.linalg.qr(z)
        bad = dataclasses.replace(std, delta_half=W,
                                  delta_minus_half=W.conj().T)
        L2 = identity_correspondence(bad)
        fus = connes_fusion(L2, conjugate_correspondence(L2), bad)
        for sign in (-1, 1):
            with pytest.raises(NotFaithful,
                               match="modular twist left the algebra"):
                bad.modular_twist(M2.random_element(rng), sign=sign)
        with pytest.raises(NotFaithful, match="modular twist left the algebra"):
            right_unitor(L2, bad)
        with pytest.raises(NotFaithful, match="modular twist left the algebra"):
            twisted_balancing_residual(fus, bad, rng, samples=3)


class TestLeftMultiplication:
    @pytest.mark.parametrize("alg", [M23, MultiMatrixAlgebra((4,))])
    def test_closed_form_matches_coordinates(self, alg):
        rng = np.random.default_rng(5)
        std = gns_standard_form(alg, random_faithful_state(alg, rng))
        units = alg.matrix_units()
        for U, L in zip(units, std.pi_l_units):
            want = np.stack([alg.coords(U @ E) for E in units], axis=1)
            assert np.array_equal(L, want)

    @pytest.mark.parametrize("blocks", [(1,), (2,), (2, 3), (1, 2, 2)])
    def test_modular_data_equal_the_per_unit_build(self, blocks):
        # each entry of E_u . X is a single product, so reading coordinates
        # off the stacked products changes no bit of lam, lam_inv or S
        alg = MultiMatrixAlgebra(blocks)
        rng = np.random.default_rng(len(blocks))
        for phi in (trace_state(alg), random_faithful_state(alg, rng)):
            std = gns_standard_form(alg, phi)
            half, minus_half = hermitian_powers(phi.density, (0.5, -0.5))
            units = alg.matrix_units()
            lam = np.stack([alg.coords(E @ half) for E in units], axis=1)
            lam_inv = np.stack([alg.coords(E @ minus_half) for E in units],
                               axis=1)
            S = np.stack([alg.coords((E @ minus_half).conj().T @ half)
                          for E in units], axis=1)
            assert np.array_equal(std.lam, lam)
            assert np.array_equal(std.lam_inv, lam_inv)
            assert np.array_equal(std.S.matrix, S)


class TestTracialCase:
    @pytest.mark.parametrize("alg", [M2, M23])
    def test_modular_operator_is_identity(self, alg):
        std = gns_standard_form(alg, trace_state(alg))
        assert operator_norm(std.delta - np.eye(std.dim)) <= 1e-12

    def test_right_action_is_plain_right_multiplication(self):
        std = gns_standard_form(M2, trace_state(M2))
        rng = np.random.default_rng(7)
        y = M2.random_element(rng)
        units = M2.matrix_units()
        right = np.stack([M2.coords(E @ y) for E in units], axis=1)
        assert operator_norm(std.pi_r(y) - right) <= 1e-12

    def test_twist_is_trivial(self):
        std = gns_standard_form(M23, trace_state(M23))
        rng = np.random.default_rng(8)
        y = M23.random_element(rng)
        assert np.allclose(std.modular_twist(y, sign=-1), y, atol=1e-12)


def _reference_power(H, power):
    """H^power from its own spectrum, the way each power used to be built."""
    w, V = hermitian_spectrum(H)
    return (V * np.power(np.clip(w, 0.0, None), power)) @ V.conj().T


def _reference_standard_form(A, phi):
    """gns_standard_form with one spectrum per power, as separate builds."""
    rho = phi.density
    rho_half, rho_minus_half = (_reference_power(rho, p) for p in (0.5, -0.5))
    units = np.stack(A.matrix_units())
    rows, cols = A.unit_positions
    lam = (units @ rho_half)[:, rows, cols].T
    right_minus_half = units @ rho_minus_half
    lam_inv = right_minus_half[:, rows, cols].T
    M = (right_minus_half.conj().transpose(0, 2, 1) @ rho_half)[:, rows, cols].T
    delta = M.T @ np.conj(M)
    J = M @ np.conj(_reference_power(delta, -0.5))
    lefts = ((rows[:, None, None] == rows[:, None]) & (cols[:, None, None] == rows)
             & (cols[:, None] == cols)).astype(np.complex128)
    pi_r = [J @ np.conj(lefts[u] @ J) for u in A.adjoint_order]
    return StandardFormData(A, phi, lam, lam_inv, AntilinearOp(M), AntilinearOp(J),
                            delta, _reference_power(delta, 0.5),
                            _reference_power(delta, -0.5), tuple(lefts), tuple(pi_r))


def _differential_corpus():
    """The 100 seeded states of the wstar-morita bench, a skew state on M_2
    and one state on M_2 + M_2 + C."""
    rng = np.random.default_rng(7)
    for blocks in ((2,), (3,), (2, 3), (4,)):
        A = MultiMatrixAlgebra(blocks)
        for _ in range(25):
            yield A, random_faithful_state(A, rng, floor=0.05)
    yield M2, State(M2, np.diag([2.0 / 3.0, 1.0 / 3.0]).astype(np.complex128))
    A = MultiMatrixAlgebra((2, 2, 1))
    yield A, random_faithful_state(A, rng, floor=0.05)


def _reference_residuals(std):
    """standard_form_residuals re-validating every array, as it used to."""
    polar = operator_norm(std.J.compose_linear(std.delta_half).matrix - std.S.matrix)
    involution = operator_norm(std.J.compose_antilinear(std.J) - np.eye(std.dim))
    _, comm_res = spans_equal(
        left_commutant(left_frames(std.algebra, std.pi_l_units)),
        orthonormal_columns(matrices_to_columns(std.pi_r_units)))
    Zs = [std.pi_l(z) for z in std.algebra.center_basis()]
    center = max_operator_norm([std.delta @ Z - Z @ std.delta for Z in Zs])
    return {"polar": polar, "involution": involution,
            "commutant": comm_res, "center": center}


def test_residuals_equal_the_validating_build_bitwise():
    for A, phi in _differential_corpus():
        std = gns_standard_form(A, phi)
        got, want = standard_form_residuals(std), _reference_residuals(std)
        assert {k: v.hex() for k, v in got.items()} == \
            {k: v.hex() for k, v in want.items()}, A.block_sizes


class TestOneSpectrumPerOperator:
    def test_standard_form_equals_the_per_power_build_bitwise(self):
        count = 0
        for A, phi in _differential_corpus():
            std, ref = gns_standard_form(A, phi), _reference_standard_form(A, phi)
            for name in ("lam", "lam_inv", "delta", "delta_half", "delta_minus_half",
                         "creation_inverse"):
                assert np.array_equal(getattr(std, name), getattr(ref, name)), name
            assert np.array_equal(std.S.matrix, ref.S.matrix)
            assert np.array_equal(std.J.matrix, ref.J.matrix)
            assert np.array_equal(std.pi_l_units, ref.pi_l_units)
            assert np.array_equal(std.pi_r_units, ref.pi_r_units)
            for sign in (-1, 1):
                assert np.array_equal(std.twist_tables[sign], ref.twist_tables[sign])
            assert standard_form_residuals(std) == standard_form_residuals(ref)
            count += 1
        assert count == 102

    def test_two_spectra_per_standard_form(self, monkeypatch):
        calls = []

        def counted(H):
            calls.append(H.shape)
            return hermitian_spectrum(H)
        monkeypatch.setattr(numkernel, "hermitian_spectrum", counted)
        for A in (M2, M23, MultiMatrixAlgebra((2, 2, 1))):
            calls.clear()
            gns_standard_form(A, random_faithful_state(A, np.random.default_rng(3)))
            # one of rho (A.dim square), one of Delta (vector_dim square)
            assert calls == [(A.dim, A.dim), (A.vector_dim, A.vector_dim)]
