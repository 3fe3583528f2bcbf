"""Standard forms: modular data, commutation theorem, tracial degeneration."""

import dataclasses

import numpy as np
import pytest

from moritalab import numkernel
from moritalab.errors import AlgebraMismatch, NotFaithful, Singular
from moritalab.numkernel import (
    commutant,
    hermitian_spectrum,
    hermitian_powers,
    matrices_to_columns,
    max_operator_norm,
    operator_norm,
    orthonormal_columns,
    spans_equal,
)
from moritalab.wstar import (
    MultiMatrixAlgebra,
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
from moritalab.wstar import algebras as algebras_module
from moritalab.wstar import standard as standard_module
from moritalab.wstar.algebras import left_commutant, left_frames

from oracles import (
    AntilinearOp,
    center_basis,
    polar_antilinear,
    rejection_sampled_state,
    subspaces_equal,
)

M2 = MultiMatrixAlgebra((2,), name="M2")
M3 = MultiMatrixAlgebra((3,), name="M3")
M23 = MultiMatrixAlgebra((2, 3), name="M2+M3")


def _check_modular_identities(std, tol=1e-9):
    d = std.dim
    S_from_parts = std.J @ np.conj(std.delta_half)
    assert operator_norm(S_from_parts - std.S) <= tol
    assert operator_norm(std.J @ np.conj(std.J) - np.eye(d)) <= tol
    # the right action is exactly the commutant of the left one
    L2 = identity_correspondence(std)
    comm = commutant(L2.pi_l_units, d)
    same, res = subspaces_equal(comm, matrices_to_columns(L2.pi_r_units))
    assert same and res <= 1e-8
    # conjugating by the modular operator fixes the center pointwise
    for z in center_basis(std.algebra):
        Z = L2.pi_l(z)
        assert operator_norm(std.delta @ Z - Z @ std.delta) <= tol


class TestAlgebras:
    def test_dimensions_and_units(self):
        assert M23.dim == 5
        assert M23.vector_dim == 13
        assert len(M23.matrix_units()) == 13
        assert len(center_basis(M23)) == 2

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

    @pytest.mark.parametrize("n", [9, 10, 11, 12])
    def test_random_state_on_large_blocks(self, n):
        # at the bench floor rejection alone almost never clears M_11 or M_12
        A = MultiMatrixAlgebra((n,))
        for seed in range(10):
            phi = random_faithful_state(A, np.random.default_rng(seed), floor=0.05)
            assert np.linalg.eigvalsh(phi.density).min() >= 0.05
            assert abs(np.trace(phi.density) - 1.0) <= 1e-12

    def test_random_state_keeps_every_draw_that_clears_the_floor(self):
        # the bench's states and every test corpus depend on these draws
        cases = [(MultiMatrixAlgebra(blocks), floor) for blocks in
                 ((2,), (3,), (2, 3), (4,), (1, 2, 2), (6,), (8,), (9,))
                 for floor in (1e-3, 0.05)]
        kept = 0
        for A, floor in cases:
            for seed in range(5):
                old, new = np.random.default_rng(seed), np.random.default_rng(seed)
                want = rejection_sampled_state(A, old, floor)
                got = random_faithful_state(A, new, floor=floor).density
                if want is not None:
                    kept += 1
                    assert got.tobytes() == want.tobytes()
                    assert old.random() == new.random()
        assert kept >= 70

    @pytest.mark.parametrize("blocks, floor", [((2,), 0.5), ((2, 1), 0.4), ((4,), 0.3)])
    def test_random_state_raises_only_without_room(self, blocks, floor):
        A = MultiMatrixAlgebra(blocks)
        with pytest.raises(NotFaithful):
            random_faithful_state(A, np.random.default_rng(0), floor=floor)
        # just below dim.floor = 1 the fallback spectrum still clears the floor
        phi = random_faithful_state(A, np.random.default_rng(0), floor=0.99 / A.dim)
        assert np.linalg.eigvalsh(phi.density).min() >= 0.99 / A.dim

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
        assert np.allclose(std.J @ np.conj(cyc), cyc, atol=1e-9)

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
        cyc, L2 = std.cyclic_vector(), identity_correspondence(std)
        for _ in range(5):
            x = M2.random_element(rng)
            assert abs(np.vdot(cyc, L2.pi_l(x) @ cyc) - phi(x)) < 1e-10

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

    def test_twist_leaving_the_algebra_is_caught_downstream(self):
        # a modular operator swapped for a generic unitary conjugation
        # carries pi_l(A) off itself; nothing re-checks Δ where it is read,
        # but the residuals, the unitor and the balancing law all expose it
        std = gns_standard_form(M2, State(M2, np.diag([2 / 3, 1 / 3])
                                          .astype(np.complex128)))
        rng = np.random.default_rng(9)
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        W, _ = np.linalg.qr(z)
        bad = dataclasses.replace(std, delta_half=W,
                                  delta_minus_half=W.conj().T)
        assert standard_form_residuals(bad)["polar"] > 0.1
        L2 = identity_correspondence(bad)
        assert right_unitor(L2, std).is_unitary(1e-8)
        assert right_unitor(L2, bad).is_unitary(1e-8) is False
        fus = connes_fusion(L2, conjugate_correspondence(L2), bad)
        good, broken = (twisted_balancing_residual(fus, s, np.random.default_rng(10),
                                                   samples=20) for s in (std, bad))
        assert good <= 1e-12 and broken > 1.0, (good, broken)


class TestLeftMultiplication:
    @pytest.mark.parametrize("alg", [M23, MultiMatrixAlgebra((4,))])
    def test_closed_form_matches_coordinates(self, alg):
        rng = np.random.default_rng(5)
        std = gns_standard_form(alg, random_faithful_state(alg, rng))
        units = alg.matrix_units()
        for U, L in zip(units, identity_correspondence(std).pi_l_units):
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
            assert np.array_equal(std.S, S)


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
        assert operator_norm(identity_correspondence(std).pi_r(y) - right) <= 1e-12

    def test_twist_is_trivial(self):
        std = gns_standard_form(M23, trace_state(M23))
        rng = np.random.default_rng(8)
        y = M23.random_element(rng)
        assert np.allclose(std.modular_twist(y, sign=-1), y, atol=1e-12)


def _polar_modular_data(std):
    """The modular data from the polar decomposition of std.S, the route
    the closed form replaced: J and Δ^{1/2} come from one spectrum of Δ,
    the right units through y -> J.pi_l(y*).J, the twist tables by
    conjugating each left unit, and creation_inverse by inverting a matrix."""
    A = std.algebra
    J, delta, half, minus_half = polar_antilinear(AntilinearOp(std.S))
    J = J.matrix
    lefts = np.stack(identity_correspondence(std).pi_l_units)
    data = {"J": J, "delta": delta, "delta_half": half,
            "delta_minus_half": minus_half,
            "pi_r_units": J @ np.conj(lefts[A.adjoint_order] @ J),
            "creation_inverse": np.linalg.inv(
                J @ np.conj(std.lam[:, A.adjoint_order]))}
    # column u of a twist table: coordinates of Δ^{s/2}.pi_l(E_u).Δ^{-s/2}
    for name, a, b in (("delta_minus_half", minus_half, half),
                       ("delta_half", half, minus_half)):
        data[f"twist of {name}"] = std.lam_inv @ ((a @ lefts @ b) @ std.cyclic_vector()).T
    return data


def _wstar_morita_states(rng):
    """The 100 seeded standard-form states of the wstar-morita bench."""
    for blocks in ((2,), (3,), (2, 3), (4,)):
        A = MultiMatrixAlgebra(blocks)
        for _ in range(25):
            yield A, random_faithful_state(A, rng, floor=0.05)


def _differential_corpus():
    """The wstar-morita bench states at seed 7, a skew state on M_2 and
    one state on M_2 + M_2 + C."""
    rng = np.random.default_rng(7)
    yield from _wstar_morita_states(rng)
    yield M2, State(M2, np.diag([2.0 / 3.0, 1.0 / 3.0]).astype(np.complex128))
    A = MultiMatrixAlgebra((2, 2, 1))
    yield A, random_faithful_state(A, rng, floor=0.05)


def _floor_states():
    """Random states at the library's faithfulness floor, 1e-3."""
    rng = np.random.default_rng(13)
    for blocks in ((2,), (3,), (2, 3), (1, 2, 2), (4,)):
        A = MultiMatrixAlgebra(blocks)
        for _ in range(5):
            yield A, random_faithful_state(A, rng)


def _reference_residuals(std):
    """standard_form_residuals re-validating every array, as it used to."""
    polar = operator_norm(std.J @ np.conj(std.delta_half) - std.S)
    involution = operator_norm(std.J @ np.conj(std.J) - np.eye(std.dim))
    L2 = identity_correspondence(std)
    _, comm_res = spans_equal(
        left_commutant(left_frames(std.algebra, L2.pi_l_units)),
        orthonormal_columns(matrices_to_columns(L2.pi_r_units)))
    Zs = [L2.pi_l(z) for z in center_basis(std.algebra)]
    center = max_operator_norm([std.delta @ Z - Z @ std.delta for Z in Zs])
    return {"polar": polar, "involution": involution,
            "commutant": comm_res, "center": center}


def test_residuals_equal_the_validating_build_bitwise():
    for A, phi in _differential_corpus():
        std = gns_standard_form(A, phi)
        got, want = standard_form_residuals(std), _reference_residuals(std)
        assert {k: v.hex() for k, v in got.items()} == \
            {k: v.hex() for k, v in want.items()}, A.block_sizes


def _same_bits(got, want):
    return {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}


class TestHandBuiltForms:
    """Forms whose arrays were swapped after the build: every residual is
    still the validating build's, bit for bit, and the broken law shows."""

    def test_j_that_is_not_an_involution(self):
        std = gns_standard_form(M23, random_faithful_state(M23, np.random.default_rng(21)))
        rng = np.random.default_rng(22)
        M = rng.normal(size=(13, 13)) + 1j * rng.normal(size=(13, 13))
        bad = dataclasses.replace(std, J=std.J + 0.1 * M)
        got = standard_form_residuals(bad)
        assert _same_bits(got, _reference_residuals(bad))
        assert got["involution"] > 0.1 and got["polar"] > 0.1

    def test_delta_with_entries_across_blocks(self):
        std = gns_standard_form(MultiMatrixAlgebra((1, 2, 2)),
                                random_faithful_state(MultiMatrixAlgebra((1, 2, 2)),
                                                      np.random.default_rng(23)))
        rng = np.random.default_rng(24)
        M = rng.normal(size=(std.dim,) * 2) + 1j * rng.normal(size=(std.dim,) * 2)
        for bad in (dataclasses.replace(std, delta=std.delta + 1e-3 * (M + M.conj().T)),
                    dataclasses.replace(std, delta=M)):
            got = standard_form_residuals(bad)
            assert _same_bits(got, _reference_residuals(bad))
            assert got["center"] > 1e-4

    def test_foreign_half_power(self):
        # the unitary Δ^{1/2} of test_twist_leaving_the_algebra_is_caught_downstream
        std = gns_standard_form(M2, State(M2, np.diag([2 / 3, 1 / 3])
                                          .astype(np.complex128)))
        rng = np.random.default_rng(9)
        W, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        bad = dataclasses.replace(std, delta_half=W, delta_minus_half=W.conj().T)
        got = standard_form_residuals(bad)
        assert _same_bits(got, _reference_residuals(bad))
        assert got["polar"] > 0.1

    def test_unit_stacks_cannot_be_replaced(self):
        # the actions live on L² alone: a form neither holds nor takes them
        std = gns_standard_form(M2, trace_state(M2))
        L2 = identity_correspondence(std)
        names = {f.name for f in dataclasses.fields(std)}
        assert not names & {"pi_l_units", "pi_r_units"}
        assert not any(hasattr(std, key)
                       for key in ("pi_l_units", "pi_r_units", "pi_l", "pi_r"))
        with pytest.raises(TypeError):
            dataclasses.replace(std, pi_r_units=tuple(L2.pi_l_units))
        with pytest.raises(TypeError):
            dataclasses.replace(std, pi_l_units=tuple(L2.pi_r_units))

    def test_commutant_is_measured_once_per_algebra(self, monkeypatch):
        calls = []

        def counted(A, units):
            calls.append(A.block_sizes)
            return left_frames(A, units)
        monkeypatch.setattr(algebras_module, "left_frames", counted)
        A = MultiMatrixAlgebra((2, 1))
        rng = np.random.default_rng(25)
        for _ in range(3):
            std = gns_standard_form(A, random_faithful_state(A, rng))
            got = standard_form_residuals(std)["commutant"]
            assert got.hex() == _reference_residuals(std)["commutant"].hex()
        assert calls == [(2, 1)]


    def test_j_is_held_once_per_algebra(self):
        rng = np.random.default_rng(26)
        for A in (M2, M23, MultiMatrixAlgebra((1, 2, 2))):
            forms = [gns_standard_form(A, random_faithful_state(A, rng)) for _ in range(3)]
            J = forms[0].J
            assert all(std.J is J for std in forms)
            want = np.eye(A.vector_dim, dtype=np.complex128)[A.adjoint_order]
            assert J.dtype == want.dtype and J.tobytes() == want.tobytes()
            with pytest.raises(ValueError):
                J[0, 0] = 1.0


class TestOneSpectrumPerOperator:
    def test_closed_form_matches_the_polar_decomposition(self):
        corpora = (_differential_corpus(),
                   _wstar_morita_states(np.random.default_rng(1)),
                   _wstar_morita_states(np.random.default_rng(31)),
                   _floor_states())
        count = 0
        for A, phi in (state for corpus in corpora for state in corpus):
            std = gns_standard_form(A, phi)
            bound = 1e-12 * operator_norm(std.delta)
            for name, want in _polar_modular_data(std).items():
                # a unit stack, L²'s, is compared as one tall matrix
                owner = identity_correspondence(std) if name == "pi_r_units" else std
                got = np.reshape(getattr(owner, name.removeprefix("twist of ")),
                                 (-1, std.dim))
                assert operator_norm(got - want.reshape(-1, std.dim)) <= bound, \
                    (A.block_sizes, name)
            count += 1
        assert count == 102 + 200 + 25

    def test_one_spectrum_per_standard_form(self, monkeypatch):
        calls = []

        def counted(H):
            calls.append(H.shape)
            return hermitian_spectrum(H)
        for module in (numkernel, standard_module):
            monkeypatch.setattr(module, "hermitian_spectrum", counted)
        for A in (M2, M23, MultiMatrixAlgebra((2, 2, 1))):
            calls.clear()
            gns_standard_form(A, random_faithful_state(A, np.random.default_rng(3)))
            # the density's, A.dim square; nothing on L² is decomposed
            assert calls == [(A.dim, A.dim)]


class TestSingularBoundary:
    """A standard form rejects a state exactly when some block of its
    density has condition number 1e4 or more, the point where Δ's smallest
    eigenvalue 1/κ meets the cutoff DEFAULT_TOL.κ of its negative powers.
    Ratios between different blocks never matter."""

    @pytest.mark.parametrize("r", [5e-4, 1e-4])
    def test_m2_below_the_cutoff_builds(self, r):
        phi = State(M2, np.diag([1 - r, r]).astype(np.complex128), floor=r / 2)
        assert standard_form_residuals(gns_standard_form(M2, phi))["polar"] <= 1e-9

    @pytest.mark.parametrize("r", [5e-5, 1e-5])
    def test_m2_above_the_cutoff_is_singular(self, r):
        phi = State(M2, np.diag([1 - r, r]).astype(np.complex128), floor=r / 2)
        with pytest.raises(Singular, match="^negative power of a singular matrix$"):
            gns_standard_form(M2, phi)

    @pytest.mark.parametrize("r, builds", [(1e-4, True), (2e-5, False)])
    def test_only_the_block_ratio_decides(self, r, builds):
        A = MultiMatrixAlgebra((1, 2))
        phi = State(A, np.diag([0.5, 0.5 - r, r]).astype(np.complex128), floor=r / 2)
        if builds:
            gns_standard_form(A, phi)
        else:
            with pytest.raises(Singular, match="^negative power of a singular matrix$"):
                gns_standard_form(A, phi)

    def test_ratio_between_blocks_builds(self):
        A = MultiMatrixAlgebra((1, 1))
        rho = np.diag([1.0, 1e-6]) / (1.0 + 1e-6)
        std = gns_standard_form(A, State(A, rho.astype(np.complex128), floor=1e-7))
        assert operator_norm(std.delta - np.eye(2)) <= 1e-15
