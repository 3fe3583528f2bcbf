"""Fusion over a middle algebra: creation operators, Gram quotients, unitors."""

import numpy as np
import pytest

from moritalab.bicategory import sample_wstar_chain
from moritalab.errors import AlgebraMismatch, CapExceeded, NotHomomorphism
from moritalab.numkernel import operator_norm
from moritalab.wstar import (
    Correspondence,
    Intertwiner,
    MultiMatrixAlgebra,
    State,
    associator,
    block_correspondence,
    conjugate_correspondence,
    connes_fusion,
    corr_from_homomorphism,
    gns_standard_form,
    identity_correspondence,
    left_unitor,
    r_eta,
    random_faithful_state,
    right_unitor,
    trace_state,
    unitary_intertwiner,
    vector_correspondence,
)

M2 = MultiMatrixAlgebra((2,), name="M2")
M21 = MultiMatrixAlgebra((2, 1), name="M2+C")


def _nontracial_std(alg=M2):
    if alg is M2:
        return gns_standard_form(M2, State(M2, np.diag([2 / 3, 1 / 3]).astype(np.complex128)))
    rng = np.random.default_rng(alg.dim * 17)
    return gns_standard_form(alg, random_faithful_state(alg, rng))


def _rand_vec(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


class TestCorrespondences:
    def test_validation_catches_broken_actions(self):
        good = vector_correspondence(2)
        bad_l = list(good.pi_l_units)
        bad_l[1] = 2.0 * bad_l[1]
        with pytest.raises(ValueError):
            Correspondence(good.left_algebra, good.right_algebra, 2,
                           tuple(bad_l), good.pi_r_units)

    def test_validation_catches_broken_right_action(self):
        # reusing the left units as the right ones breaks the antihom law
        units = []
        for i in range(2):
            for j in range(2):
                E = np.zeros((2, 2), dtype=np.complex128)
                E[i, j] = 1.0
                units.append(E)
        with pytest.raises(ValueError):
            Correspondence(M2, M2, 2, tuple(units), tuple(units))

    def test_conjugate_is_involutive(self):
        H = block_correspondence(M2, M21, [[1, 2]])
        HH = conjugate_correspondence(conjugate_correspondence(H))
        assert all(np.allclose(a, b)
                   for a, b in zip(HH.pi_l_units, H.pi_l_units))
        assert all(np.allclose(a, b)
                   for a, b in zip(HH.pi_r_units, H.pi_r_units))

    def test_block_correspondence_dimensions(self):
        H = block_correspondence(M21, M2, [[2], [1]])
        assert H.dim == 2 * 2 * 2 + 1 * 1 * 2

    def test_zero_multiplicity_gives_zero_space(self):
        H = block_correspondence(M2, M2, [[0]])
        assert H.dim == 0

    def test_intertwiner_guards(self):
        H = vector_correspondence(2)
        with pytest.raises(ValueError):
            Intertwiner(H, H, np.zeros((3, 2)))
        with pytest.raises(AlgebraMismatch):
            Intertwiner(H, vector_correspondence(3), np.zeros((3, 2)))


class TestCreationOperators:
    def test_defining_property(self):
        std = _nontracial_std()
        L2 = identity_correspondence(std)
        rng = np.random.default_rng(0)
        eta = _rand_vec(rng, std.dim)
        R = r_eta(L2, std, eta)
        for _ in range(5):
            y = std.algebra.random_element(rng)
            ystar = y.conj().T
            arg = std.J.apply(std.Lambda(ystar))
            assert np.allclose(R @ arg, std.pi_r(y) @ eta, atol=1e-10)

    def test_product_lands_in_left_action(self):
        std = _nontracial_std(M21)
        H = block_correspondence(M2, M21, [[1, 1]])
        rng = np.random.default_rng(1)
        R1 = r_eta(H, std, _rand_vec(rng, H.dim))
        R2 = r_eta(H, std, _rand_vec(rng, H.dim))
        T = R1.conj().T @ R2
        n = std.Lambda_inv(T @ std.cyclic_vector())
        assert operator_norm(T - std.pi_l(n)) < 1e-8

    def test_left_vectors_give_left_products(self):
        std = _nontracial_std()
        L2 = identity_correspondence(std)
        rng = np.random.default_rng(2)
        x = std.algebra.random_element(rng)
        R = r_eta(L2, std, std.Lambda(x))
        assert operator_norm(R.conj().T @ R - std.pi_l(x.conj().T @ x)) < 1e-10

    def test_state_of_product_is_squared_norm(self):
        std = _nontracial_std()
        L2 = identity_correspondence(std)
        rng = np.random.default_rng(3)
        eta = _rand_vec(rng, std.dim)
        R = r_eta(L2, std, eta)
        n = std.Lambda_inv(R.conj().T @ R @ std.cyclic_vector())
        assert abs(std.state(n) - np.vdot(eta, eta).real) < 1e-9

    def test_commutant_operators_factor_out(self):
        std = _nontracial_std()
        L2 = identity_correspondence(std)
        rng = np.random.default_rng(4)
        eta1, eta2 = _rand_vec(rng, 4), _rand_vec(rng, 4)
        B = std.pi_l(std.algebra.random_element(rng))
        R1 = r_eta(L2, std, eta1)
        RB1 = r_eta(L2, std, B @ eta1)
        RB2 = r_eta(L2, std, B @ eta2)
        assert operator_norm(RB1 - B @ R1) < 1e-8
        R2 = r_eta(L2, std, eta2)
        lhs = RB1.conj().T @ RB2
        rhs = R1.conj().T @ B.conj().T @ B @ R2
        assert operator_norm(lhs - rhs) < 1e-8

    def test_right_action_twists_through(self):
        std = _nontracial_std()
        L2 = identity_correspondence(std)
        rng = np.random.default_rng(5)
        eta = _rand_vec(rng, 4)
        a = std.algebra.random_element(rng)
        lhs = r_eta(L2, std, std.pi_r(a) @ eta)
        rhs = r_eta(L2, std, eta) @ std.pi_l(std.modular_twist(a, sign=+1))
        assert operator_norm(lhs - rhs) < 1e-8


class TestFusion:
    def test_identity_fused_with_identity(self):
        std = _nontracial_std()
        L2 = identity_correspondence(std)
        f = connes_fusion(L2, L2, std)
        assert f.corr.dim == std.dim
        U = unitary_intertwiner(f.corr, L2)
        assert U is not None
        assert Intertwiner(f.corr, L2, U).residual() <= 1e-8

    def test_gram_is_positive(self):
        std = _nontracial_std(M21)
        H = block_correspondence(M21, M21, [[1, 0], [0, 1]])
        f = connes_fusion(H, identity_correspondence(std), std)
        evals = np.linalg.eigvalsh((f.gram + f.gram.conj().T) / 2.0)
        assert evals.min() > -1e-10

    def test_pure_tensor_norms_match_gram(self):
        std = _nontracial_std()
        L2 = identity_correspondence(std)
        f = connes_fusion(L2, L2, std)
        rng = np.random.default_rng(6)
        eta, zeta = _rand_vec(rng, 4), _rand_vec(rng, 4)
        R = r_eta(L2, std, eta)
        n = std.Lambda_inv(R.conj().T @ R @ std.cyclic_vector())
        want = np.vdot(zeta, L2.pi_l(n) @ zeta)
        got = np.vdot(f.pure(eta, zeta), f.pure(eta, zeta))
        assert abs(got - want) < 1e-8

    def test_middle_scalars_reduce_to_plain_tensor(self):
        H = vector_correspondence(2)
        C = H.right_algebra
        stdC = gns_standard_form(C, trace_state(C))
        K = conjugate_correspondence(H)
        f = connes_fusion(H, K, stdC)
        assert f.corr.dim == 4
        # over the scalars the Gram matrix is the plain tensor inner product
        assert operator_norm(f.gram - np.eye(4)) < 1e-10

    def test_mismatched_middle_raises(self):
        H = vector_correspondence(2)
        std = _nontracial_std()
        with pytest.raises(AlgebraMismatch):
            connes_fusion(H, H, std)

    def test_cap_exceeded(self):
        std = _nontracial_std()
        L2 = identity_correspondence(std)
        with pytest.raises(CapExceeded):
            connes_fusion(L2, L2, std, cap=15)

    def test_zero_factor_fuses_to_zero(self):
        Z = block_correspondence(M2, M2, [[0]])
        std = _nontracial_std()
        f = connes_fusion(Z, identity_correspondence(std), std)
        assert f.corr.dim == 0

    def test_twisted_balancing_both_directions(self):
        std = _nontracial_std()
        L2 = identity_correspondence(std)
        f = connes_fusion(L2, L2, std)
        rng = np.random.default_rng(7)
        for _ in range(10):
            eta, zeta = _rand_vec(rng, 4), _rand_vec(rng, 4)
            n = std.algebra.random_element(rng)
            plus = std.modular_twist(n, sign=+1)
            minus = std.modular_twist(n, sign=-1)
            v1 = f.pure(L2.pi_r(n) @ eta, zeta)
            v2 = f.pure(eta, L2.pi_l(plus) @ zeta)
            assert np.allclose(v1, v2, atol=1e-8)
            w1 = f.pure(eta, L2.pi_l(n) @ zeta)
            w2 = f.pure(L2.pi_r(minus) @ eta, zeta)
            assert np.allclose(w1, w2, atol=1e-8)

    def test_untwisted_balancing_fails_off_trace(self):
        std = _nontracial_std()
        L2 = identity_correspondence(std)
        f = connes_fusion(L2, L2, std)
        rng = np.random.default_rng(8)
        worst = 0.0
        for _ in range(5):
            eta, zeta = _rand_vec(rng, 4), _rand_vec(rng, 4)
            n = std.algebra.random_element(rng)
            v1 = f.pure(L2.pi_r(n) @ eta, zeta)
            v2 = f.pure(eta, L2.pi_l(n) @ zeta)
            worst = max(worst, float(np.linalg.norm(v1 - v2)))
        assert worst > 1e-3

    def test_state_independence_up_to_unitary(self):
        rng = np.random.default_rng(9)
        H = block_correspondence(M2, M21, [[1, 1]])
        K = block_correspondence(M21, M2, [[1], [1]])
        f1 = connes_fusion(H, K, gns_standard_form(M21, random_faithful_state(M21, rng)))
        f2 = connes_fusion(H, K, gns_standard_form(M21, random_faithful_state(M21, rng)))
        assert f1.corr.dim == f2.corr.dim
        U = unitary_intertwiner(f1.corr, f2.corr)
        assert U is not None
        assert Intertwiner(f1.corr, f2.corr, U).residual() <= 1e-8


class TestUnitors:
    def test_left_unitor_unitary_and_multiplicative(self):
        std = _nontracial_std()
        K = block_correspondence(M2, M21, [[1, 1]])
        lu = left_unitor(K, std)
        assert lu.is_unitary(1e-8)
        assert lu.residual() <= 1e-8
        # on pure tensors: Lambda(x) (x) zeta -> pi_l(x) zeta
        f = connes_fusion(identity_correspondence(std), K, std)
        lu2 = left_unitor(K, std, f)
        rng = np.random.default_rng(10)
        for _ in range(5):
            x = std.algebra.random_element(rng)
            zeta = _rand_vec(rng, K.dim)
            got = lu2.matrix @ f.pure(std.Lambda(x), zeta)
            assert np.allclose(got, K.pi_l(x) @ zeta, atol=1e-8)

    def test_right_unitor_unitary_and_twisted(self):
        std = _nontracial_std()
        H = block_correspondence(M21, M2, [[1], [1]])
        ru = right_unitor(H, std)
        assert ru.is_unitary(1e-8)
        assert ru.residual() <= 1e-8
        f = connes_fusion(H, identity_correspondence(std), std)
        ru2 = right_unitor(H, std, f)
        rng = np.random.default_rng(11)
        for _ in range(5):
            y = std.algebra.random_element(rng)
            eta = _rand_vec(rng, H.dim)
            got = ru2.matrix @ f.pure(eta, std.Lambda(y))
            want = H.pi_r(std.modular_twist(y, sign=-1)) @ eta
            assert np.allclose(got, want, atol=1e-8)

    def test_tracial_right_unitor_is_plain_action(self):
        tau = trace_state(M2)
        std = gns_standard_form(M2, tau)
        H = block_correspondence(M21, M2, [[1], [1]])
        f = connes_fusion(H, identity_correspondence(std), std)
        ru = right_unitor(H, std, f)
        rng = np.random.default_rng(12)
        for _ in range(5):
            y = std.algebra.random_element(rng)
            eta = _rand_vec(rng, H.dim)
            got = ru.matrix @ f.pure(eta, std.Lambda(y))
            assert np.allclose(got, H.pi_r(y) @ eta, atol=1e-9)


class TestAssociator:
    def test_rebracketing_is_unitary_intertwiner(self):
        rng = np.random.default_rng(13)
        A = MultiMatrixAlgebra((2,))
        B = MultiMatrixAlgebra((2, 1))
        C = MultiMatrixAlgebra((3,))
        H = block_correspondence(A, B, [[1, 1]])
        K = block_correspondence(B, C, [[1], [1]])
        L = block_correspondence(C, A, [[2]])
        stdB = gns_standard_form(B, random_faithful_state(B, rng))
        stdC = gns_standard_form(C, random_faithful_state(C, rng))
        f_ab = connes_fusion(H, K, stdB)
        f_ab_c = connes_fusion(f_ab.corr, L, stdC)
        f_bc = connes_fusion(K, L, stdC)
        f_a_bc = connes_fusion(H, f_bc.corr, stdB)
        al = associator(f_ab, f_ab_c, f_bc, f_a_bc)
        assert al.is_unitary(1e-8)
        assert al.residual() <= 1e-8

    def test_associator_on_pure_tensors(self):
        # (eta x zeta) x xi and eta x (zeta x xi) land on the same class
        rng = np.random.default_rng(14)
        std = _nontracial_std()
        L2 = identity_correspondence(std)
        f_ab = connes_fusion(L2, L2, std)
        f_ab_c = connes_fusion(f_ab.corr, L2, std)
        f_bc = connes_fusion(L2, L2, std)
        f_a_bc = connes_fusion(L2, f_bc.corr, std)
        al = associator(f_ab, f_ab_c, f_bc, f_a_bc)
        for _ in range(5):
            eta, zeta, xi = (_rand_vec(rng, 4) for _ in range(3))
            lhs = al.matrix @ f_ab_c.pure(f_ab.pure(eta, zeta), xi)
            rhs = f_a_bc.pure(eta, f_bc.pure(zeta, xi))
            assert np.allclose(lhs, rhs, atol=1e-8)

    def test_shape_guards(self):
        std = _nontracial_std()
        L2 = identity_correspondence(std)
        f = connes_fusion(L2, L2, std)
        H = block_correspondence(M2, M2, [[2]])
        f_h = connes_fusion(H, L2, std)
        with pytest.raises(ValueError):
            associator(f, f, f_h, f)


class TestCorrFromHomomorphism:
    def test_unital_embedding_carries_full_space(self):
        std = _nontracial_std()
        diag = MultiMatrixAlgebra((1, 1), name="C+C")
        units = []
        for (b, i, j) in diag.unit_triples():
            E = np.zeros((2, 2), dtype=np.complex128)
            E[b, b] = 1.0
            units.append(E)
        corr = corr_from_homomorphism(units, diag, std)
        assert corr.dim == std.dim
        assert corr.left_algebra == M2 and corr.right_algebra == diag

    def test_non_unital_embedding_cuts_carrier(self):
        std = _nontracial_std()
        C = MultiMatrixAlgebra((1,), name="C")
        corr = corr_from_homomorphism(
            [np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.complex128)], C, std)
        assert corr.dim == 2

    def test_rejects_non_homomorphism(self):
        std = _nontracial_std()
        C = MultiMatrixAlgebra((1,), name="C")
        with pytest.raises(NotHomomorphism):
            corr_from_homomorphism(
                [np.array([[1.0, 1.0], [0.0, 1.0]], dtype=np.complex128)], C, std)
        with pytest.raises(NotHomomorphism):
            corr_from_homomorphism(
                [np.array([[0.5, 0.0], [0.0, 0.0]], dtype=np.complex128)], C, std)


def _mult(H):
    return np.array(H.multiplicities, dtype=int).reshape(
        len(H.left_algebra.block_sizes), len(H.right_algebra.block_sizes))


class TestMultiplicities:
    """The multiplicity matrix is an exact invariant that fusion multiplies."""

    def test_block_correspondence_reads_back(self):
        rng = np.random.default_rng(31)
        for left, right in (((2,), (1, 2)), ((2, 1), (1, 1, 1)),
                            ((1, 2, 1), (2,))):
            A, B = MultiMatrixAlgebra(left), MultiMatrixAlgebra(right)
            mult = rng.integers(0, 3, size=(len(left), len(right)))
            H = block_correspondence(A, B, mult.tolist())
            assert np.array_equal(_mult(H), mult)

    @pytest.mark.parametrize("blocks", [(2,), (1, 2), (2, 3)])
    def test_identity_is_the_identity_matrix(self, blocks):
        A = MultiMatrixAlgebra(blocks)
        for phi in (trace_state(A),
                    random_faithful_state(A, np.random.default_rng(len(blocks)))):
            L2 = identity_correspondence(gns_standard_form(A, phi))
            assert np.array_equal(_mult(L2), np.eye(len(blocks), dtype=int))

    def test_fusion_multiplies_and_conjugation_transposes(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            algs, (H, K) = sample_wstar_chain(rng, 2, dim_cap=12)
            B = algs[1]
            for phi in (trace_state(B), random_faithful_state(B, rng)):
                fused = connes_fusion(H, K, gns_standard_form(B, phi)).corr
                assert np.array_equal(_mult(fused), _mult(H) @ _mult(K))
            for X in (H, K):
                assert np.array_equal(_mult(conjugate_correspondence(X)),
                                      _mult(X).T)
