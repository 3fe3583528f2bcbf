"""Fusion over a middle algebra: creation operators, Gram quotients, unitors."""

import numpy as np
import pytest

from moritalab.bicategory import sample_wstar_chain
from moritalab.errors import AlgebraMismatch, CapExceeded, NotHomomorphism
from moritalab.numkernel import DEFAULT_TOL, operator_norm
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

from oracles import fusion_gram

M2 = MultiMatrixAlgebra((2,), name="M2")
M21 = MultiMatrixAlgebra((2, 1), name="M2+C")
M12 = MultiMatrixAlgebra((1, 2), name="C+M2")
C1 = MultiMatrixAlgebra((1,), name="C")


def _nontracial_std(alg=M2):
    if alg is M2:
        return gns_standard_form(M2, State(M2, np.diag([2 / 3, 1 / 3]).astype(np.complex128)))
    rng = np.random.default_rng(alg.dim * 17)
    return gns_standard_form(alg, random_faithful_state(alg, rng))


def _rand_vec(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def _haar_unitary(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _unitary_near_identity(n, angle, rng):
    """exp(i.angle.K) for a random Hermitian K of operator norm 1."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    w, Q = np.linalg.eigh(z + z.conj().T)
    return (Q * np.exp(1j * angle * w / np.max(np.abs(w)))) @ Q.conj().T


def _rotated(pi_l, pi_r, rng):
    """Both actions' unit images conjugated by one Haar unitary."""
    W = _haar_unitary(len(pi_l[0]), rng)
    return ([W @ U @ W.conj().T for U in pi_l],
            [W @ V @ W.conj().T for V in pi_r])


def _direct_sum(units, extra):
    """U (+) X for each unit image U and matching image X on another space."""
    return [np.block([[U, np.zeros((len(U), len(X)))],
                      [np.zeros((len(X), len(U))), X]])
            for U, X in zip(units, extra)]


def _violation(A, B, pi_l, pi_r):
    """The message Correspondence raises on these unit images, or None."""
    try:
        Correspondence(A, B, len(pi_l[0]), tuple(pi_l), tuple(pi_r))
    except ValueError as exc:
        return str(exc)
    return None


def _norm(X):
    return float(np.linalg.norm(X, 2)) if np.size(X) else 0.0


def _all_pairs_violation(A, B, pi_l, pi_r):
    """Reference: the message a check on every pair of units gives, or None.

    Each action's bound is DEFAULT_TOL.(1 + its largest unit norm), and
    commutation is bounded with the largest norm over both actions.
    """
    tops = []
    for alg, units, anti, label in ((A, pi_l, False, "left action"),
                                    (B, pi_r, True, "right action")):
        triples = alg.unit_triples()
        top = max(_norm(U) for U in units)
        tops.append(top)
        bound = DEFAULT_TOL * (1.0 + top)
        total = sum(U for (b, i, j), U in zip(triples, units) if i == j)
        if _norm(total - np.eye(len(total))) > bound:
            return f"{label}: representation is not unital"
        if any(_norm(U.conj().T - units[alg.unit_index(b, j, i)]) > bound
               for (b, i, j), U in zip(triples, units)):
            return f"{label}: star property fails on a unit"
        for (b, i, j), U in zip(triples, units):
            for (c, k, l), V in zip(triples, units):
                if anti:
                    want = units[alg.unit_index(c, k, j)] \
                        if (b == c and i == l) else 0.0
                else:
                    want = units[alg.unit_index(b, i, l)] \
                        if (b == c and j == k) else 0.0
                if _norm(U @ V - want) > bound:
                    kind = "antihomomorphism" if anti else "homomorphism"
                    return f"{label}: not a {kind} on unit pairs"
    bound = DEFAULT_TOL * (1.0 + max(tops))
    if any(_norm(U @ V - V @ U) > bound for U in pi_l for V in pi_r):
        return "left and right actions do not commute"
    return None


def _generating_residuals(A, B, pi_l, pi_r):
    """Residuals of every generating product and commutation relation.

    The right action enters as y -> pi_r(y^T), a homomorphism."""
    def products(alg, u):
        ix = alg.unit_index
        heads = [(b, i) for b, n in enumerate(alg.block_sizes)
                 for i in range(n)]
        return ([_norm(u[ix(b, i, 0)] @ u[ix(b, 0, j)] - u[ix(b, i, j)])
                 for b, i, j in alg.unit_triples()]
                + [_norm(u[ix(b, 0, i)] @ u[ix(c, j, 0)]
                         - (u[ix(b, 0, 0)] if (b, i) == (c, j) else 0.0))
                   for b, i in heads for c, j in heads])

    def zero_index(alg, u):
        return [U for (b, i, j), U in zip(alg.unit_triples(), u)
                if i == 0 or j == 0]

    sigma = [pi_r[B.unit_index(b, j, i)] for b, i, j in B.unit_triples()]
    return (products(A, pi_l) + products(B, sigma)
            + [_norm(X @ Y - Y @ X) for X in zero_index(A, pi_l)
               for Y in zero_index(B, sigma)])


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

    def test_block_correspondence_rejects_misshapen_tables(self):
        # one table too wide and tall for (M2, C), one too short for (M2+C, M2)
        with pytest.raises(ValueError, match="multiplicity table must be 1 x 1"):
            block_correspondence(M2, C1, [[1, 5], [3, 3]])
        with pytest.raises(ValueError, match="multiplicity table must be 2 x 1"):
            block_correspondence(M21, M2, [[1]])

    def test_each_broken_law_is_named(self):
        rng = np.random.default_rng(41)
        H = block_correspondence(M21, M12, [[1, 1], [1, 0]])
        pi_l, pi_r = _rotated(H.pi_l_units, H.pi_r_units, rng)
        assert _violation(M21, M12, pi_l, pi_r) is None

        def left(x):
            return M21.extend_linearly(x, pi_l)

        def right(y):
            return M12.extend_linearly(y, pi_r)

        # an extra summand that only one side acts on
        side = block_correspondence(C1, M12, [[1, 1]])
        zeros = [np.zeros((side.dim, side.dim))] * M21.vector_dim
        assert _violation(M21, M12, *_rotated(
            _direct_sum(H.pi_l_units, zeros),
            _direct_sum(H.pi_r_units, side.pi_r_units), rng)) == \
            "left action: representation is not unital"
        side = block_correspondence(M21, C1, [[1], [1]])
        zeros = [np.zeros((side.dim, side.dim))] * M12.vector_dim
        assert _violation(M21, M12, *_rotated(
            _direct_sum(H.pi_l_units, side.pi_l_units),
            _direct_sum(H.pi_r_units, zeros), rng)) == \
            "right action: representation is not unital"

        # similarity by an invertible of the other action's commutant
        G = np.eye(H.dim) + 0.1 * left(M21.random_element(rng))
        assert _violation(M21, M12, [G @ U @ np.linalg.inv(G) for U in pi_l],
                          pi_r) == "left action: star property fails on a unit"
        G = np.eye(H.dim) + 0.1 * right(M12.random_element(rng))
        assert _violation(M21, M12, pi_l,
                          [G @ V @ np.linalg.inv(G) for V in pi_r]) == \
            "right action: star property fails on a unit"

        # star-preserving: one off-diagonal unit pair moves inside its own
        # action's image, so unitality and commutation still hold
        x = 1e-3 * left(M21.random_element(rng))
        bent = list(pi_l)
        bent[M21.unit_index(0, 0, 1)] = bent[M21.unit_index(0, 0, 1)] + x
        bent[M21.unit_index(0, 1, 0)] = bent[M21.unit_index(0, 1, 0)] \
            + x.conj().T
        assert _violation(M21, M12, bent, pi_r) == \
            "left action: not a homomorphism on unit pairs"
        y = 1e-3 * right(M12.random_element(rng))
        bent = list(pi_r)
        bent[M12.unit_index(1, 0, 1)] = bent[M12.unit_index(1, 0, 1)] + y
        bent[M12.unit_index(1, 1, 0)] = bent[M12.unit_index(1, 1, 0)] \
            + y.conj().T
        assert _violation(M21, M12, pi_l, bent) == \
            "right action: not a antihomomorphism on unit pairs"

        W = _unitary_near_identity(H.dim, 1e-3, rng)
        assert _violation(M21, M12, pi_l,
                          [W @ V @ W.conj().T for V in pi_r]) == \
            "left and right actions do not commute"

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


class TestGeneratingRelations:
    """Construction checks the generating relations against a tightened
    tolerance; compared with the all-pairs reference it is never laxer, and
    it differs only while some generating residual lies in the band between
    that tolerance and the all-pairs bound."""

    def _cases(self):
        rng = np.random.default_rng(47)
        blocks = block_correspondence(M21, M12, [[1, 1], [1, 0]])
        std = gns_standard_form(M21, random_faithful_state(M21, rng))
        L2 = identity_correspondence(std)
        for H in (blocks, L2):
            for _ in range(40):
                pi_l, pi_r = _rotated(H.pi_l_units, H.pi_r_units, rng)
                size = DEFAULT_TOL * 10.0 ** rng.uniform(-1.5, 1.5)
                kind = rng.integers(3)
                if kind == 0:
                    # free: every unit of one side moves
                    units = pi_l if rng.integers(2) else pi_r
                    for u, U in enumerate(units):
                        Z = rng.normal(size=U.shape) \
                            + 1j * rng.normal(size=U.shape)
                        units[u] = U + size * Z / _norm(Z)
                elif kind == 1:
                    # star-preserving: off-diagonal unit pairs move together
                    alg, units = ((H.left_algebra, pi_l) if rng.integers(2)
                                  else (H.right_algebra, pi_r))
                    for u, (b, i, j) in enumerate(alg.unit_triples()):
                        if i < j:
                            Z = rng.normal(size=units[u].shape) \
                                + 1j * rng.normal(size=units[u].shape)
                            Z *= size / _norm(Z)
                            units[u] = units[u] + Z
                            adj = alg.unit_index(b, j, i)
                            units[adj] = units[adj] + Z.conj().T
                else:
                    # commutation only: the right action rotates slightly
                    W = _unitary_near_identity(H.dim, size, rng)
                    pi_r = [W @ V @ W.conj().T for V in pi_r]
                yield H.left_algebra, H.right_algebra, pi_l, pi_r

    def test_never_laxer_and_equal_outside_the_band(self):
        outcomes = {"accepted": 0, "rejected": 0, "band": 0}
        for A, B, pi_l, pi_r in self._cases():
            got = _violation(A, B, pi_l, pi_r)
            want = _all_pairs_violation(A, B, pi_l, pi_r)
            if got is None:
                assert want is None
            t = max(_norm(U) for U in pi_l + pi_r)
            eps = DEFAULT_TOL * (1.0 + t) / (1.0 + 2.0 * t) ** 2
            if any(eps < r <= DEFAULT_TOL * (1.0 + t)
                   for r in _generating_residuals(A, B, pi_l, pi_r)):
                outcomes["band"] += 1
            else:
                assert got == want
            outcomes["accepted" if got is None else "rejected"] += 1
        assert min(outcomes.values()) >= 10, outcomes


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
            arg = std.J @ np.conj(std.Lambda(ystar))
            assert np.allclose(R @ arg, L2.pi_r(y) @ eta, atol=1e-10)

    def test_product_lands_in_left_action(self):
        std = _nontracial_std(M21)
        H = block_correspondence(M2, M21, [[1, 1]])
        rng = np.random.default_rng(1)
        R1 = r_eta(H, std, _rand_vec(rng, H.dim))
        R2 = r_eta(H, std, _rand_vec(rng, H.dim))
        T = R1.conj().T @ R2
        n = std.Lambda_inv(T @ std.cyclic_vector())
        assert operator_norm(T - identity_correspondence(std).pi_l(n)) < 1e-8

    def test_left_vectors_give_left_products(self):
        std = _nontracial_std()
        L2 = identity_correspondence(std)
        rng = np.random.default_rng(2)
        x = std.algebra.random_element(rng)
        R = r_eta(L2, std, std.Lambda(x))
        assert operator_norm(R.conj().T @ R - L2.pi_l(x.conj().T @ x)) < 1e-10

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
        B = L2.pi_l(std.algebra.random_element(rng))
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
        lhs = r_eta(L2, std, L2.pi_r(a) @ eta)
        rhs = r_eta(L2, std, eta) @ L2.pi_l(std.modular_twist(a, sign=+1))
        assert operator_norm(lhs - rhs) < 1e-8


class TestFusion:
    def test_identity_fused_with_identity(self):
        std = _nontracial_std()
        L2 = identity_correspondence(std)
        f = connes_fusion(L2, L2, std)
        assert f.corr.dim == std.dim
        found = unitary_intertwiner(f.corr, L2)
        assert found is not None
        U, residual = found
        assert residual == Intertwiner(f.corr, L2, U).residual() <= 1e-8

    def test_gram_is_positive(self):
        std = _nontracial_std(M21)
        H = block_correspondence(M21, M21, [[1, 0], [0, 1]])
        G = fusion_gram(H, identity_correspondence(std), std)
        evals = np.linalg.eigvalsh((G + G.conj().T) / 2.0)
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
        assert operator_norm(fusion_gram(H, K, stdC) - np.eye(4)) < 1e-10

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
        found = unitary_intertwiner(f1.corr, f2.corr)
        assert found is not None
        U, residual = found
        assert residual == Intertwiner(f1.corr, f2.corr, U).residual() <= 1e-8


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

    def test_rejects_product_breaker_on_multi_block_source(self):
        # M2 + C embedded block-diagonally in M3, then one off-diagonal unit
        # pair moved star-preservingly
        M3 = MultiMatrixAlgebra((3,), name="M3")
        std = gns_standard_form(M3, trace_state(M3))
        rng = np.random.default_rng(43)
        units = []
        for b, i, j in M21.unit_triples():
            E = np.zeros((3, 3), dtype=np.complex128)
            E[2 * b + i, 2 * b + j] = 1.0
            units.append(E)
        assert corr_from_homomorphism(units, M21, std).dim == 9
        x = 1e-3 * M3.random_element(rng)
        units[M21.unit_index(0, 0, 1)] += x
        units[M21.unit_index(0, 1, 0)] += x.conj().T
        with pytest.raises(NotHomomorphism) as caught:
            corr_from_homomorphism(units, M21, std)
        assert str(caught.value) == "images do not multiply like matrix units"

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
