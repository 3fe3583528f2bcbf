"""Intertwiner spaces from matrix units, against the Kronecker null space."""

import tracemalloc

import numpy as np
import pytest

from moritalab.errors import AlgebraMismatch
from moritalab.numkernel import (
    commutant,
    joint_null_space,
    max_operator_norm,
    operator_norm,
)
from moritalab.wstar import (
    Correspondence,
    Intertwiner,
    MultiMatrixAlgebra,
    block_correspondence,
    certify_morita_equivalent,
    conjugate_correspondence,
    connes_fusion,
    correspondences_close,
    gns_standard_form,
    identity_correspondence,
    intertwiner_basis,
    random_faithful_state,
    trace_state,
    unitary_intertwiner,
    vector_correspondence,
)
from moritalab.wstar.algebras import left_commutant, left_frames

from oracles import subspaces_equal


def _kronecker_reference(H, K):
    """Hom(H, K) as the common kernel of the stacked Sylvester systems."""
    dH, dK = H.dim, K.dim
    rows = [np.kron(At, np.eye(dH)) - np.kron(np.eye(dK), As.T)
            for As, At in zip(np.concatenate([H.pi_l_units, H.pi_r_units]),
                              np.concatenate([K.pi_l_units, K.pi_r_units]))]
    return joint_null_space(rows, dH * dK, scale=2.0)


def _assert_matches_reference(H, K):
    basis = intertwiner_basis(H, K)
    ref = _kronecker_reference(H, K)
    k = basis.shape[1]
    assert basis.shape == (H.dim * K.dim, ref.shape[1])
    assert np.allclose(basis.conj().T @ basis, np.eye(k), atol=1e-12)
    if k:
        same, res = subspaces_equal(basis, ref)
        assert same, res
    return k


BLOCK_CASES = [
    ((2,), (2,), [[1]], [[2]]),
    ((2,), (2, 1), [[1, 2]], [[2, 1]]),
    ((2, 1), (2,), [[1], [2]], [[3], [1]]),
    ((2, 1), (1, 1, 1), [[1, 0, 2], [1, 1, 0]], [[2, 1, 1], [0, 1, 0]]),
    ((1, 1, 1), (2, 1), [[1, 0], [2, 1], [0, 3]], [[1, 1], [1, 0], [2, 2]]),
]


class TestIntertwinerBasis:
    @pytest.mark.parametrize("left, right, mult_h, mult_k", BLOCK_CASES)
    def test_block_pairs_match_kronecker_span(self, left, right, mult_h,
                                              mult_k):
        A, B = MultiMatrixAlgebra(left), MultiMatrixAlgebra(right)
        H = block_correspondence(A, B, mult_h)
        K = block_correspondence(A, B, mult_k)
        for (X, mx), (Y, my) in (((H, mult_h), (K, mult_k)),
                                 ((K, mult_k), (H, mult_h)),
                                 ((H, mult_h), (H, mult_h))):
            # Hom(X, Y) is the sum over block pairs of mult_X * mult_Y
            want = sum(a * b for rx, ry in zip(mx, my)
                       for a, b in zip(rx, ry))
            assert _assert_matches_reference(X, Y) == want

    def test_empty_hom_space(self):
        A, C = MultiMatrixAlgebra((1, 1)), MultiMatrixAlgebra((1,))
        H = block_correspondence(A, C, [[2], [0]])
        K = block_correspondence(A, C, [[0], [2]])
        assert _assert_matches_reference(H, K) == 0
        assert intertwiner_basis(H, K).shape == (4, 0)

    def test_zero_dimensional_endpoint(self):
        A, C = MultiMatrixAlgebra((1, 1)), MultiMatrixAlgebra((1,))
        H = block_correspondence(A, C, [[0], [0]])
        K = block_correspondence(A, C, [[1], [1]])
        assert intertwiner_basis(H, K).shape == (0, 0)

    def test_fused_vector_correspondence(self):
        H = vector_correspondence(3)
        C = H.right_algebra
        fused = connes_fusion(H, conjugate_correspondence(H),
                              gns_standard_form(C, trace_state(C))).corr
        M3 = H.left_algebra
        L2 = identity_correspondence(gns_standard_form(M3, trace_state(M3)))
        assert _assert_matches_reference(fused, fused) == 1
        assert _assert_matches_reference(fused, L2) == 1


def _haar_unitary(d, rng):
    Z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def _assert_commutant_matches_reference(A, units):
    """The frame commutant against the Kronecker Sylvester solve."""
    d = units[0].shape[0]
    frames = left_frames(A, units)
    comm = left_commutant(frames)
    ref = commutant(units, d)
    k = comm.shape[1]
    assert comm.shape == (d * d, ref.shape[1])
    assert np.allclose(comm.conj().T @ comm, np.eye(k), atol=1e-12)
    same, res = subspaces_equal(comm, ref)
    assert same, res
    return k


class TestLeftCommutant:
    @pytest.mark.parametrize("left, right, mult", [
        (left, right, mult) for left, right, mult_h, mult_k in BLOCK_CASES
        for mult in (mult_h, mult_k)] + [
        # rows of zero multiplicity
        ((2, 1), (1, 2), [[0, 0], [1, 2]]),
        ((1, 2, 1), (2, 1), [[1, 0], [0, 0], [2, 1]]),
        ((3,), (1, 1), [[0, 0]]),
    ])
    def test_rotated_block_correspondences(self, left, right, mult):
        A, B = MultiMatrixAlgebra(left), MultiMatrixAlgebra(right)
        H = block_correspondence(A, B, mult)
        W = _haar_unitary(H.dim, np.random.default_rng(H.dim))
        units = [W @ U @ W.conj().T for U in H.pi_l_units]
        # the commutant is M_{mult_b} (x) 1 with mult_b = sum_c mult[b][c] m_c
        want = sum(sum(k * m for k, m in zip(row, B.block_sizes)) ** 2
                   for row in mult)
        assert _assert_commutant_matches_reference(A, units) == want

    @pytest.mark.parametrize("blocks", [(2,), (3,), (2, 1), (1, 2, 1)])
    def test_non_tracial_standard_forms(self, blocks):
        A = MultiMatrixAlgebra(blocks)
        rng = np.random.default_rng(sum(blocks))
        for _ in range(3):
            std = gns_standard_form(A, random_faithful_state(A, rng, floor=0.05))
            want = sum(n * n for n in blocks)
            L2 = identity_correspondence(std)
            assert _assert_commutant_matches_reference(A, L2.pi_l_units) == want


def _rotated(H, W):
    """W . H . W* as a correspondence over the same algebra pair."""
    return Correspondence(
        H.left_algebra, H.right_algebra, H.dim,
        tuple(W @ U @ W.conj().T for U in H.pi_l_units),
        tuple(W @ U @ W.conj().T for U in H.pi_r_units))


class TestUnitaryIntertwiner:
    @pytest.mark.parametrize("left, right, mult", [
        ((2, 1), (1, 2), [[1, 1], [2, 0]]),
        ((1, 2, 1), (2, 1), [[1, 0], [1, 1], [0, 2]]),
        ((2, 1), (1, 1, 1), [[1, 0, 2], [1, 1, 0]]),
    ])
    def test_rotated_frames_give_unitary_witness(self, left, right, mult):
        A, B = MultiMatrixAlgebra(left), MultiMatrixAlgebra(right)
        H = block_correspondence(A, B, mult)
        W = _haar_unitary(H.dim, np.random.default_rng(7 * H.dim))
        K = _rotated(H, W)
        assert K.multiplicities == H.multiplicities
        found = unitary_intertwiner(H, K)
        assert found is not None
        U, residual = found
        eye = np.eye(H.dim)
        assert operator_norm(U.conj().T @ U - eye) <= 1e-12
        assert operator_norm(U @ U.conj().T - eye) <= 1e-12
        # the residual handed back is the one the intertwiner measures
        assert residual == Intertwiner(H, K, U).residual() <= 1e-12
        # no seed: fresh copies of both endpoints give the same array
        again, _ = unitary_intertwiner(block_correspondence(A, B, mult),
                                       _rotated(H, W))
        assert np.array_equal(U, again)

    def test_different_algebra_pair_raises(self):
        A, B = MultiMatrixAlgebra((2, 1)), MultiMatrixAlgebra((1, 2))
        H = block_correspondence(A, B, [[1, 1], [2, 0]])
        other = block_correspondence(A, MultiMatrixAlgebra((1, 1)),
                                     [[1, 1], [2, 0]])
        with pytest.raises(AlgebraMismatch):
            unitary_intertwiner(H, other)


def _near_identity_unitary(d, eps, rng):
    X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    w, V = np.linalg.eigh(X + X.conj().T)
    return (V * np.exp(1j * eps * w)) @ V.conj().T


def _bounds_around(top, frob):
    """Bounds on both sides of the operator norm and between the two norms."""
    return (0.5 * top, 0.999 * top, 1.001 * top, 0.5 * (top + frob),
            1.001 * frob)


class TestFrobeniusFirstGates:
    """correspondences_close and is_unitary answer as the SVD test did."""

    def test_correspondences_close_near_threshold(self):
        rng = np.random.default_rng(11)
        H = block_correspondence(MultiMatrixAlgebra((2,)),
                                 MultiMatrixAlgebra((1, 1)), [[2, 1]])
        for eps in (1e-3, 1e-9):
            W = _near_identity_unitary(H.dim, eps, rng)
            moved = [tuple(W @ U @ W.conj().T for U in units)
                     for units in (H.pi_l_units, H.pi_r_units)]
            K = Correspondence(H.left_algebra, H.right_algebra, H.dim, *moved)
            diffs = [U - V for U, V in zip(np.concatenate([H.pi_l_units, H.pi_r_units]),
                                           np.concatenate([K.pi_l_units, K.pi_r_units]))]
            top = max(operator_norm(D) for D in diffs)
            frob = max(float(np.linalg.norm(D)) for D in diffs)
            assert frob > top > 0
            for tol in _bounds_around(top, frob):
                want = all(operator_norm(D) <= tol for D in diffs)
                assert correspondences_close(H, K, tol) == want

    def test_is_unitary_near_threshold(self):
        rng = np.random.default_rng(12)
        H = block_correspondence(MultiMatrixAlgebra((2,)),
                                 MultiMatrixAlgebra((2,)), [[1]])
        for delta in (1e-4, 1e-10):
            W = _near_identity_unitary(H.dim, 1.0, rng)
            T = W * (1.0 + delta * rng.uniform(0.1, 1.0, size=H.dim))
            defects = [T.conj().T @ T - np.eye(H.dim),
                       T @ T.conj().T - np.eye(H.dim)]
            top = max(operator_norm(D) for D in defects)
            frob = max(float(np.linalg.norm(D)) for D in defects)
            for tol in _bounds_around(top, frob):
                want = all(operator_norm(D) <= tol for D in defects)
                assert Intertwiner(H, H, T).is_unitary(tol) == want


def _listed_residual(w):
    """Intertwiner.residual with every product listed at once, the value
    checked against the plain loop of operator norms."""
    T = w.matrix
    listed = [T @ As - At @ T for As, At in zip(
        np.concatenate([w.source.pi_l_units, w.source.pi_r_units]),
        np.concatenate([w.target.pi_l_units, w.target.pi_r_units]))]
    value = max_operator_norm(listed)
    assert value == max(operator_norm(D) for D in listed)
    return value


def _certificate_witness(n):
    """The left witness of M_n vs C: the fusion, L²(M_n) and the unitary."""
    cert = certify_morita_equivalent(vector_correspondence(n))
    A = cert.corr.left_algebra
    L2 = identity_correspondence(gns_standard_form(A, trace_state(A)))
    return cert.fusion_left.corr, L2, cert.unitary_left


class TestStreamedResidual:
    """The residual forms one product at a time and keeps the listed value."""

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_perturbed_witnesses_equal_the_listed_residual(self, n):
        source, target, U = _certificate_witness(n)
        rng = np.random.default_rng(n)
        for eps in (1e-9, 1e-3, 1.0):
            T = U + eps * (rng.normal(size=U.shape) + 1j * rng.normal(size=U.shape))
            w = Intertwiner(source, target, T)
            got = w.residual()
            assert got > 0.0
            assert got.hex() == _listed_residual(w).hex()

    def test_rotated_witness_is_read_on_the_tables(self):
        # a witness onto K, the table placed by the frame W, is read on the
        # tables as W*.T: the listed residual there bit for bit, and within
        # d.(r + 2(1 + d)|T|) of the listed one against K's stacks, d W's
        # unitarity defect and r the value read, up to the rounding of both
        A, B = MultiMatrixAlgebra((1, 2, 1)), MultiMatrixAlgebra((2, 1))
        H = block_correspondence(A, B, [[1, 0], [1, 1], [0, 2]])
        K = _rotated(H, _haar_unitary(H.dim, np.random.default_rng(3)))
        W = K.frame
        d = operator_norm(W.conj().T @ W - np.eye(H.dim))
        U, _ = unitary_intertwiner(H, K)
        rng = np.random.default_rng(4)
        for eps in (1e-12, 1e-6):
            w = Intertwiner(H, K, U + eps * rng.normal(size=U.shape))
            r, top = w.residual(), operator_norm(w.matrix)
            tabled = Intertwiner(H, H, W.conj().T @ w.matrix)
            assert r.hex() == _listed_residual(tabled).hex()
            assert abs(r - _listed_residual(w)) <= d * (r + 2.0 * (1.0 + d) * top) + 1e-15 * top

    def test_peak_memory_for_m8(self):
        # listing the 2 x 64 products of 64 x 64 matrices, then stacking
        # them, peaks near 24 MB; the stream holds a few products at a time
        source, target, U = _certificate_witness(8)
        w = Intertwiner(source, target, U)
        # L²(M_8)'s stacks are written on first read, 8.4 MB: before the
        # trace, so the bound is the residual's own stream
        for H in (source, target):
            H.pi_l_units, H.pi_r_units
        tracemalloc.start()
        try:
            residual = w.residual()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert residual <= 1e-12
        assert peak < 1 << 20, peak
