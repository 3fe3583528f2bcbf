"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single ``ACCEPTANCE n: PASS/FAIL`` line on the real
stdout (capture is lifted around the print), then asserts.  Criteria with
a stated time budget measure wall time and fail when over budget.
"""

import random
import time

import numpy as np
import pytest

from moritalab.bicategory import (
    RingsBicategory,
    WStarBicategory,
    sample_wstar_chain,
    verify_pentagon,
    verify_triangle,
)
from moritalab.numkernel import (
    commutant,
    containment_residual,
    matrices_to_columns,
    operator_norm,
)
from moritalab.rings import (
    CoherencePool,
    certify_invertible_bimodule,
    column_module,
    cyclic_ring,
    end_ring,
    hom_group,
    identity_map,
    maps_equal,
    right_module_family,
    right_unitor,
    ring_iso_search,
    scalar_bimodule,
    tensor_associator,
    tensor_of_maps,
    tensor_oracle_corpus,
    tensor_product,
    truncated_polynomial_ring,
)
from moritalab.wstar import (
    MultiMatrixAlgebra,
    State,
    block_correspondence,
    certify_morita_equivalent,
    conjugate_correspondence,
    connes_fusion,
    gns_standard_form,
    identity_correspondence,
    left_unitor,
    random_faithful_state,
    right_unitor as wstar_right_unitor,
    standard_form_residuals,
    trace_state,
    twisted_balancing_residual,
    unitary_intertwiner,
    vector_correspondence,
)

from oracles import tensor_invariants_oracle


@pytest.fixture
def report(capfd):
    """Emit one ACCEPTANCE line per criterion on the uncaptured stdout."""
    def _report(n: int, ok: bool, notes: list[str]) -> None:
        with capfd.disabled():
            print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}", flush=True)
        assert ok, f"criterion {n}: " + "; ".join(notes)
    return _report


# ------------------------------------------------------------ ring layer


def test_criterion_01_tensor_matches_enumeration_oracle(report):
    """Corpus tensor invariants agree with the brute-force oracle."""
    notes = []
    t0 = time.perf_counter()
    corpus = tensor_oracle_corpus()
    if len(corpus) < 20:
        notes.append(f"corpus has only {len(corpus)} pairs")
    for M, N in corpus:
        if M.right_ring.order > 12:
            notes.append(f"middle ring order {M.right_ring.order} > 12")
            continue
        got = tensor_product(M, N).module.carrier.invariant_factors
        want = tensor_invariants_oracle(M, N)
        if got != want:
            notes.append(f"{M.name} (x) {N.name}: {got} != {want}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        notes.append(f"took {elapsed:.1f}s, budget 10s")
    report(1, not notes, notes)


def test_criterion_02_column_modules_certify_and_end_ring_matches(report):
    """Column modules over matrix rings certify; 2.Z/4 over Z/4 refutes."""
    notes = []
    t0 = time.perf_counter()
    for R in (cyclic_ring(2), cyclic_ring(4), truncated_polynomial_ring(2, 2)):
        for n in (2, 3):
            P = column_module(R, n)
            cert = certify_invertible_bimodule(P)
            if not cert.equivalent:
                notes.append(f"{R.name}^{n} refuted: {cert.reason}")
                continue
            E = end_ring(P, side="right")
            if ring_iso_search(E, P.left_ring) is None:
                notes.append(f"End({R.name}^{n}) not isomorphic to M_{n}")
    Z4 = cyclic_ring(4)
    doubled = certify_invertible_bimodule(scalar_bimodule(Z4, Z4, 2))
    if not doubled.refuted:
        notes.append("multiplication by 2 on Z/4 certified but is not invertible")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        notes.append(f"took {elapsed:.1f}s, budget 30s")
    report(2, not notes, notes)


def _round_trip_chain(cert, U):
    """The canonical map (U (x) Q) (x) P -> U through the certificate.

    Returns the two tensor stages and the composite, so callers can hang
    naturality squares off the same objects.
    """
    P, Q = cert.module, cert.inverse
    t_uq = tensor_product(U, Q)
    t_uq_p = tensor_product(t_uq.module, P)
    t_qp = cert.tensor_to_right
    t_u_qp = tensor_product(U, t_qp.module)
    assoc = tensor_associator(t_uq, t_uq_p, t_qp, t_u_qp)
    t_u_b = tensor_product(U, cert.iso_to_right.target)
    mid = tensor_of_maps(t_u_qp, t_u_b, identity_map(U), cert.iso_to_right)
    full = right_unitor(t_u_b).after(mid).after(assoc)
    return t_uq, t_uq_p, full


def test_criterion_03_round_trip_restores_every_small_module(report):
    """(U (x) P*) (x) P is naturally isomorphic to U on the sampled family."""
    notes = []
    for R in (cyclic_ring(2), cyclic_ring(4), truncated_polynomial_ring(2, 2)):
        for n in (2, 3):
            P = column_module(R, n)
            cert = certify_invertible_bimodule(P)
            assert cert.equivalent
            family = right_module_family(R, 16)
            chains = []
            for U in family:
                t_uq, t_uq_p, full = _round_trip_chain(cert, U)
                if not full.is_bijective():
                    notes.append(f"{R.name}^{n}: round trip not bijective "
                                 f"on {U.name or 'zero module'}")
                chains.append((U, t_uq, t_uq_p, full))
            nonzero = [c for c in chains if c[0].rank]
            for U, t_uq, t_uq_p, full_U in nonzero[:3]:
                for V, t_vq, t_vq_p, full_V in nonzero[:3]:
                    H = hom_group(U, V, side="right")
                    for k, f in enumerate(H.elements()):
                        if k >= 4:
                            break
                        s1 = tensor_of_maps(t_uq, t_vq, f,
                                            identity_map(cert.inverse))
                        s2 = tensor_of_maps(t_uq_p, t_vq_p, s1,
                                            identity_map(cert.module))
                        if not maps_equal(full_V.after(s2), f.after(full_U)):
                            notes.append(f"{R.name}^{n}: naturality fails "
                                         f"for a map {U.name} -> {V.name}")
    report(3, not notes, notes)


def test_criterion_04_ring_coherence_exact_on_random_chains(report):
    """Pentagon and triangle hold exactly on 50 random composable tuples."""
    notes = []
    inst = RingsBicategory()
    pool = CoherencePool()
    rng = random.Random(404)
    for trial in range(50):
        chain = pool.sample_chain(rng, 4, max_order=16)
        pent = verify_pentagon(inst, *chain)
        if not pent.holds or pent.discrepancy != 0.0:
            notes.append(f"pentagon fails on trial {trial}")
        tri = verify_triangle(inst, chain[0], chain[1])
        if not tri.holds or tri.discrepancy != 0.0:
            notes.append(f"triangle fails on trial {trial}")
    report(4, not notes, notes)


# ------------------------------------------------------- analytic layer

_PATTERNS = ((2,), (3,), (2, 3))


def test_criterion_05_standard_form_identities(report):
    """Polar part, involution, commutant, and center checks for S, J, Delta."""
    notes = []
    bounds = {"polar": 1e-9, "involution": 1e-9,
              "commutant": 1e-8, "center": 1e-9}
    rng = np.random.default_rng(5)
    t0 = time.perf_counter()
    for blocks in _PATTERNS:
        A = MultiMatrixAlgebra(blocks)
        for k in range(5):
            phi = random_faithful_state(A, rng)
            std = gns_standard_form(A, phi)
            residuals = standard_form_residuals(std)
            for key, bound in bounds.items():
                if residuals[key] > bound:
                    notes.append(f"{blocks} state {k}: {key} residual "
                                 f"{residuals[key]:.2e} > {bound}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        notes.append(f"took {elapsed:.1f}s, budget 5s")
    report(5, not notes, notes)


def test_criterion_06_tracial_case_collapses(report):
    """Tracial states give Delta = I and the untwisted right unitor."""
    notes = []
    rng = np.random.default_rng(6)
    for blocks in ((2,), (2, 3)):
        A = MultiMatrixAlgebra(blocks)
        std = gns_standard_form(A, trace_state(A))
        gap = operator_norm(std.delta - np.eye(std.dim))
        if gap > 1e-12:
            notes.append(f"{blocks}: |Delta - I| = {gap:.2e} > 1e-12")
        H = identity_correspondence(std)
        fus = connes_fusion(H, identity_correspondence(std), std)
        unit = wstar_right_unitor(H, std, fus)
        for _ in range(25):
            eta = rng.standard_normal(H.dim) + 1j * rng.standard_normal(H.dim)
            y = A.random_element(rng)
            lhs = unit.matrix @ fus.pure(eta, std.Lambda(y))
            rhs = H.pi_r(y) @ eta
            err = np.linalg.norm(lhs - rhs)
            if err > 1e-9:
                notes.append(f"{blocks}: unitor misses eta.y by {err:.2e}")
                break
    report(6, not notes, notes)


def test_criterion_07_modular_spectrum_of_a_skewed_qubit_state(report):
    """rho = diag(2/3, 1/3) gives Delta with spectrum {1, 1, 2, 1/2}."""
    notes = []
    A = MultiMatrixAlgebra((2,))
    rho = np.diag([2.0 / 3.0, 1.0 / 3.0]).astype(np.complex128)
    std = gns_standard_form(A, State(A, rho))
    eigs = np.sort(np.linalg.eigvalsh(std.delta))
    want = np.array([0.5, 1.0, 1.0, 2.0])
    gap = float(np.max(np.abs(eigs - want)))
    if gap > 1e-9:
        notes.append(f"spectrum {eigs} != {want} (gap {gap:.2e})")
    rho_inv = np.linalg.inv(rho)
    for E in A.matrix_units():
        err = np.linalg.norm(std.delta @ std.Lambda(E)
                             - std.Lambda(rho @ E @ rho_inv))
        if err > 1e-9:
            notes.append(f"Delta disagrees with rho . x . rho^-1 by {err:.2e}")
            break
    report(7, not notes, notes)


def _unitor_and_balancing_instance(H, std_M, std_N, rng):
    """Unitor unitarity plus the twisted balancing law for one correspondence."""
    issues = []
    fus_r = connes_fusion(H, identity_correspondence(std_N), std_N)
    if not wstar_right_unitor(H, std_N, fus_r).is_unitary(1e-8):
        issues.append(f"right unitor of {H.name or 'H'} not unitary")
    fus_l = connes_fusion(identity_correspondence(std_M), H, std_M)
    if not left_unitor(H, std_M, fus_l).is_unitary(1e-8):
        issues.append(f"left unitor of {H.name or 'H'} not unitary")
    fus = connes_fusion(H, conjugate_correspondence(H), std_N)
    res = twisted_balancing_residual(fus, std_N, rng, samples=120)
    if res > 1e-8:
        issues.append(f"balancing residual {res:.2e} on {H.name or 'H'}")
    return issues


def test_criterion_08_unitors_unitary_and_balancing_twisted(report):
    """Unitors are unitary and elementary tensors obey the modular twist."""
    notes = []
    rng = np.random.default_rng(8)

    M2 = MultiMatrixAlgebra((2,))
    skew = State(M2, np.diag([2.0 / 3.0, 1.0 / 3.0]).astype(np.complex128))
    std_skew = gns_standard_form(M2, skew)
    notes += _unitor_and_balancing_instance(
        identity_correspondence(std_skew), std_skew, std_skew, rng)

    B = MultiMatrixAlgebra((2, 1))
    H = block_correspondence(M2, B, [[1, 1]])
    std_m = gns_standard_form(M2, random_faithful_state(M2, rng))
    std_b = gns_standard_form(B, random_faithful_state(B, rng))
    notes += _unitor_and_balancing_instance(H, std_m, std_b, rng)

    H3 = vector_correspondence(3)
    std_3 = gns_standard_form(H3.left_algebra, trace_state(H3.left_algebra))
    std_c = gns_standard_form(H3.right_algebra, trace_state(H3.right_algebra))
    notes += _unitor_and_balancing_instance(H3, std_3, std_c, rng)

    report(8, not notes, notes)


def test_criterion_09_morita_certificates_for_standard_pairs(report):
    """C^n certifies M_n ~ C with an n^2-dimensional fusion; L2(M) self-pairs."""
    notes = []
    for n in (2, 3, 4):
        cert = certify_morita_equivalent(vector_correspondence(n))
        if not cert.equivalent:
            notes.append(f"C^{n} refuted: {cert.reason}")
            continue
        if cert.residual > 1e-8:
            notes.append(f"C^{n}: residual {cert.residual:.2e} > 1e-8")
        if cert.fusion_left.corr.dim != n * n:
            notes.append(f"C^{n}: fusion dim {cert.fusion_left.corr.dim} "
                         f"!= {n * n}")
    for blocks in _PATTERNS:
        A = MultiMatrixAlgebra(blocks)
        std = gns_standard_form(A, trace_state(A))
        cert = certify_morita_equivalent(identity_correspondence(std))
        if not cert.equivalent:
            notes.append(f"L2 over {blocks} refuted: {cert.reason}")
        elif cert.residual > 1e-8:
            notes.append(f"L2 over {blocks}: residual {cert.residual:.2e}")
    report(9, not notes, notes)


def test_criterion_10_analytic_coherence_and_state_independence(report):
    """Pentagon/triangle within 1e-8 on random chains; fusion ignores the state."""
    notes = []
    inst = WStarBicategory(tol=1e-8)
    rng = np.random.default_rng(10)
    for trial in range(20):
        _, cells = sample_wstar_chain(rng, 4, dim_cap=24)
        pent = verify_pentagon(inst, *cells)
        if not pent.holds:
            notes.append(f"pentagon {pent.discrepancy:.2e} on trial {trial}")
        tri = verify_triangle(inst, cells[0], cells[1])
        if not tri.holds:
            notes.append(f"triangle {tri.discrepancy:.2e} on trial {trial}")

    A = MultiMatrixAlgebra((2,))
    for B, h_mult, k_mult in (
            (MultiMatrixAlgebra((2,)), [[1]], [[1]]),
            (MultiMatrixAlgebra((2, 1)), [[1, 1]], [[1], [1]])):
        H = block_correspondence(A, B, h_mult)
        K = block_correspondence(B, A, k_mult)
        fusions = []
        for k in range(2):
            phi = random_faithful_state(B, rng)
            std = gns_standard_form(B, phi)
            fusions.append(connes_fusion(H, K, std))
        U = unitary_intertwiner(fusions[0].corr, fusions[1].corr)
        if U is None:
            notes.append(f"state choice changed the fusion over {B.block_sizes}")
    report(10, not notes, notes)


def _haar_unitary(rng, d):
    Z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(Z)
    phases = np.diag(R).copy()
    phases /= np.abs(phases)
    return Q @ np.diag(phases)


def _pattern_basis(pattern):
    """A basis of the subalgebra of M_4 with the given (size, copies) blocks."""
    mats, offset = [], 0
    for n, m in pattern:
        for p in range(n):
            for q in range(n):
                M = np.zeros((4, 4), dtype=np.complex128)
                for r in range(m):
                    M[offset + p * m + r, offset + q * m + r] = 1.0
                mats.append(M)
        offset += n * m
    return mats


def test_criterion_11_bicommutant_recovers_generated_subalgebras(report):
    """A'' has the structural dimension and contains A, for subalgebras of M_4."""
    notes = []
    rng = np.random.default_rng(11)
    patterns = [[(4, 1)], [(2, 2)], [(2, 1), (2, 1)], [(2, 1), (1, 2)],
                [(1, 4)], [(3, 1), (1, 1)], [(1, 1)] * 4,
                [(2, 1), (1, 1), (1, 1)], [(1, 2), (1, 2)], [(1, 2), (2, 1)]]
    assert len(patterns) == 10
    for pattern in patterns:
        U = _haar_unitary(rng, 4)
        gens = [U @ M @ U.conj().T for M in _pattern_basis(pattern)]
        comm = commutant(gens, 4)
        comm_mats = [comm[:, j].reshape(4, 4) for j in range(comm.shape[1])]
        bicomm = commutant(comm_mats, 4)
        want = sum(n * n for n, _ in pattern)
        if bicomm.shape[1] != want:
            notes.append(f"{pattern}: bicommutant dim {bicomm.shape[1]} "
                         f"!= {want}")
        res = containment_residual(matrices_to_columns(gens), bicomm)
        if res > 1e-8:
            notes.append(f"{pattern}: containment residual {res:.2e}")
    report(11, not notes, notes)
