"""Equivalence certificates for correspondences, positive and refuted."""

import json

import numpy as np
import pytest

import moritalab.wstar.morita as morita_module
from moritalab.cli import main
from moritalab.numkernel import operator_norm
from moritalab.specfile import SpecFile, serialize_spec
from moritalab.wstar import (
    Correspondence,
    Intertwiner,
    MultiMatrixAlgebra,
    State,
    block_correspondence,
    certify_morita_equivalent,
    conjugate_correspondence,
    connes_fusion,
    corr_from_homomorphism,
    gns_standard_form,
    identity_correspondence,
    random_faithful_state,
    trace_state,
    unitary_intertwiner,
    vector_correspondence,
)

from oracles import unchecked_correspondence

M2 = MultiMatrixAlgebra((2,), name="M2")


class TestPositive:
    @pytest.mark.parametrize("n", [2, 3])
    def test_column_space_links_matrices_to_scalars(self, n):
        cert = certify_morita_equivalent(vector_correspondence(n))
        assert cert.equivalent
        assert cert.residual <= 1e-8
        # the fused square recovers the full standard space of M_n
        assert cert.fusion_left.corr.dim == n * n
        assert cert.fusion_right.corr.dim == 1
        assert cert.unitary_left.shape == (n * n, n * n)

    def test_identity_correspondence_self_equivalence(self):
        phi = State(M2, np.diag([2 / 3, 1 / 3]).astype(np.complex128))
        std = gns_standard_form(M2, phi)
        cert = certify_morita_equivalent(identity_correspondence(std),
                                         phi_M=phi, phi_N=phi)
        assert cert.equivalent
        assert cert.residual <= 1e-8

    def test_multi_block_self_equivalence(self):
        alg = MultiMatrixAlgebra((2, 3))
        rng = np.random.default_rng(0)
        phi = random_faithful_state(alg, rng)
        std = gns_standard_form(alg, phi)
        cert = certify_morita_equivalent(identity_correspondence(std),
                                         phi_M=phi, phi_N=phi)
        assert cert.equivalent

    @pytest.mark.parametrize("blocks, given", [((3,), False), ((2, 3), True),
                                               ((2, 1), False)])
    def test_self_pair_builds_one_standard_form(self, blocks, given,
                                                monkeypatch):
        """One standard form and one L² for M = N under one state, same witnesses.

        States are defaulted, or given as one object; the two-build path is
        forced with two equal but distinct states.
        """
        alg = MultiMatrixAlgebra(blocks)
        rng = np.random.default_rng(len(blocks))
        phi = random_faithful_state(alg, rng) if given else trace_state(alg)
        H = identity_correspondence(gns_standard_form(alg, phi))
        builds = {"std": 0, "l2": 0}

        def counted(name, fn):
            def call(*args):
                builds[name] += 1
                return fn(*args)
            return call
        monkeypatch.setattr(morita_module, "gns_standard_form",
                            counted("std", morita_module.gns_standard_form))
        monkeypatch.setattr(morita_module, "identity_correspondence",
                            counted("l2", morita_module.identity_correspondence))
        one = certify_morita_equivalent(H, phi, phi) if given \
            else certify_morita_equivalent(H)
        assert builds == {"std": 1, "l2": 1}
        two = certify_morita_equivalent(H, State(alg, phi.density),
                                        State(alg, phi.density))
        assert builds == {"std": 3, "l2": 3}
        assert one.equivalent and two.equivalent
        assert one.residual == two.residual
        for attr in ("unitary_left", "unitary_right"):
            assert np.array_equal(getattr(one, attr), getattr(two, attr))

    def test_certificate_unitaries_intertwine(self):
        cert = certify_morita_equivalent(vector_correspondence(2))
        idM = identity_correspondence(
            gns_standard_form(M2, trace_state(M2)))
        t = Intertwiner(cert.fusion_left.corr, idM, cert.unitary_left)
        assert t.residual() <= 1e-8
        assert t.is_unitary(1e-8)

    def test_verdict_independent_of_states(self):
        rng = np.random.default_rng(1)
        H = vector_correspondence(2)
        phi = random_faithful_state(H.left_algebra, rng)
        psi = random_faithful_state(H.right_algebra, rng)
        cert = certify_morita_equivalent(H, phi_M=phi, phi_N=psi)
        assert cert.equivalent

    def test_hom_built_column_certifies(self):
        # embedding the scalars on the first diagonal entry carves out a
        # column, which is the basic equivalence bimodule
        std = gns_standard_form(M2, trace_state(M2))
        C = MultiMatrixAlgebra((1,), name="C")
        corr = corr_from_homomorphism(
            [np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.complex128)], C, std)
        cert = certify_morita_equivalent(corr)
        assert cert.equivalent


class TestRefuted:
    def test_doubled_column_has_oversized_commutant(self):
        C = MultiMatrixAlgebra((1,), name="C")
        doubled = block_correspondence(M2, C, [[2]])
        cert = certify_morita_equivalent(doubled)
        assert not cert.equivalent
        assert "commutant" in cert.reason

    def test_direct_sum_with_identity_refuted(self):
        # L2(M2) + C^2 over (M2, M2+C): right action cannot fill commutant
        alg = MultiMatrixAlgebra((2, 1))
        H = block_correspondence(M2, alg, [[1, 2]])
        cert = certify_morita_equivalent(H)
        assert not cert.equivalent

    def test_unfaithful_left_action_refuted_first(self):
        # the M3 block of M2+M3 acts as zero, so the left action has a
        # kernel; faithfulness is the first gate the certificate checks
        A = MultiMatrixAlgebra((2, 3), name="M2+M3")
        B = MultiMatrixAlgebra((2,), name="M2")
        H = block_correspondence(A, B, [[1], [0]])
        assert H.dim == 4
        cert = certify_morita_equivalent(H)
        assert not cert.equivalent
        assert cert.reason == "left action is not faithful"

    def test_zero_correspondence_refuted(self):
        Z = block_correspondence(M2, M2, [[0]])
        cert = certify_morita_equivalent(Z)
        assert not cert.equivalent
        assert "faithful" in cert.reason

    def test_unital_embedding_is_not_an_equivalence(self):
        # M2 sits inside M2+M2 diagonally; the induced correspondence has
        # strictly more commutant than the right action provides
        N = MultiMatrixAlgebra((2, 2))
        src = M2
        units = []
        for (b, i, j) in src.unit_triples():
            E = np.zeros((4, 4), dtype=np.complex128)
            E[i, j] = 1.0
            E[2 + i, 2 + j] = 1.0
            units.append(E)
        std = gns_standard_form(N, trace_state(N))
        corr = corr_from_homomorphism(units, src, std)
        cert = certify_morita_equivalent(corr)
        assert not cert.equivalent


class TestWitnessesMustAgree:
    """A fusion that contradicts the multiplicities raises, never refutes."""

    @pytest.fixture
    def no_unitary(self, monkeypatch):
        import moritalab.wstar.morita as morita
        monkeypatch.setattr(morita, "unitary_intertwiner", lambda H, K: None)

    def test_certification_raises(self, no_unitary):
        with pytest.raises(RuntimeError, match="multiplicities"):
            certify_morita_equivalent(vector_correspondence(2))

    def test_a_scaled_witness_is_not_a_certificate(self, monkeypatch):
        # a half-scale frame on L² keeps every multiplicity, and the witness
        # it gives, read on the table as a quarter of the identity, has a
        # residual of 0; the fusions read no frame, so both pass and the
        # certificate reaches the witness search
        import moritalab.wstar.morita as morita
        build = morita.identity_correspondence

        def halved(std):
            L2 = build(std)
            vars(L2)["frame"] = 0.5 * np.eye(L2.dim)
            return L2
        monkeypatch.setattr(morita, "identity_correspondence", halved)
        found, searched = morita.unitary_intertwiner, []
        monkeypatch.setattr(morita, "unitary_intertwiner",
                            lambda H, K: searched.append(H) or found(H, K))
        with pytest.raises(RuntimeError, match="no unitary"):
            certify_morita_equivalent(vector_correspondence(3))
        assert len(searched) == 1

    def test_cli_row_is_error(self, no_unitary, tmp_path, capsys):
        C = MultiMatrixAlgebra((1,), name="C")
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(serialize_spec(SpecFile(
            algebras={"M2": M2, "C": C},
            correspondences={"H": vector_correspondence(2)},
            tasks=({"task": "morita-wstar", "correspondence": "H"},)))))
        report_path = tmp_path / "report.json"
        assert main(["run", str(spec_path), "--report", str(report_path)]) == 1
        (row,) = json.loads(report_path.read_text())["tasks"]
        assert row["status"] == "Error"
        assert row["detail"].startswith("RuntimeError")


def _certified_pairs():
    """M_3 vs C, and L²(M2+M3) at a random state with itself."""
    A = MultiMatrixAlgebra((2, 3))
    phi = random_faithful_state(A, np.random.default_rng(5))
    return [(vector_correspondence(3), None),
            (identity_correspondence(gns_standard_form(A, phi)), phi)]


def _noise(size):
    def change(units):
        rng = np.random.default_rng(11)
        noise = rng.normal(size=units.shape) + 1j * rng.normal(size=units.shape)
        return units + size * noise / np.linalg.norm(noise, 2, axis=(1, 2))[:, None, None]
    return change


def _rotation(size):
    def change(units):
        rng = np.random.default_rng(12)
        g = rng.normal(size=units.shape[1:]) + 1j * rng.normal(size=units.shape[1:])
        w, V = np.linalg.eigh(g + g.conj().T)
        W = (V * np.exp(1j * size * w / np.abs(w).max())) @ V.conj().T
        return W @ units @ W.conj().T
    return change


def _scale(size):
    def change(units):
        return (1.0 + size) * units
    return change


class TestTheWitnessesBoundL2:
    """Certification maps its fusions onto an unchecked L²; the witnesses gate it.

    Each mutation rewrites the right action of every L² that certification
    builds, which is read as its table and the frame its isotypic frames
    give (oracles.unchecked_correspondence), so the readers meet the
    mutation in the frame.  A law broken above the witness tolerance must
    raise, never certify or refute; one broken below it certifies and shows
    in the residual.
    """

    @staticmethod
    def corrupt(monkeypatch, change):
        """Install the mutation; the list returned collects the L² it builds."""
        build, built = morita_module.identity_correspondence, []

        def corrupted(std):
            L2 = build(std)
            built.append(unchecked_correspondence(
                L2.left_algebra, L2.right_algebra, L2.dim, L2.pi_l_units,
                change(np.stack(L2.pi_r_units)), L2.name))
            return built[-1]
        monkeypatch.setattr(morita_module, "identity_correspondence", corrupted)
        return built

    @staticmethod
    def certify(H, phi):
        return certify_morita_equivalent(H, phi, phi) if phi is not None \
            else certify_morita_equivalent(H)

    @pytest.mark.parametrize("change", [
        _noise(1e-7), _scale(1e-7), lambda units: units.transpose(0, 2, 1)],
        ids=["noise", "scale", "transposed"])
    def test_a_broken_right_action_raises(self, monkeypatch, change):
        self.corrupt(monkeypatch, change)
        for H, phi in _certified_pairs():
            with pytest.raises(RuntimeError, match="no unitary"):
                self.certify(H, phi)

    def test_a_rotated_right_action_is_refused_at_construction(self, monkeypatch):
        # a rotation keeps the right action's own laws, so read unchecked it
        # is a lawful table and a near-unitary frame, and its witness would
        # pass; the actions' commutator, about 1e-7, is the constructor's to
        # refuse, and every public path builds through it
        build = morita_module.identity_correspondence

        def rotated(std):
            L2 = build(std)
            return Correspondence(L2.left_algebra, L2.right_algebra, L2.dim, L2.pi_l_units,
                                  _rotation(1e-7)(np.stack(L2.pi_r_units)), L2.name)
        monkeypatch.setattr(morita_module, "identity_correspondence", rotated)
        for H, phi in _certified_pairs():
            with pytest.raises(ValueError, match="left and right actions do not commute"):
                self.certify(H, phi)

    def test_sub_tolerance_noise_certifies_and_shows(self, monkeypatch):
        # the witness onto L² with frame W is read as W*W, whose residual
        # against the table is at most twice W's unitarity defect d
        clean = [self.certify(H, phi).residual for H, phi in _certified_pairs()]
        built = self.corrupt(monkeypatch, _noise(1e-9))
        for (H, phi), before in zip(_certified_pairs(), clean):
            built.clear()
            cert = self.certify(H, phi)
            d = max(operator_norm(L2.frame.conj().T @ L2.frame - np.eye(L2.dim))
                    for L2 in built)
            assert cert.equivalent
            assert before < 1e-12 and 1e-10 <= d <= 1e-8 and 0.0 < cert.residual <= 2.0 * d


def test_an_equivalence_fuses_onto_l2_stack_for_stack():
    # H fused with its conjugate is the identity block correspondence, L²'s
    # own stacks, so both witnesses are the identity and the residual is 0
    for H, phi in _certified_pairs():
        cert = TestTheWitnessesBoundL2.certify(H, phi)
        assert cert.equivalent and cert.residual == 0.0
        for U in (cert.unitary_left, cert.unitary_right):
            assert np.array_equal(U, np.eye(len(U)))


class TestConjugates:
    def test_conjugate_fusions_have_expected_ranks(self):
        H = vector_correspondence(3)
        Hbar = conjugate_correspondence(H)
        stdC = gns_standard_form(H.right_algebra, trace_state(H.right_algebra))
        stdM = gns_standard_form(H.left_algebra, trace_state(H.left_algebra))
        assert connes_fusion(H, Hbar, stdC).corr.dim == 9
        assert connes_fusion(Hbar, H, stdM).corr.dim == 1

    def test_no_unitary_between_different_ranks(self):
        H = vector_correspondence(2)
        doubled = block_correspondence(H.left_algebra, H.right_algebra, [[2]])
        assert unitary_intertwiner(H, doubled) is None

    def test_no_unitary_without_intertwiner(self):
        # two inequivalent right multiplicities of the same total dimension
        A = MultiMatrixAlgebra((1, 1))
        C = MultiMatrixAlgebra((1,))
        H = block_correspondence(A, C, [[2], [0]])
        K = block_correspondence(A, C, [[0], [2]])
        assert unitary_intertwiner(H, K) is None


SHADOW_PATTERNS = ((1,), (2,), (1, 1), (3,), (2, 1), (1, 2, 1))
NOT_FAITHFUL = "left action is not faithful"
COMMUTANT = "right action does not fill the commutant of the left one"
RIGHT_FUSION = ("conjugate fusion is not the identity correspondence "
                "of the right algebra")


def _shadow_reason(mult):
    """The certification reason predicted from the multiplicity matrix.

    An equivalence bimodule between multi-matrix algebras is a sum of
    simple bimodules along a bijection of the blocks, so the verdict is a
    property of the integer matrix alone.
    """
    if any(not any(row) for row in mult):
        return NOT_FAITHFUL
    cols = []
    for row in mult:
        hits = [c for c, k in enumerate(row) if k]
        if len(hits) != 1 or row[hits[0]] != 1:
            return COMMUTANT
        cols.append(hits[0])
    if len(set(cols)) < len(cols):
        return COMMUTANT
    # the matched columns are distinct, so fewer of them leaves a zero column
    if len(cols) < len(mult[0]):
        return RIGHT_FUSION
    return "certified"


def _random_mult(rng, rows, cols):
    if rng.random() < 0.5:
        return rng.integers(0, 3, size=(rows, cols)).tolist()
    mult = [[0] * cols for _ in range(rows)]
    for r, c in enumerate(rng.permutation(max(rows, cols))[:rows]):
        if c < cols and rng.random() < 0.85:
            mult[r][c] = 1
    return mult


def _rotated(H, rng):
    """H carried into another orthonormal basis by a random unitary W."""
    g = rng.normal(size=(H.dim, H.dim)) + 1j * rng.normal(size=(H.dim, H.dim))
    W, _ = np.linalg.qr(g)

    def rotate(units):
        return tuple(W @ U @ W.conj().T for U in units)

    return Correspondence(H.left_algebra, H.right_algebra, H.dim,
                          rotate(H.pi_l_units), rotate(H.pi_r_units))


def test_verdict_matches_multiplicity_shadow():
    """The verdict agrees with the multiplicity shadow, in any basis and state.

    Each draw also certifies a copy of the block correspondence rotated by
    a random unitary, at random faithful states on both algebras.
    """
    rng = np.random.default_rng(2020)
    rot_rng = np.random.default_rng(2021)
    seen = set()
    draws = 0
    while draws < 240:
        A = MultiMatrixAlgebra(SHADOW_PATTERNS[rng.integers(len(SHADOW_PATTERNS))])
        B = MultiMatrixAlgebra(SHADOW_PATTERNS[rng.integers(len(SHADOW_PATTERNS))])
        mult = _random_mult(rng, len(A.block_sizes), len(B.block_sizes))
        dim = sum(k * n * m for row, n in zip(mult, A.block_sizes)
                  for k, m in zip(row, B.block_sizes))
        if dim > 30:
            continue
        draws += 1
        want = _shadow_reason(mult)
        H = block_correspondence(A, B, mult)
        for cert in (certify_morita_equivalent(H),
                     certify_morita_equivalent(
                         _rotated(H, rot_rng), random_faithful_state(A, rot_rng),
                         random_faithful_state(B, rot_rng))):
            assert cert.reason == want, (A.block_sizes, B.block_sizes, mult)
            assert cert.equivalent == (want == "certified")
            assert cert.residual <= 1e-8 or not cert.equivalent
        seen.add(want)
    assert seen == {NOT_FAITHFUL, COMMUTANT, RIGHT_FUSION, "certified"}
