"""Coherence engine on both cell suppliers, plus object-level certificates."""

import random

import numpy as np
import pytest

from moritalab.bicategory import (
    IsoCertificate,
    IsoRefutation,
    RingsBicategory,
    WStarBicategory,
    certify_object_isomorphism,
    sample_wstar_chain,
    verify_associator_naturality,
    verify_pentagon,
    verify_triangle,
    verify_unitor_naturality,
)
from moritalab.errors import CapExceeded, NotComposable
from moritalab.rings.base import cyclic_ring, matrix_ring
from moritalab.rings.bimodules import (
    bimodule_direct_sum,
    column_module,
    regular_bimodule,
    row_module,
    scalar_bimodule,
    zero_bimodule,
)
from moritalab.rings.families import CoherencePool
from moritalab.wstar import (
    Intertwiner,
    MultiMatrixAlgebra,
    block_correspondence,
    conjugate_correspondence,
    random_faithful_state,
    vector_correspondence,
)

TOL = 1e-8


@pytest.fixture(scope="module")
def pool():
    return CoherencePool()


@pytest.fixture(scope="module")
def rings_inst():
    return RingsBicategory()


class TestRingsCoherence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_pentagon_exact_on_sampled_chains(self, pool, rings_inst, seed):
        rng = random.Random(seed)
        P, Q, R, S = pool.sample_chain(rng, 4, max_order=16)
        res = verify_pentagon(rings_inst, P, Q, R, S)
        assert res.holds
        assert res.discrepancy == 0.0

    @pytest.mark.parametrize("seed", [10, 11, 12, 13])
    def test_triangle_exact_on_sampled_chains(self, pool, rings_inst, seed):
        rng = random.Random(seed)
        P, Q = pool.sample_chain(rng, 2, max_order=16)
        res = verify_triangle(rings_inst, P, Q)
        assert res.holds
        assert res.discrepancy == 0.0

    def test_pentagon_with_identity_leg(self, rings_inst):
        # one leg a regular bimodule: the composites collapse but the
        # rebracketing routes must still agree on the nose
        Z4 = cyclic_ring(4)
        P = scalar_bimodule(Z4, Z4, 2)
        I = regular_bimodule(Z4)
        res = verify_pentagon(rings_inst, P, I, P, I)
        assert res.holds

    def test_triangle_on_identities(self, rings_inst):
        Z2 = cyclic_ring(2)
        I = regular_bimodule(Z2)
        res = verify_triangle(rings_inst, I, I)
        assert res.holds

    def test_not_composable(self, rings_inst):
        Z2, Z4 = cyclic_ring(2), cyclic_ring(4)
        P = regular_bimodule(Z2)
        Q = regular_bimodule(Z4)
        with pytest.raises(NotComposable):
            verify_triangle(rings_inst, P, Q)
        with pytest.raises(NotComposable):
            verify_pentagon(rings_inst, P, P, Q, Q)

    def test_rank_cap_guards_composites(self, pool):
        small = RingsBicategory(rank_cap=3)
        Z2 = cyclic_ring(2)
        M2 = matrix_ring(Z2, 2)
        I = regular_bimodule(M2)
        with pytest.raises(CapExceeded):
            verify_triangle(small, I, I)

    @pytest.mark.parametrize("seed", [20, 21, 22])
    def test_associator_naturality(self, pool, rings_inst, seed):
        rng = random.Random(seed)
        P, Q, R = pool.sample_chain(rng, 3, max_order=16)
        res = verify_associator_naturality(rings_inst, P, Q, R,
                                           np.random.default_rng(seed))
        assert res.holds

    @pytest.mark.parametrize("seed", [30, 31, 32])
    def test_unitor_naturality(self, pool, rings_inst, seed):
        rng = random.Random(seed)
        (P,) = pool.sample_chain(rng, 1, max_order=16)
        res = verify_unitor_naturality(rings_inst, P,
                                       np.random.default_rng(seed))
        assert res.holds

    def test_sampled_2cells_are_not_only_scalars(self, rings_inst):
        # End of Z/2 + Z/2 as a (Z/2, Z/2)-bimodule is M_2(Z/2), so a
        # naturality square drawn from it tests more than n.id
        Z2 = cyclic_ring(2)
        P = bimodule_direct_sum(regular_bimodule(Z2), regular_bimodule(Z2))
        rng = np.random.default_rng(0)
        scalars = [[[n, 0], [0, n]] for n in (0, 1)]
        drawn = [rings_inst.random_endo_2cell(P, rng) for _ in range(8)]
        assert any([[v % 2 for v in row] for row in f.matrix.data]
                   not in scalars for f in drawn)
        res = verify_associator_naturality(rings_inst, P, P, P, rng)
        assert res.holds


class TestRingsIso:
    def test_matrix_ring_iso_to_base(self, rings_inst):
        Z2 = cyclic_ring(2)
        M2 = matrix_ring(Z2, 2)
        col = column_module(Z2, 2, M2)
        row = row_module(Z2, 2, M2)
        cert = certify_object_isomorphism(rings_inst, M2, Z2, col, row)
        assert isinstance(cert, IsoCertificate)
        assert cert.forward is col
        assert cert.to_identity_source.is_bijective()
        assert cert.to_identity_target.is_bijective()

    def test_swapped_certificate(self, rings_inst):
        Z2 = cyclic_ring(2)
        M2 = matrix_ring(Z2, 2)
        col = column_module(Z2, 2, M2)
        row = row_module(Z2, 2, M2)
        cert = certify_object_isomorphism(rings_inst, M2, Z2, col, row)
        sw = cert.swapped()
        assert sw.forward is row and sw.backward is col
        assert sw.to_identity_source is cert.to_identity_target

    def test_self_iso_via_identity(self, rings_inst):
        Z4 = cyclic_ring(4)
        I = regular_bimodule(Z4)
        cert = certify_object_isomorphism(rings_inst, Z4, Z4, I, I)
        assert isinstance(cert, IsoCertificate)

    def test_wrong_endpoints_refute(self, rings_inst):
        Z2 = cyclic_ring(2)
        M2 = matrix_ring(Z2, 2)
        col = column_module(Z2, 2, M2)
        out = certify_object_isomorphism(rings_inst, M2, Z2, col, col)
        assert isinstance(out, IsoRefutation)
        assert out.side == "backward"

    def test_non_invertible_candidate_refutes(self, rings_inst):
        Z2 = cyclic_ring(2)
        M2 = matrix_ring(Z2, 2)
        Z = zero_bimodule(M2, Z2)
        Zb = zero_bimodule(Z2, M2)
        out = certify_object_isomorphism(rings_inst, M2, Z2, Z, Zb)
        assert isinstance(out, IsoRefutation)
        assert out.side == "forward"
        assert "identity" in out.detail


def _wstar_states_inst(seed):
    rng = np.random.default_rng(seed)
    algs = [MultiMatrixAlgebra(p) for p in [(1,), (2,), (1, 1), (3,), (2, 1)]]
    states = {A: random_faithful_state(A, rng) for A in algs}
    return WStarBicategory(states=states)


class TestWStarCoherence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pentagon_tracial(self, seed):
        rng = np.random.default_rng(seed)
        inst = WStarBicategory()
        _, cells = sample_wstar_chain(rng, 4, dim_cap=24)
        res = verify_pentagon(inst, *cells)
        assert res.holds
        assert res.discrepancy <= TOL

    @pytest.mark.parametrize("seed", [3, 4])
    def test_pentagon_random_states(self, seed):
        rng = np.random.default_rng(seed)
        inst = _wstar_states_inst(seed)
        _, cells = sample_wstar_chain(rng, 4, dim_cap=24)
        res = verify_pentagon(inst, *cells)
        assert res.holds
        assert res.discrepancy <= TOL

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_triangle(self, seed):
        rng = np.random.default_rng(seed)
        inst = _wstar_states_inst(seed + 100)
        _, cells = sample_wstar_chain(rng, 2, dim_cap=16)
        res = verify_triangle(inst, *cells)
        assert res.holds
        assert res.discrepancy <= TOL

    def test_pentagon_with_identity_leg(self):
        inst = WStarBicategory()
        M2 = MultiMatrixAlgebra((2,))
        H = vector_correspondence(2)
        I = inst.identity(M2)
        res = verify_pentagon(inst, I, I, H, conjugate_correspondence(H))
        assert res.holds

    def test_invertible_2cell_is_relative_to_the_largest_singular_value(self):
        inst = WStarBicategory()
        H = vector_correspondence(2)
        assert inst.invertible_2cell(Intertwiner(H, H, 1e-9 * np.eye(2)))
        assert not inst.invertible_2cell(Intertwiner(H, H, np.diag([1e9, 1.0])))
        assert not inst.invertible_2cell(Intertwiner(H, H, np.zeros((2, 2))))

    def test_not_composable(self):
        inst = WStarBicategory()
        H = vector_correspondence(2)
        with pytest.raises(NotComposable):
            verify_triangle(inst, H, H)

    def test_chain_sampler_rejects_a_cap_below_the_length(self):
        rng = np.random.default_rng(0)
        with pytest.raises(CapExceeded):
            sample_wstar_chain(rng, 4, dim_cap=3)
        # nothing was drawn, so the next chain is the one seed 0 gives
        _, cells = sample_wstar_chain(rng, 4, dim_cap=24)
        _, again = sample_wstar_chain(np.random.default_rng(0), 4, dim_cap=24)
        assert [H.dim for H in cells] == [H.dim for H in again]

    @pytest.mark.parametrize("seed", [8, 9])
    def test_associator_naturality(self, seed):
        rng = np.random.default_rng(seed)
        inst = _wstar_states_inst(seed)
        _, cells = sample_wstar_chain(rng, 3, dim_cap=18)
        res = verify_associator_naturality(inst, *cells, rng)
        assert res.holds
        assert res.discrepancy <= TOL

    @pytest.mark.parametrize("seed", [10, 11])
    def test_unitor_naturality(self, seed):
        rng = np.random.default_rng(seed)
        inst = _wstar_states_inst(seed)
        _, cells = sample_wstar_chain(rng, 1, dim_cap=8)
        res = verify_unitor_naturality(inst, cells[0], rng)
        assert res.holds
        assert res.discrepancy <= TOL

    def test_state_choice_does_not_change_verdict(self):
        rng = np.random.default_rng(42)
        _, cells = sample_wstar_chain(rng, 4, dim_cap=20)
        d_tr = verify_pentagon(WStarBicategory(), *cells).discrepancy
        d_rand = verify_pentagon(_wstar_states_inst(1), *cells).discrepancy
        assert d_tr <= TOL and d_rand <= TOL


class TestWStarIso:
    def test_matrix_algebra_iso_to_scalars(self):
        inst = WStarBicategory()
        M2 = MultiMatrixAlgebra((2,))
        C = MultiMatrixAlgebra((1,))
        H = vector_correspondence(2)
        cert = certify_object_isomorphism(inst, M2, C, H,
                                          conjugate_correspondence(H))
        assert isinstance(cert, IsoCertificate)
        assert cert.to_identity_source.is_unitary(TOL)
        assert cert.to_identity_target.is_unitary(TOL)

    def test_self_iso_via_identity_correspondence(self):
        inst = WStarBicategory()
        A = MultiMatrixAlgebra((2, 1))
        I = inst.identity(A)
        cert = certify_object_isomorphism(inst, A, A, I, I)
        assert isinstance(cert, IsoCertificate)

    def test_doubled_multiplicity_refutes(self):
        inst = WStarBicategory()
        M2 = MultiMatrixAlgebra((2,))
        C = MultiMatrixAlgebra((1,))
        H = block_correspondence(M2, C, [[2]])
        out = certify_object_isomorphism(inst, M2, C, H,
                                         conjugate_correspondence(H))
        assert isinstance(out, IsoRefutation)
        assert out.side == "forward"

    def test_wrong_endpoints_refute(self):
        inst = WStarBicategory()
        M2 = MultiMatrixAlgebra((2,))
        C = MultiMatrixAlgebra((1,))
        H = vector_correspondence(2)
        out = certify_object_isomorphism(inst, C, M2, H,
                                         conjugate_correspondence(H))
        assert isinstance(out, IsoRefutation)
        assert out.side == "forward"

    def test_inequivalent_blocks_refute(self):
        inst = WStarBicategory()
        A = MultiMatrixAlgebra((2,))
        B = MultiMatrixAlgebra((1, 1))
        H = block_correspondence(A, B, [[1, 1]])
        out = certify_object_isomorphism(inst, A, B, H,
                                         conjugate_correspondence(H))
        assert isinstance(out, IsoRefutation)
