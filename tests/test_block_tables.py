"""Block correspondences read off their multiplicity table.

A block correspondence is its table.  Its frames are coordinate
columns read off the table (table_frames), its unit images are partial
permutations given by index data (table_units), and every block
correspondence, L² and fusion results included, holds the table alone,
its stacks written on first read.  Checked here against
the constructions they replace: the frames against the eigendecompositions
of isotypic_frames on the same stacks, the index data against per-unit
Kronecker products, and fused stacks against block_correspondence.  The
standard form's cyclic vector, the screened norms of numkernel and the
ring side's cast law stacks are checked for what they no longer
recompute or copy.
"""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest

import moritalab.rings.bimodules as bimodules_module
from moritalab.bicategory import WStarBicategory, verify_pentagon
from moritalab.numkernel import max_operator_norm, norm_exceeds
from moritalab.rings.base import cyclic_ring, truncated_polynomial_ring
from moritalab.rings.bimodules import BimoduleMap, column_module, identity_map
from moritalab.wstar import (
    Correspondence,
    MultiMatrixAlgebra,
    block_correspondence,
    certify_morita_equivalent,
    conjugate_correspondence,
    connes_fusion,
    gns_standard_form,
    identity_correspondence,
    random_faithful_state,
    trace_state,
    vector_correspondence,
)
from moritalab.wstar.algebras import table_frames, table_stack, table_units

from oracles import kron_block_units, unchecked_correspondence

CHAIN_PATTERNS = ((1,), (2,), (1, 1), (3,), (2, 1))


def _tables(seed: int, count: int):
    """Seeded (A, B, table) over the chain patterns, entries 0 to 3."""
    rng = np.random.default_rng(seed)
    algebras = [MultiMatrixAlgebra(blocks) for blocks in CHAIN_PATTERNS]
    for _ in range(count):
        A, B = (algebras[i] for i in rng.integers(len(algebras), size=2))
        yield A, B, tuple(tuple(int(m) for m in row) for row in
                          rng.integers(0, 4, size=(len(A.block_sizes), len(B.block_sizes))))


def _measured(H: Correspondence) -> Correspondence:
    """H's stacks without its table, so that its frames come from eigh."""
    return unchecked_correspondence(H.left_algebra, H.right_algebra, H.dim,
                                    H.pi_l_units, H.pi_r_units)


def _projection(F: np.ndarray) -> np.ndarray:
    return np.einsum("sik,sjk->ij", F, F.conj())


@pytest.mark.parametrize("seed", [1, 7, 31])
def test_table_frames_span_the_measured_frames(seed):
    for A, B, table in _tables(seed, 40):
        H = block_correspondence(A, B, table)
        measured = _measured(H)
        assert H.table == table and measured.table is None
        assert H.multiplicities == measured.multiplicities == table
        for F, E in zip(itertools.chain(*H.frames), itertools.chain(*measured.frames)):
            assert np.allclose(_projection(F), _projection(E), rtol=0.0, atol=1e-12)
        # every copy's columns together are distinct basis vectors: exactly
        # isometric and mutually orthogonal across copies and block pairs
        Q = np.concatenate([F.transpose(1, 0, 2).reshape(H.dim, F.shape[0] * F.shape[2])
                            for F in itertools.chain(*H.frames)], axis=1)
        assert np.array_equal(Q.conj().T @ Q, np.eye(H.dim))
        assert set(np.unique(Q)) <= {0.0, 1.0}


def test_table_frames_keep_copy_order():
    # copy s of a block pair is its s-th run of basis vectors, where eigh
    # may return the copies of a degenerate eigenspace in any order
    A, B = MultiMatrixAlgebra((2,)), MultiMatrixAlgebra((1,))
    (F,), = table_frames(A, B, ((3,),))
    assert [int(np.argmax(F[s, :, 0])) for s in range(3)] == [0, 2, 4]
    with pytest.raises(ValueError, match="read-only"):
        F[0, 0, 0] = 2.0


@pytest.mark.parametrize("seed", [1, 7, 31])
def test_index_data_writes_the_kronecker_units(seed):
    for A, B, table in _tables(seed, 40):
        H = block_correspondence(A, B, table)
        for side, units, want in zip(("left", "right"), (H.pi_l_units, H.pi_r_units),
                                     kron_block_units(A, B, table)):
            assert units.dtype == want.dtype and np.array_equal(units, want)
            k, t, s = table_units(A, B, table, side)
            # one entry per nonzero, each a 1
            assert len(k) == np.count_nonzero(want) and np.all(want[k, t, s] == 1.0)
            gens = (A if side == "left" else B).generator_units
            k, t, s = table_units(A, B, table, side, generators=True)
            only = np.zeros((len(gens), H.dim, H.dim))
            only[k, t, s] = 1.0
            assert np.array_equal(only, want[gens])


def test_index_data_is_read_only_and_kept():
    A, B = MultiMatrixAlgebra((2, 1)), MultiMatrixAlgebra((2,))
    data = table_units(A, B, ((1,), (2,)), "left")
    assert table_units(A, B, ((1,), (2,)), "left") is data
    with pytest.raises(ValueError, match="read-only"):
        data[0][0] = 1


def _fusion_inputs(rng):
    A, B, C = (MultiMatrixAlgebra(blocks) for blocks in ((2, 1), (1, 1), (3,)))
    std = gns_standard_form(B, random_faithful_state(B, rng, floor=0.05))
    return block_correspondence(A, B, [[1, 2], [0, 1]]), \
        block_correspondence(B, C, [[2], [1]]), std


def test_a_fusion_result_holds_its_table_and_writes_its_stacks_on_first_read():
    H, K, std = _fusion_inputs(np.random.default_rng(5))
    fused = connes_fusion(H, K, std).corr
    table = tuple(map(tuple, np.dot(H.table, K.table).tolist()))
    block = block_correspondence(H.left_algebra, K.right_algebra, table)
    assert fused.table == table and fused.dim == block.dim
    assert "pi_l_units" not in vars(fused) and "pi_r_units" not in vars(fused)
    for key in ("pi_l_units", "pi_r_units"):
        units = getattr(fused, key)
        assert np.array_equal(units, getattr(block, key)) and units.flags.c_contiguous
        assert getattr(fused, key) is units
        with pytest.raises(ValueError, match="read-only"):
            units[0, 0, 0] = 1.0
    assert fused.multiplicities == table
    with pytest.raises(AttributeError):
        fused.pi_x_units
    # a correspondence without a table has no stack to write
    H_measured = _measured(H)
    del vars(H_measured)["pi_l_units"]
    with pytest.raises(AttributeError):
        H_measured.pi_l_units


def test_every_block_correspondence_is_built_from_its_table_alone():
    # block_correspondence, vector_correspondence and L² hold no stack once
    # built; a refutation, decided by the table, writes none; a stack read
    # later is table_stack's, read-only
    M21, C = MultiMatrixAlgebra((2, 1), name="M2+C"), MultiMatrixAlgebra((1,))
    built = [block_correspondence(M21, C, [[1], [0]]), vector_correspondence(3),
             identity_correspondence(gns_standard_form(M21, trace_state(M21))),
             block_correspondence(M21, M21, [[0, 2], [1, 1]])]
    for H in built:
        assert not {"pi_l_units", "pi_r_units"} & set(vars(H)), H
    assert not certify_morita_equivalent(built[0]).equivalent
    assert not {"pi_l_units", "pi_r_units"} & set(vars(built[0]))
    for H in built:
        for key, side in (("pi_l_units", "left"), ("pi_r_units", "right")):
            units = getattr(H, key)
            assert np.array_equal(units, table_stack(H.left_algebra, H.right_algebra,
                                                     H.table, side))
            with pytest.raises(ValueError, match="read-only"):
                units[0, 0, 0] = 1.0


def test_tensordot_and_index_data_give_the_same_fusion():
    # the Gram matrix is written from the right factor's index data when it
    # carries a table, and contracted with its stack otherwise; both read
    # the same frames
    H, K, std = _fusion_inputs(np.random.default_rng(6))
    K_stacks = _measured(K)
    vars(K_stacks)["frames"] = K.frames
    via_table, via_stack = connes_fusion(H, K, std), connes_fusion(H, K_stacks, std)
    assert np.array_equal(via_table.project, via_stack.project)
    assert np.array_equal(via_table.section, via_stack.section)


def test_reduced_basis_is_a_partial_permutation_in_table_order():
    # on block correspondences S is 0/1, so project and section are S's
    # columns scaled: copy (b, s, t) of the fused basis reads copy s of H
    # and copy t of K in table order
    H, K, std = _fusion_inputs(np.random.default_rng(7))
    fus = connes_fusion(H, K, std)
    support = np.abs(fus.section) > 0
    assert np.all(support.sum(axis=0) == 1)
    assert len(set(np.flatnonzero(support.any(axis=1)))) == fus.corr.dim


def test_multiplicity_two_chain_keeps_its_pentagon():
    # copies of multiplicity-2 cells come in table order, where eigh gave
    # them reversed; the coherence verdicts hold as before
    rng = np.random.default_rng(11)
    A, B = MultiMatrixAlgebra((2,)), MultiMatrixAlgebra((2, 1))
    cells = (block_correspondence(A, B, [[2, 1]]), block_correspondence(B, A, [[1], [2]]),
             block_correspondence(A, B, [[1, 2]]), block_correspondence(B, A, [[2], [1]]))
    inst = WStarBicategory(states={X: random_faithful_state(X, rng, floor=0.05)
                                   for X in (A, B)})
    result = verify_pentagon(inst, *cells)
    assert result.holds and result.discrepancy <= 1e-8


def test_an_equivalence_certificate_maps_table_frames_onto_table_frames():
    # both witnesses compare two block correspondences of the identity table
    H = block_correspondence(MultiMatrixAlgebra((2, 1)), MultiMatrixAlgebra((1, 3)),
                             [[0, 1], [1, 0]])
    std = gns_standard_form(H.right_algebra, trace_state(H.right_algebra))
    fused = connes_fusion(H, conjugate_correspondence(H), std).corr
    L2 = identity_correspondence(gns_standard_form(H.left_algebra,
                                                   trace_state(H.left_algebra)))
    assert fused.table == L2.table == ((1, 0), (0, 1))
    for F, E in zip(itertools.chain(*fused.frames), itertools.chain(*L2.frames)):
        assert np.array_equal(F, E)


def test_the_cyclic_vector_is_computed_once_and_read_only():
    M2 = MultiMatrixAlgebra((2,))
    std = gns_standard_form(M2, random_faithful_state(M2, np.random.default_rng(2)))
    vec = std.cyclic_vector()
    assert std.cyclic_vector() is vec
    assert np.array_equal(vec, std.lam @ M2.coords(M2.identity()))
    with pytest.raises(ValueError, match="read-only"):
        vec[0] = 0.0


def test_the_screened_norms_copy_no_matrix():
    # a block correspondence's units: every Frobenius norm is above the
    # operator norm 1, so every matrix passes the screen
    H = block_correspondence(MultiMatrixAlgebra((6,)), MultiMatrixAlgebra((2, 3)), [[2, 1]])
    units = np.array(H.pi_l_units)
    tracemalloc.start()
    try:
        top = max_operator_norm(units)
        above = norm_exceeds(units, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert top.hex() == max(np.linalg.norm(U, 2) for U in units).hex() and above
    assert peak < 0.05 * units.nbytes, (peak, units.nbytes)


def test_a_bimodule_casts_its_law_stacks_on_use(monkeypatch):
    seen = []
    real = bimodules_module.intertwines

    def recorded(M, src, tgt, *factors):
        seen.append((src, tgt))
        return real(M, src, tgt, *factors)
    monkeypatch.setattr(bimodules_module, "intertwines", recorded)
    P = column_module(truncated_polynomial_ring(2, 2), 3)
    identity = identity_map(P).matrix
    for _ in range(2):
        BimoduleMap(P, P, identity)
    # every check reads the exact read-only stacks and casts them itself,
    # so the bimodule holds no second, cast copy of either side
    sides = [P.left_action, P.right_action] * 2
    assert len(seen) == 4 and all(src is stack and tgt is stack
                                  for (src, tgt), stack in zip(seen, sides))
    assert set(vars(P)) == {"left_ring", "right_ring", "carrier", "left_action",
                            "right_action", "name"}
    Z = cyclic_ring(2 ** 40)
    B = column_module(Z, 2)
    assert B.left_action.dtype == object and set(vars(B)) == set(vars(P))