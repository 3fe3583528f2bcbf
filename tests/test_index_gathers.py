"""Block correspondences act by index gathers, checked against dense oracles.

The witness residual and both unitors read a side with a table as index
data, unit u sending basis vector s to t, and move rows or columns instead
of multiplying by the unit stacks.  Each entry of those products has one
term, so every value must equal the dense construction of oracles.py bit
for bit: random and identity witnesses, multiplicity-2 and permuted
tables.  An endpoint with a frame W is read on its table through W, so
there the residual is the dense one up to W's unitarity defect and the
rounding of the permuted products.  The library's own certification and
coherence paths must then leave every block correspondence they build
without a stack, and two correspondences of one table are close with no
stack read.
"""

import numpy as np
import pytest

from moritalab.bicategory import WStarBicategory, verify_pentagon
from moritalab.numkernel import norm_exceeds
from moritalab.wstar import (
    Correspondence,
    Intertwiner,
    MultiMatrixAlgebra,
    block_correspondence,
    certify_morita_equivalent,
    connes_fusion,
    correspondences_close,
    gns_standard_form,
    identity_correspondence,
    left_unitor,
    random_faithful_state,
    right_unitor,
    trace_state,
    vector_correspondence,
)

from oracles import dense_left_unitor, dense_residual, dense_right_unitor

STACKS = ("pi_l_units", "pi_r_units")
# (left blocks, right blocks, table): one copy, multiplicity 2, permuted
# blocks (a table that is a permutation matrix), and mixed
TABLES = [
    ((2,), (1,), ((1,),)),
    ((2, 1), (1, 2), ((0, 1), (1, 0))),
    ((2,), (2, 1), ((2, 1),)),
    ((1, 2), (2,), ((2,), (1,))),
    ((2, 1), (2, 1), ((1, 2), (2, 0))),
]


def _untabled(H: Correspondence) -> Correspondence:
    """H's stacks through the checked constructor, which gives it a frame."""
    return Correspondence(H.left_algebra, H.right_algebra, H.dim,
                          H.pi_l_units, H.pi_r_units)


def _endpoints(left, right, table):
    """(source, target) pairs of one table: neither end with a frame, and either end with one."""
    A, B = MultiMatrixAlgebra(left), MultiMatrixAlgebra(right)
    H, K = block_correspondence(A, B, table), block_correspondence(A, B, table)
    return [(H, K), (H, _untabled(K)), (_untabled(H), K)]


def _witnesses(H, rng):
    """Matrices on H: the identity, a random one, and one commuting with each
    action, so that one side's residual is exactly 0 and the other's not."""
    x = H.left_algebra.random_element(rng)
    y = H.right_algebra.random_element(rng)
    d = H.dim
    return {"identity": np.eye(d),
            "random": rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)),
            "right action": H.pi_r(y), "left action": H.pi_l(x)}


@pytest.mark.parametrize("left, right, table", TABLES)
def test_the_residual_equals_the_dense_products(left, right, table):
    rng = np.random.default_rng(len(left) * 7 + len(right))
    for source, target in _endpoints(left, right, table):
        for name, T in _witnesses(source, rng).items():
            got = Intertwiner(source, target, T).residual()
            sides = dense_residual(Intertwiner(source, target, T))
            if source.frame is None and target.frame is None:
                assert got.hex() == max(sides).hex(), (name, table)
            else:
                assert got == pytest.approx(max(sides), rel=1e-14, abs=1e-15), (name, table)
            if name == "identity":
                assert got == 0.0
            if name == "random":
                assert max(sides) > 0.0
            if name in ("right action", "left action"):
                # a right image commutes exactly with the left units, and
                # the other way round: only the other side can be nonzero
                assert sides[0 if name == "right action" else 1] == 0.0, (name, sides)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_a_certificate_witness_is_the_dense_residual(n):
    # the fusion result and L² are both tabled, of one table
    cert = certify_morita_equivalent(vector_correspondence(n))
    A = cert.corr.left_algebra
    L2 = identity_correspondence(gns_standard_form(A, trace_state(A)))
    rng = np.random.default_rng(n)
    U = cert.unitary_left
    for T in (U, U + 1e-6 * rng.standard_normal(U.shape)):
        w = Intertwiner(cert.fusion_left.corr, L2, T)
        assert w.residual().hex() == max(dense_residual(w)).hex()


@pytest.mark.parametrize("left, right, table", TABLES)
def test_the_unitors_equal_the_dense_contractions(left, right, table):
    A, B = MultiMatrixAlgebra(left), MultiMatrixAlgebra(right)
    rng = np.random.default_rng(sum(map(sum, table)))
    std_A = gns_standard_form(A, random_faithful_state(A, rng, floor=0.05))
    std_B = gns_standard_form(B, random_faithful_state(B, rng, floor=0.05))
    H = block_correspondence(A, B, table)
    for X in (H, _untabled(H)):
        fus = connes_fusion(identity_correspondence(std_A), X, std_A)
        got = left_unitor(X, std_A, fus).matrix
        assert got.tobytes() == dense_left_unitor(X, std_A, fus).tobytes()
        fus = connes_fusion(X, identity_correspondence(std_B), std_B)
        got = right_unitor(X, std_B, fus).matrix
        assert got.tobytes() == dense_right_unitor(X, std_B, fus).tobytes()


@pytest.fixture
def built(monkeypatch):
    """Every block correspondence that Correspondence._lawful builds while
    the test runs."""
    made = []
    lawful = Correspondence._lawful.__func__

    def recording(cls, *args, **kwargs):
        made.append(lawful(cls, *args, **kwargs))
        return made[-1]
    monkeypatch.setattr(Correspondence, "_lawful", classmethod(recording))
    return made


def test_certification_and_a_pentagon_write_no_stack_of_a_block_correspondence(built):
    H = vector_correspondence(4)
    A = MultiMatrixAlgebra((2, 3))
    L2 = identity_correspondence(gns_standard_form(A, trace_state(A)))
    A2, A21 = MultiMatrixAlgebra((2,)), MultiMatrixAlgebra((2, 1))
    chain = (block_correspondence(A2, A21, [[2, 1]]), block_correspondence(A21, A2, [[1], [2]]),
             block_correspondence(A2, A21, [[1, 2]]), block_correspondence(A21, A2, [[2], [1]]))
    rng = np.random.default_rng(11)
    inst = WStarBicategory(states={X: random_faithful_state(X, rng, floor=0.05)
                                   for X in (A2, A21)})
    inputs = len(built)
    assert certify_morita_equivalent(H).equivalent
    assert certify_morita_equivalent(L2).equivalent
    result = verify_pentagon(inst, *chain)
    assert result.holds, result
    # fusion results, the L² witnesses' targets and the unitors' L² inputs
    made = built[inputs:]
    assert len(made) >= 15
    for X in made:
        assert not set(STACKS) & set(vars(X)), X
    # the chain itself is read only through its index data as well
    for X in chain:
        assert not set(STACKS) & set(vars(X)), X


@pytest.mark.parametrize("tol", [1e-9, 0.0, -1e-300, -1.0, float("nan"),
                                 float("inf"), -float("inf")])
@pytest.mark.parametrize("table", [((1, 0), (0, 1)), ((0, 0), (0, 0)), ((2, 1), (0, 3))])
def test_one_table_is_close_with_no_stack_read(tol, table):
    A = MultiMatrixAlgebra((2, 1))
    a, b = block_correspondence(A, A, table), block_correspondence(A, A, table)
    got = correspondences_close(a, b, tol)
    assert not set(STACKS) & (set(vars(a)) | set(vars(b)))
    # the dense comparison on copies that write their stacks
    c, d = block_correspondence(A, A, table), block_correspondence(A, A, table)
    want = not norm_exceeds(np.concatenate([c.pi_l_units - d.pi_l_units,
                                            c.pi_r_units - d.pi_r_units]), tol)
    assert got == want


def test_other_tables_differ_and_framed_pairs_compare_their_frames():
    A = MultiMatrixAlgebra((1, 1))
    a = block_correspondence(A, A, ((1, 0), (0, 1)))
    b = block_correspondence(A, A, ((0, 1), (1, 0)))
    assert a.dim == b.dim and not correspondences_close(a, b)
    c = block_correspondence(A, A, ((1, 1), (1, 1)))
    d = _untabled(c)
    assert correspondences_close(c, d) and correspondences_close(d, c)
    assert not correspondences_close(c, d, -1.0)
