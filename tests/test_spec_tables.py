"""Spec files write a tabled correspondence as its table and load it back as one.

A correspondence with no frame (a block correspondence, L², a conjugate,
a fusion result) is serialized as {"left", "right", "table"} and loaded
through ``block_correspondence``, so it comes back a table with no stack.
Checked input, a table placed by a frame, is written as its dense
"pi_l"/"pi_r" entry and loads through the checked constructor again.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from moritalab.errors import SpecError
from moritalab.specfile import SpecFile, load_spec_dict, serialize_spec
from moritalab.wstar import (
    Correspondence,
    MultiMatrixAlgebra,
    block_correspondence,
    conjugate_correspondence,
    connes_fusion,
    gns_standard_form,
    identity_correspondence,
    random_faithful_state,
)

STACKS = {"pi_l_units", "pi_r_units"}


def _tabled_spec() -> SpecFile:
    A = MultiMatrixAlgebra((2, 1), name="A")
    B = MultiMatrixAlgebra((1, 3), name="B")
    H = block_correspondence(A, B, [[2, 0], [1, 1]])
    std_A = gns_standard_form(A, random_faithful_state(A, np.random.default_rng(4)))
    std_B = gns_standard_form(B, random_faithful_state(B, np.random.default_rng(5)))
    fused = connes_fusion(H, conjugate_correspondence(H), std_B).corr
    return SpecFile(algebras={"A": A, "B": B},
                    correspondences={"H": H, "Hbar": conjugate_correspondence(H),
                                     "L2": identity_correspondence(std_A), "HHbar": fused})


def test_a_tabled_correspondence_round_trips_as_its_table():
    spec = _tabled_spec()
    doc = serialize_spec(spec)
    assert doc["correspondences"]["H"] == {"left": "A", "right": "B", "table": [[2, 0], [1, 1]]}
    assert doc["correspondences"]["Hbar"]["table"] == [[2, 1], [0, 1]]
    loaded = load_spec_dict(json.loads(json.dumps(doc)))
    for name, H in spec.correspondences.items():
        back = loaded.correspondences[name]
        assert set(doc["correspondences"][name]) == {"left", "right", "table"}
        assert back.table == H.table and back.dim == H.dim and back.name == name
        assert not STACKS & set(vars(back)), name
        for stack in STACKS:
            assert np.array_equal(getattr(back, stack), getattr(H, stack)), (name, stack)
    assert serialize_spec(loaded) == doc


def test_checked_input_keeps_the_dense_entry():
    M2, C = MultiMatrixAlgebra((2,), name="M2"), MultiMatrixAlgebra((1,), name="C")
    H = block_correspondence(M2, C, [[1]])
    dense = Correspondence(M2, C, H.dim, H.pi_l_units, H.pi_r_units)
    doc = serialize_spec(SpecFile(algebras={"M2": M2, "C": C}, correspondences={"D": dense}))
    assert set(doc["correspondences"]["D"]) == {"left", "right", "dim", "pi_l", "pi_r"}
    back = load_spec_dict(json.loads(json.dumps(doc))).correspondences["D"]
    assert back.frame is not None and back.table == H.table
    for stack in STACKS:
        assert np.array_equal(getattr(back, stack), getattr(dense, stack))


@pytest.mark.parametrize("entry, why", [
    ({"table": [[1]], "dim": 3}, "dim 3 is not the table's dimension 2"),
    ({"table": [[1]], "dim": True}, "dim must be a nonnegative integer"),
    ({"table": [[1, 0]]}, "multiplicity table must be 1 x 1"),
    ({"table": [[-1]]}, "multiplicities must be nonnegative"),
    ({"table": [[1.0]]}, "expected a nested integer array"),
    ({"table": [[True]]}, "expected a nested integer array"),
    ({"table": 1}, "expected a nested integer array"),
])
def test_a_bad_table_entry_is_a_spec_error(entry, why):
    doc = {"algebras": {"M2": {"block_sizes": [2]}, "C": {"block_sizes": [1]}},
           "correspondences": {"H": {"left": "M2", "right": "C", **entry}}}
    with pytest.raises(SpecError, match=f"correspondence 'H': {why}"):
        load_spec_dict(doc)
