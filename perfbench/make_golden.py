"""Regenerate perfbench/golden.json, the stored answer of every verdict.

Run once from the repository root:

    python3 perfbench/make_golden.py

Tensor invariant factors come from the brute-force enumeration oracle in
tests/oracles.py, never from the library's Smith-normal-form path.  The
refutation gates are the reasons the library gives at the commit that
generated the file; every other answer is the mathematical expectation
(column modules and M_n against C are equivalences, round trips are
bijective, squares commute, coherence holds, demos pass), written here.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from moritalab import rings as mr  # noqa: E402
from moritalab import wstar as mw  # noqa: E402
from oracles import tensor_invariants_oracle  # noqa: E402

import workloads  # noqa: E402


def ring_morita() -> dict:
    out = {}
    for label in ("Z/2^2", "Z/2^3", "Z/4^2", "Z/4^3", "Z/2[x]/(x^2)^2",
                  "Z/2[x]/(x^2)^3", "Z/2^4", "Z/2[x]/(x^3)^2"):
        out[f"cert:{label}"] = {"answer": {"equivalent": True, "reason": ""}}
    Z4 = mr.cyclic_ring(4)
    refuted = mr.certify_invertible_bimodule(mr.scalar_bimodule(Z4, Z4, 2))
    assert not refuted.equivalent
    out["refute:2.Z/4"] = {"answer": {"equivalent": False,
                                      "reason": refuted.reason}}
    out["iso"] = {"answer": True}
    out["bijective"] = {"answer": True}
    out["square"] = {"answer": True}
    for idx, (M, N) in enumerate(mr.tensor_oracle_corpus()):
        out[f"tensor:{idx}"] = {
            "answer": list(tensor_invariants_oracle(M, N))}
    return out


def wstar_morita() -> dict:
    out = {"cert": {"answer": {"equivalent": True, "reason": "certified"},
                    "max": {"residual": workloads.TOL}}}
    for key, (left, right, mult) in {
            "refute:not-faithful": ((2, 1), (1,), [[1], [0]]),
            "refute:commutant": ((2,), (1,), [[2]])}.items():
        H = mw.block_correspondence(mw.MultiMatrixAlgebra(left),
                                    mw.MultiMatrixAlgebra(right), mult)
        cert = mw.certify_morita_equivalent(H)
        assert not cert.equivalent
        out[key] = {"answer": {"equivalent": False, "reason": cert.reason}}
    out["standard_form"] = {"answer": True, "max": workloads.STD_BOUNDS}
    out["unitary"] = {"answer": True}
    out["balancing"] = {"answer": True, "max": {"balancing": workloads.TOL}}
    return out


def coherence_batch() -> dict:
    exact = {"answer": {"holds": True, "discrepancy": 0.0}}
    return {
        "pentagon.rings": exact,
        "triangle.rings": exact,
        "analytic": {"answer": True, "max": {"discrepancy": workloads.TOL}},
        "demo": {"answer": {"exit": 0, "all_pass": True}},
    }


def main() -> None:
    golden = {"ring-morita": ring_morita(), "wstar-morita": wstar_morita(),
              "coherence-batch": coherence_batch()}
    with open(os.path.join(HERE, "golden.json"), "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
