"""Tests of the benchmark itself: golden checking, metric names, bypasses.

Run from the repository root (about a minute; the W* pass certifies M_6):

    python3 -m pytest perfbench -q
"""

import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import moritalab.rings  # noqa: E402
import moritalab.rings.tensor  # noqa: E402


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_corrupted_golden_entry_is_counted_and_the_pass_goes_on():
    wl = workloads.build("ring-morita", 0, run.OUT_DIR)
    golden = run.load_golden("ring-morita")
    keys = {v.key for v in wl.verdicts if v.key.startswith("tensor:")}
    clean = run.run_pass(wl, golden, keys)
    assert len(clean.results) == len(keys) >= 20
    assert all(r.ok for r in clean.results)

    corrupted = copy.deepcopy(golden)
    corrupted["tensor:3"]["answer"] = corrupted["tensor:3"]["answer"] + [2]
    p = run.run_pass(wl, corrupted, keys)
    assert len(p.results) == len(keys)
    assert [r.key for r in p.results if not r.ok] == ["tensor:3"]


def test_raising_verdict_is_counted_and_the_pass_goes_on():
    def boom(state):
        raise ValueError("broken input")
    toy = workloads.Workload(
        [workloads.Verdict("boom", "x", boom),
         workloads.Verdict("fine", "x", lambda state: (True, {}))],
        headline="fine", warmup=())
    p = run.run_pass(toy, {"x": {"answer": True}})
    assert [(r.key, r.ok) for r in p.results] == [("boom", False),
                                                  ("fine", True)]
    assert "ValueError" in p.results[0].detail


def test_residual_checks_bite():
    spec = {"answer": True, "max": {"polar": 1e-9}}
    assert run.check(spec, True, {"polar": 1e-12}) == ""
    assert run.check(spec, True, {"polar": 1e-6})
    assert run.check(spec, True, {"polar": float("nan")})
    assert run.check(spec, True, {})
    assert run.check(spec, False, {"polar": 1e-12})
    assert run.check(None, True, {})


def test_metric_names_and_units_match_benchmark_json():
    spec = _benchmark_spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    one = run.Pass([run.Result("x", 1.0, True, {}, scaled=1.0)], 1.0, [])
    metrics, _ = run.per_layer(tracing.Tracer(), one, one)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == {n: run.per_layer_units(n) for n in metrics}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def _traced_layers(name: str) -> dict:
    wl = workloads.build(name, 0, run.OUT_DIR)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        p = run.run_pass(wl, run.load_golden(name))
    finally:
        tracer.uninstall()
    assert all(r.ok for r in p.results), [r.key for r in p.results if not r.ok]
    return tracer.summary()["layers"]


def test_uninstall_restores_the_original_functions():
    original = moritalab.rings.tensor.tensor_product
    tracer = tracing.Tracer()
    tracer.install()
    assert moritalab.rings.tensor_product is not original
    tracer.uninstall()
    assert moritalab.rings.tensor_product is original
    assert moritalab.rings.tensor.tensor_product is original


def test_ring_morita_never_reaches_the_analytic_layers():
    layers = _traced_layers("ring-morita")
    assert layers["numkernel"]["calls"] == 0
    assert layers["wstar"]["calls"] == 0
    assert layers["exact"]["calls"] > 0 and layers["rings"]["calls"] > 0


def test_wstar_morita_never_reaches_the_exact_layers():
    layers = _traced_layers("wstar-morita")
    assert layers["exact"]["calls"] == 0
    assert layers["rings"]["calls"] == 0
    assert layers["numkernel"]["calls"] > 0 and layers["wstar"]["calls"] > 0
