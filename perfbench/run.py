"""Closed-loop benchmark of moritalab verdicts.

Run from the repository root:

    python3 perfbench/run.py --workload ring-morita --seed 1 --seconds 15 --trace 0

One client in one process sends each call only after the previous one
returned.  After set-up (import, input construction, one warm-up verdict
per layer) the workload's pass of checked verdicts repeats until
``--seconds`` have elapsed; the pass in progress always completes.  Every
metric is printed by name with its unit, a full report is written under
``.perfbench_out/``, and the last stdout line is the JSON result.  The exit
status is 1 when any verdict raised or disagreed with its golden answer.

``--trace 1`` runs one untraced pass, then one pass with span wrappers
installed, and reports the per-layer metrics instead of the end-to-end
ones.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402

NPROC = len(os.sched_getaffinity(0))
# Fixed before numpy loads, so both sides of a comparison use the same pool.
BLAS_THREADS = min(2, NPROC)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
GOLDEN = os.path.join(HERE, "golden.json")

TOL = 1e-8
RESIDUAL_FLOOR = 2.2e-16
SETUP_PROBES = 2          # extra cold set-ups, each in a fresh process
PROBE_EVERY_S = 0.25      # wall time between speed probes inside a pass
PROBE_WINDOW = 8          # probes on each side that set a verdict's speed
REF_PROBE_S = 0.0035      # typical probe time on the host that set the scale
WORKLOADS = ("ring-morita", "wstar-morita", "coherence-batch")

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "verdict_p50_s": "s",
    "verdict_p90_s": "s",
    "big_verdict_s": "s",
    "peak_rss_mb": "MB",
    "residual_margin_dec": "decades",
}


@dataclass
class Result:
    key: str
    latency: float               # wall seconds
    ok: bool
    residuals: dict
    detail: str = ""
    scaled: float = 0.0          # reference seconds, see run_pass


@dataclass
class Pass:
    results: list
    wall: float                  # wall seconds, speed probes excluded
    probes: list


def speed_probe() -> float:
    """Wall seconds of a fixed pure-Python loop that never touches moritalab."""
    start = time.perf_counter()
    acc = 0
    for i in range(40000):
        acc += i * i % 7
    return time.perf_counter() - start


def check(spec, answer, residuals) -> str:
    """Empty string when the answer matches its golden entry."""
    if spec is None:
        return "no golden answer"
    if answer != spec["answer"]:
        return f"answer {answer!r} != golden {spec['answer']!r}"
    bounds = spec.get("max", {})
    if set(residuals) != set(bounds):
        return f"residuals {sorted(residuals)} != golden {sorted(bounds)}"
    for name, value in residuals.items():
        if not value <= bounds[name]:
            return f"{name} residual {value:.3g} above {bounds[name]:g}"
    return ""


def run_verdict(verdict, state: dict, golden: dict) -> Result:
    start = time.perf_counter()
    try:
        answer, residuals = verdict.call(state)
    except Exception as exc:  # a raising verdict is counted, the pass goes on
        latency = time.perf_counter() - start
        return Result(verdict.key, latency, False, {},
                      f"{type(exc).__name__}: {exc}")
    latency = time.perf_counter() - start
    problem = check(golden.get(verdict.golden), answer, residuals)
    return Result(verdict.key, latency, not problem, residuals, problem)


def run_pass(workload, golden: dict, keys=None) -> Pass:
    """Run verdicts in order, with a speed probe every PROBE_EVERY_S.

    Each latency is also rescaled to reference seconds: multiplied by
    REF_PROBE_S over the median of the probes taken within PROBE_WINDOW
    probes of the verdict.  The host's speed drifts by a quarter over tens
    of seconds; the probe tracks that drift and is untouched by any change
    to moritalab.
    """
    state = workload.fresh_state()
    verdicts = workload.verdicts if keys is None else \
        [v for v in workload.verdicts if v.key in keys]
    start, last_probe = time.perf_counter(), float("-inf")
    results, probes, probe_index = [], [], []
    for v in verdicts:
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            probes.append(speed_probe())
            last_probe = time.perf_counter()
        probe_index.append(len(probes))
        results.append(run_verdict(v, state, golden))
    for r, i in zip(results, probe_index):
        nearby = probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW]
        r.scaled = r.latency * REF_PROBE_S / statistics.median(nearby)
    return Pass(results, time.perf_counter() - start - sum(probes), probes)


def load_golden(workload_name: str) -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)[workload_name]


def probe_setup(args) -> float:
    """Set-up seconds of a fresh process on the same workload and seed."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "1", "--trace", "0", "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def environment(args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_info = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_info = "unknown"
    return {"workload": args.workload, "seed": args.seed, "nproc": NPROC,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_info, "blas_threads": BLAS_THREADS,
            "seconds": args.seconds, "trace": args.trace}


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A beta-weighted average of all order statistics.  Unlike the sample
    quantile it does not jump between clusters when the quantile falls in
    a gap of a multimodal latency distribution.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    t = np.linspace(0.0, 1.0, 200001)
    inner = t[1:-1]                       # the beta density at t, unnormalised
    log_pdf = (a - 1) * np.log(inner) + (b - 1) * np.log1p(-inner)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))))
    cdf = np.append(cdf, cdf[-1]) / cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, t, cdf))
    return float(weights @ x)


def verdict_latencies(passes, attr: str = "scaled") -> dict[str, float]:
    """Each verdict's median latency over the timed passes."""
    by_key: dict[str, list] = {}
    for p in passes:
        for r in p.results:
            by_key.setdefault(r.key, []).append(getattr(r, attr))
    return {k: statistics.median(v) for k, v in by_key.items()}


def timings(passes, workload, attr: str) -> dict:
    """Throughput, latency quantiles and headline latency from one clock."""
    lat = verdict_latencies(passes, attr)
    return {
        "verdicts_per_s": statistics.median(
            len(p.results) / sum(getattr(r, attr) for r in p.results)
            for p in passes),
        "verdict_p50_s": hd_quantile(list(lat.values()), 0.5),
        "verdict_p90_s": hd_quantile(list(lat.values()), 0.9),
        "big_verdict_s": lat[workload.headline],
    }


def end_to_end(passes, workload, setup_s: float) -> dict:
    worst = max((v for p in passes for r in p.results
                 for v in r.residuals.values()), default=0.0)
    return {
        "setup_s": setup_s,
        **timings(passes, workload, "scaled"),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "residual_margin_dec":
            math.log10(TOL / max(worst, RESIDUAL_FLOOR)),
    }


def _slope(points) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def scaling_series(passes, workload) -> dict:
    """Certification time over instance size, with a log-log slope per family."""
    out, families = {}, {}
    lat = verdict_latencies(passes)
    for name, (family, key, size) in workload.series.items():
        out[name] = lat[key]
        families.setdefault(family, []).append((size, out[name]))
    for family, points in families.items():
        if len(points) >= 2:
            out[f"{family}.slope"] = _slope(points)
    return out


def per_layer(tracer, traced: Pass, untraced: Pass) -> tuple[dict, dict]:
    """(metrics declared in BENCHMARK.json, absolute seconds for the report)."""
    summary = tracer.summary()
    wall = traced.wall
    metrics = {}
    for layer, row in summary["layers"].items():
        metrics[f"{layer}.calls"] = row["calls"]
        metrics[f"{layer}.self_pct"] = 100.0 * row["self_s"] / wall
    for name, row in summary["functions"].items():
        metrics[f"{name}.calls"] = row["calls"]
        metrics[f"{name}.total_pct"] = 100.0 * row["total_s"] / wall
    metrics.update(tracer.size_counters())
    metrics["trace.overhead_ratio"] = (
        sum(r.scaled for r in traced.results)
        / sum(r.scaled for r in untraced.results))
    return metrics, summary


def per_layer_units(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("_per_ambient", "overhead_ratio")):
        return "ratio"
    return "count"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "moritalab")):
        print(f"no moritalab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    import workloads

    golden = load_golden(args.workload)
    workload = workloads.build(args.workload, args.seed, OUT_DIR)
    warm = run_pass(workload, golden, keys=set(workload.warmup))
    setup_wall = time.perf_counter() - T0
    # set-up in reference seconds, from probes taken just after it
    setup_main = setup_wall * REF_PROBE_S / statistics.median(
        speed_probe() for _ in range(2 * PROBE_WINDOW))
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_main}))
        return 0
    setups = [setup_main] + [probe_setup(args) for _ in range(SETUP_PROBES)]
    # set-up objects leave the collector's working set, so pass timings do
    # not depend on how much the set-up allocated
    gc.collect()
    gc.freeze()

    if args.trace:
        passes = [run_pass(workload, golden)]
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_pass(workload, golden)
        finally:
            tracer.uninstall()
        metrics, summary = per_layer(tracer, traced, passes[0])
        units = {name: per_layer_units(name) for name in metrics}
        everything = [warm] + passes + [traced]
    else:
        # whole passes only: stop before one would run past --seconds
        passes = [run_pass(workload, golden)]
        while sum(p.wall for p in passes) + passes[-1].wall <= args.seconds:
            passes.append(run_pass(workload, golden))
        metrics = end_to_end(passes, workload, statistics.median(setups))
        units = dict(END_TO_END)
        everything = [warm] + passes
    failures = [r for p in everything for r in p.results if not r.ok]
    attempted = sum(len(p.results) for p in everything)

    env = environment(args)
    report = {
        "environment": env, "metrics": metrics, "units": units,
        "attempted": attempted, "failed": len(failures),
        "failures": [[r.key, r.detail] for r in failures],
        "passes": len(passes), "verdicts_per_pass": len(workload.verdicts),
        "pass_wall_s": [p.wall for p in passes],
        "setup_samples_s": setups,
        "setup_wall_s": setup_wall,
        "scaling": scaling_series(passes, workload),
        "wall_metrics": timings(passes, workload, "latency"),
        "slowdown": statistics.median(x for p in passes for x in p.probes)
        / REF_PROBE_S,
        "latencies_s": verdict_latencies(passes),
    }
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    if args.trace:
        report["trace"] = summary
        spans_path = os.path.join(OUT_DIR, stem + "-spans.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump_spans(), fh)
        report["spans_file"] = os.path.relpath(spans_path, ROOT)
    with open(os.path.join(OUT_DIR, stem + ".json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    for r in failures:
        print(f"FAILED {r.key}: {r.detail}", file=sys.stderr)
    print("environment " + json.dumps(env))
    wall = {f"wall.{k}": v for k, v in report["wall_metrics"].items()}
    for name, value in {**metrics, **report["scaling"], **wall}.items():
        unit = units.get(name.removeprefix("wall.")) or (
            "log-log" if name.endswith("slope") else "s")
        print(f"{name:48s} {value:14.6g} {unit}")
    print(f"{'failed_verdicts':48s} {len(failures):14d} count "
          f"(of {attempted} attempted, {len(passes)} timed passes of "
          f"{len(workload.verdicts)} verdicts)")
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
