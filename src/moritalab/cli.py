"""Batch front end: run verification tasks from a spec file, emit a report.

Commands:
    moritalab run <spec.json> [flags]     execute the task list
    moritalab validate <spec.json>        parse and check references only
    moritalab demo <name> [flags]         run a built-in instance

Exit codes: 0 when every task passes, 1 when any task fails, is refuted,
or errors, 2 on unreadable or invalid input, an unwritable --report or
--spec-out path included, which is found before any task runs.  The
report is JSON on stdout, or at --report <path> with a one-line summary
per task printed instead.  MORITALAB_SEED overrides --seed when set.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import sys
import time

import numpy as np

from . import __version__
from .bicategory import (
    RingsBicategory,
    WStarBicategory,
    sample_wstar_chain,
    verify_pentagon,
    verify_triangle,
)
from .errors import SpecError
from .rings.base import cyclic_ring, matrix_ring
from .rings.bimodules import column_module, row_module
from .rings.families import CoherencePool
from .rings.hom import end_ring
from .rings.isosearch import ring_iso_search
from .rings.morita import certify_invertible_bimodule
from .rings.tensor import tensor_product
from .specfile import (
    SpecFile,
    encode_complex_matrix,
    load_spec_dict,
    load_spec_file,
    serialize_spec,
)
from .wstar.algebras import MultiMatrixAlgebra, State, trace_state
from .wstar.correspondences import conjugate_correspondence, vector_correspondence
from .wstar.fusion import connes_fusion, twisted_balancing_residual
from .wstar.morita import certify_morita_equivalent
from .wstar.standard import gns_standard_form, standard_form_residuals

PASS, FAIL, REFUTED, ERROR = "Pass", "Fail", "Refuted", "Error"


# ------------------------------------------------------------ task bodies
# each returns (status, detail, data, discrepancy); --tol gates only the
# measured discrepancy, so tightening it turns Pass into Fail, nothing else

def _exceeds(what: str, value: float, opts: argparse.Namespace) -> str:
    return f"{what} {value:.3g} exceeds tolerance {opts.tol:g}"


def _task_check_ring(spec: SpecFile, task: dict, opts: argparse.Namespace):
    R = spec.rings[task["ring"]]
    data = {
        "order": R.order,
        "characteristic": R.characteristic,
        "invariant_factors": list(R.additive.invariant_factors),
        "commutative": R.is_commutative,
    }
    return PASS, f"ring of order {R.order} is well-formed", data, 0.0


def _task_tensor(spec: SpecFile, task: dict, opts: argparse.Namespace):
    P = spec.bimodules[task["left"]]
    Q = spec.bimodules[task["right"]]
    t = tensor_product(P, Q)
    data = {
        "carrier": list(t.module.carrier.invariant_factors),
        "rank": t.module.rank,
        "order": t.module.carrier.order,
    }
    return PASS, f"tensor carrier {data['carrier']}", data, 0.0


def _task_morita_ring(spec: SpecFile, task: dict, opts: argparse.Namespace):
    P = spec.bimodules[task["bimodule"]]
    cert = certify_invertible_bimodule(P)
    if not cert.equivalent:
        return REFUTED, cert.reason, {"reason": cert.reason}, 0.0
    data = {
        "inverse_carrier": list(cert.inverse.carrier.invariant_factors),
        "iso_to_left": cert.iso_to_left.matrix.tolist(),
        "iso_to_right": cert.iso_to_right.matrix.tolist(),
    }
    if task.get("check_end_ring"):
        E = end_ring(P)
        T = ring_iso_search(P.left_ring, E)
        data["end_ring_isomorphic"] = T is not None
        if T is None:
            return FAIL, "endomorphism ring not isomorphic to the left ring", data, 1.0
    return PASS, "invertible bimodule with explicit inverse", data, 0.0


def _task_coherence_rings(spec: SpecFile, task: dict, opts: argparse.Namespace):
    count = task.get("count", 5)
    seed = task.get("seed", opts.seed)
    rng = random.Random(seed)
    pool = CoherencePool()
    inst = RingsBicategory()
    nonzero = 0
    for k in range(count):
        chain = pool.sample_chain(rng, 4, max_order=opts.max_order)
        nonzero += all(P.carrier.order > 1 for P in chain)
        pent = verify_pentagon(inst, *chain)
        tri = verify_triangle(inst, chain[0], chain[1])
        if not (pent.holds and tri.holds):
            bad = pent if not pent.holds else tri
            return (FAIL, f"{bad.law} failed on sampled tuple {k}",
                    {"tuple": k, "seed": seed, "law": bad.law},
                    bad.discrepancy)
    data = {"tuples": count, "nonzero_tuples": nonzero, "seed": seed,
            "max_order": opts.max_order}
    if nonzero == 0:
        return (FAIL, f"all {count} sampled tuples have a zero cell, "
                "so the check is vacuous", data, 0.0)
    return (PASS, f"pentagon and triangle exact on {count} sampled tuples "
            f"({nonzero} with no zero cell)", data, 0.0)


def _task_standard_form(spec: SpecFile, task: dict, opts: argparse.Namespace):
    A = spec.algebras[task["algebra"]]
    phi = spec.states[task["state"]] if "state" in task else trace_state(A)
    std = gns_standard_form(A, phi)
    res = standard_form_residuals(std)
    worst = max(res.values())
    data = {"residuals": res, "dim": std.dim,
            "delta_spectrum": sorted(float(v) for v in
                                     np.linalg.eigvalsh(std.delta))}
    if worst > opts.tol:
        return FAIL, _exceeds("modular identity residual", worst, opts), data, worst
    return PASS, "modular data verified", data, worst


def _task_fusion(spec: SpecFile, task: dict, opts: argparse.Namespace):
    H = spec.correspondences[task["left"]]
    K = spec.correspondences[task["right"]]
    N = H.right_algebra
    phi = spec.states[task["state"]] if "state" in task else trace_state(N)
    std = gns_standard_form(N, phi)
    fus = connes_fusion(H, K, std, cap=opts.max_dim ** 2)
    samples = task.get("samples", 50)
    rng = np.random.default_rng(opts.seed)
    disc = twisted_balancing_residual(fus, std, rng, samples=samples)
    data = {"fused_dim": fus.corr.dim, "samples": samples,
            "seed": opts.seed, "balancing_residual": disc}
    if disc > opts.tol:
        return FAIL, _exceeds("twisted balancing residual", disc, opts), data, disc
    return PASS, f"fused to dimension {fus.corr.dim}", data, disc


def _task_morita_wstar(spec: SpecFile, task: dict, opts: argparse.Namespace):
    H = spec.correspondences[task["correspondence"]]
    phi_M = spec.states[task["state_left"]] if "state_left" in task else None
    phi_N = spec.states[task["state_right"]] if "state_right" in task else None
    cert = certify_morita_equivalent(H, phi_M, phi_N)
    data = {"multiplicities": [list(row) for row in H.multiplicities]}
    if not cert.equivalent:
        data["reason"] = cert.reason
        return REFUTED, cert.reason, data, cert.residual
    data.update({
        "residual": cert.residual,
        "fusion_left_dim": cert.fusion_left.corr.dim,
        "fusion_right_dim": cert.fusion_right.corr.dim,
        "unitary_left": encode_complex_matrix(cert.unitary_left),
        "unitary_right": encode_complex_matrix(cert.unitary_right),
    })
    if cert.residual > opts.tol:
        return FAIL, _exceeds("certificate residual", cert.residual, opts), \
            data, cert.residual
    return PASS, "correspondence implements an equivalence", data, cert.residual


def _task_coherence_wstar(spec: SpecFile, task: dict, opts: argparse.Namespace):
    count = task.get("count", 5)
    seed = task.get("seed", opts.seed)
    rng = np.random.default_rng(seed)
    inst = WStarBicategory(tol=opts.tol)
    worst = 0.0
    for k in range(count):
        _, cells = sample_wstar_chain(rng, 4, dim_cap=opts.max_dim)
        pent = verify_pentagon(inst, *cells)
        tri = verify_triangle(inst, cells[0], cells[1])
        worst = max(worst, pent.discrepancy, tri.discrepancy)
        if not (pent.holds and tri.holds):
            bad = pent if not pent.holds else tri
            detail = _exceeds(f"{bad.law} discrepancy", bad.discrepancy, opts)
            return (FAIL, f"{detail} on tuple {k}",
                    {"tuple": k, "seed": seed, "law": bad.law},
                    bad.discrepancy)
    data = {"tuples": count, "seed": seed, "dim_cap": opts.max_dim,
            "max_discrepancy": worst}
    return PASS, f"coherence within tolerance on {count} sampled tuples", data, worst


_TASKS = {
    "check-ring": _task_check_ring,
    "tensor": _task_tensor,
    "morita-ring": _task_morita_ring,
    "coherence-rings": _task_coherence_rings,
    "standard-form": _task_standard_form,
    "fusion": _task_fusion,
    "morita-wstar": _task_morita_wstar,
    "coherence-wstar": _task_coherence_wstar,
}


# --------------------------------------------------------------- runner

def _run_one(spec: SpecFile, idx: int, task: dict, opts: argparse.Namespace) -> dict:
    kind = task["task"]
    name = task.get("name", f"{kind}#{idx}")
    started = time.perf_counter()
    try:
        status, detail, data, disc = _TASKS[kind](spec, task, opts)
    except Exception as exc:
        status = ERROR
        detail = f"{type(exc).__name__}: {exc}"
        data, disc = {}, 0.0
    elapsed = time.perf_counter() - started
    return {
        "index": idx,
        "name": name,
        "task": kind,
        "status": status,
        "detail": detail,
        "discrepancy": disc,
        "elapsed_s": round(elapsed, 6),
        "data": data,
    }


def run_spec(spec: SpecFile, opts: argparse.Namespace, digest: str) -> dict:
    started = time.perf_counter()
    rows = [_run_one(spec, i, t, opts) for i, t in enumerate(spec.tasks)]
    return {
        "tool": "moritalab",
        "version": __version__,
        "input_digest": digest,
        "seed": opts.seed,
        "tolerance": opts.tol,
        "max_dim": opts.max_dim,
        "max_order": opts.max_order,
        "tasks": rows,
        "all_pass": all(r["status"] == PASS for r in rows),
        "elapsed_s": round(time.perf_counter() - started, 6),
    }


def _emit(report: dict, report_fh, out) -> None:
    text = json.dumps(report, indent=2, sort_keys=False)
    if report_fh:
        report_fh.write(text + "\n")
        for row in report["tasks"]:
            print(f"{row['status']:8s} {row['name']}: {row['detail']}", file=out)
        print(f"report written to {report_fh.name}", file=out)
    else:
        print(text, file=out)


# ---------------------------------------------------------------- demos

def _demo_matrix_ring_pair() -> dict:
    Z2 = cyclic_ring(2)
    M2 = matrix_ring(Z2, 2)
    col = column_module(Z2, 2, M2)
    row = row_module(Z2, 2, M2)
    spec = SpecFile(
        rings={"Z2": Z2, "M2_Z2": M2},
        bimodules={"column": col, "row": row},
        tasks=(
            {"task": "check-ring", "ring": "Z2"},
            {"task": "check-ring", "ring": "M2_Z2"},
            {"task": "tensor", "left": "column", "right": "row"},
            {"task": "morita-ring", "bimodule": "column",
             "check_end_ring": True},
            {"task": "coherence-rings", "count": 3},
        ),
    )
    return serialize_spec(spec)


def _demo_mn_vs_c() -> dict:
    M2 = MultiMatrixAlgebra((2,), name="M2")
    C = MultiMatrixAlgebra((1,), name="C")
    H = vector_correspondence(2)
    spec = SpecFile(
        algebras={"M2": M2, "C": C},
        correspondences={"H": H},
        tasks=(
            {"task": "standard-form", "algebra": "M2"},
            {"task": "morita-wstar", "correspondence": "H"},
            {"task": "coherence-wstar", "count": 3},
        ),
    )
    return serialize_spec(spec)


def _demo_non_tracial_fusion() -> dict:
    M2 = MultiMatrixAlgebra((2,), name="M2")
    phi = State(M2, np.diag([2.0 / 3.0, 1.0 / 3.0]).astype(np.complex128))
    H = vector_correspondence(2)
    Hbar = conjugate_correspondence(H)
    spec = SpecFile(
        algebras={"M2": M2, "C": MultiMatrixAlgebra((1,), name="C")},
        states={"phi": phi},
        correspondences={"H": H, "Hbar": Hbar},
        tasks=(
            {"task": "standard-form", "algebra": "M2", "state": "phi"},
            {"task": "fusion", "left": "Hbar", "right": "H", "state": "phi"},
            {"task": "morita-wstar", "correspondence": "H",
             "state_left": "phi"},
        ),
    )
    return serialize_spec(spec)


DEMOS = {
    "matrix-ring-pair": _demo_matrix_ring_pair,
    "mn-vs-c": _demo_mn_vs_c,
    "non-tracial-fusion": _demo_non_tracial_fusion,
}


# ----------------------------------------------------------------- main

def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"expected a finite number > 0, got {text!r}")
    return value


def _int_at_least(least: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = least - 1
        if value < least:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {least}, got {text!r}")
        return value
    return parse


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="moritalab",
        description="verify Morita-theoretic claims from a JSON spec file")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_flags(p):
        p.add_argument("--tol", type=_positive_float, default=1e-8,
                       help="acceptance tolerance for measured W* residuals "
                            "(default 1e-8)")
        p.add_argument("--seed", type=_int_at_least(0), default=0,
                       help="sampler seed (env MORITALAB_SEED overrides)")
        p.add_argument("--report", default=None,
                       help="write the JSON report here instead of stdout")
        p.add_argument("--max-dim", type=_int_at_least(1), default=24,
                       help="dimension cap for sampled W* tuples; its square caps fusion ambients")
        p.add_argument("--max-order", type=_int_at_least(1), default=16,
                       help="carrier order cap for sampled ring tuples")

    run_p = sub.add_parser("run", help="execute the tasks in a spec file")
    run_p.add_argument("spec", help="path to the JSON spec file")
    add_flags(run_p)

    val_p = sub.add_parser("validate", help="parse a spec file and stop")
    val_p.add_argument("spec", help="path to the JSON spec file")

    demo_p = sub.add_parser("demo", help="run a built-in instance")
    demo_p.add_argument("name", choices=sorted(DEMOS),
                        help="which built-in instance")
    demo_p.add_argument("--spec-out", default=None,
                        help="also write the generated spec JSON here")
    add_flags(demo_p)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    env_seed = os.environ.get("MORITALAB_SEED")
    if args.command != "validate" and env_seed is not None:
        try:
            args.seed = _int_at_least(0)(env_seed)
        except argparse.ArgumentTypeError as exc:
            print(f"invalid MORITALAB_SEED: {exc}", file=sys.stderr)
            return 2

    if args.command == "validate":
        try:
            spec = load_spec_file(args.spec)
        except SpecError as exc:
            print(f"invalid spec: {exc}", file=sys.stderr)
            return 2
        counts = {
            "rings": len(spec.rings),
            "bimodules": len(spec.bimodules),
            "algebras": len(spec.algebras),
            "states": len(spec.states),
            "correspondences": len(spec.correspondences),
            "tasks": len(spec.tasks),
        }
        print(json.dumps({"valid": True, **counts}))
        return 0

    # hashlib loads OpenSSL, about 3 MB resident, which only the report's
    # spec digest needs, so a plain `import moritalab.cli` does not pay it
    import hashlib

    if args.command == "run":
        try:
            with open(args.spec, "rb") as fh:
                raw = fh.read()
            spec = load_spec_dict(json.loads(raw.decode("utf-8")))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            print(f"cannot parse {args.spec}: {exc}", file=sys.stderr)
            return 2
        except SpecError as exc:
            print(f"invalid spec: {exc}", file=sys.stderr)
            return 2
        digest = "sha256:" + hashlib.sha256(raw).hexdigest()
    else:  # demo
        doc = DEMOS[args.name]()
        text = json.dumps(doc, indent=2, sort_keys=True)
        spec = load_spec_dict(doc)
        digest = "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()

    # an unwritable output path is invalid input, found before any task runs
    try:
        if getattr(args, "spec_out", None):
            with open(args.spec_out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        report_fh = open(args.report, "w", encoding="utf-8") if args.report else None
    except OSError as exc:
        print(f"cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    with report_fh or contextlib.nullcontext():
        report = run_spec(spec, args, digest)
        _emit(report, report_fh, sys.stdout)
    return 0 if report["all_pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
