"""Problem specification files: JSON in, validated objects out.

The format keeps every number exactly representable: integer matrices
are nested arrays, complex entries are [re, im] pairs.  Loading builds
the real objects, so every structural invariant (associativity, action
compatibility, *-homomorphism laws) is enforced by their constructors;
any violation surfaces as SpecError with the offending definition named.

Top-level keys: "rings", "bimodules", "algebras", "states",
"correspondences" (each a name -> definition map) and "tasks" (a list).
Tasks reference definitions by name; unresolved references fail at load.
A correspondence is either its multiplicity table, {"left", "right",
"table"}, loaded through ``block_correspondence`` (a "dim" beside it must
be the table's), or dense unit matrices, {"left", "right", "dim",
"pi_l", "pi_r"}, loaded through the checked constructor.  Checked input,
which has a frame, is written as its dense unit matrices, so that it loads
as checked input again; the rest is written as its table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import MoritaLabError, SpecError
from .exact import FiniteAbelianGroup, IntegerMatrix
from .rings.base import FiniteRing
from .rings.bimodules import Bimodule
from .wstar.algebras import MultiMatrixAlgebra, State
from .wstar.correspondences import Correspondence, block_correspondence


@dataclass(frozen=True)
class SpecFile:
    """A parsed, fully validated problem file."""

    rings: dict[str, FiniteRing] = field(default_factory=dict)
    bimodules: dict[str, Bimodule] = field(default_factory=dict)
    algebras: dict[str, MultiMatrixAlgebra] = field(default_factory=dict)
    states: dict[str, State] = field(default_factory=dict)
    correspondences: dict[str, Correspondence] = field(default_factory=dict)
    tasks: tuple[dict, ...] = ()


# ----------------------------------------------------------- primitives

def _fail(where: str, why: str) -> SpecError:
    return SpecError(f"{where}: {why}")


def _is_int(v) -> bool:
    """A JSON integer: not a float, a numeric string or a boolean."""
    return isinstance(v, int) and not isinstance(v, bool)


def _int_matrix(obj, where: str) -> IntegerMatrix:
    if not isinstance(obj, list) or not all(
            isinstance(r, list) and all(map(_is_int, r)) for r in obj):
        raise _fail(where, "expected a nested integer array")
    try:
        return IntegerMatrix(obj)
    except ValueError as exc:
        raise _fail(where, str(exc))


def _complex_entry(obj, where: str) -> complex:
    if (not isinstance(obj, list) or len(obj) != 2
            or not all(isinstance(t, (int, float)) and not isinstance(t, bool)
                       for t in obj)):
        raise _fail(where, "complex entries must be [re, im] number pairs")
    return complex(obj[0], obj[1])


def _complex_matrix(obj, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise _fail(where, "expected a nested array of [re, im] pairs")
    rows = [[_complex_entry(e, where) for e in r] for r in obj]
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise _fail(where, "ragged complex matrix")
    return np.array(rows, dtype=np.complex128)


def encode_complex_matrix(M: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(M)]


def _vector(obj, where: str) -> tuple[int, ...]:
    if not isinstance(obj, list) or not all(map(_is_int, obj)):
        raise _fail(where, "expected an integer vector")
    return tuple(obj)


# -------------------------------------------------------------- loaders

def _load_section(doc: dict, key: str, kind: str, build) -> dict[str, Any]:
    """Build every definition of one section, naming the one that fails."""
    sec = doc.get(key, {})
    if not isinstance(sec, dict):
        raise _fail(key, "section must map names to definitions")
    out = {}
    for name, d in sec.items():
        where = f"{kind} {name!r}"
        if not isinstance(d, dict):
            raise _fail(where, "definition must be an object")
        try:
            out[name] = build(name, d, where)
        except SpecError:
            raise
        except KeyError as exc:
            raise _fail(where, f"missing field {exc.args[0]!r}")
        except (ValueError, TypeError, MoritaLabError) as exc:
            raise _fail(where, str(exc))
    return out


def _ring(name: str, d: dict, where: str) -> FiniteRing:
    factors = _vector(d["invariant_factors"], where)
    group = FiniteAbelianGroup(factors)
    table = d["mult_table"]
    if not isinstance(table, list):
        raise _fail(where, "mult_table must be a nested array")
    mult = tuple(tuple(_vector(v, where) for v in row) for row in table)
    unit = _vector(d["unit"], where)
    return FiniteRing(group, mult, unit, name=name)


def _bimodule(name: str, d: dict, where: str,
              rings: dict[str, FiniteRing]) -> Bimodule:
    left = rings[d["left"]] if d["left"] in rings else None
    right = rings[d["right"]] if d["right"] in rings else None
    if left is None or right is None:
        missing = d["left"] if left is None else d["right"]
        raise _fail(where, f"unknown ring {missing!r}")
    carrier = FiniteAbelianGroup(_vector(d["carrier"], where))
    la = tuple(_int_matrix(m, where) for m in d["left_action"])
    ra = tuple(_int_matrix(m, where) for m in d["right_action"])
    return Bimodule(left, right, carrier, la, ra, name=name)


def _algebra(name: str, d: dict, where: str) -> MultiMatrixAlgebra:
    return MultiMatrixAlgebra(_vector(d["block_sizes"], where), name=name)


def _state(name: str, d: dict, where: str,
           algebras: dict[str, MultiMatrixAlgebra]) -> State:
    A = algebras.get(d["algebra"])
    if A is None:
        raise _fail(where, f"unknown algebra {d['algebra']!r}")
    blocks = d["density"]
    if not isinstance(blocks, list) or len(blocks) != len(A.block_sizes):
        raise _fail(where, "density needs one block per algebra block")
    rho = np.zeros((A.dim, A.dim), dtype=np.complex128)
    off = 0
    for b, n in enumerate(A.block_sizes):
        blk = _complex_matrix(blocks[b], where)
        if blk.shape != (n, n):
            raise _fail(where, f"density block {b} must be {n}x{n}")
        rho[off:off + n, off:off + n] = blk
        off += n
    return State(A, rho)


def _correspondence(name: str, d: dict, where: str,
                    algebras: dict[str, MultiMatrixAlgebra]) -> Correspondence:
    A = algebras.get(d["left"])
    B = algebras.get(d["right"])
    if A is None or B is None:
        missing = d["left"] if A is None else d["right"]
        raise _fail(where, f"unknown algebra {missing!r}")
    if "dim" in d or "table" not in d:
        dim = d["dim"]
        if not _is_int(dim) or dim < 0:
            raise _fail(where, "dim must be a nonnegative integer")
    if "table" in d:
        H = block_correspondence(A, B, _int_matrix(d["table"], where).tolist(), name=name)
        if d.get("dim", H.dim) != H.dim:
            raise _fail(where, f"dim {d['dim']} is not the table's dimension {H.dim}")
        return H
    pl = d["pi_l"]
    pr = d["pi_r"]
    if not isinstance(pl, list) or not isinstance(pr, list):
        raise _fail(where, "pi_l and pi_r must be lists of matrices")
    pi_l = [_complex_matrix(m, where) for m in pl]
    pi_r = [_complex_matrix(m, where) for m in pr]
    return Correspondence(A, B, dim, pi_l, pi_r, name=name)


def _check_count(v) -> str | None:
    return None if _is_int(v) and v >= 1 else "must be an integer >= 1"


def _check_seed(v) -> str | None:
    return None if _is_int(v) and v >= 0 else "must be an integer >= 0"


def _check_flag(v) -> str | None:
    return None if isinstance(v, bool) else "must be true or false"


# task kind -> field -> (required, check); a string check names the
# section the field must reference, a callable returns why a value is bad
TASK_FIELDS = {
    "check-ring": {"ring": (True, "rings")},
    "tensor": {"left": (True, "bimodules"), "right": (True, "bimodules")},
    "morita-ring": {"bimodule": (True, "bimodules"),
                    "check_end_ring": (False, _check_flag)},
    "coherence-rings": {"count": (False, _check_count),
                        "seed": (False, _check_seed)},
    "standard-form": {"algebra": (True, "algebras"),
                      "state": (False, "states")},
    "fusion": {"left": (True, "correspondences"),
               "right": (True, "correspondences"),
               "state": (False, "states"),
               "samples": (False, _check_count)},
    "morita-wstar": {"correspondence": (True, "correspondences"),
                     "state_left": (False, "states"),
                     "state_right": (False, "states")},
    "coherence-wstar": {"count": (False, _check_count),
                        "seed": (False, _check_seed)},
}


def _load_tasks(doc: dict, spec: SpecFile) -> tuple[dict, ...]:
    raw = doc.get("tasks", [])
    if not isinstance(raw, list):
        raise _fail("tasks", "must be a list")
    tasks = []
    for idx, t in enumerate(raw):
        where = f"task {idx}"
        if not isinstance(t, dict) or "task" not in t:
            raise _fail(where, "each task needs a 'task' kind")
        kind = t["task"]
        if not isinstance(kind, str) or kind not in TASK_FIELDS:
            raise _fail(where, f"unknown task kind {kind!r}")
        for key, (required, check) in TASK_FIELDS[kind].items():
            if key not in t:
                if required:
                    raise _fail(where, f"{kind} requires field {key!r}")
                continue
            value = t[key]
            if isinstance(check, str):
                if not isinstance(value, str) \
                        or value not in getattr(spec, check):
                    raise _fail(where,
                                f"{key} = {value!r} does not name a known "
                                f"entry of {check!r}")
            elif (why := check(value)) is not None:
                raise _fail(where, f"{key} = {value!r} {why}")
        tasks.append(dict(t))
    return tuple(tasks)


def load_spec_dict(doc) -> SpecFile:
    """Validate a parsed JSON document into live objects."""
    if not isinstance(doc, dict):
        raise SpecError("top level must be a JSON object")
    unknown = set(doc) - {"rings", "bimodules", "algebras", "states",
                          "correspondences", "tasks"}
    if unknown:
        raise SpecError(f"unknown top-level keys: {sorted(unknown)}")
    rings = _load_section(doc, "rings", "ring", _ring)
    bimodules = _load_section(
        doc, "bimodules", "bimodule",
        lambda n, d, w: _bimodule(n, d, w, rings))
    algebras = _load_section(doc, "algebras", "algebra", _algebra)
    states = _load_section(
        doc, "states", "state", lambda n, d, w: _state(n, d, w, algebras))
    corrs = _load_section(
        doc, "correspondences", "correspondence",
        lambda n, d, w: _correspondence(n, d, w, algebras))
    spec = SpecFile(rings, bimodules, algebras, states, corrs)
    return SpecFile(rings, bimodules, algebras, states, corrs,
                    _load_tasks(doc, spec))


def load_spec_file(path: str) -> SpecFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path} is not valid JSON: {exc}")
    return load_spec_dict(doc)


# ------------------------------------------------------------ serialize

def _encode_ring(R: FiniteRing) -> dict:
    return {
        "invariant_factors": list(R.additive.invariant_factors),
        "mult_table": [[list(v) for v in row] for row in R.mult],
        "unit": list(R.unit),
    }


def _lookup(names: dict, obj, where: str, kind: str) -> str:
    try:
        return names[obj]
    except KeyError:
        raise _fail(where, f"references a {kind} missing from the file")


def _encode_bimodule(name: str, M: Bimodule, ring_names: dict) -> dict:
    where = f"bimodule {name!r}"
    return {
        "left": _lookup(ring_names, M.left_ring, where, "ring"),
        "right": _lookup(ring_names, M.right_ring, where, "ring"),
        "carrier": list(M.carrier.invariant_factors),
        "left_action": M.left_action.tolist(),
        "right_action": M.right_action.tolist(),
    }


def _encode_state(name: str, s: State, algebra_names: dict) -> dict:
    blocks = []
    off = 0
    for n in s.algebra.block_sizes:
        blocks.append(encode_complex_matrix(s.density[off:off + n, off:off + n]))
        off += n
    return {"algebra": _lookup(algebra_names, s.algebra,
                               f"state {name!r}", "algebra"),
            "density": blocks}


def _encode_correspondence(name: str, H: Correspondence,
                           algebra_names: dict) -> dict:
    where = f"correspondence {name!r}"
    doc = {
        "left": _lookup(algebra_names, H.left_algebra, where, "algebra"),
        "right": _lookup(algebra_names, H.right_algebra, where, "algebra"),
    }
    if H.frame is None:
        doc["table"] = [list(row) for row in H.table]
        return doc
    doc.update(dim=H.dim, pi_l=[encode_complex_matrix(U) for U in H.pi_l_units],
               pi_r=[encode_complex_matrix(U) for U in H.pi_r_units])
    return doc


def serialize_spec(spec: SpecFile) -> dict:
    """Inverse of load_spec_dict up to structural identity.

    Bimodules, states and correspondences are written against the names
    their rings/algebras carry in the file, so those referenced objects
    must be present in the corresponding sections.
    """
    ring_names = {R: n for n, R in spec.rings.items()}
    algebra_names = {A: n for n, A in spec.algebras.items()}
    doc: dict[str, Any] = {}
    if spec.rings:
        doc["rings"] = {n: _encode_ring(R) for n, R in spec.rings.items()}
    if spec.bimodules:
        doc["bimodules"] = {n: _encode_bimodule(n, M, ring_names)
                            for n, M in spec.bimodules.items()}
    if spec.algebras:
        doc["algebras"] = {n: {"block_sizes": list(A.block_sizes)}
                           for n, A in spec.algebras.items()}
    if spec.states:
        doc["states"] = {n: _encode_state(n, s, algebra_names)
                         for n, s in spec.states.items()}
    if spec.correspondences:
        doc["correspondences"] = {n: _encode_correspondence(n, H, algebra_names)
                                  for n, H in spec.correspondences.items()}
    if spec.tasks:
        doc["tasks"] = [dict(t) for t in spec.tasks]
    return doc
