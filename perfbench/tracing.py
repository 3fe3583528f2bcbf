"""Span tracing of moritalab's layer entry points, installed from outside.

The traced run wraps the public functions listed in TARGETS and rebinds
each wrapper in every loaded ``moritalab.*`` namespace that holds the
original, so calls between modules are seen as well.  Methods and
``__post_init__`` validators are replaced on their class.  Spans (name,
start, end, parent) are kept in memory; per-function and per-layer totals
and self times are derived from them after the pass.  The untraced run
never imports this module.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

LAYERS = ("exact", "rings", "numkernel", "wstar", "bicategory", "specfile",
          "cli")


def _kind(args) -> str:
    """Bicategory instance flavour of a coherence check's first argument."""
    return "rings" if type(args[0]).__name__ == "RingsBicategory" else "wstar"


def _tensor_sizes(args, result):
    return result.ambient_size, result.relation_matrix.cols


def _fusion_sizes(args, result):
    return result.left_dim * result.right_dim, result.corr.dim


def _null_space_width(args, result):
    return (args[1],)


# (layer, module, attribute, metric name, size observer)
TARGETS = (
    ("exact", "moritalab.exact", "smith_normal_form", None, None),
    ("exact", "moritalab.exact", "cokernel", None, None),
    ("exact", "moritalab.exact", "solve_congruences", None, None),
    ("exact", "moritalab.exact", "solve_integer", None, None),
    ("exact", "moritalab.exact", "IntegerMatrix.apply", None, None),
    ("rings", "moritalab.rings.tensor", "tensor_product", None, _tensor_sizes),
    ("rings", "moritalab.rings.tensor", "tensor_of_maps", None, None),
    ("rings", "moritalab.rings.tensor", "tensor_associator", None, None),
    ("rings", "moritalab.rings.tensor", "factor_through_tensor", None, None),
    ("rings", "moritalab.rings.hom", "hom_group", None, None),
    ("rings", "moritalab.rings.hom", "HomGroup.coordinates", None, None),
    ("rings", "moritalab.rings.hom", "endomorphism_ring", None, None),
    ("rings", "moritalab.rings.morita", "morita_context", None, None),
    ("rings", "moritalab.rings.morita", "certify_invertible_bimodule", None,
     None),
    ("rings", "moritalab.rings.isosearch", "ring_iso_search", None, None),
    ("rings", "moritalab.rings.bimodules", "regular_bimodule", None, None),
    ("rings", "moritalab.rings.bimodules", "Bimodule.__post_init__",
     "Bimodule.validate", None),
    ("numkernel", "moritalab.numkernel", "commutant", None, None),
    ("numkernel", "moritalab.numkernel", "null_space", None, None),
    ("numkernel", "moritalab.numkernel", "gram_quotient", None, None),
    ("numkernel", "moritalab.numkernel", "joint_null_space", None,
     _null_space_width),
    ("numkernel", "moritalab.numkernel", "operator_norm", None, None),
    ("wstar", "moritalab.wstar.standard", "gns_standard_form", None, None),
    ("wstar", "moritalab.wstar.standard", "standard_form_residuals", None,
     None),
    ("wstar", "moritalab.wstar.fusion", "connes_fusion", None, _fusion_sizes),
    ("wstar", "moritalab.wstar.correspondences", "intertwiner_basis", None,
     None),
    ("wstar", "moritalab.wstar.correspondences", "unitary_intertwiner", None,
     None),
    ("wstar", "moritalab.wstar.morita", "certify_morita_equivalent", None,
     None),
    ("wstar", "moritalab.wstar.correspondences",
     "Correspondence.__post_init__", "Correspondence.validate", None),
    ("bicategory", "moritalab.bicategory.core", "verify_pentagon", None, None),
    ("bicategory", "moritalab.bicategory.core", "verify_triangle", None, None),
    ("bicategory", "moritalab.bicategory.core",
     "verify_associator_naturality", None, None),
    ("bicategory", "moritalab.bicategory.core", "verify_unitor_naturality",
     None, None),
    ("specfile", "moritalab.specfile", "load_spec_dict", None, None),
    ("specfile", "moritalab.specfile", "serialize_spec", None, None),
    ("cli", "moritalab.cli", "run_spec", None, None),
)

# coherence checks are reported per bicategory instance
SPLIT_BY_KIND = {"verify_pentagon": ("rings", "wstar"),
                 "verify_triangle": ("rings", "wstar"),
                 "verify_associator_naturality": ("wstar",),
                 "verify_unitor_naturality": ("wstar",)}


def function_names() -> list[tuple[str, str]]:
    """(layer, metric stem) for every traced function, in report order."""
    out = []
    for layer, _, attr, metric, _ in TARGETS:
        stem = metric or attr
        for kind in SPLIT_BY_KIND.get(stem, (None,)):
            out.append((layer, f"{stem}.{kind}" if kind else stem))
    return out


class Tracer:
    """Installs span-recording wrappers; ``uninstall`` puts originals back."""

    def __init__(self):
        self.spans: list = []          # (name, start, end, parent index)
        self.sizes: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name, fn, observe):
        spans, stack, sizes = self.spans, self._stack, self.sizes
        split = name.rsplit(".", 1)[-1] in SPLIT_BY_KIND
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = f"{name}.{_kind(args)}" if split else name
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (span, start, end, stack[-1] if stack else -1)
            if observe is not None:
                sizes[span].append(observe(args, result))
            return result
        return wrapper

    def install(self) -> None:
        loaded = [m for n, m in list(sys.modules.items())
                  if n == "moritalab" or n.startswith("moritalab.")]
        for layer, modname, attr, metric, observe in TARGETS:
            module = importlib.import_module(modname)
            name = f"{layer}.{metric or attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, orig, observe))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(name, orig, observe)
            for ns in loaded:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        setattr(ns, key, wrapper)
                        self._undo.append((ns, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def summary(self) -> dict:
        """Per-function and per-layer calls, total and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        open_names: dict[int, set] = {}
        for idx, (name, start, end, parent) in enumerate(self.spans):
            ancestors = open_names.get(parent, frozenset())
            open_names[idx] = ancestors | {name}
            calls[name] += 1
            if name not in ancestors:          # outermost call only
                total[name] += end - start
            self_s[name] += (end - start) - child[idx]
        out = {}
        for layer, stem in function_names():
            name = f"{layer}.{stem}"
            out[name] = {"calls": calls[name], "total_s": total[name],
                         "self_s": self_s[name]}
        layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for name, row in out.items():
            layer = name.split(".", 1)[0]
            layers[layer]["calls"] += row["calls"]
            layers[layer]["self_s"] += row["self_s"]
        return {"functions": out, "layers": layers}

    def size_counters(self) -> dict[str, float]:
        """Exact size counts read from returned objects and input shapes.

        The per-ambient ratio is taken at the call with the largest ambient.
        """
        out = {}
        for name, part in (("rings.tensor_product", "relcols"),
                           ("wstar.connes_fusion", "rank")):
            ambient, count = max(self.sizes.get(name, [(0, 0)]))
            out[f"{name}.ambient_max"] = ambient
            out[f"{name}.{part}_per_ambient"] = count / ambient if ambient \
                else 0.0
        (width,) = max(self.sizes.get("numkernel.joint_null_space", [(0,)]))
        out["numkernel.joint_null_space.width_max"] = width
        return out

    def dump_spans(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        return {"names": names,
                "spans": [[ids[n], round(s, 7), round(e, 7), p]
                          for n, s, e, p in self.spans]}
