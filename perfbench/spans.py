"""Spans and counters wrapped around the library's public functions from outside.

The library itself is not instrumented.  While a :class:`Tracer` is active it
replaces each traced function, in every module namespace that holds it, with
a wrapper that opens a span; numpy's decompositions and ``vdot`` get call
counters instead.  Self time of a span is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# layer name -> {public function name: metric stem}
SPANS = {
    "serialization": {"load_family": "read", "document_to_family": "document_to_family",
                      "family_to_document": "family_to_document", "canonical_json": "canonical_json",
                      "save_family": "write"},
    "family": {"require_valid": "require_valid"},
    "analysis": {"frame_operator": "frame_operator", "optimal_bounds": "optimal_bounds",
                 "canonical_dual": "canonical_dual"},
    "linalg": {"spectral_summary": "spectral_summary", "inverse": "inverse", "operator_norm": "operator_norm"},
    "pairs": {"BesselPair": "bessel_pair", "pair_frame_operator": "pair_frame_operator",
              "pair_bounded_below": "pair_bounded_below", "pair_sum_positivity": "pair_sum_positivity",
              "multiplier": "multiplier", "multiplier_frame_criterion": "multiplier_frame_criterion"},
    "perturbation": {"perturb_check": "perturb_check"},
    "resolution": {"canonical_resolutions": "canonical_resolutions", "is_resolution": "is_resolution",
                   "dual_resolution_bounds": "dual_resolution_bounds"},
}

# count name -> the numpy functions it counts, as (submodule, name)
NUMPY_COUNTS = {
    "linalg.np_svd_calls": (("linalg", "svd"),),
    "linalg.np_eig_calls": (("linalg", "eigh"), ("linalg", "eigvalsh")),
    "linalg.np_inv_calls": (("linalg", "inv"),),
    "linalg.np_norm_calls": (("linalg", "norm"),),
    "linalg.np_vdot_calls": (("", "vdot"),),
}

SPAN_METRICS = [f"{layer}.{stem}_s" for layer, funcs in SPANS.items() for stem in funcs.values()]
SPAN_METRICS.insert(1, "serialization.json_loads_s")
COUNT_METRICS = list(NUMPY_COUNTS)


class Tracer:
    """Accumulates span self times and numpy call counts while active."""

    def __init__(self, extra_namespaces=()):
        self.extra_namespaces = tuple(extra_namespaces)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self._stack = []  # per open span: time covered by its children

    def reset(self) -> None:
        self.self_time.clear()
        self.counts.clear()

    def span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                children = self._stack.pop()
                self.self_time[name] += duration - children
                if self._stack:
                    self._stack[-1] += duration
        return wrapper

    def counter(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def active(self):
        """Install every wrapper; restore the originals on exit."""
        namespaces = [m for n, m in sorted(sys.modules.items()) if n == "gfusion" or n.startswith("gfusion.")]
        namespaces += list(self.extra_namespaces)
        saved = []

        def patch(owner, attr, wrapper):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

        for layer, funcs in SPANS.items():
            defining = sys.modules[f"gfusion.{layer}"]
            for func, stem in funcs.items():
                original = getattr(defining, func)
                wrapper = self.span(f"{layer}.{stem}_s", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            patch(ns, attr, wrapper)
        patch(json, "loads", self.span("serialization.json_loads_s", json.loads))
        for name, targets in NUMPY_COUNTS.items():
            for sub, func in targets:
                owner = getattr(np, sub) if sub else np
                patch(owner, func, self.counter(name, getattr(owner, func)))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def snapshot(self) -> dict:
        out = {name: self.self_time.get(name, 0.0) for name in SPAN_METRICS}
        out.update({name: self.counts.get(name, 0) for name in COUNT_METRICS})
        return out
