"""Outside-in layer tracing: spans around the public functions of golay486.

``Tracer`` replaces each traced function by a wrapper in every golay486
module namespace that binds it (``cli`` and ``constructions`` import graph
functions by name, so patching ``graph`` alone would miss their calls).
Spans are kept in memory as ``[name, start, end, parent]`` and reduced to
metrics when the run ends.  Hot helpers such as ``gf3.dot`` or
``permaction.compose`` (tens of thousands of calls per verify) are not
traced, because the wrapper cost would distort the timings.
"""

from __future__ import annotations

import functools
import sys
import time

MODULES = ("gf3", "codes", "graph", "permaction", "constructions", "cli")

TRACED = {
    "gf3": (
        "subspace_weight_counts", "hyperplane_functionals", "intermediate_hyperplanes",
    ),
    "codes": ("syndrome_table", "coset_graph", "weight_distribution", "classify_cosets"),
    "graph": (
        "are_isomorphic", "verify_bijection", "is_distance_regular",
        "distance_matrix", "srg_parameters", "antipodal_fold", "bipartite_halves",
        "graph6_encode", "graph6_decode",
    ),
    "permaction": (
        "parse_generator_file", "group_order", "orbitals", "scan_orbital_unions",
        "orbital_union_graph", "collapsed_matrix",
    ),
    "constructions": (
        "classify_types", "orbital_model", "build_sigma_coordinate", "build_std_ag",
        "build_lambda_coordinate", "bundled_action", "compute_coset_half",
        "blocks_report", "experiment_flat_incidence",
    ),
    "cli": ("run_verification",),
}

# Work counters read from the arguments of a traced call.
COUNTERS = {
    "gf3.subspace_weight_counts": ("gf3.vectors_tallied", lambda basis, *a, **k: 3 ** len(basis)),
    "graph.is_distance_regular": ("graph.drg_vertices", lambda g, *a, **k: g.n),
}


def _module(name: str):
    return sys.modules[f"golay486.{name}"]


class Tracer:
    """Install with ``with Tracer() as tracer:``; read ``tracer.metrics()``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        # The @cache / lru_cache builders, found before any wrapping.
        self._caches = {
            mod: [
                fn
                for fn in vars(_module(mod)).values()
                if hasattr(fn, "cache_info")
                and getattr(fn, "__module__", None) == f"golay486.{mod}"
            ]
            for mod in MODULES
        }

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                counts[counter[0]] = counts.get(counter[0], 0) + counter[1](*args, **kwargs)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def __enter__(self):
        namespaces = [_module(m) for m in MODULES]
        for mod, names in TRACED.items():
            for fn_name in names:
                original = getattr(_module(mod), fn_name)
                wrapper = self._wrap(f"{mod}.{fn_name}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._patched.append((ns, attr, original))
                            setattr(ns, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def metrics(self) -> dict[str, float]:
        """Inclusive seconds, self seconds and calls per traced function,
        the work counters, and cache hits and misses per module."""
        out: dict[str, float] = {}
        for mod, names in TRACED.items():
            for fn_name in names:
                for kind in ("s", "self_s", "calls"):
                    out[f"{mod}.{fn_name}.{kind}"] = 0
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _), children in zip(self.spans, child_time):
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - children
            out[f"{name}.calls"] += 1
        for counter, _ in COUNTERS.values():
            out[counter] = self.counts.get(counter, 0)
        for mod, fns in self._caches.items():
            infos = [fn.cache_info() for fn in fns]
            out[f"{mod}.cache_hits"] = sum(i.hits for i in infos)
            out[f"{mod}.cache_misses"] = sum(i.misses for i in infos)
        return out
