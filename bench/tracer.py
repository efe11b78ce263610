"""Traced replay of one ``stringy-det`` invocation.

    python3 bench/tracer.py <stringy-det arguments...>

Wraps the public entry points of every ``stringydet`` layer, calls
``stringydet.cli.main(argv)`` in this process with its standard output
captured, and prints one JSON object: the exit code, the captured output, the
in-process time of ``main`` and the per-layer aggregates of the spans.

A span records name, start, end and parent.  Spans are kept in memory and
aggregated when ``main`` returns.  A span's self time is its duration minus
the time its child spans cover.  Work the tracer does after a call (the
product statistics) is timed and charged to the ``trace`` pseudo-layer, so the
self times of all layers, ``trace`` included, add up to the time of ``main``.

Each name is wrapped at every place it is bound: ``from ... import`` copies
functions into ``stringy``, ``oracle``, ``cli`` and the package namespace.
Operator aliases (``__rmul__`` for ``__mul__``, ``__radd__`` for ``__add__``)
are wrapped as well.  ``cache_info()`` is read from the original
``lru_cache`` objects.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import sys
import time

MODULES = ("exactalg", "groth", "stringy", "oracle", "cli")

# Inclusive-time routes of the stringy layer: span name -> route.
ROUTES = {
    "stringy.stringy_e_affine_from_orbits": "orbit_sum",
    "stringy.stringy_e_projective_from_orbits": "orbit_sum",
    "stringy.grassmannian_subset_sum": "orbit_sum",
    "stringy.zeta_closed_expansion": "zeta_closed",
    "stringy.grassmannian_recursive": "recursion",
    "stringy.rank_one_resolution_check": "resolution",
    "stringy.rank_one_resolution_data": "resolution",
    "stringy.stringy_e_from_resolution": "resolution",
    "stringy.truncated_orbit_sum": "truncated",
    "stringy.orbit_tail_degree_bound": "tail_bound",
    "stringy.stringy_e_affine": "closed",
    "stringy.stringy_e_projective": "closed",
    "stringy.hodge_table": "hodge_euler",
    "stringy.stringy_euler": "hodge_euler",
}

# Arithmetic of the kernel; the four the benchmark reports get short names.
METHODS = {
    "LaurentPoly": {
        "__mul__": "mul", "__rmul__": "mul", "__add__": "add", "__radd__": "add",
        "divide_exact": "divide_exact", "__sub__": "sub", "__rsub__": "sub",
        "__neg__": "neg", "__pow__": "pow", "shift": "shift", "scale": "scale",
        "evaluate": "evaluate", "__call__": "evaluate", "__eq__": "eq",
    },
    "RationalFn": {
        "__init__": "rational", "__add__": "rational_add", "__radd__": "rational_add",
        "__sub__": "rational_sub", "__rsub__": "rational_sub", "__neg__": "rational_neg",
        "__mul__": "rational_mul", "__rmul__": "rational_mul",
        "__truediv__": "rational_div", "__rtruediv__": "rational_div",
        "__eq__": "rational_eq", "to_poly": "to_poly",
    },
}

# Runs once per enumerated matrix: its time is the census's own work.
UNWRAPPED = {"oracle.rank_of_matrix"}


class Tracer:
    def __init__(self):
        self.names = []        # span -> name
        self.parents = []      # span -> parent span or -1
        self.starts = []
        self.ends = []
        self.bookkeeping = []  # span -> tracer time spent after the call
        self.outer = []        # span -> True if no enclosing span has its route
        self.span_route = []   # span -> innermost enclosing route
        self.stack = []
        self.route_depth = {route: 0 for route in ROUTES.values()}
        self.mul = {"term_pairs": 0, "max_degree": 0, "max_coeff_bits": 0}
        self.verify_checks = 0

    def _enter(self, name: str) -> int:
        idx = len(self.names)
        parent = self.stack[-1] if self.stack else -1
        route = ROUTES.get(name)
        if route is None:
            self.outer.append(False)
            self.span_route.append(self.span_route[parent] if parent >= 0 else None)
        else:
            self.outer.append(self.route_depth[route] == 0)
            self.route_depth[route] += 1
            self.span_route.append(route)
        self.names.append(name)
        self.parents.append(parent)
        self.ends.append(0.0)
        self.bookkeeping.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _leave(self, idx: int) -> float:
        end = time.perf_counter()
        self.ends[idx] = end
        self.stack.pop()
        route = ROUTES.get(self.names[idx])
        if route is not None:
            self.route_depth[route] -= 1
        return end

    def wrap(self, name: str, fn, after=None):
        enter, leave, bookkeeping = self._enter, self._leave, self.bookkeeping

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = leave(idx)
            if after is not None:
                after(args, result)
                bookkeeping[idx] = time.perf_counter() - end
            return result

        return traced

    def product_stats(self, args, result) -> None:
        a, b = args
        b_terms = len(b.terms) if hasattr(b, "terms") else 1
        self.mul["term_pairs"] += len(a.terms) * b_terms
        terms = result.terms
        if terms:
            self.mul["max_degree"] = max(self.mul["max_degree"], max(terms))
            bits = max(max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                       for c in terms.values())
            self.mul["max_coeff_bits"] = max(self.mul["max_coeff_bits"], bits)

    def count_checks(self, args, report) -> None:
        self.verify_checks += len(report.checks)

    def aggregate(self, root: int) -> dict:
        n = len(self.names)
        child_time = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child_time[p] += self.ends[i] - self.starts[i] + self.bookkeeping[i]
        by_name, layers, routes = {}, {"trace": 0.0}, {}
        for i in range(n):
            name = self.names[i]
            own = self.ends[i] - self.starts[i] - child_time[i]
            entry = by_name.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += own
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + own
            layers["trace"] += self.bookkeeping[i]
            route = self.span_route[i]
            if route is not None:
                acc = routes.setdefault(route, [0.0, 0])
                if self.outer[i]:
                    acc[0] += self.ends[i] - self.starts[i]
                if name == "exactalg.mul":
                    acc[1] += 1
        return {
            "main_s": self.ends[root] - self.starts[root],
            "layers": layers,
            "names": by_name,
            "routes": routes,
            "mul": self.mul,
            "verify_checks": self.verify_checks,
        }


def install(tracer: Tracer) -> dict:
    """Wrap every public entry point; return the original lru_cache objects."""
    package = importlib.import_module("stringydet")
    modules = {m: importlib.import_module(f"stringydet.{m}") for m in MODULES}
    namespaces = [package, *modules.values()]
    caches = {}
    for short, module in modules.items():
        for attr, obj in list(vars(module).items()):
            name = f"{short}.{attr}"
            is_cache = hasattr(obj, "cache_info")
            if (attr.startswith("_") or name in UNWRAPPED
                    or getattr(obj, "__module__", None) != module.__name__
                    or not (is_cache or inspect.isfunction(obj))
                    or inspect.isgeneratorfunction(getattr(obj, "__wrapped__", obj))):
                continue
            if is_cache:
                caches[name] = obj
            after = tracer.count_checks if name == "oracle.verify_classes" else None
            traced = tracer.wrap(name, obj, after)
            for ns in namespaces:
                for bound, value in list(vars(ns).items()):
                    if value is obj:
                        setattr(ns, bound, traced)
    exactalg = modules["exactalg"]
    for cls_name, methods in METHODS.items():
        cls = getattr(exactalg, cls_name)
        for method, short in methods.items():
            after = tracer.product_stats if short == "mul" else None
            setattr(cls, method, tracer.wrap(f"exactalg.{short}", vars(cls)[method], after))
    return caches


def main(argv) -> int:
    tracer = Tracer()
    caches = install(tracer)
    cli = importlib.import_module("stringydet.cli")
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli.main(argv)  # wrapped by install(): span 0 is the root
    result = tracer.aggregate(root=0)
    result["caches"] = {name: [obj.cache_info().hits, obj.cache_info().misses]
                        for name, obj in caches.items()}
    result["exit"] = code
    result["stdout"] = captured.getvalue()
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
