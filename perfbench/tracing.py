"""Spans and work counts around the calls into each `latmink` layer.

`instrument` wraps, from outside the library, every public function and
method of the eight layer modules and rebinds each wrapped function in every
`latmink` module namespace that binds it (``from .geometry import dot``
binds `dot` again in `triangulation`, for instance). Classes are patched in
place, so every namespace that binds a class sees the wrapped methods.

A span opens at each layer boundary: a call whose caller is in another
layer, or the benchmark's own call into `cli.main`. Calls within one layer
are counted but open no span, so hot helpers stay cheap; their time is part
of the enclosing span of the same layer. A span records its name, its start
and end in nanoseconds and the index of its parent span. Spans are kept in
memory and written out by `Tracer.dump` after the run. A layer's self time
is the time of its spans minus the time of their child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

LAYERS = ("linalg", "lp", "geometry", "minkowski", "groups", "triangulation", "serialize", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.spans = array("q")  # flat (name id, start ns, end ns, parent span or -1)
        self.stack: list[list] = []  # open spans: [layer, span index, start ns, child ns]
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.counts: Counter = Counter()
        self.report_bytes = 0

    def name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        return len(self.names) - 1

    def wrap(self, layer: str, name: str, fn, hook=None):
        """A wrapper of fn that counts every call and opens a span at layer boundaries."""
        ident = self.name_id(name)
        calls = self.calls
        stack = self.stack
        spans = self.spans
        self_ns = self.self_ns
        counts = self.counts
        before = getattr(hook, "before", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[ident] += 1
            if before is not None:
                args = before(args)
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                index = len(spans) // 4
                parent = stack[-1][1] if stack else -1
                frame = [layer, index, 0, 0]
                spans.extend((ident, 0, 0, parent))
                stack.append(frame)
                frame[2] = start = perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter_ns()
                    stack.pop()
                    spans[4 * index + 1] = start
                    spans[4 * index + 2] = end
                    duration = end - start
                    self_ns[layer] += duration - frame[3]
                    if stack:
                        stack[-1][3] += duration
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def per_layer(self) -> dict[str, float]:
        """The per-layer metrics of the benchmark, from counts and self times."""
        c = self.counts
        linalg_calls = sum(n for name, n in zip(self.names, self.calls) if name.startswith("linalg."))

        def ratio(num, den):
            return num / den if den else 0.0

        out = {
            "linalg.calls": linalg_calls,
            "lp.maximize_calls": c["lp.maximize_calls"],
            "lp.infeasible_calls": c["lp.infeasible_calls"],
            "geometry.hull_input_points": c["geometry.hull_input_points"],
            "geometry.hull_vertices": c["geometry.hull_vertices"],
            "geometry.vertex_yield": ratio(c["geometry.hull_vertices"], c["geometry.hull_input_points"]),
            "geometry.facet_enumerations": c["geometry.facet_enumerations"],
            "geometry.box_candidates": c["geometry.box_candidates"],
            "geometry.lattice_points": c["geometry.lattice_points"],
            "geometry.box_yield": ratio(c["geometry.lattice_points"], c["geometry.box_candidates"]),
            "minkowski.sum_calls": c["minkowski.sum_calls"],
            "minkowski.sum_pairs": c["minkowski.sum_pairs"],
            "minkowski.sum_points": c["minkowski.sum_points"],
            "minkowski.sum_yield": ratio(c["minkowski.sum_points"], c["minkowski.sum_pairs"]),
            "groups.ball_calls": c["groups.ball_calls"],
            "groups.ball_elements": c["groups.ball_elements"],
            "groups.mul_calls": c["groups.mul_calls"],
            "triangulation.search_calls": c["triangulation.search_calls"],
            "triangulation.search_nodes": c["triangulation.search_nodes"],
            "triangulation.validate_calls": c["triangulation.validate_calls"],
            "triangulation.interior_lp_calls": c["triangulation.interior_lp_calls"],
            "triangulation.face_to_face_calls": c["triangulation.face_to_face_calls"],
            "cli.report_bytes": self.report_bytes,
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_ns[layer] / 1e9
        return out

    def dump(self, path) -> None:
        """Write the names, call counts and spans as one JSON document."""
        doc = {
            "names": self.names,
            "calls": self.calls,
            "span_fields": ["name", "start_ns", "end_ns", "parent"],
            "spans": self.spans.tolist(),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# --- counting hooks ------------------------------------------------------------


def _count(key):
    def hook(counts, args, kwargs, result):
        counts[key] += 1

    return hook


def _maximize(counts, args, kwargs, result):
    counts["lp.maximize_calls"] += 1
    if result is None:
        counts["lp.infeasible_calls"] += 1


class _HullInit:
    """Materializes the point iterable so that the input points can be counted."""

    @staticmethod
    def before(args):
        return (args[0], list(args[1])) + args[2:]

    def __call__(self, counts, args, kwargs, result):
        counts["geometry.hull_input_points"] += len({tuple(p) for p in args[1]})
        counts["geometry.hull_vertices"] += len(args[0].vertices)


def _integer_points(counts, args, kwargs, result):
    poly, n = args[0], args[1]
    box = 1
    if n > 0:
        for i in range(poly.dim):
            coords = [v[i] for v in poly.vertices]
            box *= n * (max(coords) - min(coords)) + 1
    counts["geometry.box_candidates"] += box
    counts["geometry.lattice_points"] += len(result)


def _minkowski_sum(counts, args, kwargs, result):
    counts["minkowski.sum_calls"] += 1
    counts["minkowski.sum_pairs"] += len(args[0]) * len(args[1])
    counts["minkowski.sum_points"] += len(result)


def _word_ball(counts, args, kwargs, result):
    counts["groups.ball_calls"] += 1
    counts["groups.ball_elements"] += len(result)


def _search(counts, args, kwargs, result):
    counts["triangulation.search_calls"] += 1
    counts["triangulation.search_nodes"] += result.nodes


HOOKS = {
    "lp.maximize": _maximize,
    "geometry.LatticePolytope.__init__": _HullInit(),
    "geometry.LatticePolytope.facets": _count("geometry.facet_enumerations"),
    "geometry.LatticePolytope.integer_points": _integer_points,
    "minkowski.minkowski_sum": _minkowski_sum,
    "groups.word_ball": _word_ball,
    "groups.GroupPresentation.mul": _count("groups.mul_calls"),
    "triangulation.search_primitive_triangulation": _search,
    "triangulation.validate_triangulation": _count("triangulation.validate_calls"),
    "triangulation.relative_interiors_intersect": _count("triangulation.interior_lp_calls"),
    "triangulation.simplices_face_to_face": _count("triangulation.face_to_face_calls"),
}


# --- instrumentation -------------------------------------------------------------


def _wrap_class(tracer: Tracer, layer: str, cls) -> None:
    for attr, obj in list(vars(cls).items()):
        if attr.startswith("_") and attr != "__init__":
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        hook = HOOKS.get(name)
        if isinstance(obj, functools.cached_property):
            new = functools.cached_property(tracer.wrap(layer, name, obj.func, hook))
            new.__set_name__(cls, attr)
        elif isinstance(obj, property):
            new = property(tracer.wrap(layer, name, obj.fget, hook), obj.fset, obj.fdel, obj.__doc__)
        elif isinstance(obj, staticmethod):
            new = staticmethod(tracer.wrap(layer, name, obj.__func__, hook))
        elif isinstance(obj, classmethod):
            new = classmethod(tracer.wrap(layer, name, obj.__func__, hook))
        elif inspect.isfunction(obj):
            new = tracer.wrap(layer, name, obj, hook)
        else:
            continue
        setattr(cls, attr, new)


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions and methods of every layer of `latmink`."""
    replaced = {}
    for layer in LAYERS:
        module = importlib.import_module(f"latmink.{layer}")
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                replaced[obj] = tracer.wrap(layer, f"{layer}.{attr}", obj, HOOKS.get(f"{layer}.{attr}"))
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                _wrap_class(tracer, layer, obj)
    missing = set(HOOKS) - set(tracer.names)
    if missing:
        # A renamed or removed function leaves its counts at zero; say which.
        print(f"warning: counted functions not found in latmink: {sorted(missing)}", file=sys.stderr)
    for name, module in list(sys.modules.items()):
        if name == "latmink" or name.startswith("latmink."):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(module, attr, replaced[obj])
