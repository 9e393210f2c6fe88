"""Spans around fluxline's public functions, recorded from outside the program.

`Tracer(fluxline)` replaces every public function of the package's modules,
in every module that holds it by name (so `field.min_distance` and
`abphase.min_distance` are both wrapped), with a wrapper that records a span:
operation index, span id, parent span id, name, start, end and self time.
Self time is the span's duration minus that of its child spans. Spans stay in
memory until `write_jsonl`. From the cli module only `main` is wrapped, so its
self time is all the command line's own work: argument handling, validation,
report formatting and file writing.

A few functions also record a work count computed from their argument sizes
(pairs of points and nodes, segment-triangle pairs, lag products, bytes
written, chunks). These are computed, not counted inside the program.
"""
import functools
import inspect
import itertools
import json
import math
import os
import threading
import time
from pathlib import Path

import numpy as np

MIN_DISTANCE = "curves.min_distance"

# (layer function, work count or None), in the order the metrics are listed
REPORTED = (
    ("curves.min_distance", "pairs"),
    ("curves.load_curve", None),
    ("curves.deform_homotopy", None),
    ("quadrature.periodic_midpoints", None),
    ("topology.gauss_linking", "pairs"),
    ("topology.span_surface", None),
    ("topology.crossing_linking", "seg_tri_pairs"),
    ("topology.grad_solid_angle_many", None),
    ("field.potential_at", "pairs"),
    ("field.circulation", None),
    ("field.vector_potential", None),
    ("abphase.invariance_suite", None),
    ("interference.pattern", None),
    ("interference.ab_shift_measured", "lag_products"),
    ("interference.write_pattern", "bytes"),
    ("cli.main", None),
    ("parallel.ordered_chunk_sum", "chunks"),
    ("parallel.ordered_chunk_map", "chunks"),
    ("parallel.ordered_chunk_min", "chunks"),
)

WORK_UNITS = {"pairs": "count", "seg_tri_pairs": "count", "lag_products": "count",
              "bytes": "B", "chunks": "count"}


def metric_units():
    """{metric name: (unit, better)} of every per-layer metric, in order."""
    out = {}
    for name, work in REPORTED:
        out[f"{name}.calls"] = ("count", "lower")
        out[f"{name}.self_s"] = ("s", "lower")
        if work:
            out[f"{name}.{work}"] = (WORK_UNITS[work], "lower")
            out[f"{name}.{work}_per_s"] = ("1/s", "higher")
    out["curves.deform_homotopy.accept_ratio"] = ("ratio", "higher")
    # the traced run's own rate; against the untraced ops_per_s it gives the
    # tracing overhead
    out["traced.ops_per_s"] = ("1/s", "higher")
    return out


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _work_functions(package):
    """{span name: f(args, kwargs, result, frame) -> {count: value}}."""
    fringe_spacing = package.interference.fringe_spacing
    chunk_rows = package.parallel.CHUNK_ROWS

    def curve_pairs(a, b):
        return lambda args, kw, res, fr: {
            "pairs": _arg(args, kw, 0, a).n * _arg(args, kw, 1, b).n}

    def lag_products(args, kw, res, fr):
        off = _arg(args, kw, 0, "off")
        n = off.x.size
        lag = int(round(0.55 * fringe_spacing(off.config) / float(off.x[1] - off.x[0])))
        # each lag k takes a dot product of length n - |k|
        return {"lag_products": (2 * lag + 1) * n - lag * (lag + 1)}

    def written(args, kw, res, fr):
        csv = Path(_arg(args, kw, 1, "csv_path"))
        return {"bytes": os.path.getsize(csv) + os.path.getsize(csv.with_suffix(".json"))}

    def chunks(args, kw, res, fr):
        rows = _arg(args, kw, 1, "n_rows")
        size = args[3] if len(args) > 3 else kw.get("chunk", chunk_rows)
        return {"chunks": math.ceil(rows / size)}

    def homotopy(args, kw, res, fr):
        return {"accepted": len(res) - 1, "candidates": fr[2]}

    out = {
        "curves.min_distance": curve_pairs("a", "b"),
        "topology.gauss_linking": curve_pairs("c", "k"),
        "field.potential_at": lambda args, kw, res, fr: {
            "pairs": np.atleast_2d(np.asarray(_arg(args, kw, 1, "xs"))).shape[0]
            * _arg(args, kw, 0, "f").curve.n},
        "topology.crossing_linking": lambda args, kw, res, fr: {
            "seg_tri_pairs": _arg(args, kw, 0, "path").n
            * _arg(args, kw, 1, "surf").triangles.shape[0]},
        "interference.ab_shift_measured": lag_products,
        "interference.write_pattern": written,
        "curves.deform_homotopy": homotopy,
    }
    for kind in ("sum", "map", "min"):
        out[f"parallel.ordered_chunk_{kind}"] = chunks
    return out


class Tracer:
    """Wraps a package's public functions and keeps their spans."""

    def __init__(self, package):
        self.op = -1
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        work = _work_functions(package)
        prefix = package.__name__ + "."
        modules = [m for m in vars(package).values()
                   if inspect.ismodule(m) and m.__name__.startswith(prefix)]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__[len(prefix):]
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")
                        and (layer != "cli" or name == "main")):
                    span = f"{layer}.{name}"
                    wrappers[fn] = self._wrap(fn, span, work.get(span))
        for mod in modules + [package]:
            for name, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    setattr(mod, name, wrappers[val])

    def reset(self):
        self.spans = []

    def _wrap(self, fn, span, work):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            parent = stack[-1] if stack else None
            # frame: id, child seconds, min_distance children
            frame = [next(self._ids), 0.0, 0]
            stack.append(frame)
            done = False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent[1] += t1 - t0
                    if span == MIN_DISTANCE:
                        parent[2] += 1
                counts = work(args, kwargs, result, frame) if work and done else None
                self.spans.append((self.op, frame[0], parent[0] if parent else None,
                                     span, t0, t1, t1 - t0 - frame[1], counts))

        return wrapper

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for op, sid, parent, name, t0, t1, self_s, counts in self.spans:
                rec = {"op": op, "id": sid, "parent": parent, "name": name,
                       "start": t0, "end": t1, "self_s": self_s}
                if counts:
                    rec.update(counts)
                fh.write(json.dumps(rec) + "\n")

    def metrics(self):
        """{metric name: value} over all recorded spans."""
        agg = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "work": 0}
               for name, _ in REPORTED}
        accepted = candidates = 0
        for _, _, _, name, t0, t1, self_s, counts in self.spans:
            a = agg.get(name)
            if a is None:
                continue
            a["calls"] += 1
            a["self_s"] += self_s
            a["total_s"] += t1 - t0
            if counts:
                if name == "curves.deform_homotopy":
                    accepted += counts["accepted"]
                    candidates += counts["candidates"]
                else:
                    a["work"] += next(iter(counts.values()))
        out = {}
        for name, work in REPORTED:
            a = agg[name]
            out[f"{name}.calls"] = a["calls"]
            out[f"{name}.self_s"] = a["self_s"]
            if work:
                out[f"{name}.{work}"] = a["work"]
                out[f"{name}.{work}_per_s"] = a["work"] / a["total_s"] if a["total_s"] else 0.0
        out["curves.deform_homotopy.accept_ratio"] = accepted / candidates if candidates else 0.0
        return out
