"""Outside-in tracer for the benchmark: spans and counts at projlab's layer boundaries.

The tracer records nothing inside the library.  `Tracer.install()` rebinds
every wrapped public function in each `projlab` module namespace that holds
it (and the wrapped methods on their classes); `Tracer.uninstall()` restores
the originals.  Only layer-boundary functions are wrapped, never inner-loop
helpers such as `dyadic.max_window_count`.

Spans are kept in memory as (name, start, end, parent span, item id) and
summarised at the end of the run.  Counts come only from the arguments and
return values of wrapped calls, so two traced runs of one seed give
identical counts.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _direction_net(args, kwargs, out):
    return {"candidates": round(1.0 / out.delta), "accepted": len(out)}


def _point_set(args, kwargs, out):
    return {"cells": len(args[0].indices)}


def _extract(args, kwargs, out):
    return {"cells_in": len(_arg(args, kwargs, 0, "p")), "cells_out": len(out)}


def _greedy_cover(args, kwargs, out):
    return {"cells_in": len(_arg(args, kwargs, 0, "x")), "cubes_out": out.cube_count()}


def _project_line(args, kwargs, out):
    return {"cells_in": len(_arg(args, kwargs, 0, "a")), "cells_out": len(out)}


def _incidence_count(args, kwargs, out):
    cfg = _arg(args, kwargs, 0, "cfg")
    return {"pairs": len(cfg.balls) * len(cfg.net), "incidences": out.total}


def _heavy_subset(args, kwargs, out):
    cfg = _arg(args, kwargs, 1, "cfg")
    return {"balls_in": len(cfg.balls), "balls_out": len(out)}


def _forward_fft(args, kwargs, out):
    return {"points": args[0].M ** 3}


def _inverse_fft(args, kwargs, out):
    return {"points": out.M ** 3}


def _decoupling_ratio(args, kwargs, out):
    return {"caps": out.n_caps}


#: span name -> (defining module, attribute path, count hook or None)
TARGETS = {
    "curve.direction_net": ("projlab.curve", "direction_net", _direction_net),
    "curve.frame": ("projlab.curve", "frame", None),
    "dyadic.spacing_scan": ("projlab.dyadic", "spacing_scan", None),
    "fractal.PointSet": ("projlab.fractal", "PointSet.__post_init__", _point_set),
    "fractal.frostman_constant": ("projlab.fractal", "frostman_constant", None),
    "fractal.extract_delta_s_set": ("projlab.fractal", "extract_delta_s_set", _extract),
    "fractal.validate_delta_s_set": ("projlab.fractal", "validate_delta_s_set", None),
    "fractal.full_grid": ("projlab.fractal", "full_grid", None),
    "fractal.product_set": ("projlab.fractal", "product_set", None),
    "fractal.save_csv": ("projlab.fractal", "save_csv", None),
    "fractal.load_csv": ("projlab.fractal", "load_csv", None),
    "covering.greedy_cover": ("projlab.covering", "greedy_cover", _greedy_cover),
    "covering.validate_covering": ("projlab.covering", "validate_covering", None),
    "covering.dyadic_content": ("projlab.covering", "dyadic_content", None),
    "covering.covering_to_json": ("projlab.covering", "covering_to_json", None),
    "covering.covering_from_json": ("projlab.covering", "covering_from_json", None),
    "projection.project_line": ("projlab.projection", "project_line", _project_line),
    "projection.box_dimension": ("projlab.projection", "box_dimension", None),
    "projection.box_counts": ("projlab.projection", "box_counts", None),
    "incidence.random_admissible_config": (
        "projlab.incidence", "random_admissible_config", None,
    ),
    "incidence.make_family": ("projlab.incidence", "make_family", None),
    "incidence.incidence_count": ("projlab.incidence", "incidence_count", _incidence_count),
    "incidence.heavy_subset": ("projlab.incidence", "heavy_subset", _heavy_subset),
    "incidence.verify_incidence_bound": ("projlab.incidence", "verify_incidence_bound", None),
    "fourier.build_geometry": ("projlab.fourier", "build_geometry", None),
    "fourier.tspacing_subsample": ("projlab.fourier", "tspacing_subsample", None),
    "fourier.random_cap_function": ("projlab.fourier", "random_cap_function", None),
    "fourier.decoupling_ratio": ("projlab.fourier", "decoupling_ratio", _decoupling_ratio),
    "fourier.cap_restrict": ("projlab.fourier", "cap_restrict", None),
    "fourier.l4_norm": ("projlab.fourier", "l4_norm", None),
    "fourier.wave_envelope_rhs": ("projlab.fourier", "wave_envelope_rhs", None),
    "fourier.GridFunction.coeffs": ("projlab.fourier", "GridFunction.coeffs", _forward_fft),
    "fourier.GridFunction.from_coeffs": (
        "projlab.fourier", "GridFunction.from_coeffs", _inverse_fft,
    ),
}

LAYERS = tuple(dict.fromkeys(name.split(".")[0] for name in TARGETS))

#: ratio name -> (numerator count, denominator count); the denominator is its base
RATIOS = {
    "curve.direction_net.accept_ratio": (
        "curve.direction_net.accepted", "curve.direction_net.candidates",
    ),
    "projection.project_line.dedup_ratio": (
        "projection.project_line.cells_out", "projection.project_line.cells_in",
    ),
    "incidence.heavy_subset.yield": (
        "incidence.heavy_subset.balls_out", "incidence.heavy_subset.balls_in",
    ),
}

COUNTS = (
    "curve.direction_net.candidates",
    "curve.direction_net.accepted",
    "fractal.PointSet.cells",
    "fractal.extract_delta_s_set.cells_in",
    "fractal.extract_delta_s_set.cells_out",
    "covering.greedy_cover.cells_in",
    "covering.greedy_cover.cubes_out",
    "projection.project_line.cells_in",
    "projection.project_line.cells_out",
    "incidence.incidence_count.pairs",
    "incidence.incidence_count.incidences",
    "incidence.heavy_subset.balls_in",
    "incidence.heavy_subset.balls_out",
    "fourier.GridFunction.coeffs.points",
    "fourier.GridFunction.from_coeffs.points",
    "fourier.decoupling_ratio.caps",
)


class Tracer:
    """Spans and counts of one traced run; `item` tags the spans opened next."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent span index or -1, item id)
        self.counts = defaultdict(int)
        self.item = -1
        self._stack = []
        self._bindings = self._plan()

    def _plan(self):
        """(namespace, attribute, original, wrapper) for every rebinding."""
        modules = [
            m for n, m in sorted(sys.modules.items())
            if (n == "projlab" or n.startswith("projlab.")) and m is not None
        ]
        bindings = []
        for name, (modname, path, hook) in TARGETS.items():
            owner = importlib.import_module(modname)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(name, raw.__func__, hook))
                else:
                    new = self._wrap(name, raw, hook)
                bindings.append((cls, attr, raw, new))
                continue
            fn = getattr(owner, path)
            wrapper = self._wrap(name, fn, hook)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        bindings.append((m, attr, fn, wrapper))
        return bindings

    def _wrap(self, name, fn, hook):
        errors_key = name.split(".")[0] + ".errors"
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                counts[errors_key] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.item)
            if hook is not None:
                for key, n in hook(args, kwargs, out).items():
                    counts[f"{name}.{key}"] += n
            return out

        return wrapper

    def install(self):
        for ns, attr, _, new in self._bindings:
            setattr(ns, attr, new)

    def uninstall(self):
        for ns, attr, old, _ in reversed(self._bindings):
            setattr(ns, attr, old)

    def summary(self):
        """Per span name: calls, total_s and self_s (duration minus child time)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in TARGETS}
        for (name, start, end, _, _), covered in zip(self.spans, child):
            row = table[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - covered
        return table

    def metrics(self):
        """Flat per-layer metrics: calls and self_s per span, errors, counts, ratios."""
        out = {}
        for name, row in self.summary().items():
            out[f"{name}.calls"] = (row["calls"], "count")
            out[f"{name}.self_s"] = (row["self_s"], "s")
        for layer in LAYERS:
            out[f"{layer}.errors"] = (self.counts[f"{layer}.errors"], "count")
        for key in COUNTS:
            out[key] = (self.counts[key], "count")
        for key, (num, base) in RATIOS.items():
            b = self.counts[base]
            out[key] = (self.counts[num] / b if b else 0.0, "fraction")
        return out
