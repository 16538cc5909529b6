"""Per-layer tracing from outside the program.

Spans and counters are installed by replacing public functions at every
module attribute of steklov_rect that refers to them, which is how the
library's own modules call one another. A span records calls and self time
(its duration minus the spans nested in it); a counter records calls only,
so that hot, cheap functions are counted without timing each call.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

import numpy as np

MODULES = ("steklov_rect", "steklov_rect.geometry", "steklov_rect.roots", "steklov_rect.stable",
           "steklov_rect.modes", "steklov_rect.boundary", "steklov_rect.expansion",
           "steklov_rect.bounds", "steklov_rect.cli")

# (layer name, module, function); several functions may share one layer name
SPANS = (
    ("roots.solve_nu", "roots", "solve_nu"),
    ("modes.resolve", "modes", "resolve"),
    ("modes.first_modes", "modes", "first_modes"),
    ("boundary.coefficient", "boundary", "coefficient"),
    ("boundary.load_csv", "boundary", "load_boundary_csv"),
    ("expansion.build", "expansion", "expand_dirichlet"),
    ("expansion.build", "expansion", "expand_for_central"),
    ("expansion.build", "expansion", "solve_robin"),
    ("expansion.build", "expansion", "solve_neumann"),
    ("expansion.evaluate_interior", "expansion", "evaluate_interior"),
    ("expansion.central_value", "expansion", "central_value"),
    ("bounds.reproduce_tables", "bounds", "reproduce_tables"),
    ("cli.main", "cli", "main"),
)
COUNTERS = (
    ("roots.residual", "roots", "residual"),
    ("modes.evaluate", "modes", "evaluate"),
    ("boundary.inner_product", "boundary", "inner_product"),
    ("boundary.edge_quadrature", "boundary", "edge_quadrature"),
)


def _csv_samples(path) -> int:
    with open(path) as fh:
        return sum(1 for line in fh if line.strip() and not line.lstrip().startswith("#")) - 1


class Tracer:
    """Aggregated spans and counters of one process; merge() adds another's."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.extra: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []
        self._undo: list[tuple] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        calls, self_s, stack, extra = self.calls, self.self_s, self._stack, self.extra
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                calls[name] += 1
                self_s[name] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if name == "expansion.evaluate_interior":
                    e, x, y = args[:3]
                    extra["evaluate_interior_total_s"] += dt
                    extra["point_modes"] += np.broadcast(np.asarray(x), np.asarray(y)).size * len(e.terms)
                elif name == "boundary.load_csv":
                    extra["load_csv_total_s"] += dt
                    extra["csv_samples"] += _csv_samples(args[0])

        return wrapper

    def _counter(self, name, fn):
        calls, extra = self.calls, self.extra

        def wrapper(*args, **kwargs):
            calls[name] += 1
            out = fn(*args, **kwargs)
            if name == "boundary.edge_quadrature":
                extra["quad_nodes"] += len(out[0])
            return out

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = [importlib.import_module(m) for m in MODULES]
        wrapped = {}  # id of an original function -> its wrapper, which keeps the original alive
        for kind, table in ((self._span, SPANS), (self._counter, COUNTERS)):
            for name, mod, attr in table:
                orig = getattr(importlib.import_module(f"steklov_rect.{mod}"), attr)
                wrapped[id(orig)] = kind(name, orig)
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapped[id(value)])
        rect = importlib.import_module("steklov_rect.geometry").Rectangle
        orig = rect.arclength_to_point
        self._undo.append((rect, "arclength_to_point", orig))
        rect.arclength_to_point = self._span("geometry.arclength_to_point", orig)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def to_dict(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s), "extra": dict(self.extra)}

    def merge(self, doc: dict) -> None:
        for key, target in (("calls", self.calls), ("self_s", self.self_s), ("extra", self.extra)):
            for k, v in doc[key].items():
                target[k] += v

    def per_layer(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-operation layer metrics as {name: (value, unit)}."""
        c, s, x = self.calls, self.self_s, self.extra
        per = lambda v: v / ops
        return {
            "cli.main_s": (per(s["cli.main"]), "s/op"),
            "roots.solve_nu_calls": (per(c["roots.solve_nu"]), "count/op"),
            "roots.solve_nu_s": (per(s["roots.solve_nu"]), "s/op"),
            "roots.residual_calls_per_root": (c["roots.residual"] / max(1, c["roots.solve_nu"]), "count/root"),
            "modes.resolve_calls": (per(c["modes.resolve"]), "count/op"),
            "modes.resolve_s": (per(s["modes.resolve"]), "s/op"),
            "modes.first_modes_s": (per(s["modes.first_modes"]), "s/op"),
            "modes.evaluate_calls": (per(c["modes.evaluate"]), "count/op"),
            "boundary.coefficient_calls": (per(c["boundary.coefficient"]), "count/op"),
            "boundary.coefficient_s": (per(s["boundary.coefficient"]), "s/op"),
            "boundary.inner_product_calls": (per(c["boundary.inner_product"]), "count/op"),
            "boundary.quad_nodes": (per(x["quad_nodes"]), "count/op"),
            "boundary.load_csv_s": (per(s["boundary.load_csv"]), "s/op"),
            "boundary.load_csv_us_per_sample": (1e6 * x["load_csv_total_s"] / max(1.0, x["csv_samples"]), "us/sample"),
            "geometry.arclength_to_point_calls": (per(c["geometry.arclength_to_point"]), "count/op"),
            "geometry.arclength_to_point_s": (per(s["geometry.arclength_to_point"]), "s/op"),
            "expansion.build_s": (per(s["expansion.build"]), "s/op"),
            "expansion.evaluate_interior_s": (per(s["expansion.evaluate_interior"]), "s/op"),
            "expansion.evaluate_interior_ns_per_point_mode":
                (1e9 * x["evaluate_interior_total_s"] / max(1.0, x["point_modes"]), "ns/point-mode"),
            "expansion.central_value_s": (per(s["expansion.central_value"]), "s/op"),
            "bounds.reproduce_tables_s": (per(s["bounds.reproduce_tables"]), "s/op"),
        }
