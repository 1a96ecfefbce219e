"""Spans around the package's public names, recorded from outside the package.

The tracer replaces module attributes that the layers look up when they
call each other, so a call from ``optimal_cone`` to ``center_at_height``
goes through a wrapper that records a span: name, start, end and the index
of the enclosing span.  Spans stay in memory until the run writes them out.
A name that no longer exists is reported as missing and skipped.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

# (module, attribute looked up at call time, span name = layer.function)
WRAPPED = (
    ("conecenter.cli", "main", "cli.main"),
    ("conecenter.geometry", "load_polygon", "geometry.load_polygon"),
    ("conecenter.geometry", "polygon_from_json", "geometry.polygon_from_json"),
    ("conecenter.geometry", "build_polygon", "geometry.build_polygon"),
    ("conecenter.geometry", "chebyshev_center", "geometry.chebyshev_center"),
    ("conecenter.geometry", "triangle_incenter", "geometry.triangle_incenter"),
    ("conecenter.geometry", "centroid", "geometry.centroid"),
    ("conecenter.optimize", "chebyshev_center", "geometry.chebyshev_center"),
    ("conecenter.optimize", "triangle_incenter", "geometry.triangle_incenter"),
    ("conecenter.optimize", "centroid", "geometry.centroid"),
    ("conecenter.optimize", "signed_distances", "geometry.signed_distances"),
    ("conecenter.optimize", "isoperimetric_ratio", "cone.isoperimetric_ratio"),
    ("conecenter.optimize", "center_at_height", "optimize.center_at_height"),
    ("conecenter.optimize", "optimal_cone", "optimize.optimal_cone"),
    ("conecenter.optimize", "height_sweep", "optimize.height_sweep"),
    ("conecenter.optimize", "boundary_gradient", "optimize.boundary_gradient"),
    ("conecenter.cone", "boundary_area", "cone.boundary_area"),
    ("conecenter.cone", "equal_angle_residual", "cone.equal_angle_residual"),
    ("conecenter.oracle", "boundary_areas", "cone.boundary_areas"),
    ("conecenter.oracle", "default_grid_spec", "oracle.default_grid_spec"),
    ("conecenter.oracle", "grid_min_boundary", "oracle.grid_min_boundary"),
    ("conecenter.oracle", "grid_min_ratio", "oracle.grid_min_ratio"),
    ("conecenter.oracle", "finite_diff_gradient", "oracle.finite_diff_gradient"),
)
LAYERS = ("bench", "cli", "geometry", "cone", "optimize", "oracle")


class Tracer:
    """Records spans as ``[name, start, end, parent index or -1]`` lists."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        self.missing = []
        for module_name, attr, name in WRAPPED:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, such as the root span of one op."""
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield index
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def adopt(self, child, parent: int) -> None:
        """Append the spans a child process recorded under the span ``parent``."""
        self.missing = sorted(set(self.missing) | set(child["missing"]))
        offset = len(self.spans)
        for name, start, end, up in child["spans"]:
            self.spans.append([name, start, end, parent if up < 0 else up + offset])


def self_times(spans) -> dict[str, float]:
    """Seconds of self time per span name: duration minus the children's durations."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _), inner in zip(spans, child):
        out[name] = out.get(name, 0.0) + (end - start - inner)
    return out


def layer_of(name: str) -> str:
    layer = name.split(".")[0]
    return layer if layer in LAYERS else "bench"
