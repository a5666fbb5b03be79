"""In-memory spans around hullmaps' public calls, recorded from outside the library.

Each target is a public function of a hullmaps module.  Installing a
:class:`Tracer` rebinds every module global of a loaded ``hullmaps.*`` module
that holds the original function object to a wrapper that opens a span, so
calls made through the names the library looks up at call time are seen
without any change to the library.  ``uninstall`` restores the originals.

A span is ``(id, name, start, end, parent_id)``.  The layer of a span is the
part of its name before the first dot; the benchmark's own spans use the
layer ``bench``.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _count_kernel(counts, args, result):
    rows = int(result.shape[0])
    n = args[0].n_points
    counts["boundary_map.dirs"] += rows
    counts["boundary_map.pair_factors"] += rows * n * (n - 1)


def _count_boundary_points(counts, args, result):
    counts["hull_oracle.distances_to_boundary.points"] += int(result.shape[0])


def _count_pair_dirs(counts, args, result):
    counts["geom_core.pair_dirs"] += result.n_points * (result.n_points - 1)


def _count_facets(counts, args, result):
    counts["hull_oracle.facets"] += len(result.facets)


def _count_sampled(counts, args, result):
    counts["sphere_sampling.dirs"] += int(result.shape[0])


def _count_arc_dirs(counts, args, result):
    counts["set_metrics.arc_tube_directions.dirs"] += int(result.shape[0])


# (span name, defining module, attribute, counter or None)
TARGETS = (
    ("boundary_map.evaluate_batch_array", "boundary_map", "evaluate_batch_array", _count_kernel),
    ("hull_oracle.distances_to_boundary", "hull_oracle", "distances_to_boundary",
     _count_boundary_points),
    ("hull_oracle.build_hull", "hull_oracle", "build_hull", _count_facets),
    ("hull_oracle.sample_boundary", "hull_oracle", "sample_boundary", None),
    ("geom_core.build_configuration", "geom_core", "build_configuration", _count_pair_dirs),
    ("geom_core.read_points_csv", "geom_core", "read_points_csv", None),
    # defined in geom_core; the CLI writes its output through fileio's re-export
    ("fileio.write_points_csv", "geom_core", "write_points_csv", None),
    ("sphere_sampling.sample", "sphere_sampling", "sample", _count_sampled),
    ("sphere_sampling.sample_near", "sphere_sampling", "sample_near", _count_sampled),
    ("set_metrics.cap_directions", "set_metrics", "cap_directions", None),
    ("set_metrics.arc_tube_directions", "set_metrics", "arc_tube_directions", _count_arc_dirs),
    ("set_metrics.theorem_sweep", "set_metrics", "theorem_sweep", None),
    ("normal_fan_dual.dual_combinatorics_check", "normal_fan_dual",
     "dual_combinatorics_check", None),
    ("normal_fan_dual.outer_normal_transform", "normal_fan_dual",
     "outer_normal_transform", None),
    ("normal_fan_dual.flattened_spherical_dual", "normal_fan_dual",
     "flattened_spherical_dual", None),
    ("cli.main", "cli", "main", None),
)

LAYERS = ("geom_core", "sphere_sampling", "boundary_map", "hull_oracle",
          "normal_fan_dual", "set_metrics", "fileio", "cli")


class Tracer:
    """Span recorder plus the patching that routes library calls through it."""

    def __init__(self):
        self.spans = []  # [id, name, start, end, parent]
        self.counts = defaultdict(int)
        self._stack = []
        self._patched = []  # (module, attribute, original)

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = [sid, name, time.perf_counter(), None, self._stack[-1] if self._stack else None]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec[3] = time.perf_counter()

    def _wrap(self, name, fn, counter):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            tracer.counts[name + ".calls"] += 1
            if counter is not None:
                counter(tracer.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if k.startswith("hullmaps.") and m is not None]
        for name, home, attr, counter in TARGETS:
            original = getattr(sys.modules["hullmaps." + home], attr)
            wrapper = self._wrap(name, original, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def export(self) -> list:
        return [{"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4]}
                for s in self.spans]


def summarize(spans, roots) -> dict:
    """Inclusive and self times per span name and self time per layer.

    Only spans below the given root span ids count.  ``<name>.s`` sums the
    durations of spans with no ancestor of the same name, so recursion is not
    counted twice; ``<name>.self_s`` and ``<layer>.self_s`` subtract the time
    covered by direct child spans.  Span names always contain a dot, so the
    two kinds of key cannot collide.
    """
    by_id = {s[0]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s[4] is not None:
            child_time[s[4]] += s[3] - s[2]

    def root_of(s):
        names = set()
        while s[4] is not None:
            s = by_id[s[4]]
            names.add(s[1])
        return s[0], names

    out = defaultdict(float)
    for s in spans:
        root, ancestor_names = root_of(s)
        if root not in roots:
            continue
        dur = s[3] - s[2]
        self_t = dur - child_time[s[0]]
        if s[1] not in ancestor_names:
            out[s[1] + ".s"] += dur
        out[s[1] + ".self_s"] += self_t
        out[s[1].split(".", 1)[0] + ".self_s"] += self_t
    return dict(out)
