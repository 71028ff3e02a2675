"""Spans and counts around the public functions of each `hypdel` module,
recorded from outside the program by rebinding those functions.

A span is [name, start, end, parent], parent being the index of the
enclosing span or -1.  Spans stay in memory until the run writes them
out.  `geometry` is left alone: its per-point functions run millions of
times, and wrapping them would distort what is measured.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter


def _counting(name, of=len):
    return lambda result: {name: of(result)}


def _once(name):
    return lambda result: {name: 1}


# (module, attribute, span name, counts of the return value).  An
# attribute "Class.method" wraps a method.  The counts function maps the
# return value to increments of named counts.
TRACED = [
    ("tiling", "ball_tiles", "tiling.ball_tiles",
     _counting("tiling.ball_tiles.tiles")),
    ("surface", "SurfaceAtlas.__init__", "surface.build_atlas", None),
    ("surface", "SurfaceAtlas.short_geodesics", "surface.short_geodesics",
     _counting("surface.short_geodesics.found")),
    # one per candidate deck element short_geodesics keeps
    ("surface", "ShortGeodesic.__init__", "surface.ShortGeodesic", None),
    ("surface", "ShortGeodesic.same_geodesic", "surface.same_geodesic", None),
    ("thickthin", "detect_thin_part", "thickthin.detect_thin_part",
     _counting("thickthin.cylinders")),
    ("thickthin", "thick_net", "thickthin.thick_net",
     lambda net: {"thickthin.thick_net.points": len(net.points),
                  "thickthin.thick_net.candidates": net.n_candidates}),
    ("thickthin", "standard_triangulation", "thickthin.standard_triangulation",
     _once("thickthin.standard_builds")),
    ("thickthin", "standard_cycle", "thickthin.standard_cycle",
     _once("thickthin.standard_builds")),
    ("delaunay", "thick_thin_triangulation",
     "delaunay.thick_thin_triangulation", None),
    ("delaunay", "lifted_delaunay", "delaunay.lifted_delaunay",
     _counting("delaunay.lifted_delaunay.vertices",
               lambda tc: tc.n_vertices)),
    ("delaunay", "complex_to_json", "delaunay.complex_to_json", None),
    ("delaunay", "complex_from_json", "delaunay.complex_from_json", None),
    ("verify", "check_simplicial", "verify.check_simplicial", None),
    ("verify", "count_audits", "verify.count_audits", None),
    ("verify", "check_delaunay", "verify.check_delaunay", None),
    ("verify", "check_distance_paths", "verify.check_distance_paths", None),
    ("linearbound", "edge_bound_audit", "linearbound.edge_bound_audit", None),
    ("linearbound", "appendixB_audit", "linearbound.appendixB_audit", None),
    ("linearbound", "locate_vertices_in_pants",
     "linearbound.locate_vertices_in_pants", None),
    ("equilateral", "hyperbolize", "equilateral.hyperbolize", None),
    ("equilateral", "export_json", "equilateral.export_json", None),
    ("equilateral", "two_ring_audit", "equilateral.two_ring_audit", None),
    ("cli", "main", "cli", None),
]


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class Tracer:
    """Records spans and counts of the TRACED functions once installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def reset(self):
        self.spans, self.counts = [], Counter()

    # -- installing -------------------------------------------------------

    def install(self):
        for mod, attr, name, counts in TRACED:
            self._rebind(mod, attr, self._spanned(name, counts))

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def _rebind(self, mod, attr, make):
        module = sys.modules[f"hypdel.{mod}"]
        if "." in attr:
            cls_name, attr = attr.split(".")
            owners = [getattr(module, cls_name)]
        else:
            # the function and every `from ... import` of it
            owners = [m for key, m in sorted(sys.modules.items())
                      if key.startswith("hypdel.")
                      and getattr(m, attr, None) is getattr(module, attr)]
        fn = getattr(owners[0], attr)
        wrapper = functools.wraps(fn)(make(fn))
        for owner in owners:
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, wrapper)

    def _spanned(self, name, counts):
        def make(fn):
            def wrapper(*args, **kwargs):
                spans, stack = self.spans, self._stack
                span = [name, 0.0, 0.0, stack[-1] if stack else -1]
                stack.append(len(spans))
                spans.append(span)
                span[1] = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = time.perf_counter()
                    stack.pop()
                if counts is not None:
                    self.counts.update(counts(result))
                return result
            return wrapper
        return make

    # -- reading ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of the spans and counts recorded since
        the last reset."""
        spans, counts = self.spans, self.counts
        total, child = Counter(), Counter()
        calls = Counter()
        developments = Counter()  # ball_tiles spans under each span name
        for name, t0, t1, parent in spans:
            total[name] += t1 - t0
            calls[name] += 1
            if parent >= 0:
                child[spans[parent][0]] += t1 - t0
        for name, _, _, parent in spans:
            if name != "tiling.ball_tiles":
                continue
            above = set()
            while parent >= 0:
                above.add(spans[parent][0])
                parent = spans[parent][3]
            for a in above:
                developments[a] += 1
                if a.startswith("equilateral."):
                    developments["equilateral"] += 1

        def self_s(name):
            return total[name] - child[name]

        builds = counts["thickthin.standard_builds"]
        lifted = developments["delaunay.lifted_delaunay"]
        return {
            "tiling.ball_tiles.calls": calls["tiling.ball_tiles"],
            "tiling.ball_tiles.tiles": counts["tiling.ball_tiles.tiles"],
            "tiling.ball_tiles.s": total["tiling.ball_tiles"],
            "surface.build_atlas.s": total["surface.build_atlas"],
            "surface.short_geodesics.s": total["surface.short_geodesics"],
            "surface.short_geodesics.candidates":
                calls["surface.ShortGeodesic"],
            "surface.short_geodesics.found":
                counts["surface.short_geodesics.found"],
            "surface.same_geodesic.calls": calls["surface.same_geodesic"],
            "surface.same_geodesic.s": total["surface.same_geodesic"],
            "thickthin.detect_thin_part.s":
                total["thickthin.detect_thin_part"],
            "thickthin.detect_thin_part.self_s":
                self_s("thickthin.detect_thin_part"),
            "thickthin.thick_net.s": total["thickthin.thick_net"],
            "thickthin.thick_net.self_s": self_s("thickthin.thick_net"),
            "thickthin.thick_net.developments":
                developments["thickthin.thick_net"],
            "thickthin.thick_net.candidates":
                counts["thickthin.thick_net.candidates"],
            "thickthin.thick_net.points": counts["thickthin.thick_net.points"],
            "thickthin.standard_builds": builds,
            # cylinders per standard build; 1 when nothing was built
            "thickthin.standard.useful_ratio":
                counts["thickthin.cylinders"] / builds if builds else 1.0,
            "delaunay.thick_thin_triangulation.s":
                total["delaunay.thick_thin_triangulation"],
            "delaunay.thick_thin_triangulation.self_s":
                self_s("delaunay.thick_thin_triangulation"),
            "delaunay.lifted_delaunay.s": total["delaunay.lifted_delaunay"],
            "delaunay.lifted_delaunay.developments": lifted,
            "delaunay.lifted_delaunay.escalations":
                lifted - counts["delaunay.lifted_delaunay.vertices"],
            "delaunay.complex_to_json.s": total["delaunay.complex_to_json"],
            "delaunay.complex_from_json.s":
                total["delaunay.complex_from_json"],
            "cli.self_s": self_s("cli"),
            "verify.check_simplicial.s": total["verify.check_simplicial"],
            "verify.count_audits.s": total["verify.count_audits"],
            "verify.check_delaunay.s": total["verify.check_delaunay"],
            "verify.check_delaunay.developments":
                developments["verify.check_delaunay"],
            "verify.check_distance_paths.s":
                total["verify.check_distance_paths"],
            "verify.check_distance_paths.developments":
                developments["verify.check_distance_paths"],
            "linearbound.edge_bound_audit.s":
                total["linearbound.edge_bound_audit"],
            "linearbound.appendixB_audit.s":
                total["linearbound.appendixB_audit"],
            "linearbound.locate_vertices_in_pants.developments":
                developments["linearbound.locate_vertices_in_pants"],
            "equilateral.hyperbolize.s": total["equilateral.hyperbolize"],
            "equilateral.export_json.s": total["equilateral.export_json"],
            "equilateral.two_ring_audit.s":
                total["equilateral.two_ring_audit"],
            "equilateral.developments": developments["equilateral"],
        }
