"""Independent certification of surface triangulations.

Works from the interchange representation (vertices, edges with realizing
placements, triangles as index triples) and re-derives everything else:
triangle lifts are reassembled from the edge placements, circumdisks are
recomputed, and emptiness is checked against a fresh enumeration of the
lifted point set.  Nothing is trusted from the construction side.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry as G
from . import tiling as T
# bench/test_bench.py checks that the tracer restores this by-name import
from .delaunay import LoadedComplex, complex_from_json
from .errors import (DegenerateTriangle, HypDelError, NoCompactCircumdisk,
                     RadiusCap)

# check_delaunay's disks are closed: valid output has lifts on a circle (a
# triangle's corners, the fourth corner of a cocircular cylinder quad), which
# rounding reads up to 1.2e-13 inside it.  At tolerance 0 the benchmark's
# stored chain-g5, g8, g10, thick-g2-0 and thick-g3-2 show 355, 622, 800, 123
# and 236 such contacts and K_12 29; 1e-9 clears the deepest about 8000 times.
DELAUNAY_TOL = 1e-9
DISTANCE_TOL = 1e-7
# Each read-path ball (here and in equilateral) has the radius its check
# reads plus BALL_PAD.  A lift the check reads lies within that radius, but
# its computed distance and ball_tiles' test of its tile round apart by
# about 1e-15 e^r at a radius r (as for tiling._FAR_MARGIN), under 1e-11
# below CHECK_RADIUS_CAP; the pad covers that.  A file's vertex may lie
# outside its chart's polygon, and its lifts as far outside their tiles, so
# the checks here widen the pad by that much (_ball_pad).
BALL_PAD = 1e-6
# The star builder certifies a triangle only if 2 * circumradius <= r - 0.05
# <= R_MAX - 0.05, so no construction output needs a check ball wider than
# R_MAX - 0.05 + BALL_PAD (the circumdisk passes through its anchor; an edge
# is a chord of it).  A wider ball comes from a corrupt file, and the
# development it asks for grows exponentially with its radius.
CHECK_RADIUS_CAP = T.R_MAX + 0.1


@dataclass
class CheckResult:
    name: str
    passed: bool
    violations: list = field(default_factory=list)
    notes: list = field(default_factory=list)  # measured values, no failure

    def fail(self, msg):
        self.passed = False
        self.violations.append(msg)


@dataclass
class Certificate:
    checks: list

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        checks = [{"name": c.name, "passed": c.passed,
                   "violations": c.violations[:20]}
                  | ({"notes": c.notes} if c.notes else {})
                  for c in self.checks]
        return json.dumps({"passed": self.passed, "checks": checks}, indent=1)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            tag = "ok" if c.passed else "FAIL"
            extra = ""
            if not c.passed and c.violations:
                extra = f" ({len(c.violations)} violations)"
            lines.append(f"  {c.name}: {tag}{extra}")
        return "\n".join(lines)


def jungerman_ringel(g: int) -> int:
    """Minimal vertex count of any triangulation of the closed orientable
    genus-g surface (g != 2), ceil((7 + sqrt(1+48g)) / 2)."""
    return math.ceil((7.0 + math.sqrt(1.0 + 48.0 * g)) / 2.0)


def vertex_floor(g: int) -> int:
    """Fewest vertices of any triangulation of the closed orientable
    genus-g surface: jungerman_ringel(g), except 10 for genus 2."""
    return 10 if g == 2 else jungerman_ringel(g)


def _check_radius(radius: float):
    if radius > CHECK_RADIUS_CAP:
        raise RadiusCap(f"check radius {radius:.6f} exceeds cap "
                        f"{CHECK_RADIUS_CAP}")


def _ball_pad(lc: LoadedComplex) -> float:
    """BALL_PAD plus the farthest any vertex of lc lies outside its chart's
    polygon, which reading a file does not check."""
    charts = lc.atlas.cc.charts
    return BALL_PAD + max(charts[p.chart].outside(p.z) for p in lc.points)


def check_simplicial(lc: LoadedComplex) -> CheckResult:
    """Edges and triangles must embed: no loops, no parallel edges, no
    repeated or duplicated triangles, and every edge must border exactly
    two triangles (edges here are homotopy classes, so parallel edges of
    distinct classes still violate simpliciality)."""
    res = CheckResult("simplicial", True)
    pairs = set()
    for u, v, m in lc.edges:
        if u == v:
            res.fail(f"loop edge at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in pairs:
            res.fail(f"parallel edges between {key}")
        pairs.add(key)
    seen = set()
    use = {}
    for t in lc.triangles:
        if len(set(t)) != 3:
            res.fail(f"triangle with repeated vertex {t}")
            continue
        k = tuple(sorted(t))
        if k in seen:
            res.fail(f"duplicate triangle {k}")
        seen.add(k)
        for r in range(3):
            ek = tuple(sorted((t[r], t[(r + 1) % 3])))
            use[ek] = use.get(ek, 0) + 1
            if ek not in pairs:
                res.fail(f"triangle {t} uses missing edge {ek}")
    for ek in pairs:
        if use.get(ek, 0) != 2:
            res.fail(f"edge {ek} borders {use.get(ek, 0)} != 2 triangles")
    return res


def check_delaunay(lc: LoadedComplex,
                   tol: float = DELAUNAY_TOL) -> CheckResult:
    """Each triangle's circumdisk must be compact and contain no lift of
    any vertex in its interior (closed-disk convention: boundary contact
    is allowed).  Also checks that the three edge realizations close up
    into an actual geodesic triangle."""
    res = CheckResult("delaunay", True)
    pad = _ball_pad(lc)
    elen = {}
    for u, v, m in lc.edges:
        elen[(min(u, v), max(u, v))] = G.dist(0.0, m(lc.points[v].z))
    by_anchor = {}  # anchor vertex -> [(triangle, its disk, reach)]
    for t in lc.triangles:
        if len(set(t)) != 3:
            continue
        i, j, k = t
        zj, zk = lc.lift(i, j), lc.lift(i, k)
        if zj is None or zk is None:
            res.fail(f"triangle {t}: edge records missing or ambiguous")
            continue
        want = elen.get((min(j, k), max(j, k)))
        if want is None or abs(G.dist(zj, zk) - want) > 1e-6:
            res.fail(f"triangle {t}: edges do not close up")
            continue
        try:
            disk = G.circumdisk(0.0, zj, zk)
        except (DegenerateTriangle, NoCompactCircumdisk) as exc:
            res.fail(f"triangle {t}: {type(exc).__name__}")
            continue
        # a lift inside the disk lies within reach of the anchor
        reach = G.dist(0.0, disk.center) + disk.radius + pad
        _check_radius(reach)
        by_anchor.setdefault(i, []).append((t, disk, reach))
    # one development per anchor: its ball holds every triangle's own
    # ball, so each disk meets the same lifts as with a ball of its own;
    # and one distance pass, disks by lifts
    for i, tris in by_anchor.items():
        try:
            tiles = T.ball_tiles(lc.atlas.cc, lc.points[i],
                                 max(reach for _, _, reach in tris))
        except HypDelError as exc:
            for t, _, _ in tris:
                res.fail(f"triangle {t}: lift enumeration failed ({exc})")
            continue
        ws = np.array([w for _, w, _ in T.point_lifts(tiles, lc.grouped)])
        cs = np.array([disk.center for _, disk, _ in tris])
        ms = G.dist_many(cs[:, None], ws[None, :]).min(axis=1,
                                                       initial=math.inf)
        for (t, disk, _), m in zip(tris, ms.tolist()):
            if m < disk.radius - tol:
                res.fail(f"triangle {t}: lift inside circumdisk by "
                         f"{disk.radius - m:.3e}")
    return res


def check_distance_paths(lc: LoadedComplex) -> CheckResult:
    """Every edge must realize the distance between its endpoints, to
    DISTANCE_TOL."""
    res = CheckResult("distance_paths", True)
    pad = _ball_pad(lc)
    # one lift ball per vertex covers all its edges: the ball radius
    # reaches every realized length at u, so the true minimizer of each
    # endpoint distance is one of the enumerated lifts
    by_u = {}
    for u, v, m in lc.edges:
        by_u.setdefault(u, []).append((v, G.dist(0.0, m(lc.points[v].z))))
    for u, partners in by_u.items():
        r = max(length for _, length in partners) + pad
        _check_radius(r)
        tiles = T.ball_tiles(lc.atlas.cc, lc.points[u], r)
        targets = sorted({v for v, _ in partners})
        nearest = {}
        grouped = T.by_chart([lc.points[v] for v in targets])
        for k, w, _ in T.point_lifts(tiles, grouped):
            v = targets[k]
            nearest[v] = min(nearest.get(v, math.inf), G.dist(0.0, w))
        for v, realized in partners:
            actual = nearest.get(v)
            if actual is None:
                res.fail(f"edge ({u},{v}): no lift of {v} within "
                         f"radius {r:.6f}")
                continue
            if realized > actual + DISTANCE_TOL:
                res.fail(f"edge ({u},{v}): realized {realized:.9f} > "
                         f"distance {actual:.9f}")
            if realized < actual - DISTANCE_TOL:
                res.fail(f"edge ({u},{v}): realized length {realized:.9f} "
                         f"shorter than the distance {actual:.9f}?")
    return res


def count_audits(lc: LoadedComplex) -> CheckResult:
    """Euler count, edge/face relations, the universal lower bound on
    vertices, and the 151g upper bound of the thick-thin construction."""
    res = CheckResult("counts", True)
    v, e, f, g = len(lc.points), len(lc.edges), len(lc.triangles), lc.genus
    if v - e + f != 2 - 2 * g:
        res.fail(f"Euler v-e+f = {v - e + f} != {2 - 2*g}")
    if e != 3 * v + 6 * g - 6:
        res.fail(f"e = {e} != 3v+6g-6 = {3*v + 6*g - 6}")
    if f != 2 * v + 4 * g - 4:
        res.fail(f"f = {f} != 2v+4g-4 = {2*v + 4*g - 4}")
    if v < vertex_floor(g):
        res.fail(f"v = {v} below the genus-{g} minimum {vertex_floor(g)}")
    if v > 151 * g:
        res.fail(f"v = {v} exceeds 151g = {151*g}")
    return res


def verify_complex(lc: LoadedComplex,
                   delaunay_tol: float = DELAUNAY_TOL) -> Certificate:
    checks = [check_simplicial(lc),
              count_audits(lc),
              check_delaunay(lc, delaunay_tol),
              check_distance_paths(lc)]
    return Certificate(checks)
