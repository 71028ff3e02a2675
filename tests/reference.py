"""Slow, independent versions of program routines, and helpers that only
the tests call.

`reference_ball_tiles` is the per-call development that `tiling.ball_tiles`
replaced: a breadth-first search that places every candidate tile and
identifies tiles by their placement coefficients in a `_TileStore`.  The
shared development graph must return exactly its tiles.
`dist_to_boundary_from_outside` measures all sides of a chart, where
`tiling._meets_ball` measures only the sides that separate.
`reference_short_geodesics` is `SurfaceAtlas.short_geodesics` with the
detection radius it had before the displacement bound,
threshold + 2 center_radius + 0.2.  `brute_force_delaunay_keys` is the
exhaustive Delaunay oracle, and `three_rotation_triangle_key` the
triangle key that framed every rotation.  The rest are checks and
formulas that only the tests use."""

from __future__ import annotations

import json
import math

import numpy as np

from hypdel import delaunay as D
from hypdel import geometry as G
from hypdel import surface as S
from hypdel import tiling as T
from hypdel.errors import (ConstructionFailure, DegenerateTriangle,
                           DomainError, NoCompactCircumdisk, RadiusCap)

_BUCKET = 1e-5
_MATCH_TOL = 1e-7


class _TileStore:
    """Dedup store for tiles keyed by (chart, sign-normalized placement)."""

    def __init__(self):
        self.tiles: list[T.Tile] = []
        self._buckets: dict = {}

    def _bucket_keys(self, chart: int, key: tuple):
        lo = [math.floor((v - _MATCH_TOL) / _BUCKET) for v in key]
        hi = [math.floor((v + _MATCH_TOL) / _BUCKET) for v in key]
        out = []
        for k0 in {lo[0], hi[0]}:
            for k1 in {lo[1], hi[1]}:
                for k2 in {lo[2], hi[2]}:
                    for k3 in {lo[3], hi[3]}:
                        out.append((chart, k0, k1, k2, k3))
        return out

    def add(self, chart: int, placement: G.Mobius, depth: int):
        key = placement.key()
        bks = self._bucket_keys(chart, key)
        for bk in bks:
            for idx in self._buckets.get(bk, ()):
                t = self.tiles[idx]
                k2 = t.placement.key()
                if all(abs(a - b) < _MATCH_TOL for a, b in zip(key, k2)):
                    return idx, False
        idx = len(self.tiles)
        self.tiles.append(T.Tile(chart, placement, depth))
        self._buckets.setdefault(bks[0], []).append(idx)
        return idx, True


def _meets(cc: T.ChartComplex, tile: T.Tile, radius: float) -> bool:
    return T._meets_ball(cc.charts[tile.chart],
                         tile.placement.inverse()(0.0), radius)


def reference_ball_tiles(cc: T.ChartComplex, base: T.SurfacePoint,
                         radius: float) -> list[T.Tile]:
    """ball_tiles by a breadth-first search of its own, developing the
    cover afresh and placing every candidate tile."""
    store = _TileStore()
    seed = G.Mobius.translate_to(base.z).inverse()
    idx0, _ = store.add(base.chart, seed, 0)
    if not _meets(cc, store.tiles[idx0], radius):
        return []
    out = [idx0]
    frontier = [idx0]
    while frontier:
        new_frontier = []
        for ti in frontier:
            tile = store.tiles[ti]
            if tile.depth >= T.WORD_CAP:
                raise RadiusCap(
                    f"development exceeded {T.WORD_CAP} side crossings "
                    f"within radius {radius}")
            ch = cc.charts[tile.chart]
            for side in range(ch.n_sides):
                for cj, t in ch.transitions[side]:
                    m = tile.placement @ t
                    idx, new = store.add(cj, m, tile.depth + 1)
                    if not new:
                        continue
                    if _meets(cc, store.tiles[idx], radius):
                        out.append(idx)
                        new_frontier.append(idx)
        frontier = new_frontier
    return [store.tiles[i] for i in out]


def surface_distance(cc: T.ChartComplex, p: T.SurfacePoint,
                     q: T.SurfacePoint) -> float:
    """Length of the shortest path between two surface points.

    Grows a lift ball around p until the nearest lift of q is closer than
    the ball radius; that lift then realizes the global minimum.
    """
    r = 1.0
    while True:
        best = min((G.dist(0.0, w) for _, w, _ in
                    T.point_lifts(T.ball_tiles(cc, p, r), [q])),
                   default=math.inf)
        if best <= r:
            return best
        if r >= T.R_MAX:
            raise RadiusCap(f"no path found within radius cap {T.R_MAX}")
        r = min(max(2.0 * r, best + 0.1), T.R_MAX)


def vertex_angle_audit(atlas, tol: float = 1e-8):
    """Total chart angle around every hexagon vertex must be 2*pi.

    Develops a small ball around each vertex and sums, over the tiles
    whose closed polygon contains the center, the interior angle (at a
    matching polygon vertex) or pi (center interior to a side).  This is
    the transition-consistency check: a bad gluing breaks the sum.
    """
    cc = atlas.cc
    for ci, ch in enumerate(cc.charts):
        for vi, v in enumerate(ch.vertices):
            tiles = T.ball_tiles(cc, T.SurfacePoint(ci, v), 0.05)
            total = 0.0
            for t in tiles:
                z = t.placement.inverse()(0)
                c2 = cc.charts[t.chart]
                ang = _corner_angle(c2, z)
                if ang is not None:
                    total += ang
            if abs(total - 2 * math.pi) > tol:
                raise ConstructionFailure(
                    f"angle sum {total} around vertex {vi} of chart {ci}",
                    witness=(ci, vi, total))


def _corner_angle(ch: T.Chart, z: complex, tol: float = 1e-7):
    """Angle the chart polygon subtends at a boundary point z (None if z is
    not on the closed polygon)."""
    n = ch.n_sides
    for i, v in enumerate(ch.vertices):
        if G.dist(v, z) < tol:
            d1 = G.direction(v, ch.vertices[(i + 1) % n])
            d2 = G.direction(v, ch.vertices[(i - 1) % n])
            return (d2 - d1) % (2 * math.pi)
    for fr, L in zip(ch.side_frames, ch.side_lengths):
        if G.dist_to_segment(z, fr, L) < tol:
            return math.pi
    if ch.contains(z, -tol):
        return 2 * math.pi
    return None


def dist_to_boundary_from_outside(chart: T.Chart, z: complex) -> float:
    """Distance from z to the chart's polygon (0 if inside), over all of
    its sides."""
    ws = [fi(z) for fi in chart.side_inverses]
    if all(w.imag >= 0.0 for w in ws):
        return 0.0
    return min(G.dist_to_axis_segment(w, L)
               for w, L in zip(ws, chart.side_lengths))


def old_detection_radius(chart: T.Chart, threshold: float) -> float:
    return threshold + 2.0 * chart.center_radius + 0.2


def detection_candidates(atlas: S.SurfaceAtlas, ci: int, threshold: float,
                         radius: float):
    """The ball of the given radius about chart ci's centre, and the
    candidates short_geodesics reads off it: (length, g) for each tile of
    chart ci whose deck element g is hyperbolic, shorter than threshold
    and has its axis within center_radius + 1e-6 of the centre, in tile
    order."""
    ch = atlas.cc.charts[ci]
    tiles = T.ball_tiles(atlas.cc, T.SurfacePoint(ci, ch.center), radius)
    unseed = G.Mobius.translate_to(ch.center)
    cands = []
    for t in tiles:
        if t.chart != ci:
            continue
        g = t.placement @ unseed
        if g.is_identity(1e-8):
            continue
        kind, length = G.classify(g)
        if kind != "hyperbolic" or length >= threshold:
            continue
        d_axis, _ = G.dist_to_diameter(G.axis_frame(g).inverse()(0))
        if d_axis <= ch.center_radius + 1e-6:
            cands.append((length, g))
    return tiles, cands


def reference_short_geodesics(atlas: S.SurfaceAtlas,
                              threshold: float) -> list[S.ShortGeodesic]:
    """short_geodesics over the balls of old_detection_radius."""
    found: list[S.ShortGeodesic] = []
    for ci, ch in enumerate(atlas.cc.charts):
        tiles, cands = detection_candidates(
            atlas, ci, threshold, old_detection_radius(ch, threshold))
        for length, g in sorted(cands, key=lambda p: p[0]):
            sg = S.ShortGeodesic(atlas, ci, g, length, tiles)
            for prev in found:
                k = round(length / prev.length)
                if k >= 1 and abs(length - k * prev.length) <= 1e-6 \
                        and sg.same_geodesic(prev, tiles):
                    break
            else:
                found.append(sg)
    found.sort(key=lambda s: s.length)
    return found


def brute_force_delaunay_keys(atlas: S.SurfaceAtlas, points: list,
                              radius: float = 3.0,
                              tol: float = 1e-9) -> set:
    """Canonical keys of every lifted triple with an empty circumdisk,
    found by exhaustive search around each vertex.  O(n^3 * lifts)."""
    keys = set()
    for i in range(len(points)):
        cloud = D._Cloud(atlas, points, i, radius)
        n = len(cloud.lifts)
        c = cloud.center_pos
        arr = np.array(cloud.lifts)
        for a in range(n):
            if a == c:
                continue
            for b in range(a + 1, n):
                if b == c:
                    continue
                pts = (cloud.lifts[c], cloud.lifts[a], cloud.lifts[b])
                try:
                    disk = G.circumdisk(*pts)
                except (NoCompactCircumdisk, DegenerateTriangle):
                    continue
                if 2.0 * disk.radius > radius - 0.05:
                    continue  # not certifiable at this radius; skip
                d = G.dist_many(disk.center, arr)
                if np.all(d >= disk.radius - tol):
                    s = (c, a, b)
                    s = D._StarBuilder._orient(cloud, s)
                    keys.add(D._triangle_key(
                        tuple(cloud.labels[k] for k in s),
                        tuple(cloud.lifts[k] for k in s)))
    return keys


def three_rotation_triangle_key(labels, lifts):
    """delaunay._triangle_key as it was before it framed only the
    rotations that start at the least label: the least key over all three
    rotations, each with its own frame."""
    best = None
    for r in range(3):
        la = labels[r], labels[(r + 1) % 3], labels[(r + 2) % 3]
        za = lifts[r], lifts[(r + 1) % 3], lifts[(r + 2) % 3]
        f = G.Mobius.frame(za[0], G.direction(za[0], za[1])).inverse()
        key = (la[0], la[1], la[2], D._quant(f(za[1])), D._quant(f(za[2])))
        if best is None or key < best:
            best = key
    return best


def spec_to_json(graph: S.PantsGraph, fn: S.FNCoordinates) -> str:
    return json.dumps({
        "genus": graph.genus,
        "graph": [list(e) for e in graph.edges],
        "lengths": list(fn.lengths),
        "twists": list(fn.twists),
    }, indent=2)


def pythagoras(a: float, b: float) -> float:
    """Hypotenuse of a right triangle with legs a, b."""
    if a < 0 or b < 0:
        raise DomainError("legs must be nonnegative")
    return math.acosh(math.cosh(a) * math.cosh(b))


def disk_area(r: float) -> float:
    """Area of a hyperbolic disk of radius r."""
    if r < 0:
        raise DomainError("radius must be nonnegative")
    return 2.0 * math.pi * (math.cosh(r) - 1.0)


def diameter_gap(u: complex, v: complex) -> float:
    """Distance from the real axis to the geodesic with ideal endpoints u
    and v; 0 when the two cross or meet.  The map (1+z)/(1-z) sends u, v
    to i*a, i*b with a = 2 Im u / |1-u|^2, and for a*b > 0, cosh d =
    |(a+b)/(a-b)|, so cosh d - 1 = 2 sinh(d/2)^2 = 2 min(|a|, |b|) / |a-b|;
    that form has no cancellation when the two geodesics nearly meet.
    a and b are scaled here by |1-u|^2 |1-v|^2 / 2."""
    a = u.imag * abs(1.0 - v) ** 2
    b = v.imag * abs(1.0 - u) ** 2
    if a * b <= 0.0:
        return 0.0
    return 2.0 * math.asinh(math.sqrt(min(abs(a), abs(b)) / abs(a - b)))
