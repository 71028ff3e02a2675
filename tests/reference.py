"""Slow, independent versions of program routines, kept for the tests.

`reference_ball_tiles` is the per-call development that `tiling.ball_tiles`
replaced: a breadth-first search that places every candidate tile and
identifies tiles by their placement coefficients in a `_TileStore`.  The
shared development graph must return exactly its tiles.
`surface_distance` and `vertex_angle_audit` are checks that only the
tests run."""

from __future__ import annotations

import math

from hypdel import geometry as G
from hypdel import tiling as T
from hypdel.errors import ConstructionFailure, RadiusCap

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


def reference_ball_tiles(cc: T.ChartComplex, base: T.SurfacePoint,
                         radius: float) -> list[T.Tile]:
    """ball_tiles by a breadth-first search of its own, developing the
    cover afresh and placing every candidate tile."""
    store = _TileStore()
    seed = G.Mobius.translate_to(base.z).inverse()
    idx0, _ = store.add(base.chart, seed, 0)
    if not T._meets_ball(cc, store.tiles[idx0], radius):
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
                    if T._meets_ball(cc, store.tiles[idx], radius):
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
