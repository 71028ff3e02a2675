"""Chart complexes and universal-cover tilings.

A closed surface is presented as an atlas of convex geodesic polygons
("charts") with side-crossing transitions.  A *tile* is a chart together
with a placement isometry into the disk; breadth-first crossing of sides
develops the universal cover around any base point.  All queries recenter
their base point at the origin first, since placements far from 0 lose
precision quickly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from . import geometry as G
from .errors import DomainError, RadiusCap

WORD_CAP = 64  # maximum number of side crossings in any development
R_MAX = 8.0  # largest radius a growing development (star, distance) reaches


def karcher_mean(points: list[complex], iters: int = 40) -> complex:
    """Intrinsic mean of disk points; lies in their convex hull."""
    z = points[0]
    for _ in range(iters):
        f = G.Mobius.translate_to(z)
        fi = f.inverse()
        v = 0.0 + 0.0j
        for p in points:
            w = fi(p)
            aw = abs(w)
            if aw > 1e-15:
                v += (w / aw) * (2.0 * math.atanh(aw))
        v /= len(points)
        step = abs(v)
        z = f(cmath.rect(math.tanh(0.5 * step), cmath.phase(v))) if step > 0 else z
        if step < 1e-14:
            break
    return z


class Chart:
    """Convex geodesic polygon with per-side transition candidates.

    Side i runs from vertices[i] to vertices[i+1] (indices mod n, ccw).
    transitions[i] is a list of (chart_index, T) pairs: crossing side i of
    a tile placed by M can land in a tile (chart_index, M @ T).  Several
    candidates per side are allowed when the neighbouring charts subdivide
    the side differently on the far side of a gluing curve.
    """

    def __init__(self, vertices: list[complex], label: str = ""):
        if len(vertices) < 3:
            raise DomainError("chart needs at least 3 vertices")
        self.vertices = [G.check_in_disk(v) for v in vertices]
        self.label = label
        n = len(vertices)
        self.transitions: list[list[tuple[int, G.Mobius]]] = [[] for _ in range(n)]
        self.side_frames = []
        self.side_lengths = []
        for i in range(n):
            p, q = vertices[i], vertices[(i + 1) % n]
            self.side_frames.append(G.Mobius.frame(p, G.direction(p, q)))
            self.side_lengths.append(G.dist(p, q))
        self.side_inverses = [fr.inverse() for fr in self.side_frames]
        self.center = karcher_mean(self.vertices)
        self.diameter = max(G.dist(p, q) for i, p in enumerate(vertices)
                            for q in vertices[i + 1:])
        self.center_radius = max(G.dist(self.center, v) for v in vertices)

    @property
    def n_sides(self) -> int:
        return len(self.vertices)

    def add_transition(self, side: int, chart_index: int, t: G.Mobius):
        self.transitions[side].append((chart_index, t))

    def side_signs(self, z: complex) -> list[float]:
        """Per side: >0 strictly inside the supporting half-plane."""
        return [fi(z).imag for fi in self.side_inverses]

    def contains(self, z: complex, tol: float = 0.0) -> bool:
        return all(s >= -tol for s in self.side_signs(z))

    def dist_to_boundary_from_outside(self, z: complex) -> float:
        """Distance from z to the polygon (0 if inside)."""
        if self.contains(z):
            return 0.0
        return min(G.dist_to_axis_segment(fi(z), L)
                   for fi, L in zip(self.side_inverses, self.side_lengths))


class ChartComplex:
    """A closed surface as a finite list of glued charts."""

    def __init__(self, charts: list[Chart]):
        self.charts = charts

    def check_reciprocal(self, tol: float = 1e-8):
        """Every transition must appear with its inverse on the far chart."""
        for ci, c in enumerate(self.charts):
            for side in range(c.n_sides):
                for cj, t in c.transitions[side]:
                    ti = t.inverse()
                    other = self.charts[cj]
                    ok = any(
                        ck == ci and _mob_close(u, ti, tol)
                        for s2 in range(other.n_sides)
                        for ck, u in other.transitions[s2]
                    )
                    if not ok:
                        raise DomainError(
                            f"transition on chart {ci} side {side} -> {cj} "
                            f"has no reciprocal")


def _mob_close(m1: G.Mobius, m2: G.Mobius, tol: float) -> bool:
    k1, k2 = m1.key(), m2.key()
    return all(abs(a - b) < tol for a, b in zip(k1, k2))


@dataclass
class Tile:
    chart: int
    placement: G.Mobius
    depth: int = 0


_BUCKET = 1e-5
_MATCH_TOL = 1e-7


class _TileStore:
    """Dedup store for tiles keyed by (chart, sign-normalized placement)."""

    def __init__(self):
        self.tiles: list[Tile] = []
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
        self.tiles.append(Tile(chart, placement, depth))
        self._buckets.setdefault(bks[0], []).append(idx)
        return idx, True


def _meets_ball(cc: ChartComplex, tile: Tile, radius: float) -> bool:
    """Whether the placed polygon of the tile meets B(0, radius).

    The chart's intrinsic center lies in the polygon, and the polygon lies
    within center_radius of it, so the distance d from the origin to the
    chart center decides most tiles: the polygon is at most d and at least
    d - center_radius away.  Only tiles in between pay for the exact
    per-side distance."""
    c = cc.charts[tile.chart]
    z = tile.placement.inverse()(0.0)
    if abs(z) >= 1.0 - G.BOUNDARY_GUARD:
        # origin unreachable in this tile's local frame: definitely far
        return False
    d = G.dist(z, c.center)
    if d <= radius:
        return True
    if d - c.center_radius > radius:
        return False
    return c.dist_to_boundary_from_outside(z) <= radius


@dataclass(frozen=True)
class SurfacePoint:
    """A point of the surface in chart-local coordinates."""
    chart: int
    z: complex


def ball_tiles(cc: ChartComplex, base: SurfacePoint,
               radius: float) -> list[Tile]:
    """All tiles of the development around base that meet the closed ball
    B(0, radius), with base recentered at the origin.

    The seed tile is base.chart placed by translate_to(base.z)^-1, so all
    returned placements are well conditioned out to the given radius.
    Breadth-first over side crossings starting from the seed tile.  Tiles
    and the ball are convex, so every tile meeting the ball is reachable
    through a chain of tiles meeting the ball; the frontier may therefore
    be pruned to tiles within the radius.
    """
    store = _TileStore()
    seed = G.Mobius.translate_to(base.z).inverse()
    idx0, _ = store.add(base.chart, seed, 0)
    if not _meets_ball(cc, store.tiles[idx0], radius):
        return []
    out = [idx0]
    frontier = [idx0]
    while frontier:
        new_frontier = []
        for ti in frontier:
            tile = store.tiles[ti]
            if tile.depth >= WORD_CAP:
                raise RadiusCap(
                    f"development exceeded {WORD_CAP} side crossings "
                    f"within radius {radius}")
            ch = cc.charts[tile.chart]
            for side in range(ch.n_sides):
                for cj, t in ch.transitions[side]:
                    m = tile.placement @ t
                    idx, new = store.add(cj, m, tile.depth + 1)
                    if not new:
                        continue
                    if _meets_ball(cc, store.tiles[idx], radius):
                        out.append(idx)
                        new_frontier.append(idx)
        frontier = new_frontier
    return [store.tiles[i] for i in out]


def point_lifts(tiles: list[Tile],
                points: list[SurfacePoint]) -> list[tuple[int, complex, Tile]]:
    """Every lift of every point on the tiles, as (index into points,
    lift, tile) triples in tile order and then point order.  Each lift is
    one scalar Mobius call, so it is bit-identical wherever it is read."""
    by_chart = {}
    for j, p in enumerate(points):
        by_chart.setdefault(p.chart, []).append(j)
    return [(j, t.placement(points[j].z), t)
            for t in tiles for j in by_chart.get(t.chart, ())]


def locate(cc: ChartComplex, tiles: list[Tile],
           z: complex) -> SurfacePoint | None:
    """The surface point of a development point z: chart-local
    coordinates in the first tile whose closed polygon holds z."""
    for t in tiles:
        w = t.placement.inverse()(z)
        if abs(w) < 1.0 - 1e-9 and cc.charts[t.chart].contains(w, 1e-9):
            return SurfacePoint(t.chart, w)
    return None


def surface_distance(cc: ChartComplex, p: SurfacePoint,
                     q: SurfacePoint) -> float:
    """Length of the shortest path between two surface points.

    Grows a lift ball around p until the nearest lift of q is closer than
    the ball radius; that lift then realizes the global minimum.
    """
    r = 1.0
    while True:
        best = min((G.dist(0.0, w) for _, w, _ in
                    point_lifts(ball_tiles(cc, p, r), [q])), default=math.inf)
        if best <= r:
            return best
        if r >= R_MAX:
            raise RadiusCap(f"no path found within radius cap {R_MAX}")
        r = min(max(2.0 * r, best + 0.1), R_MAX)
