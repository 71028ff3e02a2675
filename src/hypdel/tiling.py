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
from array import array
from dataclasses import dataclass

from . import geometry as G
from .errors import DomainError, RadiusCap

WORD_CAP = 64  # maximum number of side crossings in any development
# Most tiles any development may hold.  The benchmark's largest holds
# 1454, and triangulating the chains (l, 1.05 l, 0.95 l) needs at most
# 4851 at l = 10 and 14193 at l = 11; the long thin charts of longer
# cuffs can keep a walk inside WORD_CAP for millions of tiles.
TILE_CAP = 50_000
R_MAX = 8.0  # largest radius a growing development (star, distance) reaches
KARCHER_STEPS = 40  # gradient steps of the chart centre's intrinsic mean
# A transition matches the inverse of its partner when their placement
# coefficients agree to this much times the larger of 1 and the largest
# coefficient.  The coefficients grow like e^(l/2) with a cuff length l,
# and their rounding with them: the inverse of a transition of cuffs 15
# misses its partner by 5e-8 at coefficients near 900, a relative 5e-11.
RECIPROCAL_TOL = 1e-8
# A point lies in its chart when Chart.outside puts it within CHART_TOL of
# the polygon: the one test for the points the program places (locate) and
# for the vertices a file gives (delaunay.complex_from_json).  A placed
# point on a side or corner lies outside by rounding alone: at most 2.8e-11
# on genus-2 surfaces with cuffs 0.19 to 7.5 (the thinnest the farthest),
# 2.2e-13 at cuffs near 10 and 4.2e-15 on the stored chains.  1e-7 clears
# that 3000 times and stays below verify.BALL_PAD, which covers it.
CHART_TOL = 1e-7


def karcher_mean(points: list[complex]) -> complex:
    """Intrinsic mean of disk points, after at most KARCHER_STEPS gradient
    steps."""
    z = points[0]
    for _ in range(KARCHER_STEPS):
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
        self.center_radius = max(G.dist(self.center, v) for v in vertices)
        # radius of the disk about the center inscribed in the polygon
        self.inradius = min(G.dist_to_diameter(fi(self.center))[0]
                            for fi in self.side_inverses)
        self.vertex_e = [_one_minus_sq(v) for v in self.vertices]
        self.sealed = False

    def add_transition(self, side: int, chart_index: int, t: G.Mobius):
        if self.sealed:
            raise DomainError("transitions are fixed once the charts form a "
                              "complex: its developed cover would go stale")
        self.transitions[side].append((chart_index, t))

    def outside(self, z: complex) -> float:
        """Distance from z to the polygon, 0 inside it: a nearest point
        lies on a side whose geodesic separates z from it (_meets_ball).
        A z within 1e-9 of the disk's boundary, which a side's map can
        round onto the boundary, is at inf: no polygon reaches there (its
        vertices keep 7.6e-4 away at cuffs 15)."""
        if abs(z) >= 1.0 - 1e-9:
            return math.inf
        return min((G.dist_to_axis_segment(w, length) for fi, length
                    in zip(self.side_inverses, self.side_lengths)
                    if (w := fi(z)).imag < 0.0), default=0.0)


class ChartComplex:
    """A closed surface as a finite list of glued charts.

    Making the complex seals every chart, since the development graphs
    store each node's neighbours and a transition added later would leave
    them stale, and builds the side crossings, which refuses a transition
    without its inverse on the far chart."""

    def __init__(self, charts: list[Chart]):
        self.charts = charts
        self._crossings = _Crossings(charts)
        for ch in charts:
            ch.sealed = True
        self._developments: dict[int, _Development] = {}

    def development(self, home: int) -> "_Development":
        """The development graph around chart home's home tile.  Node
        identity and _meets_ball's inscribed-disk accept need each chart's
        centre inside its polygon, which the rounded mean of cuffs near 15
        misses; the first development checks it."""
        dev = self._developments.get(home)
        if dev is None:
            if not self._developments:
                for ci, ch in enumerate(self.charts):
                    if ch.outside(ch.center) > 0.0:
                        raise DomainError(
                            f"chart {ci} {ch.label!r}: centre {ch.center} "
                            f"lies outside its polygon")
            dev = self._developments[home] = _Development(self._crossings,
                                                          home)
        return dev


def _mob_close(m1: G.Mobius, m2: G.Mobius) -> bool:
    k1, k2 = m1.key(), m2.key()
    tol = RECIPROCAL_TOL * max(1.0, *map(abs, k1 + k2))
    return all(abs(a - b) < tol for a, b in zip(k1, k2))


@dataclass
class Tile:
    chart: int
    placement: G.Mobius
    depth: int = 0


def _meets_ball(c: Chart, z: complex, radius: float) -> bool:
    """Whether chart c's polygon meets B(z, radius) in the chart's frame,
    where a tile placed by M puts a query's origin at z = M^-1(0).

    z is at distance d from the chart's intrinsic centre.  The polygon
    holds the disk of radius inradius about the centre, which lies inside
    it (ChartComplex.development), so it is at most d - inradius away, and
    at most as far as any of its vertices.  These bounds accept most tiles,
    with _NEAR_PAD to spare.  The rest pay for the exact distance: the
    point of a convex polygon nearest to a z outside it lies on a side
    whose geodesic separates z from the polygon, so only those sides are
    measured, and with none of them z is inside.  ball_tiles has skipped
    the tiles whose centre is beyond radius + center_radius: no reject."""
    if abs(z) >= 1.0 - G.BOUNDARY_GUARD:
        # origin unreachable in this tile's local frame: definitely far
        return False
    if G.dist(z, c.center) <= radius + c.inradius - _NEAR_PAD:
        return True
    near = radius - _NEAR_PAD
    if near > 0.0:
        # dist(z, v) < near iff |z - v|^2 < sinh^2(near / 2) e_z e_v
        zr, zi = z.real, z.imag
        s = math.sinh(0.5 * near) ** 2 * (1.0 - (zr * zr + zi * zi))
        for v, ev in zip(c.vertices, c.vertex_e):
            dr, di = v.real - zr, v.imag - zi
            if dr * dr + di * di < s * ev:
                return True
    inside = True
    for fi, length in zip(c.side_inverses, c.side_lengths):
        w = fi(z)
        if w.imag < 0.0:
            if G.dist_to_axis_segment(w, length) <= radius:
                return True
            inside = False
    return inside


# _meets_ball accepts a tile by a bound only when the bound puts the
# polygon within radius - _NEAR_PAD of the origin.  The bound and the exact
# side distance are both computed from the same local point z and differ
# only by the rounding of their own arithmetic, about 1e-16 e^d at a
# distance d of z from the chart's frame origin, under 1e-9 at the radii
# any layer asks for; so a bound accepts only tiles that the exact test
# would accept too.  dist_to_diameter keeps that precision down to a side
# distance of 0, so this holds at the 1e-9 of locate_vertices_in_pants.
_NEAR_PAD = 1e-9


# A development node whose centre lies more than radius + center_radius +
# _FAR_MARGIN from a query's base point is skipped without its placement.
# The node's centre comes from the home-frame placement and _meets_ball's
# from the query's own, composed along other words; the two differ by
# rounding, about 1e-16 e^r per crossing at distance r, under 1e-9 at the
# radii any layer asks for, so a skipped tile is one that _meets_ball
# would reject.
_FAR_MARGIN = 1e-6


class _Crossings:
    """The side crossings of a sealed chart complex, which every
    development of it reads: per chart, the (chart, transition) slots in
    (side, transition) order, each neighbour's centre t(c) in the chart's
    own frame with 1 - |t(c)|^2, and the slot of the far chart that
    crosses back; per chart, its inradius r and sinh^2(r / 2).  A
    transition whose inverse, to RECIPROCAL_TOL relative in each placement
    coefficient, is no slot of the far chart back to this one is refused."""

    def __init__(self, charts: list[Chart]):
        self.centers = [ch.center for ch in charts]
        self.slots = [[(cj, t) for side in ch.transitions for cj, t in side]
                      for ch in charts]
        self.reach = []
        for slots in self.slots:
            row = []
            for cj, t in slots:
                c = charts[cj].center
                den = t.b.conjugate() * c + t.a.conjugate()
                row.append((cj, (t.a * c + t.b) / den, _one_minus_sq(c) / (
                    den.real * den.real + den.imag * den.imag)))
            self.reach.append(row)
        self.back = []
        for c, ch in enumerate(charts):
            row = []
            for side, ts in enumerate(ch.transitions):
                for cj, t in ts:
                    ti = t.inverse()
                    b = next((b for b, (ck, u) in enumerate(self.slots[cj])
                              if ck == c and _mob_close(u, ti)), None)
                    if b is None:
                        raise DomainError(
                            f"transition on chart {c} side {side} -> {cj} "
                            f"has no reciprocal")
                    row.append(b)
            self.back.append(row)
        self.tol = [ch.inradius for ch in charts]
        # dist(w, v) < r iff |w - v|^2 < sinh^2(r / 2) e_w e_v
        self.tol_s = [math.sinh(0.5 * r) ** 2 for r in self.tol]


class _Development:
    """The tiles of the universal cover around one chart's home tile,
    grown as queries reach them and shared by every ball_tiles call based
    in that chart.

    Node 0 is the home tile, the chart at the identity placement.  Each
    node keeps its chart, the node and slot it was first reached from,
    and its placed chart centre w in the home frame, with 1 - |w|^2
    computed without cancellation.  A node that a query has expanded
    also keeps its home-frame placement and, in (side, transition) order,
    the index of each side neighbour (-1 for a neighbour not yet
    identified) with that neighbour's placed centre and 1 - |w|^2.  A
    neighbour is identified, and made a node if new, only once some
    query finds its centre within reach; the tiles beyond the reach of
    every query (about two in three of the neighbours on the benchmark)
    are never stored.

    Two placements are one node when their placed centres lie within the
    chart's inradius r: distinct tiles have disjoint interiors and each
    holds the disk of its chart's inradius about its centre, so a centre
    within r of a tile's centre lies inside that tile and belongs to it,
    while two placements of one tile differ by rounding only.  This holds
    however large the placement coefficients grow, for charts whose centre
    lies in their polygon (ChartComplex.development).  Centres are indexed
    by polar cells about the origin of the home frame: ring k holds the
    distances in [k, k + 1) and splits into max(1, floor(2 pi sinh k))
    sectors.  A dict maps each cell of each chart to its last node, and
    each node links to the one before it in its cell.
    """

    def __init__(self, crossings: "_Crossings", home: int):
        self.slots, self.reach, self.back = (crossings.slots, crossings.reach,
                                             crossings.back)
        self.tol, self.tol_s = crossings.tol, crossings.tol_s
        self.chart = array("H")
        self.parent = array("i")
        self.slot = array("H")
        self.wr, self.wi = array("d"), array("d")  # placed centre
        self.e = array("d")  # 1 - |w|^2
        self.expanded = array("i")  # index into the arrays below, or -1
        self.ar, self.ai = array("d"), array("d")  # placement a
        self.br, self.bi = array("d"), array("d")  # placement b
        self.first = array("i")  # offset of the neighbours in adj
        self.adj = array("i")
        # each neighbour's placed centre and 1 - |w|^2, next to adj
        self.nr, self.ni, self.ne = array("d"), array("d"), array("d")
        self.cells: dict[int, int] = {}  # a cell's last node
        self.prev = array("i")  # the node before it in its cell, or -1
        c = crossings.centers[home]
        self._node(home, c.real, c.imag, _one_minus_sq(c), -1, 0)

    def neighbours(self, i: int) -> int:
        """Offset in adj of node i's neighbours.  The first call stores the
        node's placement and places each neighbour, unidentified (-1)."""
        x = self.expanded[i]
        if x >= 0:
            return self.first[x]
        p = self.parent[i]
        a, b = 1.0, 0.0  # the home tile's identity placement
        if p >= 0:
            x, t = self.expanded[p], self.slots[self.chart[p]][self.slot[i]][1]
            a, b = G.compose(complex(self.ar[x], self.ai[x]),
                             complex(self.br[x], self.bi[x]), t.a, t.b)
        ca, cb = a.conjugate(), b.conjugate()
        self.expanded[i] = len(self.first)
        self.ar.append(a.real)
        self.ai.append(a.imag)
        self.br.append(b.real)
        self.bi.append(b.imag)
        off = len(self.adj)
        self.first.append(off)
        for _, tc, et in self.reach[self.chart[i]]:
            den = cb * tc + ca
            w = (a * tc + b) / den
            self.adj.append(-1)
            self.nr.append(w.real)
            self.ni.append(w.imag)
            self.ne.append(et / (den.real * den.real + den.imag * den.imag))
        if p >= 0:
            self.adj[off + self.back[self.chart[p]][self.slot[i]]] = p
        return off

    def _find(self, cj: int, k: int, sec: int, wr: float, wi: float,
              s: float) -> int:
        """A node in cell (k, sec) of chart cj with |w_j - w|^2 < s e_j,
        or -1."""
        j = self.cells.get((sec * 0x10000 + k) * len(self.slots) + cj, -1)
        while j >= 0:
            dr, di = self.wr[j] - wr, self.wi[j] - wi
            if dr * dr + di * di < s * self.e[j]:
                return j
            j = self.prev[j]
        return -1

    @staticmethod
    def _n_sectors(k: int) -> int:
        return max(1, int(2.0 * math.pi * math.sinh(k)))

    def _node(self, cj: int, wr: float, wi: float, e: float, parent: int,
              slot: int) -> int:
        """Index of the node of chart cj centred at w, made if new."""
        r, s = self.tol[cj], self.tol_s[cj] * e
        rho, x = _polar(wr, wi, e)
        k0 = int(rho)
        n0 = self._n_sectors(k0)
        s0 = math.floor(x * n0) % n0
        j = self._find(cj, k0, s0, wr, wi, s)
        if j >= 0:
            return j
        # a centre within r of w lies in rings floor(rho -+ r) and, as
        # cosh d >= 1 + 2 sinh^2(min rho) sin^2(dtheta / 2), at an angle
        # within 2 asin(sinh(r / 2) / sinh(min rho)) of w's (1 % slack)
        for k in range(max(0, int(rho - r)), int(rho + r) + 1):
            n = self._n_sectors(k)
            low = min(rho, max(k, rho - r))
            ratio = 1.01 * math.sinh(0.5 * r) / math.sinh(low) \
                if low > 0 else 1.0
            lo, hi = 0, n - 1
            if ratio < 1.0:
                half = math.asin(ratio) / math.pi
                lo = math.floor((x - half) * n)
                hi = min(lo + n - 1, math.floor((x + half) * n))
            for sec in range(lo, hi + 1):
                if k != k0 or sec % n != s0:
                    j = self._find(cj, k, sec % n, wr, wi, s)
                    if j >= 0:
                        return j
        i = len(self.chart)
        self.chart.append(cj)
        self.parent.append(parent)
        self.slot.append(slot)
        self.wr.append(wr)
        self.wi.append(wi)
        self.e.append(e)
        self.expanded.append(-1)
        key = (s0 * 0x10000 + k0) * len(self.slots) + cj
        self.prev.append(self.cells.get(key, -1))
        self.cells[key] = i
        return i


def _one_minus_sq(z: complex) -> float:
    return 1.0 - (z.real * z.real + z.imag * z.imag)


def _polar(wr: float, wi: float, e: float) -> tuple[float, float]:
    """Distance of w from the origin, from e = 1 - |w|^2 so that it keeps
    its precision near the boundary, and w's angle in turns."""
    return (math.acosh(max(2.0 / e - 1.0, 1.0)),
            math.atan2(wi, wr) / (2.0 * math.pi))


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

    The walk runs over base.chart's development graph, so a tile reached
    twice is known by its node index, and a node whose stored centre is
    surely far is skipped unplaced.  Every other placement is composed
    from the seed in (side, transition) order and decided on its
    coefficients; only a kept tile becomes a Mobius and a Tile.  The
    tiles, their order, placements and depths do not depend on what
    earlier queries grew.
    """
    seed = G.Mobius.translate_to(base.z).inverse()
    charts = cc.charts
    dev = cc.development(base.chart)
    if not _meets_ball(charts[base.chart], -seed.b / seed.a, radius):
        return []
    # node j is surely far when 2 |w_j - z|^2 / ((1 - |z|^2) e_j) exceeds
    # cosh(radius + center_radius + _FAR_MARGIN) - 1, the threshold far[cj]
    # of its chart, computed when the walk first meets the chart
    z = base.z
    zr, zi = z.real, z.imag
    ez = 0.5 * (1.0 - (zr * zr + zi * zi))
    far = [None] * len(charts)
    nr, ni, ne, adj, slots = dev.nr, dev.ni, dev.ne, dev.adj, dev.slots
    out = [Tile(base.chart, seed, 0)]
    frontier = [(0, base.chart, seed.a, seed.b)]
    seen = {0}
    depth = 0
    while frontier:
        if depth >= WORD_CAP:
            raise RadiusCap(f"development exceeded {WORD_CAP} side crossings "
                            f"within radius {radius}")
        depth += 1
        new_frontier = []
        for node, chart, pa, pb in frontier:
            off = dev.neighbours(node)
            for k, (cj, t) in enumerate(slots[chart]):
                j = adj[off + k]
                if j in seen:
                    continue
                far_j = far[cj]
                if far_j is None:
                    far_j = far[cj] = ez * (math.cosh(
                        radius + charts[cj].center_radius + _FAR_MARGIN) - 1)
                dr, di = nr[off + k] - zr, ni[off + k] - zi
                if dr * dr + di * di > far_j * ne[off + k]:
                    continue
                if j < 0:
                    # identified only once some query may reach it
                    j = adj[off + k] = dev._node(cj, nr[off + k], ni[off + k],
                                                 ne[off + k], node, k)
                    if j in seen:
                        continue
                seen.add(j)
                # tile.placement @ t puts the origin at -b / a
                a, b = G.compose(pa, pb, t.a, t.b)
                if _meets_ball(charts[cj], -b / a, radius):
                    out.append(Tile(cj, G.Mobius(a, b), depth))
                    new_frontier.append((j, cj, a, b))
                    if len(out) > TILE_CAP:
                        raise RadiusCap(
                            f"development exceeded {TILE_CAP} tiles "
                            f"within radius {radius}")
        frontier = new_frontier
    return out


def by_chart(points: list[SurfacePoint]) -> dict[int, list]:
    """The points grouped by chart, as chart -> [(index into points, z)]
    in point order: what point_lifts reads.  The owner of a point list
    groups it once, however many developments it lifts it into."""
    out = {}
    for j, p in enumerate(points):
        out.setdefault(p.chart, []).append((j, p.z))
    return out


def point_lifts(tiles: list[Tile],
                grouped: dict[int, list]) -> list[tuple[int, complex, Tile]]:
    """Every lift of every point of grouped (by_chart) on the tiles, as
    (index into points, lift, tile) triples in tile order and then point
    order.  Each lift is the placement's formula (a z + b) / (conj(b) z +
    conj(a)) in scalar complex arithmetic, so it is bit-identical wherever
    it is read."""
    out = []
    for t in tiles:
        a, b = t.placement.a, t.placement.b
        ca, cb = a.conjugate(), b.conjugate()
        out += [(j, (a * z + b) / (cb * z + ca), t)
                for j, z in grouped.get(t.chart, ())]
    return out


def locate(cc: ChartComplex, tiles: list[Tile],
           z: complex) -> SurfacePoint | None:
    """The surface point of a development point z: chart-local
    coordinates in the first tile whose closed polygon holds z, to
    CHART_TOL."""
    for t in tiles:
        w = t.placement.inverse()(z)
        if cc.charts[t.chart].outside(w) <= CHART_TOL:
            return SurfacePoint(t.chart, w)
    return None
