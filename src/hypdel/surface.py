"""Closed hyperbolic surfaces from pants decompositions.

A genus-g surface is specified by a trivalent pants graph (2g-2 nodes,
3g-3 edges) plus Fenchel-Nielsen coordinates (length and twist per edge).
Each pair of pants is realized as two right-angled hexagon charts glued
along the three seam orthogeodesics; pants are glued to each other along
cuff sides with the twist applied as a shift of the cuff parametrization.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from . import geometry as G
from . import tiling as T
from .errors import (ConstructionFailure, DomainError, InvalidGenus,
                     InvalidGraph, InvalidLength, MalformedInput)

# Longest cuff a spec may give.  The pants hexagons multiply the cosh of
# two half-cuffs, cosh(x) cosh(y) < e^(x + y), which stays below the
# largest double (about e^709.8) while both cuffs are at most 700.  The
# construction itself fails well below this; the range in which it
# succeeds is not stated here.
MAX_LENGTH = 700.0
# A candidate repeats a kept short geodesic when a lift of the kept one's
# basepoint lies this close to the candidate's axis.
SAME_GEODESIC_TOL = 1e-6


@dataclass(frozen=True)
class PantsGraph:
    """Trivalent multigraph: one node per pair of pants, one edge per cuff."""
    genus: int
    edges: tuple  # tuple of (u, v) pairs; loops and multi-edges allowed

    @property
    def n_nodes(self) -> int:
        return 2 * self.genus - 2

    def validate(self):
        g, edges = self.genus, self.edges
        if g < 2:
            raise InvalidGenus(f"genus {g} < 2")
        n = 2 * g - 2
        if len(edges) != 3 * g - 3:
            raise InvalidGraph(f"expected {3*g-3} edges, got {len(edges)}")
        deg = [0] * n
        adj = [set() for _ in range(n)]
        for (u, v) in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidGraph(f"edge ({u},{v}) out of range")
            deg[u] += 1
            deg[v] += 1
            adj[u].add(v)
            adj[v].add(u)
        bad = [i for i, d in enumerate(deg) if d != 3]
        if bad:
            raise InvalidGraph(f"nodes {bad} do not have degree 3")
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != n:
            raise InvalidGraph("pants graph is disconnected")


def linear_graph(g: int) -> PantsGraph:
    """The linear trivalent graph: a chain v_1..v_{2g-2} with a loop at each
    end, single edges at odd chain positions and double edges at even ones."""
    if g < 2:
        raise InvalidGenus(f"genus {g} < 2")
    edges = [(0, 0)]
    for i in range(1, 2 * g - 2):  # chain position i (1-based), nodes i-1, i
        edges.append((i - 1, i))
        if i % 2 == 0:
            edges.append((i - 1, i))
    edges.append((2 * g - 3, 2 * g - 3))
    return PantsGraph(g, tuple(edges))


@dataclass(frozen=True)
class FNCoordinates:
    lengths: tuple
    twists: tuple

    def validate(self, n_edges: int):
        if len(self.lengths) != n_edges or len(self.twists) != n_edges:
            raise DomainError("coordinate arrays do not match edge count")
        for l in self.lengths:
            if not (0 < l <= MAX_LENGTH):
                raise InvalidLength(
                    f"cuff length {l} not in (0, {MAX_LENGTH}]")


def _hexagon_sides(a1: float, a2: float, a3: float) -> list:
    """Alternating sides [a1, s12, a2, s23, a3, s31] of the right-angled
    hexagon with half-cuffs a1, a2, a3 (seams from the hexagon relation)."""
    def seam(x, y, z):  # seam between half-cuffs x, y; z opposite
        return math.acosh((math.cosh(z) + math.cosh(x) * math.cosh(y))
                          / (math.sinh(x) * math.sinh(y)))
    return [a1, seam(a1, a2, a3), a2, seam(a2, a3, a1), a3, seam(a3, a1, a2)]


def _march_hexagon(sides: list) -> list:
    """Vertices of the right-angled polygon traced by the side sequence,
    starting at 0 heading along +x, turning pi/2 at each corner."""
    f = G.Mobius.identity()
    verts = []
    for s in sides:
        verts.append(f(0))
        f = f @ G.Mobius.translation_x(s) @ G.Mobius.rotation(0.5 * math.pi)
    if not f.is_identity(1e-8):
        raise ConstructionFailure(
            f"hexagon march did not close up: holonomy ({f.a}, {f.b})")
    return verts


@dataclass
class CuffEnd:
    pants: int
    slot: int  # 0, 1, 2


class SurfaceAtlas:
    """Chart atlas of a closed hyperbolic surface.

    Charts 2p and 2p+1 are the front/back hexagons of pants p.  On chart
    2p, side 2i is the half-cuff of slot i and odd sides are seams; chart
    2p+1 mirrors chart 2p, side k matching front side 5-k.
    """

    def __init__(self, graph: PantsGraph, fn: FNCoordinates):
        graph.validate()
        fn.validate(len(graph.edges))
        self.graph = graph
        self.fn = fn
        self.genus = graph.genus

        # cuff slot assignment: edge order fixes slots at each node
        self.ends: list[tuple[CuffEnd, CuffEnd]] = []
        counters = [0] * graph.n_nodes
        for (u, v) in graph.edges:
            eu = CuffEnd(u, counters[u]); counters[u] += 1
            ev = CuffEnd(v, counters[v]); counters[v] += 1
            self.ends.append((eu, ev))
        # half-cuff length per (pants, slot)
        slot_half = {}
        for ei, (eu, ev) in enumerate(self.ends):
            for e in (eu, ev):
                slot_half[(e.pants, e.slot)] = 0.5 * fn.lengths[ei]

        charts = []
        for p in range(graph.n_nodes):
            a = [slot_half[(p, i)] for i in range(3)]
            sides = _hexagon_sides(*a)
            verts = _march_hexagon(sides)
            front = T.Chart(verts, label=f"P{p}+")
            back = T.Chart([v.conjugate() for v in
                            [verts[0]] + verts[:0:-1]], label=f"P{p}-")
            charts.append(front)
            charts.append(back)
        self._glue_seams(charts)
        self._glue_cuffs(charts)
        self.cc = T.ChartComplex(charts)
        # The holonomy's length comes from the trace of a product of seam
        # transitions between chart vertices that crowd the disk boundary
        # as the cuffs grow, so its rounding error grows with the length:
        # 1.6e-8 relative at cuffs of 15, 2.5e-6 at 18, and 1e-13 or less
        # at 1 and below.  The bound is relative, so that it asks the same
        # accuracy of the atlas at every length.  The measured lengths are
        # what the atlas reports as its cuff lengths.
        self.cuff_lengths = [G.translation_length(self._cuff_holonomy(ei))
                             for ei in range(len(graph.edges))]
        for ei, (got, want) in enumerate(zip(self.cuff_lengths, fn.lengths)):
            if abs(got - want) > 1e-7 * want:
                raise ConstructionFailure(
                    f"cuff {ei} holonomy length {got} != {want}")

    # -- gluing ------------------------------------------------------------

    def _glue_seams(self, charts: list[T.Chart]):
        for p in range(self.graph.n_nodes):
            cf, cb = 2 * p, 2 * p + 1
            front, back = charts[cf], charts[cb]
            for j in (1, 3, 5):
                k = 5 - j
                # back side k reversed onto front side j
                t = G.segment_map(back.vertices[k], back.vertices[(k + 1) % 6],
                                  front.vertices[(j + 1) % 6], front.vertices[j])
                front.add_transition(j, cb, t)
                back.add_transition(k, cf, t.inverse())

    def _cuff_side(self, end: CuffEnd, half: int) -> tuple[int, int]:
        """(chart, side) of the front (half=0) or back (half=1) cuff arc."""
        if half == 0:
            return 2 * end.pants, 2 * end.slot
        return 2 * end.pants + 1, 5 - 2 * end.slot

    def _glue_cuffs(self, charts: list[T.Chart]):
        for ei, (eu, ev) in enumerate(self.ends):
            l = self.fn.lengths[ei]
            tau = self.fn.twists[ei]
            a = 0.5 * l
            for near, far in ((eu, ev), (ev, eu)):
                for half in (0, 1):
                    ci, si = self._cuff_side(near, half)
                    off = half * a  # cuff param = side param + off
                    # breakpoints of u in (0, a) where the far-side arc
                    # switches between the far front and back charts
                    brk = {0.0, a}
                    for target in (tau - off, tau - off - a):
                        u = target % l
                        if 1e-12 < u < a - 1e-12:
                            brk.add(u)
                    brk = sorted(brk)
                    ch = charts[ci]
                    for lo, hi in zip(brk, brk[1:]):
                        um = 0.5 * (lo + hi)
                        tq = (tau - off - um) % l
                        if tq < a:
                            cj, sj = self._cuff_side(far, 0)
                            up = tq
                        else:
                            cj, sj = self._cuff_side(far, 1)
                            up = tq - a
                        sigma = um + up
                        t = (ch.side_frames[si]
                             @ G.Mobius.translation_x(sigma)
                             @ G.Mobius.rotation(math.pi)
                             @ charts[cj].side_frames[sj].inverse())
                        ch.add_transition(si, cj, t)

    def _cuff_holonomy(self, ei: int) -> G.Mobius:
        """Deck element of the pants curve: loop through the two seams
        bordering the cuff slot, inside one pair of pants."""
        end = self.ends[ei][0]
        cf = 2 * end.pants
        i = end.slot
        front = self.cc.charts[cf]
        t1 = _single_transition(front, (2 * i + 1) % 6, 2 * end.pants + 1)
        back = self.cc.charts[2 * end.pants + 1]
        t2 = _single_transition(back, (6 - 2 * i) % 6, cf)
        return t1 @ t2

    # -- queries -----------------------------------------------------------

    def short_geodesics(self, threshold: float) -> list["ShortGeodesic"]:
        """All primitive closed geodesics shorter than threshold, one per
        free homotopy class up to inversion.

        Each chart's candidates are the deck elements g read off the tiles
        of its own chart in a ball about its centre c, with c at the
        origin, whose axis passes within r = center_radius + 1e-6 of c and
        whose length l is below threshold.  A hyperbolic isometry with
        axis at distance d from a point moves it by rho, where
        sinh(rho / 2) = cosh(d) sinh(l / 2) (Beardon, The Geometry of
        Discrete Groups, ch. 7).  The tile of g is centred at g(0), so it
        meets the ball of radius 2 asinh(cosh(r) sinh(threshold / 2)), and
        every candidate is found there.  same_geodesic needs r + threshold
        (its docstring), so the ball takes the larger of the two, plus 0.1
        that covers the rounding of the computed axis distances and
        lengths many times over at the cost of a thin shell of tiles.

        A candidate is compared with each kept geodesic in the candidate's
        own detection ball (ShortGeodesic.same_geodesic), so no ball
        outlives its chart's turn."""
        found: list[ShortGeodesic] = []
        for ci, ch in enumerate(self.cc.charts):
            r = ch.center_radius + 1e-6
            radius = max(2.0 * math.asinh(math.cosh(r)
                                          * math.sinh(0.5 * threshold)),
                         r + threshold) + 0.1
            tiles = T.ball_tiles(self.cc, T.SurfacePoint(ci, ch.center),
                                 radius)
            # the seed tile's placement is translate_to(ch.center)^-1
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
                # keep only conjugates whose axis passes through this chart:
                # every geodesic is still found from a chart it crosses, and
                # dedup relies on axes staying near the seed tile
                d_axis, _ = G.dist_to_diameter(G.axis_frame(g).inverse()(0))
                if d_axis <= r:
                    cands.append((length, g))
            for length, g in sorted(cands, key=lambda p: p[0]):
                sg = ShortGeodesic(self, ci, g, length, tiles)
                for prev in found:
                    # only an inverse or power of prev can coincide with sg,
                    # so the length must be a near-integer multiple
                    k = round(length / prev.length)
                    if k >= 1 and abs(length - k * prev.length) <= 1e-6 \
                            and sg.same_geodesic(prev, tiles):
                        break
                else:
                    found.append(sg)
        found.sort(key=lambda s: s.length)
        return found


def _single_transition(ch: T.Chart, side: int, want_chart: int) -> G.Mobius:
    cands = [t for cj, t in ch.transitions[side] if cj == want_chart]
    if len(cands) != 1:
        raise ConstructionFailure(
            f"expected unique transition on side {side}, got {len(cands)}")
    return cands[0]


class ShortGeodesic:
    """A closed geodesic found by deck-element enumeration.

    The deck element g lives in the development seeded at chart `chart`
    recentered at its intrinsic center.  A basepoint on its axis, located
    in a chart, identifies the geodesic as a subset of the surface for
    deduplication.
    """

    def __init__(self, atlas: SurfaceAtlas, chart: int, g: G.Mobius,
                 length: float, tiles: list[T.Tile]):
        self.atlas = atlas
        self.chart = chart
        self.element = g
        self.length = length
        # the foot of the origin on the axis, within center_radius + 1e-6
        # of the origin (short_geodesics), so inside the ball of tiles
        self.basepoint = T.locate(atlas.cc, tiles, G.axis_frame(g)(0.0))
        if self.basepoint is None:
            raise ConstructionFailure("could not locate geodesic samples")

    def same_geodesic(self, other: "ShortGeodesic",
                      tiles: list[T.Tile]) -> bool:
        """True if both wrap the same geodesic set (a power or inverse of
        the same primitive also matches; keep the shorter one), to
        SAME_GEODESIC_TOL.  tiles is the ball in which short_geodesics
        found this new candidate, around the center c of self.chart with
        c at the origin; other is kept.

        Closed geodesics shorter than 2 arcsinh 1 are simple and pairwise
        disjoint (Buser, Geometry and Spectra of Compact Riemann Surfaces,
        ch. 4), so the two coincide exactly when the basepoint p of `other`
        lies on this geodesic, that is when a lift of p lies on the axis A
        of self.element.  If p is on the geodesic, its lifts on A recur
        with every period, so one lies within one period of the foot q of
        the origin on A, and d(0, q) <= center_radius + 1e-6 by the filter
        in short_geodesics.  So the lift lies within center_radius + 1e-6 +
        length of the origin, inside the detection radius
        max(2 asinh(cosh(r) sinh(threshold / 2)), r + threshold) + 0.1
        with r = center_radius + 1e-6 (length is below the threshold), and
        the tile that holds it is in tiles.
        """
        to_axis = G.axis_frame(self.element).inverse()
        return any(G.dist_to_diameter(to_axis(w))[0] < SAME_GEODESIC_TOL
                   for _, w, _ in T.point_lifts(
                       tiles, T.by_chart([other.basepoint])))


# -- serialization ----------------------------------------------------------

def json_object(text: str, keys: tuple, what: str) -> dict:
    """The JSON object of text, which must have the given keys."""
    d = json.loads(text)
    if not isinstance(d, dict):
        raise MalformedInput(f"{what} is not a JSON object")
    for k in keys:
        if k not in d:
            raise MalformedInput(f"{what} has no {k!r}")
    return d


def json_list(x, what: str, length: int | None = None) -> list:
    if type(x) is not list or (length is not None and len(x) != length):
        raise MalformedInput(
            f"{what} is not a list" + (f" of {length}" if length else ""))
    return x


def json_int(x, what: str, n: int | None = None) -> int:
    """x, an integer (not a bool), and with n given an index into a list
    of n."""
    if type(x) is not int:
        raise MalformedInput(f"{what} {x!r} is not an integer")
    if n is not None and not 0 <= x < n:
        raise MalformedInput(f"{what} {x} is not in range({n})")
    return x


def json_float(x, what: str) -> float:
    """x, a finite number (not a bool), as a float."""
    if type(x) is float:
        if math.isfinite(x):
            return x
    elif type(x) is int:
        try:
            return float(x)
        except OverflowError:
            pass
    else:
        raise MalformedInput(f"{what} {x!r} is not a number")
    raise MalformedInput(f"{what} {x!r} is not finite")


def spec_from_json(text: str) -> tuple[PantsGraph, FNCoordinates]:
    """The pants graph and coordinates of a spec file, checked as JSON;
    SurfaceAtlas checks that they make a surface."""
    d = json_object(text, ("genus", "graph", "lengths", "twists"), "spec")
    edges = tuple(tuple(json_int(u, "graph node")
                        for u in json_list(e, "graph edge", 2))
                  for e in json_list(d["graph"], "graph"))
    graph = PantsGraph(json_int(d["genus"], "genus"), edges)
    fn = FNCoordinates(
        tuple(json_float(x, "length") for x in json_list(d["lengths"],
                                                         "lengths")),
        tuple(json_float(x, "twist") for x in json_list(d["twists"],
                                                        "twists")))
    return graph, fn

