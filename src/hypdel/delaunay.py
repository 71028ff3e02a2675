"""Delaunay triangulations of point sets on closed hyperbolic surfaces.

The triangulation of the lifted (infinite, Gamma-invariant) point set is
computed star by star: each vertex is recentered at the origin, the lifts
of all points inside an adaptively grown ball are inverted about it, and
its Delaunay star is read off the convex hull of the inverted lifts
(hyperbolic circles are euclidean circles).  A star triangle is certified
when its circumdisk lies well inside the enumerated ball, so no unseen
lift could invade it.  Cocircular degenerate polygons are re-fanned by a
canonical, label-based rule, which makes the output independent of
insertion order and invariant under the deck group.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import geometry as G
from . import surface as S
from . import thickthin as TT
from . import tiling as T
from .errors import (ConstructionFailure, DegenerateTriangle, DomainError,
                     MalformedInput, NoCompactCircumdisk, RadiusCap)
from .surface import SurfaceAtlas

DEGEN_TOL = 1e-9  # cocircularity detection, hyperbolic distance units
KEY_DECIMALS = 6
# An edge placement read back must be in the normal form |a|^2 - |b|^2 = 1
# that complex_to_json writes, up to this much relative to |a|^2 + |b|^2.
# A placement is a product of side transitions, and each product keeps the
# form to a few ulps of |a|^2 + |b|^2; the stored benchmark inputs are off
# by at most 4.7e-15, so this bound leaves a margin of 2e4 for longer words
# and still refuses coefficients that were never a placement.
PLACEMENT_TOL = 1e-10


@dataclass
class Edge:
    u: int
    v: int
    placement: G.Mobius  # chart(points[v]) placed in u's centered frame
    length: float


@dataclass
class Triangle:
    labels: tuple  # vertex indices (ccw)
    lifts: tuple   # their lifts in the frame of the anchor vertex labels[0]


@dataclass
class TriComplex:
    points: list  # SurfacePoints
    edges: list   # Edge
    triangles: list  # Triangle
    genus: int

    @property
    def n_vertices(self):
        return len(self.points)

    def euler_check(self):
        v, e, f = len(self.points), len(self.edges), len(self.triangles)
        if v - e + f != 2 - 2 * self.genus:
            raise ConstructionFailure(
                f"Euler count v-e+f = {v - e + f} != {2 - 2*self.genus}",
                witness=(v, e, f))
        if 2 * e != 3 * f:
            raise ConstructionFailure(f"2e != 3f ({e}, {f})")

    def label_triples(self) -> set:
        return {frozenset(t.labels) for t in self.triangles}


def _vertex_sort_key(p: T.SurfacePoint):
    return (p.chart, round(p.z.real, 12), round(p.z.imag, 12))


class _Cloud:
    """Lifts of all points around one recentered vertex."""

    def __init__(self, builder: _StarBuilder, center_idx: int, radius: float):
        tiles = T.ball_tiles(builder.atlas.cc, builder.points[center_idx],
                             radius)
        # keep the ball exactly round: the tile horizon is ragged (up to a
        # tile diameter deep), and stray far lifts create empty crescent
        # circles that pollute the euclidean Delaunay star near the rim
        cutoff = math.tanh(0.5 * radius)
        kept = [lift for lift in T.point_lifts(tiles, builder.grouped)
                if abs(lift[1]) <= cutoff]
        self.labels = labels = [j for j, _, _ in kept]
        self.lifts = [w for _, w, _ in kept]
        self.placements = [t.placement for _, _, t in kept]
        # locate the trivial lift of the center (distance 0 from origin)
        self.center_pos = None
        for k, (j, w, _) in enumerate(kept):
            if j == center_idx and abs(w) < 1e-9:
                self.center_pos = k
        if self.center_pos is None:
            raise ConstructionFailure("center lift missing from its own ball")
        for k, w in enumerate(self.lifts):
            if k != self.center_pos and abs(w) < 1e-9:
                raise DomainError(
                    f"points {center_idx} and {labels[k]} coincide")


def _quant(z: complex) -> tuple:
    return (round(z.real, KEY_DECIMALS), round(z.imag, KEY_DECIMALS))


def _triangle_key(labels, lifts):
    """Deck-invariant canonical key of a lifted triangle (ccw corners): the
    least over its rotations, framed only for those that start at the
    least label, since the key compares labels first."""
    best = None
    for r in range(3):
        if labels[r] != min(labels):
            continue
        la = labels[r], labels[(r + 1) % 3], labels[(r + 2) % 3]
        za = lifts[r], lifts[(r + 1) % 3], lifts[(r + 2) % 3]
        f = G.Mobius.frame(za[0], G.direction(za[0], za[1])).inverse()
        key = (la[0], la[1], la[2], _quant(f(za[1])), _quant(f(za[2])))
        if best is None or key < best:
            best = key
    return best


def _edge_view(seeds, label_a, label_b, lift_b, placement_b):
    """The canonical unordered key of the surface edge between the center
    lift of label_a and the lift of label_b, as seen from a's frame;
    seeds[l] takes point l to the origin."""
    conv = seeds[label_b] @ placement_b.inverse()  # a-frame -> b-frame
    pos_a_in_b = conv(0.0)
    va = (label_a, _quant(lift_b))
    vb = (label_b, _quant(pos_a_in_b))
    return tuple(sorted((va, vb)))


def _ccw_hull(points: list) -> list:
    """Indices of the hull vertices of complex points, counterclockwise
    (Andrew's monotone chain); points on a hull edge and repeats drop out."""
    def turn(a, b, k):  # > 0 when a, b, k turn counterclockwise
        return ((points[b] - points[a]).conjugate()
                * (points[k] - points[a])).imag

    def chain(ks):
        out = []
        for k in ks:
            while len(out) >= 2 and turn(out[-2], out[-1], k) <= 0:
                out.pop()
            out.append(k)
        return out[:-1]
    order = sorted(range(len(points)),
                   key=lambda k: (points[k].real, points[k].imag))
    return chain(order) + chain(reversed(order))


def _hull_star(lifts: list, c: int) -> list:
    """(c, p, q) for each hull edge p'q' of the lifts inverted about
    lifts[c] with the origin strictly inside (_StarBuilder._try_star)."""
    others = [k for k in range(len(lifts)) if k != c]
    inv = [1.0 / (lifts[k] - lifts[c]).conjugate() for k in others]
    hull = _ccw_hull(inv)
    return [(c, others[a], others[b])
            for a, b in zip(hull, hull[1:] + hull[:1])
            if (inv[a].conjugate() * inv[b]).imag > 0]


def _near_circles(lifts: list, disks: list) -> list:
    """Per disk, the indices of the lifts within DEGEN_TOL of its euclidean
    circle, in one numpy pass.  The hyperbolic metric 2|dz| / (1 - |z|^2)
    is at least twice the euclidean one, so a lift within DEGEN_TOL of the
    hyperbolic circle lies within DEGEN_TOL / 2 of the euclidean one; the
    other half covers the rounding of both circles and of numpy."""
    if not disks:
        return []
    w = np.array(lifts)[None, :]
    ec = np.array([d.eu_center for d in disks])[:, None]
    er = np.array([d.eu_radius for d in disks])[:, None]
    near = np.abs(np.abs(w - ec) - er) <= DEGEN_TOL
    return [np.flatnonzero(row).tolist() for row in near]


class _StarBuilder:
    def __init__(self, atlas, points, fans):
        self.atlas = atlas
        self.points = points
        self.grouped = T.by_chart(points)
        self.fans = fans

    def _fan_triangles(self, cloud: _Cloud, poly):
        """Canonical triangulation (list of corner index triples, ccw) of a
        cocircular polygon given by cloud indices: a fan from the apex that
        self.fans names for its label set, else from its
        orbit-lexicographically least vertex."""
        pts = [cloud.lifts[k] for k in poly]
        ec = sum(pts) / len(pts)
        order = sorted(range(len(poly)),
                       key=lambda r: math.atan2((pts[r] - ec).imag,
                                                (pts[r] - ec).real))
        ordered = [poly[r] for r in order]
        labels = [cloud.labels[k] for k in ordered]
        apex = self.fans.get(frozenset(labels))
        if apex is not None:
            a_pos = labels.index(apex)
        else:
            a_pos = min(range(len(labels)), key=lambda r: (
                _vertex_sort_key(self.points[labels[r]]) + (labels[r],)))
        n = len(ordered)
        return [(ordered[a_pos], ordered[(a_pos + r) % n],
                 ordered[(a_pos + r + 1) % n]) for r in range(1, n - 1)]

    def star(self, i):
        """Star triangles of vertex i: list of (labels, lifts, placements)."""
        r = 1.0
        while True:
            cloud = _Cloud(self, i, r)
            result = self._try_star(cloud, r)
            if result is not None:
                return [(tuple(cloud.labels[k] for k in s),
                         tuple(cloud.lifts[k] for k in s),
                         tuple(cloud.placements[k] for k in s))
                        for s in result]
            if r >= T.R_MAX:
                raise RadiusCap(f"star of vertex {i} not certified at "
                                f"radius cap {T.R_MAX}")
            r = min(2.0 * r, T.R_MAX)

    def _try_star(self, cloud: _Cloud, r):
        """Star of the center lift c, or None if radius r does not certify it.

        Inversion about c's lift w_c, w -> (w - w_c)/|w - w_c|^2, maps a circle
        through w_c to a line that misses the origin, and its open disk to the
        open half-plane beyond that line (Brown, Voronoi diagrams from convex
        hulls, IPL 1979).  So the circumdisk of (c, p, q) holds no lift exactly
        when every inverted lift lies on the origin's closed side of the line
        p'q': when p'q' is a hull edge of the inverted lifts with the origin
        strictly inside (_hull_star).  Lifts on one circle through w_c become
        collinear; the hull keeps the two ends, and the cocircularity scan
        finds them all.  When the origin lies outside the hull (a small or
        collinear cloud), the kept edges form an open chain and the closure
        check grows the ball.
        """
        c = cloud.center_pos
        raw = _hull_star(cloud.lifts, c)
        margin = 0.05
        disks = []
        for s in raw:
            try:
                disk = G.circumdisk(*(cloud.lifts[k] for k in s))
            except (NoCompactCircumdisk, DegenerateTriangle):
                return None  # circumdisk escapes or collinear: ball too small
            if 2.0 * disk.radius > r - margin:
                return None  # not certified; grow the ball
            disks.append(disk)
        tris = []
        degen_polys = {}
        for s, disk, near in zip(raw, disks,
                                 _near_circles(cloud.lifts, disks)):
            # cocircularity scan
            on_circle = [k for k in near
                         if abs(G.dist(disk.center, cloud.lifts[k])
                                - disk.radius) <= DEGEN_TOL]
            if len(on_circle) > 3:
                degen_polys[tuple(sorted(on_circle))] = None
            else:
                tris.append(s)
        out = [self._orient(cloud, s) for s in tris]
        seen = set()
        for poly in degen_polys:
            for s in self._fan_triangles(cloud, list(poly)):
                if c in s and s not in seen:
                    seen.add(s)
                    out.append(self._orient(cloud, s))
        # closure: the star must wind all the way around the center, i.e.
        # every center-incident edge borders exactly two star triangles
        # (sparse sets can leave the center near the local hull otherwise)
        neighbor_use = Counter(k for s in out for k in s if k != c)
        if not out or any(n != 2 for n in neighbor_use.values()):
            return None  # partial star; grow the ball
        return out

    @staticmethod
    def _orient(cloud: _Cloud, s):
        a, b, cc_ = (cloud.lifts[k] for k in s)
        cross = ((b - a).real * (cc_ - a).imag - (b - a).imag * (cc_ - a).real)
        if cross < 0:
            s = (s[0], s[2], s[1])
        return s


def lifted_delaunay(atlas: SurfaceAtlas, points: list,
                    fans: dict | None = None) -> TriComplex:
    """Delaunay triangulation of a point set on the surface.

    fans maps the label set of a cocircular polygon to the label to fan it
    from; other polygons fan by the canonical rule.
    """
    if len(points) < 3:
        raise DomainError("need at least 3 points")
    builder = _StarBuilder(atlas, points, fans or {})
    tri_instances = {}   # key -> (labels, lifts, placements)
    stars = {}           # vertex -> set of keys
    for i in range(len(points)):
        keys = set()
        for labels, lifts, placements in builder.star(i):
            key = _triangle_key(labels, lifts)
            keys.add(key)
            tri_instances.setdefault(key, (labels, lifts, placements))
        stars[i] = keys

    # star consistency: every triangle must appear in the star of each of
    # its (distinct) corner labels
    for key, (labels, _, _) in tri_instances.items():
        for l in set(labels):
            if key not in stars[l]:
                raise ConstructionFailure(
                    f"inconsistent stars: triangle {labels} missing at {l}",
                    witness=key)

    # assemble edges
    seeds = [G.Mobius.translate_to(p.z).inverse() for p in points]
    edge_index = {}
    edges = []
    use = []  # per edge, the triangles it borders
    triangles = []
    for labels, lifts, placements in tri_instances.values():
        for r in range(3):
            a, b = r, (r + 1) % 3
            # express corner b's tile in a's canonical centered frame; the
            # instance frame differs from it by the placement of a's tile
            to_a_frame = seeds[labels[a]] @ placements[a].inverse()
            lift_b = to_a_frame(lifts[b])
            placement_b = to_a_frame @ placements[b]
            ek = _edge_view(seeds, labels[a], labels[b], lift_b, placement_b)
            if ek not in edge_index:
                edge_index[ek] = len(edges)
                edges.append(Edge(labels[a], labels[b], placement_b,
                                  G.dist(0.0, lift_b)))
                use.append([])
            use[edge_index[ek]].append(len(triangles))
        triangles.append(Triangle(labels, lifts))

    # each edge must border exactly two triangles
    for e, tis in zip(edges, use):
        if len(tis) != 2:
            raise ConstructionFailure(
                f"edge ({e.u},{e.v}) borders {len(tis)} triangles",
                witness=(e.u, e.v, tis))

    tc = TriComplex(list(points), edges, triangles, atlas.genus)
    tc.euler_check()
    return tc


# ---------------------------------------------------------------------------
# thick-thin pipeline
# ---------------------------------------------------------------------------

@dataclass
class ThickThinResult:
    complex: TriComplex
    # (StandardTriangulation, name -> label) per cylinder; the cylinder
    # vertices are the first labels, the net vertices the rest
    standard: list


def thick_thin_triangulation(atlas: SurfaceAtlas) -> ThickThinResult:
    """Main construction: cylinder vertices plus a greedy thick
    net, triangulated by lifted_delaunay; asserts the standard triangles
    survive and the counting bounds hold."""
    cylinders = TT.detect_thin_part(atlas)
    points = []
    standard = []
    fans = {}  # label set of a standard quad -> its apex
    for cyl in cylinders:
        build = (TT.standard_triangulation if cyl.kind == "thin"
                 else TT.standard_cycle)
        st = build(atlas, cyl)
        idx = {}
        for name, p in st.vertices.items():
            idx[name] = len(points)
            points.append(p)
        standard.append((st, idx))
        # the cocircular cylinder quads fan along the standard diagonals
        for t, u in zip(st.triangles[::2], st.triangles[1::2]):
            fans[frozenset(idx[n] for n in t + u)] = idx[t[0]]
    n_cylinder = len(points)

    points.extend(TT.thick_net(atlas, cylinders, points).points)

    tc = lifted_delaunay(atlas, points, fans)

    # Assertions from the construction's statement
    g = atlas.genus
    if len(points) > 151 * g:
        raise ConstructionFailure(
            f"vertex count {len(points)} exceeds 151g = {151*g}")
    if n_cylinder > 27 * g - 27:
        raise ConstructionFailure(
            f"cylinder vertex count {n_cylinder} exceeds 27g-27")
    triples = tc.label_triples()
    for st, idx in standard:
        for tri in st.triangles:
            if frozenset(idx[n] for n in tri) not in triples:
                raise ConstructionFailure(
                    f"standard triangle {tri} missing from output",
                    witness=(st.cylinder.length, tri))
    return ThickThinResult(tc, standard)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def write_complex(genus: int, points: list, edges: list,
                  triangles: list) -> str:
    """The interchange format: vertices as [chart, x, y]; edges as [u, v,
    placement coefficients], the placement realizing v's lift in u's
    centered frame; triangles as sorted index triples."""
    return json.dumps({
        "genus": genus,
        "vertices": [[p.chart, p.z.real, p.z.imag] for p in points],
        "edges": [[u, v, [m.a.real, m.a.imag, m.b.real, m.b.imag]]
                  for u, v, m in edges],
        "triangles": triangles}, indent=1)


def complex_to_json(tc: TriComplex) -> str:
    """tc with its vertices sorted by (chart, x, y), its edges by their
    endpoints' ranks and length, and its triangles by their corners."""
    order = sorted(range(len(tc.points)),
                   key=lambda i: _vertex_sort_key(tc.points[i]))
    rank = {old: new for new, old in enumerate(order)}
    edges = [(rank[e.u], rank[e.v], e.placement) for e in
             sorted(tc.edges, key=lambda e: (rank[e.u], rank[e.v], e.length))]
    tris = sorted(sorted(rank[l] for l in t.labels) for t in tc.triangles)
    return write_complex(tc.genus, [tc.points[i] for i in order], edges, tris)


def complex_from_json(atlas: SurfaceAtlas, text: str) -> "LoadedComplex":
    d = S.json_object(text, ("genus", "vertices", "edges", "triangles"),
                      "triangulation")
    n_charts = len(atlas.cc.charts)
    points = []
    for p in S.json_list(d["vertices"], "vertices"):
        c, x, y = S.json_list(p, "vertex", 3)
        points.append(T.SurfacePoint(
            S.json_int(c, "vertex chart", n_charts),
            complex(S.json_float(x, "vertex x"), S.json_float(y, "vertex y"))))
    if not points:
        raise MalformedInput("triangulation has no vertices")
    n = len(points)
    edges = []
    for e in S.json_list(d["edges"], "edges"):
        u, v, coeffs = S.json_list(e, "edge", 3)
        ar, ai, br, bi = (S.json_float(x, "edge coefficient")
                          for x in S.json_list(coeffs, "edge coefficients", 4))
        sa, sb = ar * ar + ai * ai, br * br + bi * bi
        if not abs(sa - sb - 1.0) <= PLACEMENT_TOL * (sa + sb):
            raise MalformedInput(
                f"edge placement {[ar, ai, br, bi]} has |a|^2 - |b|^2 = "
                f"{sa - sb}, not 1")
        m = G.Mobius(complex(ar, ai), complex(br, bi), normalize=False)
        edges.append((S.json_int(u, "edge endpoint", n),
                      S.json_int(v, "edge endpoint", n), m))
    tris = [tuple(S.json_int(x, "triangle corner", n)
                  for x in S.json_list(t, "triangle", 3))
            for t in S.json_list(d["triangles"], "triangles")]
    return LoadedComplex(atlas, S.json_int(d["genus"], "genus"), points,
                         edges, tris)


@dataclass
class LoadedComplex:
    """A triangulation as read back from the interchange format."""
    atlas: SurfaceAtlas
    genus: int
    points: list
    edges: list      # (u, v, Mobius)
    triangles: list  # sorted index triples

    def __post_init__(self):
        self.grouped = T.by_chart(self.points)  # what point_lifts reads
        self.edge_map = {}  # (min, max) endpoint pair -> its edge records
        for u, v, m in self.edges:
            self.edge_map.setdefault((min(u, v), max(u, v)), []).append(
                (u, v, m))

    def lift(self, i: int, j: int) -> complex | None:
        """Lift of vertex j in i's centered frame along the stored edge
        between them, or None if there is no such edge or more than one."""
        recs = self.edge_map.get((min(i, j), max(i, j)))
        if not recs or len(recs) != 1:
            return None
        u, v, m = recs[0]
        if u == i:
            return m(self.points[v].z)
        # stored from the far end: m places chart(points[v]) in u's frame,
        # and here v == i; convert through the shared tile to get u's lift
        seed = G.Mobius.translate_to(self.points[v].z).inverse()
        return (seed @ m.inverse())(0.0)
