"""Thick-thin machinery: cylinders, standard triangulations, epsilon nets.

The epsilon-thin part of a closed hyperbolic surface is a disjoint union of
cylinders around the closed geodesics shorter than 2*epsilon.  Thin
cylinders (waist < 2*epsilon') get a fixed 9-vertex triangulation; thick
ones get a 3-vertex waist cycle; the rest of the surface is covered by a
greedy (epsilon/2)-separated net.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry as G
from . import tiling as T
from .errors import ConstructionFailure, MeshError, WrongClassification
from .surface import ShortGeodesic, SurfaceAtlas

# The one thin-part threshold, in the window [0.71746, 0.72182) of both
# bounds: eps >= 4 acosh(1 + 2/124) = 0.71746 keeps the net's packing bound
# 2 (g - 1) / (cosh(eps/4) - 1) plus 27 (g - 1) cylinder vertices at or below
# 151 g (157.3 (g - 1) at eps = 0.70), and eps < 0.72182 keeps -log sinh eps,
# the infimum of the collar margin on (0, 2 eps), above eps/3 (README.md).
# No command varies it, so the paper's closed-form audits of the constants
# it sets are formulas that the tests check (tests/reference.py).
EPSILON = 0.72


def k_c(length: float) -> float:
    """Orthogonal distance from the waist to the injectivity-radius-EPSILON
    boundary curves of its cylinder."""
    x = math.sinh(EPSILON) / math.sinh(0.5 * length)
    if x < 1.0:
        return 0.0
    return math.acosh(x)


@dataclass
class Cylinder:
    geodesic: ShortGeodesic
    length: float
    K_C: float
    kind: str  # "thin" | "thick"


def detect_thin_part(atlas: SurfaceAtlas) -> list[Cylinder]:
    """The cylinders around the closed geodesics shorter than 2 EPSILON.

    The collar theorem keeps their boundary curves more than 2 EPSILON/3
    apart: each collar margin exceeds -log sinh EPSILON > EPSILON/3
    (README.md; the tests check it in closed form, tests/reference.py).
    More than 3g - 3 cylinders would mean that a geodesic was found
    twice."""
    out = []
    for sg in atlas.short_geodesics(2.0 * EPSILON):
        kind = "thin" if sg.length < 2.0 * 0.99 * EPSILON else "thick"
        out.append(Cylinder(sg, sg.length, k_c(sg.length), kind))
    if len(out) > 3 * atlas.genus - 3:
        raise ConstructionFailure(
            f"{len(out)} cylinders exceeds 3g-3 = {3*atlas.genus-3}")
    return out


@dataclass
class StandardTriangulation:
    """The fixed triangulation of a cylinder: 9 vertices and 12 triangles
    on a thin one, a 3-vertex waist cycle and no triangles on a thick one.
    Each consecutive pair of triangles fills one quad of the cylinder and
    starts at the corner that the quad is fanned from."""
    cylinder: Cylinder
    vertices: dict  # name -> SurfacePoint
    triangles: list  # (name, name, name)
    bands: dict  # chart -> [(ai, bound)] it excludes from the net (_bands)
    circumradius: float  # of every triangle (_quad_circumradius), or 0.0


def _cylinder_points(atlas: SurfaceAtlas, cyl: Cylinder, offsets: dict):
    """Surface points x{i+1}{suffix} at Fermi coordinates (i*l/3, d), for
    (suffix, d) in offsets, named offset by offset: the order the
    construction labels them in; and the ball of tiles they lie in."""
    sg = cyl.geodesic
    af = G.axis_frame(sg.element)
    l = cyl.length
    reach = max(abs(d) for d in offsets.values())
    cc = atlas.cc
    ch = cc.charts[sg.chart]
    radius = ch.center_radius + 0.5 * l + reach + 0.3
    tiles = T.ball_tiles(cc, T.SurfacePoint(sg.chart, ch.center), radius)
    frames = [af @ G.Mobius.translation_x(i * l / 3.0) for i in range(3)]
    points = {}
    for suffix, d in offsets.items():
        for i, fi in enumerate(frames):
            sp = T.locate(cc, tiles, fi(1j * math.tanh(0.5 * d)))
            if sp is None:
                raise ConstructionFailure(
                    f"could not locate cylinder vertex at ({i}, {d})")
            points[f"x{i+1}{suffix}"] = sp
    return points, tiles


def standard_triangulation(atlas: SurfaceAtlas,
                           cyl: Cylinder) -> StandardTriangulation:
    """The 9-vertex, 21-edge, 12-triangle triangulation of a thin cylinder."""
    if cyl.kind != "thin":
        raise WrongClassification("standard triangulation needs a thin cylinder")
    pts, tiles = _cylinder_points(atlas, cyl,
                                  {"-": -cyl.K_C, "": 0.0, "+": cyl.K_C})
    triangles = []
    for i in range(3):
        a, b = i + 1, (i + 1) % 3 + 1
        triangles += [(f"x{a}-", f"x{b}-", f"x{b}"),
                      (f"x{a}-", f"x{b}", f"x{a}"),
                      (f"x{a}", f"x{b}", f"x{b}+"),
                      (f"x{a}", f"x{b}+", f"x{a}+")]
    return StandardTriangulation(cyl, pts, triangles,
                                 _bands(atlas.cc, cyl, tiles),
                                 _quad_circumradius(cyl))


def _quad_circumradius(cyl: Cylinder) -> float:
    """Circumradius of the quads of a thin cylinder's standard
    triangulation, and so of each of its triangles.

    In the cylinder's Fermi coordinates (s, d), s along the waist, the
    quads have the corners (s, d) with s in {i l/3, (i + 1) l/3} and d in
    {0, -K_C} or {0, K_C}, for i = 0, 1, 2: the quad across the seam ends
    at x1's next lift, s = l.  A translation along the waist and the
    reflection in it carry each quad to the one with s in {-l/6, l/6} and
    d in {0, K_C}, and the reflection in s = 0 fixes that quad, so its
    circle holds the fourth corner."""
    l = cyl.length
    fermi = [G.Mobius.translation_x(s)(1j * math.tanh(0.5 * d))
             for s, d in ((-l / 6.0, 0.0), (l / 6.0, 0.0), (l / 6.0, cyl.K_C))]
    return G.circumdisk(*fermi).radius


def standard_cycle(atlas: SurfaceAtlas,
                   cyl: Cylinder) -> StandardTriangulation:
    """The 3-vertex waist cycle of a thick cylinder."""
    if cyl.kind != "thick":
        raise WrongClassification("standard cycle needs a thick cylinder")
    pts, _ = _cylinder_points(atlas, cyl, {"": 0.0})
    return StandardTriangulation(cyl, pts, [], {}, 0.0)


# ---------------------------------------------------------------------------
# thick-part net
# ---------------------------------------------------------------------------

@dataclass
class EpsilonNet:
    points: list  # SurfacePoints accepted by the greedy pass
    n_candidates: int


# Hyperbolic distance between neighbouring points of the thick net's
# candidate grid.  The net is (EPSILON/2)-separated at any spacing, and the
# vertex bound reads nothing else.  The spacing sets the covering radius,
# about EPSILON/2 + NET_SPACING/sqrt 2 = 0.3804 (0.3651 at EPSILON/100).
# No step of the construction reads it: the certificate decides whether
# each output is simplicial, Delaunay and made of distance paths
# (README.md).  EPSILON/25 makes 1/16 of the candidates of EPSILON/100.
NET_SPACING = EPSILON / 25.0

# Band test margin: a candidate within K_C + _BAND_MARGIN of a waist is
# excluded.
_BAND_MARGIN = 1e-9


# The exact tests of a chart's grid run on blocks of rows of about this
# many points.  The block bounds the tests' temporaries (a complex128 array
# per side map and per band), which over a whole chart would be the
# construction's memory peak.  The tests are elementwise, so their bits do
# not depend on the block.
_BLOCK_POINTS = 8192


@dataclass
class _ChartGrid:
    """The thick-net candidates of one chart.  They lie on the square grid
    xs[column] + i xs[row] in the coordinates w = f^-1(z) recentred at the
    chart centre, of which only a window is stored: the rows from r0 and
    the columns from c0 on.  alive[row - r0, column - c0] is set for the
    candidates not yet killed, and z holds the chart coordinates of each
    candidate at the same index."""
    f: G.Mobius
    xs: np.ndarray
    r0: int
    c0: int
    alive: np.ndarray
    z: np.ndarray

    def box(self, c: complex, r: float) -> tuple:
        """Row and column slices, in window coordinates, of the grid points
        within r plus one grid step of c in each coordinate: every point of
        the disk |w - c| < r."""
        return (_span(self.xs, c.imag - r, c.imag + r, self.r0),
                _span(self.xs, c.real - r, c.real + r, self.c0))


def _span(xs: np.ndarray, lo: float, hi: float, k0: int = 0) -> slice:
    """The indices, less k0, of the points of the grid xs in
    [lo - step, hi + step]: every point in [lo, hi], with a step to spare
    for rounding."""
    x0, step = xs[0], xs[1] - xs[0]
    return slice(max(0, math.ceil((lo - x0) / step) - 1 - k0),
                 max(0, math.floor((hi - x0) / step) + 2 - k0))


def _chart_grid(ch: T.Chart, bands: list) -> _ChartGrid:
    """The candidate grid of a chart: the points of a square euclidean grid
    in the coordinates w recentred at the chart centre that lie in the
    chart polygon and in none of the bands (pairs (ai, bound) of
    _bands).

    The polygon lies in the disk |w| < r_eu, where the metric
    2 |dw| / (1 - |w|^2) is at most 2 / (1 - r_eu^2) times the euclidean
    one, so grid neighbours h apart are at most NET_SPACING apart.

    The grid is stored over the window of rows and columns that spans the
    bounding box of the polygon's vertices in w, padded by one step.  The
    window holds the whole polygon: each side is a geodesic arc, which
    meets each ray from the origin at most once and bends toward the
    origin, so it lies in the euclidean triangle of the origin and its two
    ends; and the origin, the chart centre, lies in the polygon
    (ChartComplex.development checks it).  Every window point in the disk
    |w| < r_eu gets the exact tests, block by block of rows: the sign of
    Im of each side map of z = f(w), then the band distance of w."""
    f = G.Mobius.translate_to(ch.center)
    r_eu = math.tanh(0.5 * ch.center_radius)
    h = 0.5 * NET_SPACING * (1.0 - r_eu * r_eu)
    n = int(math.ceil(2.0 * r_eu / h)) + 1
    xs = np.linspace(-r_eu, r_eu, n)
    vs = [f.inverse()(v) for v in ch.vertices]
    rows = _span(xs, min(v.imag for v in vs), max(v.imag for v in vs))
    cols = _span(xs, min(v.real for v in vs), max(v.real for v in vs))
    ys, xc = xs[rows], xs[cols]
    grid = _ChartGrid(f, xs, rows.start, cols.start,
                      np.zeros((len(ys), len(xc)), dtype=bool),
                      np.zeros((len(ys), len(xc)), dtype=complex))
    block = max(1, _BLOCK_POINTS // len(xc))
    for i in range(0, len(ys), block):
        w = xc[None, :] + 1j * ys[i:i + block, None]
        inside = np.abs(w) < r_eu
        w = w[inside]
        z = f.apply_many(w)
        ok = np.ones(len(z), dtype=bool)
        for fi in ch.side_inverses:
            ok &= fi.apply_many(z).imag >= 0.0
        if bands:
            ok &= ~_in_bands(w, bands)
        grid.z[i:i + block][inside] = z
        grid.alive[i:i + block][inside] = ok
    return grid


def _bands(cc: T.ChartComplex, cyl: Cylinder, tiles: list[T.Tile]) -> dict:
    """A thin cylinder's bands, chart -> [(ai, bound)]: ai maps a chart's
    recentred coordinates w to those of a lifted waist axis on the real
    diameter, and w within bound = K_C + _BAND_MARGIN of it is excluded.

    tiles is the ball of _cylinder_points around the center o of the
    geodesic's chart, of radius center_radius + length/2 + K_C + 0.3.  It
    holds a lift of every point within K_C of the waist: the axis A passes
    within center_radius + 1e-6 of o (short_geodesics), and sliding along
    A by powers of the waist puts the lift's foot within length/2 of that
    of o, and the lift within center_radius + 1e-6 + length/2 + K_C of o.
    A tile of chart c placed by P carries A to ai = axis_frame(element)^-1
    @ P @ translate_to(c's center).  Candidates lie within center_radius
    of their chart's center, so an axis farther than center_radius + bound
    from it is skipped.

    Tiles that differ by a power of the waist carry the same axis, so one
    whose ideal endpoints are both within 1e-7 of those of an axis listed
    for the chart is skipped.  Distinct lifts of a simple closed geodesic
    are at least 2 asinh(1 / sinh(length/2)) > 2 apart (collar lemma); the
    endpoints of one axis from two tiles differ by rounding only (at most
    1.7e-12 on the chains of genus 2, 3 and 5, against at least 1.2
    between distinct axes)."""
    to_axis = G.axis_frame(cyl.geodesic.element).inverse()
    bound = cyl.K_C + _BAND_MARGIN
    bands, listed = {}, {}
    for t in tiles:
        ch = cc.charts[t.chart]
        ai = to_axis @ t.placement @ G.Mobius.translate_to(ch.center)
        if G.dist_to_diameter(ai(0.0))[0] > ch.center_radius + bound:
            continue
        e0, e1 = map(ai.inverse(), (-1.0, 1.0))
        ends = listed.setdefault(t.chart, [])
        if not any(abs(e0 - a) < 1e-7 and abs(e1 - b) < 1e-7 for a, b in ends):
            ends.append((e0, e1))
            bands.setdefault(t.chart, []).append((ai, bound))
    return bands


def _in_bands(w: np.ndarray, bands: list) -> np.ndarray:
    """Mask of the points w = translate_to(center)^-1(z) that lie in one of
    the bands, by the distance to each axis."""
    mask = np.zeros(len(w), dtype=bool)
    for ai, bound in bands:
        u = ai.apply_many(w)
        hp = (1.0 + u) / (1.0 - u)
        d = np.arccosh(np.maximum(np.abs(hp) / hp.real, 1.0))
        mask |= d <= bound
    return mask


def thick_net(atlas: SurfaceAtlas,
              standard: list[StandardTriangulation]) -> EpsilonNet:
    """Greedy (EPSILON/2)-separated net off the bands of the standard
    triangulations, seeded against their vertices and those of the cycles.

    Candidates are the points of each chart's grid (_chart_grid), swept
    chart by chart in row-major order, so the net is reproducible
    bit-for-bit.  Each net point and seed kills the candidates within
    EPSILON/2 of it by the exact distance test.

    One chart's grid is held at a time: it is built when its sweep starts
    and dropped when the sweep ends.  A kill's tile in a later chart is
    recorded as its placement and applied when that chart's grid is built;
    a tile in a chart already swept is dropped.  Kills only clear flags,
    so the net is the one every grid held at once would give.
    """
    cc = atlas.cc
    sep = 0.5 * EPSILON
    pending = [[] for _ in cc.charts]

    def kill_tile(g: _ChartGrid, placement: G.Mobius):
        """Kill the candidates of g within sep of the point that placement
        maps to 0.  In the recentred coordinates of g they lie in the
        euclidean disk of the ball B(q, sep) around that point's lift q;
        the live candidates of its index box get the exact distance
        test."""
        disk = G.HypCircle((placement @ g.f).inverse()(0.0), sep)
        box = g.box(disk.eu_center, disk.eu_radius)
        flags = g.alive[box]
        if not flags.any():
            return
        d = G.dist_many(0.0, placement.apply_many(g.z[box][flags]))
        flags[flags] = ~(d < sep)

    def kill(p: T.SurfacePoint, ci: int, g: _ChartGrid | None):
        """Kill the candidates within sep of p, while chart ci with grid g
        is swept (ci = -1 before the first sweep)."""
        for t in T.ball_tiles(cc, p, sep + 0.05):
            if t.chart == ci:
                kill_tile(g, t.placement)
            elif t.chart > ci:
                pending[t.chart].append(t.placement)

    for st in standard:
        for p in st.vertices.values():
            kill(p, -1, None)

    net, n_cands = [], 0
    for ci, ch in enumerate(cc.charts):
        g = _chart_grid(ch, [b for st in standard
                             for b in st.bands.get(ci, [])])
        n_cands += int(g.alive.sum())
        for placement in pending[ci]:
            kill_tile(g, placement)
        pending[ci] = None
        flags, z = g.alive.ravel(), g.z.ravel()
        k = 0
        while k < len(flags):
            k += int(np.argmax(flags[k:]))
            if not flags[k]:
                break
            p = T.SurfacePoint(ci, complex(z[k]))
            net.append(p)
            kill(p, ci, g)
            k += 1
        del g, flags, z  # freed before the next chart's grid is built
    if n_cands == 0:
        raise MeshError("no candidates generated")
    return EpsilonNet(net, n_cands)
