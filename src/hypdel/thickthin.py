"""Thick-thin machinery: cylinders, standard triangulations, epsilon nets.

The epsilon-thin part of a closed hyperbolic surface is a disjoint union of
cylinders around the closed geodesics shorter than 2*epsilon.  Thin
cylinders (waist < 2*epsilon') get a fixed 9-vertex triangulation; thick
ones get a 3-vertex waist cycle; the rest of the surface is covered by a
greedy (epsilon/2)-separated net.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry as G
from . import tiling as T
from .errors import (ConstructionFailure, InvalidEpsilon, MeshError,
                     WrongClassification)
from .surface import ShortGeodesic, SurfaceAtlas

EPSILON_DEFAULT = 0.72


def k_c(eps: float, length: float) -> float:
    """Orthogonal distance from the waist to the injectivity-radius-eps
    boundary curves of its cylinder."""
    x = math.sinh(eps) / math.sinh(0.5 * length)
    if x < 1.0:
        return 0.0
    return math.acosh(x)


@dataclass
class Cylinder:
    geodesic: ShortGeodesic
    length: float
    K_C: float
    epsilon: float
    kind: str  # "thin" | "thick"

    @property
    def waist_element(self) -> G.Mobius:
        return self.geodesic.element


def detect_thin_part(atlas: SurfaceAtlas,
                     eps: float = EPSILON_DEFAULT) -> list[Cylinder]:
    if not (0.0 < eps < math.asinh(1.0)):
        raise InvalidEpsilon(f"epsilon {eps} not in (0, arcsinh 1)")
    eps_p = 0.99 * eps
    out = []
    for sg in atlas.short_geodesics(2.0 * eps):
        kind = "thin" if sg.length < 2.0 * eps_p else "thick"
        out.append(Cylinder(sg, sg.length, k_c(eps, sg.length), eps, kind))
    if len(out) > 3 * atlas.genus - 3:
        raise ConstructionFailure(
            f"{len(out)} cylinders exceeds 3g-3 = {3*atlas.genus-3}")
    _disjointness_audit(out, eps)
    return out


def _disjointness_audit(cyls: list[Cylinder], eps: float):
    """Boundary curves of distinct widened collars must be > 2*eps/3 apart.

    d(boundary_i, boundary_j) = d(waist_i, waist_j) - K_i - K_j.  Fix the
    lifted axis A of waist_j through a point p of waist_j.  The waist
    distance is the minimum, over lifts of waist_i, of the distance from
    their axes to A: no lift comes closer, and by deck translation along
    waist_j the closest approach may be assumed within length_j/2 of p.
    The realizing lift of waist_i then has a fundamental tile within

        R = D + length_j/2 + length_i/2 + center_radius_i

    of p, where D is the distance to certify: enumerating the tile ball of
    radius R around p sees every potentially violating lift."""
    if len(cyls) < 2:
        return
    cc = cyls[0].geodesic.atlas.cc
    threshold = 2.0 * eps / 3.0
    for j, c2 in enumerate(cyls):
        others = cyls[:j]
        if not others:
            continue
        # R, with D = K_i + K_j + threshold and a margin of 0.2
        radius = max(c1.K_C + c2.K_C + threshold
                     + 0.5 * (c1.length + c2.length)
                     + cc.charts[c1.geodesic.chart].center_radius + 0.2
                     for c1 in others)
        tiles = T.ball_tiles(cc, c2.geodesic.basepoint(), radius)
        # A is the lift whose axis passes through p, at the origin; with A
        # on the real diameter, each lifted axis of waist_i is known by its
        # two ideal endpoints
        for g in c2.geodesic.lifts(tiles):
            to_real = G.axis_frame(g).inverse()
            if G.dist_to_diameter(to_real(0))[0] < 1e-7:
                break
        else:
            raise ConstructionFailure(
                "could not re-anchor waist axis at its own basepoint")
        for c1 in others:
            best = math.inf
            for g1p in c1.geodesic.lifts(tiles):
                f = to_real @ G.axis_frame(g1p)
                best = min(best, G.diameter_gap(f(1.0), f(-1.0)))
            gap = best - c1.K_C - c2.K_C
            if gap <= threshold:
                raise ConstructionFailure(
                    f"cylinder boundaries only {gap} apart", witness=(c1, c2))


_VERTEX_NAMES = ["x1-", "x2-", "x3-", "x1", "x2", "x3", "x1+", "x2+", "x3+"]


@dataclass
class StandardTriangulation:
    cylinder: Cylinder
    vertices: dict  # name -> SurfacePoint
    dev_positions: dict  # name -> lift in the cylinder development
    edges: list  # (name, name)
    triangles: list  # (name, name, name)
    chart: int  # development seed chart

    def edge_length(self, u: str, v: str) -> float:
        # wrap-around edges need the waist-translated lift of v
        g = self.cylinder.waist_element
        zu, zv = self.dev_positions[u], self.dev_positions[v]
        return min(G.dist(zu, zv), G.dist(zu, g(zv)),
                   G.dist(zu, g.inverse()(zv)))


def _cylinder_points(atlas: SurfaceAtlas, cyl: Cylinder, offsets):
    """Surface points at Fermi coordinates (i*l/3, d) for d in offsets."""
    sg = cyl.geodesic
    af = G.axis_frame(sg.element)
    l = cyl.length
    reach = max(abs(d) for d in offsets)
    cc = atlas.cc
    ch = cc.charts[sg.chart]
    radius = ch.center_radius + 0.5 * l + reach + 0.3
    tiles = T.ball_tiles(cc, T.SurfacePoint(sg.chart, ch.center), radius)
    names, points, dev = [], {}, {}
    for i in range(3):
        fi = af @ G.Mobius.translation_x(i * l / 3.0)
        for d, suffix in zip(offsets, ("-", "", "+")[: len(offsets)]):
            z = fi(1j * math.tanh(0.5 * d))
            sp = T.locate(cc, tiles, z)
            if sp is None:
                raise ConstructionFailure(
                    f"could not locate cylinder vertex at ({i}, {d})")
            name = f"x{i+1}{suffix}" if len(offsets) > 1 else f"x{i+1}"
            points[name] = sp
            dev[name] = z
    return points, dev


def standard_triangulation(atlas: SurfaceAtlas,
                           cyl: Cylinder) -> StandardTriangulation:
    """The 9-vertex, 21-edge, 12-triangle triangulation of a thin cylinder."""
    if cyl.kind != "thin":
        raise WrongClassification("standard triangulation needs a thin cylinder")
    pts, dev = _cylinder_points(atlas, cyl, (-cyl.K_C, 0.0, cyl.K_C))
    edges, triangles = [], []
    for i in range(3):
        a, b = i + 1, (i + 1) % 3 + 1
        edges += [(f"x{a}-", f"x{b}-"), (f"x{a}-", f"x{a}"),
                  (f"x{a}-", f"x{b}"), (f"x{a}", f"x{b}"),
                  (f"x{a}", f"x{a}+"), (f"x{a}", f"x{b}+"),
                  (f"x{a}+", f"x{b}+")]
        triangles += [(f"x{a}-", f"x{b}-", f"x{b}"),
                      (f"x{a}-", f"x{b}", f"x{a}"),
                      (f"x{a}", f"x{b}", f"x{b}+"),
                      (f"x{a}", f"x{b}+", f"x{a}+")]
    return StandardTriangulation(cyl, pts, dev, edges, triangles,
                                 cyl.geodesic.chart)


@dataclass
class StandardCycle:
    cylinder: Cylinder
    vertices: dict
    dev_positions: dict
    edges: list
    chart: int


def standard_cycle(atlas: SurfaceAtlas, cyl: Cylinder) -> StandardCycle:
    if cyl.kind != "thick":
        raise WrongClassification("standard cycle needs a thick cylinder")
    pts, dev = _cylinder_points(atlas, cyl, (0.0,))
    edges = [("x1", "x2"), ("x2", "x3"), ("x3", "x1")]
    return StandardCycle(cyl, pts, dev, edges, cyl.geodesic.chart)


def cycle_covering_audit(cyl: Cylinder, cycle: StandardCycle,
                         n_s: int = 48, n_t: int = 16) -> float:
    """Max distance from a sampled cylinder point to the nearest cycle
    vertex; the covering guarantee wants this <= eps/2."""
    g = cyl.waist_element
    af = G.axis_frame(g)
    verts = [cycle.dev_positions[n] for n in ("x1", "x2", "x3")]
    lifts = []
    for k in (-1, 0, 1):
        shift = G.Mobius.identity()
        if k == -1:
            shift = g.inverse()
        elif k == 1:
            shift = g
        lifts += [shift(v) for v in verts]
    worst = 0.0
    for i_s in range(n_s):
        s = cyl.length * i_s / n_s
        for i_t in range(-n_t, n_t + 1):
            t = cyl.K_C * i_t / n_t
            z = (af @ G.Mobius.translation_x(s))(1j * math.tanh(0.5 * t))
            d = min(G.dist(z, w) for w in lifts)
            worst = max(worst, d)
    return worst


# ---------------------------------------------------------------------------
# closed-form audits
# ---------------------------------------------------------------------------

@dataclass
class AuditReport:
    name: str
    passed: bool
    values: dict


def collar_margin_audit(eps: float, n_grid: int = 2000) -> AuditReport:
    """Infimum over waist lengths of collar width minus cylinder width; the
    thin-part machinery needs it to exceed eps/3."""
    if not (0.0 < eps < math.asinh(1.0)):
        raise InvalidEpsilon(f"epsilon {eps} not in (0, arcsinh 1)")
    grid = [2.0 * eps * (k + 1) / n_grid for k in range(n_grid)]
    margins = [G.collar_width(l) - k_c(eps, l) for l in grid]
    inf_margin = min(margins)
    # closed-form limit as l -> 0: both widths diverge, difference tends to
    # arcsinh(1/sinh(l/2)) - arccosh(sinh(e)/sinh(l/2)) -> -log(sinh(eps))
    limit = -math.log(math.sinh(eps))
    inf_margin = min(inf_margin, limit)
    positive = all(m > 0 for m in margins)
    return AuditReport(
        "collar_margin",
        passed=(inf_margin > eps / 3.0) and positive,
        values={"epsilon": eps, "infimum": inf_margin, "limit_l_to_0": limit,
                "threshold": eps / 3.0, "all_positive": positive})


def thin_constants_audit(eps: float = EPSILON_DEFAULT,
                          n_grid: int = 500) -> AuditReport:
    """Thick-cylinder covering constants: cosh K_C <= 1.02 and the
    vertex-to-intersection distance cosh d(gamma, p) >= 1.03 over the thick
    waist range [2*eps', 2*eps]."""
    eps_p = 0.99 * eps
    ks, ds = [], []
    for k in range(n_grid + 1):
        l = 2.0 * eps_p + (2.0 * eps - 2.0 * eps_p) * k / n_grid
        ks.append(math.sinh(eps) / math.sinh(0.5 * l))
        ds.append(math.cosh(0.5 * eps) / math.cosh(l / 6.0))
    return AuditReport(
        "thin_constants",
        passed=(max(ks) <= 1.02 and min(ds) >= 1.03),
        values={"max_cosh_KC": max(ks), "min_cosh_d": min(ds),
                "margin_KC": 1.02 - max(ks), "margin_d": min(ds) - 1.03})


def appendixA_quantities(eps: float, l: float) -> dict:
    k = k_c(eps, l)
    c6 = math.cosh(l / 6.0)
    d1 = math.atanh(math.tanh(k) / c6)           # d(m_i, m_i^+)
    d2 = math.atanh(c6 * math.tanh(0.5 * k))     # d(m_i, c_i)
    half_top = math.asinh(math.sinh(l / 6.0) * math.cosh(k))
    d3 = math.acosh(math.cosh(0.5 * eps) / math.cosh(half_top))  # d(m_i^+, p)
    d4 = math.acosh(c6 * math.cosh(d2))          # d(c_i, x_i)
    return {"d_mi_miplus": d1, "d_mi_ci": d2, "d_miplus_p": d3,
            "d_ci_xi": d4, "combo": d1 - d2 - d4,
            "top_edge": 2.0 * half_top}


def appendixA_audit(eps: float = EPSILON_DEFAULT,
                    n_grid: int = 2000) -> AuditReport:
    """Circumdisk-emptiness margin audit for thin-cylinder top triangles.

    Over waist lengths l in (0, 2*eps'], the quantity
    d(m,m+) - d(m,c) - d(c,x) decreases to about -0.180 at l = 2*eps',
    while d(m+,p) increases from about 0.247 as l -> 0; their sum stays
    positive, which is what makes the standard triangles Delaunay.
    """
    eps_p = 0.99 * eps
    grid = [2.0 * eps_p * (k + 1) / n_grid for k in range(n_grid)]
    combos, d3s, sums = [], [], []
    for l in grid:
        q = appendixA_quantities(eps, l)
        combos.append(q["combo"])
        d3s.append(q["d_miplus_p"])
        sums.append(q["combo"] + q["d_miplus_p"])
    tiny = appendixA_quantities(eps, 1e-6)
    combo_decreasing = all(a >= b - 1e-12 for a, b in zip(combos, combos[1:]))
    d3_increasing = all(a <= b + 1e-12 for a, b in zip(d3s, d3s[1:]))
    return AuditReport(
        "appendixA",
        passed=(combo_decreasing and d3_increasing and min(sums) > 0),
        values={"combo_min": combos[-1], "combo_at_2epsp": combos[-1],
                "d3_infimum": tiny["d_miplus_p"],
                "sum_min": min(sums),
                "combo_decreasing": combo_decreasing,
                "d3_increasing": d3_increasing})


# ---------------------------------------------------------------------------
# thick-part net
# ---------------------------------------------------------------------------

@dataclass
class EpsilonNet:
    points: list  # SurfacePoints accepted by the greedy pass
    separation: float
    delta: float
    n_candidates: int


def _chart_candidates(ch: T.Chart, delta: float) -> np.ndarray:
    """Grid of chart-local points with hyperbolic spacing <= delta.

    Generated on a euclidean grid in coordinates recentered at the chart
    center, where the metric distortion over the chart is bounded."""
    f = G.Mobius.translate_to(ch.center)
    fi = f.inverse()
    r_eu = math.tanh(0.5 * ch.center_radius)
    h = 0.5 * delta * (1.0 - r_eu * r_eu)
    n = int(math.ceil(2.0 * r_eu / h))
    if n < 2:
        raise MeshError("degenerate candidate grid")
    xs = np.linspace(-r_eu, r_eu, n)
    gx, gy = np.meshgrid(xs, xs)
    w = (gx + 1j * gy).ravel()
    w = w[np.abs(w) < r_eu]
    z = f.apply_many(w)
    # keep points inside the chart polygon
    keep = np.ones(len(z), dtype=bool)
    for fi in ch.side_inverses:
        keep &= fi.apply_many(z).imag >= 0.0
    return z[keep]


def _exclude_thin(cc: T.ChartComplex, chart: int, z: np.ndarray,
                  thin: list[Cylinder], margin: float = 1e-9) -> np.ndarray:
    """Mask of chart-local candidates within K_C of some thin cylinder's
    waist.

    One development around the chart center serves every cylinder: its
    radius is the largest of the per-cylinder radii
    center_radius + K_C + length/2 + 0.3, so every lift of every waist that
    a ball of its own radius would find is in it.  Candidates lie within
    center_radius of the center, so a lifted axis farther than
    center_radius + K_C from it excludes none of them and is skipped.

    Tiles that differ by a power of the waist carry the same lifted axis,
    so each axis is applied once: one whose ideal endpoints are both within
    1e-7 of those of an applied axis of the same cylinder is skipped.
    Distinct lifts of a simple closed geodesic are disjoint and at least
    2 collar_width(length) > 2 apart (collar lemma), and two axes that pass
    within reach of the center with endpoints 1e-7 apart would be far
    closer than that.  The endpoints of one axis computed from two tiles
    differ by rounding error only (at most 2e-12 on the genus-2 and
    genus-3 chains, against at least 1.2 between distinct axes)."""
    ch = cc.charts[chart]
    radius = max(ch.center_radius + c.K_C + 0.5 * c.length + 0.3
                 for c in thin)
    tiles = T.ball_tiles(cc, T.SurfacePoint(chart, ch.center), radius)
    zdev = G.Mobius.translate_to(ch.center).inverse().apply_many(z)
    mask = np.zeros(len(z), dtype=bool)
    for cyl in thin:
        reach = ch.center_radius + cyl.K_C + margin
        applied = []
        for g in cyl.geodesic.lifts(tiles):
            f = G.axis_frame(g)
            ai = f.inverse()
            if G.dist_to_diameter(ai(0.0))[0] > reach:
                continue
            ends = (f(-1.0), f(1.0))
            if any(abs(ends[0] - e0) < 1e-7 and abs(ends[1] - e1) < 1e-7
                   for e0, e1 in applied):
                continue
            applied.append(ends)
            w = ai.apply_many(zdev)
            hp = (1.0 + w) / (1.0 - w)
            d = np.arccosh(np.maximum(np.abs(hp) / hp.real, 1.0))
            mask |= d <= cyl.K_C + margin
    return mask


def thick_net(atlas: SurfaceAtlas, cylinders: list[Cylinder], seeds: list,
              eps: float = EPSILON_DEFAULT,
              delta: float | None = None) -> EpsilonNet:
    """Greedy (eps/2)-separated net on the complement of the triangulated
    thin cylinders, seeded against seeds, the vertices of the cylinders'
    standard triangulations and cycles.

    Candidates are swept in lexicographic (chart, x, y) order, so the net
    is reproducible bit-for-bit.
    """
    if delta is None:
        delta = eps / 100.0
    if delta > eps / 100.0 + 1e-12:
        raise MeshError(f"delta {delta} exceeds eps/100")
    cc = atlas.cc
    sep = 0.5 * eps

    thin = [cyl for cyl in cylinders if cyl.kind == "thin"]
    chart_cands = []
    n_cands = 0
    for ci, ch in enumerate(cc.charts):
        z = _chart_candidates(ch, delta)
        if thin:
            z = z[~_exclude_thin(cc, ci, z, thin)]
        order = np.lexsort((z.imag, z.real))
        z = z[order]
        chart_cands.append(z)
        n_cands += len(z)
    if n_cands == 0:
        raise MeshError("no candidates generated")

    alive = [np.ones(len(z), dtype=bool) for z in chart_cands]
    xs = [z.real.copy() for z in chart_cands]
    # widens the euclidean disk of the prefilter only: the disk and the
    # exact test below both carry rounding errors of about 1e-15, so no
    # candidate that the exact test would kill lies outside r + pad
    pad = 1e-9

    def kill(p: T.SurfacePoint):
        """Kill the candidates within sep of p.  In the chart of a tile
        these lie in the ball B(q, sep) around the lift q of p, so only
        the candidates of the x-slab and euclidean disk of that ball are
        tested, each with the same arithmetic as a test of all of them."""
        tiles = T.ball_tiles(cc, p, sep + 0.05)
        for t in tiles:
            cands = chart_cands[t.chart]
            disk = G.HypCircle(t.placement.inverse()(0.0), sep)
            c, r = disk.eu_center, disk.eu_radius + pad
            lo, hi = np.searchsorted(xs[t.chart], (c.real - r, c.real + r))
            near = lo + np.flatnonzero(np.abs(cands[lo:hi] - c) <= r)
            if len(near) == 0:
                continue
            d = G.dist_many(0.0, t.placement.apply_many(cands[near]))
            alive[t.chart][near[d < sep]] = False

    for p in seeds:
        kill(p)

    net = []
    for ci in range(len(cc.charts)):
        cands = chart_cands[ci]
        flags = alive[ci]
        k = 0
        while k < len(cands):
            k += int(np.argmax(flags[k:]))
            if not flags[k]:
                break
            p = T.SurfacePoint(ci, complex(cands[k]))
            net.append(p)
            kill(p)
            k += 1
    return EpsilonNet(net, sep, delta, n_cands)


def net_separation_audit(atlas: SurfaceAtlas, net: EpsilonNet,
                         seeds: list, tol: float = 1e-9) -> float:
    """Smallest surface distance from a net point to any other net point
    or seed (independent recomputation; must be >= separation - tol).
    Seed-to-seed spacing is not constrained: cylinder vertices are placed
    at waist spacing length/3, below the net separation."""
    pts = list(net.points) + list(seeds)
    best = math.inf
    for p in net.points:
        tiles = T.ball_tiles(atlas.cc, p, net.separation + 0.05)
        for _, w, _ in T.point_lifts(tiles, pts):
            d = G.dist(0.0, w)
            if d > tol:
                best = min(best, d)
    return best
