import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypdel import geometry as G
from hypdel import thickthin as TT
from hypdel import tiling as T
from hypdel.errors import InvalidEpsilon, WrongClassification
from conftest import (cached_build, cylinder_vertex_count, cylinders,
                      linear_atlas)
from reference import diameter_gap, surface_distance

EPS = TT.EPSILON


def standard_edges() -> list:
    """The 21 edges of the standard triangulation of a thin cylinder."""
    edges = []
    for i in range(3):
        a, b = i + 1, (i + 1) % 3 + 1
        edges += [(f"x{a}-", f"x{b}-"), (f"x{a}-", f"x{a}"),
                  (f"x{a}-", f"x{b}"), (f"x{a}", f"x{b}"),
                  (f"x{a}", f"x{a}+"), (f"x{a}", f"x{b}+"),
                  (f"x{a}+", f"x{b}+")]
    return edges


def edge_length(atlas, std: TT.StandardTriangulation, u: str, v: str):
    """Surface distance between two named vertices of std."""
    return surface_distance(atlas.cc, std.vertices[u], std.vertices[v])


def cycle_covering_audit(atlas, cycle: TT.StandardTriangulation,
                         n_s: int = 48, n_t: int = 16) -> float:
    """Max distance from a sampled cylinder point to the nearest lift of a
    cycle vertex; the covering guarantee wants this <= eps/2."""
    cyl = cycle.cylinder
    sg = cyl.geodesic
    af = G.axis_frame(sg.element)
    # the frame in which sg.element acts: its chart's centre at the origin
    ch = atlas.cc.charts[sg.chart]
    radius = ch.center_radius + cyl.length + cyl.K_C + EPS
    tiles = T.ball_tiles(atlas.cc, T.SurfacePoint(sg.chart, ch.center),
                         radius)
    lifts = [w for _, w, _ in
             T.point_lifts(tiles, T.by_chart(list(cycle.vertices.values())))]
    worst = 0.0
    for i_s in range(n_s):
        s = cyl.length * i_s / n_s
        for i_t in range(-n_t, n_t + 1):
            t = cyl.K_C * i_t / n_t
            z = (af @ G.Mobius.translation_x(s))(1j * math.tanh(0.5 * t))
            d = min(G.dist(z, w) for w in lifts)
            worst = max(worst, d)
    return worst


def net_separation_audit(atlas, net: TT.EpsilonNet, seeds: list,
                         separation: float, tol: float = 1e-9) -> float:
    """Smallest surface distance from a net point to any other net point
    or seed (independent recomputation; must be >= separation - tol).
    Seed-to-seed spacing is not constrained: cylinder vertices are placed
    at waist spacing length/3, below the net separation."""
    pts = list(net.points) + list(seeds)
    best = math.inf
    for p in net.points:
        tiles = T.ball_tiles(atlas.cc, p, separation + 0.05)
        for _, w, _ in T.point_lifts(tiles, T.by_chart(pts)):
            d = G.dist(0.0, w)
            if d > tol:
                best = min(best, d)
    return best


def test_kc_known_value():
    # eps = 0.72, waist 0.5: arccosh(sinh 0.72 / sinh 0.25)
    want = math.acosh(math.sinh(0.72) / math.sinh(0.25))
    assert TT.k_c(0.72, 0.5) == pytest.approx(want, abs=1e-12)
    assert want == pytest.approx(1.7985, abs=5e-4)


@given(st.floats(min_value=0.05, max_value=1.43),
       st.floats(min_value=0.05, max_value=1.43))
def test_kc_monotone_decreasing_in_length(l1, l2):
    lo, hi = min(l1, l2), max(l1, l2)
    assert TT.k_c(EPS, lo) >= TT.k_c(EPS, hi)


def test_invalid_epsilon():
    with pytest.raises(InvalidEpsilon):
        TT.check_epsilon(math.asinh(1.0) + 0.01)
    with pytest.raises(InvalidEpsilon):
        TT.collar_margin_audit(0.0)


def _net_bound_holds(eps):
    # the net's packing bound plus 27 cylinder vertices per unit of g - 1
    return 2.0 / (math.cosh(eps / 4.0) - 1.0) + 27.0 <= 151.0


def _collar_bound_holds(eps):
    # the infimum of collar_margin over (0, 2 eps) above eps/3
    return -math.log(math.sinh(eps)) > eps / 3.0


def test_epsilon_lies_in_its_window():
    assert _net_bound_holds(TT.EPSILON) and _collar_bound_holds(TT.EPSILON)
    # each end of the window is the edge of one bound
    assert not _net_bound_holds(0.717) and _collar_bound_holds(0.717)
    assert _net_bound_holds(0.722) and not _collar_bound_holds(0.722)


def test_detect_all_cuffs_long():
    # cuffs of length 2.0 exceed 2*eps = 1.44: no short geodesics at all
    atlas = linear_atlas(2, (2.0, 2.0, 2.0))
    assert TT.detect_thin_part(atlas) == []


def test_detect_symmetric_g2(g2_build):
    atlas, _, _ = g2_build
    cyls = TT.detect_thin_part(atlas)
    assert len(cyls) == 3  # one per cuff, and 3g-3 = 3
    for c in cyls:
        assert c.kind == "thin" and c.length == pytest.approx(1.0, abs=1e-7)
        assert c.K_C == pytest.approx(TT.k_c(EPS, 1.0), abs=1e-10)


def test_detect_one_short_cuff(g2_thin_build):
    atlas, _, _ = g2_thin_build
    cyls = TT.detect_thin_part(atlas)
    assert len(cyls) == 3
    short = [c for c in cyls if c.length < 0.6]
    assert len(short) == 1
    assert short[0].K_C == pytest.approx(
        math.acosh(math.sinh(0.72) / math.sinh(0.25)), abs=5e-4)


def test_classification_boundary():
    # 1.43 < 2*eps' = 1.4256? no: 1.43 > 1.4256 -> thick;
    # the threshold arithmetic, checked at the Cylinder level
    eps_p = 0.99 * EPS
    assert 2 * eps_p == pytest.approx(1.4256)
    atlas = linear_atlas(2, (1.44 * 0.995, 2.0, 2.0))
    cyls = TT.detect_thin_part(atlas)
    assert len(cyls) == 1 and cyls[0].kind == "thick"


def test_standard_triangulation_counts(g2_build):
    atlas, res, _ = g2_build
    cyl = cylinders(res)[0]
    std = TT.standard_triangulation(atlas, cyl)
    edges = standard_edges()
    assert len(std.vertices) == 9
    assert len(edges) == 21
    assert len(std.triangles) == 12
    # no loops or duplicate edges among the 21
    assert all(u != v for u, v in edges)
    assert len({frozenset(e) for e in edges}) == 21
    # and they are the sides of the 12 triangles
    assert {frozenset(e) for e in edges} == {
        frozenset((t[r], t[(r + 1) % 3])) for t in std.triangles
        for r in range(3)}


def test_standard_triangulation_geometry(g2_build):
    atlas, res, _ = g2_build
    cyl = cylinders(res)[0]
    std = TT.standard_triangulation(atlas, cyl)
    l, k = cyl.length, cyl.K_C
    # waist points equally spaced
    for a, b in (("x1", "x2"), ("x2", "x3"), ("x3", "x1")):
        assert edge_length(atlas, std, a, b) == pytest.approx(l / 3.0,
                                                              abs=1e-9)
    # boundary points sit at distance K_C over their waist point
    for i in (1, 2, 3):
        assert edge_length(atlas, std, f"x{i}", f"x{i}+") == pytest.approx(
            k, abs=1e-9)
        assert edge_length(atlas, std, f"x{i}", f"x{i}-") == pytest.approx(
            k, abs=1e-9)
    # top-edge identity: sinh(d/2) = sinh(l/6) cosh(K_C), and d < eps
    d_top = edge_length(atlas, std, "x1+", "x2+")
    assert math.sinh(0.5 * d_top) == pytest.approx(
        math.sinh(l / 6.0) * math.cosh(k), abs=1e-9)
    assert d_top < EPS


def test_standard_wrong_classification(g2_build):
    atlas, res, _ = g2_build
    thin = cylinders(res)[0]
    with pytest.raises(WrongClassification):
        TT.standard_cycle(atlas, thin)
    thick_atlas = linear_atlas(2, (1.44 * 0.995, 2.0, 2.0))
    thick = TT.detect_thin_part(thick_atlas)[0]
    with pytest.raises(WrongClassification):
        TT.standard_triangulation(thick_atlas, thick)


def test_standard_cycle_and_covering():
    atlas = linear_atlas(2, (1.44 * 0.995, 2.0, 2.0))
    cyl = TT.detect_thin_part(atlas)[0]
    cyc = TT.standard_cycle(atlas, cyl)
    assert len(cyc.vertices) == 3 and cyc.triangles == []
    # the three waist edges are shorter than the net separation
    assert cyc.cylinder.length / 3.0 < 2.0 * EPS / 3.0
    # covering guarantee: every cylinder point within eps/2 of a vertex
    assert cycle_covering_audit(atlas, cyc) <= EPS / 2.0


def test_collar_margin_audit():
    rep = TT.collar_margin_audit(0.72)
    assert rep.passed
    assert rep.values["infimum"] == pytest.approx(0.24, abs=1e-2)
    assert rep.values["infimum"] > 0.72 / 3.0
    assert rep.values["all_positive"]
    rep73 = TT.collar_margin_audit(0.73)
    assert not rep73.passed
    assert rep73.values["infimum"] <= 0.73 / 3.0


def test_appendixA_audit():
    rep = TT.appendixA_audit()
    assert rep.passed
    assert rep.values["combo_at_2epsp"] == pytest.approx(-0.180, abs=1e-3)
    assert rep.values["d3_infimum"] == pytest.approx(0.247, abs=1e-3)
    assert rep.values["sum_min"] > 0.06
    assert rep.values["combo_decreasing"] and rep.values["d3_increasing"]


def test_thin_constants_audit():
    rep = TT.thin_constants_audit()
    assert rep.passed
    assert rep.values["max_cosh_KC"] <= 1.02
    assert rep.values["min_cosh_d"] >= 1.03


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.3, max_value=0.72))
def test_collar_margin_positive_over_grid(eps):
    rep = TT.collar_margin_audit(eps)
    assert rep.values["all_positive"]  # w(gamma) > K_C always


@given(st.floats(min_value=0.05, max_value=math.asinh(1.0),
                 exclude_max=True),
       st.floats(min_value=1e-9, max_value=1.0, exclude_max=True),
       st.floats(min_value=1e-9, max_value=1.0, exclude_max=True))
def test_collar_margin_increases_above_its_limit(eps, t1, t2):
    # m(l) = collar_width(l) - K_C(l) on (0, 2 eps): with s = sinh(l/2)
    # and a = sinh eps, dm/ds = -1/(s sqrt(1+s^2)) + a/(s sqrt(a^2-s^2))
    # > 0, and m -> -log a as l -> 0
    lo, hi = sorted((2.0 * eps * t1, 2.0 * eps * t2))
    m_lo, m_hi = TT.collar_margin(eps, lo), TT.collar_margin(eps, hi)
    assert m_lo <= m_hi + 1e-9
    assert m_lo > -math.log(math.sinh(eps)) - 1e-9


def _collar_gaps(cyls):
    """For each pair i < j of cylinders, the distance between their
    boundary curves that a development around a point p of waist j sees:
    the smallest gap between the lift A of waist j through p and a lifted
    axis of waist i, less K_i and K_j (inf if none is in the ball).

    A pair of waists closer than D has a lift of waist i within D of A,
    and deck translation along waist j puts its closest approach within
    length_j/2 of p.  That lift has a tile of waist i's chart within
    R = D + length_j/2 + length_i/2 + center_radius_i of p.  With D the
    sum of the two collar widths, the ball of radius R sees every lift
    that could break the collar theorem."""
    cc = cyls[0].geodesic.atlas.cc
    gaps = {}
    for j, c2 in enumerate(cyls):
        others = cyls[:j]
        if not others:
            continue
        radius = max(G.collar_width(c1.length) + G.collar_width(c2.length)
                     + 0.5 * (c1.length + c2.length)
                     + cc.charts[c1.geodesic.chart].center_radius + 0.2
                     for c1 in others)
        tiles = T.ball_tiles(cc, c2.geodesic.basepoint, radius)
        # A is the lift whose axis passes through p, at the origin
        to_real = next(
            G.axis_frame(g).inverse() for g in c2.geodesic.lifts(tiles)
            if G.dist_to_diameter(G.axis_frame(g).inverse()(0))[0] < 1e-7)
        for i, c1 in enumerate(others):
            best = math.inf
            for g1 in c1.geodesic.lifts(tiles):
                f = to_real @ G.axis_frame(g1)
                best = min(best, diameter_gap(f(1.0), f(-1.0)))
            gaps[i, j] = best - c1.K_C - c2.K_C
    return gaps


@pytest.mark.parametrize("g,thin", [(2, False), (2, True), (3, False),
                                    (3, True), (5, False), (5, True),
                                    (8, False), (10, False)])
def test_collar_theorem_bounds_numeric_gaps(g, thin):
    # the closed-form collar bound (detect_thin_part) against the
    # distances a development measures, on every surface the suite builds
    _, res, _ = cached_build(g, thin)
    cyls = cylinders(res)
    assert len(cyls) >= 2
    gaps = _collar_gaps(cyls)
    for (i, j), gap in gaps.items():
        bound = (TT.collar_margin(EPS, cyls[i].length)
                 + TT.collar_margin(EPS, cyls[j].length))
        assert gap >= bound - 1e-9, (i, j, gap, bound)
    # neighbouring cuffs are seen, so the check is not vacuous
    assert min(gaps.values()) < math.inf


def test_thick_net_bounds(g2_build):
    atlas, res, _ = g2_build
    g = atlas.genus
    seeds = []
    for cyl in cylinders(res):
        if cyl.kind == "thin":
            seeds.extend(
                TT.standard_triangulation(atlas, cyl).vertices.values())
        else:
            seeds.extend(TT.standard_cycle(atlas, cyl).vertices.values())
    net = TT.thick_net(atlas, cylinders(res), seeds)
    assert len(net.points) > 0
    assert len(net.points) <= 2.0 * (g - 1) / (math.cosh(EPS / 4.0) - 1.0)
    sep = net_separation_audit(atlas, net, seeds, EPS / 2.0)
    assert sep >= EPS / 2.0 - 1e-9


def test_thick_net_avoids_thin_collars(g2_thin_build):
    # Independent of thick_net's per-chart development: around each net
    # point p, a lift of a waist axis within K_C of p has a tile of the
    # waist's chart within K_C + length/2 + center_radius of p (slide the
    # lift along its axis by the waist, as in same_geodesic), so a ball of
    # that radius sees every such lift.
    atlas, res, _ = g2_thin_build
    cc = atlas.cc
    thin = [c for c in cylinders(res) if c.kind == "thin"]
    assert thin
    radius = max(c.K_C + 0.5 * c.length
                 + cc.charts[c.geodesic.chart].center_radius + 0.1
                 for c in thin)
    net = res.complex.points[cylinder_vertex_count(res):]
    assert net
    nearest = math.inf
    for p in net:
        tiles = T.ball_tiles(cc, p, radius)
        for cyl in thin:
            cj = cyl.geodesic.chart
            seed_inv = G.Mobius.translate_to(cc.charts[cj].center)
            for t in tiles:
                if t.chart != cj:
                    continue
                h = t.placement @ seed_inv
                g = h @ cyl.geodesic.element @ h.inverse()
                d, _ = G.dist_to_diameter(G.axis_frame(g).inverse()(0.0))
                assert d > cyl.K_C, (p, cyl.length, d)
                nearest = min(nearest, d - cyl.K_C)
    # the collars do reach into the net's neighbourhood: the check bites
    assert nearest < 0.5 * EPS


def _candidates(ch, delta):
    """The chart-local candidates of a chart with no thin band."""
    return TT._chart_grid(ch, delta, []).z


def _exclude_thin(cc, chart, z, thin):
    """Mask of chart-local points within K_C of some thin cylinder's
    waist: the exact test that _chart_grid runs near band edges, here on
    every point."""
    seed = G.Mobius.translate_to(cc.charts[chart].center).inverse()
    return TT._in_bands(seed.apply_many(z), TT._thin_bands(cc, chart, thin))


def _reference_net(atlas, cylinders, seeds, eps=EPS):
    """The greedy net with every candidate of every tile tested for
    every kill, which thick_net's disk prefilter must reproduce."""
    cc = atlas.cc
    sep = 0.5 * eps
    thin = [c for c in cylinders if c.kind == "thin"]
    chart_cands = []
    for ci, ch in enumerate(cc.charts):
        z = _candidates(ch, eps / 100.0)
        if thin:
            z = z[~_exclude_thin(cc, ci, z, thin)]
        chart_cands.append(z[np.lexsort((z.imag, z.real))])
    alive = [np.ones(len(z), dtype=bool) for z in chart_cands]

    def kill(p):
        for t in T.ball_tiles(cc, p, sep + 0.05):
            cands = chart_cands[t.chart]
            if len(cands):
                d = G.dist_many(0.0, t.placement.apply_many(cands))
                alive[t.chart][d < sep] = False

    for p in seeds:
        kill(p)
    net = []
    for ci, cands in enumerate(chart_cands):
        for k in range(len(cands)):
            if alive[ci][k]:
                p = T.SurfacePoint(ci, complex(cands[k]))
                net.append(p)
                kill(p)
    return net


@pytest.mark.parametrize("thin", [False, True])
def test_thick_net_matches_unrestricted_kill(thin, g2_build, g2_thin_build):
    atlas, res, _ = g2_thin_build if thin else g2_build
    seeds = res.complex.points[:cylinder_vertex_count(res)]
    net = TT.thick_net(atlas, cylinders(res), seeds)
    want = _reference_net(atlas, cylinders(res), seeds)
    assert len(net.points) == len(want)
    assert net.points == want  # chart and coordinates, bit for bit


def test_exclude_thin_matches_every_axis(g2_thin_build):
    # the OR of the band test over every lifted waist axis of the chart's
    # development, with no axis skipped; a grid coarser than the net's
    # keeps the reference cheap, and the mask is elementwise.  The ball is
    # the one test_thick_net_avoids_thin_collars shows to suffice, around
    # the chart center: a candidate within K_C of a lifted axis is within
    # center_radius of the center, and the axis has a tile of the waist's
    # chart within K_C + length/2 + that chart's center_radius of it.
    atlas, res, _ = g2_thin_build
    cc = atlas.cc
    thin = [c for c in cylinders(res) if c.kind == "thin"]
    margin = 1e-9
    n_excluded = 0
    for ci, ch in enumerate(cc.charts):
        z = _candidates(ch, EPS / 25.0)
        seed = G.Mobius.translate_to(ch.center).inverse()
        radius = max(ch.center_radius + c.K_C + 0.5 * c.length
                     + cc.charts[c.geodesic.chart].center_radius + 0.1
                     for c in thin)
        zdev = seed.apply_many(z)
        want = np.zeros(len(z), dtype=bool)
        for t in T.ball_tiles(cc, T.SurfacePoint(ci, ch.center), radius):
            for cyl in thin:
                cj = cyl.geodesic.chart
                if t.chart != cj:
                    continue
                h = t.placement @ G.Mobius.translate_to(cc.charts[cj].center)
                g = h @ cyl.geodesic.element @ h.inverse()
                w = G.axis_frame(g).inverse().apply_many(zdev)
                hp = (1.0 + w) / (1.0 - w)
                d = np.arccosh(np.maximum(np.abs(hp) / hp.real, 1.0))
                want |= d <= cyl.K_C + margin
        got = _exclude_thin(cc, ci, z, thin)
        assert np.array_equal(got, want), ci
        n_excluded += int(want.sum())
    assert n_excluded > 0


def _full_grid(ch, delta, bands):
    """Every point of the chart's candidate grid through the exact tests:
    (row-major indices, chart coordinates) of the points that pass."""
    f = G.Mobius.translate_to(ch.center)
    r_eu = math.tanh(0.5 * ch.center_radius)
    n = int(math.ceil(2.0 * r_eu / (0.5 * delta * (1.0 - r_eu * r_eu))))
    xs = np.linspace(-r_eu, r_eu, n)
    gx, gy = np.meshgrid(xs, xs)
    w = (gx + 1j * gy).ravel()
    with np.errstate(all="ignore"):  # grid corners lie outside the disk
        z = f.apply_many(w)
        keep = np.abs(w) < r_eu
        for fi in ch.side_inverses:
            keep &= fi.apply_many(z).imag >= 0.0
        zdev = f.inverse().apply_many(z)
        for ai, bound in bands:
            u = ai.apply_many(zdev)
            hp = (1.0 + u) / (1.0 - u)
            d = np.arccosh(np.maximum(np.abs(hp) / hp.real, 1.0))
            keep &= ~(d <= bound)
    return np.flatnonzero(keep), z[keep]


def _assert_grid_matches(ch, delta, bands):
    flat, z = _full_grid(ch, delta, bands)
    grid = TT._chart_grid(ch, delta, bands)
    assert np.array_equal(
        TT._expand(grid.run_flat, grid.run_flat + np.diff(grid.run_idx)),
        flat)
    assert np.array_equal(grid.z[grid.rank].view(np.uint64),
                          z.view(np.uint64))
    assert np.array_equal(grid.z, z[np.lexsort((z.imag, z.real))])
    # a kill disk through the middle of the grid: the points it leaves to
    # the exact test are the ones near its circle, and no other point in
    # it is missed
    n = len(grid.xs)
    w = np.empty(len(z), dtype=complex)
    w[grid.rank] = grid.xs[flat % n] + 1j * grid.xs[flat // n]
    c, r = 0.05 + 0.1j, 0.25
    inside, edge = grid.disk(c, r)
    assert np.all(np.abs(w[inside] - c) < r)
    assert np.all(np.abs(np.abs(w[edge] - c) - r) <= 2.0 * TT._PAD)
    near = np.zeros(len(z), dtype=bool)
    near[inside] = True
    near[edge] = True
    assert near[np.abs(w - c) < r].all()
    return len(flat)


@pytest.mark.parametrize("thin", [False, True])
def test_chart_grid_matches_full_grid(thin, g2_build, g2_thin_build):
    # the row test against every grid point, at the net's own spacing,
    # with the thin bands thick_net excludes
    atlas, res, _ = g2_thin_build if thin else g2_build
    cc = atlas.cc
    cyls = [c for c in cylinders(res) if c.kind == "thin"]
    n_bands = 0
    for ci, ch in enumerate(cc.charts):
        bands = TT._thin_bands(cc, ci, cyls)
        n_bands += len(bands)
        assert _assert_grid_matches(ch, EPS / 100.0, bands) > 0
    assert n_bands > 0


@st.composite
def _hexagon_charts(draw):
    rot = draw(st.floats(0.0, 2.0 * math.pi))
    verts = []
    for k in range(6):
        rho = draw(st.floats(0.3, 0.7))
        theta = rot + math.pi * k / 3.0 + draw(st.floats(-0.3, 0.3))
        verts.append(rho * complex(math.cos(theta), math.sin(theta)))
    return T.Chart(verts)


_bands = st.lists(st.tuples(st.builds(complex, st.floats(-0.8, 0.8),
                                      st.floats(-0.8, 0.8))
                            .filter(lambda p: abs(p) < 0.8),
                            st.floats(-math.pi, math.pi),
                            st.floats(0.1, 2.0)),
                  max_size=2)


@settings(max_examples=40, deadline=None)
@given(_hexagon_charts(), _bands, st.floats(0.01, 0.05),
       st.none() | st.floats(0.05, 0.95))
def test_chart_grid_matches_full_grid_on_hexagons(ch, axes, delta, tangent):
    # random hexagons and bands; with tangent set, one more band whose
    # upper hypercycle touches a grid row at w = i y: its axis runs
    # horizontally through i s, and the hypercycle at distance D above
    # it crosses the imaginary axis at tanh(atanh(s) + D/2), its top.
    # The disk |w| < r_eu touches the top and bottom rows in every chart.
    bands = [(G.Mobius.frame(p, th).inverse(), d) for p, th, d in axes]
    if tangent is not None:
        r_eu = math.tanh(0.5 * ch.center_radius)
        n = int(math.ceil(2.0 * r_eu / (0.5 * delta * (1.0 - r_eu * r_eu))))
        y = np.linspace(-r_eu, r_eu, n)[int(tangent * (n - 1))]
        D = 0.5
        s = math.tanh(math.atanh(y) - 0.5 * D)
        bands.append((G.Mobius.translate_to(1j * s).inverse(), D))
    _assert_grid_matches(ch, delta, bands)


def test_chart_grid_matches_full_grid_on_tangent_rows():
    # bands whose upper hypercycle touches a grid row at w = i y (as in
    # the test above), on a regular hexagon, for rows across the grid and
    # spacings with and without a grid column at x = 0: there the roots
    # of a row lose half their digits, and a grid point may lie on the
    # hypercycle to rounding
    ch = T.Chart([0.5 * complex(math.cos(math.pi * k / 3.0),
                                math.sin(math.pi * k / 3.0))
                  for k in range(6)])
    r_eu = math.tanh(0.5 * ch.center_radius)
    for delta in (0.02, 0.021, 0.025):
        n = int(math.ceil(2.0 * r_eu / (0.5 * delta * (1.0 - r_eu * r_eu))))
        xs = np.linspace(-r_eu, r_eu, n)
        for j in range(n // 4, 3 * n // 4, n // 20):
            for D in (0.3, 0.5, 0.9):
                s = math.tanh(math.atanh(xs[j]) - 0.5 * D)
                band = (G.Mobius.translate_to(1j * s).inverse(), D)
                _assert_grid_matches(ch, delta, [band])


@pytest.mark.parametrize("A,B", [(-1.0, 0.3), (2.0, -0.5), (0.0, 0.7),
                                 (0.0, -0.7), (0.0, 0.0), (1e-300, 1.0)])
def test_crossings_match_the_sign_of_the_quadratic(A, B):
    # the indicator of A x^2 + B x + E >= 0 along each row, rebuilt from
    # its value at -inf and its steps, at points off the crossings
    E = np.array([-1.0, -0.05, 0.0, 0.05, 1.0])
    start, (pos, rows, steps) = TT._crossings(A, B, E)
    for j, e in enumerate(E):
        cuts = np.sort(pos[rows == j])
        xs = np.r_[-10.0, 0.0, 10.0, cuts - 1.0, cuts + 1e-6,
                   0.5 * (cuts[1:] + cuts[:-1])]
        xs = xs[np.isfinite(xs)]
        for x in xs[np.all(np.abs(xs[:, None] - cuts) > 1e-9, axis=1)]:
            value = start[j] + steps[(rows == j) & (pos <= x)].sum()
            assert value == int(A * x * x + B * x + e >= 0.0), (x, e)
