import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypdel import geometry as G
from hypdel import thickthin as TT
from hypdel import tiling as T
from hypdel.errors import WrongClassification
from conftest import (cached_build, cylinder_vertex_count, cylinders,
                      linear_atlas)
from reference import (appendixA_audit, collar_margin, collar_margin_audit,
                       collar_width, diameter_gap, k_c_at, surface_distance,
                       thin_constants_audit, waist_lifts)

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
    assert TT.k_c(0.5) == pytest.approx(want, abs=1e-12)
    assert TT.k_c(0.5) == k_c_at(EPS, 0.5)  # the audits' formula
    assert want == pytest.approx(1.7985, abs=5e-4)


@given(st.floats(min_value=0.05, max_value=1.43),
       st.floats(min_value=0.05, max_value=1.43))
def test_kc_monotone_decreasing_in_length(l1, l2):
    lo, hi = min(l1, l2), max(l1, l2)
    assert TT.k_c(lo) >= TT.k_c(hi)


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
        assert c.K_C == pytest.approx(TT.k_c(1.0), abs=1e-10)


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


@pytest.mark.parametrize("thin", [False, True], ids=["cuffs-1", "thin-cuff"])
def test_standard_circumradius_from_fermi_coordinates(thin):
    # every standard triangle of the output, those of the quad across the
    # seam included, has the circumradius of the Fermi-coordinate quad
    _, res, _ = cached_build(2, thin)
    lifts = {frozenset(t.labels): t.lifts for t in res.complex.triangles}
    for st, idx in res.standard:
        assert len(st.triangles) == 12
        for tri in st.triangles:
            disk = G.circumdisk(*lifts[frozenset(idx[n] for n in tri)])
            assert disk.radius == pytest.approx(st.circumradius, abs=1e-9)


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
    rep = collar_margin_audit(0.72)
    assert rep.passed
    assert rep.values["infimum"] == pytest.approx(0.24, abs=1e-2)
    assert rep.values["infimum"] > 0.72 / 3.0
    assert rep.values["all_positive"]
    rep73 = collar_margin_audit(0.73)
    assert not rep73.passed
    assert rep73.values["infimum"] <= 0.73 / 3.0


def test_appendixA_audit():
    rep = appendixA_audit()
    assert rep.passed
    assert rep.values["combo_at_2epsp"] == pytest.approx(-0.180, abs=1e-3)
    assert rep.values["d3_infimum"] == pytest.approx(0.247, abs=1e-3)
    assert rep.values["sum_min"] > 0.06
    assert rep.values["combo_decreasing"] and rep.values["d3_increasing"]


def test_thin_constants_audit():
    rep = thin_constants_audit()
    assert rep.passed
    assert rep.values["max_cosh_KC"] <= 1.02
    assert rep.values["min_cosh_d"] >= 1.03


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.3, max_value=0.72))
def test_collar_margin_positive_over_grid(eps):
    rep = collar_margin_audit(eps)
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
    m_lo, m_hi = collar_margin(eps, lo), collar_margin(eps, hi)
    assert m_lo <= m_hi + 1e-9
    assert m_lo > -math.log(math.sinh(eps)) - 1e-9


def _collar_gaps(cc, cyls):
    """For each pair i < j of cylinders on the chart complex cc, the
    distance between their boundary curves that a development around a
    point p of waist j sees: the smallest gap between the lift A of waist
    j through p and a lifted axis of waist i, less K_i and K_j (inf if
    none is in the ball).

    A pair of waists closer than D has a lift of waist i within D of A,
    and deck translation along waist j puts its closest approach within
    length_j/2 of p.  That lift has a tile of waist i's chart within
    R = D + length_j/2 + length_i/2 + center_radius_i of p.  With D the
    sum of the two collar widths, the ball of radius R sees every lift
    that could break the collar theorem."""
    gaps = {}
    for j, c2 in enumerate(cyls):
        others = cyls[:j]
        if not others:
            continue
        radius = max(collar_width(c1.length) + collar_width(c2.length)
                     + 0.5 * (c1.length + c2.length)
                     + cc.charts[c1.geodesic.chart].center_radius + 0.2
                     for c1 in others)
        tiles = T.ball_tiles(cc, c2.geodesic.basepoint, radius)
        # A is the lift whose axis passes through p, at the origin
        to_real = next(
            G.axis_frame(g).inverse()
            for g in waist_lifts(cc, c2.geodesic, tiles)
            if G.dist_to_diameter(G.axis_frame(g).inverse()(0))[0] < 1e-7)
        for i, c1 in enumerate(others):
            best = math.inf
            for g1 in waist_lifts(cc, c1.geodesic, tiles):
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
    atlas, res, _ = cached_build(g, thin)
    cyls = cylinders(res)
    assert len(cyls) >= 2
    gaps = _collar_gaps(atlas.cc, cyls)
    for (i, j), gap in gaps.items():
        bound = (collar_width(cyls[i].length) - cyls[i].K_C
                 + collar_width(cyls[j].length) - cyls[j].K_C)
        assert gap >= bound - 1e-9, (i, j, gap, bound)
    # neighbouring cuffs are seen, so the check is not vacuous
    assert min(gaps.values()) < math.inf


def test_thick_net_bounds(g2_build):
    atlas, res, _ = g2_build
    g = atlas.genus
    standard = [TT.standard_triangulation(atlas, cyl) if cyl.kind == "thin"
                else TT.standard_cycle(atlas, cyl) for cyl in cylinders(res)]
    seeds = [p for st in standard for p in st.vertices.values()]
    net = TT.thick_net(atlas, standard)
    assert len(net.points) > 0
    assert len(net.points) <= 2.0 * (g - 1) / (math.cosh(EPS / 4.0) - 1.0)
    sep = net_separation_audit(atlas, net, seeds, EPS / 2.0)
    assert sep >= EPS / 2.0 - 1e-9


def test_thick_net_avoids_thin_collars(g2_thin_build):
    # Independent of the cylinders' own balls that thick_net's bands come
    # from: around each net
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


def _grid_points(grid):
    """The recentred coordinates w and chart coordinates z of a chart
    grid's live candidates, in row-major order."""
    rows, cols = np.nonzero(grid.alive)
    return (grid.xs[grid.c0 + cols] + 1j * grid.xs[grid.r0 + rows],
            grid.z[grid.alive])


def standard(res):
    """The standard triangulations and cycles of a thick-thin result."""
    return [st for st, _ in res.standard]


def _chart_bands(res, chart):
    """The bands of every thin cylinder of res that exclude candidates of
    the chart."""
    return [b for st in standard(res) for b in st.bands.get(chart, [])]


def _exclude_thin(res, chart, w):
    """Mask of the points w of a chart's recentred coordinates within K_C
    of some thin cylinder's waist: the exact band test, on every point."""
    return TT._in_bands(w, _chart_bands(res, chart))


def _reference_net(atlas, res):
    """The greedy net over the candidates of every point of each chart's
    full square (_full_grid) in row-major order, every grid held at once,
    with every candidate of every tile tested for every kill, which
    thick_net's windows, index boxes and recorded kills must reproduce."""
    cc = atlas.cc
    sep = 0.5 * EPS
    seeds = res.complex.points[:cylinder_vertex_count(res)]
    chart_cands = []
    for ci, ch in enumerate(cc.charts):
        _, keep, z = _full_grid(ch, _chart_bands(res, ci))
        chart_cands.append(z[keep])
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
    net = TT.thick_net(atlas, standard(res))
    want = _reference_net(atlas, res)
    assert len(net.points) == len(want)
    assert net.points == want  # chart and coordinates, bit for bit


# thick_net holds one chart's grid at a time and tests it block by block.
# On the thin genus-2 surface its largest window has 64,515 points at 17 B
# each (a bool flag and a complex128 coordinate), 1.1 MB, and one block's
# temporaries come to under 1 MB: the traced peak is 2.1 MB (2,109,403 B
# with Python 3.11 and numpy 2.4), and 2.1 MB too on a fresh atlas, where
# the kills grow the developments they walk.  The bound
# leaves 40 % for other numpy and Python versions and fails each way back:
# every window held at once peaks at 4.0 MB, one window tested in one
# piece at 7.5 MB, and every whole square held and tested at once at
# 10.0 MB.
NET_PEAK_BOUND = 3e6


def test_thick_net_memory_is_bounded(g2_thin_build):
    atlas, res, _ = g2_thin_build
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        TT.thick_net(atlas, standard(res))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < NET_PEAK_BOUND, peak


def test_thick_net_develops_one_ball_per_kill(g2_thin_build, monkeypatch):
    # the bands come from the cylinders' own balls, so thick_net develops
    # only the kill ball of each seed and each net point, in that order
    atlas, res, _ = g2_thin_build
    bases = []
    ball_tiles = T.ball_tiles

    def counted(cc, base, radius):
        bases.append(base)
        return ball_tiles(cc, base, radius)

    monkeypatch.setattr(T, "ball_tiles", counted)
    net = TT.thick_net(atlas, standard(res))
    seeds = res.complex.points[:cylinder_vertex_count(res)]
    assert len(bases) == len(seeds) + len(net.points)
    assert bases == list(seeds) + net.points


# The covering radius that README.md states for the net: EPSILON/2 plus
# the distance from a point of a grid square to its nearest corner.
COVERING_RADIUS = 0.5 * EPS + TT.NET_SPACING / math.sqrt(2.0)


@pytest.mark.parametrize("thin", [False, True])
def test_thick_net_covers_the_thick_part(thin, g2_build, g2_thin_build):
    # a seeded sample of each chart's polygon outside the thin bands, each
    # point within COVERING_RADIUS of a net point or cylinder vertex
    atlas, res, _ = g2_thin_build if thin else g2_build
    cc = atlas.cc
    lifts = T.by_chart(list(res.complex.points))
    rng = np.random.default_rng(23)
    worst, n_sampled = 0.0, 0
    for ci, ch in enumerate(cc.charts):
        r = math.tanh(0.5 * ch.center_radius)
        w = rng.uniform(-r, r, 400) + 1j * rng.uniform(-r, r, 400)
        w = w[np.abs(w) < r]
        z = G.Mobius.translate_to(ch.center).apply_many(w)
        inside = np.all([fi.apply_many(z).imag >= 0.0
                         for fi in ch.side_inverses], axis=0)
        inside &= ~_exclude_thin(res, ci, w)
        for zk in z[inside][:60]:
            tiles = T.ball_tiles(cc, T.SurfacePoint(ci, complex(zk)),
                                 COVERING_RADIUS + 0.05)
            d = min((G.dist(0.0, q)
                     for _, q, _ in T.point_lifts(tiles, lifts)),
                    default=math.inf)
            assert d <= COVERING_RADIUS, (ci, zk, d)
            worst = max(worst, d)
            n_sampled += 1
    assert n_sampled >= 100
    # the sample holds points far from every vertex: the check bites
    assert worst > 0.25 * EPS


@pytest.mark.parametrize("g", [2, 3])
def test_exclude_thin_matches_every_axis(g):
    # the OR of the band test over every lifted waist axis of the chart's
    # development, with no axis skipped, on every point of the net's grid
    # in the polygon; the mask is elementwise.  The ball is the one
    # test_thick_net_avoids_thin_collars shows to suffice, around the chart
    # center: a candidate within K_C of a lifted axis is within
    # center_radius of the center, and the axis has a tile of the waist's
    # chart within K_C + length/2 + that chart's center_radius of it.
    atlas, res, _ = cached_build(g, thin=True)
    cc = atlas.cc
    thin = [c for c in cylinders(res) if c.kind == "thin"]
    margin = 1e-9
    n_excluded = 0
    for ci, ch in enumerate(cc.charts):
        w, _ = _grid_points(TT._chart_grid(ch, []))
        radius = max(ch.center_radius + c.K_C + 0.5 * c.length
                     + cc.charts[c.geodesic.chart].center_radius + 0.1
                     for c in thin)
        want = np.zeros(len(w), dtype=bool)
        for t in T.ball_tiles(cc, T.SurfacePoint(ci, ch.center), radius):
            for cyl in thin:
                cj = cyl.geodesic.chart
                if t.chart != cj:
                    continue
                h = t.placement @ G.Mobius.translate_to(cc.charts[cj].center)
                g = h @ cyl.geodesic.element @ h.inverse()
                u = G.axis_frame(g).inverse().apply_many(w)
                hp = (1.0 + u) / (1.0 - u)
                d = np.arccosh(np.maximum(np.abs(hp) / hp.real, 1.0))
                want |= d <= cyl.K_C + margin
        got = _exclude_thin(res, ci, w)
        assert np.array_equal(got, want), ci
        n_excluded += int(want.sum())
    assert n_excluded > 0


def _full_grid(ch, bands):
    """Every point of the chart's full square candidate grid through the
    exact tests: the mask of the points in the polygon, the mask of those
    of them in no band, and the chart coordinates of every point."""
    f = G.Mobius.translate_to(ch.center)
    r_eu = math.tanh(0.5 * ch.center_radius)
    h = 0.5 * TT.NET_SPACING * (1.0 - r_eu * r_eu)
    xs = np.linspace(-r_eu, r_eu, int(math.ceil(2.0 * r_eu / h)) + 1)
    gx, gy = np.meshgrid(xs, xs)
    w = gx + 1j * gy
    with np.errstate(all="ignore"):  # grid corners lie outside the disk
        z = f.apply_many(w)
        polygon = np.abs(w) < r_eu
        for fi in ch.side_inverses:
            polygon &= fi.apply_many(z).imag >= 0.0
        keep = polygon.copy()
        for ai, bound in bands:
            u = ai.apply_many(w)
            hp = (1.0 + u) / (1.0 - u)
            d = np.arccosh(np.maximum(np.abs(hp) / hp.real, 1.0))
            keep &= ~(d <= bound)
    return polygon, keep, z


def _assert_box_holds_disk(grid, c, r):
    """The index box of the disk |w - c| < r holds every window point in
    it, and no row or column farther than two steps off."""
    xs, step = grid.xs, grid.xs[1] - grid.xs[0]
    n_rows, n_cols = grid.alive.shape
    ys = xs[grid.r0:grid.r0 + n_rows]
    xc = xs[grid.c0:grid.c0 + n_cols]
    rows, cols = grid.box(c, r)
    inside = np.zeros(grid.alive.shape, dtype=bool)
    inside[rows, cols] = True
    assert inside[np.abs(xc[None, :] + 1j * ys[:, None] - c) < r].all()
    assert np.all(np.abs(ys[rows] - c.imag) <= r + 2.0 * step)
    assert np.all(np.abs(xc[cols] - c.real) <= r + 2.0 * step)


def _assert_grid_matches(ch, bands):
    polygon, keep, z = _full_grid(ch, bands)
    grid = TT._chart_grid(ch, bands)
    n_rows, n_cols = grid.alive.shape
    rows = slice(grid.r0, grid.r0 + n_rows)
    cols = slice(grid.c0, grid.c0 + n_cols)
    # the window holds the polygon: no point of the full square that passes
    # the side tests lies outside it
    outside = np.ones(polygon.shape, dtype=bool)
    outside[rows, cols] = False
    assert not polygon[outside].any()
    assert np.array_equal(grid.alive, keep[rows, cols])
    assert np.array_equal(grid.z[grid.alive].view(np.uint64),
                          z[keep].view(np.uint64))
    # grid neighbours in the disk |w| < r_eu are at most NET_SPACING apart
    xs = grid.xs
    gw = xs[None, :] + 1j * xs[:, None]
    for p, q in ((gw[:, :-1], gw[:, 1:]), (gw[:-1, :], gw[1:, :])):
        both = (np.abs(p) < xs[-1]) & (np.abs(q) < xs[-1])
        p, q = p[both], q[both]
        s = np.abs(p - q) ** 2 / ((1.0 - np.abs(p) ** 2)
                                  * (1.0 - np.abs(q) ** 2))
        assert np.max(np.arccosh(1.0 + 2.0 * s)) <= TT.NET_SPACING
    # kill disks through the middle of the grid and across the window's
    # first row and column, where the box is cut at the window's edge
    _assert_box_holds_disk(grid, 0.05 + 0.1j, 0.25)
    _assert_box_holds_disk(grid, complex(xs[grid.c0], xs[grid.r0]), 0.1)
    return int(keep.sum())


@pytest.mark.parametrize("thin", [False, True])
def test_chart_grid_matches_full_grid(thin, g2_build, g2_thin_build):
    # the grid against every point of the full square through the exact
    # tests, with the thin bands thick_net excludes
    atlas, res, _ = g2_thin_build if thin else g2_build
    n_bands = 0
    for ci, ch in enumerate(atlas.cc.charts):
        bands = _chart_bands(res, ci)
        n_bands += len(bands)
        assert _assert_grid_matches(ch, bands) > 0
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
@given(_hexagon_charts(), _bands, st.none() | st.floats(0.05, 0.95))
def test_chart_grid_matches_full_grid_on_hexagons(ch, axes, tangent):
    # random hexagons and bands; with tangent set, one more band whose
    # upper hypercycle touches a grid row at w = i y: its axis runs
    # horizontally through i s, and the hypercycle at distance D above
    # it crosses the imaginary axis at tanh(atanh(s) + D/2), its top.
    # The disk |w| < r_eu touches the top and bottom rows in every chart.
    bands = [(G.Mobius.frame(p, th).inverse(), d) for p, th, d in axes]
    if tangent is not None:
        xs = TT._chart_grid(ch, []).xs
        y = xs[int(tangent * (len(xs) - 1))]
        D = 0.5
        s = math.tanh(math.atanh(y) - 0.5 * D)
        bands.append((G.Mobius.translate_to(1j * s).inverse(), D))
    _assert_grid_matches(ch, bands)


