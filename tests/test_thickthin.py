import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypdel import geometry as G
from hypdel import thickthin as TT
from hypdel import tiling as T
from hypdel.errors import InvalidEpsilon, WrongClassification
from conftest import linear_atlas

EPS = TT.EPSILON_DEFAULT


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
    atlas = linear_atlas(2)
    with pytest.raises(InvalidEpsilon):
        TT.detect_thin_part(atlas, math.asinh(1.0) + 0.01)
    with pytest.raises(InvalidEpsilon):
        TT.collar_margin_audit(0.0)


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
    cyl = res.cylinders[0]
    std = TT.standard_triangulation(atlas, cyl)
    assert len(std.vertices) == 9
    assert len(std.edges) == 21
    assert len(std.triangles) == 12
    # no loops or duplicate edges among the 21
    assert all(u != v for u, v in std.edges)
    assert len({frozenset(e) for e in std.edges}) == 21


def test_standard_triangulation_geometry(g2_build):
    atlas, res, _ = g2_build
    cyl = res.cylinders[0]
    std = TT.standard_triangulation(atlas, cyl)
    l, k = cyl.length, cyl.K_C
    # waist points equally spaced
    for a, b in (("x1", "x2"), ("x2", "x3"), ("x3", "x1")):
        assert std.edge_length(a, b) == pytest.approx(l / 3.0, abs=1e-9)
    # boundary points sit at distance K_C over their waist point
    for i in (1, 2, 3):
        assert std.edge_length(f"x{i}", f"x{i}+") == pytest.approx(k, abs=1e-9)
        assert std.edge_length(f"x{i}", f"x{i}-") == pytest.approx(k, abs=1e-9)
    # top-edge identity: sinh(d/2) = sinh(l/6) cosh(K_C), and d < eps
    d_top = std.edge_length("x1+", "x2+")
    assert math.sinh(0.5 * d_top) == pytest.approx(
        math.sinh(l / 6.0) * math.cosh(k), abs=1e-9)
    assert d_top < EPS


def test_standard_wrong_classification(g2_build):
    atlas, res, _ = g2_build
    thin = res.cylinders[0]
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
    assert len(cyc.vertices) == 3 and len(cyc.edges) == 3
    for a, b in cyc.edges:
        assert cyc.cylinder.length / 3.0 < 2.0 * EPS / 3.0
    # covering guarantee: every cylinder point within eps/2 of a vertex
    assert TT.cycle_covering_audit(cyl, cyc) <= EPS / 2.0


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
    rep = TT.appendixA_audit(0.72)
    assert rep.passed
    assert rep.values["combo_at_2epsp"] == pytest.approx(-0.180, abs=1e-3)
    assert rep.values["d3_infimum"] == pytest.approx(0.247, abs=1e-3)
    assert rep.values["sum_min"] > 0.06
    assert rep.values["combo_decreasing"] and rep.values["d3_increasing"]


def test_thin_constants_audit():
    rep = TT.thin_constants_audit(0.72)
    assert rep.passed
    assert rep.values["max_cosh_KC"] <= 1.02
    assert rep.values["min_cosh_d"] >= 1.03


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.3, max_value=0.72))
def test_collar_margin_positive_over_grid(eps):
    rep = TT.collar_margin_audit(eps, n_grid=200)
    assert rep.values["all_positive"]  # w(gamma) > K_C always


def test_thick_net_bounds(g2_build):
    atlas, res, _ = g2_build
    g = atlas.genus
    seeds = []
    for cyl in res.cylinders:
        if cyl.kind == "thin":
            seeds.extend(
                TT.standard_triangulation(atlas, cyl).vertices.values())
        else:
            seeds.extend(TT.standard_cycle(atlas, cyl).vertices.values())
    net = TT.thick_net(atlas, res.cylinders, seeds)
    assert len(net.points) > 0
    assert len(net.points) <= 2.0 * (g - 1) / (math.cosh(EPS / 4.0) - 1.0)
    sep = TT.net_separation_audit(atlas, net, seeds)
    assert sep >= EPS / 2.0 - 1e-9


def test_thick_net_avoids_thin_collars(g2_thin_build):
    # Independent of thick_net's per-chart development: around each net
    # point p, a lift of a waist axis within K_C of p has a tile of the
    # waist's chart within K_C + length/2 + center_radius of p (slide the
    # lift along its axis by the waist, as in same_geodesic), so a ball of
    # that radius sees every such lift.
    atlas, res, _ = g2_thin_build
    cc = atlas.cc
    thin = [c for c in res.cylinders if c.kind == "thin"]
    assert thin
    radius = max(c.K_C + 0.5 * c.length
                 + cc.charts[c.geodesic.chart].center_radius + 0.1
                 for c in thin)
    net = [res.complex.points[i] for i in res.p2]
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
                g = h @ cyl.waist_element @ h.inverse()
                d, _ = G.dist_to_diameter(G.axis_frame(g).inverse()(0.0))
                assert d > cyl.K_C, (p, cyl.length, d)
                nearest = min(nearest, d - cyl.K_C)
    # the collars do reach into the net's neighbourhood: the check bites
    assert nearest < 0.5 * EPS


def _reference_net(atlas, cylinders, seeds, eps=EPS):
    """The greedy net with every candidate of every tile tested for
    every kill, which thick_net's disk prefilter must reproduce."""
    cc = atlas.cc
    sep = 0.5 * eps
    thin = [c for c in cylinders if c.kind == "thin"]
    chart_cands = []
    for ci, ch in enumerate(cc.charts):
        z = TT._chart_candidates(ch, eps / 100.0)
        if thin:
            z = z[~TT._exclude_thin(cc, ci, z, thin)]
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
    seeds = [res.complex.points[i] for i in res.p1]
    net = TT.thick_net(atlas, res.cylinders, seeds)
    want = _reference_net(atlas, res.cylinders, seeds)
    assert len(net.points) == len(want)
    assert net.points == want  # chart and coordinates, bit for bit


def test_exclude_thin_matches_every_axis(g2_thin_build):
    # the OR of the band test over every lifted waist axis of the chart's
    # development, with no axis skipped; a grid coarser than the net's
    # keeps the reference cheap, and the mask is elementwise
    atlas, res, _ = g2_thin_build
    cc = atlas.cc
    thin = [c for c in res.cylinders if c.kind == "thin"]
    margin = 1e-9
    n_excluded = 0
    for ci, ch in enumerate(cc.charts):
        z = TT._chart_candidates(ch, EPS / 25.0)
        seed = G.Mobius.translate_to(ch.center).inverse()
        radius = max(ch.center_radius + c.K_C + 0.5 * c.length + 0.3
                     for c in thin)
        zdev = seed.apply_many(z)
        want = np.zeros(len(z), dtype=bool)
        for t in T.ball_tiles(cc, T.SurfacePoint(ci, ch.center), radius):
            for cyl in thin:
                cj = cyl.geodesic.chart
                if t.chart != cj:
                    continue
                h = t.placement @ G.Mobius.translate_to(cc.charts[cj].center)
                g = h @ cyl.waist_element @ h.inverse()
                w = G.axis_frame(g).inverse().apply_many(zdev)
                hp = (1.0 + w) / (1.0 - w)
                d = np.arccosh(np.maximum(np.abs(hp) / hp.real, 1.0))
                want |= d <= cyl.K_C + margin
        got = TT._exclude_thin(cc, ci, z, thin)
        assert np.array_equal(got, want), ci
        n_excluded += int(want.sum())
    assert n_excluded > 0
