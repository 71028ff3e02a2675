import math

import pytest
from hypothesis import given, settings, strategies as st

from hypdel import geometry as G
from hypdel import surface as S
from hypdel import thickthin as TT
from hypdel import tiling as T
from hypdel.errors import (ConstructionFailure, DomainError, InvalidGenus,
                          InvalidGraph, InvalidLength)
from conftest import cached_build
from reference import (detection_candidates, dist_to_boundary_from_outside,
                       min_side_sign, old_detection_radius,
                       reference_short_geodesics, spec_to_json,
                       surface_distance, vertex_angle_audit, waist_lifts)


def sym_atlas(g=2, length=1.0, twist=0.0):
    pg = S.linear_graph(g)
    n = len(pg.edges)
    return S.SurfaceAtlas(pg, S.FNCoordinates((length,) * n, (twist,) * n))


def test_linear_graph_g2():
    pg = S.linear_graph(2)
    assert pg.n_nodes == 2 and len(pg.edges) == 3
    loops = [e for e in pg.edges if e[0] == e[1]]
    assert len(loops) == 2 and (0, 1) in pg.edges


def test_linear_graph_g3():
    pg = S.linear_graph(3)
    assert pg.n_nodes == 4 and len(pg.edges) == 6
    # loop at both ends, single edge 0-1 and 2-3, double edge 1-2
    assert pg.edges.count((0, 0)) == 1 and pg.edges.count((3, 3)) == 1
    assert pg.edges.count((1, 2)) == 2
    assert pg.edges.count((0, 1)) == 1 and pg.edges.count((2, 3)) == 1


@pytest.mark.parametrize("g", [2, 3, 5, 8])
def test_linear_graph_invariants(g):
    pg = S.linear_graph(g)
    pg.validate()
    deg = [0] * pg.n_nodes
    for u, v in pg.edges:
        deg[u] += 1
        deg[v] += 1
    assert all(d == 3 for d in deg)


def test_linear_graph_invalid():
    with pytest.raises(InvalidGenus):
        S.linear_graph(1)


def test_invalid_graph_degree():
    pg = S.PantsGraph(2, ((0, 0), (0, 0), (1, 1)))
    with pytest.raises(InvalidGraph):
        pg.validate()


def test_invalid_graph_disconnected():
    pg = S.PantsGraph(3, ((0, 1), (0, 1), (0, 1), (2, 3), (2, 3), (2, 3)))
    with pytest.raises(InvalidGraph):
        pg.validate()


def test_invalid_length():
    pg = S.linear_graph(2)
    with pytest.raises(InvalidLength):
        S.SurfaceAtlas(pg, S.FNCoordinates((1.0, 0.0, 1.0), (0.0,) * 3))


def test_cuff_length_readback():
    atlas = sym_atlas(2, 1.0)
    for length in atlas.cuff_lengths:  # the holonomies' lengths
        assert length == pytest.approx(1.0, abs=1e-7)


def test_cuff_length_readback_mixed():
    pg = S.linear_graph(2)
    atlas = S.SurfaceAtlas(pg, S.FNCoordinates((0.6, 1.3, 2.2), (0.1, -0.4, 0.0)))
    for gi, length in enumerate(atlas.cuff_lengths):
        assert length == pytest.approx(atlas.fn.lengths[gi], abs=1e-7)


def test_holonomy_check_is_relative():
    # cuffs of 15 miss the spec by more than 1e-7 from rounding alone, but
    # by under 1e-7 of their length
    atlas = sym_atlas(2, 15.0)
    errors = [abs(length - 15.0) for length in atlas.cuff_lengths]
    assert max(errors) > 1e-7
    assert max(errors) < 1e-7 * 15.0


@pytest.mark.parametrize("length", [0.5, 1.0, 15.0])
def test_holonomy_check_refuses_a_wrong_length(length, monkeypatch):
    # a holonomy 1e-6 longer than the spec's cuff is a wrong atlas
    real = G.translation_length
    monkeypatch.setattr(G, "translation_length",
                        lambda g: real(g) * (1.0 + 1e-6))
    with pytest.raises(ConstructionFailure, match="holonomy length"):
        sym_atlas(2, length)


def test_vertex_angle_closure():
    vertex_angle_audit(sym_atlas(2, 1.0, 0.0))
    vertex_angle_audit(sym_atlas(2, 1.3, 0.27))


def test_vertex_angle_closure_g3():
    vertex_angle_audit(sym_atlas(3, 1.0, 0.15))


def test_hexagon_side_relation():
    # seam sides of the construction satisfy the right-angled hexagon law
    atlas = sym_atlas(2, 1.0)
    ch = atlas.cc.charts[0]
    want = G.hexagon_orthogeodesic(1.0, 1.0, 1.0)
    for seam_side in (1, 3, 5):
        assert ch.side_lengths[seam_side] == pytest.approx(want, abs=1e-9)


def test_reciprocal_transitions():
    # building the atlas makes its complex, whose crossing table pairs
    # every transition with its inverse on the far chart
    atlas = sym_atlas(2, 1.0, 0.3)
    cross = atlas.cc._crossings
    for c, slots in enumerate(cross.slots):
        for (cj, t), b in zip(slots, cross.back[c], strict=True):
            ck, u = cross.slots[cj][b]
            assert ck == c
            assert all(abs(x - y) < 1e-8
                       for x, y in zip(u.key(), t.inverse().key()))


def test_long_cuff_reciprocals_match_relative_to_coefficients():
    # with cuffs of 15 and twists the placement coefficients reach about
    # 900, and the inverse of a transition misses its partner by more
    # than 1e-8 in them: the match is relative to the coefficients
    atlas = S.SurfaceAtlas(S.linear_graph(2), S.FNCoordinates(
        (15.0,) * 3, (0.1, 0.0, -0.2)))
    cross = atlas.cc._crossings
    worst = 0.0
    for c, slots in enumerate(cross.slots):
        for (cj, t), b in zip(slots, cross.back[c], strict=True):
            ck, u = cross.slots[cj][b]
            assert ck == c
            k1, k2 = u.key(), t.inverse().key()
            scale = max(1.0, *map(abs, k1 + k2))
            miss = max(abs(x - y) for x, y in zip(k1, k2))
            assert miss < T.RECIPROCAL_TOL * scale
            worst = max(worst, miss)
    assert worst > T.RECIPROCAL_TOL


def test_lift_ball_cuff_translate():
    # lifting a cuff point to radius l + 0.01 sees the cuff-translated lift
    atlas = sym_atlas(2, 1.0)
    ch = atlas.cc.charts[0]
    z = ch.side_frames[0](math.tanh(0.125))
    p = T.SurfacePoint(0, z)
    tiles = T.ball_tiles(atlas.cc, p, 1.01)
    ds = sorted(G.dist(0, w) for _, w, _ in T.point_lifts(tiles, T.by_chart([p])))
    assert ds[0] < 1e-9
    assert ds[1] == pytest.approx(1.0, abs=1e-7)


def test_lift_ball_single_below_systole():
    atlas = sym_atlas(2, 1.0)
    p = T.SurfacePoint(0, atlas.cc.charts[0].center)
    tiles = T.ball_tiles(atlas.cc, p, 0.4)
    assert len(T.point_lifts(tiles, T.by_chart([p]))) == 1


_DEVELOPMENT = {}


def _development():
    if not _DEVELOPMENT:
        atlas = sym_atlas(2, 1.0, 0.3)
        p = T.SurfacePoint(0, atlas.cc.charts[0].center)
        _DEVELOPMENT["cc"] = atlas.cc
        _DEVELOPMENT["tiles"] = T.ball_tiles(atlas.cc, p, 2.5)
    return _DEVELOPMENT["cc"], _DEVELOPMENT["tiles"]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 6),
       st.builds(complex, st.floats(-0.9, 0.9), st.floats(-0.9, 0.9))
       .filter(lambda z: abs(z) < 0.9),
       st.floats(0.0, 3.0))
def test_meets_ball_matches_exact_distance(k, center, radius):
    cc, tiles = _development()
    tile = tiles[k % len(tiles)]
    # recentre the tile so that the ball's center sits at the origin
    moved = T.Tile(tile.chart, G.Mobius.translate_to(center).inverse()
                   @ tile.placement)
    z = moved.placement.inverse()(0.0)
    exact = dist_to_boundary_from_outside(cc.charts[tile.chart], z)
    assert T._meets_ball(cc.charts[tile.chart], z, radius) == \
        (exact <= radius)


def _side_point(ch, i, t, h):
    """The point at arc length t along side i of chart ch, at signed
    distance h from the side's geodesic, h > 0 into the polygon."""
    f = (ch.side_frames[i] @ G.Mobius.translation_x(t)
         @ G.Mobius.rotation(0.5 * math.pi))
    return f(math.tanh(0.5 * h))


def _decide(ci, z0, radius):
    """_meets_ball on the tile of chart ci that puts the origin at z0 in
    the chart's frame; the exact answer; the distance d from the origin
    to the chart centre; and the distance to the nearest vertex."""
    cc, _ = _development()
    ch = cc.charts[ci]
    tile = T.Tile(ci, G.Mobius.translate_to(z0).inverse())
    z = tile.placement.inverse()(0.0)
    exact = dist_to_boundary_from_outside(ch, z) <= radius
    return (T._meets_ball(ch, z, radius), exact, G.dist(z, ch.center),
            min(G.dist(z, v) for v in ch.vertices))


def _touching_side(ch):
    """The side whose geodesic lies inscribed from the centre, and the arc
    length of the foot of the centre on it."""
    feet = [G.dist_to_diameter(fi(ch.center)) for fi in ch.side_inverses]
    i = min(range(len(ch.vertices)), key=lambda k: feet[k][0])
    return i, feet[i][1]


PAD = T._NEAR_PAD


def test_meets_ball_inscribed_disk_accept():
    ch = _development()[0].charts[0]
    i, t = _touching_side(ch)
    radius = 0.3 + 1e-3
    got, exact, d, vertex = _decide(0, _side_point(ch, i, t, -0.3), radius)
    # the centre beyond radius, no vertex within reach: the disk bound
    # decides
    assert radius < d <= radius + ch.inradius - PAD and vertex > radius
    assert got and exact


@pytest.mark.parametrize("s", [0.01 * k for k in range(1, 31)])
def test_meets_ball_inscribed_disk_bound_is_tight(s):
    # the origin at distance s outside the side that the inscribed disk
    # touches, on the normal through the touching point: the polygon is s
    # away and the centre inradius + s, so no larger disk bound holds
    cc, _ = _development()
    ch = cc.charts[0]
    i, t = _touching_side(ch)
    z0 = _side_point(ch, i, t, -s)
    got, exact, d, _ = _decide(0, z0, s - 5e-4)
    assert d < s - 5e-4 + ch.inradius + 1e-3
    assert not got and not exact
    # one ulp short: the pad keeps rounding from accepting by the disk
    z = G.Mobius.translate_to(z0)(0.0)
    radius = math.nextafter(dist_to_boundary_from_outside(ch, z), 0.0)
    got, exact, _, _ = _decide(0, z0, radius)
    assert not got and not exact


def test_meets_ball_vertex_accept():
    ch = _development()[0].charts[0]
    # 0.05 beyond vertex 0 on the geodesic from the centre
    f = G.Mobius.frame(ch.center, G.direction(ch.center, ch.vertices[0]))
    z0 = f(math.tanh(0.5 * (G.dist(ch.center, ch.vertices[0]) + 0.05)))
    radius = 0.1
    got, exact, d, vertex = _decide(0, z0, radius)
    assert d > radius + ch.inradius and vertex < radius - PAD
    assert got and exact


@pytest.mark.parametrize("radius, want", [(0.2 + 1e-3, True),
                                          (0.2 - 1e-3, False)])
def test_meets_ball_separating_side(radius, want):
    # 0.2 outside the middle of the side farthest from the centre: only
    # the exact distance to that side decides
    ch = _development()[0].charts[0]
    feet = [G.dist_to_diameter(fi(ch.center))[0] for fi in ch.side_inverses]
    i = max(range(len(ch.vertices)), key=lambda k: feet[k])
    z0 = _side_point(ch, i, 0.5 * ch.side_lengths[i], -0.2)
    got, exact, d, vertex = _decide(0, z0, radius)
    assert d > radius + ch.inradius and vertex > radius
    assert got == exact == want


def test_meets_ball_origin_inside_far_from_centre():
    # a tiny ball inside the polygon near a corner, as
    # linearbound.locate_vertices_in_pants asks: no side separates
    ch = _development()[0].charts[0]
    z0 = _side_point(ch, 0, 0.01, 0.01)
    assert min_side_sign(ch, z0) > 0.0
    got, exact, d, vertex = _decide(0, z0, 1e-9)
    assert d > 1e-9 + ch.inradius and vertex > 1e-9
    assert got and exact


def test_development_refuses_centre_outside_chart():
    # node identity and _meets_ball's inscribed-disk accept take every
    # chart's centre to lie in its polygon, so the first development
    # checks them
    atlas = sym_atlas(2, 15.0)
    ch = atlas.cc.charts[0]
    with pytest.raises(DomainError, match="chart 0 'P0[+]': centre .* "
                                          "outside its polygon"):
        T.ball_tiles(atlas.cc, T.SurfacePoint(0, ch.center), 1.0)


# dist_to_diameter takes acosh near 1, so a side distance below about 2e-8
# reads as 0; no case between 1e-9 and that is pinned
@pytest.mark.parametrize("h, want", [(-5e-10, True), (-1e-6, False),
                                     (1e-6, True)])
def test_meets_ball_radius_1e_9(h, want):
    ch = _development()[0].charts[0]
    z0 = _side_point(ch, 1, 0.5 * ch.side_lengths[1], h)
    got, exact, _, _ = _decide(0, z0, 1e-9)
    assert got == exact == want


def test_surface_distance_local():
    atlas = sym_atlas(2, 1.0)
    ch = atlas.cc.charts[0]
    p = T.SurfacePoint(0, ch.center)
    q = T.SurfacePoint(0, 0.5 * (ch.center + ch.vertices[0]))
    assert surface_distance(atlas.cc, p, q) == pytest.approx(
        G.dist(p.z, q.z), abs=1e-9)
    assert surface_distance(atlas.cc, p, p) == 0.0


def test_surface_distance_metric():
    atlas = sym_atlas(2, 1.2, 0.2)
    pts = [T.SurfacePoint(c, atlas.cc.charts[c].center) for c in (0, 1, 2)]
    pts.append(T.SurfacePoint(0, 0.7 * atlas.cc.charts[0].center
                              + 0.3 * atlas.cc.charts[0].vertices[2]))
    d = {}
    for i, p in enumerate(pts):
        for j, q in enumerate(pts):
            d[i, j] = surface_distance(atlas.cc, p, q)
    for i in range(len(pts)):
        for j in range(len(pts)):
            assert d[i, j] == pytest.approx(d[j, i], abs=1e-8)
            for k in range(len(pts)):
                assert d[i, k] <= d[i, j] + d[j, k] + 1e-8


def test_short_geodesics_sym():
    atlas = sym_atlas(2, 1.0)
    sg = atlas.short_geodesics(1.44)
    assert len(sg) == 3
    for s in sg:
        assert s.length == pytest.approx(1.0, abs=1e-7)


def test_short_geodesics_none():
    atlas = sym_atlas(2, 2.0)
    assert atlas.short_geodesics(1.44) == []


def test_short_geodesics_one_thin():
    pg = S.linear_graph(2)
    atlas = S.SurfaceAtlas(pg, S.FNCoordinates((0.5, 2.0, 2.0), (0.0,) * 3))
    sg = atlas.short_geodesics(1.44)
    assert len(sg) == 1
    assert sg[0].length == pytest.approx(0.5, abs=1e-7)


@pytest.mark.parametrize("first", [1.0, 0.5])
def test_short_geodesics_dedup_g3(first):
    # each cuff is found from several charts: dedup must keep every one of
    # the 3g-3 = 6 cuffs exactly once and merge none of equal length
    pg = S.linear_graph(3)
    lengths = (first,) + (1.0,) * 5
    atlas = S.SurfaceAtlas(pg, S.FNCoordinates(lengths, (0.0,) * 6))
    got = [s.length for s in atlas.short_geodesics(1.44)]
    assert got == pytest.approx(sorted(lengths), abs=1e-7)


# the largest threshold at which the short geodesics stay simple and
# pairwise disjoint: 2 eps, eps < arcsinh 1 (Buser, ch. 4)
_THRESHOLD_MAX = 2.0 * math.asinh(1.0)
_DETECTION = {}


def _detection_surface(name):
    if name == "thick":
        return S.SurfaceAtlas(
            S.PantsGraph(2, ((0, 1), (0, 1), (0, 1))),
            S.FNCoordinates((1.7, 2.2, 1.9), (0.4, -0.6, 0.9)))
    if name == "chain-0.3":
        return S.SurfaceAtlas(S.linear_graph(2), S.FNCoordinates(
            (0.3, 1.0, 1.0), (0.0,) * 3))
    return cached_build(2, thin=name == "g2_thin_build")[0]


def _old_ball_candidates(name):
    """Per chart: its centre_radius and the (length, g) candidates of the
    old detection ball at _THRESHOLD_MAX."""
    if name not in _DETECTION:
        atlas = _detection_surface(name)
        _DETECTION[name] = [
            (ch.center_radius, detection_candidates(
                atlas, ci, _THRESHOLD_MAX,
                old_detection_radius(ch, _THRESHOLD_MAX))[1])
            for ci, ch in enumerate(atlas.cc.charts)]
    return _DETECTION[name]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["g2_build", "g2_thin_build", "thick"]),
       st.floats(0.05, _THRESHOLD_MAX))
def test_detection_ball_holds_old_candidates(name, threshold):
    # every candidate the old radius finds moves the centre by less than
    # the displacement bound, so its tile meets the new ball
    charts = _old_ball_candidates(name)
    assert any(c for _, c in charts)
    for center_radius, cands in charts:
        r = center_radius + 1e-6
        bound = max(2.0 * math.asinh(math.cosh(r) * math.sinh(0.5 * threshold)),
                    r + threshold)
        for length, g in cands:
            if length < threshold:
                assert G.dist(0.0, g(0.0)) < bound


def _bits(sg):
    m, p = sg.element, sg.basepoint
    return (sg.length.hex(), sg.chart,
            tuple(x.hex() for x in (m.a.real, m.a.imag, m.b.real, m.b.imag)),
            p.chart, p.z.real.hex(), p.z.imag.hex())


@pytest.mark.parametrize("name", ["g2_build", "g2_thin_build", "thick",
                                  "chain-0.3"])
def test_short_geodesics_match_old_radius(name):
    atlas = _detection_surface(name)
    threshold = 2.0 * TT.EPSILON
    got = [_bits(sg) for sg in atlas.short_geodesics(threshold)]
    assert got == [_bits(sg)
                   for sg in reference_short_geodesics(atlas, threshold)]


def _same_geodesic_by_development(cc, sg, other, tol=1e-6):
    """The dedup test with a development of its own on the chart complex
    cc: a ball around the basepoint p of other, in which some tile of sg's
    chart carries a lift of sg's axis through p if p is on sg.  The foot q
    of sg's chart center on the axis is within center_radius of the
    center, and sliding the tile by powers of sg brings q within length/2
    of p."""
    radius = 0.5 * sg.length + cc.charts[sg.chart].center_radius + 0.1
    tiles = T.ball_tiles(cc, other.basepoint, radius)
    return any(G.dist_to_diameter(G.axis_frame(g).inverse()(0))[0] < tol
               for g in waist_lifts(cc, sg, tiles))


@pytest.mark.parametrize("surface", ["g2_build", "g2_thin_build", "g3"])
def test_same_geodesic_matches_development(surface, request, monkeypatch):
    # every comparison short_geodesics makes, decided in the detection
    # ball and in a development around the other basepoint
    if surface == "g3":
        atlas = sym_atlas(3)
    else:
        atlas = request.getfixturevalue(surface)[0]
    decisions = []
    same = S.ShortGeodesic.same_geodesic

    def both(self, other, tiles):
        got = same(self, other, tiles)
        decisions.append((got, _same_geodesic_by_development(
            atlas.cc, self, other)))
        return got

    monkeypatch.setattr(S.ShortGeodesic, "same_geodesic", both)
    atlas.short_geodesics(1.44)
    assert all(got == want for got, want in decisions), decisions
    assert {got for got, _ in decisions} == {True, False}


def test_twist_full_turn_same_atlas():
    # a twist shift by the full cuff length gives the identical atlas
    pg = S.linear_graph(2)
    a1 = S.SurfaceAtlas(pg, S.FNCoordinates((1.0,) * 3, (0.3, 0.0, 0.0)))
    a2 = S.SurfaceAtlas(pg, S.FNCoordinates((1.0,) * 3, (1.3, 0.0, 0.0)))
    l1 = sorted(s.length for s in a1.short_geodesics(1.44))
    l2 = sorted(s.length for s in a2.short_geodesics(1.44))
    assert len(l1) == len(l2)
    for x, y in zip(l1, l2):
        assert x == pytest.approx(y, abs=1e-6)
    for c1, c2 in zip(a1.cc.charts, a2.cc.charts):
        for s1, s2 in zip(c1.transitions, c2.transitions):
            ks1 = sorted((j, m.key()) for j, m in s1)
            ks2 = sorted((j, m.key()) for j, m in s2)
            for (j1, k1), (j2, k2) in zip(ks1, ks2):
                assert j1 == j2
                assert all(abs(a - b) < 1e-9 for a, b in zip(k1, k2))


def test_spec_json_roundtrip(tmp_path):
    pg = S.linear_graph(3)
    fn = S.FNCoordinates((1.0, 0.5, 1.25, 1.0, 0.75, 2.0),
                         (0.1, 0.0, -0.3, 0.0, 0.0, 0.5))
    text = spec_to_json(pg, fn)
    pg2, fn2 = S.spec_from_json(text)
    assert pg2 == pg
    assert fn2.lengths == fn.lengths and fn2.twists == fn.twists
    # bit-exact roundtrip through a second serialization
    assert spec_to_json(pg2, fn2) == text
