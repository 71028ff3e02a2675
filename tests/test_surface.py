import math

import pytest
from hypothesis import given, settings, strategies as st

from hypdel import geometry as G
from hypdel import surface as S
from hypdel import tiling as T
from hypdel.errors import InvalidGenus, InvalidGraph, InvalidLength


def sym_atlas(g=2, length=1.0, twist=0.0):
    pg = S.linear_graph(g)
    n = len(pg.edges)
    return S.build_atlas(pg, S.FNCoordinates((length,) * n, (twist,) * n))


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
        S.build_atlas(pg, S.FNCoordinates((1.0, 0.0, 1.0), (0.0,) * 3))


def test_cuff_length_readback():
    atlas = sym_atlas(2, 1.0)
    for g in atlas.cuff_generators:
        assert G.translation_length(g) == pytest.approx(1.0, abs=1e-7)


def test_cuff_length_readback_mixed():
    pg = S.linear_graph(2)
    atlas = S.build_atlas(pg, S.FNCoordinates((0.6, 1.3, 2.2), (0.1, -0.4, 0.0)))
    for gi, g in enumerate(atlas.cuff_generators):
        assert G.translation_length(g) == pytest.approx(
            atlas.fn.lengths[gi], abs=1e-7)


def test_vertex_angle_closure():
    sym_atlas(2, 1.0, 0.0).vertex_angle_audit()
    sym_atlas(2, 1.3, 0.27).vertex_angle_audit()


def test_vertex_angle_closure_g3():
    sym_atlas(3, 1.0, 0.15).vertex_angle_audit()


def test_hexagon_side_relation():
    # seam sides of the construction satisfy the right-angled hexagon law
    atlas = sym_atlas(2, 1.0)
    ch = atlas.cc.charts[0]
    want = G.hexagon_orthogeodesic(1.0, 1.0, 1.0)
    for seam_side in (1, 3, 5):
        assert ch.side_lengths[seam_side] == pytest.approx(want, abs=1e-9)


def test_reciprocal_transitions():
    atlas = sym_atlas(2, 1.0, 0.3)
    atlas.cc.check_reciprocal()


def test_lift_ball_cuff_translate():
    # lifting a cuff point to radius l + 0.01 sees the cuff-translated lift
    atlas = sym_atlas(2, 1.0)
    ch = atlas.cc.charts[0]
    z = ch.side_frames[0](math.tanh(0.125))
    p = T.SurfacePoint(0, z)
    tiles = T.ball_tiles(atlas.cc, p, 1.01)
    ds = sorted(G.dist(0, w) for _, w, _ in T.point_lifts(tiles, [p]))
    assert ds[0] < 1e-9
    assert ds[1] == pytest.approx(1.0, abs=1e-7)


def test_lift_ball_single_below_systole():
    atlas = sym_atlas(2, 1.0)
    p = T.SurfacePoint(0, atlas.cc.charts[0].center)
    tiles = T.ball_tiles(atlas.cc, p, 0.4)
    assert len(T.point_lifts(tiles, [p])) == 1


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
    exact = cc.charts[tile.chart].dist_to_boundary_from_outside(z)
    assert T._meets_ball(cc, moved, radius) == (exact <= radius)


def test_surface_distance_local():
    atlas = sym_atlas(2, 1.0)
    ch = atlas.cc.charts[0]
    p = T.SurfacePoint(0, ch.center)
    q = T.SurfacePoint(0, 0.5 * (ch.center + ch.vertices[0]))
    assert T.surface_distance(atlas.cc, p, q) == pytest.approx(
        G.dist(p.z, q.z), abs=1e-9)
    assert T.surface_distance(atlas.cc, p, p) == 0.0


def test_surface_distance_metric():
    atlas = sym_atlas(2, 1.2, 0.2)
    pts = [T.SurfacePoint(c, atlas.cc.charts[c].center) for c in (0, 1, 2)]
    pts.append(T.SurfacePoint(0, 0.7 * atlas.cc.charts[0].center
                              + 0.3 * atlas.cc.charts[0].vertices[2]))
    d = {}
    for i, p in enumerate(pts):
        for j, q in enumerate(pts):
            d[i, j] = T.surface_distance(atlas.cc, p, q)
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
    atlas = S.build_atlas(pg, S.FNCoordinates((0.5, 2.0, 2.0), (0.0,) * 3))
    sg = atlas.short_geodesics(1.44)
    assert len(sg) == 1
    assert sg[0].length == pytest.approx(0.5, abs=1e-7)


@pytest.mark.parametrize("first", [1.0, 0.5])
def test_short_geodesics_dedup_g3(first):
    # each cuff is found from several charts: dedup must keep every one of
    # the 3g-3 = 6 cuffs exactly once and merge none of equal length
    pg = S.linear_graph(3)
    lengths = (first,) + (1.0,) * 5
    atlas = S.build_atlas(pg, S.FNCoordinates(lengths, (0.0,) * 6))
    got = [s.length for s in atlas.short_geodesics(1.44)]
    assert got == pytest.approx(sorted(lengths), abs=1e-7)


def _same_geodesic_by_development(sg, other, tol=1e-6):
    """The dedup test with a development of its own: a ball around the
    basepoint p of other, in which some tile of sg's chart carries a lift
    of sg's axis through p if p is on sg.  The foot q of sg's chart center
    on the axis is within center_radius of the center, and sliding the
    tile by powers of sg brings q within length/2 of p."""
    cc = sg.atlas.cc
    radius = 0.5 * sg.length + cc.charts[sg.chart].center_radius + 0.1
    tiles = T.ball_tiles(cc, other.basepoint(), radius)
    return any(G.dist_to_diameter(G.axis_frame(g).inverse()(0))[0] < tol
               for g in sg.lifts(tiles))


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

    def both(self, other, tiles, tol=1e-6):
        got = same(self, other, tiles, tol)
        decisions.append((got, _same_geodesic_by_development(self, other)))
        return got

    monkeypatch.setattr(S.ShortGeodesic, "same_geodesic", both)
    atlas.short_geodesics(1.44)
    assert all(got == want for got, want in decisions), decisions
    assert {got for got, _ in decisions} == {True, False}


def test_twist_full_turn_same_atlas():
    # a twist shift by the full cuff length gives the identical atlas
    pg = S.linear_graph(2)
    a1 = S.build_atlas(pg, S.FNCoordinates((1.0,) * 3, (0.3, 0.0, 0.0)))
    a2 = S.build_atlas(pg, S.FNCoordinates((1.0,) * 3, (1.3, 0.0, 0.0)))
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
    text = S.spec_to_json(pg, fn)
    pg2, fn2 = S.spec_from_json(text)
    assert pg2 == pg
    assert fn2.lengths == fn.lengths and fn2.twists == fn.twists
    # bit-exact roundtrip through a second serialization
    assert S.spec_to_json(pg2, fn2) == text
