import json
import math
import random

import pytest

from conftest import cached_build, linear_atlas
from hypdel import delaunay as D
from hypdel import geometry as G
from hypdel import thickthin as TT
from hypdel import tiling as T
from hypdel import verify as V
from hypdel.errors import DomainError


def sample_points(atlas, rng, n, separation=0.25):
    """Random eps-separated points, rejection-sampled chart by chart."""
    pts = []

    def far(p):
        for t in T.ball_tiles(atlas.cc, p, separation + 0.05):
            for q in pts:
                if q.chart == t.chart and \
                        G.dist(0, t.placement(q.z)) < separation:
                    return False
        return True

    while len(pts) < n:
        ci = rng.randrange(len(atlas.cc.charts))
        ch = atlas.cc.charts[ci]
        z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        if not ch.contains(z, -1e-6):
            continue
        p = T.SurfacePoint(ci, z)
        if far(p):
            pts.append(p)
    pts.sort(key=D._vertex_sort_key)
    return pts


def test_too_few_points():
    atlas = linear_atlas(2)
    with pytest.raises(DomainError):
        D.lifted_delaunay(atlas, [])


def test_coincident_points():
    atlas = linear_atlas(2)
    rng = random.Random(7)
    pts = sample_points(atlas, rng, 6)
    pts.append(pts[0])
    with pytest.raises(DomainError, match="coincide"):
        D.lifted_delaunay(atlas, pts)


def test_counting_identities(g2_build):
    _, res, _ = g2_build
    tc = res.complex
    v, g = tc.n_vertices, tc.genus
    assert g == 2
    assert len(tc.edges) == 3 * v + 6 * g - 6
    assert len(tc.triangles) == 2 * v + 4 * g - 4
    assert v <= 151 * g


def test_cylinder_vertex_budget(g2_build):
    # 3 thin cylinders at waist 1.0, 9 vertices each
    _, res, _ = g2_build
    assert len(res.cylinders) == 3
    assert len(res.p1) == 27
    assert len(res.p1) <= 27 * (res.complex.genus - 1)
    assert len(res.p1) + len(res.p2) == res.complex.n_vertices


def test_json_round_trip(g2_build):
    atlas, res, text = g2_build
    loaded = D.complex_from_json(atlas, text)
    tc = res.complex
    assert loaded.genus == tc.genus
    assert len(loaded.points) == tc.n_vertices
    assert len(loaded.edges) == len(tc.edges)
    assert len(loaded.triangles) == len(tc.triangles)
    # triangle triples survive (modulo the canonical vertex reordering)
    assert [list(t) for t in sorted(loaded.triangles)] == \
        json.loads(text)["triangles"]
    # edge placements still map endpoint to endpoint at the right length
    by_pair = {}
    for u, v, m in loaded.edges:
        by_pair.setdefault((u, v), []).append(m)
    for (u, v), ms in by_pair.items():
        for m in ms:
            d = G.dist(0.0, m(loaded.points[v].z))
            assert d > 1e-6


def test_determinism(g2_build):
    atlas, _, text = g2_build
    res2 = D.thick_thin_triangulation(atlas)
    assert D.complex_to_json(res2.complex) == text


def test_brute_force_equivalence():
    atlas = linear_atlas(2)
    rng = random.Random(424242)
    pts = sample_points(atlas, rng, 10)
    tc = D.lifted_delaunay(atlas, pts)
    mine = {D._triangle_key(t.labels, t.lifts) for t in tc.triangles}
    oracle = D.brute_force_delaunay_keys(atlas, pts, radius=4.5)
    assert mine == oracle


def test_label_permutation_invariance():
    # constructing from a permuted point list yields the same triangles
    atlas = linear_atlas(2)
    rng = random.Random(99)
    pts = sample_points(atlas, rng, 8)
    tc = D.lifted_delaunay(atlas, pts)
    perm = list(range(len(pts)))
    random.Random(5).shuffle(perm)
    tc2 = D.lifted_delaunay(atlas, [pts[i] for i in perm])
    inv = {new: old for new, old in enumerate(perm)}
    tris1 = {tuple(sorted(t.labels)) for t in tc.triangles}
    tris2 = {tuple(sorted(inv[l] for l in t.labels)) for t in tc2.triangles}
    assert tris1 == tris2


def test_edge_lengths_below_thick_bound(g2_build):
    # thick-part edges are certified against 2 * circumradius <= r; with
    # all waists at 1.0 every edge should be comfortably below 2 * rmax
    _, res, _ = g2_build
    assert max(e.length for e in res.complex.edges) < 2 * 8.0
    assert min(e.length for e in res.complex.edges) > 1e-6


def test_thin_waist_spacing(g2_thin_build):
    # the short cuff keeps its 9 standard vertices at waist spacing l/3
    _, res, _ = g2_thin_build
    short = [c for c in res.cylinders if c.length < 0.6]
    assert len(short) == 1
    _, st, _ = res.standard[res.cylinders.index(short[0])]
    assert len(st.vertices) == 9
    assert st.edge_length("x1", "x2") == pytest.approx(
        short[0].length / 3, abs=1e-9)


def test_star_builder_grows_past_collinear_cloud():
    # At the start radius the center of some vertex lies on the hull of a
    # collinear cloud; qhull then drops lifts near it and reports its own
    # added point as coplanar.  The builder must grow the ball.
    atlas = linear_atlas(2, (0.8, 1.2, 1.0))
    res = D.thick_thin_triangulation(atlas)
    cert = V.verify_json(atlas, D.complex_to_json(res.complex))
    assert cert.passed, cert.summary()
