import cmath
import hashlib
import json
import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (cached_build, cylinder_vertex_count, cylinders,
                      linear_atlas)
from hypdel import delaunay as D
from hypdel import geometry as G
from hypdel import thickthin as TT
from hypdel import tiling as T
from hypdel import verify as V
from hypdel.errors import DegenerateTriangle, DomainError, NoCompactCircumdisk
from reference import (brute_force_delaunay_keys, min_side_sign,
                       surface_distance, three_rotation_triangle_key)


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
        if min_side_sign(ch, z) < 1e-6:
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
    assert len(cylinders(res)) == 3
    n_cyl = cylinder_vertex_count(res)
    assert n_cyl == 27
    assert n_cyl <= 27 * (res.complex.genus - 1)
    assert n_cyl < res.complex.n_vertices
    # the cylinder vertices are the first labels
    assert sorted(i for _, idx in res.standard
                  for i in idx.values()) == list(range(n_cyl))


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
    oracle = brute_force_delaunay_keys(atlas, pts, radius=4.5)
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


# sha256 of the genus-2 chains' triangulation files (criterion 4, all cuffs
# 1.0 or the first 0.5), as scripts/byte_digest.py prints them; a change
# that means to change the construction's output updates these and says
# why in CHANGES.md
CONSTRUCTION_SHA256 = {
    False: "5b1c6999c5784a1d084eef81f8aad1335b4b3dec304399587da1a16802b3f974",
    True: "31b5fbcbff3e9da2fdfc559b53beb0a54defa78e0dba1205c0cf1033c40b2418",
}


@pytest.mark.parametrize("thin", [False, True], ids=["cuffs-1", "thin-cuff"])
def test_construction_bytes_are_pinned(thin):
    _, _, text = cached_build(2, thin)
    assert (hashlib.sha256(text.encode()).hexdigest()
            == CONSTRUCTION_SHA256[thin])


def test_thin_waist_spacing(g2_thin_build):
    # the short cuff keeps its 9 standard vertices at waist spacing l/3
    atlas, res, _ = g2_thin_build
    short = [st for st, _ in res.standard if st.cylinder.length < 0.6]
    assert len(short) == 1
    st = short[0]
    assert len(st.vertices) == 9
    assert surface_distance(atlas.cc, st.vertices["x1"],
                            st.vertices["x2"]) == pytest.approx(
        st.cylinder.length / 3, abs=1e-9)


def test_cylinder_stars_start_at_their_triangles_radius(g2_thin_build,
                                                       monkeypatch):
    # each cylinder vertex's star is certified by the first ball it
    # builds, which the standard circumradius places; the smaller balls
    # it skips could not certify it, so skipping them changes no byte
    atlas, res, text = g2_thin_build
    points = res.complex.points
    fans, circumradii = {}, {}
    for st, idx in res.standard:
        for t, u in zip(st.triangles[::2], st.triangles[1::2]):
            fans[frozenset(idx[n] for n in t + u)] = idx[t[0]]
        circumradii.update((i, st.circumradius) for i in idx.values())
    clouds = []
    cloud = D._Cloud

    def counted(builder, i, r):
        clouds[-1][i] = clouds[-1].get(i, 0) + 1
        return cloud(builder, i, r)
    monkeypatch.setattr(D, "_Cloud", counted)
    for radii in (circumradii, None):
        clouds.append({})
        tc = D.lifted_delaunay(atlas, points, fans, radii)
        assert D.complex_to_json(tc) == text
    started, grown = clouds
    assert all(started[i] == 1 for i in circumradii)
    assert any(grown[i] > 1 for i in circumradii)


def test_star_builder_grows_past_collinear_cloud():
    # At the start radius the center of some vertex lies on the hull of a
    # collinear cloud, so its inverted hull leaves the star open.  The
    # builder must grow the ball.
    atlas = linear_atlas(2, (0.8, 1.2, 1.0))
    res = D.thick_thin_triangulation(atlas)
    cert = V.verify_complex(
        D.complex_from_json(atlas, D.complex_to_json(res.complex)))
    assert cert.passed, cert.summary()


def _turn(a, b, w):
    return ((b - a).conjugate() * (w - a)).imag


def _hull_edges_by_brute_force(points):
    """Directed edges (p, q), p != q, with every point on the closed left
    of the line pq and every point on that line between p and q."""
    pts = sorted(set(points), key=lambda w: (w.real, w.imag))
    edges = set()
    for p in pts:
        for q in pts:
            if p == q or any(_turn(p, q, w) < 0 for w in pts):
                continue
            if all(((w - p).conjugate() * (q - w)).real >= 0
                   for w in pts if _turn(p, q, w) == 0):
                edges.add((p, q))
    return edges


# integer coordinates keep every turn test exact
_grid_points = st.lists(st.builds(complex, st.integers(-6, 6),
                                  st.integers(-6, 6)), max_size=25)


@settings(max_examples=300, deadline=None)
@given(_grid_points)
@example([])
@example([1 + 1j, 1 + 1j])
@example([0j, 0j, 1 + 0j, 1 + 0j, 1j, 1j])
@example([0j, 1 + 1j, 2 + 2j, 3 + 3j, 2 + 2j])
@example([0j, 1 + 0j, 2 + 0j, 2 + 1j, 2 + 2j, 1 + 2j, 0 + 2j, 1j, 1 + 1j])
def test_ccw_hull_matches_brute_force(points):
    hull = [points[k] for k in D._ccw_hull(points)]
    edges = {(p, q) for p, q in zip(hull, hull[1:] + hull[:1]) if p != q}
    assert edges == _hull_edges_by_brute_force(points)
    if len(set(points)) > 1:
        assert len(set(hull)) == len(hull)  # no vertex twice


def _empty_circle_star(lifts, c, tol=1e-9):
    """Every (c, p, q) whose circumcircle through lifts[c] holds no lift in
    its open disk, by testing each lift; None when some lift lies within
    tol of a circle, where the rounding of either side decides."""
    found = set()
    for p in range(len(lifts)):
        for q in range(len(lifts)):
            if c in (p, q) or p == q:
                continue
            a, b = lifts[p] - lifts[c], lifts[q] - lifts[c]
            det = 2 * _turn(0j, a, b)
            if det <= 0:
                continue  # collinear, or counted as (c, q, p)
            m = (abs(b) ** 2 * a - abs(a) ** 2 * b) * 1j / det  # center
            gaps = [abs(w - lifts[c] - m) - abs(m)
                    for k, w in enumerate(lifts) if k not in (c, p, q)]
            if any(abs(g) < tol for g in gaps):
                return None
            if all(g > 0 for g in gaps):
                found.add(frozenset((c, p, q)))
    return found


def test_hull_star_is_the_empty_circle_star():
    # the cloud's middle drifts off the center lift, which then often
    # lies outside the inverted hull and gets an open chain
    rng = random.Random(2024)
    decided = 0
    for _ in range(200):
        mid = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        lifts = [mid + complex(rng.gauss(0, 0.3), rng.gauss(0, 0.3))
                 for _ in range(rng.randrange(1, 30))]
        c = rng.randrange(len(lifts) + 1)
        lifts.insert(c, complex(rng.gauss(0, 1e-9), rng.gauss(0, 1e-9)))
        want = _empty_circle_star(lifts, c)
        if want is None:
            continue  # a lift within rounding of a circle
        got = D._hull_star(lifts, c)
        assert len(got) == len(want)
        assert {frozenset(s) for s in got} == want
        decided += 1
    assert decided > 190


_disk_points = st.builds(complex, st.floats(-0.8, 0.8),
                         st.floats(-0.8, 0.8)).filter(lambda z: abs(z) < 0.8)


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[st.integers(0, 2)] * 3), st.tuples(*[_disk_points] * 3))
@example((1, 1, 1), (0.1 + 0.2j, -0.3 + 0.1j, 0.2 - 0.4j))
@example((0, 1, 0), (0.1 + 0.2j, -0.3 + 0.1j, 0.2 - 0.4j))
@example((2, 0, 0), (0j, 0.5 + 0j, 0.5j))
def test_triangle_key_matches_three_rotation_key(labels, lifts):
    # the key compares labels first, so only the rotations that start at
    # the least label can give the least key; repeated labels leave two or
    # three of them to compare by position
    a, b, c = lifts
    assume(min(abs(a - b), abs(b - c), abs(c - a)) > 1e-6)
    assert D._triangle_key(labels, lifts) == \
        three_rotation_triangle_key(labels, lifts)


def _full_scan(lifts, disk):
    return [k for k, w in enumerate(lifts)
            if abs(G.dist(disk.center, w) - disk.radius) <= D.DEGEN_TOL]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_disk_points, st.floats(0.05, 3.0),
                          st.lists(st.tuples(st.floats(0.0, 2 * math.pi),
                                             st.floats(-12.0, -8.0),
                                             st.sampled_from([-1.0, 1.0])),
                                   min_size=1, max_size=12)),
                min_size=1, max_size=4),
       st.lists(_disk_points, max_size=20))
def test_cocircularity_prefilter_keeps_every_lift_of_the_scan(circles,
                                                              others):
    # lifts on each circle and 1e-12 to 1e-8 off it, in hyperbolic
    # distance, among random ones: every lift that the scalar scan of any
    # circle keeps is among the prefilter's candidates for that circle
    lifts, disks, on = list(others), [], []
    for centre, radius, marks in circles:
        f = G.Mobius.translate_to(centre)
        corners = [f(cmath.rect(math.tanh(0.5 * radius), 2.0 * k))
                   for k in range(3)]
        try:
            disk = G.circumdisk(*corners)
        except (DegenerateTriangle, NoCompactCircumdisk):
            continue
        g = G.Mobius.translate_to(disk.center)
        for theta, exponent, sign in marks:
            h = disk.radius + sign * 10.0 ** exponent
            lifts.append(g(cmath.rect(math.tanh(0.5 * h), theta)))
            if 10.0 ** exponent <= 0.5 * D.DEGEN_TOL:
                on.append((len(disks), len(lifts) - 1))
        lifts += corners
        disks.append(disk)
    assume(disks)
    near = D._near_circles(lifts, disks)
    assert len(near) == len(disks)
    for d, disk in enumerate(disks):
        assert set(_full_scan(lifts, disk)) <= set(near[d])
    for d, k in on:
        assert k in _full_scan(lifts, disks[d])
