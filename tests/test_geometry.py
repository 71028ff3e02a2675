import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypdel import geometry as G
from hypdel.errors import DegenerateTriangle, DomainError, NoCompactCircumdisk
from reference import diameter_gap, disk_area, pythagoras

# points kept away from the boundary so acosh arguments stay well conditioned
disk_points = st.builds(
    complex,
    st.floats(-0.9, 0.9),
    st.floats(-0.9, 0.9),
).filter(lambda z: abs(z) < 0.9)

angles = st.floats(-math.pi, math.pi)
lengths = st.floats(0.05, 5.0)


def random_isometry(draw):
    p = draw(disk_points)
    th = draw(angles)
    return G.Mobius.frame(p, th)


isometries = st.builds(G.Mobius.frame, disk_points, angles)


def test_dist_examples():
    assert G.dist(0, 0.5) == pytest.approx(math.log(3), abs=1e-12)
    assert G.dist(0.3j, 0.3j) == 0.0


def test_dist_domain():
    with pytest.raises(DomainError):
        G.dist(0, 1.0)


@given(disk_points, disk_points)
def test_dist_symmetry(p, q):
    assert G.dist(p, q) == pytest.approx(G.dist(q, p), abs=1e-12)


@given(disk_points, disk_points, disk_points)
@example(0.5 + 0j, 1e-9 + 0j, 0j)
def test_triangle_inequality(p, q, r):
    assert G.dist(p, r) <= G.dist(p, q) + G.dist(q, r) + 1e-10


def test_dist_near_coincident():
    # acosh(1 + 2s) rounds s = 1e-18 away; the distance is 2 atanh(1e-9)
    assert G.dist(1e-9, 0) == pytest.approx(2e-9, rel=1e-9)


def test_dist_many_near_coincident():
    d = G.dist_many(0j, np.array([1e-9 + 0j]))
    assert d[0] == pytest.approx(2e-9, rel=1e-9)


offsets = st.builds(complex, st.floats(-1e-6, 1e-6), st.floats(-1e-6, 1e-6))


@given(disk_points, st.lists(disk_points, max_size=6),
       st.lists(offsets, max_size=6))
@example(0j, [], [1e-9 + 0j])
def test_dist_many_matches_dist(p, far, near):
    qs = far + [p + w for w in near]
    got = G.dist_many(p, np.array(qs, dtype=complex))
    assert len(got) == len(qs)
    for q, d in zip(qs, got):
        assert d == pytest.approx(G.dist(p, q), rel=1e-9, abs=1e-12)


@given(isometries, disk_points, disk_points)
def test_isometry_invariance(m, p, q):
    assert G.dist(m(p), m(q)) == pytest.approx(G.dist(p, q), abs=1e-9)


@given(isometries, isometries, disk_points)
def test_composition(m1, m2, p):
    assert abs((m1 @ m2)(p) - m1(m2(p))) < 1e-10


@given(isometries, disk_points)
def test_inverse(m, p):
    assert abs(m.inverse()(m(p)) - p) < 1e-10
    assert (m @ m.inverse()).is_identity(1e-10)


@given(lengths)
def test_translation_length(t):
    m = G.Mobius.translation_x(t)
    assert G.translation_length(m) == pytest.approx(t, abs=1e-9)
    # conjugation preserves translation length
    f = G.Mobius.frame(0.4 - 0.2j, 1.0)
    assert G.translation_length(f @ m @ f.inverse()) == pytest.approx(t, abs=1e-8)


def test_classify():
    assert G.classify(G.Mobius.identity())[0] == "identity"
    assert G.classify(G.Mobius.rotation(1.0))[0] == "elliptic"
    assert G.classify(G.Mobius.translation_x(1.0))[0] == "hyperbolic"


@given(lengths, disk_points, angles)
def test_axis_frame(t, p, th):
    g = G.Mobius.frame(p, th) @ G.Mobius.translation_x(t) @ G.Mobius.frame(p, th).inverse()
    af = G.axis_frame(g)
    h = af.inverse() @ g @ af
    assert h.a.real == pytest.approx(math.cosh(0.5 * t), abs=1e-7)
    assert abs(h.a.imag) < 1e-7
    assert h.b.real == pytest.approx(math.sinh(0.5 * t), abs=1e-7)
    assert abs(h.b.imag) < 1e-7


@given(disk_points, disk_points, disk_points, disk_points)
def test_segment_map(p, q, r, s_dir):
    if abs(p - q) < 1e-3 or abs(r - s_dir) < 1e-3:
        return
    L = G.dist(p, q)
    s = G.Mobius.frame(r, G.direction(r, s_dir))(math.tanh(0.5 * L))
    m = G.segment_map(p, q, r, s)
    assert abs(m(p) - r) < 1e-9
    assert abs(m(q) - s) < 1e-9


def test_circumdisk_basic():
    c = G.circumdisk(0.1, 0.3 + 0.1j, 0.05 + 0.25j)
    for p in (0.1, 0.3 + 0.1j, 0.05 + 0.25j):
        assert G.dist(c.center, p) == pytest.approx(c.radius, abs=1e-9)


def test_circumdisk_degenerate():
    with pytest.raises(DegenerateTriangle):
        G.circumdisk(0.0, 0.1, 0.2)


def test_circumdisk_noncompact():
    # nearly-collinear triangle: the euclidean circumcircle leaves the disk
    with pytest.raises(NoCompactCircumdisk):
        G.circumdisk(0.0, 0.5, 0.25 + 0.001j)


@given(disk_points, disk_points, disk_points)
@settings(max_examples=300)
def test_circumdisk_equidistant(p1, p2, p3):
    if G.triangle_area_normalized(p1, p2, p3) < 1e-4:
        return
    try:
        c = G.circumdisk(p1, p2, p3)
    except NoCompactCircumdisk:
        return
    for p in (p1, p2, p3):
        assert G.dist(c.center, p) == pytest.approx(c.radius, abs=1e-8)


@given(isometries, disk_points, disk_points, disk_points)
@settings(max_examples=200)
def test_circumdisk_equivariant(m, p1, p2, p3):
    if G.triangle_area_normalized(p1, p2, p3) < 1e-3:
        return
    try:
        c1 = G.circumdisk(p1, p2, p3)
        c2 = G.circumdisk(m(p1), m(p2), m(p3))
    except NoCompactCircumdisk:
        return
    assert c2.radius == pytest.approx(c1.radius, abs=1e-7)
    assert abs(c2.center - m(c1.center)) < 1e-7


def test_hyp_circle_roundtrip():
    c = G.HypCircle(0.3 + 0.2j, 0.7)
    c2 = G.HypCircle.from_euclidean(c.eu_center, c.eu_radius)
    assert abs(c2.center - c.center) < 1e-12
    assert c2.radius == pytest.approx(c.radius, abs=1e-12)


def test_collar_width_monotone():
    ws = [G.collar_width(l) for l in (0.1, 0.5, 1.0, 2.0)]
    assert all(a > b for a, b in zip(ws, ws[1:]))
    assert G.collar_width(0.5) == pytest.approx(math.asinh(1 / math.sinh(0.25)), abs=1e-12)


def test_pythagoras():
    assert pythagoras(0.0, 1.3) == pytest.approx(1.3, abs=1e-12)
    # hyperbolic hypotenuse beats the euclidean one
    assert pythagoras(1.0, 1.0) > math.sqrt(2.0)


@given(lengths, lengths)
def test_pythagoras_ge_legs(a, b):
    assert pythagoras(a, b) >= max(a, b) - 1e-12


def test_hexagon_orthogeodesic_symmetric():
    assert G.hexagon_orthogeodesic(2, 3, 4) == pytest.approx(
        G.hexagon_orthogeodesic(3, 2, 4), abs=1e-12)


@given(lengths, lengths, lengths, lengths)
def test_hexagon_orthogeodesic_monotone_opposite(l1, l2, l3, bump):
    # growing the opposite cuff grows the seam
    assert (G.hexagon_orthogeodesic(l1, l2, l3 + bump)
            > G.hexagon_orthogeodesic(l1, l2, l3))


def test_equilateral_side_values():
    # angle 2*pi/11 corresponds to 11 triangles around a vertex
    assert G.equilateral_side(2 * math.pi / 11) == pytest.approx(2.3517, abs=1e-4)
    with pytest.raises(DomainError):
        G.equilateral_side(math.pi / 2)


def test_equilateral_side_limit():
    # angle pi/3 is the euclidean limit: side length 0... acosh(1)=0
    assert G.equilateral_side(math.pi / 3) == pytest.approx(0.0, abs=1e-6)


def test_disk_area():
    assert disk_area(0) == 0
    assert disk_area(1.0) == pytest.approx(2 * math.pi * (math.cosh(1) - 1), abs=1e-12)


@given(disk_points, disk_points, angles, st.floats(0.1, 3.0))
def test_dist_to_segment(z, p, th, L):
    f = G.Mobius.frame(p, th)
    got = G.dist_to_segment(z, f, L)
    ts = np.linspace(0.0, L, 2000)
    brute = min(G.dist(z, f(math.tanh(0.5 * t))) for t in ts)
    assert got <= brute + 1e-9
    assert got >= brute - 2e-3  # sampling resolution



def test_diameter_gap_examples():
    for d in (0.0, 0.3, 2.0):
        f = G.Mobius.translate_to(1j * math.tanh(0.5 * d))
        assert diameter_gap(f(1.0), f(-1.0)) == pytest.approx(d, abs=1e-12)
    assert diameter_gap(1j, -1j) == 0.0  # the imaginary axis crosses it


@given(isometries, isometries)
@settings(max_examples=200)
# axes about 1e-7 and 1e-9 apart, where acosh of a number near 1 used to
# lose about 1e-16 / gap
@example(G.Mobius.frame(0.4375j, -1.0), G.Mobius.frame(1e-7 + 0.4375j, -1.0))
@example(G.Mobius.frame(0j, 0.0), G.Mobius.frame(1e-9j, 0.0))
def test_diameter_gap_matches_sampled_minimum(a, b):
    # axis b against axis a, both the images of the real diameter; in a's
    # frame the gap is the distance from f(diameter) to the real diameter
    f = a.inverse() @ b
    got = diameter_gap(f(1.0), f(-1.0))
    z = f.apply_many(np.tanh(0.5 * np.linspace(-12.0, 12.0, 24001)))
    w = (1.0 + z) / (1.0 - z)
    # sinh d = |Im w| / Re w: no cancellation near the real axis
    d = np.arcsinh(np.abs(w.imag) / w.real)
    k = int(np.argmin(d))
    assert got <= d[k] + 1e-9
    if z.imag.min() < 0.0 < z.imag.max():
        assert got == 0.0  # the sampled axis crosses the real diameter
    if 0 < k < len(d) - 1:
        # closest approach sampled: the grid step 1e-3 bounds the error
        assert d[k] <= got + (1e-3 if got == 0.0 else 1e-6)
