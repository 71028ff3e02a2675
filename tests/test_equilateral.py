import math

import pytest

from hypdel import equilateral as E
from hypdel import geometry as G
from hypdel import tiling as T
from hypdel import verify as V
from hypdel.delaunay import complex_from_json
from hypdel.errors import InvalidRotation, NotHyperbolizable
from reference import load_k12_rotation


def k7_rotation():
    rows = {}
    for i in range(7):
        rows[i] = [(i + d) % 7 for d in (1, 3, 2, 6, 4, 5)]
    text = "\n".join(f"{v}: " + " ".join(map(str, rows[v]))
                     for v in range(7))
    return E.parse_rotation(text)


def k4_rotation():
    text = "0: 1 2 3\n1: 2 0 3\n2: 0 1 3\n3: 0 2 1\n"
    return E.parse_rotation(text)


def test_parse_round_trip():
    rot = k7_rotation()
    assert rot.n == 7
    assert sorted(rot.rotations[0]) == [1, 2, 3, 4, 5, 6]


def test_parse_errors():
    with pytest.raises(InvalidRotation, match="expected"):
        E.parse_rotation("0 - 1 2\n")
    with pytest.raises(InvalidRotation, match="duplicate"):
        E.parse_rotation("0: 1 2\n0: 2 1\n1: 0 2\n2: 0 1\n")
    with pytest.raises(InvalidRotation, match="cover"):
        E.parse_rotation("0: 1 2\n1: 0 2\n5: 0 1\n")
    with pytest.raises(InvalidRotation):
        # row must be a permutation of the other vertices
        E.parse_rotation("0: 1 1\n1: 0 2\n2: 0 1\n")


def test_rotation_rows_checked_at_construction():
    # a RotationSystem checks its rows when it is made, so no reader of
    # one checks them again
    with pytest.raises(InvalidRotation, match="row 0 is not a permutation"):
        E.RotationSystem(3, [[1, 1], [0, 2], [0, 1]])
    with pytest.raises(InvalidRotation, match="2 rows for n=3"):
        E.RotationSystem(3, [[1, 2], [0, 2]])


def test_k4_is_spherical():
    verdict = E.check_hyperbolizable(k4_rotation())
    assert verdict.genus == 0
    assert not verdict.ok
    assert any("mod 12" in r for r in verdict.reasons)


def test_k7_is_flat_torus():
    rot = k7_rotation()
    faces, g = E.trace_faces(rot)
    assert len(faces) == 14
    assert g == 1
    verdict = E.check_hyperbolizable(rot)
    assert not verdict.ok
    assert any("not hyperbolic" in r for r in verdict.reasons)
    with pytest.raises(NotHyperbolizable, match="not hyperbolic"):
        E.hyperbolize(verdict)


def test_k12_rotation_checks_out():
    rot = load_k12_rotation()
    faces, g = E.trace_faces(rot)
    assert len(faces) == 44
    assert g == 6
    verdict = E.check_hyperbolizable(rot)
    assert verdict.ok
    assert verdict.side == pytest.approx(2.351708458989967, abs=1e-12)


def test_k12_corrupted_row_rejected():
    rot = load_k12_rotation()
    rows = [list(r) for r in rot.rotations]
    rows[0][0], rows[0][1] = rows[0][1], rows[0][0]
    text = "\n".join(f"{v}: " + " ".join(map(str, r))
                     for v, r in enumerate(rows))
    try:
        verdict = E.check_hyperbolizable(E.parse_rotation(text))
        assert not verdict.ok
    except InvalidRotation:
        pass  # odd Euler characteristic / open face walk also rejects


def test_equilateral_side_angle_consistency():
    # independent oracle: the hyperbolic law of cosines for an
    # equilateral triangle of side s gives
    # cos(alpha) = (cosh(s)^2 - cosh(s)) / sinh(s)^2
    side = 2.351708458989967
    assert G.equilateral_side(2.0 * math.pi / 11.0) == \
        pytest.approx(side, abs=1e-12)
    corners = E._equilateral_corners(side)
    assert G.dist(corners[0], corners[1]) == pytest.approx(side, abs=1e-9)
    c = math.cosh(side)
    cos_alpha = (c * c - c) / (math.sinh(side) ** 2)
    assert cos_alpha == pytest.approx(math.cos(2.0 * math.pi / 11.0),
                                      abs=1e-12)


def test_k12_hyperbolize_and_certify():
    surf = E.hyperbolize(E.check_hyperbolizable(load_k12_rotation()))
    assert surf.n == 12
    assert surf.genus == 6
    assert surf.angle == pytest.approx(2.0 * math.pi / 11.0, abs=1e-12)
    assert len(surf.faces) == 44
    cert = E.certify_equilateral(
        surf, complex_from_json(surf, E.export_json(surf)))
    assert cert.passed, cert.summary()
    # the two-ring margin is strictly positive
    ring = [c for c in cert.checks if c.name == "equilateral_two_ring"][0]
    assert ring.passed


def test_two_ring_audit_sees_a_lift_inside_the_circumdisk(monkeypatch):
    # a foreign lift 0.1 from the circumcentre, inside the circumdisk but
    # on no corner of the face, is caught; the face's own corners are not
    surf = E.hyperbolize(E.check_hyperbolizable(load_k12_rotation()))
    assert E.two_ring_audit(surf).passed
    point_lifts = T.point_lifts

    def with_intruder(tiles, grouped):
        lifts = point_lifts(tiles, grouped)
        return lifts + [(0, math.tanh(0.05) + 0j, tiles[0])]

    monkeypatch.setattr(T, "point_lifts", with_intruder)
    res = E.two_ring_audit(surf)
    assert not res.passed
    assert len(res.violations) == len(surf.faces)
    assert "foreign lift at 0.100000000" in res.violations[0]


def test_two_ring_ball_reaches_the_nearest_foreign_lift(monkeypatch):
    # the ball of radius R + 2 inradius holds the reflected face's apex;
    # found with the old, wider ball, it is the nearest foreign lift
    surf = E.hyperbolize(E.check_hyperbolizable(load_k12_rotation()))
    corners = E._equilateral_corners(surf.side)
    R = G.dist(0.0, corners[0])
    fr = G.Mobius.frame(corners[0], G.direction(corners[0], corners[1]))
    inradius = G.dist_to_segment(0.0, fr, surf.side)
    homes = T.by_chart([surf.vertex_point(v) for v in range(surf.n)])
    nearest = min(
        d for fi in range(len(surf.faces))
        for _, w, _ in T.point_lifts(T.ball_tiles(
            surf.cc, T.SurfacePoint(fi, 0.0), R + surf.side + 0.1), homes)
        if (d := G.dist(0.0, w)) >= R + 1e-9)
    assert nearest == pytest.approx(R + 2.0 * inradius, abs=1e-9)
    res = E.two_ring_audit(surf)
    assert res.passed and not res.violations
    assert res.notes[0].startswith(f"min foreign lift distance {nearest:.6f}")
    # the old radius R + side + 0.1 gives the same verdict, violations
    # and notes
    monkeypatch.setattr(V, "BALL_PAD", surf.side + 0.1 - 2.0 * inradius)
    assert E.two_ring_audit(surf) == res
