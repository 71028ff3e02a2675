"""Equilateral surfaces from triangular embeddings of complete graphs.

A combinatorial triangular embedding of K_n (given as a rotation system)
is hyperbolized by replacing every face with the equilateral hyperbolic
triangle of angle 2*pi/(n-1); angle sums close up exactly and the result
is a closed hyperbolic surface whose n graph vertices form a distance
Delaunay triangulation with jungerman_ringel(g) vertices.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from . import geometry as G
from . import tiling as T
from . import verify as V
from .delaunay import LoadedComplex, write_complex
from .errors import (ConstructionFailure, InvalidRotation, NotHyperbolizable)

ANGLE_SUM_TOL = 1e-10  # per vertex, radians
AREA_TOL = 1e-8        # total angle defect
TWO_RING_TOL = 1e-9    # foreign lift distance below inradius + side/2


@dataclass
class RotationSystem:
    n: int
    rotations: list  # rotations[v] = cyclic neighbor order at v

    def __post_init__(self):
        n = self.n
        if len(self.rotations) != n:
            raise InvalidRotation(f"{len(self.rotations)} rows for n={n}")
        for v, row in enumerate(self.rotations):
            if sorted(row) != sorted(set(range(n)) - {v}):
                raise InvalidRotation(
                    f"row {v} is not a permutation of the other vertices")


def parse_rotation(text: str) -> RotationSystem:
    """Plain-text rotation file: one line per vertex, `v: n1 n2 ...`."""
    rows = {}
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise InvalidRotation(f"line {ln}: expected 'v: n1 n2 ...'")
        head, rest = line.split(":", 1)
        try:
            v = int(head)
            nbrs = [int(x) for x in rest.split()]
        except ValueError as exc:
            raise InvalidRotation(f"line {ln}: {exc}") from None
        if v in rows:
            raise InvalidRotation(f"line {ln}: duplicate vertex {v}")
        rows[v] = nbrs
    if not rows or sorted(rows) != list(range(len(rows))):
        raise InvalidRotation("vertex lines must cover 0..n-1")
    return RotationSystem(len(rows), [rows[v] for v in sorted(rows)])


def face_walk(rotations: dict) -> list:
    """Faces of a rotation system {v: cyclic neighbour order at v}, each
    as the tuple of vertices it visits, by the next-dart walk
    (u, v) -> (v, successor of u in the rotation at v)."""
    succ = {}
    for v, row in rotations.items():
        for k, u in enumerate(row):
            succ[(v, u)] = row[(k + 1) % len(row)]
    unused = set(succ)
    faces = []
    while unused:
        u, v = next(iter(unused))
        start = (u, v)
        walk = []
        while True:
            unused.discard((u, v))
            walk.append(u)
            u, v = v, succ[(v, u)]
            if (u, v) == start:
                break
            if len(walk) > len(succ):
                raise InvalidRotation("face walk does not close")
        faces.append(tuple(walk))
    return faces


def trace_faces(rot: RotationSystem):
    """Faces of the embedding by face_walk; returns (faces as vertex
    tuples, genus from the Euler count)."""
    n = rot.n
    faces = face_walk(dict(enumerate(rot.rotations)))
    e = sum(len(r) for r in rot.rotations) // 2
    euler = n - e + len(faces)
    if euler % 2 != 0:
        raise InvalidRotation(f"odd Euler characteristic {euler}")
    return faces, (2 - euler) // 2


@dataclass
class HyperbolizableVerdict:
    ok: bool
    n: int
    genus: int
    side: float | None
    reasons: list
    faces: list  # as trace_faces returns them


def check_hyperbolizable(rot: RotationSystem) -> HyperbolizableVerdict:
    faces, g = trace_faces(rot)
    n = rot.n
    reasons = []
    if any(len(f) != 3 for f in faces):
        bad = next(f for f in faces if len(f) != 3)
        reasons.append(f"non-triangular face of length {len(bad)}")
    if g != (n - 3) * (n - 4) // 12 or (n - 3) * (n - 4) % 12 != 0:
        reasons.append(f"genus {g} != (n-3)(n-4)/12")
    if n % 12 != 0:
        reasons.append(f"n = {n} ≢ 0 mod 12 (flat, not hyperbolic)")
    side = None
    if not reasons:
        side = G.equilateral_side(2.0 * math.pi / (n - 1))
    return HyperbolizableVerdict(not reasons, n, g, side, reasons, faces)


def _equilateral_corners(side: float):
    """Corners of the centered equilateral triangle with the given side,
    ccw starting at angle pi/2."""
    c = math.cosh(side)
    lo, hi = 0.0, 1.0 - 1e-12
    for _ in range(200):
        t = 0.5 * (lo + hi)
        if 1.0 + 6.0 * t * t / (1.0 - t * t) ** 2 < c:
            lo = t
        else:
            hi = t
    t = 0.5 * (lo + hi)
    return [t * cmath.exp(1j * (math.pi / 2 + 2 * math.pi * k / 3))
            for k in range(3)]


@dataclass
class EquilateralSurface:
    n: int
    genus: int
    side: float
    angle: float
    faces: list          # vertex triples, traced orientation
    cc: T.ChartComplex   # one chart per face
    vertex_home: list    # vertex -> (face index, corner index)

    def vertex_point(self, v: int) -> T.SurfacePoint:
        fi, ci = self.vertex_home[v]
        return T.SurfacePoint(fi, self.cc.charts[fi].vertices[ci])


def hyperbolize(verdict: HyperbolizableVerdict) -> EquilateralSurface:
    """The equilateral surface of the rotation system that
    check_hyperbolizable gave this verdict on."""
    if not verdict.ok:
        raise NotHyperbolizable("; ".join(verdict.reasons))
    n, g, side, faces = verdict.n, verdict.genus, verdict.side, verdict.faces
    alpha = 2.0 * math.pi / (n - 1)
    corners = _equilateral_corners(side)
    charts = [T.Chart(list(corners), label=f"f{fi}")
              for fi in range(len(faces))]
    # directed edge (a,b) -> (face, side) with that boundary orientation
    where = {}
    for fi, f in enumerate(faces):
        for k in range(3):
            where[(f[k], f[(k + 1) % 3])] = (fi, k)
    for fi, f in enumerate(faces):
        ch = charts[fi]
        for k in range(3):
            a, b = f[k], f[(k + 1) % 3]
            fj, j = where[(b, a)]
            other = charts[fj]
            t = G.segment_map(other.vertices[j], other.vertices[(j + 1) % 3],
                              ch.vertices[(k + 1) % 3], ch.vertices[k])
            ch.add_transition(k, fj, t)
    cc = T.ChartComplex(charts)
    vertex_home = [None] * n
    for fi, f in enumerate(faces):
        for k, v in enumerate(f):
            if vertex_home[v] is None:
                vertex_home[v] = (fi, k)
    surf = EquilateralSurface(n, g, side, alpha, faces, cc, vertex_home)
    _angle_sum_audit(surf)
    _area_audit(surf)
    return surf


def _corner_angle(ch: T.Chart, k: int) -> float:
    f = G.Mobius.translate_to(ch.vertices[k]).inverse()
    u = f(ch.vertices[(k + 1) % 3])
    w = f(ch.vertices[(k + 2) % 3])
    d = math.atan2(u.imag, u.real) - math.atan2(w.imag, w.real)
    return abs(math.remainder(d, 2.0 * math.pi))


def _angle_sum_audit(surf: EquilateralSurface):
    sums = [0.0] * surf.n
    for fi, f in enumerate(surf.faces):
        ch = surf.cc.charts[fi]
        for k, v in enumerate(f):
            sums[v] += _corner_angle(ch, k)
    for v, s in enumerate(sums):
        if abs(s - 2.0 * math.pi) > ANGLE_SUM_TOL:
            raise ConstructionFailure(
                f"angle sum at vertex {v} is {s!r}, not 2*pi")


def _area_audit(surf: EquilateralSurface):
    total = len(surf.faces) * (math.pi - 3.0 * surf.angle)
    want = 4.0 * math.pi * (surf.genus - 1)
    if abs(total - want) > AREA_TOL:
        raise ConstructionFailure(
            f"total angle defect {total} != 4*pi*(g-1) = {want}")


# ---------------------------------------------------------------------------
# export to the triangulation interchange format
# ---------------------------------------------------------------------------

def export_json(surf: EquilateralSurface) -> str:
    """The n graph vertices / n(n-1)/2 edges / faces as a triangulation
    file in the same format `triangulate` emits."""
    n = surf.n
    pts = [surf.vertex_point(v) for v in range(n)]
    grouped = T.by_chart(pts)
    edges = []
    reach = surf.side + 1e-6  # the lifts an edge is chosen from
    for u in range(n):
        tiles = T.ball_tiles(surf.cc, pts[u], reach + V.BALL_PAD)
        near = {}  # v -> [(distance, placement key, placement, lift)]
        for v, w, tile in T.point_lifts(tiles, grouped):
            m, d = tile.placement, G.dist(0.0, w)
            if d < reach:
                near.setdefault(v, []).append((d, m.key(), m, w))
        for v in range(u + 1, n):
            cands = near.get(v, [])
            if not cands:
                raise ConstructionFailure(f"no lift for edge ({u},{v})")
            cands.sort(key=lambda c: (c[0], c[1]))
            best = cands[0]
            if abs(best[0] - surf.side) > 1e-9:
                raise ConstructionFailure(
                    f"edge ({u},{v}) realizes {best[0]}, expected side")
            others = [c for c in cands
                      if abs(c[0] - best[0]) < 1e-9
                      and abs(c[3] - best[3]) > 1e-9]
            if others:
                raise ConstructionFailure(
                    f"ambiguous nearest lift for edge ({u},{v})")
            edges.append((u, v, best[2]))
    return write_complex(surf.genus, pts, edges,
                         sorted(sorted(f) for f in surf.faces))


def two_ring_audit(surf: EquilateralSurface):
    """The key inequality of the Delaunay argument, audited per face: any
    vertex lift other than the face's own corners stays at least
    inradius + side/2 away from the circumcenter.  A lift is one of those
    corners when it lies within 1e-9 of one; any other lift inside the
    circumdisk is foreign.

    Across each side lies the face's reflection in it, whose apex is a
    foreign lift at R + 2 inradius from the circumcenter, R the
    circumradius.  So the ball of that radius holds the nearest foreign
    lift, and every lift nearer than the floor: side/2 <= R."""
    res = V.CheckResult("equilateral_two_ring", True)
    corners = _equilateral_corners(surf.side)
    R = G.dist(0.0, corners[0])  # circumradius; circumcenter is 0
    fr = G.Mobius.frame(corners[0], G.direction(corners[0], corners[1]))
    inradius = G.dist_to_segment(0.0, fr, surf.side)
    floor = inradius + 0.5 * surf.side
    homes = T.by_chart([surf.vertex_point(v) for v in range(surf.n)])
    worst = math.inf
    for fi in range(len(surf.faces)):
        base = T.SurfacePoint(fi, 0.0)
        tiles = T.ball_tiles(surf.cc, base, R + 2.0 * inradius + V.BALL_PAD)
        # the ball's seed tile is the face itself, at the identity
        own = surf.cc.charts[fi].vertices
        for _, w, _ in T.point_lifts(tiles, homes):
            d = G.dist(0.0, w)
            if d < R + 1e-9 and min(abs(w - c) for c in own) < 1e-9:
                continue  # a corner of the face itself
            worst = min(worst, d)
            if d < floor - TWO_RING_TOL:
                res.fail(f"face {fi}: foreign lift at {d:.9f} < "
                         f"inradius + side/2 = {floor:.9f}")
    res.notes.append(
        f"min foreign lift distance {worst:.6f} vs floor {floor:.6f} "
        f"(circumradius {R:.6f})")
    return res


def certify_equilateral(surf: EquilateralSurface,
                        lc: LoadedComplex) -> V.Certificate:
    """Full certification: the verify-module checks on the exported
    triangulation lc, read back, plus the two-ring audit."""
    checks = V.verify_complex(lc).checks
    return V.Certificate(checks + [two_ring_audit(surf)])
