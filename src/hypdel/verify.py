"""Independent certification of surface triangulations.

Works from the interchange representation (vertices, edges with realizing
placements, triangles as index triples) and re-derives everything else:
triangle lifts are reassembled from the edge placements, circumdisks are
recomputed, and emptiness is checked against a fresh enumeration of the
lifted point set.  Nothing is trusted from the construction side.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

from . import geometry as G
from . import tiling as T
from .delaunay import LoadedComplex, complex_from_json
from .errors import (DegenerateTriangle, HypDelError, NoCompactCircumdisk,
                     RadiusCap)

DELAUNAY_TOL = 1e-9
DISTANCE_TOL = 1e-7
# The star builder certifies a triangle only if 2 * circumradius <= r - 0.05
# <= R_MAX, so no construction output needs a check ball wider than R_MAX +
# 0.05 (the circumdisk passes through its anchor; an edge is a chord of it).
# A larger radius comes from a corrupt file, and the development it asks
# for grows exponentially with it.
CHECK_RADIUS_CAP = T.R_MAX + 0.1


@dataclass
class CheckResult:
    name: str
    passed: bool
    violations: list = field(default_factory=list)

    def fail(self, msg):
        self.passed = False
        self.violations.append(msg)


@dataclass
class Certificate:
    checks: list

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        return json.dumps({
            "passed": self.passed,
            "checks": [{"name": c.name, "passed": c.passed,
                        "violations": c.violations[:20]} for c in self.checks],
        }, indent=1)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            tag = "ok" if c.passed else "FAIL"
            extra = ""
            if not c.passed and c.violations:
                extra = f" ({len(c.violations)} violations)"
            lines.append(f"  {c.name}: {tag}{extra}")
        return "\n".join(lines)


def jungerman_ringel(g: int) -> int:
    """Minimal vertex count of any triangulation of the closed orientable
    genus-g surface (g != 2), ceil((7 + sqrt(1+48g)) / 2)."""
    return math.ceil((7.0 + math.sqrt(1.0 + 48.0 * g)) / 2.0)


def vertex_floor(g: int) -> int:
    """Fewest vertices of any triangulation of the closed orientable
    genus-g surface: jungerman_ringel(g), except 10 for genus 2."""
    return 10 if g == 2 else jungerman_ringel(g)


def _edge_map(lc: LoadedComplex):
    emap = {}
    for u, v, m in lc.edges:
        key = (min(u, v), max(u, v))
        emap.setdefault(key, []).append((u, v, m))
    return emap


def _lift_of(lc: LoadedComplex, i: int, j: int, emap) -> complex | None:
    """Lift of vertex j in i's centered frame, along the stored edge."""
    recs = emap.get((min(i, j), max(i, j)))
    if not recs or len(recs) != 1:
        return None
    u, v, m = recs[0]
    if u == i:
        return m(lc.points[v].z)
    # stored from the far end: m places chart(points[v]) in u's frame, and
    # here v == i; convert through the shared tile to get u's lift at i
    seed = G.Mobius.translate_to(lc.points[v].z).inverse()
    return (seed @ m.inverse())(0.0)


def _check_radius(radius: float):
    if radius > CHECK_RADIUS_CAP:
        raise RadiusCap(f"check radius {radius:.6f} exceeds cap "
                        f"{CHECK_RADIUS_CAP}")


def check_simplicial(lc: LoadedComplex) -> CheckResult:
    """Edges and triangles must embed: no loops, no parallel edges, no
    repeated or duplicated triangles, and every edge must border exactly
    two triangles (edges here are homotopy classes, so parallel edges of
    distinct classes still violate simpliciality)."""
    res = CheckResult("simplicial", True)
    pairs = set()
    for u, v, m in lc.edges:
        if u == v:
            res.fail(f"loop edge at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in pairs:
            res.fail(f"parallel edges between {key}")
        pairs.add(key)
    seen = set()
    use = {}
    for t in lc.triangles:
        if len(set(t)) != 3:
            res.fail(f"triangle with repeated vertex {t}")
            continue
        k = tuple(sorted(t))
        if k in seen:
            res.fail(f"duplicate triangle {k}")
        seen.add(k)
        for r in range(3):
            ek = tuple(sorted((t[r], t[(r + 1) % 3])))
            use[ek] = use.get(ek, 0) + 1
            if ek not in pairs:
                res.fail(f"triangle {t} uses missing edge {ek}")
    for ek in pairs:
        if use.get(ek, 0) != 2:
            res.fail(f"edge {ek} borders {use.get(ek, 0)} != 2 triangles")
    return res


def _realize(lc, t, emap):
    """Lifts (0, zj, zk) of triangle t in the frame of its first vertex,
    or None if the edge data does not close up."""
    i, j, k = t
    zj = _lift_of(lc, i, j, emap)
    zk = _lift_of(lc, i, k, emap)
    if zj is None or zk is None:
        return None
    return 0.0, zj, zk


def check_delaunay(lc: LoadedComplex, atlas,
                   tol: float = DELAUNAY_TOL) -> CheckResult:
    """Each triangle's circumdisk must be compact and contain no lift of
    any vertex in its interior (closed-disk convention: boundary contact
    is allowed).  Also checks that the three edge realizations close up
    into an actual geodesic triangle."""
    res = CheckResult("delaunay", True)
    emap = _edge_map(lc)
    elen = {}
    for u, v, m in lc.edges:
        elen[(min(u, v), max(u, v))] = G.dist(0.0, m(lc.points[v].z))
    by_anchor = {}  # anchor vertex -> [(triangle, its disk, reach)]
    for t in lc.triangles:
        if len(set(t)) != 3:
            continue
        lifts = _realize(lc, t, emap)
        if lifts is None:
            res.fail(f"triangle {t}: edge records missing or ambiguous")
            continue
        i, j, k = t
        want = elen.get((min(j, k), max(j, k)))
        if want is None or abs(G.dist(lifts[1], lifts[2]) - want) > 1e-6:
            res.fail(f"triangle {t}: edges do not close up")
            continue
        try:
            disk = G.circumdisk(*lifts)
        except (DegenerateTriangle, NoCompactCircumdisk) as exc:
            res.fail(f"triangle {t}: {type(exc).__name__}")
            continue
        reach = G.dist(0.0, disk.center) + disk.radius + 0.05
        _check_radius(reach)
        by_anchor.setdefault(i, []).append((t, disk, reach))
    # one development per anchor: its ball holds every triangle's own
    # ball, so each disk meets the same lifts as with a ball of its own
    for i, tris in by_anchor.items():
        try:
            tiles = T.ball_tiles(atlas.cc, lc.points[i],
                                 max(reach for _, _, reach in tris))
        except HypDelError as exc:
            for t, _, _ in tris:
                res.fail(f"triangle {t}: lift enumeration failed ({exc})")
            continue
        ws = np.array([w for _, w, _ in T.point_lifts(tiles, lc.points)])
        for t, disk, _ in tris:
            m = float(G.dist_many(disk.center, ws).min(initial=math.inf))
            if m < disk.radius - tol:
                res.fail(f"triangle {t}: lift inside circumdisk by "
                         f"{disk.radius - m:.3e}")
    return res


def check_distance_paths(lc: LoadedComplex, atlas,
                         tol: float = DISTANCE_TOL) -> CheckResult:
    """Every edge must realize the distance between its endpoints."""
    res = CheckResult("distance_paths", True)
    # one lift ball per vertex covers all its edges: the ball radius
    # exceeds every realized length at u, so the true minimizer of each
    # endpoint distance is one of the enumerated lifts
    by_u = {}
    for u, v, m in lc.edges:
        by_u.setdefault(u, []).append((v, G.dist(0.0, m(lc.points[v].z))))
    for u, partners in by_u.items():
        r = max(length for _, length in partners) + 0.1
        _check_radius(r)
        tiles = T.ball_tiles(atlas.cc, lc.points[u], r)
        targets = sorted({v for v, _ in partners})
        nearest = {}
        for k, w, _ in T.point_lifts(tiles, [lc.points[v] for v in targets]):
            v = targets[k]
            nearest[v] = min(nearest.get(v, math.inf), G.dist(0.0, w))
        for v, realized in partners:
            actual = nearest.get(v)
            if actual is None:
                res.fail(f"edge ({u},{v}): no lift of {v} within "
                         f"radius {r:.6f}")
                continue
            if realized > actual + tol:
                res.fail(f"edge ({u},{v}): realized {realized:.9f} > "
                         f"distance {actual:.9f}")
            if realized < actual - tol:
                res.fail(f"edge ({u},{v}): realized length {realized:.9f} "
                         f"shorter than the distance {actual:.9f}?")
    return res


def count_audits(lc: LoadedComplex) -> CheckResult:
    """Euler count, edge/face relations, the universal lower bound on
    vertices, and the 151g upper bound of the thick-thin construction."""
    res = CheckResult("counts", True)
    v, e, f, g = len(lc.points), len(lc.edges), len(lc.triangles), lc.genus
    if v - e + f != 2 - 2 * g:
        res.fail(f"Euler v-e+f = {v - e + f} != {2 - 2*g}")
    if e != 3 * v + 6 * g - 6:
        res.fail(f"e = {e} != 3v+6g-6 = {3*v + 6*g - 6}")
    if f != 2 * v + 4 * g - 4:
        res.fail(f"f = {f} != 2v+4g-4 = {2*v + 4*g - 4}")
    if v < vertex_floor(g):
        res.fail(f"v = {v} below the genus-{g} minimum {vertex_floor(g)}")
    if v > 151 * g:
        res.fail(f"v = {v} exceeds 151g = {151*g}")
    return res


def verify_complex(lc: LoadedComplex, atlas,
                   delaunay_tol: float = DELAUNAY_TOL) -> Certificate:
    checks = [check_simplicial(lc),
              count_audits(lc),
              check_delaunay(lc, atlas, delaunay_tol),
              check_distance_paths(lc, atlas)]
    return Certificate(checks)


def verify_json(atlas, text: str, **kw) -> Certificate:
    return verify_complex(complex_from_json(atlas, text), atlas, **kw)


# ---------------------------------------------------------------------------
# mutation suite: randomized corruptions, each of which must be caught
# ---------------------------------------------------------------------------

MUTATION_KINDS = [
    "drop_triangle", "dup_triangle", "drop_edge", "loop_edge",
    "parallel_edge", "nudge_vertex", "twist_edge_word", "relabel_triangle",
    "wrong_genus", "swap_edge_endpoints",
]


def _as_dict(text):
    return json.loads(text)


def mutate(text: str, kind: str, rng: random.Random) -> str:
    """Apply one named corruption to a serialized triangulation."""
    d = _as_dict(text)
    E, F, V = d["edges"], d["triangles"], d["vertices"]
    if kind == "drop_triangle":
        F.pop(rng.randrange(len(F)))
    elif kind == "dup_triangle":
        F.append(F[rng.randrange(len(F))])
    elif kind == "drop_edge":
        E.pop(rng.randrange(len(E)))
    elif kind == "loop_edge":
        u = rng.randrange(len(V))
        E.append([u, u, [math.cosh(0.1), 0.0, math.sinh(0.1), 0.0]])
    elif kind == "parallel_edge":
        u, v, w = E[rng.randrange(len(E))]
        E.append([u, v, list(w)])
    elif kind == "nudge_vertex":
        i = rng.randrange(len(V))
        V[i][1] += rng.choice((-1, 1)) * 5e-3
    elif kind == "twist_edge_word":
        i = rng.randrange(len(E))
        ar, ai, br, bi = E[i][2]
        m = G.Mobius(complex(ar, ai), complex(br, bi), normalize=False)
        m = m @ G.Mobius.translation_x(2e-3)
        E[i][2] = [m.a.real, m.a.imag, m.b.real, m.b.imag]
    elif kind == "relabel_triangle":
        i = rng.randrange(len(F))
        t = list(F[i])
        slot = rng.randrange(3)
        new = (t[slot] + 1) % len(V)
        while new in t:
            new = (new + 1) % len(V)
        t[slot] = new
        F[i] = sorted(t)
    elif kind == "wrong_genus":
        d["genus"] += 1
    elif kind == "swap_edge_endpoints":
        i = rng.randrange(len(E))
        u, v, w = E[i]
        E[i] = [v, u, w]  # word now realizes the wrong endpoint's lift
    else:
        raise ValueError(kind)
    return json.dumps(d)


def mutation_seed() -> int:
    return int(os.environ.get("HYPDEL_SEED", "0"))


def mutation_suite(atlas, text: str, n: int = 20,
                   seed: int | None = None) -> list:
    """Run n randomized corruptions; returns (kind, caught) pairs.  A
    corruption is caught when at least one certificate check fails."""
    if seed is None:
        seed = mutation_seed()
    rng = random.Random(seed)
    out = []
    for i in range(n):
        kind = MUTATION_KINDS[i % len(MUTATION_KINDS)]
        bad = mutate(text, kind, rng)
        try:
            cert = verify_json(atlas, bad)
            caught = not cert.passed
        except HypDelError:
            caught = True
        out.append((kind, caught))
    return out
