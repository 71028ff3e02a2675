"""Slow, independent versions of program routines, and helpers that only
the tests call.

`reference_ball_tiles` is the per-call development that `tiling.ball_tiles`
replaced: a breadth-first search that places every candidate tile and
identifies tiles by their placement coefficients in a `_TileStore`.  The
shared development graph must return exactly its tiles.
`dist_to_boundary_from_outside` measures all sides of a chart, where
`tiling._meets_ball` measures only the sides that separate.
`reference_short_geodesics` is `SurfaceAtlas.short_geodesics` with the
detection radius it had before the displacement bound,
threshold + 2 center_radius + 0.2.  `brute_force_delaunay_keys` is the
exhaustive Delaunay oracle, and `three_rotation_triangle_key` the
triangle key that framed every rotation.  `edge_map` and
`reference_lift` are the stored-edge lift rule that `LoadedComplex.lift`
took over from the verifier.  `waist_lifts` lists the lifted deck elements
of a short geodesic on the tiles of its chart.  The mutation suite
corrupts triangulation files and keeps each certificate; the environment
variable HYPDEL_SEED seeds it when no seed is given.  The paper's
closed-form audits of the thin-part constants (`collar_margin_audit`,
`appendixA_audit`, `thin_constants_audit`) read formulas only, so no
command runs them; `collar_margin_audit` takes the threshold as an
argument, where the program fixes `thickthin.EPSILON`.  The rest are
checks, examples and formulas that only the tests use."""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from importlib import resources

import numpy as np

from hypdel import delaunay as D
from hypdel import equilateral as E
from hypdel import geometry as G
from hypdel import surface as S
from hypdel import thickthin as TT
from hypdel import tiling as T
from hypdel.errors import (ConstructionFailure, DegenerateTriangle,
                           DomainError, HypDelError, NoCompactCircumdisk,
                           RadiusCap)
from hypdel.verify import verify_complex

_BUCKET = 1e-5
_MATCH_TOL = 1e-7


class _TileStore:
    """Dedup store for tiles keyed by (chart, sign-normalized placement)."""

    def __init__(self):
        self.tiles: list[T.Tile] = []
        self._buckets: dict = {}

    def _bucket_keys(self, chart: int, key: tuple):
        lo = [math.floor((v - _MATCH_TOL) / _BUCKET) for v in key]
        hi = [math.floor((v + _MATCH_TOL) / _BUCKET) for v in key]
        out = []
        for k0 in {lo[0], hi[0]}:
            for k1 in {lo[1], hi[1]}:
                for k2 in {lo[2], hi[2]}:
                    for k3 in {lo[3], hi[3]}:
                        out.append((chart, k0, k1, k2, k3))
        return out

    def add(self, chart: int, placement: G.Mobius, depth: int):
        key = placement.key()
        bks = self._bucket_keys(chart, key)
        for bk in bks:
            for idx in self._buckets.get(bk, ()):
                t = self.tiles[idx]
                k2 = t.placement.key()
                if all(abs(a - b) < _MATCH_TOL for a, b in zip(key, k2)):
                    return idx, False
        idx = len(self.tiles)
        self.tiles.append(T.Tile(chart, placement, depth))
        self._buckets.setdefault(bks[0], []).append(idx)
        return idx, True


def _meets(cc: T.ChartComplex, tile: T.Tile, radius: float) -> bool:
    return T._meets_ball(cc.charts[tile.chart],
                         tile.placement.inverse()(0.0), radius)


def reference_ball_tiles(cc: T.ChartComplex, base: T.SurfacePoint,
                         radius: float) -> list[T.Tile]:
    """ball_tiles by a breadth-first search of its own, developing the
    cover afresh and placing every candidate tile."""
    store = _TileStore()
    seed = G.Mobius.translate_to(base.z).inverse()
    idx0, _ = store.add(base.chart, seed, 0)
    if not _meets(cc, store.tiles[idx0], radius):
        return []
    out = [idx0]
    frontier = [idx0]
    while frontier:
        new_frontier = []
        for ti in frontier:
            tile = store.tiles[ti]
            if tile.depth >= T.WORD_CAP:
                raise RadiusCap(
                    f"development exceeded {T.WORD_CAP} side crossings "
                    f"within radius {radius}")
            ch = cc.charts[tile.chart]
            for side in range(len(ch.vertices)):
                for cj, t in ch.transitions[side]:
                    m = tile.placement @ t
                    idx, new = store.add(cj, m, tile.depth + 1)
                    if not new:
                        continue
                    if _meets(cc, store.tiles[idx], radius):
                        out.append(idx)
                        new_frontier.append(idx)
        frontier = new_frontier
    return [store.tiles[i] for i in out]


def surface_distance(cc: T.ChartComplex, p: T.SurfacePoint,
                     q: T.SurfacePoint) -> float:
    """Length of the shortest path between two surface points.

    Grows a lift ball around p until the nearest lift of q is closer than
    the ball radius; that lift then realizes the global minimum.
    """
    r = 1.0
    while True:
        best = min((G.dist(0.0, w) for _, w, _ in
                    T.point_lifts(T.ball_tiles(cc, p, r), T.by_chart([q]))),
                   default=math.inf)
        if best <= r:
            return best
        if r >= T.R_MAX:
            raise RadiusCap(f"no path found within radius cap {T.R_MAX}")
        r = min(max(2.0 * r, best + 0.1), T.R_MAX)


def vertex_angle_audit(atlas, tol: float = 1e-8):
    """Total chart angle around every hexagon vertex must be 2*pi.

    Develops a small ball around each vertex and sums, over the tiles
    whose closed polygon contains the center, the interior angle (at a
    matching polygon vertex) or pi (center interior to a side).  This is
    the transition-consistency check: a bad gluing breaks the sum.
    """
    cc = atlas.cc
    for ci, ch in enumerate(cc.charts):
        for vi, v in enumerate(ch.vertices):
            tiles = T.ball_tiles(cc, T.SurfacePoint(ci, v), 0.05)
            total = 0.0
            for t in tiles:
                z = t.placement.inverse()(0)
                c2 = cc.charts[t.chart]
                ang = _corner_angle(c2, z)
                if ang is not None:
                    total += ang
            if abs(total - 2 * math.pi) > tol:
                raise ConstructionFailure(
                    f"angle sum {total} around vertex {vi} of chart {ci}")


def _corner_angle(ch: T.Chart, z: complex, tol: float = 1e-7):
    """Angle the chart polygon subtends at a boundary point z (None if z is
    not on the closed polygon)."""
    n = len(ch.vertices)
    for i, v in enumerate(ch.vertices):
        if G.dist(v, z) < tol:
            d1 = G.direction(v, ch.vertices[(i + 1) % n])
            d2 = G.direction(v, ch.vertices[(i - 1) % n])
            return (d2 - d1) % (2 * math.pi)
    for fr, L in zip(ch.side_frames, ch.side_lengths):
        if G.dist_to_segment(z, fr, L) < tol:
            return math.pi
    if ch.contains(z, -tol):
        return 2 * math.pi
    return None


def dist_to_boundary_from_outside(chart: T.Chart, z: complex) -> float:
    """Distance from z to the chart's polygon (0 if inside), over all of
    its sides."""
    ws = [fi(z) for fi in chart.side_inverses]
    if all(w.imag >= 0.0 for w in ws):
        return 0.0
    return min(G.dist_to_axis_segment(w, L)
               for w, L in zip(ws, chart.side_lengths))


def old_detection_radius(chart: T.Chart, threshold: float) -> float:
    return threshold + 2.0 * chart.center_radius + 0.2


def detection_candidates(atlas: S.SurfaceAtlas, ci: int, threshold: float,
                         radius: float):
    """The ball of the given radius about chart ci's centre, and the
    candidates short_geodesics reads off it: (length, g) for each tile of
    chart ci whose deck element g is hyperbolic, shorter than threshold
    and has its axis within center_radius + 1e-6 of the centre, in tile
    order."""
    ch = atlas.cc.charts[ci]
    tiles = T.ball_tiles(atlas.cc, T.SurfacePoint(ci, ch.center), radius)
    unseed = G.Mobius.translate_to(ch.center)
    cands = []
    for t in tiles:
        if t.chart != ci:
            continue
        g = t.placement @ unseed
        if g.is_identity(1e-8):
            continue
        kind, length = G.classify(g)
        if kind != "hyperbolic" or length >= threshold:
            continue
        d_axis, _ = G.dist_to_diameter(G.axis_frame(g).inverse()(0))
        if d_axis <= ch.center_radius + 1e-6:
            cands.append((length, g))
    return tiles, cands


def reference_short_geodesics(atlas: S.SurfaceAtlas,
                              threshold: float) -> list[S.ShortGeodesic]:
    """short_geodesics over the balls of old_detection_radius."""
    found: list[S.ShortGeodesic] = []
    for ci, ch in enumerate(atlas.cc.charts):
        tiles, cands = detection_candidates(
            atlas, ci, threshold, old_detection_radius(ch, threshold))
        for length, g in sorted(cands, key=lambda p: p[0]):
            sg = S.ShortGeodesic(atlas, ci, g, length, tiles)
            for prev in found:
                k = round(length / prev.length)
                if k >= 1 and abs(length - k * prev.length) <= 1e-6 \
                        and sg.same_geodesic(prev, tiles):
                    break
            else:
                found.append(sg)
    found.sort(key=lambda s: s.length)
    return found


def brute_force_delaunay_keys(atlas: S.SurfaceAtlas, points: list,
                              radius: float = 3.0,
                              tol: float = 1e-9) -> set:
    """Canonical keys of every lifted triple with an empty circumdisk,
    found by exhaustive search around each vertex.  O(n^3 * lifts)."""
    keys = set()
    for i in range(len(points)):
        cloud = D._Cloud(D._StarBuilder(atlas, points, {}), i, radius)
        n = len(cloud.lifts)
        c = cloud.center_pos
        arr = np.array(cloud.lifts)
        for a in range(n):
            if a == c:
                continue
            for b in range(a + 1, n):
                if b == c:
                    continue
                pts = (cloud.lifts[c], cloud.lifts[a], cloud.lifts[b])
                try:
                    disk = G.circumdisk(*pts)
                except (NoCompactCircumdisk, DegenerateTriangle):
                    continue
                if 2.0 * disk.radius > radius - 0.05:
                    continue  # not certifiable at this radius; skip
                d = G.dist_many(disk.center, arr)
                if np.all(d >= disk.radius - tol):
                    s = (c, a, b)
                    s = D._StarBuilder._orient(cloud, s)
                    keys.add(D._triangle_key(
                        tuple(cloud.labels[k] for k in s),
                        tuple(cloud.lifts[k] for k in s)))
    return keys


def three_rotation_triangle_key(labels, lifts):
    """delaunay._triangle_key as it was before it framed only the
    rotations that start at the least label: the least key over all three
    rotations, each with its own frame."""
    best = None
    for r in range(3):
        la = labels[r], labels[(r + 1) % 3], labels[(r + 2) % 3]
        za = lifts[r], lifts[(r + 1) % 3], lifts[(r + 2) % 3]
        f = G.Mobius.frame(za[0], G.direction(za[0], za[1])).inverse()
        key = (la[0], la[1], la[2], D._quant(f(za[1])), D._quant(f(za[2])))
        if best is None or key < best:
            best = key
    return best


def waist_lifts(sg: S.ShortGeodesic, tiles: list[T.Tile]):
    """The deck element of sg moved onto each tile of its chart, in tile
    order: h g h^-1, where h = placement @ translate_to(chart center)
    carries the seed tile of short_geodesics onto the tile.  Each axis is
    a lift of the geodesic."""
    unseed = G.Mobius.translate_to(sg.atlas.cc.charts[sg.chart].center)
    for t in tiles:
        if t.chart == sg.chart:
            h = t.placement @ unseed
            yield h @ sg.element @ h.inverse()


def spec_to_json(graph: S.PantsGraph, fn: S.FNCoordinates) -> str:
    return json.dumps({
        "genus": graph.genus,
        "graph": [list(e) for e in graph.edges],
        "lengths": list(fn.lengths),
        "twists": list(fn.twists),
    }, indent=2)


def pythagoras(a: float, b: float) -> float:
    """Hypotenuse of a right triangle with legs a, b."""
    if a < 0 or b < 0:
        raise DomainError("legs must be nonnegative")
    return math.acosh(math.cosh(a) * math.cosh(b))


def disk_area(r: float) -> float:
    """Area of a hyperbolic disk of radius r."""
    if r < 0:
        raise DomainError("radius must be nonnegative")
    return 2.0 * math.pi * (math.cosh(r) - 1.0)


def diameter_gap(u: complex, v: complex) -> float:
    """Distance from the real axis to the geodesic with ideal endpoints u
    and v; 0 when the two cross or meet.  The map (1+z)/(1-z) sends u, v
    to i*a, i*b with a = 2 Im u / |1-u|^2, and for a*b > 0, cosh d =
    |(a+b)/(a-b)|, so cosh d - 1 = 2 sinh(d/2)^2 = 2 min(|a|, |b|) / |a-b|;
    that form has no cancellation when the two geodesics nearly meet.
    a and b are scaled here by |1-u|^2 |1-v|^2 / 2."""
    a = u.imag * abs(1.0 - v) ** 2
    b = v.imag * abs(1.0 - u) ** 2
    if a * b <= 0.0:
        return 0.0
    return 2.0 * math.asinh(math.sqrt(min(abs(a), abs(b)) / abs(a - b)))


def edge_map(lc):
    """verify._edge_map as it was: (min, max) endpoint pair -> records."""
    emap = {}
    for u, v, m in lc.edges:
        key = (min(u, v), max(u, v))
        emap.setdefault(key, []).append((u, v, m))
    return emap


def reference_lift(lc, i: int, j: int, emap) -> complex | None:
    """verify._lift_of as it was: the lift of vertex j in i's centered
    frame, along the stored edge."""
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


def runs(flags) -> list:
    """(start, end), inclusive, of each maximal run of true flags."""
    out, pos = [], 0
    for flag, run in itertools.groupby(flags):
        k = len(list(run))
        if flag:
            out.append((pos, pos + k - 1))
        pos += k
    return out


def wide_gaps(tallies: list, N: int) -> list:
    """The runs of at least N empty pants, from the tallies alone."""
    return [(s, e) for s, e in runs(t == 0 for t in tallies)
            if e - s + 1 >= N]


def gaps_and_superclusters(decomp) -> tuple:
    """The runs of pants that the decomposition's clusters leave out (its
    wide gaps) and the runs they cover (its superclusters)."""
    cmap = decomp.cluster_of_pants()
    return runs(c < 0 for c in cmap), runs(c >= 0 for c in cmap)


def chain_pattern_example():
    """A 2g-2 = 32 pants occupancy pattern (g = 17) with N = 2 whose
    decomposition exercises every branch of the construction: two wide
    gaps, a short supercluster kept whole, and a long supercluster split
    with a remainder piece."""
    tallies = [0] * 32
    for p in (0, 1, 2, 4):          # short supercluster with inner gap < N
        tallies[p] = 1
    # pants 5..6: wide gap (length 2 = N)
    for p in range(7, 27):          # long supercluster, length 20 = 3kN+r
        if p not in (9, 14, 20):    # sprinkle single empties (< N runs)
            tallies[p] = 2
    # pants 27..29: wide gap (length 3 > N)
    tallies[30] = tallies[31] = 1   # trailing short supercluster
    expected = {
        "wide_gaps": [(5, 6), (27, 29)],
        "superclusters": [(0, 4), (7, 26), (30, 31)],
        # 20 = 3*3*2 + 2 -> two pieces of 6 and a final piece of 8
        "clusters": [(0, 4), (7, 12), (13, 18), (19, 26), (30, 31)],
    }
    return tallies, 2, expected


# ---------------------------------------------------------------------------
# the paper's closed-form audits of the thin-part constants
# ---------------------------------------------------------------------------

# Waist lengths sampled by the closed-form audits below.
COLLAR_GRID = 2000
THIN_CONSTANTS_GRID = 500
APPENDIX_A_GRID = 2000


@dataclass
class AuditReport:
    passed: bool
    values: dict


def collar_width(length: float) -> float:
    """Half-width of the embedded collar around a geodesic of this length."""
    if length <= 0:
        raise DomainError("length must be positive")
    return math.asinh(1.0 / math.sinh(0.5 * length))


def k_c_at(eps: float, length: float) -> float:
    """thickthin.k_c at the thin-part threshold eps in place of EPSILON."""
    x = math.sinh(eps) / math.sinh(0.5 * length)
    if x < 1.0:
        return 0.0
    return math.acosh(x)


def collar_margin(eps: float, length: float) -> float:
    """Collar width minus cylinder width, collar_width(l) - K_C(l): how far
    a cylinder's boundary curves lie inside the collar of its waist."""
    return collar_width(length) - k_c_at(eps, length)


def collar_margin_audit(eps: float) -> AuditReport:
    """Infimum over waist lengths of collar width minus cylinder width; the
    thin-part machinery needs it to exceed eps/3."""
    n = COLLAR_GRID
    grid = [2.0 * eps * (k + 1) / n for k in range(n)]
    margins = [collar_margin(eps, l) for l in grid]
    inf_margin = min(margins)
    # closed-form limit as l -> 0: both widths diverge, difference tends to
    # arcsinh(1/sinh(l/2)) - arccosh(sinh(e)/sinh(l/2)) -> -log(sinh(eps))
    limit = -math.log(math.sinh(eps))
    inf_margin = min(inf_margin, limit)
    positive = all(m > 0 for m in margins)
    return AuditReport(
        passed=(inf_margin > eps / 3.0) and positive,
        values={"epsilon": eps, "infimum": inf_margin, "limit_l_to_0": limit,
                "threshold": eps / 3.0, "all_positive": positive})


def thin_constants_audit() -> AuditReport:
    """Thick-cylinder covering constants: cosh K_C <= 1.02 and the
    vertex-to-intersection distance cosh d(gamma, p) >= 1.03 over the thick
    waist range [2*eps', 2*eps], eps = EPSILON."""
    eps, eps_p = TT.EPSILON, 0.99 * TT.EPSILON
    ks, ds = [], []
    n = THIN_CONSTANTS_GRID
    for k in range(n + 1):
        l = 2.0 * eps_p + (2.0 * eps - 2.0 * eps_p) * k / n
        ks.append(math.sinh(eps) / math.sinh(0.5 * l))
        ds.append(math.cosh(0.5 * eps) / math.cosh(l / 6.0))
    return AuditReport(
        passed=(max(ks) <= 1.02 and min(ds) >= 1.03),
        values={"max_cosh_KC": max(ks), "min_cosh_d": min(ds),
                "margin_KC": 1.02 - max(ks), "margin_d": min(ds) - 1.03})


def appendixA_quantities(l: float) -> dict:
    """The distances of the Appendix A argument on a thin cylinder of
    waist l, at eps = EPSILON."""
    k = TT.k_c(l)
    c6 = math.cosh(l / 6.0)
    d1 = math.atanh(math.tanh(k) / c6)           # d(m_i, m_i^+)
    d2 = math.atanh(c6 * math.tanh(0.5 * k))     # d(m_i, c_i)
    half_top = math.asinh(math.sinh(l / 6.0) * math.cosh(k))
    d3 = math.acosh(math.cosh(0.5 * TT.EPSILON)
                    / math.cosh(half_top))       # d(m_i^+, p)
    d4 = math.acosh(c6 * math.cosh(d2))          # d(c_i, x_i)
    return {"d_mi_miplus": d1, "d_mi_ci": d2, "d_miplus_p": d3,
            "d_ci_xi": d4, "combo": d1 - d2 - d4,
            "top_edge": 2.0 * half_top}


def appendixA_audit() -> AuditReport:
    """Circumdisk-emptiness margin audit for thin-cylinder top triangles.

    Over waist lengths l in (0, 2*eps'], eps = EPSILON, the quantity
    d(m,m+) - d(m,c) - d(c,x) decreases to about -0.180 at l = 2*eps',
    while d(m+,p) increases from about 0.247 as l -> 0; their sum stays
    positive, which is what makes the standard triangles Delaunay.
    """
    eps_p = 0.99 * TT.EPSILON
    n = APPENDIX_A_GRID
    grid = [2.0 * eps_p * (k + 1) / n for k in range(n)]
    combos, d3s, sums = [], [], []
    for l in grid:
        q = appendixA_quantities(l)
        combos.append(q["combo"])
        d3s.append(q["d_miplus_p"])
        sums.append(q["combo"] + q["d_miplus_p"])
    tiny = appendixA_quantities(1e-6)
    combo_decreasing = all(a >= b - 1e-12 for a, b in zip(combos, combos[1:]))
    d3_increasing = all(a <= b + 1e-12 for a, b in zip(d3s, d3s[1:]))
    return AuditReport(
        passed=(combo_decreasing and d3_increasing and min(sums) > 0),
        values={"combo_at_2epsp": combos[-1],
                "d3_infimum": tiny["d_miplus_p"],
                "sum_min": min(sums),
                "combo_decreasing": combo_decreasing,
                "d3_increasing": d3_increasing})


def load_k12_rotation() -> E.RotationSystem:
    """The triangular embedding of K_12 shipped with the package."""
    text = resources.files("hypdel").joinpath(
        "data/k12_rotation.txt").read_text()
    return E.parse_rotation(text)


# ---------------------------------------------------------------------------
# mutation suite: randomized corruptions, each of which must be caught
# ---------------------------------------------------------------------------

MUTATION_KINDS = [
    "drop_triangle", "dup_triangle", "drop_edge", "loop_edge",
    "parallel_edge", "nudge_vertex", "twist_edge_word", "relabel_triangle",
    "wrong_genus", "swap_edge_endpoints",
]


def mutate(text: str, kind: str, rng: random.Random) -> str:
    """Apply one named corruption to a serialized triangulation."""
    d = json.loads(text)
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


def mutation_certificates(atlas, text: str, n: int = 20,
                          seed: int | None = None) -> list:
    """Run n randomized corruptions through verify; returns (kind,
    outcome) pairs, the outcome being the certificate or, when verify
    raised, the error's type and message."""
    if seed is None:
        seed = mutation_seed()
    rng = random.Random(seed)
    out = []
    for i in range(n):
        kind = MUTATION_KINDS[i % len(MUTATION_KINDS)]
        bad = mutate(text, kind, rng)
        try:
            outcome = verify_complex(D.complex_from_json(atlas, bad))
        except HypDelError as exc:
            outcome = f"{type(exc).__name__}: {exc}"
        out.append((kind, outcome))
    return out


def mutation_suite(atlas, text: str, n: int = 20,
                   seed: int | None = None) -> list:
    """Run n randomized corruptions; returns (kind, caught) pairs.  A
    corruption is caught when verify raises or at least one certificate
    check fails."""
    return [(kind, isinstance(outcome, str) or not outcome.passed)
            for kind, outcome in mutation_certificates(atlas, text, n, seed)]
