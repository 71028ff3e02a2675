"""Thick-thin machinery: cylinders, standard triangulations, epsilon nets.

The epsilon-thin part of a closed hyperbolic surface is a disjoint union of
cylinders around the closed geodesics shorter than 2*epsilon.  Thin
cylinders (waist < 2*epsilon') get a fixed 9-vertex triangulation; thick
ones get a 3-vertex waist cycle; the rest of the surface is covered by a
greedy (epsilon/2)-separated net.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry as G
from . import tiling as T
from .errors import (ConstructionFailure, InvalidEpsilon, MeshError,
                     WrongClassification)
from .surface import ShortGeodesic, SurfaceAtlas

EPSILON_DEFAULT = 0.72


def k_c(eps: float, length: float) -> float:
    """Orthogonal distance from the waist to the injectivity-radius-eps
    boundary curves of its cylinder."""
    x = math.sinh(eps) / math.sinh(0.5 * length)
    if x < 1.0:
        return 0.0
    return math.acosh(x)


@dataclass
class Cylinder:
    geodesic: ShortGeodesic
    length: float
    K_C: float
    kind: str  # "thin" | "thick"


def check_epsilon(eps: float):
    """The thin-part threshold must lie in (0, arcsinh 1): below arcsinh 1
    the closed geodesics shorter than 2 eps are simple and pairwise
    disjoint (Buser, Geometry and Spectra of Compact Riemann Surfaces,
    ch. 4)."""
    if not (0.0 < eps < math.asinh(1.0)):
        raise InvalidEpsilon(f"epsilon {eps} not in (0, arcsinh 1)")


def collar_margin(eps: float, length: float) -> float:
    """Collar width minus cylinder width, collar_width(l) - K_C(l): how far
    a cylinder's boundary curves lie inside the collar of its waist."""
    return G.collar_width(length) - k_c(eps, length)


def detect_thin_part(atlas: SurfaceAtlas,
                     eps: float = EPSILON_DEFAULT) -> list[Cylinder]:
    """The cylinders around the closed geodesics shorter than 2 eps.

    Their boundary curves must be more than 2 eps/3 apart.  The waists are
    disjoint simple closed geodesics, so their collars are disjoint (Buser,
    Geometry and Spectra of Compact Riemann Surfaces, Thm 4.1.1), and the
    boundaries of cylinders i and j are at least m_i + m_j apart, with
    m = collar_margin.  m increases with the length on (0, 2 eps), so
    m > -log sinh eps, which is above eps/3 for eps <= 0.72 (README.md);
    the check below can fail only for larger eps."""
    check_epsilon(eps)
    eps_p = 0.99 * eps
    out = []
    for sg in atlas.short_geodesics(2.0 * eps):
        kind = "thin" if sg.length < 2.0 * eps_p else "thick"
        out.append(Cylinder(sg, sg.length, k_c(eps, sg.length), kind))
    if len(out) > 3 * atlas.genus - 3:
        raise ConstructionFailure(
            f"{len(out)} cylinders exceeds 3g-3 = {3*atlas.genus-3}")
    if len(out) >= 2:
        c1, c2 = sorted(out, key=lambda c: collar_margin(eps, c.length))[:2]
        bound = collar_margin(eps, c1.length) + collar_margin(eps, c2.length)
        if bound <= 2.0 * eps / 3.0:
            raise ConstructionFailure(
                f"collar theorem keeps cylinder boundaries only {bound} "
                "apart", witness=(c1, c2))
    return out


@dataclass
class StandardTriangulation:
    """The fixed triangulation of a cylinder: 9 vertices and 12 triangles
    on a thin one, a 3-vertex waist cycle and no triangles on a thick one.
    Each consecutive pair of triangles fills one quad of the cylinder and
    starts at the corner that the quad is fanned from."""
    cylinder: Cylinder
    vertices: dict  # name -> SurfacePoint
    triangles: list  # (name, name, name)


def _cylinder_points(atlas: SurfaceAtlas, cyl: Cylinder, offsets: dict):
    """Surface points x{i+1}{suffix} at Fermi coordinates (i*l/3, d), for
    (suffix, d) in offsets, named offset by offset: the order the
    construction labels them in."""
    sg = cyl.geodesic
    af = G.axis_frame(sg.element)
    l = cyl.length
    reach = max(abs(d) for d in offsets.values())
    cc = atlas.cc
    ch = cc.charts[sg.chart]
    radius = ch.center_radius + 0.5 * l + reach + 0.3
    tiles = T.ball_tiles(cc, T.SurfacePoint(sg.chart, ch.center), radius)
    frames = [af @ G.Mobius.translation_x(i * l / 3.0) for i in range(3)]
    points = {}
    for suffix, d in offsets.items():
        for i, fi in enumerate(frames):
            sp = T.locate(cc, tiles, fi(1j * math.tanh(0.5 * d)))
            if sp is None:
                raise ConstructionFailure(
                    f"could not locate cylinder vertex at ({i}, {d})")
            points[f"x{i+1}{suffix}"] = sp
    return points


def standard_triangulation(atlas: SurfaceAtlas,
                           cyl: Cylinder) -> StandardTriangulation:
    """The 9-vertex, 21-edge, 12-triangle triangulation of a thin cylinder."""
    if cyl.kind != "thin":
        raise WrongClassification("standard triangulation needs a thin cylinder")
    pts = _cylinder_points(atlas, cyl,
                           {"-": -cyl.K_C, "": 0.0, "+": cyl.K_C})
    triangles = []
    for i in range(3):
        a, b = i + 1, (i + 1) % 3 + 1
        triangles += [(f"x{a}-", f"x{b}-", f"x{b}"),
                      (f"x{a}-", f"x{b}", f"x{a}"),
                      (f"x{a}", f"x{b}", f"x{b}+"),
                      (f"x{a}", f"x{b}+", f"x{a}+")]
    return StandardTriangulation(cyl, pts, triangles)


def standard_cycle(atlas: SurfaceAtlas,
                   cyl: Cylinder) -> StandardTriangulation:
    """The 3-vertex waist cycle of a thick cylinder."""
    if cyl.kind != "thick":
        raise WrongClassification("standard cycle needs a thick cylinder")
    pts = _cylinder_points(atlas, cyl, {"": 0.0})
    return StandardTriangulation(cyl, pts, [])


# ---------------------------------------------------------------------------
# closed-form audits
# ---------------------------------------------------------------------------

# Waist lengths sampled by the closed-form audits below.
COLLAR_GRID = 2000
THIN_CONSTANTS_GRID = 500
APPENDIX_A_GRID = 2000


@dataclass
class AuditReport:
    passed: bool
    values: dict


def collar_margin_audit(eps: float) -> AuditReport:
    """Infimum over waist lengths of collar width minus cylinder width; the
    thin-part machinery needs it to exceed eps/3."""
    check_epsilon(eps)
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


def thin_constants_audit(eps: float = EPSILON_DEFAULT) -> AuditReport:
    """Thick-cylinder covering constants: cosh K_C <= 1.02 and the
    vertex-to-intersection distance cosh d(gamma, p) >= 1.03 over the thick
    waist range [2*eps', 2*eps]."""
    eps_p = 0.99 * eps
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


def appendixA_quantities(eps: float, l: float) -> dict:
    k = k_c(eps, l)
    c6 = math.cosh(l / 6.0)
    d1 = math.atanh(math.tanh(k) / c6)           # d(m_i, m_i^+)
    d2 = math.atanh(c6 * math.tanh(0.5 * k))     # d(m_i, c_i)
    half_top = math.asinh(math.sinh(l / 6.0) * math.cosh(k))
    d3 = math.acosh(math.cosh(0.5 * eps) / math.cosh(half_top))  # d(m_i^+, p)
    d4 = math.acosh(c6 * math.cosh(d2))          # d(c_i, x_i)
    return {"d_mi_miplus": d1, "d_mi_ci": d2, "d_miplus_p": d3,
            "d_ci_xi": d4, "combo": d1 - d2 - d4,
            "top_edge": 2.0 * half_top}


def appendixA_audit(eps: float = EPSILON_DEFAULT) -> AuditReport:
    """Circumdisk-emptiness margin audit for thin-cylinder top triangles.

    Over waist lengths l in (0, 2*eps'], the quantity
    d(m,m+) - d(m,c) - d(c,x) decreases to about -0.180 at l = 2*eps',
    while d(m+,p) increases from about 0.247 as l -> 0; their sum stays
    positive, which is what makes the standard triangles Delaunay.
    """
    eps_p = 0.99 * eps
    n = APPENDIX_A_GRID
    grid = [2.0 * eps_p * (k + 1) / n for k in range(n)]
    combos, d3s, sums = [], [], []
    for l in grid:
        q = appendixA_quantities(eps, l)
        combos.append(q["combo"])
        d3s.append(q["d_miplus_p"])
        sums.append(q["combo"] + q["d_miplus_p"])
    tiny = appendixA_quantities(eps, 1e-6)
    combo_decreasing = all(a >= b - 1e-12 for a, b in zip(combos, combos[1:]))
    d3_increasing = all(a <= b + 1e-12 for a, b in zip(d3s, d3s[1:]))
    return AuditReport(
        passed=(combo_decreasing and d3_increasing and min(sums) > 0),
        values={"combo_min": combos[-1], "combo_at_2epsp": combos[-1],
                "d3_infimum": tiny["d_miplus_p"],
                "sum_min": min(sums),
                "combo_decreasing": combo_decreasing,
                "d3_increasing": d3_increasing})


# ---------------------------------------------------------------------------
# thick-part net
# ---------------------------------------------------------------------------

@dataclass
class EpsilonNet:
    points: list  # SurfacePoints accepted by the greedy pass
    n_candidates: int


# Half-width of the margin in which the row tests below leave a grid point
# to the exact test, in the recentred coordinates w of a chart (and, for a
# quadratic q, in units of S = |A| + |B| + |C| + |E|, which bounds
# |grad q| / 2 on the unit disk).  The exact tests read w through
# z = f(w) and f^-1(z), whose rounding moves a point by about
# 1e-15 / (1 - |z|^2) in w, and the row bounds themselves carry rounding
# of about 1e-15 S; 1e-9 covers both by orders of magnitude.
_PAD = 1e-9

# Band test margin: a candidate within K_C + _BAND_MARGIN of a waist is
# excluded.
_BAND_MARGIN = 1e-9


def _quadratic(c: complex, P: complex, Q: complex, R: complex,
               S: complex) -> tuple:
    """(A, B, C, E) with Re(c (P w + Q) conj(R w + S)) equal to
    A |w|^2 + B x + C y + E at w = x + iy."""
    k1, k2 = c * P * R.conjugate(), c * P * S.conjugate()
    k3, k4 = c * Q * R.conjugate(), c * Q * S.conjugate()
    return k1.real, k2.real + k3.real, k3.imag - k2.imag, k4.real


def _side_quadratic(m: G.Mobius) -> tuple:
    """Im m(w) >= 0, with the denominator of m cleared."""
    return _quadratic(-1j, m.a, m.b, m.b.conjugate(), m.a.conjugate())


def _band_quadratics(ai: G.Mobius, bound: float) -> list:
    """A band d <= bound around the real diameter, read through ai.  With
    hp = (1 + u)/(1 - u), u = ai(w), a point is in it exactly when
    sinh(bound) Re hp >= |Im hp|, so the band is the intersection of two
    circle sides, each bounded by a hypercycle.  Inside the unit disk
    Re hp > 0, and the two quadratics sum to 2 sinh(bound) Re hp times a
    positive factor: no point is outside both."""
    a, b = ai.a, ai.b
    P, Q = a + b.conjugate(), a.conjugate() + b
    R, S = b.conjugate() - a, a.conjugate() - b
    s = math.sinh(bound)
    return [_quadratic(s + 1j, P, Q, R, S), _quadratic(s - 1j, P, Q, R, S)]


def _crossings(A: float, B: float, E: np.ndarray):
    """The set {x : A x^2 + B x + E >= 0} on each row, for scalars A, B and
    one E per row: its indicator at x = -inf on each row, and the
    positions, rows and +1/-1 steps at which the indicator changes.

    The roots come from the cancellation-free form of the quadratic
    formula.  Near a tangent row they lose precision in x but not in the
    value of the quadratic, which is what the caller's margin is in."""
    rows = np.arange(len(E))
    if A == 0.0:
        if B == 0.0:
            none = np.zeros(0, dtype=np.int64)
            return (E >= 0.0).astype(np.int64), (np.zeros(0), none, none)
        return (np.full(len(E), int(B < 0.0)),
                (-E / B, rows, np.full(len(E), 1 if B > 0.0 else -1)))
    disc = B * B - 4.0 * A * E
    cross = disc > 0.0
    t = -0.5 * (B + math.copysign(1.0, B) * np.sqrt(disc[cross]))
    r1, r2 = t / A, E[cross] / t
    k = len(t)
    step = -1 if A > 0.0 else 1
    return (np.full(len(E), int(A > 0.0)),
            (np.concatenate([np.minimum(r1, r2), np.maximum(r1, r2)]),
             np.tile(rows[cross], 2),
             np.repeat([step, -step], k)))


def _expand(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The integers of the ranges [lo, hi), range by range."""
    n = np.maximum(hi - lo, 0)
    ends = np.cumsum(n)
    if len(ends) == 0 or ends[-1] == 0:
        return np.zeros(0, dtype=np.int64)
    return np.repeat(lo - ends + n, n) + np.arange(ends[-1])


@dataclass
class _Grid:
    """The thick-net candidates of one chart.  They are the points of a
    square euclidean grid in the recentred coordinates w = f^-1(z), with
    xs the grid coordinates of both rows and columns.  In row-major order
    the candidates' grid indices row * len(xs) + column form runs of
    consecutive integers (a row's candidates are mostly one run): run k
    starts at grid index run_flat[k] and at candidate run_idx[k], with
    run_idx[-1] the number of candidates; run 0 is an empty one at grid
    index -1.  rank maps the row-major order to the lexicographic (x, y)
    order of the chart coordinates, the order of z."""
    f: G.Mobius
    xs: np.ndarray
    run_flat: np.ndarray
    run_idx: np.ndarray
    rank: np.ndarray
    z: np.ndarray

    def _below(self, q: np.ndarray) -> np.ndarray:
        """The number of candidates with a grid index below each of q."""
        k = np.searchsorted(self.run_flat, q, side="right") - 1
        start, end = self.run_idx[k], self.run_idx[k + 1]
        return start + np.minimum(q - self.run_flat[k], end - start)

    def disk(self, c: complex, r: float) -> tuple:
        """Candidates in the euclidean disk |w - c| < r: (those more than
        _PAD inside its circle, those within _PAD of it), as indices into
        z.  A row meets the disk in one interval of columns, so each part
        is one or two ranges of the row-major order per row."""
        xs, n = self.xs, len(self.xs)
        j0, j1 = np.searchsorted(xs, (c.imag - r - _PAD, c.imag + r + _PAD))
        dy = xs[j0:j1] - c.imag
        outer = np.sqrt(np.maximum((r + _PAD) ** 2 - dy * dy, 0.0))
        inner = np.sqrt(np.maximum((r - _PAD) ** 2 - dy * dy, 0.0))
        cols = np.searchsorted(xs, np.stack([c.real - outer, c.real - inner,
                                             c.real + inner, c.real + outer]))
        lo, ilo, ihi, hi = self._below(np.arange(j0, j1) * n + cols)
        return (self.rank[_expand(ilo, ihi)],
                self.rank[np.concatenate([_expand(lo, ilo),
                                          _expand(ihi, hi)])])


def _row_segments(xs: np.ndarray, polygon: list, bands: list):
    """Split every row of the grid xs x xs into segments on which no side
    (quadratic q >= 0 of _quadratic) changes between more than pad inside
    (q > pad), within pad of it, and more than pad outside (q < -pad),
    pad = _PAD S.  Returns (row, first column, end column, exact) of the
    segments that are not dropped, in row-major order: a segment more
    than pad inside every side of the polygon and outside a side of every
    band (each a pair of sides) is kept, exact False; one more than pad
    outside a side of the polygon or inside both sides of a band is
    dropped; the rest are kept for the exact test.

    Along a row each level set q = +-pad begins and ends at the roots of
    a quadratic in x, so four counts per point, summed over the sides,
    decide its segment: polygon sides it is more than pad inside (kept
    needs all) and not more than pad outside (dropped if one is missing);
    band sides it is more than pad inside (dropped if both of a band) and
    not more than pad outside (kept needs one per band, as no point is
    outside both sides of a band)."""
    n = len(xs)
    start = np.zeros((n, 4), dtype=np.int64)
    events = []
    for i, (A, B, C, E) in enumerate(polygon + bands):
        pad = _PAD * (abs(A) + abs(B) + abs(C) + abs(E))
        e = A * xs * xs + C * xs + E
        base = 0 if i < len(polygon) else 2
        for counter, level in ((base, pad), (base + 1, -pad)):
            s, (pos, rows, steps) = _crossings(A, B, e - level)
            start[:, counter] += s
            events.append((pos, rows, steps, np.full(len(rows), counter)))
    pos, rows, steps, counters = (np.concatenate(c) for c in zip(*events))
    order = np.lexsort((pos, rows))
    pos, rows = pos[order], rows[order]
    counts = np.zeros((len(order), 4), dtype=np.int64)
    counts[np.arange(len(order)), counters[order]] = steps[order]
    counts = np.cumsum(counts, axis=0)
    # each row starts afresh: subtract what the rows before it added
    first = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
    before = np.zeros((n, 4), dtype=np.int64)
    before[rows[first[1:]]] = counts[first[1:] - 1]
    counts += start[rows] - before[rows]
    # segments: each row's start, then one after every crossing
    col = np.searchsorted(xs, pos)
    row_end = np.full(n, n)
    row_end[rows[first]] = col[first]
    next_col = np.where(np.r_[rows[1:] != rows[:-1], True], n,
                        np.r_[col[1:], 0])
    seg_row = np.concatenate([np.arange(n), rows])
    seg_lo = np.concatenate([np.zeros(n, dtype=np.int64), col])
    seg_hi = np.concatenate([row_end, next_col])
    counts = np.concatenate([start, counts])
    n_poly, n_bands = len(polygon), len(bands) // 2
    keep = (counts[:, 0] == n_poly) & (counts[:, 3] == n_bands)
    drop = (counts[:, 1] < n_poly) | (counts[:, 2] > n_bands)
    seg = np.flatnonzero(~drop & (seg_hi > seg_lo))
    seg = seg[np.lexsort((seg_lo[seg], seg_row[seg]))]
    return seg_row[seg], seg_lo[seg], seg_hi[seg], ~keep[seg]


def _chart_grid(ch: T.Chart, delta: float, bands: list) -> _Grid:
    """Grid of chart-local points with hyperbolic spacing <= delta that lie
    in the chart polygon and in none of the bands (pairs (ai, bound) of
    _thin_bands).

    Generated on a euclidean grid in coordinates w recentered at the chart
    center, where the metric distortion over the chart is bounded.  The
    polygon is the disk |w| < r_eu cut by one circle side per chart side,
    and each band is the intersection of two circle sides, so each grid
    row meets each side in at most two points, and _row_segments decides
    all but the points within _PAD of a side by rows.  Those get the exact
    tests (np.abs(w) < r_eu, the sign of Im of each side map of z = f(w),
    and the band distance of f^-1(z)), so the candidate set, and z of each
    candidate, are those of the same tests run on the whole grid, bit for
    bit.  The candidates are then sorted into lexicographic order."""
    f = G.Mobius.translate_to(ch.center)
    r_eu = math.tanh(0.5 * ch.center_radius)
    h = 0.5 * delta * (1.0 - r_eu * r_eu)
    n = int(math.ceil(2.0 * r_eu / h))
    if n < 2:
        raise MeshError("degenerate candidate grid")
    xs = np.linspace(-r_eu, r_eu, n)
    polygon = [(-1.0, 0.0, 0.0, r_eu * r_eu)]
    polygon += [_side_quadratic(fi @ f) for fi in ch.side_inverses]
    row, lo, hi, exact = _row_segments(
        xs, polygon, [q for ai, bound in bands
                      for q in _band_quadratics(ai, bound)])
    cols = _expand(lo, hi)
    rows = np.repeat(row, hi - lo)
    flat = rows * n + cols
    z = f.apply_many(xs[cols] + 1j * xs[rows])
    test = np.flatnonzero(np.repeat(exact, hi - lo))
    del cols, rows
    ok = np.abs(xs[flat[test] % n] + 1j * xs[flat[test] // n]) < r_eu
    zt = z[test]
    for fi in ch.side_inverses:
        ok &= fi.apply_many(zt).imag >= 0.0
    if bands:
        ok &= ~_in_bands(f.inverse().apply_many(zt), bands)
    if not ok.all():
        good = np.ones(len(z), dtype=bool)
        good[test] = ok
        flat, z = flat[good], z[good]
    runs = np.flatnonzero(np.diff(flat, prepend=-2) != 1)
    order = _lex_order(z)
    rank = np.empty(len(order), dtype=np.int32)
    rank[order] = np.arange(len(order), dtype=np.int32)
    return _Grid(f, xs, np.r_[-1, flat[runs]], np.r_[0, runs, len(flat)],
                 rank, z[order])


def _thin_bands(cc: T.ChartComplex, chart: int,
                thin: list[Cylinder]) -> list:
    """The lifted waist axes of thin cylinders that can exclude candidates
    of the chart, as pairs (ai, bound): ai maps the coordinates
    translate_to(center)^-1(z) of a chart point z to coordinates in which
    the axis is the real diameter, and the point is excluded when it lies
    within bound = K_C + _BAND_MARGIN of it.

    One development around the chart center serves every cylinder: its
    radius is the largest of the per-cylinder radii
    center_radius + K_C + length/2 + 0.3, so every lift of every waist that
    a ball of its own radius would find is in it.  Candidates lie within
    center_radius of the center, so a lifted axis farther than
    center_radius + K_C from it excludes none of them and is skipped.

    Tiles that differ by a power of the waist carry the same lifted axis,
    so each axis is listed once: one whose ideal endpoints are both within
    1e-7 of those of a listed axis of the same cylinder is skipped.
    Distinct lifts of a simple closed geodesic are disjoint and at least
    2 collar_width(length) > 2 apart (collar lemma), and two axes that pass
    within reach of the center with endpoints 1e-7 apart would be far
    closer than that.  The endpoints of one axis computed from two tiles
    differ by rounding error only (at most 2e-12 on the genus-2 and
    genus-3 chains, against at least 1.2 between distinct axes)."""
    ch = cc.charts[chart]
    radius = max(ch.center_radius + c.K_C + 0.5 * c.length + 0.3
                 for c in thin)
    tiles = T.ball_tiles(cc, T.SurfacePoint(chart, ch.center), radius)
    bands = []
    for cyl in thin:
        reach = ch.center_radius + cyl.K_C + _BAND_MARGIN
        applied = []
        for g in cyl.geodesic.lifts(tiles):
            f = G.axis_frame(g)
            ai = f.inverse()
            if G.dist_to_diameter(ai(0.0))[0] > reach:
                continue
            ends = (f(-1.0), f(1.0))
            if any(abs(ends[0] - e0) < 1e-7 and abs(ends[1] - e1) < 1e-7
                   for e0, e1 in applied):
                continue
            applied.append(ends)
            bands.append((ai, cyl.K_C + _BAND_MARGIN))
    return bands


def _in_bands(zdev: np.ndarray, bands: list) -> np.ndarray:
    """Mask of the points zdev = translate_to(center)^-1(z) that lie in
    one of the bands, by the distance to each axis."""
    mask = np.zeros(len(zdev), dtype=bool)
    for ai, bound in bands:
        w = ai.apply_many(zdev)
        hp = (1.0 + w) / (1.0 - w)
        d = np.arccosh(np.maximum(np.abs(hp) / hp.real, 1.0))
        mask |= d <= bound
    return mask


def _lex_order(z: np.ndarray) -> np.ndarray:
    """The permutation that sorts z by real part, then by imaginary part.
    Without two equal real parts that is the argsort of the real parts;
    with one, lexsort breaks the tie."""
    order = np.argsort(z.real)
    x = z.real[order]
    if np.any(x[1:] == x[:-1]):
        return np.lexsort((z.imag, z.real))
    return order


def thick_net(atlas: SurfaceAtlas, cylinders: list[Cylinder], seeds: list,
              eps: float = EPSILON_DEFAULT) -> EpsilonNet:
    """Greedy (eps/2)-separated net on the complement of the triangulated
    thin cylinders, seeded against seeds, the vertices of the cylinders'
    standard triangulations and cycles.

    Candidates are the points of each chart's grid with hyperbolic spacing
    eps/100, swept in lexicographic (chart, x, y) order, so the net is
    reproducible bit-for-bit.
    """
    cc = atlas.cc
    sep = 0.5 * eps
    thin = [cyl for cyl in cylinders if cyl.kind == "thin"]
    grids = [_chart_grid(ch, eps / 100.0,
                         _thin_bands(cc, ci, thin) if thin else [])
             for ci, ch in enumerate(cc.charts)]
    n_cands = sum(len(g.z) for g in grids)
    if n_cands == 0:
        raise MeshError("no candidates generated")
    alive = [np.ones(len(g.z), dtype=bool) for g in grids]

    def kill(p: T.SurfacePoint):
        """Kill the candidates within sep of p.  In the recentred
        coordinates of a tile's chart these lie in the euclidean disk of
        the ball B(q, sep) around the lift q of p.  Its candidates more
        than _PAD inside the circle are killed with no test, and the live
        ones within _PAD of it get the exact distance test."""
        for t in T.ball_tiles(cc, p, sep + 0.05):
            g, flags = grids[t.chart], alive[t.chart]
            disk = G.HypCircle((t.placement @ g.f).inverse()(0.0), sep)
            inside, edge = g.disk(disk.eu_center, disk.eu_radius)
            flags[inside] = False
            edge = edge[flags[edge]]
            if len(edge) == 0:
                continue
            d = G.dist_many(0.0, t.placement.apply_many(g.z[edge]))
            flags[edge[d < sep]] = False

    for p in seeds:
        kill(p)

    net = []
    for ci, g in enumerate(grids):
        flags = alive[ci]
        k = 0
        while k < len(flags):
            k += int(np.argmax(flags[k:]))
            if not flags[k]:
                break
            p = T.SurfacePoint(ci, complex(g.z[k]))
            net.append(p)
            kill(p)
            k += 1
    return EpsilonNet(net, n_cands)
