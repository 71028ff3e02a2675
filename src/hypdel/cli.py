"""Command-line front end: construction, certification, audits, figures.

Thin shell over the library modules; every certificate the CLI emits is
byte-identical to the corresponding library call.  Exit codes: 0 all
checks pass, 1 a check failed, 2 input or resource errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import delaunay as D
from . import equilateral as E
from . import geometry as G
from . import linearbound as L
from . import surface as S
from . import thickthin as TT
from . import tiling as T
from . import verify as V
from .errors import HypDelError, MalformedInput, RadiusCap


def _read(path: str) -> str:
    """The text of an input file; one that cannot be read is bad input."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc.strerror}") from exc


def _print(*args):
    """print, flushed.  Once the reader has closed stdout (`| head -1`),
    the rest goes to the null device and the command runs to its end."""
    try:
        print(*args, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _load_atlas(path):
    return S.SurfaceAtlas(*S.spec_from_json(_read(path)))


def _pants_constants(atlas):
    return L.pants_constants(min(atlas.cuff_lengths), max(atlas.cuff_lengths))


def cmd_build_surface(args):
    atlas = _load_atlas(args.spec)
    cyls = TT.detect_thin_part(atlas)
    thin = [c for c in cyls if c.kind == "thin"]
    out = {
        "genus": atlas.genus,
        "pants": 2 * atlas.genus - 2,
        "cuff_lengths": atlas.cuff_lengths,
        "epsilon": TT.EPSILON,
        "short_geodesics": [c.length for c in cyls],
        "thin_cylinders": len(thin),
    }
    _print(f"genus {out['genus']}, {out['pants']} pants, "
           f"{len(out['cuff_lengths'])} cuffs")
    _print(f"cuff lengths: {out['cuff_lengths']}")
    _print(f"short geodesics below 2*{TT.EPSILON}: "
           f"{out['short_geodesics']} ({out['thin_cylinders']} thin)")
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1))
    return 0


def cmd_triangulate(args):
    atlas = _load_atlas(args.spec)
    res = D.thick_thin_triangulation(atlas)
    tc = res.complex
    text = D.complex_to_json(tc)
    g = atlas.genus
    n_cylinder = sum(len(st.vertices) for st, _ in res.standard)
    _print(f"v = {tc.n_vertices} (bound 151g = {151 * g}, floor "
           f"{V.vertex_floor(g)})")
    _print(f"e = {len(tc.edges)}, f = {len(tc.triangles)}, "
           f"cylinder vertices {n_cylinder}, "
           f"net vertices {tc.n_vertices - n_cylinder}")
    if args.out:
        Path(args.out).write_text(text)
    else:
        _print(text)
    return 0


def cmd_verify(args):
    atlas = _load_atlas(args.spec)
    lc = D.complex_from_json(atlas, _read(args.triangulation))
    cert = V.verify_complex(lc, args.tol)
    _print(cert.summary())
    if args.out:
        Path(args.out).write_text(cert.to_json())
    if args.svg:
        Path(args.svg).write_text(render_svg(lc))
    return 0 if cert.passed else 1


def cmd_bounds(args):
    atlas = _load_atlas(args.spec)
    lc = D.complex_from_json(atlas, _read(args.triangulation))
    pc = _pants_constants(atlas)
    decomp, cl_of = L.chain_clusters(atlas, lc, pc.N)
    cert = V.Certificate(L.edge_bound_audit(lc, pc, decomp, cl_of)
                         + L.appendixB_audit(lc, decomp, cl_of))
    _print(f"m = {pc.m:.6f}, M = {pc.M:.6f}, N = {pc.N}, "
           f"denominator {pc.denominator()}")
    _print(cert.summary())
    if args.out:
        Path(args.out).write_text(cert.to_json())
    return 0 if cert.passed else 1


def cmd_equilateral(args):
    rot = E.parse_rotation(_read(args.rotation))
    verdict = E.check_hyperbolizable(rot)
    if not verdict.ok:
        _print("not hyperbolizable: " + "; ".join(verdict.reasons))
        return 1
    _print(f"K_{verdict.n}: genus {verdict.genus}, side {verdict.side:.6f}")
    surf = E.hyperbolize(verdict)
    text = E.export_json(surf)
    lc = D.complex_from_json(surf, text)
    cert = E.certify_equilateral(surf, lc)
    _print(cert.summary())
    _print(f"v = {surf.n}, jungerman_ringel({surf.genus}) = "
           f"{V.jungerman_ringel(surf.genus)}")
    if args.out:
        Path(args.out).write_text(text)
    if args.svg:
        Path(args.svg).write_text(render_svg(lc))
    return 0 if cert.passed else 1


def cmd_report(args):
    atlas = _load_atlas(args.spec)
    res = D.thick_thin_triangulation(atlas)
    lc = D.complex_from_json(atlas, D.complex_to_json(res.complex))
    cert = V.verify_complex(lc)
    pc = _pants_constants(atlas)
    decomp, cl_of = L.chain_clusters(atlas, lc, pc.N)
    bound_checks = L.edge_bound_audit(lc, pc, decomp, cl_of)
    report = {
        "genus": atlas.genus,
        "v": res.complex.n_vertices,
        "e": len(res.complex.edges),
        "f": len(res.complex.triangles),
        "bound_151g": 151 * atlas.genus,
        "vertex_floor": V.vertex_floor(atlas.genus),
        "verify": json.loads(cert.to_json()),
        "bounds": json.loads(V.Certificate(bound_checks).to_json()),
    }
    out = json.dumps(report, indent=1)
    if args.out:
        Path(args.out).write_text(out)
    else:
        _print(out)
    ok = cert.passed and all(c.passed for c in bound_checks)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# SVG rendering: fundamental domain plus one ring of translates
# ---------------------------------------------------------------------------

SVG_RADIUS = 2.6   # development ball drawn around the first vertex
SVG_SCALE = 360.0  # pixels per unit of disk radius


def _geodesic_path(p: complex, q: complex) -> str:
    """SVG path for the geodesic segment between two disk points."""
    scale = SVG_SCALE
    det = 2.0 * (p.real * q.imag - p.imag * q.real)
    x1, y1 = p.real * scale, -p.imag * scale
    x2, y2 = q.real * scale, -q.imag * scale
    if abs(det) < 1e-9:
        return f"M {x1:.2f} {y1:.2f} L {x2:.2f} {y2:.2f}"
    b1 = 1.0 + abs(p) ** 2
    b2 = 1.0 + abs(q) ** 2
    cx = (b1 * q.imag - b2 * p.imag) / det
    cy = (b2 * p.real - b1 * q.real) / det
    r = math.sqrt(cx * cx + cy * cy - 1.0) * scale
    sweep = 1 if (q.real - p.real) * (cy - p.imag) - \
        (q.imag - p.imag) * (cx - p.real) > 0 else 0
    return (f"M {x1:.2f} {y1:.2f} A {r:.2f} {r:.2f} 0 0 {sweep} "
            f"{x2:.2f} {y2:.2f}")


def render_svg(lc) -> str:
    """Lifted triangulation inside the unit disk: one development ball
    around the first vertex (roughly the fundamental domain and a ring
    of translates)."""
    scale = SVG_SCALE
    tiles = T.ball_tiles(lc.atlas.cc, lc.points[0], SVG_RADIUS)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'viewBox="{-scale-6} {-scale-6} {2*scale+12} {2*scale+12}">',
             f'<circle cx="0" cy="0" r="{scale}" fill="white" '
             f'stroke="black" stroke-width="1.5"/>']
    drawn = set()
    for u, start, tile in T.point_lifts(tiles, lc.grouped):
        if abs(start) > 0.995:
            continue
        frame = tile.placement @ G.Mobius.translate_to(lc.points[u].z)
        for (a, b, m) in lc.edges:
            if a != u:
                continue
            end = frame(m(lc.points[b].z))
            if abs(end) > 0.995:
                continue
            key = (round(start.real, 5), round(start.imag, 5),
                   round(end.real, 5), round(end.imag, 5))
            if key in drawn:
                continue
            drawn.add(key)
            parts.append(f'<path d="{_geodesic_path(start, end)}"'
                         f' fill="none" stroke="#3366aa" '
                         f'stroke-width="0.8"/>')
        parts.append(f'<circle cx="{start.real*scale:.2f}" '
                     f'cy="{-start.imag*scale:.2f}" r="2.2" '
                     f'fill="#aa3322"/>')
    parts.append("</svg>")
    return "\n".join(parts)


# ---------------------------------------------------------------------------

def _tolerance(text: str) -> float:
    tol = float(text)
    if not 0.0 <= tol < math.inf:
        raise argparse.ArgumentTypeError(
            f"tolerance {text} is not a finite number >= 0")
    return tol


def build_parser():
    p = argparse.ArgumentParser(
        prog="hypdel",
        description="Distance Delaunay triangulations of closed "
                    "hyperbolic surfaces")
    sub = p.add_subparsers(dest="command", required=True)

    def flags(sp, *names):
        if "tol" in names:
            sp.add_argument("--tol", type=_tolerance,
                            default=V.DELAUNAY_TOL)
        if "svg" in names:
            sp.add_argument("--svg", default=None)
        sp.add_argument("--out", default=None)

    sp = sub.add_parser("build-surface")
    sp.add_argument("spec")
    flags(sp)
    sp.set_defaults(fn=cmd_build_surface)

    sp = sub.add_parser("triangulate")
    sp.add_argument("spec")
    flags(sp)
    sp.set_defaults(fn=cmd_triangulate)

    sp = sub.add_parser("verify")
    sp.add_argument("spec")
    sp.add_argument("triangulation")
    flags(sp, "tol", "svg")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("bounds")
    sp.add_argument("spec")
    sp.add_argument("triangulation")
    flags(sp)
    sp.set_defaults(fn=cmd_bounds)

    sp = sub.add_parser("equilateral")
    sp.add_argument("rotation")
    flags(sp, "svg")
    sp.set_defaults(fn=cmd_equilateral)

    sp = sub.add_parser("report")
    sp.add_argument("spec")
    flags(sp)
    sp.set_defaults(fn=cmd_report)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except RadiusCap as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 2
    except HypDelError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # json.JSONDecodeError among them
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # inputs are read by _read: an output file
        print(f"output error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
