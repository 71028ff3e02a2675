#!/usr/bin/env python3
"""Sweep the thick-thin construction over a genus range and tabulate the
vertex counts against the 151 g budget and the Jungerman-Ringel floor.

Usage:
    python3 scripts/genus_sweep.py [--max-genus 8] [--cuff 1.0]
        [--short-cuff 0.5] [--out sweep.json]

Each genus is run twice: all cuffs at --cuff, and with the first cuff
shortened to --short-cuff so that one cylinder is clearly thin.
"""

import argparse
import json
import sys
import time

from hypdel import delaunay as D
from hypdel import surface as S
from hypdel import verify as V


def build(g, lengths):
    pg = S.linear_graph(g)
    fn = S.FNCoordinates(tuple(lengths), (0.0,) * len(pg.edges))
    atlas = S.build_atlas(pg, fn)
    t0 = time.monotonic()
    res = D.thick_thin_triangulation(atlas)
    dt = time.monotonic() - t0
    cert = V.verify_json(atlas, D.complex_to_json(res.complex))
    return {
        "genus": g,
        "lengths": list(lengths),
        "v": res.complex.n_vertices,
        "e": len(res.complex.edges),
        "f": len(res.complex.triangles),
        "p1": len(res.p1),
        "p2": len(res.p2),
        "budget_151g": 151 * g,
        "floor": V.vertex_floor(g),
        "verified": cert.passed,
        "seconds": round(dt, 2),
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-genus", type=int, default=8)
    ap.add_argument("--cuff", type=float, default=1.0)
    ap.add_argument("--short-cuff", type=float, default=0.5)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    rows = []
    for g in range(2, args.max_genus + 1):
        n = 3 * g - 3
        for lengths in ((args.cuff,) * n,
                        (args.short_cuff,) + (args.cuff,) * (n - 1)):
            row = build(g, lengths)
            rows.append(row)
            tag = "sym " if lengths[0] == args.cuff else "thin"
            print(f"g={g:2d} {tag} v={row['v']:4d} / {row['budget_151g']}"
                  f"  (floor {row['floor']:3d})  P1={row['p1']:3d} "
                  f"P2={row['p2']:4d}  verify={'ok' if row['verified'] else 'FAIL'}"
                  f"  {row['seconds']}s")
            if not row["verified"]:
                return 1
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(rows, fh, indent=1)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
