#!/usr/bin/env python3
"""Print the memory the thick net takes on random pants graphs of large
genus, so that the figures can be measured again.

Usage:
    python3 scripts/net_memory.py [--genus 20] [--seed 1]

For each cuff range, [0.5, 2.5] and [1.5, 2.5], it draws one surface with
`random.Random(seed)`: the 3 (2g - 2) half-edges are paired uniformly at
random, and the pairing is drawn again until `PantsGraph.validate` passes
(the graph is connected); then each cuff is uniform in the range and its
twist uniform in [-l/2, l/2].  It builds the thick-thin triangulation and
prints the build's wall time, the vertex count v, the net's candidate
count, the `ball_tiles` calls made inside `thick_net`, and tracemalloc's
peak inside `thick_net`, traced from its entry to its return.  The rest
of the build runs untraced.  The program is
imported from `src/` next to this script.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

from hypdel import delaunay as D  # noqa: E402
from hypdel import surface as S  # noqa: E402
from hypdel import thickthin as TT  # noqa: E402
from hypdel import tiling as T  # noqa: E402
from hypdel.errors import InvalidGraph  # noqa: E402

CUFF_RANGES = ((0.5, 2.5), (1.5, 2.5))


def random_surface(genus: int, lo: float, hi: float,
                   rng: random.Random) -> S.SurfaceAtlas:
    """A random pants graph of the genus with cuffs uniform in [lo, hi]
    and twists uniform in [-l/2, l/2]."""
    halves = [v for v in range(2 * genus - 2) for _ in range(3)]
    while True:
        rng.shuffle(halves)
        graph = S.PantsGraph(genus, tuple(zip(halves[::2], halves[1::2])))
        try:
            graph.validate()
            break
        except InvalidGraph:
            continue
    lengths = tuple(rng.uniform(lo, hi) for _ in graph.edges)
    twists = tuple(rng.uniform(-0.5 * l, 0.5 * l) for l in lengths)
    return S.SurfaceAtlas(graph, S.FNCoordinates(lengths, twists))


def traced(thick_net, record: dict):
    """thick_net with tracemalloc on from its entry to its return, and its
    ball_tiles calls counted."""
    def wrapper(*args):
        ball_tiles = T.ball_tiles
        record["ball_tiles"] = 0

        def counted(*ball):
            record["ball_tiles"] += 1
            return ball_tiles(*ball)

        T.ball_tiles = counted
        tracemalloc.start()
        try:
            net = thick_net(*args)
            record["peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
            T.ball_tiles = ball_tiles
        record["candidates"] = net.n_candidates
        return net
    return wrapper


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--genus", type=int, default=20)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    thick_net = TT.thick_net
    for lo, hi in CUFF_RANGES:
        atlas = random_surface(args.genus, lo, hi, random.Random(args.seed))
        record = {}
        TT.thick_net = traced(thick_net, record)
        try:
            t0 = time.perf_counter()
            res = D.thick_thin_triangulation(atlas)
            build_s = time.perf_counter() - t0
        finally:
            TT.thick_net = thick_net
        print(f"g {args.genus} cuffs [{lo}, {hi}]: build {build_s:.2f} s, "
              f"v {len(res.complex.points)}, "
              f"candidates {record['candidates']}, "
              f"ball_tiles {record['ball_tiles']}, "
              f"thick_net peak {record['peak_mb']:.2f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
