#!/usr/bin/env python3
"""Print a sha256 over one benchmark round of each workload, so that two
versions of the program can be compared call by call.

Usage:
    python3 scripts/walk_digest.py [--workload W ...] [--seed 1]

For each workload it runs one round of the benchmark's `hypdel` commands,
in-process as `bench/run.py` runs them, and digests

- every `tiling.ball_tiles` call: the base's chart and point, the radius,
  and each returned tile's chart, depth and placement coefficients;
- every `tiling.point_lifts` result: each point index, lift, and the
  chart and depth of its tile;
- every command: its arguments, exit code and standard output, and the
  `--out` file it wrote.

Floats enter as exact hex.  The round's scratch directory and the
checkout's root are replaced by fixed names, so two checkouts give equal
digests for equal work.  It prints one line per workload with the call
counts and the digest, and at the end one digest over all lines.  The
program is imported from `src/` next to this script and the round from
`bench/`; it reads `bench/workloads.py` and `bench/inputs/` and writes
only to a temporary directory.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench")]

import harness  # noqa: E402
import run  # noqa: E402

WORKLOADS = run.WORKLOADS


def _hex(z: complex) -> str:
    return f"{z.real.hex()},{z.imag.hex()}"


class Recorder:
    """Wraps ball_tiles, point_lifts and the command runner of the round
    and feeds what they see into one sha256."""

    def __init__(self, tiling, work: Path):
        self.sha = hashlib.sha256()
        self.counts = {"ball_tiles": 0, "tiles": 0, "lifts": 0,
                       "commands": 0}
        self.names = [(str(work), "<work>"), (str(ROOT), "<root>")]
        ball_tiles, point_lifts = tiling.ball_tiles, tiling.point_lifts
        run_cli = run.run_cli
        self._undo = [(tiling, "ball_tiles", ball_tiles),
                      (tiling, "point_lifts", point_lifts),
                      (run, "run_cli", run_cli)]

        def rec_ball_tiles(cc, base, radius):
            tiles = ball_tiles(cc, base, radius)
            self.counts["ball_tiles"] += 1
            self.counts["tiles"] += len(tiles)
            self.feed("ball_tiles", base.chart, _hex(base.z), radius.hex(),
                      *(f"{t.chart}:{t.depth}:{_hex(t.placement.a)}:"
                        f"{_hex(t.placement.b)}" for t in tiles))
            return tiles

        def rec_point_lifts(tiles, points):
            lifts = point_lifts(tiles, points)
            self.counts["lifts"] += len(lifts)
            self.feed("point_lifts", *(f"{j}:{_hex(w)}:{t.chart}:{t.depth}"
                                       for j, w, t in lifts))
            return lifts

        def rec_run_cli(cli, argv):
            res = run_cli(cli, argv)
            self.counts["commands"] += 1
            out = ""
            if "--out" in argv:
                path = Path(argv[argv.index("--out") + 1])
                out = path.read_text() if path.is_file() else "<none>"
            self.feed("command", self.plain(" ".join(argv)),
                      "traceback" if res.code is None else res.code,
                      self.plain(res.stdout), out)
            return res

        tiling.ball_tiles = rec_ball_tiles
        tiling.point_lifts = rec_point_lifts
        run.run_cli = rec_run_cli

    def plain(self, text: str) -> str:
        for name, fixed in self.names:
            text = text.replace(name, fixed)
        return text

    def feed(self, *fields):
        self.sha.update(("\x1f".join(map(str, fields)) + "\n").encode())

    def uninstall(self):
        for owner, attr, fn in self._undo:
            setattr(owner, attr, fn)


def digest(workload: str, seed: int, cli, hypdel) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        if workload == "certify":
            plan = run.prepare_certify(seed, work)
        else:
            plan = run.prepare_construct(workload, seed, work)
        rec = Recorder(hypdel.tiling, work)
        probe = run.Probe(hypdel)
        problems = []
        try:
            if workload == "certify":
                run.certify_round(plan, cli, work, problems)
            else:
                run.construct_round(workload, plan, cli, probe, problems)
        finally:
            probe.uninstall()
            rec.uninstall()
    counts = " ".join(f"{k} {v}" for k, v in rec.counts.items())
    return (f"{workload} seed {seed}: {counts}, problems {len(problems)}, "
            f"sha256 {rec.sha.hexdigest()}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    cli = harness.import_hypdel()
    import hypdel
    lines = []
    for workload in args.workload or WORKLOADS:
        lines.append(digest(workload, args.seed, cli, hypdel))
        print(lines[-1], flush=True)
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"all {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
