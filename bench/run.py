"""The hypdel benchmark: one workload in one process on one thread.

    python3 bench/run.py --workload thin-chain --seed 1 --seconds 10 --trace 0

Runs whole rounds of the workload's `hypdel` commands, in-process through
`hypdel.cli.main` with the arguments a user would type, until --seconds
have passed; checks every output; and prints as its last line one JSON
object with `correct`, `attempted`, `failed` and `metrics`.  With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones of bench/spans.py.  Each metric is the median over the
run's rounds.  See bench/README.md.
"""

import time

START = time.perf_counter()

import os

# one thread: no BLAS or OpenMP pools behind numpy and scipy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import random
import resource
import shutil
import statistics
import sys
from collections import Counter

import checks
import workloads as W
from harness import ROOT, SRC, import_hypdel, run_cli
from spans import Tracer, unit_of

OUT = ROOT / ".bench_out"
K12_ROTATION = SRC / "hypdel" / "data" / "k12_rotation.txt"
CONSTRUCT = {"thin-chain": W.thin_chain, "thick-random": W.thick_random,
             "short-mixed": W.short_mixed}
WORKLOADS = list(CONSTRUCT) + ["certify"]
PREPARE_REPEATS = 3

UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "certified_per_min": "1/min",
         "vertices_per_genus": "count"}


class Probe:
    """What the checks need from inside a `hypdel` call: the short
    geodesics `detect_thin_part` returned, and the exception, if any, that
    left `_StarBuilder._try_star`."""

    def __init__(self, hypdel):
        self.cylinders = None
        self.star_exc = None
        tt, dl = hypdel.thickthin, hypdel.delaunay
        detect, try_star = tt.detect_thin_part, dl._StarBuilder._try_star
        self._undo = [(tt, "detect_thin_part", detect),
                      (dl._StarBuilder, "_try_star", try_star)]

        def detect_thin_part(*args, **kwargs):
            cyls = detect(*args, **kwargs)
            self.cylinders = [(c.length, c.kind) for c in cyls]
            return cyls

        def _try_star(*args, **kwargs):
            try:
                return try_star(*args, **kwargs)
            except Exception as exc:
                self.star_exc = exc
                raise

        tt.detect_thin_part = detect_thin_part
        dl._StarBuilder._try_star = _try_star

    def reset(self):
        self.cylinders = self.star_exc = None

    def uninstall(self):
        for owner, attr, fn in self._undo:
            setattr(owner, attr, fn)

    def failed_in_star(self, res) -> bool:
        """Whether the command ended on the exception that left
        `_try_star`: escaping `main`, or reported by it with exit 2."""
        exc = self.star_exc
        if exc is None:
            return False
        if res.exc is not None:
            return res.exc is exc
        return res.code == 2 and f"{type(exc).__name__}: {exc}" in res.stderr


class Round:
    """Timings and tallies of one pass over the workload's inputs."""

    def __init__(self):
        self.seconds = Counter()
        self.attempted = 0
        self.failed = 0
        self.certified = 0
        self.failures = []
        self.vertices = 0  # of the certified triangulations
        self.genus = 0

    def timed(self, kind, cli, argv):
        t0 = time.perf_counter()
        res = run_cli(cli, argv)
        self.seconds[kind] += time.perf_counter() - t0
        self.attempted += 1
        return res

    def certify(self, tri):
        self.certified += 1
        self.vertices += len(tri["vertices"])
        self.genus += tri["genus"]

    def end_to_end(self) -> dict:
        """A rate and a ratio, so that a surface that stops failing adds
        work without reading as a slowdown."""
        return {"certified_per_min":
                60.0 * self.certified / sum(self.seconds.values()),
                "vertices_per_genus": self.vertices / max(self.genus, 1)}


def _outcome(res) -> str:
    if res.exc is not None:
        return f"traceback {type(res.exc).__name__}: {res.exc}"
    return f"exit {res.code}: {res.stderr.strip()[-300:]}"


def _write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


# -- construction workloads ---------------------------------------------------

def prepare_construct(workload, seed, work):
    plan = []
    for name, spec in CONSTRUCT[workload](seed):
        plan.append({
            "name": name, "spec": spec,
            "spec_path": _write_json(work / f"{name}.spec.json", spec),
            "tri_path": str(work / f"{name}.tri.json"),
        })
    return plan


def construct_round(workload, plan, cli, probe, problems):
    rnd = Round()
    for item in plan:
        name, spec = item["name"], item["spec"]
        probe.reset()
        res = rnd.timed("triangulate", cli, ["triangulate", item["spec_path"],
                                             "--out", item["tri_path"]])
        if res.code != 0:
            if workload == "short-mixed" and probe.failed_in_star(res):
                rnd.failed += 1
                rnd.failures.append(f"{name} {spec['lengths']}: "
                                    f"{_outcome(res)}")
            else:
                problems.append(f"{name}: triangulate {_outcome(res)}")
            continue
        with open(item["tri_path"]) as f:
            tri = json.load(f)
        problems += [f"{name}: {p}" for p in checks.counts(tri, spec["genus"])]
        if workload == "thin-chain":
            problems += [f"{name}: {p}" for p in
                         checks.short_geodesics(probe.cylinders, spec)]
        res = rnd.timed("verify", cli, ["verify", item["spec_path"],
                                        item["tri_path"]])
        if res.code != 0:
            problems.append(f"{name}: verify {_outcome(res)}")
            continue
        rnd.certify(tri)
    return rnd


# -- certify ------------------------------------------------------------------

def prepare_certify(seed, work):
    plan = []
    for k, (name, spec) in enumerate(W.certify_specs()):
        spec_path, tri_path = W.stored(name)
        with open(tri_path) as f:
            tri = json.load(f)
        kind = list(checks.CORRUPTIONS)[(seed + k) % len(checks.CORRUPTIONS)]
        bad = checks.corrupt(tri, kind, random.Random(f"{seed}/{name}"))
        plan.append({
            "name": name, "spec": spec, "tri": tri, "kind": kind,
            "spec_path": str(spec_path), "tri_path": str(tri_path),
            "chain": name.startswith("chain-"),
            "bad_path": _write_json(work / f"{name}.bad.json", bad),
            # the corruption must break an identity the file alone shows
            "bad_breaks": checks.counts(bad, spec["genus"]),
        })
    return plan


def certify_round(plan, cli, work, problems):
    rnd = Round()
    for item in plan:
        name = item["name"]
        res = rnd.timed("verify", cli, ["verify", item["spec_path"],
                                        item["tri_path"]])
        if res.code != 0:
            problems.append(f"{name}: verify {_outcome(res)}")
            continue
        rnd.certify(item["tri"])
    for item in plan:
        if not item["chain"]:
            continue
        res = rnd.timed("bounds", cli, ["bounds", item["spec_path"],
                                        item["tri_path"]])
        if res.code != 0:
            problems.append(f"{item['name']}: bounds {_outcome(res)}")
            continue
        rnd.certified += 1
    for item in plan:
        res = rnd.timed("reject", cli, ["verify", item["spec_path"],
                                        item["bad_path"]])
        problems += [f"{item['name']}: {item['kind']} copy: {p}" for p in
                     checks.rejected(res.code, res.exc, res.stderr)]
    out = work / "k12.tri.json"
    res = rnd.timed("equilateral", cli, ["equilateral", str(K12_ROTATION),
                                         "--out", str(out)])
    if res.code != 0:
        problems.append(f"K_12: equilateral {_outcome(res)}")
    else:
        with open(out) as f:
            tri = json.load(f)
        problems += [f"K_12: {p}" for p in checks.k12(tri)]
        rnd.certify(tri)
    return rnd


# -----------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_hypdel()
    import hypdel
    import_s = time.perf_counter() - START

    work = OUT / f"run-{os.getpid()}"
    try:
        return measure(args, cli, hypdel, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, cli, hypdel, work, import_s) -> int:
    prepare_s = []
    for _ in range(PREPARE_REPEATS):
        t0 = time.perf_counter()
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        if args.workload == "certify":
            plan = prepare_certify(args.seed, work)
        else:
            plan = prepare_construct(args.workload, args.seed, work)
        prepare_s.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(prepare_s)

    problems = []
    if args.workload == "certify":
        problems += [f"{item['name']}: {item['kind']} copy breaks no "
                     f"identity" for item in plan if not item["bad_breaks"]]
    probe = Probe(hypdel)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    rounds, layers, span_log = [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        if tracer is not None:
            tracer.reset()
        if args.workload == "certify":
            rnd = certify_round(plan, cli, work, problems)
        else:
            rnd = construct_round(args.workload, plan, cli, probe, problems)
        rounds.append(rnd)
        if tracer is not None:
            layers.append(tracer.metrics())
            span_log.append(tracer.spans)
        if time.perf_counter() >= deadline:
            break

    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"spans-{args.workload}-{args.seed}.json", "w") as f:
            json.dump([{"round": i, "spans": s}
                       for i, s in enumerate(span_log)], f)
        metrics = {name: {"value": statistics.median(r[name] for r in layers),
                          "unit": unit_of(name)}
                   for name in layers[0]}
    else:
        per_round = [r.end_to_end() for r in rounds]
        values = {name: statistics.median(r[name] for r in per_round)
                  for name in per_round[0]}
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in UNITS.items()}

    for line in rounds[0].failures:
        print(f"failed: {line}")
    for line in dict.fromkeys(problems):
        print(f"problem: {line}", file=sys.stderr)
    by_command = {kind: statistics.median(r.seconds[kind] for r in rounds)
                  for kind in rounds[0].seconds}
    print(f"{args.workload} seed {args.seed}: {len(rounds)} round(s), "
          "median seconds per command: "
          + ", ".join(f"{k} {v:.3f}" for k, v in by_command.items()))
    result = {"correct": not problems,
              "attempted": sum(r.attempted for r in rounds),
              "failed": sum(r.failed for r in rounds),
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
