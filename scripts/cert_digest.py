#!/usr/bin/env python3
"""Print a sha256 over what the read-path commands of the benchmark's
`certify` workload print and write, so that two versions of the program
can be compared certificate by certificate.

Usage:
    python3 scripts/cert_digest.py

For each seed from 1 to 7 it runs one round of the `certify` workload,
in-process as `bench/run.py` runs it: `verify` and `bounds` on the stored
inputs, `verify` on their corrupted copies of that seed (the seven seeds
give every input every corruption), and `equilateral` on the K_12
rotation.  It digests each command's arguments, exit code, standard
output and `--out` file.  A command without an `--out` file (`verify`
and `bounds`) is given one, so the digest reads its whole certificate
(violations and notes), not only the summary it prints.  The round's
scratch directory and the checkout's root are replaced by fixed names,
so two checkouts give equal digests for equal output.

It prints one line per seed with the number of commands and their
digest, and at the end one digest over all lines.  This is the read-path
counterpart of `byte_digest.py`.  The program is imported from `src/`
next to this script and the round from `bench/`; it reads `bench/inputs/`
and writes only to a temporary directory.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench")]

import harness  # noqa: E402
import run  # noqa: E402

SEEDS = range(1, 8)


def digest(seed: int, cli) -> str:
    sha = hashlib.sha256()
    n = 0
    run_cli = run.run_cli
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)

        def plain(text: str) -> str:
            return text.replace(str(work), "<work>").replace(str(ROOT),
                                                             "<root>")

        def rec_run_cli(cli, argv):
            nonlocal n
            n += 1
            if "--out" not in argv:
                argv = argv + ["--out", str(work / f"cert{n}.json")]
            res = run_cli(cli, argv)
            path = Path(argv[argv.index("--out") + 1])
            out = path.read_text() if path.is_file() else "<none>"
            code = "traceback" if res.code is None else res.code
            sha.update(("\x1f".join(map(str, (
                plain(" ".join(argv)), code, plain(res.stdout), out)))
                + "\n").encode())
            return res

        plan = run.prepare_certify(seed, work)
        run.run_cli = rec_run_cli
        problems = []
        try:
            run.certify_round(plan, cli, work, problems)
        finally:
            run.run_cli = run_cli
    return (f"certify seed {seed}: commands {n}, problems {len(problems)}, "
            f"sha256 {sha.hexdigest()}")


def main() -> int:
    cli = harness.import_hypdel()
    lines = []
    for seed in SEEDS:
        lines.append(digest(seed, cli))
        print(lines[-1], flush=True)
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"all {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
