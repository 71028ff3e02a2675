"""Remake the certify workload's stored inputs from their specs.

    python3 bench/make_inputs.py

writes bench/inputs/<name>.spec.json and, through `hypdel triangulate`,
bench/inputs/<name>.tri.json for every spec of
`workloads.certify_specs()`.  The triangulations are inputs of the read
paths, not expected outputs: the benchmark checks them afresh.
"""

from __future__ import annotations

import json
import sys
import time

from harness import import_hypdel, run_cli
from workloads import INPUTS, certify_specs, stored


def main() -> int:
    cli = import_hypdel()
    INPUTS.mkdir(exist_ok=True)
    for name, spec in certify_specs():
        spec_path, tri_path = stored(name)
        spec_path.write_text(json.dumps(spec, indent=1) + "\n")
        t0 = time.perf_counter()
        res = run_cli(cli, ["triangulate", str(spec_path),
                                 "--out", str(tri_path)])
        if res.code != 0:
            print(f"{name}: triangulate failed ({res.code}): "
                  f"{res.stderr or res.exc!r}", file=sys.stderr)
            return 1
        print(f"{name}: {res.stdout.splitlines()[0]} "
              f"({time.perf_counter() - t0:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
