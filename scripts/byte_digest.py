#!/usr/bin/env python3
"""Print sha256 digests of the construction's output on 31 fixed surfaces,
so that two versions of the program can be compared byte for byte.

Usage:
    python3 scripts/byte_digest.py

For each surface it prints the digest of `complex_to_json` of the
thick-thin triangulation, a `structure` digest of the same output that
ignores the direction in which each edge is stored (the vertices, the
triangles and the sorted unordered endpoint pairs of the edges), and the
digest of the `detect_thin_part` cylinder list (length, K_C, kind, the
geodesic's chart and deck element, and its basepoint, as exact float hex),
and at the end one digest over all lines.  A construction that raises
prints the exception type in place of the digests.  The surfaces are the
six chains of the acceptance suite's criterion 4 (genus 2, 3 and 5, all
cuffs 1.0 or the first cuff 0.5), the `thin-chain` and `short-mixed`
surfaces of the benchmark, and the `thick-random` surfaces of seeds 1 and
2.  The program is imported from `src/` next to this script; the specs
come from `bench/workloads.py`.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from hypdel import delaunay as D  # noqa: E402
from hypdel import surface as S  # noqa: E402
from hypdel import thickthin as TT  # noqa: E402
from hypdel.errors import HypDelError  # noqa: E402
import workloads as W  # noqa: E402


def surfaces() -> list[tuple[str, dict]]:
    chains = [(f"criterion4-g{g}-{c}", W.chain_spec(g, c))
              for g in (2, 3, 5) for c in (1.0, 0.5)]
    return (chains + sorted(W.thin_chain(1)) + sorted(W.short_mixed(1))
            + [(f"{name}-seed{seed}", sp) for seed in (1, 2)
               for name, sp in W.thick_random(seed)])


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cylinder_text(cyls) -> str:
    rows = []
    for c in cyls:
        g = c.geodesic
        bp = g.basepoint
        rows.append([c.length.hex(), c.K_C.hex(), c.kind, g.chart,
                     g.element.a.real.hex(), g.element.a.imag.hex(),
                     g.element.b.real.hex(), g.element.b.imag.hex(),
                     bp.chart, bp.z.real.hex(), bp.z.imag.hex()])
    return json.dumps(rows)


def structure_text(text: str) -> str:
    d = json.loads(text)
    pairs = sorted(sorted(e[:2]) for e in d["edges"])
    return json.dumps([d["vertices"], d["triangles"], pairs])


def digest(spec: dict) -> str:
    try:
        atlas = S.SurfaceAtlas(*S.spec_from_json(json.dumps(spec)))
        cyls = TT.detect_thin_part(atlas)
        res = D.thick_thin_triangulation(atlas)
    except HypDelError as exc:
        return f"raised {type(exc).__name__}"
    text = D.complex_to_json(res.complex)
    return (f"complex {_sha(text)} structure {_sha(structure_text(text))} "
            f"cylinders {_sha(cylinder_text(cyls))}")


def main() -> int:
    lines = []
    for name, spec in surfaces():
        line = f"{name} {digest(spec)}"
        print(line, flush=True)
        lines.append(line)
    print(f"all {_sha(chr(10).join(lines))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
