"""Calling `hypdel` in-process the way a user calls it from the shell."""

from __future__ import annotations

import contextlib
import io
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def import_hypdel():
    """Import the package from this checkout's `src/`, never from an
    installed copy, so the benchmark measures the tree it sits in."""
    if not (SRC / "hypdel" / "cli.py").is_file():
        raise SystemExit(f"benchmark: no hypdel sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hypdel.cli
    if Path(hypdel.cli.__file__).resolve().parent != SRC / "hypdel":
        raise SystemExit("benchmark: imported hypdel from outside src/")
    return hypdel.cli


@dataclass
class Outcome:
    code: int | None     # exit code; None when an exception escaped main
    stdout: str
    stderr: str
    exc: BaseException | None = None


def run_cli(cli, argv: list[str]) -> Outcome:
    """`hypdel <argv>` in this process, through `cli.main` as bound at
    the time of the call.  An exception that escapes `main` would print a
    traceback and exit 1 from the shell; it is kept in `exc` with code
    None."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # the shell would show a traceback
        return Outcome(None, out.getvalue(), err.getvalue(), exc)
    return Outcome(code, out.getvalue(), err.getvalue())
