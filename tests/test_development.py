"""Every development of the universal cover goes through one call,
tiling.ball_tiles, looked up on the module: the benchmark counts
developments by rebinding that attribute, so a by-name import or a tile
store built elsewhere would develop the cover unseen.  Every point lift
goes through tiling.point_lifts, so that a prebuilt development has one
function to replace.  Thin-part detection develops each chart once:
dedup reads the detection ball, and the collar check is a closed form.
The program needs numpy only: the Delaunay stars come from a convex hull
of its own, not from scipy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import hypdel
from conftest import linear_atlas
from hypdel import tiling as T

SRC = Path(hypdel.__file__).resolve().parent


def _modules():
    return [(path.name, ast.parse(path.read_text()))
            for path in sorted(SRC.glob("*.py"))]


def test_no_module_imports_ball_tiles_by_name():
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert all(a.name != "ball_tiles" for a in node.names), name


def test_only_tiling_builds_tiles():
    for name, tree in _modules():
        if name == "tiling.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                called = f.attr if isinstance(f, ast.Attribute) else \
                    getattr(f, "id", None)
                assert called != "Tile", name
            used = node.attr if isinstance(node, ast.Attribute) else \
                getattr(node, "id", None)
            assert used != "_TileStore", name


def test_only_tiling_applies_placements():
    for name, tree in _modules():
        if name == "tiling.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                assert not (isinstance(f, ast.Attribute)
                            and f.attr == "placement"), \
                    f"{name}:{node.lineno} applies a tile placement"


def _calls_ball_tiles(tree, fn):
    """Whether fn, or a function of the module that fn calls by name (and
    so on), calls ball_tiles."""
    defs = {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}
    seen, todo = set(), [fn]
    while todo:
        node = todo.pop()
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            f = sub.func
            called = f.attr if isinstance(f, ast.Attribute) else \
                getattr(f, "id", None)
            if called == "ball_tiles":
                return True
            if isinstance(f, ast.Name) and f.id in defs \
                    and f.id not in seen:
                seen.add(f.id)
                todo.append(defs[f.id])
    return False


def test_thin_part_detection_develops_each_chart_once():
    # the only developments of detect_thin_part are short_geodesics'
    # detection balls: dedup and the collar check run on none of their own
    trees = dict(_modules())
    surface, thickthin = trees["surface.py"], trees["thickthin.py"]
    cls = next(node for node in surface.body
               if isinstance(node, ast.ClassDef)
               and node.name == "ShortGeodesic")
    same = next(node for node in cls.body
                if isinstance(node, ast.FunctionDef)
                and node.name == "same_geodesic")
    detect = next(node for node in thickthin.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "detect_thin_part")
    assert not _calls_ball_tiles(surface, same)
    assert not _calls_ball_tiles(thickthin, detect)
    # and the rule sees a development through a module function
    probe = ast.parse("def f():\n    g()\n\ndef g():\n    T.ball_tiles()\n")
    assert _calls_ball_tiles(probe, probe.body[0])


def test_point_lifts_is_the_tile_by_point_loop():
    atlas = linear_atlas(3)
    points = [T.SurfacePoint(ci, z) for ci, ch in enumerate(atlas.cc.charts)
              for z in (ch.center, 0.5 * (ch.center + ch.vertices[0]))]
    tiles = T.ball_tiles(atlas.cc, points[3], 2.0)
    want = []
    for t in tiles:
        for j, p in enumerate(points):
            if p.chart == t.chart:
                want.append((j, t.placement(p.z), t))
    got = T.point_lifts(tiles, points)
    assert len(got) == len(want) > len(tiles)
    for (j, w, t), (j2, w2, t2) in zip(got, want):
        assert j == j2 and w == w2 and t is t2


def test_no_module_imports_scipy():
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] == "scipy" for m in mods), \
                f"{name}:{node.lineno} imports scipy"


def test_cli_import_leaves_scipy_unloaded():
    code = "import sys, hypdel.cli; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, env=env).stdout
    assert out.strip() == "False"
