"""Every development of the universal cover goes through one call,
tiling.ball_tiles, looked up on the module: the benchmark counts
developments by rebinding that attribute, so a by-name import or a tile
store built elsewhere would develop the cover unseen.  Every point lift
goes through tiling.point_lifts, so that a prebuilt development has one
function to replace."""

import ast
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
