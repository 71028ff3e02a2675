"""Every development of the universal cover goes through one call,
tiling.ball_tiles, looked up on the module: the benchmark counts
developments by rebinding that attribute, so a by-name import or a tile
store built elsewhere would develop the cover unseen."""

import ast
from pathlib import Path

import hypdel

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
