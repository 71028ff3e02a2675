"""Every development of the universal cover goes through one call,
tiling.ball_tiles, looked up on the module: the benchmark counts
developments by rebinding that attribute, so a by-name import or a
development graph read elsewhere would develop the cover unseen.  Each
chart's graph is grown by ball_tiles alone, and returns exactly the
tiles of the per-call search it replaced (tests/reference.py).  Every point lift
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
import pytest
from conftest import cached_build, linear_atlas
from hypothesis import example, given, settings, strategies as st
from hypdel import equilateral as E
from hypdel import geometry as G
from hypdel import surface as S
from hypdel import tiling as T
from hypdel.errors import DomainError
from reference import reference_ball_tiles

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


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Name):
            yield node.id


def test_only_tiling_reads_the_development_graph():
    # the graph's nodes are identified by centre distance and grown
    # lazily; a reader elsewhere would depend on that internal state
    graph = {"_Development", "_developments", "development"}
    for name, tree in _modules():
        used = set(_names(tree))
        assert "_TileStore" not in used, name
        if name != "tiling.py":
            assert not used & graph, (name, used & graph)


def test_transition_after_first_development_is_refused():
    # the graph stores each node's neighbours, so a gluing added once the
    # cover has been developed would leave them stale: the first
    # development seals every chart of the complex
    atlas = linear_atlas(2)
    ch = atlas.cc.charts[0]
    side, (cj, t) = 1, ch.transitions[1][0]
    T.ball_tiles(atlas.cc, T.SurfacePoint(3, atlas.cc.charts[3].center),
                 0.5)
    with pytest.raises(DomainError, match="developed"):
        ch.add_transition(side, cj, t)
    assert ch.transitions[side] == [(cj, t)]


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


def _thick_g2():
    if not _THICK:
        _THICK.append(S.build_atlas(
            S.linear_graph(2),
            S.FNCoordinates((2.0, 1.7, 2.3), (0.3, -0.2, 0.5))))
    return _THICK[0]


def _k12():
    """K_12's 44 triangle charts, grown by the equilateral command's
    export, and a fresh copy."""
    if not _K12:
        surf = E.hyperbolize(E.load_k12_rotation())
        E.export_json(surf)
        _K12.append(surf.cc)
    return _K12[0], E.hyperbolize(E.load_k12_rotation()).cc


def _pants(atlas):
    """The atlas's chart complex and a fresh one of the same surface."""
    return atlas.cc, S.build_atlas(atlas.graph, atlas.fn).cc


_THICK, _K12 = [], []
_SURFACES = {"g2_build": lambda: _pants(cached_build(2)[0]),
             "g2_thin_build": lambda: _pants(cached_build(2, thin=True)[0]),
             "g5_build": lambda: _pants(cached_build(5)[0]),
             "thick": lambda: _pants(_thick_g2()),
             "k12": _k12}


def _key(tiles):
    return [(t.chart, t.depth, t.placement.a, t.placement.b) for t in tiles]


def _base(cc, chart, vertex, s):
    """A point on the geodesic from a chart's center (s = 0) to one of its
    vertices (s = 1)."""
    ch = cc.charts[chart % len(cc.charts)]
    f = G.Mobius.translate_to(ch.center)
    v = ch.vertices[vertex % ch.n_sides]
    return T.SurfacePoint(chart % len(cc.charts), f(s * f.inverse()(v)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_SURFACES)),
       st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99),
                          st.floats(0.0, 1.0), st.floats(0.0, 4.0)),
                min_size=2, max_size=4))
@example("g2_thin_build", [(1, 0, 1.0, 0.0), (1, 2, 0.0, 4.0),
                           (2, 5, 1.0, 2.5)])
@example("g2_build", [(0, 0, 0.0, 3.5), (3, 1, 1.0, 1e-9),
                      (1, 4, 0.5, 0.0)])
@example("k12", [(43, 2, 1.0, 4.0), (0, 0, 0.5, 1.5)])
@example("g5_build", [(15, 3, 1.0, 4.0), (7, 1, 0.3, 2.0)])
def test_ball_tiles_matches_per_call_search(surface, queries):
    # a fresh atlas grows its graphs partway through the query list; the
    # constructed one was grown by the whole construction beforehand
    built, fresh = _SURFACES[surface]()
    for chart, vertex, s, radius in queries:
        for cc in (fresh, built):
            p = _base(cc, chart, vertex, s)
            want = _key(reference_ball_tiles(cc, p, radius))
            assert _key(T.ball_tiles(cc, p, radius)) == want
