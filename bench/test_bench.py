"""Tests of the benchmark's own code: every output check fails on a wrong
output, every corruption breaks what it claims to, and the probes and
spans attribute what they should.

    python3 -m pytest bench -q
"""

import json
import math
import random

import pytest

import checks
import workloads as W
from harness import import_hypdel, run_cli
from run import K12_ROTATION, Probe
from spans import Tracer

cli = import_hypdel()
import hypdel  # noqa: E402  (after import_hypdel put src/ on the path)


def stored_tri(name="thick-g2-0"):
    spec_path, tri_path = W.stored(name)
    return json.loads(spec_path.read_text()), json.loads(tri_path.read_text())


def synthetic(genus, v):
    """A file with v vertices and the e and f the counting identities
    ask for; its edges and faces need not close up."""
    e, f = 3 * v + 6 * genus - 6, 2 * v + 4 * genus - 4
    pairs = [(a, b) for a in range(v) for b in range(a + 1, v)][:e]
    return {"genus": genus, "vertices": [[0, 0.0, 0.0]] * v,
            "edges": [[a, b, [1.0, 0.0, 0.0, 0.0]] for a, b in pairs],
            "triangles": [[0, 1, 2]] * f}


# -- counts ---------------------------------------------------------------------

def test_counts_pass_on_a_valid_triangulation():
    spec, tri = stored_tri()
    assert checks.counts(tri, spec["genus"]) == []


@pytest.mark.parametrize("kind", list(checks.CORRUPTIONS))
def test_every_corruption_breaks_the_counts(kind):
    for name in ("thick-g2-0", "chain-g5"):
        spec, tri = stored_tri(name)
        for seed in range(20):
            bad = checks.corrupt(tri, kind, random.Random(seed))
            assert checks.counts(bad, spec["genus"]), (name, kind, seed)
        assert checks.counts(tri, spec["genus"]) == []  # copy, not edit


def test_counts_catch_an_edge_that_does_not_close_up():
    # face 0 replaced by a copy of face 1: v, e and f still fit, and every
    # face uses existing edges, but face 0's edges now border one face
    spec, tri = stored_tri()
    tri["triangles"][0] = list(tri["triangles"][1])
    problems = checks.counts(tri, spec["genus"])
    assert problems and all("borders" in p for p in problems)


def test_counts_catch_a_wrong_genus_claim():
    spec, tri = stored_tri()
    assert checks.counts(tri, spec["genus"] + 1)


def test_counts_catch_too_many_and_too_few_vertices():
    assert any("151g" in p for p in checks.counts(synthetic(2, 303), 2))
    assert not any("151g" in p for p in checks.counts(synthetic(2, 302), 2))
    assert any("fewest" in p for p in checks.counts(synthetic(2, 9), 2))
    assert any("fewest" in p for p in checks.counts(synthetic(3, 9), 3))
    assert not any("fewest" in p for p in checks.counts(synthetic(3, 10), 3))


def test_vertex_floor():
    assert [checks.vertex_floor(g) for g in (2, 3, 4, 5, 6)] == \
        [10, 10, 11, 12, 12]


# -- short geodesics --------------------------------------------------------------

def test_short_geodesics():
    spec = W.chain_spec(3, 0.5)
    found = [(l, "thin") for l in spec["lengths"]]
    assert checks.short_geodesics(found, spec) == []
    assert checks.short_geodesics(found[1:], spec)
    assert checks.short_geodesics(found + [(1.2, "thin")], spec)
    assert checks.short_geodesics([(0.5 + 2e-7, "thin")] + found[1:], spec)
    assert checks.short_geodesics([(0.5, "thick")] + found[1:], spec)


# -- K_12 -------------------------------------------------------------------------

@pytest.fixture(scope="module")
def k12(tmp_path_factory):
    out = tmp_path_factory.mktemp("k12") / "k12.json"
    res = run_cli(cli, ["equilateral", str(K12_ROTATION), "--out", str(out)])
    assert res.code == 0
    return json.loads(out.read_text())


def test_k12_passes(k12):
    assert checks.k12(k12) == []


def _compose(m1, m2):
    (a1, b1), (a2, b2) = m1, m2
    return (a1 * a2 + b1 * b2.conjugate(), a1 * b2 + b1 * a2.conjugate())


def _translate_to(p):
    s = 1.0 / math.sqrt(1.0 - abs(p) ** 2)
    return (complex(s), p * s)


def test_k12_catches_a_wrong_edge_length(k12):
    bad = json.loads(json.dumps(k12))
    u, w, (ar, ai, br, bi) = bad["edges"][5]
    a, b = complex(ar, ai), complex(br, bi)
    z = complex(*bad["vertices"][w][1:])
    lift = (a * z + b) / (b.conjugate() * z + a.conjugate())
    d = 2.0 * math.atanh(abs(lift)) + 1e-6  # 1e-6 longer
    target = lift / abs(lift) * math.tanh(0.5 * d)
    to, back = _translate_to(target), _translate_to(z)
    m = _compose(to, (back[0].conjugate(), -back[1]))  # z -> 0 -> target
    bad["edges"][5][2] = [m[0].real, m[0].imag, m[1].real, m[1].imag]
    assert checks.counts(bad, 6) == []
    assert any("length" in p for p in checks.k12(bad))


def test_k12_catches_missing_pieces(k12):
    for kind in ("drop_edge", "drop_triangle"):
        assert checks.k12(checks.corrupt(k12, kind, random.Random(1)))


# -- rejection --------------------------------------------------------------------

def test_rejected():
    assert checks.rejected(1, None, "") == []
    assert checks.rejected(2, None, "error: ...") == []
    assert checks.rejected(0, None, "")
    assert checks.rejected(None, IndexError("x"), "")
    assert checks.rejected(1, None, "Traceback (most recent call last):")


# -- workloads --------------------------------------------------------------------

def test_pants_graph_shapes():
    assert len(W.pants_graphs(2)) == 2
    assert len(W.pants_graphs(3)) == 5


def test_chain_edges_match_the_library():
    for g in (2, 3, 5, 8):
        assert [tuple(e) for e in W.chain_edges(g)] == \
            list(hypdel.surface.linear_graph(g).edges)


def test_inputs_depend_on_the_seed_only():
    assert W.thick_random(7) == W.thick_random(7)
    assert W.thick_random(7) != W.thick_random(8)
    assert sorted(W.short_mixed(1)) == sorted(W.short_mixed(2))
    for _, spec in W.short_mixed(1):
        assert any(0.5 <= l <= 1.4 for l in spec["lengths"])
    for _, spec in W.thick_random(3):
        assert all(1.5 <= l <= 2.5 for l in spec["lengths"])


# -- probes and spans -------------------------------------------------------------

def test_probe_attributes_star_builder_failures(tmp_path):
    probe = Probe(hypdel)
    try:
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps(W.REPRODUCER[1]))
        res = run_cli(cli, ["triangulate", str(spec),
                            "--out", str(tmp_path / "t.json")])
        assert res.code is None and probe.failed_in_star(res)
        probe.reset()
        bad = dict(W.REPRODUCER[1], lengths=[0.8, -1.0, 1.0])
        spec.write_text(json.dumps(bad))
        res = run_cli(cli, ["triangulate", str(spec)])
        assert res.code == 2 and not probe.failed_in_star(res)
    finally:
        probe.uninstall()


def test_spans_nest_and_uninstall(tmp_path):
    spec_path, tri_path = W.stored("thick-g2-0")
    tracer = Tracer()
    original = hypdel.tiling.ball_tiles
    tracer.install()
    try:
        res = run_cli(cli, ["verify", str(spec_path), str(tri_path)])
    finally:
        tracer.uninstall()
    assert res.code == 0
    assert hypdel.tiling.ball_tiles is original
    assert hypdel.verify.complex_from_json is hypdel.delaunay.complex_from_json
    m = tracer.metrics()
    assert m["tiling.ball_tiles.calls"] == (
        m["verify.check_delaunay.developments"]
        + m["verify.check_distance_paths.developments"])
    assert m["tiling.ball_tiles.tiles"] >= m["tiling.ball_tiles.calls"]
    assert 0 < m["cli.self_s"]
    assert m["delaunay.lifted_delaunay.s"] == 0
    roots = [s for s in tracer.spans if s[3] == -1]
    assert [s[0] for s in roots] == ["cli"]
