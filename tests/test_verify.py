import json
import math
import random
from pathlib import Path

import pytest

from conftest import cached_build
from hypdel import surface as S
from hypdel import tiling as T
from hypdel import verify as V
from hypdel.delaunay import LoadedComplex, complex_from_json
from reference import (MUTATION_KINDS, edge_map, mutate,
                       mutation_certificates, mutation_seed, mutation_suite,
                       reference_lift)


def test_jungerman_ringel_values():
    # ceil((7 + sqrt(1 + 48 g)) / 2)
    assert V.jungerman_ringel(0) == 4
    assert V.jungerman_ringel(1) == 7
    assert V.jungerman_ringel(2) == 9   # raw formula; surfaces need 10
    assert V.jungerman_ringel(6) == 12
    for g in range(0, 40):
        n = V.jungerman_ringel(g)
        assert n == math.ceil((7 + math.sqrt(1 + 48 * g)) / 2)


def test_vertex_floor():
    assert [V.vertex_floor(g) for g in (0, 1, 2, 3, 6)] == [4, 7, 10, 10, 12]


def test_certificate_passes_on_construction(g2_build):
    atlas, _, text = g2_build
    cert = V.verify_complex(complex_from_json(atlas, text))
    assert cert.passed
    assert {c.name for c in cert.checks} == \
        {"simplicial", "counts", "delaunay", "distance_paths"}
    # summary has one line per check
    lines = cert.summary().strip().splitlines()
    assert len(lines) == len(cert.checks)


def test_certificate_json(g2_build):
    atlas, _, text = g2_build
    cert = V.verify_complex(complex_from_json(atlas, text))
    d = json.loads(cert.to_json())
    assert d["passed"] is True
    assert len(d["checks"]) == 4


def test_genus2_minimum_ten():
    # a correct complex below 10 vertices at genus 2 must fail counts,
    # even though the raw bound formula evaluates to 9
    class Fake:
        points = list(range(9))
        edges = list(range(3 * 9 + 6))
        triangles = list(range(2 * 9 + 4))
        genus = 2
    res = V.count_audits(Fake)
    assert not res.passed
    assert any("minimum 10" in m for m in res.violations)


def test_simplicial_catches_loop_and_parallel(g2_build):
    atlas, _, text = g2_build
    rng = random.Random(1)
    for kind in ("loop_edge", "parallel_edge", "drop_triangle",
                 "relabel_triangle"):
        bad = mutate(text, kind, rng)
        cert = V.verify_complex(complex_from_json(atlas, bad))
        assert not cert.passed, kind


def test_nudge_vertex_caught_by_geometry(g2_build):
    # seed 4 nudges vertex 15 within its chart, so the file is read and
    # only the geometry can tell (seed 3 moves it out: the reader refuses)
    atlas, _, text = g2_build
    bad = mutate(text, "nudge_vertex", random.Random(4))
    lc = complex_from_json(atlas, bad)
    assert lc.points[15] != complex_from_json(atlas, text).points[15]
    cert = V.verify_complex(lc)
    assert not cert.passed
    geo = [c for c in cert.checks
           if c.name in ("delaunay", "distance_paths")]
    assert any(not c.passed for c in geo)


def test_wrong_genus_caught(g2_build):
    atlas, _, text = g2_build
    bad = mutate(text, "wrong_genus", random.Random(4))
    cert = V.verify_complex(complex_from_json(atlas, bad))
    counts = [c for c in cert.checks if c.name == "counts"][0]
    assert not counts.passed


def test_mutation_suite_all_caught(g2_build):
    atlas, _, text = g2_build
    results = mutation_suite(atlas, text, n=20, seed=20260826)
    assert len(results) == 20
    kinds = [k for k, _ in results]
    assert set(kinds) == set(MUTATION_KINDS)  # two full cycles
    assert all(caught for _, caught in results), results


def test_mutation_certificates_do_not_depend_on_the_ball_pad(
        g2_build, monkeypatch):
    # each check's ball has the radius it reads plus BALL_PAD; balls as
    # wide as the old pads (0.05 and 0.1) read the same certificate,
    # violations included, on every corruption, nudge_vertex and
    # twist_edge_word among them.  A corruption either gets a certificate
    # or is refused by the reader, for a vertex outside its chart
    atlas, _, text = g2_build
    tiles = []
    ball_tiles = T.ball_tiles

    def counted(*args):
        out = ball_tiles(*args)
        tiles[-1] += len(out)
        return out
    monkeypatch.setattr(T, "ball_tiles", counted)
    outcomes = []
    for pad in (V.BALL_PAD, 0.1):
        monkeypatch.setattr(V, "BALL_PAD", pad)
        tiles.append(0)
        outcomes.append(mutation_certificates(atlas, text, n=20,
                                              seed=20260826))
    narrow, wide = outcomes
    assert {"nudge_vertex", "twist_edge_word"} <= {k for k, _ in narrow}
    assert all(not isinstance(c, str)
               or c.startswith("MalformedInput: vertex ") and
               " lies outside its chart " in c for _, c in narrow)
    assert narrow == wide
    assert tiles[0] < tiles[1]


def test_mutation_seed_env(monkeypatch):
    monkeypatch.setenv("HYPDEL_SEED", "12345")
    assert mutation_seed() == 12345
    monkeypatch.delenv("HYPDEL_SEED")
    assert mutation_seed() == 0


def test_distance_tol_monotone(g2_build, monkeypatch):
    # a looser tolerance can only keep a passing check passing
    atlas, _, text = g2_build
    lc = complex_from_json(atlas, text)
    monkeypatch.setattr(V, "DISTANCE_TOL", 1e-6)
    tight = V.check_distance_paths(lc)
    monkeypatch.setattr(V, "DISTANCE_TOL", 1e-3)
    loose = V.check_distance_paths(lc)
    assert tight.passed
    assert loose.passed


INPUTS = Path(__file__).resolve().parent.parent / "bench" / "inputs"


def _bits(z):
    return None if z is None else (z.real.hex(), z.imag.hex())


@pytest.mark.parametrize("tri", sorted(INPUTS.glob("*.tri.json")),
                         ids=lambda p: p.name.split(".")[0])
def test_loaded_lift_matches_verifier_rule(tri):
    # LoadedComplex.lift gives the old verifier rule's bits from both
    # ends of every stored edge, and None where that rule gave None
    spec = tri.with_name(tri.name.replace(".tri.", ".spec."))
    atlas = S.SurfaceAtlas(*S.spec_from_json(spec.read_text()))
    lc = complex_from_json(atlas, tri.read_text())
    emap = edge_map(lc)
    for u, v, _ in lc.edges:
        for i, j in ((u, v), (v, u)):
            assert lc.lift(i, j) is not None
            assert _bits(lc.lift(i, j)) == _bits(reference_lift(lc, i, j,
                                                               emap))
    far = next(j for j in range(1, len(lc.points)) if (0, j) not in emap)
    assert lc.lift(0, far) is None and lc.lift(far, 0) is None
    u, v, m = lc.edges[0]
    twice = LoadedComplex(atlas, lc.genus, lc.points,
                          lc.edges + [(u, v, m)], lc.triangles)
    assert twice.lift(u, v) is None and twice.lift(v, u) is None
