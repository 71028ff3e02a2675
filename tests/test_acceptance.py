"""End-to-end acceptance suite.

One test per criterion; each prints a single PASS line with the measured
quantities and asserts its runtime budget.
"""

import math
import random
import time

import pytest

from conftest import build_seconds, cached_build, linear_atlas
from hypdel import delaunay as D
from hypdel import equilateral as E
from hypdel import geometry as G
from hypdel import linearbound as LB
from hypdel import thickthin as TT
from hypdel import verify as V
from hypdel.delaunay import complex_from_json
from hypdel.errors import NotHyperbolizable
from reference import (brute_force_delaunay_keys, chain_pattern_example,
                       gaps_and_superclusters, mutation_suite)
from test_delaunay import sample_points
from test_equilateral import k7_rotation


def test_criterion_1_collar_margin():
    t0 = time.monotonic()
    rep = TT.collar_margin_audit(0.72)
    assert rep.passed
    inf = rep.values["infimum"]
    assert inf == pytest.approx(0.24, abs=1e-2)
    assert inf > 0.72 / 3.0
    rep_fail = TT.collar_margin_audit(0.73)
    assert not rep_fail.passed
    dt = time.monotonic() - t0
    assert dt < 1.0
    print(f"criterion 1: PASS (infimum {inf:.4f} ~ 0.24, eps=0.73 "
          f"fails as required, {dt:.2f}s)")


def test_criterion_2_appendix_a_extremes():
    t0 = time.monotonic()
    rep = TT.appendixA_audit()
    assert rep.passed
    assert rep.values["combo_at_2epsp"] == pytest.approx(-0.180, abs=1e-3)
    assert rep.values["d3_infimum"] == pytest.approx(0.247, abs=1e-3)
    assert rep.values["sum_min"] > 0.0
    dt = time.monotonic() - t0
    assert dt < 1.0
    print(f"criterion 2: PASS (combo {rep.values['combo_at_2epsp']:.4f},"
          f" d3 {rep.values['d3_infimum']:.4f}, sum_min "
          f"{rep.values['sum_min']:.4f}, {dt:.2f}s)")


def test_criterion_3_thin_constants():
    t0 = time.monotonic()
    rep = TT.thin_constants_audit()
    assert rep.passed
    assert rep.values["max_cosh_KC"] <= 1.02
    assert rep.values["min_cosh_d"] >= 1.03
    dt = time.monotonic() - t0
    assert dt < 1.0
    print(f"criterion 3: PASS (cosh K_C <= "
          f"{rep.values['max_cosh_KC']:.5f} <= 1.02, cosh d >= "
          f"{rep.values['min_cosh_d']:.5f} >= 1.03, margins "
          f"{rep.values['margin_KC']:.5f}/{rep.values['margin_d']:.5f}, "
          f"{dt:.2f}s)")


@pytest.mark.parametrize("g,thin", [(2, False), (2, True), (3, False),
                                    (3, True), (5, False), (5, True)])
def test_criterion_4_end_to_end(g, thin):
    atlas, res, text = cached_build(g, thin)
    t0 = time.monotonic() - build_seconds(g, thin)
    cert = V.verify_json(atlas, text, delaunay_tol=1e-9)
    assert cert.passed, cert.summary()
    v = res.complex.n_vertices
    assert v <= 151 * g
    # standard triangles of every thin cylinder appear verbatim
    triples = res.complex.label_triples()
    n_std = 0
    for st, idx in res.standard:
        if st.cylinder.kind != "thin":
            continue
        for tri in st.triangles:
            assert frozenset(idx[n] for n in tri) in triples
            n_std += 1
        assert len(st.triangles) == 12
    dt = time.monotonic() - t0
    assert dt < 60.0
    print(f"criterion 4 (g={g}, {'one cuff 0.5' if thin else 'cuffs 1.0'}"
          f"): PASS (v={v} <= {151 * g}, {n_std} standard triangles "
          f"verbatim, {dt:.1f}s)")


def test_criterion_5_brute_force_equivalence():
    t0 = time.monotonic()
    atlas = linear_atlas(2)
    rng = random.Random(20260826)
    matches = 0
    for trial in range(10):
        pts = sample_points(atlas, rng, rng.randrange(10, 13))
        tc = D.lifted_delaunay(atlas, pts)
        mine = {D._triangle_key(t.labels, t.lifts) for t in tc.triangles}
        oracle = brute_force_delaunay_keys(atlas, pts, radius=4.5)
        assert mine == oracle, f"trial {trial}: mismatch"
        matches += 1
    dt = time.monotonic() - t0
    assert dt < 120.0
    print(f"criterion 5: PASS ({matches}/10 point sets match the "
          f"empty-circumdisk oracle exactly, {dt:.1f}s)")


def test_criterion_6_linear_bound_audits():
    builds = {g: cached_build(g) for g in (5, 8, 10)}
    t0 = time.monotonic() - sum(build_seconds(g) for g in builds)
    pc = LB.pants_constants(1.0, 1.0)
    slacks = {}
    for g, (atlas, _, text) in builds.items():
        lc = complex_from_json(atlas, text)
        decomp, cl_of = LB.chain_clusters(atlas, lc, pc.N)
        reports = LB.edge_bound_audit(lc, pc, decomp, cl_of)
        reports += LB.appendixB_audit(lc, decomp, cl_of)
        assert all(r.passed for r in reports), \
            [(r.name, r.violations) for r in reports if not r.passed]
        need = (lc.genus - 1) / pc.denominator()
        assert len(lc.points) >= need
        slacks[g] = len(lc.points) - need
    # the worked 32-pants chain reproduces its expected decomposition
    tallies, N, expected = chain_pattern_example()
    d = LB.cluster_decomposition(tallies, N)
    assert d.clusters == expected["clusters"]
    assert gaps_and_superclusters(d) == (expected["wide_gaps"],
                                         expected["superclusters"])
    dt = time.monotonic() - t0
    assert dt < 300.0
    print(f"criterion 6: PASS (N={pc.N}, lower-bound slack "
          + ", ".join(f"g={g}: {s:.3f}" for g, s in slacks.items())
          + f"; worked chain example reproduced, {dt:.1f}s)")


def test_criterion_7_equilateral_attainment():
    t0 = time.monotonic()
    surf = E.hyperbolize(E.check_hyperbolizable(E.load_k12_rotation()))
    cert = E.certify_equilateral(
        surf, complex_from_json(surf, E.export_json(surf)))
    assert cert.passed, cert.summary()
    assert surf.n == 12
    assert surf.n == math.ceil((7 + math.sqrt(289)) / 2)
    # Gauss-Bonnet from the realized charts, independent of the formula
    total = 0.0
    for ch in surf.cc.charts:
        total += math.pi - sum(E._corner_angle(ch, k) for k in range(3))
    assert total == pytest.approx(20.0 * math.pi, abs=1e-8)
    with pytest.raises(NotHyperbolizable, match="not hyperbolic"):
        E.hyperbolize(E.check_hyperbolizable(k7_rotation()))
    dt = time.monotonic() - t0
    assert dt < 30.0
    print(f"criterion 7: PASS (K_12 certified, v=12, area "
          f"{total / math.pi:.10f} pi, K_7 rejected, {dt:.1f}s)")


def test_criterion_8_mutation_soundness():
    atlas, _, text = cached_build(2)
    t0 = time.monotonic() - build_seconds(2)
    results = mutation_suite(atlas, text, n=20)
    assert len(results) == 20
    missed = [k for k, caught in results if not caught]
    assert not missed, f"silent passes: {missed}"
    dt = time.monotonic() - t0
    assert dt < 120.0
    print(f"criterion 8: PASS (20/20 corruptions caught, {dt:.1f}s)")
