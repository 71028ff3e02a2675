import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cached_build
from hypdel import geometry as G
from hypdel import linearbound as LB
from hypdel.delaunay import complex_from_json
from hypdel.errors import DecompositionFailure, InvalidInterval
from reference import (chain_pattern_example, gaps_and_superclusters,
                       wide_gaps)


@pytest.fixture(scope="session")
def g5_loaded():
    atlas, _, text = cached_build(5)
    return atlas, complex_from_json(atlas, text)


def test_pants_constants_symmetric_value():
    # at a = b = 2 arcsinh 1 every hexagon is right-angled regular and the
    # seam orthogeodesic is arccosh(2 + sqrt(2))
    a = 2.0 * math.asinh(1.0)
    pc = LB.pants_constants(a, a)
    assert pc.m == pytest.approx(math.acosh(2.0 + math.sqrt(2.0)),
                                 abs=1e-9)
    assert pc.M > pc.m
    assert pc.N == math.ceil(pc.M / pc.m) + 1
    assert pc.N >= 2
    assert pc.denominator() == 6 + 39 * pc.N * (pc.N + 1)


def test_pants_constants_monotone_in_interval():
    # widening the cuff interval can only shrink the seam minimum m
    pc1 = LB.pants_constants(1.0, 1.0)
    pc2 = LB.pants_constants(0.5, 2.0)
    assert pc2.m <= pc1.m + 1e-12
    for pc in (pc1, pc2):
        assert pc.M > 0 and pc.N == math.ceil(pc.M / pc.m) + 1


def test_invalid_interval():
    with pytest.raises(InvalidInterval):
        LB.pants_constants(0.0, 1.0)
    with pytest.raises(InvalidInterval):
        LB.pants_constants(2.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.05, max_value=5.0),
       st.floats(min_value=0.0, max_value=5.0))
def test_pants_constants_m_is_the_grid_minimum(a, width):
    # no point of a grid over [a, b]^3, corners included, has a shorter
    # seam orthogeodesic than m, which is the value at the corner (b, b, a)
    b = a + width
    grid = [a] + [a + width * k / 7 for k in range(1, 7)] + [b]
    want = min(G.hexagon_orthogeodesic(x, y, z)
               for x in grid for y in grid for z in grid)
    m = LB.pants_constants(a, b).m
    assert want <= m <= want * (1 + 1e-12)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1,
                max_size=64),
       st.integers(min_value=2, max_value=4))
def test_decomposition_properties(tallies, N):
    if not any(tallies):
        return  # nothing to cover; no clusters required
    d = LB.cluster_decomposition(tallies, N)
    # _assert_properties already ran; re-check the key invariants here
    cmap = d.cluster_of_pants()
    for p, t in enumerate(tallies):
        if t > 0:
            assert cmap[p] >= 0
    for s, e in d.clusters:
        assert 1 <= e - s + 1 <= 6 * N
        assert sum(tallies[s:e + 1]) > 0
    gaps, _ = gaps_and_superclusters(d)
    for s, e in gaps:
        assert e - s + 1 >= N
        assert all(t == 0 for t in tallies[s:e + 1])
    assert gaps == wide_gaps(tallies, N)


def test_single_supercluster():
    d = LB.cluster_decomposition([1, 0, 1, 1, 0, 1], 2)
    assert gaps_and_superclusters(d) == ([], [(0, 5)])
    assert d.clusters == [(0, 5)]


def test_all_nonempty_piece_sizes():
    # with no empties and N = 2 the splitter produces pieces of 3N = 6
    # and a final piece of length in [6, 11]
    d = LB.cluster_decomposition([1] * 40, 2)
    sizes = [e - s + 1 for s, e in d.clusters]
    assert all(sz == 6 for sz in sizes[:-1])
    assert 6 <= sizes[-1] <= 11


def test_n_below_two_rejected():
    with pytest.raises(DecompositionFailure):
        LB.cluster_decomposition([1, 1, 1], 1)


def test_chain_pattern_example():
    tallies, N, expected = chain_pattern_example()
    assert len(tallies) == 32
    d = LB.cluster_decomposition(tallies, N)
    assert wide_gaps(tallies, N) == expected["wide_gaps"]
    assert gaps_and_superclusters(d) == (expected["wide_gaps"],
                                         expected["superclusters"])
    assert d.clusters == expected["clusters"]


def test_locate_vertices_partition(g5_loaded):
    atlas, lc = g5_loaded
    tallies, assignment = LB.locate_vertices_in_pants(atlas, lc)
    assert len(tallies) == 2 * atlas.genus - 2
    assert sum(tallies) == len(lc.points)
    assert len(assignment) == len(lc.points)
    assert all(0 <= p < len(tallies) for p in assignment)


def test_edge_bound_audit_passes(g5_loaded):
    atlas, lc = g5_loaded
    pc = LB.pants_constants(1.0, 1.0)
    decomp, cl_of = LB.chain_clusters(atlas, lc, pc.N)
    reports = LB.edge_bound_audit(lc, pc, decomp, cl_of)
    names = [r.name for r in reports]
    assert names == ["cluster_partition", "edge_upper_bounds",
                     "euler_edges", "linear_lower_bound"]
    assert all(r.passed for r in reports), \
        [(r.name, r.violations) for r in reports if not r.passed]
    # the bound itself: v >= (g-1)/(6 + 39 N (N+1))
    assert len(lc.points) >= (lc.genus - 1) / pc.denominator()


def test_appendixB_audit_passes(g5_loaded):
    atlas, lc = g5_loaded
    pc = LB.pants_constants(1.0, 1.0)
    decomp, cl_of = LB.chain_clusters(atlas, lc, pc.N)
    reports = LB.appendixB_audit(lc, decomp, cl_of)
    assert reports
    assert all(r.passed for r in reports), \
        [(r.name, r.violations) for r in reports if not r.passed]
