import time

import pytest

from hypdel import delaunay as D
from hypdel import surface as S


def linear_atlas(g, lengths=None, twists=None):
    pg = S.linear_graph(g)
    n = len(pg.edges)
    if lengths is None:
        lengths = (1.0,) * n
    if twists is None:
        twists = (0.0,) * n
    return S.SurfaceAtlas(pg, S.FNCoordinates(tuple(lengths), tuple(twists)))


def thin_lengths(g):
    """All cuffs 1.0 except the first, which is 0.5 (one thin-thin cuff)."""
    n = 3 * g - 3
    return (0.5,) + (1.0,) * (n - 1)


_CACHE = {}
_BUILD_SECONDS = {}


def cached_build(g, thin=False):
    """Atlas + thick-thin triangulation for the symmetric linear surface,
    shared across test modules (construction is the expensive part).

    The wall time of the first construction is kept for build_seconds."""
    key = (g, thin)
    if key not in _CACHE:
        t0 = time.monotonic()
        atlas = linear_atlas(g, thin_lengths(g) if thin else None)
        res = D.thick_thin_triangulation(atlas)
        text = D.complex_to_json(res.complex)
        _BUILD_SECONDS[key] = time.monotonic() - t0
        _CACHE[key] = (atlas, res, text)
    return _CACHE[key]


def cylinders(res):
    """The cylinders of a thick-thin result, one per standard build."""
    return [st.cylinder for st, _ in res.standard]


def cylinder_vertex_count(res):
    """How many of the result's vertices, the first ones, are cylinder
    vertices; the rest are net vertices."""
    return sum(len(st.vertices) for st, _ in res.standard)


def build_seconds(g, thin=False):
    """Wall time the first cached_build(g, thin) took to construct.

    A timed test fetches its builds first, then starts its clock this much
    in the past, so its budget covers construction plus check whether or
    not an earlier test warmed the cache."""
    return _BUILD_SECONDS[(g, thin)]


@pytest.fixture(scope="session")
def g2_build():
    return cached_build(2)


@pytest.fixture(scope="session")
def g2_thin_build():
    return cached_build(2, thin=True)
