"""Linear lower bound machinery on the chain surfaces S_g(a, b).

Certified pants-geometry constants (m, M, N), the constructive cluster
decomposition of the pants chain, and the edge-counting audits that yield
v >= (g-1) / (6 + 39 N (N+1)) for any distance Delaunay triangulation.
The audits operate on the interchange representation so they can be run
against files produced by other tools.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import geometry as G
from . import tiling as T
from .delaunay import LoadedComplex
from .equilateral import face_walk
from .errors import (DecompositionFailure, EmbeddingError, InvalidInterval)
from .surface import SurfaceAtlas, _hexagon_sides, _march_hexagon
from .verify import CheckResult


@dataclass
class PantsConstants:
    m: float   # lower bound on the distance between distinct cuffs
    M: float   # upper bound on the diameter of any pants in the family
    N: int

    def denominator(self) -> int:
        return 6 + 39 * self.N * (self.N + 1)


def pants_constants(a: float, b: float) -> PantsConstants:
    """Certified constants for pairs of pants with all cuffs in [a, b].

    m is the least seam orthogeodesic, hexagon_orthogeodesic(b, b, a):
    acosh((c3 + c1 c2)/(s1 s2)), ci = cosh(li/2), si = sinh(li/2), grows
    with l3 and falls with l1 and l2 (the l1-derivative of the ratio is
    -s2 (c2 + c1 c3)/(2 (s1 s2)^2)).  M doubles the worst hexagon vertex
    diameter at the extremal corner (b,b,b) and adds a half-cuff.
    """
    if a <= 0 or b < a:
        raise InvalidInterval(f"bad cuff interval [{a}, {b}]")
    m = G.hexagon_orthogeodesic(b, b, a)
    verts = _march_hexagon(_hexagon_sides(0.5 * b, 0.5 * b, 0.5 * b))
    diam = max(G.dist(p, q) for i, p in enumerate(verts)
               for q in verts[i + 1:])
    M = 2.0 * diam + 0.5 * b
    N = math.ceil(M / m) + 1
    return PantsConstants(m, M, N)


def locate_vertices_in_pants(atlas: SurfaceAtlas, lc: LoadedComplex) -> list:
    """Per-pants vertex tallies; a vertex lying on a seam or waist shared
    by several pants is charged to the lowest pants index."""
    n_pants = 2 * atlas.genus - 2
    tallies = [0] * n_pants
    assignment = []
    for p in lc.points:
        tiles = T.ball_tiles(atlas.cc, p, 1e-9)
        pants = min(t.chart // 2 for t in tiles)
        assignment.append(pants)
        tallies[pants] += 1
    return tallies, assignment


@dataclass
class ClusterDecomposition:
    n_pants: int
    N: int
    tallies: list
    clusters: list  # (start, end) inclusive pants ranges

    def cluster_of_pants(self) -> list:
        """pants index -> cluster index, or -1 inside a wide gap."""
        out = [-1] * self.n_pants
        for ci, (s, e) in enumerate(self.clusters):
            for p in range(s, e + 1):
                out[p] = ci
        return out


def cluster_decomposition(tallies: list, N: int) -> ClusterDecomposition:
    """The constructive decomposition of the pants chain: wide gaps (runs
    of at least N empty pants) are discarded; each remaining supercluster
    of length L <= 3N becomes one cluster, and a longer one with
    L = 3kN + r (0 <= r < 3N) is split into k-1 pieces of length 3N plus
    a final piece of length 3N + r."""
    if N < 2:
        raise DecompositionFailure(f"N = {N} < 2")
    n = len(tallies)
    wide_gaps, pos = [], 0
    for empty, run in itertools.groupby(t == 0 for t in tallies):
        k = len(list(run))
        if empty and k >= N:
            wide_gaps.append((pos, pos + k - 1))
        pos += k
    superclusters, pos = [], 0  # the stretches between the wide gaps
    for s, e in wide_gaps + [(n, n)]:
        if pos < s:
            superclusters.append((pos, s - 1))
        pos = e + 1
    clusters = []
    for s, e in superclusters:
        length = e - s + 1
        if length <= 3 * N:
            clusters.append((s, e))
            continue
        k, r = divmod(length, 3 * N)
        pos = s
        for _ in range(k - 1):
            clusters.append((pos, pos + 3 * N - 1))
            pos += 3 * N
        clusters.append((pos, e))  # length 3N + r
    decomp = ClusterDecomposition(n, N, list(tallies), clusters)
    _assert_properties(decomp)
    return decomp


def chain_clusters(atlas, lc: LoadedComplex, N: int):
    """The cluster decomposition of the pants chain by the pants of lc's
    vertices, each located once, and the cluster index of each vertex."""
    tallies, assignment = locate_vertices_in_pants(atlas, lc)
    decomp = cluster_decomposition(tallies, N)
    cmap = decomp.cluster_of_pants()
    return decomp, [cmap[p] for p in assignment]


def _assert_properties(d: ClusterDecomposition):
    # Property 1: each cluster spans at most 6N consecutive pants
    for s, e in d.clusters:
        if e - s + 1 > 6 * d.N:
            raise DecompositionFailure(
                f"cluster ({s},{e}) longer than 6N", witness=(s, e))
    # interior-disjoint and ordered
    for (s1, e1), (s2, e2) in zip(d.clusters, d.clusters[1:]):
        if s2 <= e1:
            raise DecompositionFailure("overlapping clusters",
                                       witness=((s1, e1), (s2, e2)))
    # Property 2: every cluster holds a vertex; every vertex is covered
    for s, e in d.clusters:
        if sum(d.tallies[s:e + 1]) == 0:
            raise DecompositionFailure(f"empty cluster ({s},{e})",
                                       witness=(s, e))
    covered = [False] * d.n_pants
    for s, e in d.clusters:
        for p in range(s, e + 1):
            covered[p] = True
    for p, t in enumerate(d.tallies):
        if t > 0 and not covered[p]:
            raise DecompositionFailure(f"vertex in pants {p} uncovered",
                                       witness=p)


# ---------------------------------------------------------------------------
# edge-count audits
# ---------------------------------------------------------------------------

def _cluster_tallies(n, cl_of, lc):
    """Vertices per cluster, edges within each cluster and edges between
    consecutive clusters (cl_of: vertex -> cluster index).  Raises unless
    Property 3 holds: both endpoints of every edge lie in the same or in
    consecutive clusters."""
    v = [0] * n
    for c in cl_of:
        v[c] += 1
    e_in = [0] * n
    e_between = [0] * max(n - 1, 0)
    for u, w, _ in lc.edges:
        cu, cw = cl_of[u], cl_of[w]
        if cu < 0 or cw < 0 or abs(cu - cw) > 1:
            raise DecompositionFailure(
                f"edge ({u},{w}) spans clusters {cu},{cw}",
                witness=(u, w, cu, cw))
        if cu == cw:
            e_in[cu] += 1
        else:
            e_between[min(cu, cw)] += 1
    return v, e_in, e_between


def edge_bound_audit(lc: LoadedComplex, pc: PantsConstants,
                     decomp: ClusterDecomposition, cl_of: list) -> list:
    """Audits for the counting argument over chain_clusters' decomposition:
    the edge partition identity, the per-cluster and cross-cluster upper
    bounds, and the resulting linear lower bound on the vertex count."""
    N = pc.N
    n_cl = len(decomp.clusters)
    v_cl, e_in, e_between = _cluster_tallies(n_cl, cl_of, lc)
    v, e, g = len(lc.points), len(lc.edges), lc.genus
    out = []

    res = CheckResult("cluster_partition", True)
    if n_cl > v:
        res.fail(f"{n_cl} clusters exceed {v} vertices")
    if sum(v_cl) != v:
        res.fail(f"cluster tallies sum to {sum(v_cl)} != {v}")
    if sum(e_in) + sum(e_between) != e:
        res.fail("edge partition does not cover the edge set")
    out.append(res)

    res = CheckResult("edge_upper_bounds", True)
    cap_in = 18 * N * (N + 1)
    cap_btw = 216 * N * (N + 1)
    res.notes.append(
        f"caps: within 3v_i + {cap_in}, between 18 v_pair + {cap_btw}")
    for i in range(n_cl):
        bound = 3 * v_cl[i] + cap_in
        if e_in[i] > bound:
            res.fail(f"e(G{i},G{i}) = {e_in[i]} > {bound}")
    for i in range(n_cl - 1):
        bound = 18 * (v_cl[i] + v_cl[i + 1]) + cap_btw
        if e_between[i] > bound:
            res.fail(f"e(G{i},G{i+1}) = {e_between[i]} > {bound}")
    out.append(res)

    res = CheckResult("euler_edges", True)
    if e != 3 * v + 6 * g - 6:
        res.fail(f"e = {e} != 3v+6g-6")
    out.append(res)

    res = CheckResult("linear_lower_bound", True)
    need = (g - 1) / pc.denominator()
    res.notes.append(
        f"v = {v} vs (g-1)/{pc.denominator()} = {need:.4f} "
        f"(slack {v - need:.4f})")
    if v < need:
        res.fail(f"v = {v} below linear bound {need:.4f}")
    out.append(res)
    return out


# ---------------------------------------------------------------------------
# embedded-subgraph audits (rotation systems traced from the surface)
# ---------------------------------------------------------------------------

def _induced_rotation(lc, vertex_set, edge_list):
    """Rotation system of the subgraph induced by the surface embedding:
    incident edges sorted by direction angle around each vertex."""
    rot = {u: [] for u in vertex_set}
    for u, v, _ in edge_list:
        if u == v:
            raise EmbeddingError(f"edge ({u},{v}) is a loop")
        for (x, y) in ((u, v), (v, u)):
            z = lc.lift(x, y)
            if z is None:
                raise EmbeddingError(f"edge ({x},{y}) not liftable")
            rot[x].append((math.atan2(z.imag, z.real), y))
    return {u: [y for _, y in sorted(r)] for u, r in rot.items()}


def _components(rot):
    seen = set()
    comps = 0
    for s in rot:
        if s in seen or not rot[s]:
            continue
        comps += 1
        stack = [s]
        while stack:
            x = stack.pop()
            if x in seen:
                continue
            seen.add(x)
            stack.extend(rot[x])
    isolated = sum(1 for u in rot if not rot[u])
    return comps + isolated


def appendixB_audit(lc: LoadedComplex, decomp: ClusterDecomposition,
                    cl_of: list) -> list:
    """Per consecutive cluster pair of chain_clusters' decomposition:
    edge/triangle incidence counts (delta_0/1/2) with 3f >= 2 delta_2 +
    delta_1 against traced faces, triangle-freeness of the bipartite cross
    graph, the Euler identity with the embedded genus, and the
    conservative within-cluster edge bound e <= 6 g' + 3 v - 6."""
    N = decomp.N
    n_cl = len(decomp.clusters)
    tri_sets = [frozenset(t) for t in lc.triangles]
    for t in lc.triangles:
        if len(set(t)) != 3:
            raise EmbeddingError(f"triangle {t} repeats a vertex")
    out = []

    for i in range(n_cl):
        pair = {i, i + 1} if i + 1 < n_cl else {i}
        verts = {u for u in range(len(lc.points)) if cl_of[u] in pair}
        sub_edges = [eu for eu in lc.edges
                     if eu[0] in verts and eu[1] in verts]
        sub_pairs = {frozenset((u, v)) for u, v, _ in sub_edges}
        # delta_k: edges of the subgraph lying in k of its triangles
        count = dict.fromkeys(sub_pairs, 0)
        for t in tri_sets:
            sides = [frozenset(p) for p in itertools.combinations(t, 2)]
            if t <= verts and all(s in sub_pairs for s in sides):
                for s in sides:
                    count[s] += 1
        d0, d1, d2 = (sum(1 for c in count.values() if c == k)
                      for k in range(3))

        res = CheckResult(f"appB_pair_{i}", True)
        rot = _induced_rotation(lc, verts, sub_edges)
        f_sub, e_sub = len(face_walk(rot)), len(sub_pairs)
        if 3 * f_sub < 2 * d2 + d1:
            res.fail(f"3f = {3*f_sub} < 2d2+d1 = {2*d2 + d1}")
        # Euler with embedded genus: v - e + f = 2c - 2g'
        c = _components(rot)
        euler = len(verts) - e_sub + f_sub
        if (2 * c - euler) % 2 != 0:
            res.fail(f"non-integral embedded genus (euler {euler}, c={c})")
        g_emb = (2 * c - euler) // 2
        if g_emb < 0:
            res.fail(f"negative embedded genus {g_emb}")
        res.notes.append(
            f"d0={d0} d1={d1} d2={d2} f={f_sub} g'={g_emb}")

        if len(pair) == 2:
            cross = [(u, v) for u, v, _ in sub_edges
                     if cl_of[u] != cl_of[v]]
            adj = {}
            for u, v in cross:
                adj.setdefault(u, set()).add(v)
                adj.setdefault(v, set()).add(u)
            if any(adj[u] & adj[v] for u in adj for v in adj[u]):
                res.fail("bipartite cross graph contains a triangle")
            # the connectivity claim only applies with a long separation
            res.notes.append(
                "cross-graph connectivity: not applicable "
                f"(clusters adjacent, need > {6*N*N + 2} pants between)")
        else:
            # single-cluster audit: conservative in-cluster edge bound
            v_i = len(verts)
            bound = 6 * g_emb + 3 * v_i - 6
            if len(sub_pairs) > bound:
                res.fail(f"e = {len(sub_pairs)} > 6g'+3v-6 = {bound} "
                         "(sufficient check, not tight)")
        out.append(res)
    return out
