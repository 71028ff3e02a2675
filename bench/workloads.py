"""Benchmark inputs: surface specs made from a seed, and the stored
triangulations of the certify workload."""

from __future__ import annotations

import itertools
import random
from pathlib import Path


def pants_graphs(genus: int) -> list[tuple]:
    """Every trivalent pants graph of the genus up to relabelling, as a
    canonical sorted edge tuple.  Loops and multi-edges are allowed; a loop
    adds 2 to its node's degree."""
    n = 2 * genus - 2
    pairs = [(u, v) for u in range(n) for v in range(u, n)]
    found = set()

    def extend(start, deg, edges):
        if len(edges) == 3 * genus - 3:
            if all(d == 3 for d in deg) and _connected(n, edges):
                found.add(_canonical(n, edges))
            return
        for k in range(start, len(pairs)):
            u, v = pairs[k]
            need = 2 if u == v else 1
            if deg[u] + need > 3 or deg[v] + (0 if u == v else 1) > 3:
                continue
            deg[u] += 1
            deg[v] += 1
            extend(k, deg, edges + [(u, v)])
            deg[u] -= 1
            deg[v] -= 1

    extend(0, [0] * n, [])
    return sorted(found)


def _connected(n, edges):
    seen, stack = {0}, [0]
    while stack:
        x = stack.pop()
        for u, v in edges:
            for a, b in ((u, v), (v, u)):
                if a == x and b not in seen:
                    seen.add(b)
                    stack.append(b)
    return len(seen) == n


def _canonical(n, edges):
    best = None
    for perm in itertools.permutations(range(n)):
        key = tuple(sorted(tuple(sorted((perm[u], perm[v])))
                           for u, v in edges))
        if best is None or key < best:
            best = key
    return best


def spec(genus: int, edges, lengths, twists) -> dict:
    """A surface spec in the format `hypdel` reads."""
    return {"genus": genus, "graph": [list(e) for e in edges],
            "lengths": list(lengths), "twists": list(twists)}


def chain_edges(genus: int) -> list[tuple]:
    """Edges of the linear chain in the order `surface.linear_graph` of
    the acceptance suite lists them, so cuff i of a spec is cuff i there.
    Written out here so that the inputs stay the same when the program
    changes."""
    edges = [(0, 0)]
    for i in range(1, 2 * genus - 2):
        edges.append((i - 1, i))
        if i % 2 == 0:
            edges.append((i - 1, i))
    edges.append((2 * genus - 3, 2 * genus - 3))
    return edges


def chain_spec(genus: int, first_cuff: float = 1.0) -> dict:
    n = 3 * genus - 3
    return spec(genus, chain_edges(genus), [first_cuff] + [1.0] * (n - 1),
                [0.0] * n)


def random_spec(rng: random.Random, genus: int, edges, lo: float, hi: float,
                short: tuple | None = None) -> dict:
    """Cuffs uniform in [lo, hi] and twists uniform in [-l/2, l/2].  With
    `short` = (a, b), a surface with no cuff in [a, b] gets one random cuff
    redrawn from it."""
    n = len(edges)
    lengths = [rng.uniform(lo, hi) for _ in range(n)]
    if short is not None and not any(short[0] <= l <= short[1]
                                      for l in lengths):
        lengths[rng.randrange(n)] = rng.uniform(*short)
    twists = [rng.uniform(-0.5 * l, 0.5 * l) for l in lengths]
    return spec(genus, edges, lengths, twists)


def shapes() -> list[tuple[int, tuple]]:
    """(genus, edges) for every pants-graph shape of genus 2 and 3."""
    return [(g, e) for g in (2, 3) for e in pants_graphs(g)]


def thick_random(seed: int) -> list[tuple[str, dict]]:
    """One surface per shape, cuffs in [1.5, 2.5]: no thin cuff."""
    rng = random.Random(f"thick-random/{seed}")
    return [(f"thick-g{g}-{k}", random_spec(rng, g, e, 1.5, 2.5))
            for k, (g, e) in enumerate(shapes())]


# Chains in the acceptance suite's cuff patterns, one pattern per genus
# and genus 2 to 4, so that a round stays near twenty seconds.
THIN_CHAIN = [(2, 0.5), (3, 1.0), (4, 1.0)]


def thin_chain(seed: int) -> list[tuple[str, dict]]:
    items = [(f"chain-g{g}-{c}", chain_spec(g, c)) for g, c in THIN_CHAIN]
    random.Random(f"thin-chain/{seed}").shuffle(items)
    return items


# The star-builder fault makes success depend on the exact surface, so
# these surfaces are drawn once, independently of --seed: every run then
# fails on the same surfaces, and the failed share is the same in every
# run.  The seed only orders them.
SHORT_MIXED_DRAW = 0
REPRODUCER = ("chain-g2-reproducer",
              spec(2, chain_edges(2), [0.8, 1.2, 1.0], [0.0, 0.0, 0.0]))


def short_mixed(seed: int) -> list[tuple[str, dict]]:
    rng = random.Random(f"short-mixed/{SHORT_MIXED_DRAW}")
    items = [(f"short-g{g}-{k}",
              random_spec(rng, g, e, 0.5, 2.5, short=(0.5, 1.4)))
             for k, (g, e) in enumerate(shapes())]
    items.append(REPRODUCER)
    random.Random(f"short-mixed/{seed}").shuffle(items)
    return items


INPUTS = Path(__file__).resolve().parent / "inputs"
CERTIFY_CHAINS = (5, 8, 10)


CERTIFY_THICK = ("thick-g2-0", "thick-g3-2")  # one of each genus


def certify_specs() -> list[tuple[str, dict]]:
    """The specs behind the certify workload's stored triangulations:
    the chains of the acceptance suite's linear-bound audits and two
    thick-random surfaces of seed 0."""
    return ([(f"chain-g{g}", chain_spec(g)) for g in CERTIFY_CHAINS]
            + [item for item in thick_random(0) if item[0] in CERTIFY_THICK])


def stored(name: str) -> tuple[Path, Path]:
    """(spec file, triangulation file) of a stored certify input."""
    return INPUTS / f"{name}.spec.json", INPUTS / f"{name}.tri.json"
