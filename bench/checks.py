"""Output checks.  Each compares an output of `hypdel` with values
computed here, apart from the program, or with properties the method
must have; none compares with a stored copy of an output.  Each returns
a list of problems, empty when the output passes."""

from __future__ import annotations

import math
import random


def vertex_floor(genus: int) -> int:
    """Fewest vertices of any triangulation of the closed orientable
    surface of the genus: the Jungerman-Ringel bound, and 10 for genus 2,
    where the bound 9 is not attained."""
    if genus == 2:
        return 10
    return math.ceil((7.0 + math.sqrt(1.0 + 48.0 * genus)) / 2.0)


def counts(tri: dict, genus: int) -> list[str]:
    """Counting identities, simpliciality and edge closure of a
    triangulation file, from the file alone."""
    bad = []
    v, e, f = len(tri["vertices"]), len(tri["edges"]), len(tri["triangles"])
    if tri["genus"] != genus:
        bad.append(f"genus {tri['genus']} != {genus}")
    if v - e + f != 2 - 2 * genus:
        bad.append(f"v - e + f = {v - e + f} != {2 - 2 * genus}")
    if e != 3 * v + 6 * genus - 6:
        bad.append(f"e = {e} != 3v + 6g - 6 = {3 * v + 6 * genus - 6}")
    if f != 2 * v + 4 * genus - 4:
        bad.append(f"f = {f} != 2v + 4g - 4 = {2 * v + 4 * genus - 4}")
    if v > 151 * genus:
        bad.append(f"v = {v} > 151g = {151 * genus}")
    if v < vertex_floor(genus):
        bad.append(f"v = {v} < {vertex_floor(genus)}, the fewest possible")
    pairs = set()
    for u, w, _ in tri["edges"]:
        if u == w:
            bad.append(f"loop at {u}")
        key = (min(u, w), max(u, w))
        if key in pairs:
            bad.append(f"parallel edges {key}")
        pairs.add(key)
    use = dict.fromkeys(pairs, 0)
    for t in tri["triangles"]:
        if len(set(t)) != 3:
            bad.append(f"triangle {t} repeats a vertex")
            continue
        for r in range(3):
            key = (min(t[r], t[r - 1]), max(t[r], t[r - 1]))
            if key not in use:
                bad.append(f"triangle {t} uses a missing edge {key}")
                use[key] = 0
            use[key] += 1
    bad += [f"edge {k} borders {n} triangles" for k, n in use.items()
            if n != 2]
    return bad


def short_geodesics(found: list[tuple[float, str]], spec: dict) -> list[str]:
    """The (length, kind) of every short geodesic the program found on a
    chain whose cuffs are all shorter than 2 arcsinh 1.  Such geodesics
    are simple and pairwise disjoint (Buser, ch. 4), so they are exactly
    the 3g - 3 cuffs, and every cuff here is thin."""
    want = sorted(spec["lengths"])
    got = sorted(length for length, _ in found)
    if len(got) != len(want):
        return [f"{len(got)} short geodesics, expected {len(want)} cuffs"]
    bad = [f"short geodesic {a} != cuff {b}"
           for a, b in zip(got, want) if abs(a - b) > 1e-7]
    bad += [f"geodesic of length {l} classed {k}" for l, k in found
            if k != "thin"]
    return bad


def _apply(coeffs, z: complex) -> complex:
    ar, ai, br, bi = coeffs
    a, b = complex(ar, ai), complex(br, bi)
    return (a * z + b) / (b.conjugate() * z + a.conjugate())


def k12(tri: dict) -> list[str]:
    """The equilateral K_12 triangulation: 12 vertices, all 66 edges, 44
    faces, every edge of the side length arccosh(cos a / (1 - cos a)) of
    the equilateral triangle with angles a = 2 pi / 11."""
    bad = counts(tri, 6)
    v, e, f = len(tri["vertices"]), len(tri["edges"]), len(tri["triangles"])
    if (v, e, f) != (12, 66, 44):
        bad.append(f"(v, e, f) = {(v, e, f)} != (12, 66, 44)")
    ca = math.cos(2.0 * math.pi / 11.0)
    side = math.acosh(ca / (1.0 - ca))
    for u, w, coeffs in tri["edges"]:
        _, x, y = tri["vertices"][w]
        z = _apply(coeffs, complex(x, y))
        length = 2.0 * math.atanh(abs(z))
        if abs(length - side) > 1e-9:
            bad.append(f"edge ({u},{w}) has length {length}, not {side}")
    return bad


def rejected(code, exc, stderr: str) -> list[str]:
    """A corrupted triangulation must be refused with exit 1 (failed
    certificate) or 2 (bad input), without a traceback."""
    if exc is not None:
        return [f"traceback: {type(exc).__name__}: {exc}"]
    if "Traceback" in stderr:
        return ["traceback on stderr"]
    if code not in (1, 2):
        return [f"exit {code}, expected 1 or 2"]
    return []


# -- corrupted copies ---------------------------------------------------------

def _drop_triangle(tri, rng):
    # f drops by one: f = 2v + 4g - 4 fails
    tri["triangles"].pop(rng.randrange(len(tri["triangles"])))


def _dup_triangle(tri, rng):
    # a face twice: f = 2v + 4g - 4 fails and its edges border 3 faces
    tri["triangles"].append(list(rng.choice(tri["triangles"])))


def _drop_edge(tri, rng):
    # e drops by one: e = 3v + 6g - 6 fails
    tri["edges"].pop(rng.randrange(len(tri["edges"])))


def _loop_edge(tri, rng):
    # a loop: not simplicial, and e = 3v + 6g - 6 fails
    u = rng.randrange(len(tri["vertices"]))
    t = 0.1
    tri["edges"].append([u, u, [math.cosh(t), 0.0, math.sinh(t), 0.0]])


def _parallel_edge(tri, rng):
    # a second edge between two neighbours: not simplicial
    u, w, coeffs = rng.choice(tri["edges"])
    tri["edges"].append([u, w, list(coeffs)])


def _relabel_triangle(tri, rng):
    # corner c of {a, b, c} becomes d: edges {a, c} and {b, c} now
    # border one face each, so the surface no longer closes up
    k = rng.randrange(len(tri["triangles"]))
    t = list(tri["triangles"][k])
    slot = rng.randrange(3)
    d = rng.choice([x for x in range(len(tri["vertices"])) if x not in t])
    t[slot] = d
    tri["triangles"][k] = sorted(t)


def _wrong_genus(tri, rng):
    # v - e + f = 2 - 2g fails
    tri["genus"] += 1


CORRUPTIONS = {
    "drop_triangle": _drop_triangle,
    "dup_triangle": _dup_triangle,
    "drop_edge": _drop_edge,
    "loop_edge": _loop_edge,
    "parallel_edge": _parallel_edge,
    "relabel_triangle": _relabel_triangle,
    "wrong_genus": _wrong_genus,
}


def corrupt(tri: dict, kind: str, rng: random.Random) -> dict:
    """A corrupted deep copy of a triangulation file."""
    copy = {"genus": tri["genus"],
            "vertices": [list(p) for p in tri["vertices"]],
            "edges": [[u, w, list(c)] for u, w, c in tri["edges"]],
            "triangles": [list(t) for t in tri["triangles"]]}
    CORRUPTIONS[kind](copy, rng)
    return copy
