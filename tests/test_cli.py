import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hypdel
from hypdel import equilateral as E
from hypdel import geometry as G
from hypdel import linearbound as L
from hypdel import tiling as T
from hypdel.cli import main
from reference import mutate

SRC = Path(hypdel.__file__).resolve().parent
INPUTS = Path(__file__).resolve().parent.parent / "bench" / "inputs"


@pytest.fixture(scope="module")
def spec_file(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    spec = {"genus": 2, "graph": [[0, 0], [0, 1], [1, 1]],
            "lengths": [1.0, 1.0, 1.0], "twists": [0.0, 0.0, 0.0]}
    f = d / "spec.json"
    f.write_text(json.dumps(spec))
    return f


@pytest.fixture(scope="module")
def triangulation_file(spec_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-tri") / "tri.json"
    assert main(["triangulate", str(spec_file), "--out", str(out)]) == 0
    return out


def test_build_surface(spec_file, tmp_path, capsys):
    out = tmp_path / "surface.json"
    assert main(["build-surface", str(spec_file),
                 "--out", str(out)]) == 0
    d = json.loads(out.read_text())
    assert d["genus"] == 2
    assert d["thin_cylinders"] == 3
    assert d["epsilon"] == 0.72
    printed = capsys.readouterr().out
    assert "genus 2" in printed and "short geodesics below 2*0.72:" in printed


def test_triangulate_deterministic(spec_file, triangulation_file,
                                   tmp_path):
    out2 = tmp_path / "tri2.json"
    assert main(["triangulate", str(spec_file), "--out", str(out2)]) == 0
    assert out2.read_bytes() == triangulation_file.read_bytes()


def test_triangulate_prints_genus2_floor(spec_file, tmp_path, capsys):
    # jungerman_ringel(2) is 9, but no genus-2 triangulation has fewer
    # than 10 vertices
    assert main(["triangulate", str(spec_file),
                 "--out", str(tmp_path / "tri.json")]) == 0
    assert "floor 10)" in capsys.readouterr().out


def test_triangulate_prints_vertex_split(spec_file, tmp_path, capsys):
    # the three thin cuffs of 1.0 take 9 cylinder vertices each, and the
    # thick net the rest
    out = tmp_path / "tri.json"
    assert main(["triangulate", str(spec_file), "--out", str(out)]) == 0
    d = json.loads(out.read_text())
    v, e, f = len(d["vertices"]), len(d["edges"]), len(d["triangles"])
    assert (f"e = {e}, f = {f}, cylinder vertices 27, "
            f"net vertices {v - 27}\n") in capsys.readouterr().out


def test_verify_good(spec_file, triangulation_file, tmp_path, capsys):
    cert = tmp_path / "cert.json"
    svg = tmp_path / "tri.svg"
    code = main(["verify", str(spec_file), str(triangulation_file),
                 "--out", str(cert), "--svg", str(svg)])
    assert code == 0
    assert json.loads(cert.read_text())["passed"] is True
    assert svg.read_text().startswith("<svg")
    assert "ok" in capsys.readouterr().out


def test_verify_corrupted(spec_file, triangulation_file, tmp_path):
    d = json.loads(triangulation_file.read_text())
    del d["triangles"][0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    assert main(["verify", str(spec_file), str(bad)]) == 1


def test_bounds(spec_file, triangulation_file, capsys):
    assert main(["bounds", str(spec_file),
                 str(triangulation_file)]) == 0
    out = capsys.readouterr().out
    assert "N = " in out and "ok" in out


def test_report(spec_file, tmp_path):
    out = tmp_path / "report.json"
    assert main(["report", str(spec_file), "--out", str(out)]) == 0
    d = json.loads(out.read_text())
    assert d["verify"]["passed"] is True
    assert d["v"] <= d["bound_151g"]


def test_equilateral_k12(tmp_path, capsys):
    import importlib.resources as ir
    rot = ir.files("hypdel").joinpath("data/k12_rotation.txt").read_text()
    f = tmp_path / "k12.txt"
    f.write_text(rot)
    out = tmp_path / "k12.json"
    assert main(["equilateral", str(f), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["genus"] == 6
    assert "K_12" in capsys.readouterr().out


def test_equilateral_checks_the_rotation_once(monkeypatch):
    calls = []
    check = E.check_hyperbolizable

    def counted_check(rot):
        calls.append(rot)
        return check(rot)

    monkeypatch.setattr(E, "check_hyperbolizable", counted_check)
    assert main(["equilateral", str(SRC / "data" / "k12_rotation.txt")]) == 0
    assert len(calls) == 1


def test_equilateral_k7_rejected(tmp_path, capsys):
    rows = {i: [(i + d) % 7 for d in (1, 3, 2, 6, 4, 5)]
            for i in range(7)}
    f = tmp_path / "k7.txt"
    f.write_text("\n".join(f"{v}: " + " ".join(map(str, rows[v]))
                           for v in range(7)))
    assert main(["equilateral", str(f)]) == 1
    assert "not hyperbolizable" in capsys.readouterr().out


def test_input_errors(tmp_path, spec_file):
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    assert main(["build-surface", str(garbage)]) == 2
    assert main(["build-surface", str(tmp_path / "missing.json")]) == 2
    bad_graph = tmp_path / "bad_graph.json"
    bad_graph.write_text(json.dumps(
        {"genus": 2, "graph": [[0, 0], [0, 1], [0, 1]],
         "lengths": [1.0] * 3, "twists": [0.0] * 3}))
    assert main(["build-surface", str(bad_graph)]) == 2
    bad_rot = tmp_path / "bad_rot.txt"
    bad_rot.write_text("0 - 1 2\n")
    assert main(["equilateral", str(bad_rot)]) == 2


def test_verify_radius_cap(spec_file, g2_build, tmp_path, capsys):
    # edge 0 moved 14 along its placement's axis: its length asks for a
    # development far wider than any construction output needs, which
    # verify refuses at its radius cap instead of enumerating
    _, _, text = g2_build
    d = json.loads(text)
    ar, ai, br, bi = d["edges"][0][2]
    m = (G.Mobius(complex(ar, ai), complex(br, bi))
         @ G.Mobius.translation_x(14.0))
    d["edges"][0][2] = [m.a.real, m.a.imag, m.b.real, m.b.imag]
    far = tmp_path / "far.json"
    far.write_text(json.dumps(d))
    t0 = time.monotonic()
    assert main(["verify", str(spec_file), str(far)]) == 2
    assert time.monotonic() - t0 < 30.0
    err = capsys.readouterr().err
    assert "resource cap" in err and "Traceback" not in err


def test_subcommands_take_only_their_flags(spec_file, triangulation_file,
                                          capsys):
    # the construction runs at thickthin.EPSILON only: no subcommand takes
    # --epsilon, and asking for it is a usage error; nor does verify take
    # a Delaunay tolerance, which would only loosen its certificate
    spec, tri = str(spec_file), str(triangulation_file)
    cases = [argv + ["--epsilon", "0.5"] for argv in (
        ["build-surface", spec], ["triangulate", spec], ["report", spec],
        ["verify", spec, tri], ["bounds", spec, tri], ["equilateral", spec])]
    for argv in cases + [["verify", spec, tri, "--tol", "0"]]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert argv[-2] in err and "Traceback" not in err, argv


def test_vertex_outside_its_chart_exits_2(spec_file, triangulation_file,
                                          tmp_path, capsys):
    # seed 3 of the mutation suite's nudge_vertex moves vertex 15 0.0026
    # out of its chart; every reader of the file refuses it
    bad = tmp_path / "nudged.json"
    bad.write_text(mutate(triangulation_file.read_text(), "nudge_vertex",
                          random.Random(3)))
    spec = str(spec_file)
    for argv in (["verify", spec, str(bad)], ["bounds", spec, str(bad)],
                 ["verify", spec, str(bad), "--svg",
                  str(tmp_path / "out.svg")]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: MalformedInput: vertex 15 lies "
                              "outside its chart"), argv
        assert "Traceback" not in err, argv
    assert not (tmp_path / "out.svg").exists()


_GOOD_SPEC = {"genus": 2, "graph": [[0, 0], [0, 1], [1, 1]],
              "lengths": [1.0, 1.0, 1.0], "twists": [0.0, 0.0, 0.0]}


@pytest.mark.parametrize("change,error", [
    (lambda d: d.pop("graph"), "MalformedInput"),
    (lambda d: d.pop("twists"), "MalformedInput"),
    (lambda d: d.update(genus="2"), "MalformedInput"),
    (lambda d: d.update(genus=True), "MalformedInput"),
    (lambda d: d.update(graph=[[0, 0], [0], [1, 1]]), "MalformedInput"),
    (lambda d: d.update(graph=[[0, 0], [0, 1.5], [1, 1]]), "MalformedInput"),
    (lambda d: d.update(lengths=1.0), "MalformedInput"),
    (lambda d: d["lengths"].__setitem__(0, 1e308), "InvalidLength"),
    (lambda d: d["lengths"].__setitem__(0, float("inf")), "MalformedInput"),
    (lambda d: d["lengths"].__setitem__(0, 10 ** 400), "MalformedInput"),
    (lambda d: d["twists"].__setitem__(0, float("nan")), "MalformedInput"),
    (lambda d: d["twists"].__setitem__(0, "0"), "MalformedInput"),
], ids=["no-graph", "no-twists", "genus-string", "genus-bool",
        "short-edge", "float-node", "lengths-scalar", "cuff-1e308",
        "cuff-inf", "cuff-huge-int", "twist-nan", "twist-string"])
def test_malformed_spec_exits_2(change, error, tmp_path, capsys):
    d = json.loads(json.dumps(_GOOD_SPEC))
    change(d)
    f = tmp_path / "spec.json"
    f.write_text(json.dumps(d))
    assert main(["build-surface", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}: ") and "Traceback" not in err


def test_spec_that_is_not_an_object_exits_2(tmp_path, capsys):
    f = tmp_path / "spec.json"
    f.write_text(json.dumps([_GOOD_SPEC]))
    assert main(["build-surface", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: MalformedInput: ")
    assert "Traceback" not in err


def _set_edge_endpoint(d):
    d["edges"][0][1] = len(d["vertices"])


@pytest.mark.parametrize("change", [
    _set_edge_endpoint,
    lambda d: d["edges"][0].__setitem__(0, -1),
    lambda d: d["vertices"][0].__setitem__(0, 99),
    lambda d: d.pop("edges"),
    lambda d: d.pop("genus"),
    lambda d: d["vertices"][0].__setitem__(1, float("nan")),
    lambda d: d["vertices"][0].pop(),
    lambda d: d["edges"][0][2].pop(),
    lambda d: d["edges"][0][2].__setitem__(0, float("inf")),
    lambda d: d["edges"][0].__setitem__(2, [5, 0, 0, 0]),
    lambda d: d["triangles"][0].pop(),
    lambda d: d["triangles"][0].__setitem__(0, 10 ** 6),
    lambda d: d.update(triangles={}),
], ids=["edge-index-past-end", "edge-index-negative", "chart-99",
        "no-edges", "no-genus", "vertex-nan", "vertex-two-values",
        "three-coefficients", "coefficient-inf", "placement-not-normal",
        "two-corners",
        "corner-out-of-range", "triangles-object"])
def test_malformed_triangulation_exits_2(change, spec_file,
                                         triangulation_file, tmp_path,
                                         capsys):
    d = json.loads(triangulation_file.read_text())
    change(d)
    f = tmp_path / "tri.json"
    f.write_text(json.dumps(d))
    for cmd in ("verify", "bounds"):
        assert main([cmd, str(spec_file), str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: MalformedInput: ")
        assert "Traceback" not in err


@pytest.mark.parametrize("genus", [-1, 0, 1])
def test_triangulation_genus_below_2_exits_2(genus, spec_file,
                                             triangulation_file, tmp_path,
                                             capsys):
    # refused on reading, as PantsGraph.validate refuses such a spec: no
    # vertex floor (math.sqrt of a negative at genus -1) is read
    d = json.loads(triangulation_file.read_text())
    d["genus"] = genus
    f = tmp_path / "tri.json"
    f.write_text(json.dumps(d))
    for cmd in ("verify", "bounds"):
        assert main([cmd, str(spec_file), str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: InvalidGenus: genus {genus} < 2")
        assert "Traceback" not in err


@pytest.mark.parametrize("tri", sorted(INPUTS.glob("*.tri.json")),
                         ids=lambda p: p.name.split(".")[0])
def test_stored_inputs_verify(tri, capsys):
    spec = tri.with_name(tri.name.replace(".tri.", ".spec."))
    assert main(["verify", str(spec), str(tri)]) == 0


def test_stored_edge_placement_off_normal_form_exits_2(tmp_path, capsys):
    # (5, 0) is the identity map but not its normal form (1, 0); before
    # the check, verify read it and failed two certificates (exit 1)
    tri = INPUTS / "thick-g2-0.tri.json"
    d = json.loads(tri.read_text())
    d["edges"][0][2] = [5, 0, 0, 0]
    f = tmp_path / "tri.json"
    f.write_text(json.dumps(d))
    spec = INPUTS / "thick-g2-0.spec.json"
    assert main(["verify", str(spec), str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: MalformedInput: edge placement ")
    assert "Traceback" not in err


def test_centre_outside_chart_exits_2(tmp_path):
    # with cuffs of 15 the chart centres fall outside their polygons; the
    # first development refuses them at once instead of walking to a cap
    f = tmp_path / "spec.json"
    f.write_text(json.dumps({**_GOOD_SPEC, "lengths": [15.0] * 3}))
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    t0 = time.monotonic()
    run = subprocess.run([sys.executable, "-m", "hypdel.cli",
                          "build-surface", str(f)], capture_output=True,
                         text=True, env=env, timeout=60)
    assert time.monotonic() - t0 < 10.0
    assert run.returncode == 2
    assert run.stderr.startswith("error: DomainError: chart ")
    assert "outside its polygon" in run.stderr
    assert "Traceback" not in run.stderr


def test_long_cuffs_with_twists_reach_the_centre_check(tmp_path, capsys):
    # cuffs of 15 with twists once stopped at a transition "with no
    # reciprocal", from rounding in coefficients near 900; they now stop
    # where cuffs of 15 without twists do
    f = tmp_path / "spec.json"
    f.write_text(json.dumps({**_GOOD_SPEC, "lengths": [15.0] * 3,
                             "twists": [0.1, 0.0, -0.2]}))
    assert main(["triangulate", str(f)]) == 2
    err = capsys.readouterr().err
    assert "reciprocal" not in err
    assert err.startswith("error: DomainError: chart ")
    assert "outside its polygon" in err


@pytest.mark.parametrize("cuff", [12.0, 15.0])
def test_long_cuffs_end(cuff, tmp_path):
    # long cuffs make long thin charts whose detection ball runs into a
    # resource cap; the run must end soon, with exit 0 or 2 and no
    # traceback, whatever it decides
    f = tmp_path / "spec.json"
    f.write_text(json.dumps({**_GOOD_SPEC, "lengths": [cuff] * 3}))
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    t0 = time.monotonic()
    run = subprocess.run([sys.executable, "-m", "hypdel.cli",
                          "build-surface", str(f)], capture_output=True,
                         text=True, env=env, timeout=60)
    assert time.monotonic() - t0 < 30.0
    assert run.returncode in (0, 2), run.stderr
    assert "Traceback" not in run.stderr


def _closed_stdout(argv, read_lines=0):
    """hypdel argv in a subprocess whose reader reads read_lines lines of
    its stdout and then closes it, as `| head` does: (exit code, stderr)."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    with subprocess.Popen([sys.executable, "-m", "hypdel.cli", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=env) as proc:
        for _ in range(read_lines):
            proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        return proc.wait(timeout=120), err


def test_closed_stdout_keeps_a_pass():
    # `hypdel triangulate chain-g5 | head -1`: the reader goes after one
    # line, with 117 kB of triangulation still to write, more than a pipe
    # holds
    spec = INPUTS / "chain-g5.spec.json"
    code, err = _closed_stdout(["triangulate", str(spec)], read_lines=1)
    assert (code, err) == (0, "")


def test_closed_stdout_keeps_a_failure(tmp_path):
    # a failed certificate whose reader is gone before the summary: still
    # exit 1, with the --out certificate written; a missing spec still
    # exits 2
    d = json.loads((INPUTS / "thick-g2-0.tri.json").read_text())
    del d["triangles"][0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    cert = tmp_path / "cert.json"
    spec = INPUTS / "thick-g2-0.spec.json"
    code, err = _closed_stdout(["verify", str(spec), str(bad),
                                "--out", str(cert)])
    assert (code, err) == (1, "")
    assert json.loads(cert.read_text())["passed"] is False
    code, err = _closed_stdout(["triangulate", str(tmp_path / "none.json")])
    assert code == 2
    assert err.startswith("error: MalformedInput: cannot read ")
    assert "Traceback" not in err


def test_triangulation_without_vertices_exits_2(tmp_path, capsys):
    # the figure is drawn around the first vertex; a file without one is
    # refused when it is read, so no command reaches the figure
    f = tmp_path / "tri.json"
    f.write_text(json.dumps({"genus": 2, "vertices": [], "edges": [],
                             "triangles": []}))
    spec = INPUTS / "thick-g2-0.spec.json"
    for argv in (["verify", str(spec), str(f), "--svg",
                  str(tmp_path / "tri.svg")], ["bounds", str(spec), str(f)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: MalformedInput: triangulation has no vertices\n"
    assert not (tmp_path / "tri.svg").exists()


def test_bounds_locates_each_vertex_once(monkeypatch, capsys):
    # both audits share one location of the vertices in the pants chain:
    # one radius-1e-9 development per vertex, and no other development
    spec, tri = INPUTS / "chain-g5.spec.json", INPUTS / "chain-g5.tri.json"
    calls = []
    locate, ball_tiles = L.locate_vertices_in_pants, T.ball_tiles

    def counted_locate(atlas, lc):
        calls.append("locate")
        return locate(atlas, lc)

    def counted_ball_tiles(cc, base, radius):
        calls.append(radius)
        return ball_tiles(cc, base, radius)

    monkeypatch.setattr(L, "locate_vertices_in_pants", counted_locate)
    monkeypatch.setattr(T, "ball_tiles", counted_ball_tiles)
    assert main(["bounds", str(spec), str(tri)]) == 0
    n = len(json.loads(tri.read_text())["vertices"])
    assert calls == ["locate"] + [1e-9] * n


def _loop_edge(d):
    d["edges"].append([0, 0, [math.cosh(0.1), 0.0, math.sinh(0.1), 0.0]])
    return "edge (0,0) is a loop"


def _repeated_corner(d):
    d["triangles"][0][2] = d["triangles"][0][0]
    return f"triangle {tuple(d['triangles'][0])} repeats a vertex"


@pytest.mark.parametrize("change", [_loop_edge, _repeated_corner],
                         ids=["loop-edge", "repeated-corner"])
def test_bounds_refuses_what_does_not_embed(change, tmp_path, capsys):
    # a loop or a degenerate triangle has no place in the rotation system
    # of an embedded subgraph
    d = json.loads((INPUTS / "chain-g5.tri.json").read_text())
    why = change(d)
    f = tmp_path / "tri.json"
    f.write_text(json.dumps(d))
    assert main(["bounds", str(INPUTS / "chain-g5.spec.json"), str(f)]) == 2
    assert capsys.readouterr().err == f"error: EmbeddingError: {why}\n"
