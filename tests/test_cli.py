import contextlib
import gc
import importlib
import io
import json
import math
import os
import pathlib
import signal
import subprocess
import sys

import numpy as np
import pytest

import ngroupoid
from ngroupoid import analysis, cli
from ngroupoid.hypercube import MAX_DIMENSION
from ngroupoid.mixture import load_mixture
from ngroupoid.skeleton import (
    ObjectiveSkeleton,
    build,
    compose,
    dump_skeleton,
    load_skeleton,
    save_skeleton,
    skeleton_to_dict,
)
from test_golden_bytes import CHECK_REPORT_N6, COMPOSE_N6_AXIS2, GENERATE_N8, sha256


def test_skeleton_summary_n3(run_cli):
    code, out = run_cli("skeleton", "--n", 3)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "vertices: 8, edges: 12, 2-faces: 6"
    assert lines[1] == "h-face counts: h=0: 8, h=1: 12, h=2: 6"
    assert "facet pair axis 2: {0,1,4,5} / {2,3,6,7}" in lines


def test_skeleton_summary_n1(run_cli):
    code, out = run_cli("skeleton", "--n", 1)
    assert code == 0
    assert out.splitlines()[0] == "vertices: 2, edges: 1"


@pytest.mark.parametrize("n,first", [
    (2, "vertices: 4, edges: 4, 2-faces: 1"),  # the 2-cube is its own square
    (12, "vertices: 4096, edges: 24576, 2-faces: 67584"),
])
def test_skeleton_summary_square_count(run_cli, n, first):
    code, out = run_cli("skeleton", "--n", n)
    assert code == 0
    assert out.splitlines()[0] == first


def test_skeleton_h_flag(run_cli):
    code, out = run_cli("skeleton", "--n", 4, "--h", 2)
    assert code == 0
    assert out.strip() == "24"


def test_skeleton_edge_listing(run_cli):
    code, out = run_cli("skeleton", "--n", 2, "--edges")
    assert code == 0
    assert "0 -1-> 2" in out and "1 -1-> 3" in out and "2 -2-> 3" in out


def test_skeleton_invalid_n(run_cli):
    assert run_cli("skeleton", "--n", 0)[0] == 2
    assert run_cli("skeleton", "--n", 13, "--h", 1)[0] == 2
    assert run_cli("skeleton", "--n", 99)[0] == 2
    assert run_cli("skeleton", "--n", 3, "--h", 3)[0] == 2


def test_unknown_command_and_missing_args(run_cli):
    assert run_cli("frobnicate")[0] == 2
    assert run_cli("skeleton")[0] == 2
    assert run_cli("generate", "--n", "x")[0] == 2


def test_generate_deterministic(run_cli, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("generate", "--n", 3, "--seed", 42, "--out", a)[0] == 0
    assert run_cli("generate", "--n", 3, "--seed", 42, "--out", b)[0] == 0
    assert a.read_bytes() == b.read_bytes()
    code, out = run_cli("generate", "--n", 3, "--seed", 42)
    assert code == 0
    assert out == a.read_text()


def test_generate_invalid_n(run_cli):
    assert run_cli("generate", "--n", 0, "--seed", 1)[0] == 2


def test_check_conservative(run_cli, tmp_path):
    path = tmp_path / "t.json"
    run_cli("generate", "--n", 3, "--seed", 7, "--out", path)
    code, out = run_cli("check", path)
    assert code == 0
    assert "face check: conservative" in out
    assert "potential check: conservative" in out
    assert "checkers agree: conservative" in out


def test_check_perturbed(run_cli, tmp_path):
    path = tmp_path / "p.json"
    run_cli("generate", "--n", 4, "--seed", 7, "--mode", "perturbed", "--out", path)
    code, out = run_cli("check", path)
    assert code == 1
    assert "face check: not conservative (3 witness faces)" in out
    assert sum(1 for ln in out.splitlines() if ln.startswith("witness face ")) == 3
    assert "checkers agree: not conservative" in out


def test_check_report_file(run_cli, tmp_path):
    skel, rep1, rep2 = tmp_path / "s.json", tmp_path / "r1.json", tmp_path / "r2.json"
    run_cli("generate", "--n", 2, "--seed", 5, "--mode", "perturbed", "--out", skel)
    assert run_cli("check", skel, "--out", rep1)[0] == 1
    assert run_cli("check", skel, "--out", rep2)[0] == 1
    assert rep1.read_bytes() == rep2.read_bytes()
    doc = json.loads(rep1.read_text())
    assert doc["verdict"] is False
    assert doc["potential_check"] is False
    assert len(doc["witnesses"]) == 1


def test_check_rejects_bad_files(run_cli, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "vertices": [0, 1')
    assert run_cli("check", bad)[0] == 2
    assert run_cli("check", tmp_path / "absent.json")[0] == 2
    notskel = tmp_path / "notskel.json"
    notskel.write_text('{"n": 2, "vertices": [0, 1, 2, 3], "edges": []}')
    assert run_cli("check", notskel)[0] == 2


def test_check_against_mixture(run_cli, tmp_path, data_dir, capsys):
    mix_path = data_dir / "mixture_identical.json"
    mix = load_mixture(str(mix_path))
    T = build(mix, ("X", "Y", "X", "Y"))
    skel_path = tmp_path / "built.json"
    save_skeleton(T, str(skel_path))
    code, out = run_cli("check", skel_path, "--mixture", mix_path)
    assert code == 0

    # a random skeleton's labels 0..3 are not points of the mixture
    rand_path = tmp_path / "rand.json"
    run_cli("generate", "--n", 2, "--seed", 1, "--out", rand_path)
    capsys.readouterr()
    assert run_cli("check", rand_path, "--mixture", mix_path)[0] == 2
    assert "vertex label 0 not in the mixture base" in capsys.readouterr().err

    # over the mixture's points, it carries arrows outside the constituents
    doc = json.loads(rand_path.read_text())
    doc["vertices"] = ["X", "Y", "X", "Y"]
    rand_path.write_text(json.dumps(doc))
    assert run_cli("check", rand_path, "--mixture", mix_path)[0] == 2
    assert ("edge (0, 1): weight is not an arrow of constituent 'alpha'"
            in capsys.readouterr().err)


def test_check_against_mixture_ignores_group_order(run_cli, tmp_path, z4_order_case):
    doc, w = z4_order_case
    skel = {"n": 1, "vertices": ["X", "Y"],
            "edges": [{"tail": 0, "axis": 1, "weight": w.ravel().tolist()}]}
    mix_path, skel_path = tmp_path / "mix.json", tmp_path / "skel.json"
    mix_path.write_text(json.dumps(doc))
    skel_path.write_text(json.dumps(skel))
    assert run_cli("check", skel_path, "--mixture", mix_path)[0] == 0


def test_check_internal_disagreement(run_cli, tmp_path, monkeypatch):
    path = tmp_path / "t.json"
    run_cli("generate", "--n", 2, "--seed", 3, "--out", path)
    monkeypatch.setattr(analysis, "conservative_oracle", lambda T, tol: False)
    code, out = run_cli("check", path)
    assert code == 3
    assert "checkers disagree" in out


def test_uniformity_fixture_verdicts(run_cli, data_dir):
    code, out = run_cli("uniformity", data_dir / "mixture_identical.json")
    assert code == 0
    assert "verdict: uniform" in out
    assert "defect pairs: none" in out

    code, out = run_cli("uniformity", data_dir / "mixture_rotated.json")
    assert code == 1
    assert "constituent alpha: transitive" in out
    assert "constituent beta: transitive" in out
    assert "core: not transitive" in out
    assert "defect pairs: X->Y Y->X" in out
    assert "note: all constituents individually uniform" in out
    assert "verdict: not uniform" in out

    code, out = run_cli("uniformity", data_dir / "mixture_rotated_cyclic.json")
    assert code == 0


def test_uniformity_missing_implant(run_cli, data_dir):
    code, out = run_cli("uniformity", data_dir / "mixture_missing.json")
    assert code == 1
    assert "constituent beta: not transitive" in out
    assert "note:" not in out


def test_uniformity_bad_file(run_cli, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "base_points": []}')
    assert run_cli("uniformity", bad)[0] == 2


def test_uniformity_report_stable(run_cli, data_dir, tmp_path):
    r1, r2 = tmp_path / "u1.json", tmp_path / "u2.json"
    run_cli("uniformity", data_dir / "mixture_rotated.json", "--out", r1)
    run_cli("uniformity", data_dir / "mixture_rotated.json", "--out", r2)
    assert r1.read_bytes() == r2.read_bytes()
    doc = json.loads(r1.read_text())
    assert doc["defect_pairs"] == [
        {"source": "X", "target": "Y"},
        {"source": "Y", "target": "X"},
    ]


def test_verify_theorem(run_cli):
    code, out = run_cli("verify-theorem", "--n", 2, "--trials", 5, "--seed", 7)
    assert code == 0
    assert "total: 10/10 agreements" in out
    assert "max holonomy deviation" in out
    code, out = run_cli("verify-theorem", "--n", 6, "--trials", 1)
    assert code == 0
    assert "total: 2/2 agreements" in out


def test_verify_theorem_argument_errors(run_cli):
    assert run_cli("verify-theorem", "--n", 1, "--trials", 5)[0] == 2
    assert run_cli("verify-theorem", "--n", MAX_DIMENSION + 1, "--trials", 5)[0] == 2
    assert run_cli("verify-theorem", "--n", 3, "--trials", 0)[0] == 2


def test_verify_theorem_disagreement(run_cli, monkeypatch):
    monkeypatch.setattr(analysis, "conservative_oracle", lambda T, tol: False)
    code, out = run_cli("verify-theorem", "--n", 2, "--trials", 2, "--seed", 1)
    assert code == 3
    assert "checkers disagree" in out


def test_compose_command(run_cli, tmp_path):
    A, B = analysis.random_composable_chain(2, 1, 2, seed=3)
    a, b, out_path = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "ab.json"
    save_skeleton(A, str(a))
    save_skeleton(B, str(b))
    code, _ = run_cli("compose", a, b, "--axis", 1, "--out", out_path)
    assert code == 0
    assert load_skeleton(str(out_path)) == compose(B, A, 1)


def test_compose_not_composable(run_cli, tmp_path):
    A, B = analysis.random_composable_chain(2, 1, 2, seed=3)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_skeleton(A, str(a))
    save_skeleton(B, str(b))
    code, out = run_cli("compose", b, a, "--axis", 1)
    assert code == 1
    assert "not composable" in out


def test_compose_argument_errors(run_cli, tmp_path):
    A, _ = analysis.random_composable_chain(2, 1, 2, seed=3)
    a = tmp_path / "a.json"
    save_skeleton(A, str(a))
    assert run_cli("compose", a, a, "--axis", 5)[0] == 2
    assert run_cli("compose", a, tmp_path / "missing.json", "--axis", 1)[0] == 2


@pytest.mark.parametrize("scale, reason", [
    (1e200 * np.eye(3), "has non-finite entries"),             # the product overflows
    (np.diag([1e-7, 1.0, 1.0]), "is numerically singular"),    # det of the product ~1e-14
])
def test_glued_weight_must_be_finite_and_invertible(run_cli, tmp_path, capsys, scale, reason):
    # both files load and their facets match; only the glued axis-1 weights fail
    a, b, out_path = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "ab.json"
    for T, path in zip(analysis.random_composable_chain(2, 1, 2, seed=3), (a, b)):
        W = T.W.copy()
        axis1 = T.skel.edge_arrays[1] == 1
        W[axis1] = W[axis1] @ scale
        save_skeleton(ObjectiveSkeleton(2, T.vertices, W), str(path))
    capsys.readouterr()
    assert run_cli("compose", a, b, "--axis", 1) == (2, "")
    assert run_cli("compose", a, b, "--axis", 1, "--out", out_path) == (2, "")
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0] == err[1]
    assert err[0].startswith("error: composed skeleton: edge (0, 1): weight " + reason)
    assert not out_path.exists()


NONFINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("bad", NONFINITE)
def test_nonfinite_weight_is_an_input_error(run_cli, tmp_path, capsys, bad):
    A, B = analysis.random_composable_chain(2, 1, 2, seed=3)
    doc = skeleton_to_dict(A)
    doc["edges"][2]["weight"][4] = bad
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(doc))
    save_skeleton(B, str(b))
    capsys.readouterr()
    assert run_cli("check", a) == (2, "")
    assert "edges[2]" in capsys.readouterr().err
    assert run_cli("compose", a, b, "--axis", 1) == (2, "")
    assert "edges[2]" in capsys.readouterr().err


@pytest.mark.parametrize("bad", NONFINITE)
@pytest.mark.parametrize("where", ["implant", "symmetry"])
def test_nonfinite_mixture_matrix_is_an_input_error(run_cli, tmp_path, data_dir, capsys,
                                                    bad, where):
    doc = json.loads((data_dir / "mixture_identical.json").read_text())
    matrix = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]
    matrix[8] = bad
    if where == "implant":
        doc["constituents"][1]["implants"]["Y"] = matrix
    else:
        doc["constituents"][1]["symmetry"] = [matrix]
    path = tmp_path / "mix.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("uniformity", path) == (2, "")
    named = "implant at 'Y'" if where == "implant" else "group element 0"
    assert f"constituent[1] (beta): {named} has non-finite entries" in capsys.readouterr().err


def test_near_singular_arrow_is_an_input_error(run_cli, tmp_path, data_dir, capsys):
    # both implants clear the determinant check; the arrow X -> Y has det 2e-15
    doc = json.loads((data_dir / "mixture_identical.json").read_text())
    doc["constituents"][1]["implants"] = {
        "X": [10.0, 0, 0, 0, 10.0, 0, 0, 0, 10.0],
        "Y": [1e-4, 0, 0, 0, 1e-4, 0, 0, 0, 2e-4],
    }
    path = tmp_path / "mix.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("uniformity", path) == (2, "")
    assert capsys.readouterr().err == (
        "error: constituent 'beta': arrow 'X' -> 'Y' is numerically singular "
        "(det=2.000e-15)\n"
    )


def test_huge_finite_weights_still_agree(run_cli, tmp_path):
    # squares of these entries overflow; scaling edges (0,1) and (0,2) keeps
    # the skeleton conservative, scaling (0,1) alone breaks its one face
    for scaled, code, verdict in [(((0, 1), (0, 2)), 0, "conservative"),
                                  (((0, 1),), 1, "not conservative")]:
        doc = skeleton_to_dict(analysis.random_conservative(2, seed=0))
        for rec in doc["edges"]:
            if (rec["tail"], rec["axis"]) in scaled:
                rec["weight"] = [1e200 * w for w in rec["weight"]]
        path, report = tmp_path / "huge.json", tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        got, out = run_cli("check", path, "--out", report)
        assert got == code
        assert f"checkers agree: {verdict}" in out
        shown = [float(ln.rsplit("=", 1)[1]) for ln in out.splitlines()
                 if ln.startswith("witness face ")]
        assert len(shown) == code and all(math.isfinite(d) for d in shown)
        rep = json.loads(report.read_text())
        assert math.isfinite(rep["max_deviation"])
        assert all(math.isfinite(w["deviation"]) for w in rep["witnesses"])


BAD_TOL = ["nan", "inf", "-1", "0", "1e-400", "x"]


@pytest.mark.parametrize("tol", BAD_TOL)
def test_bad_tol_flag_is_an_input_error(run_cli, tmp_path, capsys, tol):
    A, B = analysis.random_composable_chain(2, 1, 2, seed=3)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_skeleton(A, str(a))
    save_skeleton(B, str(b))
    for argv in [("check", a), ("compose", a, b, "--axis", 1),
                 ("verify-theorem", "--n", 3, "--trials", 3)]:
        capsys.readouterr()
        assert run_cli(*argv, "--tol", tol) == (2, "")
        # argparse names text that is no number; check_tolerance names a number out of range
        why = ("invalid tolerance value: 'x'" if tol == "x"
               else f"tolerance must be a finite number > 0, got {float(tol)!r}")
        assert f"argument --tol: {why}\n" in capsys.readouterr().err


# each document is mixture_identical.json with one header field, or one matrix
# of constituent beta, replaced; the text is spliced in as written, so 1e400
# reaches the parser as a literal
BAD_HEADER = [
    ('"tolerance"', "1e400"),
    ('"tolerance"', "NaN"),
    ('"tolerance"', "true"),
    ('"tolerance"', "0"),
    ('"tolerance"', '"1e-9"'),
    ('"n"', "true"),
    ('"constituents"', '{"alpha": {}}'),
    ('"base_points"', '[["X"], ["Y"]]'),
    ('"base_points"', '["X", 1]'),
    ("implant at 'Y'", '["1", 1, 0, 0, 1, 0, 0, 0, 1]'),
    ("implant at 'Y'", "[true, true, false, false, true, false, false, false, true]"),
    ("group element 0", '[[1, 0, 0, 0, 1, 0, 0, 0, "1"]]'),
]


@pytest.mark.parametrize("field, text", BAD_HEADER)
def test_bad_mixture_header_is_an_input_error(run_cli, tmp_path, data_dir, capsys,
                                              field, text):
    doc = json.loads((data_dir / "mixture_identical.json").read_text())
    key = field.strip('"')
    if key == field:  # a matrix of constituent beta, named by its record
        beta = doc["constituents"][1]
        if field.startswith("implant"):
            beta["implants"]["Y"] = "@"
        else:
            beta["symmetry"] = "@"
        named = f"constituent[1] (beta): {field} "
    else:
        doc[key] = "@"
        named = f"mixture: field '{key}' "
    path = tmp_path / "mix.json"
    path.write_text(json.dumps(doc).replace('"@"', text))
    capsys.readouterr()
    assert run_cli("uniformity", path) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}") and err.count("\n") == 1


def test_constituent_name_must_be_a_string(run_cli, tmp_path, data_dir, capsys):
    doc = json.loads((data_dir / "mixture_identical.json").read_text())
    doc["constituents"][0]["name"] = ["alpha"]
    path = tmp_path / "mix.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("uniformity", path) == (2, "")
    assert capsys.readouterr().err == "error: constituent[0]: field 'name' must be a string\n"


@pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["complete-first", "defective-first"])
def test_duplicate_constituent_names_are_an_input_error(run_cli, tmp_path, data_dir, capsys,
                                                        order):
    # one name for a constituent with an implant at Y and one without would
    # leave a single entry in the transitivity report
    doc = json.loads((data_dir / "mixture_missing.json").read_text())
    doc["constituents"] = [dict(doc["constituents"][i], name="a") for i in order]
    path = tmp_path / "mix.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("uniformity", path) == (2, "")
    assert capsys.readouterr().err == "error: duplicate constituent names\n"


def test_default_constituent_names_count_as_names(run_cli, tmp_path, data_dir, capsys):
    doc = json.loads((data_dir / "mixture_identical.json").read_text())
    doc["constituents"][0]["name"] = "constituent-2"
    del doc["constituents"][1]["name"]
    path = tmp_path / "mix.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("uniformity", path) == (2, "")
    assert capsys.readouterr().err == "error: duplicate constituent names\n"
    del doc["constituents"][0]["name"]
    path.write_text(json.dumps(doc))
    assert run_cli("uniformity", path)[0] == 0


def test_shared_bad_group_names_its_first_constituent(run_cli, tmp_path, data_dir, capsys):
    doc = json.loads((data_dir / "mixture_identical.json").read_text())
    for c in doc["constituents"]:
        c["symmetry"] = [[1, 0, 0, 0, 1, 0, 0, 0, 1], [0, -1, 0, 1, 0, 0, 0, 0, 1]]
    path = tmp_path / "mix.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("uniformity", path) == (2, "")
    assert capsys.readouterr().err == (
        "error: constituent[0] (alpha): group not closed under inverse\n")


def test_undeclared_implant_names_constituent_and_point(run_cli, tmp_path, data_dir, capsys):
    doc = json.loads((data_dir / "mixture_identical.json").read_text())
    doc["constituents"][1]["implants"]["Q"] = doc["constituents"][1]["implants"]["X"]
    path = tmp_path / "mix.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("uniformity", path) == (2, "")
    assert capsys.readouterr().err == (
        "error: constituent 'beta': implants at undeclared points ['Q']\n")


def python_env() -> dict:
    """This environment, with this checkout's package importable and PYTHONUNBUFFERED unset."""
    src = str(pathlib.Path(ngroupoid.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.pop("PYTHONUNBUFFERED", None)
    return env


def run_python(args, cwd, text=True) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on args with this checkout's package importable.

    Its stdout is block-buffered, as in a plain shell, whatever PYTHONUNBUFFERED says here.
    """
    return subprocess.run([sys.executable, *args], capture_output=True, text=text, cwd=cwd,
                          env=python_env())


# one constituent that the mixture reader accepts
TRIVIAL = b'{"symmetry": "trivial", "implants": {}}'

# (verb arguments, input file bytes or None, text the error line must hold);
# the file, when there is one, is the last argument, and {path} stands for it
BAD_INPUTS = [
    (("check",), b"\xff\xfe{}", "{path}: 'utf-8' codec can't decode byte 0xff"),
    (("check",), b"[" * 200_000 + b"]" * 200_000, "{path}: maximum recursion depth exceeded"),
    (("check",), b'{"n": 14286, "vertices": [], "edges": []}',
     "skeleton: 'n' must be an integer in 1..12, got 14286"),
    (("generate", "--n", "2", "--seed", "-1"), None, "argument --seed: seed must be >= 0, got -1"),
    (("verify-theorem", "--n", "2", "--trials", "1", "--seed", "-5"), None,
     "argument --seed: seed must be >= 0, got -5"),
    (("check",), b'{"n": 1' + b"0" * 5000 + b', "vertices": [], "edges": []}',
     "{path}: Exceeds the limit (4300 digits) for integer string conversion"),
    (("uniformity",), b'{"n": 1, "base_points": ["X"], "tolerance": 1' + b"0" * 5000 + b"}",
     "{path}: Exceeds the limit (4300 digits) for integer string conversion"),
    (("check",), b"[]", "skeleton document must be an object"),
    (("check",), b'{"n": 1, "vertices": [0, 1], "edges": {}}', "skeleton: 'edges' must be a list"),
    (("uniformity",), b"[]", "mixture document must be an object"),
    (("uniformity",), b'{"n": 1}', "mixture: missing field 'base_points'"),
    (("uniformity",), b'{"n": 1, "base_points": ["X"], "constituents": [{"implants": {}}]}',
     "constituent[0]: missing field 'symmetry'"),
    (("uniformity",), b'{"n": 1, "base_points": ["X"], "constituents": [1]}',
     "constituent[0]: must be an object"),
    (("uniformity",), b'{"n": 1, "base_points": ["X"], '
                      b'"constituents": [{"symmetry": "trivial", "implants": []}]}',
     "constituent[0]: field 'implants' must be an object"),
    (("uniformity",), b'{"n": 0, "base_points": ["X"], "constituents": []}',
     "constituent count must be >= 1, got 0"),
    (("uniformity",), b'{"n": 2, "base_points": ["X"], "constituents": [' + TRIVIAL + b"]}",
     "n = 2 but 1 constituents declared"),
    (("uniformity",), b'{"n": 1, "base_points": ["X", "X"], "constituents": [' + TRIVIAL + b"]}",
     "duplicate base point labels"),
]


@pytest.mark.parametrize("argv, content, message", BAD_INPUTS,
                         ids=["not-utf8", "deep-nesting", "huge-n", "generate-seed",
                              "verify-seed", "overlong-n", "overlong-tolerance",
                              "skeleton-not-an-object", "edges-not-a-list",
                              "mixture-not-an-object", "mixture-field-missing",
                              "constituent-field-missing", "constituent-not-an-object",
                              "implants-not-an-object", "no-constituents",
                              "n-not-the-constituent-count", "duplicate-base-points"])
def test_bad_input_exits_2_without_a_traceback(tmp_path, argv, content, message):
    # a subprocess, because only the interpreter's own exit shows an uncaught exception
    path = tmp_path / "bad.json"
    if content is not None:
        path.write_bytes(content)
        argv = (*argv, str(path))
    proc = run_python(["-m", "ngroupoid", *argv], tmp_path)
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert proc.returncode == 2, proc.stderr
    assert len(errors) == 1 and message.format(path=path) in errors[0], proc.stderr


def write_inputs(directory: pathlib.Path) -> None:
    """An n=3 skeleton c.json, a composable pair of 2-cubes a.json, b.json, the
    fixture mixture_identical.json as m.json, and mc.json, a skeleton built from it."""
    A, B = analysis.random_composable_chain(2, 1, 2, seed=3)
    save_skeleton(A, str(directory / "a.json"))
    save_skeleton(B, str(directory / "b.json"))
    save_skeleton(analysis.random_conservative(3, seed=1), str(directory / "c.json"))
    mixture = pathlib.Path(__file__).parent / "data" / "mixture_identical.json"
    (directory / "m.json").write_text(mixture.read_text())
    save_skeleton(build(load_mixture(str(mixture)), "XYXY"), str(directory / "mc.json"))


# (verb arguments, first stdout line: what the verb printed before it wrote --out)
UNWRITABLE_OUT = [
    (("generate", "--n", "2"), None),
    (("compose", "a.json", "b.json", "--axis", "1"), None),
    (("check", "c.json"), "face check: conservative"),
    (("uniformity", "{data}/mixture_rotated.json"), "constituent alpha: transitive"),
]


@pytest.mark.parametrize("argv, first_line", UNWRITABLE_OUT,
                         ids=["generate", "compose", "check", "uniformity"])
def test_unwritable_out_exits_2_without_a_traceback(tmp_path, data_dir, argv, first_line):
    write_inputs(tmp_path)
    out = tmp_path / "missing" / "out.json"
    argv = [a.format(data=data_dir) for a in argv]
    proc = run_python(["-m", "ngroupoid", *argv, "--out", str(out)], tmp_path)
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert proc.returncode == 2, proc.stderr
    assert len(errors) == 1 and errors[0].startswith(f"error: cannot write {out}: "), proc.stderr
    assert "Traceback" not in proc.stderr
    assert (proc.stdout.splitlines() or [None])[0] == first_line


# (code run in a fresh interpreter, the package modules and numpy it leaves loaded)
RUN_VERB = "from ngroupoid.cli import main; main({!r})"
LOADED = [
    ("import ngroupoid", set()),
    ("import ngroupoid; ngroupoid.hypercube", {"errors", "hypercube", "numpy"}),
    ("import ngroupoid; ngroupoid.DEFAULT_TOL", {"errors"}),
    (RUN_VERB.format(["skeleton", "--n", "1"]), {"cli", "errors", "hypercube", "numpy"}),
    (RUN_VERB.format(["check", "c.json"]),
     {"analysis", "cli", "errors", "hypercube", "lean", "matrices", "numpy", "skeleton"}),
    (RUN_VERB.format(["generate", "--n", "2", "--out", "g.json"]),
     {"analysis", "cli", "errors", "hypercube", "lean", "matrices", "numpy", "skeleton"}),
    (RUN_VERB.format(["compose", "a.json", "b.json", "--axis", "1", "--out", "ab.json"]),
     {"cli", "errors", "hypercube", "lean", "matrices", "numpy", "skeleton"}),
    (RUN_VERB.format(["uniformity", "m.json"]),
     {"analysis", "cli", "errors", "groupoid", "matrices", "mixture", "numpy"}),
    (RUN_VERB.format(["check", "mc.json", "--mixture", "m.json"]),
     {"analysis", "cli", "errors", "groupoid", "hypercube", "lean", "matrices", "mixture",
      "numpy", "skeleton"}),
    # a flag error is found by cli and errors alone, before any numpy module loads
    (RUN_VERB.format(["generate", "--n", "13"]), {"cli", "errors"}),
    (RUN_VERB.format(["skeleton", "--n", "3", "--h", "5"]), {"cli", "errors"}),
    (RUN_VERB.format(["verify-theorem", "--n", "2", "--trials", "0"]), {"cli", "errors"}),
    (RUN_VERB.format(["check", "c.json", "--tol", "0"]), {"cli", "errors"}),
]


@pytest.mark.parametrize("code, expected", LOADED, ids=[
    "import", "submodule-attribute", "default-tol", "skeleton", "check", "generate", "compose",
    "uniformity", "check-mixture", "generate-bad-n", "skeleton-bad-h", "verify-bad-trials",
    "check-bad-tol"])
def test_each_verb_loads_only_the_modules_it_runs(tmp_path, code, expected):
    write_inputs(tmp_path)
    report = ("import sys; print(*sorted(m.removeprefix('ngroupoid.') for m in sys.modules "
              "if m == 'numpy' or m.startswith('ngroupoid.')), file=sys.stderr)")
    proc = run_python(["-c", f"{code}\n{report}"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stderr.splitlines()[-1].split()) == expected


def test_package_names_resolve_to_their_defining_modules():
    for name in ngroupoid.__all__:
        module = importlib.import_module(f"ngroupoid.{ngroupoid._HOME[name]}")
        obj = getattr(ngroupoid, name)
        assert obj is getattr(module, name), name
        assert not callable(obj) or obj.__module__ == module.__name__, name
    namespace = {}
    exec("from ngroupoid import *", namespace)
    assert all(namespace[name] is getattr(ngroupoid, name) for name in ngroupoid.__all__)
    assert set(ngroupoid.__all__) <= set(dir(ngroupoid))
    with pytest.raises(AttributeError, match="no_such_name"):
        ngroupoid.no_such_name
    assert ngroupoid.__version__ == "0.1.0"


def run_entry(argv, cwd) -> subprocess.CompletedProcess:
    """Run ``python -m ngroupoid`` on argv with a block-buffered stdout; stdout as bytes."""
    return run_python(["-m", "ngroupoid", *map(str, argv)], cwd, text=False)


def test_real_entry_loses_no_byte(tmp_path, run_cli):
    # the commands pinned in test_golden_bytes.py, through the process entry
    for mode, digest in GENERATE_N8.items():
        proc = run_entry(["generate", "--n", 8, "--seed", 0, "--mode", mode], tmp_path)
        assert (proc.returncode, sha256(proc.stdout)) == (0, digest)
    A, B = analysis.random_composable_chain(6, 2, 2, seed=1)
    save_skeleton(A, str(tmp_path / "a.json"))
    save_skeleton(B, str(tmp_path / "b.json"))
    proc = run_entry(["compose", "a.json", "b.json", "--axis", 2], tmp_path)
    assert (proc.returncode, sha256(proc.stdout)) == (0, COMPOSE_N6_AXIS2)
    assert run_entry(["generate", "--n", 6, "--seed", 0, "--mode", "perturbed",
                      "--out", "p.json"], tmp_path).returncode == 0
    proc = run_entry(["check", "p.json", "--out", "r.json"], tmp_path)
    assert proc.returncode == 1
    assert sha256((tmp_path / "r.json").read_bytes()) == CHECK_REPORT_N6
    # far more than a pipe holds, from a writer that forks
    proc = run_entry(["generate", "--n", 11, "--seed", 3], tmp_path)
    assert proc.returncode == 0
    expected = dump_skeleton(analysis.random_conservative(11, np.random.default_rng(3)))
    assert proc.stdout == expected.encode("utf-8")
    # each exit code, with the short output still in the stdout buffer at the end
    conservative, perturbed = str(tmp_path / "c.json"), str(tmp_path / "p.json")
    assert run_cli("generate", "--n", 3, "--seed", 7, "--out", conservative)[0] == 0
    for argv, code in ((["check", conservative], 0), (["check", perturbed], 1),
                       (["skeleton", "--n", "0"], 2)):
        proc = run_entry(argv, tmp_path)
        assert (proc.returncode, proc.stdout) == (code, run_cli(*argv)[1].encode("utf-8"))


def test_escaping_error_reaches_the_interpreter(tmp_path):
    code = ("import sys\n"
            "from ngroupoid import __main__ as entry, cli\n"
            "def verb(args):\n"
            "    raise RuntimeError('verb failed')\n"
            "cli.cmd_skeleton = verb\n"
            "sys.argv = ['ngroupoid', 'skeleton', '--n', '1']\n"
            "entry.main()\n")
    proc = run_python(["-c", code], tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.startswith("Traceback (most recent call last):\n")
    assert proc.stderr.endswith("RuntimeError: verb failed\n")


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_closed_stdout_ends_the_process_quietly(tmp_path, run_cli):
    # the edge listing of the 12-cube is far more than a pipe holds, so the
    # process is still writing when the reader goes away after one line
    err = tmp_path / "stderr"
    with open(err, "wb") as stderr:
        proc = subprocess.Popen([sys.executable, "-m", "ngroupoid", "skeleton", "--n", "12",
                                 "--edges"], stdout=subprocess.PIPE, stderr=stderr,
                                cwd=tmp_path, env=python_env())
        try:
            assert proc.stdout.readline() == b"vertices: 4096, edges: 24576, 2-faces: 67584\n"
            proc.stdout.close()
            assert proc.wait(timeout=60) == -signal.SIGPIPE
        finally:
            proc.kill()
            proc.wait()
    assert err.read_bytes() == b""
    # in process, cli.main leaves the interpreter's handler alone
    handler = signal.getsignal(signal.SIGPIPE)
    assert run_cli("skeleton", "--n", 1)[0] == 0
    assert signal.getsignal(signal.SIGPIPE) == handler


def garbage_after(argv) -> int:
    """How many unreachable objects the cyclic collector finds after cli.main(argv)."""
    gc.collect()
    gc.disable()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("small, large", [
    (["verify-theorem", "--n", "3", "--trials", "5"],
     ["verify-theorem", "--n", "3", "--trials", "200"]),
    (["generate", "--n", "2"], ["generate", "--n", "10"]),
], ids=["verify-theorem", "generate"])
def test_collector_would_find_nothing_that_grows(small, large):
    # the process entry turns the collector off; what it leaves uncollected
    # must not grow with the input (the first runs import and fill caches)
    for argv in (small, large):
        garbage_after(argv)
    assert garbage_after(small) == garbage_after(large)


def test_in_process_main_leaves_the_collector_on(run_cli):
    assert run_cli("skeleton", "--n", 1)[0] == 0
    assert gc.isenabled()
