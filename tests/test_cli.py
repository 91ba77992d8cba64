import json

import pytest

from ngroupoid import analysis
from ngroupoid.mixture import load_mixture
from ngroupoid.skeleton import build, compose, load_skeleton, save_skeleton, skeleton_to_dict


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
    assert run_cli("skeleton", "--n", 99)[0] == 2
    assert run_cli("skeleton", "--n", 3, "--h", 3)[0] == 2


def test_dimension_cap_env_override(run_cli, monkeypatch):
    assert run_cli("skeleton", "--n", 13, "--h", 1)[0] == 2
    monkeypatch.setenv("NGROUPOID_MAX_N", "13")
    code, out = run_cli("skeleton", "--n", 13, "--h", 1)
    assert code == 0
    assert out.strip() == str(13 * 2 ** 12)


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


def test_check_against_mixture(run_cli, tmp_path, data_dir):
    mix_path = data_dir / "mixture_identical.json"
    mix = load_mixture(str(mix_path))
    T = build(mix, ("X", "Y", "X", "Y"))
    skel_path = tmp_path / "built.json"
    save_skeleton(T, str(skel_path))
    code, out = run_cli("check", skel_path, "--mixture", mix_path)
    assert code == 0

    # a random skeleton carries arrows outside the constituents
    rand_path = tmp_path / "rand.json"
    run_cli("generate", "--n", 2, "--seed", 1, "--out", rand_path)
    assert run_cli("check", rand_path, "--mixture", mix_path)[0] == 2


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


def test_verify_theorem_argument_errors(run_cli):
    assert run_cli("verify-theorem", "--n", 1, "--trials", 5)[0] == 2
    assert run_cli("verify-theorem", "--n", 6, "--trials", 5)[0] == 2
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
def test_nonfinite_mixture_matrix_is_an_input_error(run_cli, tmp_path, data_dir,
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
    assert run_cli("uniformity", path) == (2, "")
