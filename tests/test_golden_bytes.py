"""Byte-identity of CLI outputs, pinned as SHA-256 digests.

The digests were recorded with the per-edge, per-face loop implementation
(see scalar_reference.py); the array-based code must reproduce them exactly.
"""
import hashlib

import pytest

from ngroupoid.analysis import random_composable_chain
from ngroupoid.skeleton import save_skeleton

GENERATE_N8 = {
    "conservative": "f55600b969c7d0ba03f746dfd347cc2777c3b7095893a01bed98698534c84ece",
    "perturbed": "50489fbd21a0b1bdde6968296e515c1fa1d945f04c43bdbd44114a7ebb2fb119",
}
COMPOSE_N6_AXIS2 = "1b3f84ffc9a6f25f9063adb96d9231f80f4a2daac83378df9ac322dc1cc0a393"
CHECK_REPORT_N6 = "133b3e97fddcfa3f9c5332f0037597f6a263d4d6a1af3f8e366840c7583444e1"
# `uniformity MIXTURE --out REPORT` on each tests/data mixture: the exit code and the
# SHA-256 of stdout and of the report; neither holds a float, so no BLAS kernel moves them
UNIFORMITY = {
    "mixture_core4.json": (0, "4e932fd79f42a41d9b2b5d62a6d3749c69ea15ab4f1d3caaac0400c90ca53f7d",
                           "2d7282dadfa9c0aee47557455b3d6d1dbc7e9def15f2d3e068421cdbda42dc98"),
    "mixture_identical.json": (0, "4e932fd79f42a41d9b2b5d62a6d3749c69ea15ab4f1d3caaac0400c90ca53f7d",
                               "0cef12fa0f2ecb51ad735fadb01187c868a09be46279fdb75b31a61f0b2ce56a"),
    "mixture_missing.json": (1, "e31e8ce5046c35de2be953f9e7cf68f1c34a128b42808c547680b0782fa91d45",
                             "ac016b7dec23c0eb5fa11080fe0ba4313e8b40b652080e97e5ddbea3546ac590"),
    "mixture_rotated.json": (1, "4bc54baf31a65ecaaf3729e1ccc10e3e5d1ec253fa3059cd165512c2df410155",
                             "d4d2bea8086b7bfda277f96a0258df82f40ac8a28487031621292fc7991a8b9d"),
    "mixture_rotated_cyclic.json": (
        0, "4e932fd79f42a41d9b2b5d62a6d3749c69ea15ab4f1d3caaac0400c90ca53f7d",
        "0cef12fa0f2ecb51ad735fadb01187c868a09be46279fdb75b31a61f0b2ce56a"),
}


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("mode", ["conservative", "perturbed"])
def test_generate_stdout(run_cli, mode):
    code, out = run_cli("generate", "--n", 8, "--seed", 0, "--mode", mode)
    assert code == 0
    assert sha256(out) == GENERATE_N8[mode]


def test_compose_stdout(run_cli, tmp_path):
    A, B = random_composable_chain(6, 2, 2, seed=1)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_skeleton(A, str(a))
    save_skeleton(B, str(b))
    code, out = run_cli("compose", a, b, "--axis", 2)
    assert code == 0
    assert sha256(out) == COMPOSE_N6_AXIS2


def test_check_report(run_cli, tmp_path):
    skel, report = tmp_path / "s.json", tmp_path / "r.json"
    assert run_cli("generate", "--n", 6, "--seed", 0, "--mode", "perturbed",
                   "--out", skel)[0] == 0
    assert run_cli("check", skel, "--out", report)[0] == 1
    assert sha256(report.read_bytes()) == CHECK_REPORT_N6


@pytest.mark.parametrize("mixture", UNIFORMITY)
def test_uniformity_report(run_cli, data_dir, tmp_path, mixture):
    report = tmp_path / "report.json"
    code, out = run_cli("uniformity", data_dir / mixture, "--out", report)
    assert (code, sha256(out), sha256(report.read_bytes())) == UNIFORMITY[mixture]
