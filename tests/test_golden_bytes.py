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
# `skeleton --n N` and `skeleton --n N --edges` for N = 1..12: the SHA-256 of stdout
SKELETON = {
    1: ("759d78f1a5321cd9f9d275804a137030a791f8800e63beaff70e4a8fa6b2c336",
        "972a755bf44ef6658e133be708044abf60094e62d429a1f21812e11312cb1a38"),
    2: ("c12db0c18df7b60ee4fc768d9a6b341dc4f590fa6d635941f19d5ef626d769c4",
        "c664f66f8dfa949a3042fe83dcc35ac16f275f2c3562d93461db3aed144aec84"),
    3: ("9e882b5e4e10312d87c0af261a5bfe593c9ba284602b3a30207f6c7c287a0d48",
        "58a28b76ba468d14ca33786137871b4f02e115d3b4020e58e8f298b6dbd07900"),
    4: ("d31af2337c47759bac50b26b4e3f06207c41e022a17a5acb388cdd15eed174ae",
        "944977c00caa744af6614fa4e1683ff1634282c0ff3d829ff8305ca422dc1117"),
    5: ("548ffc4a2fbd634c7e62d698985ee933b2f786b6c81c4bbdc8080b80045d77d5",
        "96d71fa8711c59cfc062e243dda946966ebf8a1c4bec6c5b7b016da1152dde39"),
    6: ("dd5d54bbc343ab4e4cadb2926a61982134de947e39c2c2e171954258062d3387",
        "8cc7ae21361b3f46d90294ccf20393fb5bbf72f27ffb3c35831b33188b250d58"),
    7: ("1f211e6ff2e1ebf748552a0f24f6fbba6c82dfb67ec49aeaef33b1c2e256da06",
        "20e85fda0ac7260fe717c8563f12300001c02d10e1b8beb09a82203901993a56"),
    8: ("ad156d19b0e83a92b73a4d24e054a0123e7c37ae68003321b95b114865ff6c87",
        "cf0c1ace5848fb78c6a47807564e952d8c70ddba725cef77b48903dd6a35b58d"),
    9: ("69c2b9449e0634b725c2c919c6d4d4a3f14218ddb27e8ce17bcfd3207ed72d51",
        "374db52d2fbbc1d0f441a9b3ae520448b966f512e73ca34ef06e5d2d8d02bd0e"),
    10: ("dad1fcc894426ea80939fe8f7c6bb297354a9f7a68864bac5fe0244f76a3644e",
        "fd839c55a70e354b0bbf5795926d9c5f9f6c58fa2473e54122d57b3077f79708"),
    11: ("2f7c906ce9b8d3ad832043d5d7911224e4f5e0792e9d0460adc3da79681e05d6",
        "7257fd0fbeeacce5d8191bd56ba0258e1f993f2fc95de60edb0389bb58014c16"),
    12: ("c034bd0f06fa8d6428239b2fa9ef5214492a7f1f01b323d33644edc4d9afae3d",
        "f46daec92bf478e0d2d4d7fe8ed63f7830b1cab30ea8bc8eb7ef69cd525c595e"),
}
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


@pytest.mark.parametrize("n", SKELETON)
def test_skeleton_stdout(run_cli, n):
    for flags, digest in zip(([], ["--edges"]), SKELETON[n]):
        code, out = run_cli("skeleton", "--n", n, *flags)
        assert (code, sha256(out)) == (0, digest)


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
