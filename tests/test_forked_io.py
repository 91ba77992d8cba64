"""The skeleton writer's split and compose's second reader, both run in a forked child.

Whatever the child does, the bytes, the error text and the exit code are
those of the one-process path, and no child outlives the call.
"""

import json
import os
import pathlib
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

import ngroupoid
import ngroupoid.skeleton as skeleton_module
import scalar_reference as ref
from ngroupoid import matrices
from ngroupoid.analysis import random_composable_chain, random_conservative
from ngroupoid.errors import FormatError
from ngroupoid.skeleton import (
    ObjectiveSkeleton,
    _in_child,
    compose,
    dump_skeleton,
    load_skeleton,
    load_skeletons,
    save_skeleton,
    skeleton_to_dict,
)

from test_bit_identity import LABELS

SPLIT_N = 11  # the smallest n whose halves hold _SPLIT_RECORDS edge records each


def no_children_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture
def forks(monkeypatch):
    """Count os.fork calls in this process; children still fork for real."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


@pytest.fixture(scope="module")
def cube12():
    return random_conservative(12, seed=12)


def test_split_starts_at_the_smallest_n_that_halves_into_split_records(forks):
    assert (SPLIT_N * 2 ** (SPLIT_N - 1)) // 2 >= skeleton_module._SPLIT_RECORDS
    assert ((SPLIT_N - 1) * 2 ** (SPLIT_N - 2)) // 2 < skeleton_module._SPLIT_RECORDS
    for n in range(1, SPLIT_N):  # every golden-bytes case among them
        dump_skeleton(random_conservative(n, seed=n))
    assert forks == []
    T = random_conservative(SPLIT_N, seed=SPLIT_N)
    assert dump_skeleton(T) == ref.dump_skeleton(T)
    assert len(forks) == 1 and no_children_left()


def test_split_without_fork_gives_the_same_bytes(monkeypatch, cube12):
    monkeypatch.delattr(os, "fork")
    assert dump_skeleton(cube12) == ref.dump_skeleton(cube12)


def test_split_with_a_failing_child_gives_the_same_bytes(monkeypatch, cube12):
    fork = os.fork

    def failing_child():
        pid = fork()
        if pid == 0:
            os._exit(3)
        return pid

    monkeypatch.setattr(os, "fork", failing_child)
    assert dump_skeleton(cube12) == ref.dump_skeleton(cube12)
    assert no_children_left()


@pytest.mark.parametrize("action", ["error", "always"])
def test_fork_with_another_thread_running_warns_nothing(cube12, action):
    # Python 3.12+ warns on os.fork while another thread runs
    idle = threading.Event()
    thread = threading.Thread(target=idle.wait)
    thread.start()
    try:
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter(action)
            text = dump_skeleton(cube12)
    finally:
        idle.set()
        thread.join()
    assert seen == []
    assert text == ref.dump_skeleton(cube12)


def test_leaving_the_block_early_kills_and_reaps_the_child():
    start = time.perf_counter()
    with pytest.raises(KeyError):
        with _in_child(lambda: time.sleep(60) or b""):
            raise KeyError("first file")
    assert time.perf_counter() - start < 30
    assert no_children_left()


def test_child_error_reruns_here_and_raises_its_own_error():
    def fails():
        raise FormatError("second file")

    with pytest.raises(FormatError, match="second file"):
        with _in_child(fails) as result:
            result()
    assert no_children_left()


@pytest.mark.parametrize("load", [
    lambda a, b: load_skeleton(a),
    lambda a, b: load_skeletons(a, b),  # the child checks the second file on its own
], ids=["load_skeleton", "load_skeletons"])
def test_one_weight_check_per_file(monkeypatch, tmp_path, load):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_skeleton(random_conservative(3, seed=1), str(a))
    save_skeleton(random_conservative(4, seed=2), str(b))
    calls = []
    first_invalid = matrices.first_invalid

    def counted(ms):
        calls.append(len(ms))
        return first_invalid(ms)

    monkeypatch.setattr(matrices, "first_invalid", counted)
    monkeypatch.setattr(skeleton_module, "first_invalid", counted)
    load(str(a), str(b))
    assert calls == [12]


def test_load_skeletons_reads_both_files(tmp_path):
    A, B = random_composable_chain(3, 1, 2, seed=4)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_skeleton(A, str(a))
    save_skeleton(B, str(b))
    first, second = load_skeletons(str(a), str(b))
    assert (first, second) == (A, B)
    assert not second.W.flags.writeable
    assert no_children_left()


def relabelled_pair(labels):
    """A composable n=2 pair over the given four labels, glued along axis 1."""
    A, B = random_composable_chain(2, 1, 2, seed=7)
    A = ObjectiveSkeleton(2, labels, A.W)
    vertices = list(labels)
    for v_out, v_in in zip(*(T.skel.facet(1, bit)[0].tolist() for T, bit in ((A, 1), (B, 0)))):
        vertices[v_in] = labels[v_out]
    return A, ObjectiveSkeleton(2, vertices, B.W)


@pytest.mark.parametrize("labels", LABELS, ids=["ints", "floats", "nested", "escaped"])
def test_compose_bytes_match_one_process(run_cli, tmp_path, labels):
    A, B = relabelled_pair(labels)
    a, b, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "ab.json"
    save_skeleton(A, str(a))
    save_skeleton(B, str(b))
    assert run_cli("compose", a, b, "--axis", 1, "--out", out) == (0, "")
    assert out.read_text(encoding="utf-8") == ref.dump_skeleton(compose(B, A, 1))


def test_no_child_outlives_a_verb(run_cli, tmp_path, capsys):
    a, b, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "ab.json"
    assert run_cli("generate", "--n", 12, "--seed", 1, "--out", a) == (0, "")
    assert no_children_left()
    units = np.tile(np.eye(3), (len(load_skeleton(str(a)).W), 1, 1))
    save_skeleton(ObjectiveSkeleton(12, ["X"] * 4096, units), str(b))  # composes with itself
    assert run_cli("compose", b, b, "--axis", 1, "--out", out) == (0, "")
    assert no_children_left()
    assert out.read_text(encoding="utf-8") == b.read_text(encoding="utf-8")
    capsys.readouterr()
    assert run_cli("compose", tmp_path / "missing.json", b, "--axis", 1) == (2, "")
    assert no_children_left()
    assert capsys.readouterr().err.startswith("error: cannot read ")


@pytest.fixture
def compose_inputs(tmp_path):
    """Good and bad skeleton files for compose; each bad file fails in its own way."""
    A, B = random_composable_chain(2, 1, 2, seed=3)
    paths = {name: tmp_path / f"{name}.json" for name in ("a", "b", "bad_json", "bad_weight")}
    save_skeleton(A, str(paths["a"]))
    save_skeleton(B, str(paths["b"]))
    paths["bad_json"].write_text("nope", encoding="utf-8")
    doc = skeleton_to_dict(B)
    doc["edges"][2]["weight"] = [0.0] * 9
    paths["bad_weight"].write_text(json.dumps(doc), encoding="utf-8")
    return paths


@pytest.mark.parametrize("first, second, message", [
    ("bad_json", "b", "{bad_json}: line 1: Expecting value"),
    ("a", "bad_weight", "skeleton: edges[2]: weight is numerically singular (det=0.000e+00)"),
    ("bad_json", "bad_weight", "{bad_json}: line 1: Expecting value"),
], ids=["first-bad", "second-bad", "both-bad"])
def test_compose_input_error_is_one_line(compose_inputs, first, second, message):
    # a subprocess, because only the interpreter's own exit shows what a child printed
    src = str(pathlib.Path(ngroupoid.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "ngroupoid", "compose", str(compose_inputs[first]),
                           str(compose_inputs[second]), "--axis", "1"],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: " + message.format(bad_json=compose_inputs["bad_json"]) + "\n"
