"""The work run in a forked child: the skeleton writer's second half, the reader
of check and compose, and the second half of the face check.

Whatever the child does, the bytes, the error text and the exit code are
those of the one-process path, and no child outlives the call.
"""

import collections
import contextlib
import io
import json
import os
import pickle
import threading
import time
import types
import warnings

import numpy as np
import pytest

import ngroupoid.lean as lean_module
import ngroupoid.skeleton as skeleton_module
import scalar_reference as ref
from ngroupoid import analysis, cli, errors, matrices
from ngroupoid.analysis import (
    PERTURBATION,
    is_conservative,
    random_composable_chain,
    random_conservative,
)
from ngroupoid.errors import FormatError
from ngroupoid.hypercube import Edge
from ngroupoid.lean import _in_child, read_in_child
from ngroupoid.skeleton import (
    ObjectiveSkeleton,
    compose,
    dump_skeleton,
    load_skeleton,
    save_skeleton,
    skeleton_from_parts,
    skeleton_to_dict,
)

from test_bit_identity import LABELS
from test_cli import run_python

SPLIT_N = 11  # the smallest n whose halves hold _SPLIT_ITEMS edge records each


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


def failing_fork(monkeypatch):
    """Make every os.fork in this process start a child that fails at once."""
    fork = os.fork

    def failing_child():
        pid = fork()
        if pid == 0:
            os._exit(3)
        return pid

    monkeypatch.setattr(os, "fork", failing_child)


def read_every_file_in_a_child(monkeypatch):
    """Make read_in_child fork for every file, as in a process that has not loaded numpy yet."""
    monkeypatch.setattr(lean_module, "_LEAN_BYTES", 0)
    monkeypatch.setattr(lean_module, "sys", types.SimpleNamespace(modules={}))


@pytest.fixture(scope="module")
def cube12():
    return random_conservative(12, seed=12)


def test_split_starts_at_the_smallest_n_that_halves_into_split_records(forks):
    assert (SPLIT_N * 2 ** (SPLIT_N - 1)) // 2 >= lean_module._SPLIT_ITEMS
    assert ((SPLIT_N - 1) * 2 ** (SPLIT_N - 2)) // 2 < lean_module._SPLIT_ITEMS
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
    failing_fork(monkeypatch)
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


def test_child_error_is_raised_here_without_a_rerun():
    calls = []

    def fails():
        calls.append(1)  # in the child, this list is the child's copy
        raise FormatError("second file")

    with pytest.raises(FormatError, match="second file"):
        with _in_child(fails) as result:
            result()
    assert calls == [] and no_children_left()


class Unloadable:
    """A value that pickles, but whose unpickling raises."""

    def __reduce__(self):
        return int, ("no number",)


def test_outcome_that_does_not_unpickle_runs_here():
    calls = []

    def unloadable():
        calls.append(1)
        return Unloadable()

    with _in_child(unloadable) as result:
        assert isinstance(result(), Unloadable)
    assert calls == [1] and no_children_left()


def every_error():
    """One instance of each exception class in ngroupoid.errors."""
    for cls in vars(errors).values():
        if isinstance(cls, type) and issubclass(cls, Exception) \
                and cls.__module__ == errors.__name__:
            args = (Edge(0, 1), 1, "X", "Y") if cls is errors.ConstructionHalted else ("why",)
            yield pytest.param(cls(*args), id=cls.__name__)


@pytest.mark.parametrize("exc", every_error())
def test_every_error_survives_the_pipe(exc):
    # a child's exception comes back pickled; one that did not unpickle would be run again here
    back = pickle.loads(pickle.dumps(exc))
    assert (type(back), str(back), vars(back)) == (type(exc), str(exc), vars(exc))


def read_as_check(path):
    """The skeleton at path as check builds it, from read_in_child's getter."""
    with read_in_child(path) as read:
        return skeleton_from_parts(*read())


@pytest.mark.parametrize("load", [load_skeleton, read_as_check],
                         ids=["load_skeleton", "read_as_check"])
def test_one_weight_check_per_file(monkeypatch, tmp_path, load):
    a = tmp_path / "a.json"
    save_skeleton(random_conservative(3, seed=1), str(a))
    calls = []
    first_invalid = matrices.first_invalid

    def counted(ms):
        calls.append(len(ms))
        return first_invalid(ms)

    monkeypatch.setattr(matrices, "first_invalid", counted)
    monkeypatch.setattr(skeleton_module, "first_invalid", counted)
    load(str(a))
    assert calls == [12]


def test_compose_reads_both_files_in_children(monkeypatch, forks, run_cli, tmp_path):
    A, B = random_composable_chain(3, 1, 2, seed=4)
    a, b, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "ab.json"
    save_skeleton(A, str(a))
    save_skeleton(B, str(b))
    read_every_file_in_a_child(monkeypatch)
    assert run_cli("compose", a, b, "--axis", 1, "--out", out) == (0, "")
    assert out.read_text(encoding="utf-8") == ref.dump_skeleton(compose(B, A, 1))
    assert len(forks) == 2 and no_children_left()


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
    assert run_cli("check", a)[0] == 0  # numpy is loaded: one child checks half the faces
    assert no_children_left()
    assert run_cli("check", tmp_path / "missing.json") == (2, "")
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
    # a subprocess, because only the interpreter's own exit shows what a child printed;
    # these files are small, so only the second entry reads them in children
    every_file_in_a_child = ("import ngroupoid.lean\n"
                             "ngroupoid.lean._LEAN_BYTES = 0\n"
                             "from ngroupoid.__main__ import main\n"
                             "main()\n")
    for entry in (["-m", "ngroupoid"], ["-c", every_file_in_a_child]):
        proc = run_python([*entry, "compose", str(compose_inputs[first]),
                           str(compose_inputs[second]), "--axis", "1"], compose_inputs["a"].parent)
        assert (proc.returncode, proc.stdout) == (2, ""), entry
        assert proc.stderr == "error: " + message.format(bad_json=compose_inputs["bad_json"]) + "\n"


# -- check and compose: readers forked before numpy loads, the face check in two halves --

def with_weights(T, weight) -> dict:
    """T's document with every weight w replaced by weight(w), a list of 9 floats."""
    doc = skeleton_to_dict(T)
    for rec in doc["edges"]:
        rec["weight"] = weight(rec["weight"])
    return doc


def integer_weights(T) -> dict:
    """Integer weights; a few beyond 2**53, where the reader has to round them to float64."""
    doc = with_weights(T, lambda w: [round(x * 2**30) for x in w])
    doc["edges"][0]["weight"][:3] = [2**60 + 1, -(2**64 + 3), 2**700 + 1]
    return doc


def spoiled(T, edit) -> dict:
    doc = skeleton_to_dict(T)
    edit(doc)
    return doc


T3 = random_conservative(3, seed=5)

# name -> the content of the file check reads: a document, raw text, or None for no file
CHECK_INPUTS = {
    "n1": skeleton_to_dict(random_conservative(1, seed=1)),
    "n3": skeleton_to_dict(T3),
    "n3-perturbed": skeleton_to_dict(analysis.perturb_edge(T3, seed=1)[0]),
    "nested-3x3-weights": with_weights(T3, lambda w: [w[:3], w[3:6], w[6:]]),
    "integer-weights": integer_weights(T3),
    "integer-above-1e308": spoiled(T3, lambda d: d["edges"][4]["weight"].__setitem__(2, 10**309)),
    "nan-weight": spoiled(T3, lambda d: d["edges"][4]["weight"].__setitem__(2, float("nan"))),
    "bool-weight": spoiled(T3, lambda d: d["edges"][4]["weight"].__setitem__(2, True)),
    "duplicate-record": spoiled(T3, lambda d: d["edges"].insert(3, dict(d["edges"][0]))),
    "nested-and-escaped-labels": skeleton_to_dict(ObjectiveSkeleton(3, LABELS[2] + LABELS[3], T3.W)),
    "n13": {"n": 13, "vertices": list(range(2**13)),  # whole, but above the cap
            "edges": [{"tail": t, "axis": a, "weight": np.eye(3).ravel().tolist()}
                      for t in range(2**13) for a in range(1, 14) if not t >> (13 - a) & 1]},
    "missing-file": None,
    "bad-json": "{nope",
    # of _LEAN_BYTES or more, so that a reading child raises their errors
    "large-not-utf8": b"\xff\xfe" + b" " * (1 << 19),
    "large-deep-nesting": b"[" * 300_000 + b"]" * 300_000,
}
# the inputs check rejects
INPUT_ERRORS = {"integer-above-1e308", "nan-weight", "bool-weight", "duplicate-record", "n13",
                "missing-file", "bad-json", "large-not-utf8", "large-deep-nesting"}


@pytest.fixture(scope="module")
def check_files(tmp_path_factory):
    """The CHECK_INPUTS as files, an n=12 file whose face check fails in both halves,
    and all-unit files over one label at n=3 and n=12, each composable with itself."""
    directory = tmp_path_factory.mktemp("check")
    paths = {name: directory / f"{name}.json" for name in [*CHECK_INPUTS, "n12"]}
    for name, content in CHECK_INPUTS.items():
        if isinstance(content, bytes):
            paths[name].write_bytes(content)
        elif content is not None:
            text = content if isinstance(content, str) else json.dumps(content)
            paths[name].write_text(text, encoding="utf-8")
    T = random_conservative(12, seed=3)
    W = T.W.copy()
    W[[0, -1]] = PERTURBATION @ W[[0, -1]]  # one edge among the first squares, one the last
    save_skeleton(ObjectiveSkeleton(12, T.vertices, W), str(paths["n12"]))
    for n in (3, 12):
        paths[f"units{n}"] = directory / f"units{n}.json"
        units = np.tile(np.eye(3), (n << (n - 1), 1, 1))
        save_skeleton(ObjectiveSkeleton(n, ["X"] * 2**n, units), str(paths[f"units{n}"]))
    return paths


def run_verb(argv, out) -> tuple[int, str, str, bytes | None]:
    """A verb in process: exit code, stdout, stderr and the --out bytes, if written."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([*map(str, argv), "--out", str(out)])
    report = out.read_bytes() if out.exists() else None
    if report is not None:
        out.unlink()
    return code, stdout.getvalue(), stderr.getvalue(), report


@pytest.mark.parametrize("fork", ["fork", "no-fork", "failing-child"])
@pytest.mark.parametrize("name", [*CHECK_INPUTS, "n12"])
def test_check_matches_load_skeleton_in_one_process(monkeypatch, tmp_path, check_files,
                                                    name, fork):
    # the file read by check, and by compose in first and in second position; without
    # a working fork, every verb falls back on the same code in _in_child
    path, good, out = check_files[name], check_files["n3"], tmp_path / "out.json"
    runs = [["check", path]]
    if fork == "fork":
        runs += [["compose", path, good, "--axis", 1], ["compose", good, path, "--axis", 1]]
    # with numpy loaded, read_in_child's getter reads each file here, as load_skeleton does
    want = [run_verb(argv, out) for argv in runs]
    read_every_file_in_a_child(monkeypatch)
    if fork == "no-fork":
        monkeypatch.delattr(os, "fork")
    elif fork == "failing-child":
        failing_fork(monkeypatch)
    assert [run_verb(argv, out) for argv in runs] == want
    assert no_children_left()
    assert [code == 2 for code, *_ in want] == [name in INPUT_ERRORS] * len(runs)


def ref_read(path):
    """The file at path by the oracle reader, or the text of its FormatError."""
    try:
        return ref.skeleton_from_dict(errors.read_json(path))
    except FormatError as exc:
        return str(exc)


def test_check_decides_every_file_from_the_childs_bytes(monkeypatch, check_files):
    read_every_file_in_a_child(monkeypatch)
    for name in [name for name, content in CHECK_INPUTS.items() if content is not None]:
        path = str(check_files[name])  # a file, so a child reads it
        want = ref_read(path)
        with read_in_child(path) as read, monkeypatch.context() as m:  # no second parse here
            m.setattr(errors, "read_json", None)
            m.setattr(lean_module, "read_json", None)
            m.setattr(skeleton_module, "read_json", None)
            try:
                got = skeleton_from_parts(*read())
            except FormatError as exc:
                got = str(exc)
        assert isinstance(got, str) == (name in INPUT_ERRORS), name
        assert got == want, name
        if not isinstance(got, str):
            assert got.W.tobytes() == want.W.tobytes() and not got.W.flags.writeable


@pytest.fixture
def parses(monkeypatch, tmp_path):
    """A list of the files read_json has parsed so far, here and in forked children."""
    log, read_json = tmp_path / "parses.log", errors.read_json

    def logged(path):
        with open(log, "a", encoding="utf-8") as fh:  # one short append per call
            fh.write(f"{path}\n")
        return read_json(path)

    monkeypatch.setattr(lean_module, "read_json", logged)
    monkeypatch.setattr(skeleton_module, "read_json", logged)
    return lambda: log.read_text(encoding="utf-8").splitlines() if log.exists() else []


@pytest.mark.parametrize("fork", ["fork", "no-fork", "failing-child"])
def test_each_verb_parses_each_skeleton_file_once(monkeypatch, tmp_path, check_files, parses,
                                                  fork):
    read_every_file_in_a_child(monkeypatch)
    if fork == "no-fork":
        monkeypatch.delattr(os, "fork")
    elif fork == "failing-child":
        failing_fork(monkeypatch)
    other, out = str(check_files["units3"]), tmp_path / "out.json"
    for name in [*CHECK_INPUTS, "n12"]:
        path = str(check_files[name])
        for argv in (["check", path], ["compose", path, other, "--axis", 1],
                     ["compose", other, path, "--axis", 1]):
            done = len(parses())
            run_verb(argv, out)
            seen = collections.Counter(parses()[done:])
            first, *rest = argv[1:-2] if argv[0] == "compose" else argv[1:]
            # where the first file fails, its error ends the verb before the second is built
            dropped = first == path and name in INPUT_ERRORS
            assert seen[first] == 1, (name, argv)
            assert all(seen[f] in ({0, 1} if dropped else {1}) for f in rest), (name, argv)
            assert sum(seen.values()) == len(seen), (name, argv)
    assert no_children_left()


@pytest.mark.parametrize("argv, seen", [
    # the reader, then the second half of the face check
    pytest.param(["check", "n12"], "[False, True, 1]", id="n12-[False, True, 1]"),
    # below _LEAN_BYTES: read in this process
    pytest.param(["check", "n3"], "[0]", id="n3-[0]"),
    # both readers, then the second half of the writer's edge records
    pytest.param(["compose", "units12", "units12"], "[False, False, True, 0]",
                 id="compose-units12-[False, False, True, 0]"),
    pytest.param(["compose", "units3", "units3"], "[0]", id="compose-units3-[0]"),
    # parsing --tol loads no numpy, so the readers still fork
    pytest.param(["check", "n12", "--tol", "1e-9"], "[False, True, 1]",
                 id="n12-tol-[False, True, 1]"),
    pytest.param(["compose", "units12", "units12", "--tol", "1e-9"], "[False, False, True, 0]",
                 id="compose-units12-tol-[False, False, True, 0]"),
])
def test_check_forks_its_reader_before_numpy_loads(check_files, tmp_path, argv, seen):
    # a fresh interpreter, since this one has numpy loaded already
    code = ("import os, sys\n"
            "fork, seen = os.fork, []\n"
            "def recorded():\n"
            "    seen.append('numpy' in sys.modules)\n"
            "    return fork()\n"
            "os.fork = recorded\n"
            "from ngroupoid.cli import main\n"
            "seen.append(main(sys.argv[1:]))\n"
            "print(seen, file=sys.stderr)\n")
    verb, *rest = argv
    extra = ["--axis", "1", "--out", str(tmp_path / "out.json")] if verb == "compose" else []
    proc = run_python(["-c", code, verb, *(str(check_files.get(a, a)) for a in rest), *extra],
                      tmp_path)
    assert proc.stderr.splitlines()[-1] == seen


def test_check_with_numpy_loaded_forks_only_for_the_face_check(forks, check_files, capsys):
    assert cli.main(["check", str(check_files["n12"])]) == 1
    assert len(forks) == 1 and no_children_left()


@pytest.fixture(scope="module")
def cube12_perturbed(cube12):
    """cube12 with one edge perturbed among the first squares, one among the last, and both."""
    out = []
    for rows in ([0], [-1], [0, -1]):
        W = cube12.W.copy()
        W[rows] = PERTURBATION @ W[rows]
        out.append(ObjectiveSkeleton(12, cube12.vertices, W))
    return out


def test_split_face_check_matches_one_batch(monkeypatch, forks, cube12, cube12_perturbed):
    half = len(cube12.skel.squares[0]) // 2
    assert half >= lean_module._SPLIT_ITEMS
    for T in [cube12, *cube12_perturbed]:
        split = is_conservative(T)
        with monkeypatch.context() as one_batch:
            one_batch.setattr(lean_module, "_SPLIT_ITEMS", half + 1)
            whole = is_conservative(T)
        assert split.verdict == whole.verdict
        assert split.max_deviation == whole.max_deviation
        assert [(w.corner, w.axes, w.deviation) for w in split.witnesses] == \
            [(w.corner, w.axes, w.deviation) for w in whole.witnesses]
        assert all(np.array_equal(a.holonomy, b.holonomy)
                   for a, b in zip(split.witnesses, whole.witnesses))
    assert len(forks) == 4 and no_children_left()
    corners = [{w.corner < cube12.skel.squares[0][half] for w in is_conservative(T).witnesses}
               for T in cube12_perturbed]
    assert corners == [{True}, {False}, {True, False}]  # witnesses in the first, second, both halves


def test_face_check_splits_from_n10(forks):
    for n in (9, 10):
        assert is_conservative(random_conservative(n, seed=n)).verdict
    assert len(forks) == 1  # at n=10, not at n=9
