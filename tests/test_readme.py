import pathlib
import re
import shlex
import shutil

from ngroupoid.analysis import random_composable_chain
from ngroupoid.skeleton import save_skeleton

README = pathlib.Path(__file__).parent.parent / "README.md"
FIGURE = r"\d\.\d{3}e[+-]\d{2}"  # a deviation as the CLI prints it


def test_library_example_runs(tmp_path, data_dir, monkeypatch, capsys):
    # the code block of the README's "## Library" section, run as written
    section = README.read_text().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    shutil.copy(data_dir / "mixture_rotated.json", tmp_path / "mixture.json")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out == ["True 0.0", "False [('X', 'Y'), ('Y', 'X')]"]


def transcripts() -> list[tuple[list[str], list[str], int]]:
    """Each ``$ ngroupoid ...`` line of "## Command line": its argv, the lines
    shown below it and the exit code its ``# exit code N`` comment gives (else 0).
    """
    section = README.read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    runs = []
    for block in re.findall(r"```sh\n(.*?)```", section, re.S):
        for line in block.splitlines():
            if line.startswith("$ "):
                command, _, comment = line[2:].partition("#")
                code = re.fullmatch(r" exit code (\d+)", comment)
                runs.append((shlex.split(command), [], int(code.group(1)) if code else 0))
            else:
                runs[-1][1].append(line)
    return runs


def shows(shown: str, line: str) -> bool:
    """Whether a printed line is the one shown; a shown line whose comment names
    LAPACK has figures that vary with the machine, so only their format counts.
    """
    text, _, note = shown.partition("   # ")
    if "LAPACK" not in note:
        return line == shown
    pattern = FIGURE.join(map(re.escape, re.split(FIGURE, text)))
    return re.fullmatch(pattern, line) is not None


def test_command_line_transcripts(tmp_path, data_dir, monkeypatch, run_cli):
    # every command of the section, in order, in one directory
    shutil.copy(data_dir / "mixture_rotated.json", tmp_path / "mixture.json")
    for name, T in zip(("first", "second"), random_composable_chain(3, 1, 2, seed=7)):
        save_skeleton(T, str(tmp_path / f"{name}.json"))
    monkeypatch.chdir(tmp_path)
    runs = transcripts()
    assert [argv[:2] for argv, _, _ in runs] == [
        ["ngroupoid", verb] for verb in ["skeleton"] * 3 + ["generate"] * 2 + ["check"] * 2
        + ["uniformity", "verify-theorem", "compose"]]
    for argv, shown, code in runs:
        got, out = run_cli(*argv[1:])
        lines = out.splitlines()
        if "..." in shown:  # the lines above it, then more
            shown = shown[:shown.index("...")]
            assert len(lines) > len(shown), argv
            lines = lines[:len(shown)]
        assert len(lines) == len(shown), (argv, lines)
        assert all(map(shows, shown, lines)), (argv, lines)
        assert got == code, argv
    assert (tmp_path / "glued.json").exists()
