import pathlib
import re
import shutil

README = pathlib.Path(__file__).parent.parent / "README.md"


def test_library_example_runs(tmp_path, data_dir, monkeypatch, capsys):
    # the code block of the README's "## Library" section, run as written
    section = README.read_text().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    shutil.copy(data_dir / "mixture_rotated.json", tmp_path / "mixture.json")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out == ["True 0.0", "False [('X', 'Y'), ('Y', 'X')]"]
