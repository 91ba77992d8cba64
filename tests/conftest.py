import io
import contextlib
import pathlib

import numpy as np
import pytest
from hypothesis import settings

from ngroupoid.cli import main

DATA = pathlib.Path(__file__).parent / "data"

# every @given test draws the same examples on every run, from a seed fixed per test
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture
def data_dir() -> pathlib.Path:
    return DATA


@pytest.fixture
def run_cli():
    """Invoke the CLI in-process; returns (exit_code, stdout_text)."""

    def run(*argv: str) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([str(a) for a in argv])
        return code, out.getvalue()

    return run


@pytest.fixture(params=[[0, 1, 2, 3], [2, 0, 1, 3]], ids=["I-first", "R180-first"])
def z4_order_case(request):
    """A mixture document over cyclic_z_4, in the given group order, and a weight X -> Y.

    K_Y stretches z so far that the four arrows X -> Y lie within 0.03 of
    each other.  The weight lies 0.035 from the arrow of R180 and 0.064 from
    that of I, so at tolerance 0.05 it is an arrow in either order.
    """
    r90 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    z4 = [np.linalg.matrix_power(r90, k).ravel().tolist() for k in range(4)]
    ky = np.diag([1.0, 1.0, 100.0])
    doc = {"n": 1, "base_points": ["X", "Y"], "tolerance": 0.05,
           "constituents": [{"name": "a", "symmetry": [z4[i] for i in request.param],
                             "implants": {"X": z4[0], "Y": ky.ravel().tolist()}}]}
    return doc, ky @ np.diag([-3.5, -3.5, 1.0])
