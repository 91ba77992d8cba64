"""Which module computes inverses and determinants.

The bits of LAPACK's inverse and determinant depend on the OpenBLAS kernel
that numpy picks at load, and the pinned digests hold those bits.  So
``matrices`` binds the two routines once, and no other package module names
``numpy.linalg``: a closed-form replacement then changes two bindings.
"""
import ast
import pathlib

import numpy as np

from ngroupoid import matrices

SOURCES = sorted(pathlib.Path(matrices.__file__).parent.glob("*.py"))


def linalg_uses(tree: ast.AST) -> list[int]:
    """Lines that name np.linalg or numpy.linalg: an attribute, an import or a from-import."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            hit = node.attr == "linalg" and isinstance(node.value, ast.Name) \
                and node.value.id in ("np", "numpy")
        elif isinstance(node, ast.ImportFrom):
            hit = (node.module or "").startswith("numpy.linalg") \
                or node.module == "numpy" and any(a.name == "linalg" for a in node.names)
        elif isinstance(node, ast.Import):
            hit = any(a.name.startswith("numpy.linalg") for a in node.names)
        else:
            continue
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


def test_only_matrices_names_numpy_linalg():
    assert "matrices.py" in [p.name for p in SOURCES]
    found = {p.name: linalg_uses(ast.parse(p.read_text(), str(p)))
             for p in SOURCES if p.name != "matrices.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_guard_sees_every_spelling():
    code = ("import numpy.linalg\nfrom numpy.linalg import inv\nfrom numpy import linalg\n"
            "np.linalg.det(m)\nnumpy.linalg.inv(m)\nla = np.linalg\n")
    assert linalg_uses(ast.parse(code)) == [1, 2, 3, 4, 5, 6]
    assert linalg_uses(ast.parse("from .matrices import inv\ninv(m)\nx.linalg\n")) == []


def test_matrices_binds_lapack_itself():
    # the same function objects: every bit and every timing as before
    assert matrices.inv is np.linalg.inv
    assert matrices.det is np.linalg.det
