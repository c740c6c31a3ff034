"""Rules on the package source that no behavioural test can see.

Library invariants raise real exceptions: ``python -O`` strips ``assert``
statements, so a check written as one would vanish there.  Every module of
the package is parsed and searched for them.
"""
import ast
from pathlib import Path

import pytest

import kquadric

MODULES = sorted(Path(kquadric.__file__).resolve().parent.glob("*.py"))


def test_every_module_is_searched():
    assert {"__init__.py", "cli.py", "gkm.py", "laurent.py", "quadric.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} uses assert at lines {lines}; raise an exception instead"
