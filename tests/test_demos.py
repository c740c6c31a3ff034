"""Each demo script prints exactly what it printed when its hash was recorded.

The demos narrate the library's results (bases, decompositions, relation
reports), so a change of any printed byte is a change of behaviour.  The
hashes are of stdout; stderr must stay empty.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kquadric

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = Path(kquadric.__file__).resolve().parents[1]

STDOUT_SHA256 = {
    "01_graphs_and_weights.py": "817c219483ed1eead887ae7175a97ca2461c945eaaf6883cb1d994857842888b",
    "02_generator_classes.py": "b40e7d31bcc34cc3f6d5571ca7bc616e5ce64ab742ad9ce88e41f221d29a7851",
    "03_relations.py": "56c40b68743a1feabb01a9d0abdf0a08ac5bbf4433c95ed187dbc006864e0ebf",
    "04_decomposition.py": "df4e5e041d89f6866a71791537f8d4d987db525d743c1596904703507f2b03bf",
}


def test_every_demo_has_a_hash():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_stdout_is_unchanged(name):
    result = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=300,
    )
    assert result.returncode == 0, result.stderr.decode()
    assert result.stderr == b""
    assert hashlib.sha256(result.stdout).hexdigest() == STDOUT_SHA256[name]
