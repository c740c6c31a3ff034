"""The golden CLI corpus: fixed `kquadric` runs for n = 1..3 and their digests.

Each case runs `cli.main` in-process and records the sha256 and byte count of
stdout and of stderr, and the exit code.  `tests/test_golden_cli.py` requires
every case to reproduce `golden_cli.json` exactly, so a change to the Laurent
kernel, the classes or the emitters that alters any emitted byte fails there.

The `verify` cases cover every `--relations` filter at n = 1, 2, the family
bounds 0, 2 and 4 at n = 2, one `--pretty` report, and the default n = 3
report, so the relation sweep and its JSON emission are pinned byte for byte.

Inputs for `check` and `decompose` are either the stdout of an earlier `gen`
case, a hand-written indicator map (1 at vertex 1, 0 elsewhere, never a
K-class), or a seeded `random_k_class`.

Regenerate the file (only for an intended, documented output change) with

    PYTHONPATH=src python3 tests/golden_cli.py
"""
from __future__ import annotations

import hashlib
import io
import json
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden_cli.json")

NS = (1, 2, 3)


def _cases() -> list[tuple[str, list[str], str | None]]:
    """(name, argv, input) in run order; argv "@in" is replaced by the input's path."""
    from kquadric import QuadricGraph

    cases: list[tuple[str, list[str], str | None]] = []

    def add(argv, source=None):
        name = " ".join(argv) if source is None else " ".join(argv).replace("@in", f"<{source}>")
        cases.append((name, argv, source))

    for n in NS:
        ctx = QuadricGraph(n)
        top = str(ctx.vertex_count)
        add(["graph", "--n", str(n)])
        for kind in ("M", "Minv"):
            for v in ctx.vertices:
                add(["gen", "--n", str(n), "--class", kind, "--vertex", str(v)])
        for members in ctx.admissible_subsets():
            add(["gen", "--n", str(n), "--class", "Delta", "--subset", ",".join(map(str, sorted(members)))])
        for v in ctx.vertices:
            rest = [str(w) for w in ctx.vertices if w != v]
            add(["gen", "--n", str(n), "--class", "F", "--subset", ",".join(rest)])
        add(["gen", "--n", str(n), "--class", "F", "--subset", f"1,{top}"])  # refused: exit 2
        add(["gen", "--n", str(n), "--class", "X"])
        add(["gen", "--n", str(n), "--class", "basis"])

        delta = ",".join(map(str, sorted(ctx.admissible_subsets()[-1])))
        passing = [
            f"gen --n {n} --class M --vertex 1",
            f"gen --n {n} --class Minv --vertex {top}",
            f"gen --n {n} --class Delta --subset {delta}",
            f"gen --n {n} --class X",
            f"kclass:{n}:0",
            f"kclass:{n}:1",
        ]
        for source in passing:
            add(["check", "--n", str(n), "--in", "@in"], source)
            add(["decompose", "--n", str(n), "--in", "@in"], source)
        add(["check", "--n", str(n), "--in", "@in"], f"indicator:{n}")
        add(["decompose", "--n", str(n), "--in", "@in"], f"indicator:{n}")

    for n in (1, 2):
        for relations in ("all", "1", "2", "3", "4"):
            add(["verify", "--n", str(n), "--relations", relations])
    for bound in ("0", "2", "4"):
        add(["verify", "--n", "2", "--family-bound", bound])
    add(["verify", "--n", "2", "--relations", "1", "--family-bound", "2", "--pretty"])
    add(["verify", "--n", "3", "--seed", "0"])

    add(["selfcheck", "--max-n", "2"])
    add(["bogus"])
    add(["graph"])
    add(["gen", "--n", "1", "--class", "Q"])
    add(["gen", "--n", "2", "--class", "M"])
    add(["gen", "--n", "2", "--class", "Delta"])
    return cases


def _input_text(source: str, outputs: dict[str, str]) -> str:
    from kquadric import QuadricGraph
    from kquadric.decompose import random_k_class
    from kquadric.quadric import vertex_map_to_json_dict

    if source in outputs:
        return outputs[source]
    kind, *params = source.split(":")
    n = int(params[0])
    m = n + 1
    if kind == "indicator":
        values = {
            str(v): {"m": m, "terms": [{"exp": [0] * m, "coef": "1"}] if v == 1 else []}
            for v in range(1, 2 * n + 3)
        }
        return json.dumps({"n": n, "values": values})
    if kind == "kclass":
        ctx = QuadricGraph(n)
        vm = random_k_class(ctx, random.Random(int(params[1])))
        return json.dumps(vertex_map_to_json_dict(ctx, vm))
    raise ValueError(f"unknown input source {source!r}")


def _digest(text: str) -> dict:
    data = text.encode()
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def run_corpus() -> dict[str, dict]:
    """Every case's {"exit", "stdout", "stderr"} digests, keyed by case name."""
    from kquadric.cli import main

    results: dict[str, dict] = {}
    outputs: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "input.json")
        for name, argv, source in _cases():
            if source is not None:
                Path(path).write_text(_input_text(source, outputs), encoding="utf-8")
            argv = [path if a == "@in" else a for a in argv]
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            outputs[name] = out.getvalue()
            results[name] = {
                "exit": code,
                "stdout": _digest(out.getvalue()),
                "stderr": _digest(err.getvalue()),
            }
    return results


if __name__ == "__main__":
    corpus = run_corpus()
    GOLDEN_PATH.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(corpus)} cases to {GOLDEN_PATH}", file=sys.stderr)
