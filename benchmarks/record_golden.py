"""Record the golden stdout digests that relations-n3 compares every run against.

Runs ``python -m kquadric verify --n N --seed S`` as a separate process for
each N and S and writes the sha256, the byte count and the instances per
relation kind of its stdout to golden_verify.json.  Run it from the root of a
checkout whose CLI output is the reference:

    python3 benchmarks/record_golden.py

Re-recording is a deliberate change of the CLI contract; say why when you do.
"""
from __future__ import annotations

import collections
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = {2: range(16), 3: range(16)}


def record(n: int, seed: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    stdout = subprocess.run(
        [sys.executable, "-m", "kquadric", "verify", "--n", str(n), "--seed", str(seed)],
        env=env, cwd=ROOT, capture_output=True, check=True, timeout=600,
    ).stdout
    report = json.loads(stdout)
    if report["summary"]["fail"]:
        raise SystemExit(f"verify --n {n} --seed {seed} reports failures; not recording it")
    kinds = collections.Counter(check["kind"] for check in report["checks"])
    return {
        "sha256": hashlib.sha256(stdout).hexdigest(),
        "bytes": len(stdout),
        "instances": dict(sorted(kinds.items())),
    }


def main() -> None:
    golden = {str(n): {str(s): record(n, s) for s in seeds} for n, seeds in SEEDS.items()}
    path = Path(__file__).with_name("golden_verify.json")
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
