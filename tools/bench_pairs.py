"""Run the benchmark in alternating pairs: a base commit against the working tree.

The base ref's committed files are extracted into a temporary directory
(`git archive`, so the repository's .git is left untouched), and the working
tree's `benchmarks/` is copied over the base's, so both sides run the same
harness, each on its own `src/`.  The head side runs a snapshot of the
working tree taken into the same directory at the start (every file git
tracks or would add, as it is on disk), so an edit made while the pairs run
reaches neither side.  For every workload and seed, N pairs of
`benchmarks/run.py --trace 0` runs follow (--pairs, 10 by default: the fewest
with which a gain can be claimed, as a win in at least nine of ten pairs);
pair 0 runs the base first, pair 1 the working tree first, and so on.  Then
one `--trace 1` run per side and workload (on the first seed) records the
per-layer metrics.  One benchmark process runs at a time.  --workloads
defaults to every workload that BENCHMARK.json lists.

Both sides load the same kind of bytecode.  Each side has its own cache
(PYTHONPYCACHEPREFIX) in the temporary directory, so a __pycache__ in a
checkout is never read; one short `--workload all` run per side fills it
before the first pair, and the measured runs only read it.  Otherwise the side
that compiles its modules on every run (as a `git archive` checkout does when
bytecode writing is off) reads a higher peak RSS.

The JSON written to --out holds every run's metrics and, per workload, seed
and end-to-end metric, both sides' medians and interquartile ranges
(statistics.quantiles, method "inclusive"), the ratio head/base of the
medians, and how many pairs the working tree won in the metric's better
direction (read from BENCHMARK.json; a tie wins nothing).

usage: python3 tools/bench_pairs.py BASE_REF --out FILE [--workloads W,...]
           [--seeds S,...] [--pairs N] [--seconds T]
"""
from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "head")
WARM_UP_S = 0.1  # each workload still runs its minimum number of requests


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def checkout(ref: str, into: Path) -> None:
    """The committed files of `ref` in `into`, with the working tree's benchmarks/."""
    archive = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT, capture_output=True, check=True)
    # The archive is the repository's own.  Its "data" filter exists from
    # Python 3.10.12 and 3.11.4 on; earlier releases extract unfiltered.
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into, **safe)
    shutil.rmtree(into / "benchmarks", ignore_errors=True)
    shutil.copytree(ROOT / "benchmarks", into / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))


def snapshot(into: Path) -> None:
    """The working tree's files in `into`: every file git tracks or would add
    (untracked and not ignored), with its contents as they are on disk."""
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        source = ROOT / name
        if name and source.is_file():  # a tracked file deleted in the working tree is left out
            target = into / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def bytecode_env(cache: Path, write: bool) -> dict[str, str]:
    """The environment of a run on one side: bytecode lives in `cache` and is
    written there only when `write` (an empty PYTHONDONTWRITEBYTECODE is unset)."""
    return {**os.environ, "PYTHONPYCACHEPREFIX": str(cache), "PYTHONDONTWRITEBYTECODE": "" if write else "1"}


def run_benchmark(root: Path, workload: str, seed: int, seconds: float, trace: int, env: dict[str, str]) -> dict:
    """One run of benchmarks/run.py in `root`: its last stdout line, parsed,
    with each metric reduced to its value."""
    command = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} in {root} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["metrics"] = {name: entry["value"] for name, entry in result["metrics"].items()}
    return result


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Medians, IQRs, ratio and head wins of every end-to-end metric over `pairs`."""
    summary = {}
    for name, direction in better.items():
        runs = {side: [pair[side]["metrics"][name] for pair in pairs] for side in SIDES}
        sign = 1 if direction == "higher" else -1
        medians = {side: statistics.median(values) for side, values in runs.items()}
        base_iqr = iqr(runs["base"])
        gain = sign * (medians["head"] - medians["base"])
        summary[name] = {
            "better": direction,
            "base_median": medians["base"],
            "head_median": medians["head"],
            "ratio": medians["head"] / medians["base"] if medians["base"] else None,
            "base_iqr": base_iqr,
            "head_iqr": iqr(runs["head"]),
            "head_wins": sum(sign * (h - b) > 0 for b, h in zip(runs["base"], runs["head"])),
            "pairs": len(pairs),
            "median_gain_exceeds_base_iqr": gain > base_iqr,
            "base_runs": runs["base"],
            "head_runs": runs["head"],
        }
    return summary


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base_ref")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="0")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    seeds = [int(s) for s in args.seeds.split(",")]
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    record = {
        "base": {"ref": args.base_ref, "commit": git("rev-parse", args.base_ref)},
        "head": {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))},
        "command": "python3 benchmarks/run.py --workload <w> --seed <s> --seconds <t> --trace <0|1>",
        "seconds": args.seconds,
        "pairs_per_seed": args.pairs,
        "method": "pair k runs the base first when k is even, the head first when k is odd; "
                  "both sides run the head's benchmarks/; the head is a snapshot of the working tree; "
                  "each side reads its own bytecode cache, "
                  "filled by one warm-up run before the first pair; one benchmark process at a time",
        "workloads": {},
    }
    # SIGTERM exits through the with block below, so the base checkout is removed
    # and subprocess.run kills the benchmark process it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as scratch:
        roots = {side: Path(scratch) / side for side in SIDES}
        snapshot(roots["head"])
        checkout(args.base_ref, roots["base"])
        caches = {side: Path(scratch) / "pycache" / side for side in SIDES}
        envs = {side: bytecode_env(caches[side], write=False) for side in SIDES}
        for side in SIDES:
            run_benchmark(roots[side], "all", seeds[0], WARM_UP_S, 0, bytecode_env(caches[side], write=True))
        for workload in workloads:
            entry = record["workloads"][workload] = {"seeds": {}}
            for seed in seeds:
                pairs = []
                for k in range(args.pairs):
                    order = SIDES if k % 2 == 0 else SIDES[::-1]
                    pair = {"first": order[0]}
                    for side in order:
                        pair[side] = run_benchmark(roots[side], workload, seed, args.seconds, 0, envs[side])
                        print(f"{workload} seed {seed} pair {k} {side}: "
                              f"items_per_s {pair[side]['metrics']['items_per_s']:.6g}", file=sys.stderr)
                    pairs.append(pair)
                entry["seeds"][str(seed)] = {"pairs": pairs, "summary": summarize(pairs, better)}
            entry["traced"] = {"seed": seeds[0]}
            for side in SIDES:
                entry["traced"][side] = run_benchmark(roots[side], workload, seeds[0], args.seconds, 1, envs[side])
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
