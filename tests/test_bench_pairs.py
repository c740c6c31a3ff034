"""tools/bench_pairs.py on stubbed runs (no checkout, no benchmark process), and its
working-tree snapshot of a scratch repository."""
import ast
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tool_imports_nothing_from_the_package():
    imported = set()
    for node in ast.walk(ast.parse(TOOL.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert not any(name.split(".")[0] == "kquadric" for name in imported)


def test_stubbed_two_pair_run(bench_pairs, monkeypatch, tmp_path):
    calls = []
    checked_out = []
    snapshots = []

    def run_benchmark(root, workload, seed, seconds, trace, env):
        side = "head" if root in snapshots else "base"
        calls.append((side, workload, seed, seconds, trace))
        if workload == "all":
            return {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}
        if trace:
            return {"correct": True, "attempted": 4, "failed": 0, "metrics": {"laurent.div.calls": 7}}
        k = sum(1 for call in calls if call[0] == side and call[1] != "all" and call[4] == 0)  # this side's run count, from 1
        items = (100.0, 104.0)[k - 1] if side == "base" else (120.0, 90.0)[k - 1]
        metrics = {"items_per_s": items, "item_p50_ms": 4.0 if side == "base" else 3.0,
                   "item_p90_ms": 50.0, "peak_rss_mb": 30.0, "setup_s": 0.05}
        return {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "checkout", lambda ref, into: checked_out.append((ref, into)))
    monkeypatch.setattr(bench_pairs, "snapshot", snapshots.append)
    monkeypatch.setattr(bench_pairs, "run_benchmark", run_benchmark)
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["HEAD", "--out", str(out), "--workloads", "decompose-n4",
                             "--seeds", "3", "--pairs", "2", "--seconds", "1.5"]) == 0

    # The head runs a snapshot beside the base checkout, never the working tree.
    (ref, base_root), = checked_out
    (head_root,) = snapshots
    assert ref == "HEAD" and head_root.parent == base_root.parent and head_root != base_root
    assert not head_root.is_relative_to(bench_pairs.ROOT)
    # One warm-up run per side; pair 0 runs the base first, pair 1 the head;
    # then one traced run per side.
    warm_up = bench_pairs.WARM_UP_S
    assert calls == [("base", "all", 3, warm_up, 0), ("head", "all", 3, warm_up, 0),
                     ("base", "decompose-n4", 3, 1.5, 0), ("head", "decompose-n4", 3, 1.5, 0),
                     ("head", "decompose-n4", 3, 1.5, 0), ("base", "decompose-n4", 3, 1.5, 0),
                     ("base", "decompose-n4", 3, 1.5, 1), ("head", "decompose-n4", 3, 1.5, 1)]

    record = json.loads(out.read_text())
    assert record["seconds"] == 1.5 and record["pairs_per_seed"] == 2
    entry = record["workloads"]["decompose-n4"]
    pairs = entry["seeds"]["3"]["pairs"]
    assert [pair["first"] for pair in pairs] == ["base", "head"]
    assert [pair["base"]["metrics"]["items_per_s"] for pair in pairs] == [100.0, 104.0]
    assert [pair["head"]["metrics"]["items_per_s"] for pair in pairs] == [120.0, 90.0]

    summary = entry["seeds"]["3"]["summary"]
    items = summary["items_per_s"]
    assert items["better"] == "higher"
    assert items["base_median"] == 102.0 and items["head_median"] == 105.0
    assert items["ratio"] == pytest.approx(105 / 102)
    assert items["base_iqr"] == pytest.approx(2.0) and items["head_iqr"] == pytest.approx(15.0)
    assert items["head_wins"] == 1 and items["pairs"] == 2
    assert items["median_gain_exceeds_base_iqr"] is True  # 3.0 > 2.0
    p50 = summary["item_p50_ms"]
    assert p50["better"] == "lower" and p50["head_wins"] == 2 and p50["base_iqr"] == 0.0
    assert summary["peak_rss_mb"]["head_wins"] == 0  # a tie wins nothing
    assert entry["traced"]["seed"] == 3
    assert entry["traced"]["base"]["metrics"] == {"laurent.div.calls": 7}


def test_both_sides_read_bytecode_alike(bench_pairs, monkeypatch, tmp_path):
    envs = []

    def run_benchmark(root, workload, seed, seconds, trace, env):
        envs.append((root.name, workload, env))
        metrics = {"items_per_s": 1.0, "item_p50_ms": 1.0, "item_p90_ms": 1.0, "peak_rss_mb": 1.0, "setup_s": 1.0}
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}

    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr(bench_pairs, "checkout", lambda ref, into: None)
    monkeypatch.setattr(bench_pairs, "snapshot", lambda into: None)
    monkeypatch.setattr(bench_pairs, "run_benchmark", run_benchmark)
    assert bench_pairs.main(["HEAD", "--out", str(tmp_path / "pairs.json"), "--workloads", "kcheck-n4",
                             "--pairs", "2"]) == 0

    # Each side warms its own cache, writing, before any measured run.
    (base_side, _, base_warm), (head_side, _, head_warm), *measured = envs
    assert [base_side, head_side] == ["base", "head"] and {w for _, w, _ in envs[:2]} == {"all"}
    cache = {"base": Path(base_warm["PYTHONPYCACHEPREFIX"]), "head": Path(head_warm["PYTHONPYCACHEPREFIX"])}
    assert cache["base"] != cache["head"] and cache["base"].parent == cache["head"].parent
    assert not cache["base"].is_relative_to(bench_pairs.ROOT)  # never the working tree's __pycache__
    assert base_warm["PYTHONDONTWRITEBYTECODE"] == head_warm["PYTHONDONTWRITEBYTECODE"] == ""
    # Every measured run, traced or not, reads its side's cache and writes nothing.
    assert len(measured) == 6 and {w for _, w, _ in measured} == {"kcheck-n4"}
    for side, _, env in measured:
        assert env["PYTHONPYCACHEPREFIX"] == str(cache[side])
    rest = [{k: v for k, v in env.items() if k != "PYTHONPYCACHEPREFIX"} for _, _, env in measured]
    assert rest[0]["PYTHONDONTWRITEBYTECODE"] == "1" and all(r == rest[0] for r in rest)


def test_default_workloads_are_the_benchmark_s(bench_pairs, monkeypatch, tmp_path):
    calls = []

    def run_benchmark(root, workload, seed, seconds, trace, env):
        calls.append((workload, trace))
        metrics = {"items_per_s": 1.0, "item_p50_ms": 1.0, "item_p90_ms": 1.0, "peak_rss_mb": 1.0, "setup_s": 1.0}
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "checkout", lambda ref, into: None)
    monkeypatch.setattr(bench_pairs, "snapshot", lambda into: None)
    monkeypatch.setattr(bench_pairs, "run_benchmark", run_benchmark)
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["HEAD", "--out", str(out), "--pairs", "1"]) == 0
    spec = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    assert list(json.loads(out.read_text())["workloads"]) == names
    assert calls == [("all", 0), ("all", 0)] + [(name, trace) for name in names for trace in (0, 0, 1, 1)]


def test_default_pairs_are_ten(bench_pairs, monkeypatch, tmp_path):
    def run_benchmark(root, workload, seed, seconds, trace, env):
        metrics = {"items_per_s": 1.0, "item_p50_ms": 1.0, "item_p90_ms": 1.0, "peak_rss_mb": 1.0, "setup_s": 1.0}
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "checkout", lambda ref, into: None)
    monkeypatch.setattr(bench_pairs, "snapshot", lambda into: None)
    monkeypatch.setattr(bench_pairs, "run_benchmark", run_benchmark)
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["HEAD", "--out", str(out), "--workloads", "kcheck-n4"]) == 0
    record = json.loads(out.read_text())
    assert record["pairs_per_seed"] == 10
    assert len(record["workloads"]["kcheck-n4"]["seeds"]["0"]["pairs"]) == 10


def test_snapshot_copies_the_working_tree_as_it_is(bench_pairs, monkeypatch, tmp_path):
    repo, into = tmp_path / "repo", tmp_path / "snapshot"
    (repo / "src").mkdir(parents=True)
    for name, text in {"src/edited.py": "old\n", "src/deleted.py": "x\n", ".gitignore": "*.log\n"}.items():
        (repo / name).write_text(text)
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "init.defaultBranch=main"]
    subprocess.run([*git, "init", "-q"], cwd=repo, check=True)
    subprocess.run([*git, "add", "-A"], cwd=repo, check=True)
    subprocess.run([*git, "commit", "-q", "-m", "c"], cwd=repo, check=True)
    (repo / "src/edited.py").write_text("new\n")
    (repo / "src/deleted.py").unlink()
    (repo / "src/added.py").write_text("added\n")
    (repo / "run.log").write_text("ignored\n")
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    bench_pairs.snapshot(into)
    copied = {str(path.relative_to(into)): path.read_text() for path in into.rglob("*") if path.is_file()}
    assert copied == {".gitignore": "*.log\n", "src/edited.py": "new\n", "src/added.py": "added\n"}
