"""tools/bench_pairs.py on a stubbed two-pair run: no checkout, no benchmark process."""
import ast
import importlib.util
import json
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

    def run_benchmark(root, workload, seed, seconds, trace):
        side = "head" if root == bench_pairs.ROOT else "base"
        calls.append((side, workload, seed, seconds, trace))
        if trace:
            return {"correct": True, "attempted": 4, "failed": 0, "metrics": {"laurent.div.calls": 7}}
        k = sum(1 for call in calls if call[0] == side and call[4] == 0)  # this side's run count, from 1
        items = (100.0, 104.0)[k - 1] if side == "base" else (120.0, 90.0)[k - 1]
        metrics = {"items_per_s": items, "item_p50_ms": 4.0 if side == "base" else 3.0,
                   "item_p90_ms": 50.0, "peak_rss_mb": 30.0, "setup_s": 0.05}
        return {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "checkout", lambda ref, into: checked_out.append(ref))
    monkeypatch.setattr(bench_pairs, "run_benchmark", run_benchmark)
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["HEAD", "--out", str(out), "--workloads", "decompose-n4",
                             "--seeds", "3", "--pairs", "2", "--seconds", "1.5"]) == 0

    assert checked_out == ["HEAD"]
    # Pair 0 runs the base first, pair 1 the head; then one traced run per side.
    assert calls == [("base", "decompose-n4", 3, 1.5, 0), ("head", "decompose-n4", 3, 1.5, 0),
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


def test_default_workloads_are_the_benchmark_s(bench_pairs, monkeypatch, tmp_path):
    calls = []

    def run_benchmark(root, workload, seed, seconds, trace):
        calls.append((workload, trace))
        metrics = {"items_per_s": 1.0, "item_p50_ms": 1.0, "item_p90_ms": 1.0, "peak_rss_mb": 1.0, "setup_s": 1.0}
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "checkout", lambda ref, into: None)
    monkeypatch.setattr(bench_pairs, "run_benchmark", run_benchmark)
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["HEAD", "--out", str(out), "--pairs", "1"]) == 0
    spec = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    assert list(json.loads(out.read_text())["workloads"]) == names
    assert calls == [(name, trace) for name in names for trace in (0, 0, 1, 1)]
