"""Tests of the benchmark itself, on tiny inputs (n = 2).

They show that every workload runs clean, that its checks are not vacuous
(a mislabeled input counts as a failure), that a traced run's counts repeat
exactly and leave kquadric unpatched, that latencies are scaled by the
reference times around them, and that a directory without the program is
refused.
"""
import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

import run
from tracing import PER_LAYER_METRICS, Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
COUNT_METRICS = [name for name, unit in PER_LAYER_METRICS if unit == "count"]

run.import_kquadric()


def tiny(name: str, seed: int = 3):
    return WORKLOADS[name](seed, n=2)


def mislabel(request) -> None:
    """Make the expected output of one request wrong."""
    if request.kind == "verify":
        request.expected = dict(request.expected, sha256="0" * 64)
    elif request.kind.startswith("coefficients"):
        request.expected = (request.expected[0] + 1,) + request.expected[1:]
    else:
        label, edges, vm = request.expected
        request.expected = (not label, edges, vm)


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == [name for name, _ in PER_LAYER_METRICS]


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_run_passes(name):
    workload = tiny(name)
    metrics, m, _ = run.end_to_end(workload, seconds=0.05)
    assert m.failed == 0
    assert len(m.latencies) >= workload.min_requests
    assert list(metrics) == [entry["name"] for entry in SPEC["end_to_end"]]
    assert all(entry["value"] > 0 for entry in metrics.values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_mislabeled_input_counts_as_failure(name):
    workload = tiny(name)
    ctx = workload.setup()
    requests = list(islice(workload.requests(ctx), 2))
    assert run.measure(workload, ctx, requests).failed == 0
    mislabel(requests[0])
    m = run.measure(workload, ctx, requests)
    assert m.failed == 1
    assert m.failed / len(m.latencies) > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_counts_repeat_exactly(name):
    from kquadric import cli, laurent

    mul, dump = laurent.LaurentPolynomial.__dict__["__mul__"], cli._dump
    first, m1, details = run.traced(tiny(name), seconds=1)
    second, m2, _ = run.traced(tiny(name), seconds=1)
    assert m1.failed == m2.failed == 0
    assert {k: first[k]["value"] for k in COUNT_METRICS} == {
        k: second[k]["value"] for k in COUNT_METRICS
    }
    assert list(first) == [entry["name"] for entry in SPEC["per_layer"]]
    assert first["laurent.mul.calls"]["value"] > 0
    assert 0 < first["trace.overhead_ratio"]["value"]
    assert all(edge["self_s"] <= edge["total_s"] for edge in details["span_edges"])
    assert laurent.LaurentPolynomial.__dict__["__mul__"] is mul and cli._dump is dump


def test_latencies_are_scaled_by_the_references_around_them():
    nominal = run.REFERENCE_NOMINAL_S
    m = run.Measurement(
        latencies=[1.0, 1.0, 1.0],
        starts=[1.0, 2.0, 3.0],
        probes=[(0.5, nominal), (2.5, 2 * nominal), (3.5, 2 * nominal)],
    )
    assert m.scaled() == pytest.approx([2 / 3, 2 / 3, 1 / 2])


def test_tracer_skips_a_binding_that_does_not_exist():
    class Owner:
        pass

    tracer = Tracer()
    tracer._wrap(Owner, "absent", "layer.absent")
    tracer.uninstall()
    assert not hasattr(Owner, "absent")


def test_directory_without_the_program_is_refused(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "kcheck-n4",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
