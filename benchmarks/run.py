"""kquadric benchmark: one workload per process, end-to-end or traced.

    python3 benchmarks/run.py --workload decompose-n4 --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20

Run it from the root of a checkout; it imports kquadric from ``src/`` there
and from nowhere else.  A single client runs a closed loop (no threads, no
pool): set-up is timed several times and its median reported, then requests
run until --seconds of request time have been measured (and at least the
workload's minimum number of requests).  Every output is checked exactly.
Times in the end-to-end metrics are scaled to a nominal machine speed by a
reference loop timed between requests (see REFERENCE_NOMINAL_S); the
unscaled metrics are in the details.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced pass over a fixed,
seed-determined request list, preceded by an untraced pass over the same list
that gives the tracing overhead.  The line before the last one holds the
details: input sizes, generation and check times, failures, span edges.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from time import perf_counter

from tracing import PER_LAYER_METRICS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Set-up is timed at SETUP_POINTS points spread over the run (before the first
# request, then after each further 1/SETUP_POINTS of the request time), so its
# median sees the same machine as the requests.  At each point it is repeated
# until SETUP_BURST_S has been spent, so a set-up of a few milliseconds still
# gets enough samples.
SETUP_POINTS = 8
SETUP_BURST_S = 0.06
# Every time in the end-to-end metrics is scaled to a nominal machine speed.
# The shared machine the benchmark was written on switched, for seconds to
# minutes at a time, between a fast state and one about 1.5 times slower.
# Over twelve minutes of back-to-back kcheck-n4 requests, the throughput of
# 30 s windows spread by 0.24 of its median, and of 60 s windows by 0.25, so
# longer runs could not steady it.  A fixed pure-Python loop (the reference)
# slows down with the machine, so it is timed between requests, at least
# every PROBE_EVERY_S of request time, and each request's latency is
# multiplied by REFERENCE_NOMINAL_S over the mean of the reference times just
# before and just after it.  In nine further minutes of kcheck-n4 requests
# this cut the spread of 30 s windows from 0.14 to 0.04.  A change to
# kquadric leaves the reference loop alone, so it shows in full.  The
# unscaled metrics are in the details line.
REFERENCE_LOOPS = 20_000
REFERENCE_REPEATS = 3
REFERENCE_NOMINAL_S = 0.002
PROBE_EVERY_S = 0.25
WALL_LIMIT_S = 120.0  # a run must end well inside 180 s, even when slow
END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def import_kquadric() -> None:
    """Import kquadric from this checkout's src/, or exit with an error."""
    package = SRC / "kquadric"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run from the root of a kquadric checkout")
    sys.path.insert(0, str(SRC))
    import kquadric

    if Path(kquadric.__file__).resolve().parent != package:
        sys.exit(f"error: imported kquadric from {kquadric.__file__}, not from {package}")


def reference_s() -> float:
    """Median seconds of REFERENCE_REPEATS runs of a fixed pure-Python loop."""
    times = []
    for _ in range(REFERENCE_REPEATS):
        t0 = perf_counter()
        total = 0
        for i in range(REFERENCE_LOOPS):
            total += i * i % 7
        times.append(perf_counter() - t0)
    return statistics.median(times)


@dataclass
class Measurement:
    latencies: list[float] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    busy_s: float = 0.0
    items: int = 0
    failed: int = 0
    generate_s: float = 0.0
    check_s: float = 0.0
    failures: list[str] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    probes: list[tuple[float, float]] = field(default_factory=list)

    def probe(self) -> None:
        self.probes.append((perf_counter(), reference_s()))

    def scaled(self) -> list[float]:
        """Each latency at the nominal speed: scaled by the reference times
        of the probes just before and just after the request."""
        out, k = [], 0
        for start, latency in zip(self.starts, self.latencies):
            while k + 1 < len(self.probes) and self.probes[k + 1][0] <= start:
                k += 1
            local = (self.probes[k][1] + self.probes[min(k + 1, len(self.probes) - 1)][1]) / 2
            out.append(latency * REFERENCE_NOMINAL_S / local)
        return out

    @property
    def items_per_s(self) -> float:
        return self.items / sum(self.scaled())


def measure(workload, ctx, requests, seconds=None, tracer=None, after=None) -> Measurement:
    """Run requests one after another; stop after `seconds` of request time
    (and the workload's minimum request count), or when `requests` ends.
    `after(m)` runs after each checked request, outside every clock."""
    m = Measurement()
    m.probe()
    since_probe = 0.0
    started = perf_counter()
    requests = iter(requests)
    while True:
        t0 = perf_counter()
        request = next(requests, None)
        t1 = perf_counter()
        m.generate_s += t1 - t0
        if request is None:
            break
        error = None
        if tracer is not None:
            tracer.enabled = True
        t0 = perf_counter()
        try:
            if tracer is not None:
                result = tracer.span("bench.request", workload.execute, ctx, request)
            else:
                result = workload.execute(ctx, request)
        except Exception:
            error = traceback.format_exc()
        t1 = perf_counter()
        if tracer is not None:
            tracer.enabled = False
        m.starts.append(t0)
        m.latencies.append(t1 - t0)
        m.busy_s += t1 - t0
        since_probe += t1 - t0
        m.kinds.append(request.kind)
        m.items += workload.items(request)
        if error is None:
            try:
                if not workload.check(ctx, request, result):
                    error = f"wrong output for a {request.kind} request"
            except Exception:
                error = traceback.format_exc()
        m.check_s += perf_counter() - t1
        if error is not None:
            m.failed += 1
            if len(m.failures) < 5:
                m.failures.append(error)
        if since_probe >= PROBE_EVERY_S:
            m.probe()
            since_probe = 0.0
        if after is not None:
            after(m)
        if seconds is not None and m.busy_s >= seconds and len(m.latencies) >= workload.min_requests:
            break
        if perf_counter() - started > WALL_LIMIT_S:
            break
    if since_probe > 0:
        m.probe()
    return m


def timed_setup(workload, times: list[float], raw_times: list[float]):
    """Build the workload's context until SETUP_BURST_S is spent; append each
    time to raw_times, and scaled to the nominal speed to times."""
    spent = 0.0
    before = reference_s()
    burst = []
    while spent < SETUP_BURST_S:
        t0 = perf_counter()
        ctx = workload.setup()
        burst.append(perf_counter() - t0)
        spent += burst[-1]
    local = (before + reference_s()) / 2
    raw_times += burst
    times += [t * REFERENCE_NOMINAL_S / local for t in burst]
    return ctx


def by_kind(m: Measurement) -> dict[str, list[float]]:
    """Unscaled latencies by request kind."""
    out: dict[str, list[float]] = {}
    for kind, latency in zip(m.kinds, m.latencies):
        out.setdefault(kind, []).append(latency)
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def latency_metrics(m: Measurement, latencies: list[float]) -> dict:
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8] if len(latencies) > 1 else latencies[0]
    return {
        "items_per_s": m.items / sum(latencies),
        "item_p50_ms": statistics.median(latencies) * 1000,
        "item_p90_ms": p90 * 1000,
    }


def end_to_end(workload, seconds: float) -> tuple[dict, Measurement, dict]:
    setup_times: list[float] = []
    raw_setup_times: list[float] = []
    ctx = timed_setup(workload, setup_times, raw_setup_times)
    marks = [seconds * k / SETUP_POINTS for k in range(SETUP_POINTS - 1, 0, -1)]

    def sample_setup(m: Measurement) -> None:
        if marks and m.busy_s >= marks[-1]:
            timed_setup(workload, setup_times, raw_setup_times)
            while marks and m.busy_s >= marks[-1]:
                marks.pop()

    m = measure(workload, ctx, workload.requests(ctx), seconds, after=sample_setup)
    rss = peak_rss_mb()
    metrics = {
        **latency_metrics(m, m.scaled()),
        "peak_rss_mb": rss,
        "setup_s": statistics.median(setup_times),
    }
    raw = {
        **latency_metrics(m, m.latencies),
        "peak_rss_mb": rss,
        "setup_s": statistics.median(raw_setup_times),
    }
    details = {"unscaled_metrics": raw, "setup_times_s": raw_setup_times,
               "requests": len(m.latencies), "items": m.items, "busy_s": m.busy_s}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, m, details


def traced(workload, seconds: float) -> tuple[dict, Measurement, dict]:
    ctx = workload.setup()
    fixed = list(islice(workload.requests(ctx), workload.trace_requests(seconds)))
    plain = measure(workload, ctx, fixed)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        tracer.span("bench.setup", workload.setup)
        tracer.enabled = False
        m = measure(workload, ctx, fixed, tracer=tracer)
    finally:
        tracer.uninstall()
    overhead = m.items_per_s / plain.items_per_s
    values = tracer.per_layer(overhead)
    units = dict(PER_LAYER_METRICS)
    m.failed += plain.failed
    m.failures += plain.failures
    details = {
        "requests": len(fixed),
        "untraced_items_per_s": plain.items_per_s,
        "traced_items_per_s": m.items_per_s,
        "span_edges": tracer.edges(),
        "raw_spans": tracer.raw_spans,
    }
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, m, details


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    import_kquadric()
    workload = WORKLOADS[name](seed)
    metrics, m, details = (traced if trace else end_to_end)(workload, seconds)
    reference = [r for _, r in m.probes]
    attempted = len(m.latencies) * (2 if trace else 1)
    details.update(
        workload=name, seed=seed, seconds=seconds, trace=int(trace),
        fail_ratio=m.failed / attempted, generate_s=m.generate_s, check_s=m.check_s,
        inputs=workload.sizes.summary(), failures=m.failures,
        reference_s={"nominal": REFERENCE_NOMINAL_S, "probes": len(reference),
                     "median": statistics.median(reference), "min": min(reference),
                     "max": max(reference)},
        latency_ms_by_kind={
            kind: {"count": len(times), "median": statistics.median(times) * 1000,
                   "peak": max(times) * 1000, "total": sum(times) * 1000}
            for kind, times in sorted(by_kind(m).items())
        },
    )
    for failure in m.failures:
        print(failure, file=sys.stderr)
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": m.failed == 0, "attempted": attempted, "failed": m.failed,
                      "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=180,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: {name} exited with status {proc.returncode}", file=sys.stderr)
            return proc.returncode
        *_, detail_line, result_line = proc.stdout.splitlines()
        print(detail_line)
        result = json.loads(result_line)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
            print(f"{name:14} {metric:34} {entry['value']:>16.6g} {entry['unit']}", file=sys.stderr)
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
