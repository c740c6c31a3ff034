"""Acceptance suite: one test per criterion, exact integer equality throughout.

Every assertion is tolerance-zero.  Each test prints a PASS line once its
criterion holds; run with `pytest tests/test_acceptance.py -v -s` to see them.
"""
import json
import random
import time

from kquadric.cli import main
from kquadric.decompose import verify_free_module
from kquadric.gkm import (
    VertexMap,
    check_axial_axioms,
    check_three_independence,
    derive_connection,
    is_k_class,
)
from kquadric.laurent import monomial, one
from kquadric.linalg import spans_full_lattice
from kquadric.quadric import QuadricGraph, monomial_class, thom_class
from kquadric.relations import ClassProvider, iter_checks


def report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_1_golden_monomial_class(capsys):
    started = time.perf_counter()
    code = main(["gen", "--n", "2", "--class", "M", "--vertex", "1"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - started
    assert code == 0
    doc = json.loads(out)
    expected = {
        "1": [],  # exponent of the constant 1
        "2": [-1, 0, 0],
        "3": [0, -1, 0],
        "4": [0, 0, -1],
        "5": [1, -1, -1],
        "6": [0, -1, -1],
    }
    for vertex, exp in expected.items():
        terms = doc["values"][vertex]["terms"]
        assert len(terms) == 1 and terms[0]["coef"] == "1"
        assert terms[0]["exp"] == (exp if exp else [0, 0, 0])
    assert elapsed < 1.0
    with capsys.disabled():
        report(1, f"monomial class at vertex 1 on the n=2 graph, {elapsed:.3f}s")


def test_criterion_2_golden_thom_class(capsys):
    started = time.perf_counter()
    ctx = QuadricGraph(2)
    d = thom_class(ctx, [2, 4, 6])
    y1_inv = monomial((-1, 0, 0))
    y3_inv = monomial((0, 0, -1))
    y2y1_inv = monomial((-1, 1, 0))
    assert d[2] == (one(3) - y1_inv) * (one(3) - y2y1_inv)
    assert d[4] == (one(3) - y3_inv) * (one(3) - y2y1_inv)
    assert d[6] == (one(3) - y3_inv) * (one(3) - y1_inv)
    assert d[1].is_zero() and d[3].is_zero() and d[5].is_zero()
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    with capsys.disabled():
        report(2, f"Thom class of {{2,4,6}} on the n=2 graph, {elapsed:.3f}s")


def test_criterion_3_k_class_sweeps(capsys):
    timings = {}
    for n in (1, 2, 3, 4):
        started = time.perf_counter()
        ctx = QuadricGraph(n)
        for v in ctx.vertices:
            assert is_k_class(ctx.graph, monomial_class(ctx, v))
            assert is_k_class(ctx.graph, monomial_class(ctx, v, inverted=True))
        subsets = ctx.admissible_subsets()
        assert len(subsets) == 3 ** (n + 1) - 1
        for members in subsets:
            assert is_k_class(ctx.graph, thom_class(ctx, members))
        timings[n] = time.perf_counter() - started
    assert timings[4] < 120.0
    with capsys.disabled():
        report(
            3,
            "every monomial class, inverse, and Thom class is a K-class for n=1..4 "
            + ", ".join(f"n={n}: {t:.1f}s" for n, t in timings.items()),
        )


def test_criterion_4_relation_suite(capsys):
    timings = {}
    for n in (1, 2, 3):
        started = time.perf_counter()
        ctx = QuadricGraph(n)
        failures = [r for r in iter_checks(ctx, family_size_bound=3, seed=0) if not r.passed]
        assert not failures, failures[:5]
        timings[n] = time.perf_counter() - started
    assert timings[3] < 300.0
    with capsys.disabled():
        report(
            4,
            "all relation families hold exactly for n=1..3 "
            + ", ".join(f"n={n}: {t:.1f}s" for n, t in timings.items()),
        )


def test_criterion_5_free_module_certificate(capsys):
    started = time.perf_counter()
    for n in (1, 2, 3):
        ctx = QuadricGraph(n)
        rep = verify_free_module(ctx, trials=100, seed=42)
        assert rep.class_round_trips == 100  # decompose then recompose, exact
        assert rep.coefficient_round_trips == 100  # recompose then decompose, exact
        assert rep.zero_decomposes_to_zero
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    with capsys.disabled():
        report(5, f"free-module decomposition certified for n=1..3, {elapsed:.1f}s total")


def test_criterion_6_structural_checks(capsys):
    started = time.perf_counter()
    for n in (1, 2, 3, 4, 5):
        ctx = QuadricGraph(n)
        assert check_three_independence(ctx.graph)
        assert check_axial_axioms(ctx.graph, derive_connection(ctx.graph)).ok
        for v in ctx.vertices:
            rows = [ctx.graph.axial(*e) for e in ctx.graph.edges_from(v)]
            assert spans_full_lattice(rows, ctx.m)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    with capsys.disabled():
        report(6, f"three-independence, connection, lattice spanning for n=1..5, {elapsed:.1f}s")


def mutate_one_coefficient(vm: VertexMap, rng: random.Random) -> VertexMap:
    """Flip the sign of one stored coefficient at one vertex."""
    candidates = [
        (v, e, c) for v, p in vm.values.items() for e, c in p.items()
    ]
    v, e, c = candidates[rng.randrange(len(candidates))]
    values = dict(vm.values)
    values[v] = values[v] + monomial(e, -2 * c)
    return VertexMap(values)


def test_criterion_7_mutation_sensitivity(capsys):
    ctx = QuadricGraph(2)
    goldens = [monomial_class(ctx, 1), thom_class(ctx, [2, 4, 6])]
    rng = random.Random(99)
    detected = 0
    for _ in range(50):
        mutated = mutate_one_coefficient(goldens[rng.randrange(2)], rng)
        if not is_k_class(ctx.graph, mutated):
            detected += 1
    assert detected == 50

    # The relation suite names a corrupted class too.
    provider = ClassProvider(ctx)
    provider.override("M", 1, mutate_one_coefficient(goldens[0], random.Random(7)))
    assert not all(r.passed for r in iter_checks(ctx, seed=7, provider=provider))
    with capsys.disabled():
        report(7, "all 50 single-coefficient mutations detected; relation suite flags overrides")
