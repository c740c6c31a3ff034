"""Division frames in `decompose`, against the vertex-map oracle in vertexmap_decompose.py.

Three kinds of input reach the three paths of the frame rule:

* classes recomposed from 1-term coefficient tuples, where every product is
  smaller than the residual, so each frame waits until its vertex's stage;
* random K-classes at n=3, where large coefficients move frames forward
  before the stage;
* those K-classes changed by ±y^e at one vertex, where a division that moves
  a frame forward can fail before that vertex's stage and end the call.

The outcomes (coefficients, or the NotAKClassError stage, edges and message)
must match the oracle's.  Line counts from the standard `trace` module show
which paths ran: a frame move whose division raised runs its first line but
not the line after it.
"""
import importlib
import random
import trace
from functools import lru_cache

import pytest

import vertexmap_decompose as oracle
from kquadric.decompose import NotAKClassError, canonical_basis, generator_pool, random_k_class, recompose
from kquadric.gkm import VertexMap
from kquadric.laurent import LaurentPolynomial
from kquadric.quadric import QuadricGraph

module = importlib.import_module("kquadric.decompose")
SOURCE = open(module.__file__, encoding="utf-8").read().splitlines()


def line_of(text):
    (number,) = [i for i, line in enumerate(SOURCE, start=1) if text in line]
    return number


ADVANCE = line_of("residual[v] = _Accumulator(div_exact_product(")  # a frame moves before the stage
MOVED = line_of("frame[v] = j = target")  # ... and its division succeeded
SUBTRACT = line_of("acc.subtract(")


@lru_cache(maxsize=None)
def context(n):
    ctx = QuadricGraph(n)
    return ctx, canonical_basis(ctx), generator_pool(ctx)


def traced_decompose(ctx, f, basis):
    """(coefficients or the raised NotAKClassError, line counts of the rule)."""
    tracer = trace.Trace(count=1, trace=0)
    try:
        outcome = tracer.runfunc(module.decompose, ctx, f, basis).coefficients
    except NotAKClassError as exc:
        outcome = exc
    counts = tracer.results().counts
    return outcome, {line: counts.get((module.__file__, line), 0) for line in (ADVANCE, MOVED, SUBTRACT)}


def changed(ctx, f, seed):
    """f with ±y^e added at one vertex: never a K-class."""
    rng = random.Random(seed)
    v = rng.choice(list(ctx.vertices))
    e = rng.choice(f[v].support() or [(0,) * ctx.m])
    values = dict(f.values)
    values[v] = f[v] + LaurentPolynomial(ctx.m, {e: rng.choice((1, -1))})
    return VertexMap(values)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_one_term_coefficients_wait_until_the_stage(n):
    ctx, basis, _ = context(n)
    rng = random.Random(n)
    subtractions = 0
    for _ in range(5):
        coeffs = tuple(
            LaurentPolynomial(ctx.m, {tuple(rng.randint(-2, 2) for _ in range(ctx.m)): rng.choice((-2, -1, 1, 3))})
            for _ in ctx.vertices
        )
        f = recompose(ctx, coeffs, basis)
        outcome, lines = traced_decompose(ctx, f, basis)
        assert outcome == coeffs == oracle.decompose(ctx, f, basis)
        assert lines[ADVANCE] == 0
        subtractions += lines[SUBTRACT]
    assert subtractions > 0


def test_k_classes_move_frames_early_and_match_the_oracle():
    ctx, basis, pool = context(3)
    advances = 0
    for seed in range(20):
        f = random_k_class(ctx, random.Random(seed), pool)
        outcome, lines = traced_decompose(ctx, f, basis)
        assert outcome == oracle.decompose(ctx, f, basis)
        assert recompose(ctx, outcome, basis) == f
        advances += lines[ADVANCE]
    assert advances > 0


def test_early_failed_divisions_are_reported_at_the_vertex_stage():
    ctx, basis, pool = context(3)
    early = 0
    for seed in range(20):
        g = changed(ctx, random_k_class(ctx, random.Random(seed), pool), seed)
        ours, lines = traced_decompose(ctx, g, basis)
        with pytest.raises(NotAKClassError) as theirs:
            oracle.decompose(ctx, g, basis)
        assert isinstance(ours, NotAKClassError)
        assert ours.stage == theirs.value.stage
        assert ours.stage == min(max(e) for e in ours.failing_edges)
        assert ours.failing_edges == theirs.value.failing_edges
        assert str(ours) == str(theirs.value)
        assert lines[ADVANCE] - lines[MOVED] in (0, 1)
        early += lines[ADVANCE] - lines[MOVED]
    assert early > 0
