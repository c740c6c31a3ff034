"""In-place decompose/recompose against the vertex-map oracle in vertexmap_decompose.py.

Inputs are random coefficient tuples, random K-classes and K-classes changed
by ±1 at one vertex (never K-classes), for n = 1..3.  Each may be shifted by
y^e with entries of e near ±2^14, ±2^15 and ±2^31, so that the accumulators
start in one layout and must widen to the next as products are added.
`recompose` must also keep the layouts and bounds of the expanded sum
(`vertexmap_decompose.expanded_recompose`), on the canonical basis and on
bases that take it off the canonical basis' paths.
"""
import importlib
import random
from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vertexmap_decompose as oracle
from kquadric.decompose import (
    NotAKClassError,
    canonical_basis,
    decompose,
    generator_pool,
    random_k_class,
    recompose,
)
from kquadric.gkm import VertexMap
from kquadric.laurent import LaurentPolynomial, _Accumulator, monomial, one
from kquadric.quadric import QuadricGraph

EDGES = (2**14, 2**15, 2**31)


@lru_cache(maxsize=None)
def context(n):
    ctx = QuadricGraph(n)
    return ctx, canonical_basis(ctx), generator_pool(ctx)


shift_entry = st.one_of(
    st.just(0),
    st.builds(
        lambda edge, delta, sign: sign * (edge + delta),
        st.sampled_from(EDGES),
        st.integers(-3, 2),
        st.sampled_from((1, -1)),
    ),
)


@st.composite
def shifts(draw, n):
    """A unit y^e in n + 1 variables, e often near a field-width boundary."""
    return monomial(draw(st.tuples(*[shift_entry] * (n + 1))))


@st.composite
def small_polynomials(draw, m):
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        e = draw(st.tuples(*[st.integers(-2, 2)] * m))
        terms[e] = terms.get(e, 0) + draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
    return LaurentPolynomial(m, terms)


@st.composite
def coefficient_tuples(draw):
    n = draw(st.integers(1, 3))
    ctx = context(n)[0]
    shift = draw(shifts(n))
    coeffs = tuple(draw(small_polynomials(ctx.m)) * shift for _ in ctx.vertices)
    return n, coeffs


@st.composite
def k_classes(draw):
    n = draw(st.integers(1, 3))
    ctx, _, pool = context(n)
    f = random_k_class(ctx, random.Random(draw(st.integers(0, 2**32))), pool)
    return n, f * draw(shifts(n))


def changed(f, v, e, sign):
    """f with sign * y^e added at vertex v: never a K-class."""
    values = dict(f.values)
    values[v] = f[v] + LaurentPolynomial(f.m, {e: sign})
    return VertexMap(values)


# The shift y^(2^15 - 3) keeps every coefficient inside the 16-bit layout,
# while the products with the basis values reach past it.
CROSSING = (1, tuple(LaurentPolynomial(2, {(2, 0): 1, (-1, 2): -2}) * monomial((2**15 - 3, 0))
                     for _ in range(4)))


# Coefficients held at 32 bits whose products with the basis values reach past 2^31.
CROSSING_31 = (2, tuple(LaurentPolynomial(3, {(1, 0, -1): 3, (0, 2, 0): -1}) * monomial((2**31 - 3, 0, 5))
                        for _ in range(6)))


def layouts(f):
    return [(f[v]._layout.width, f[v]._bound) for v in sorted(f.values)]


@settings(max_examples=40, deadline=None)
@given(coefficient_tuples())
@example(CROSSING)
@example(CROSSING_31)
def test_recompose_and_decompose_match_the_oracle_on_coefficient_tuples(case):
    n, coeffs = case
    ctx, basis, _ = context(n)
    f = recompose(ctx, coeffs, basis)
    assert f == oracle.recompose(ctx, coeffs, basis)
    assert layouts(f) == layouts(oracle.expanded_recompose(ctx, coeffs, basis))
    assert decompose(ctx, f, basis).coefficients == coeffs == oracle.decompose(ctx, f, basis)


def test_the_pinned_example_crosses_the_16_bit_field():
    n, coeffs = CROSSING
    ctx, basis, _ = context(n)
    assert {h._layout.width for h in coeffs} == {16}
    f = recompose(ctx, coeffs, basis)
    # Vertex 1 sees only B_1 = 1; every other vertex needs the wider field.
    assert [f[v]._layout.width for v in ctx.vertices] == [16, 32, 32, 32]
    assert decompose(ctx, f, basis).coefficients == coeffs


def other_bases(n):
    """Bases that take `recompose` off the canonical basis' paths: no
    diagonal factors (every stage past the first is invalid, so every value
    is added at frame 0 by the pair loop); 1 added to B_2 at the last vertex
    (every stage valid, but that cofactor is neither 1 nor a binomial); and
    B_2(v), at the first v > 2 next to vertex 1, shifted so that it is held
    at 16 bits but its cofactor at frame 1 is laid out at 32."""
    ctx, basis, _ = context(n)
    count, b_2 = ctx.vertex_count, basis.classes[1]
    v = min(w for w in range(3, count + 1) if ctx.graph.has_edge(w, 1))
    shifted = b_2[v] * monomial((2**15 - 1 - b_2[v]._bound,) + (0,) * n)
    assert shifted._layout.width == 16
    return {
        "no factors": replace(basis, diagonal_factors=((),) * count),
        "broken B_2": replace(basis, classes=(basis.classes[0], VertexMap({**b_2.values, count: b_2[count] + one(ctx.m)}))
                              + basis.classes[2:]),
        "wide cofactor": replace(basis, classes=(basis.classes[0], VertexMap({**b_2.values, v: shifted}))
                                 + basis.classes[2:]),
    }


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", ["no factors", "broken B_2", "wide cofactor"])
def test_recompose_matches_the_oracle_on_other_bases(n, kind):
    ctx, _, _ = context(n)
    basis = other_bases(n)[kind]
    rng = random.Random(n)
    tuples = [tuple(one(ctx.m) * (k + 1) for k in range(ctx.vertex_count))]  # bound 0: no widening by h
    for _ in range(5):
        tuples.append(tuple(
            LaurentPolynomial(ctx.m, {tuple(rng.randint(-2, 2) for _ in range(ctx.m)): rng.choice((-2, -1, 1, 3))})
            for _ in ctx.vertices
        ))
    for coeffs in tuples:
        f = recompose(ctx, coeffs, basis)
        assert f == oracle.recompose(ctx, coeffs, basis)
        assert layouts(f) == layouts(oracle.expanded_recompose(ctx, coeffs, basis))
    if kind != "no factors":  # the stage table places every basis value, by a cofactor
        assert all(stage.valid for stage in basis._stages)


@settings(max_examples=40, deadline=None)
@given(k_classes())
def test_decompose_matches_the_oracle_on_k_classes(case):
    n, f = case
    ctx, basis, _ = context(n)
    coefficients = decompose(ctx, f, basis).coefficients
    assert coefficients == oracle.decompose(ctx, f, basis)
    assert recompose(ctx, coefficients, basis) == f


@settings(max_examples=40, deadline=None)
@given(k_classes(), st.data())
def test_changed_classes_fail_like_the_oracle(case, data):
    # Without a basis, decompose tests only the edges at and above the stage
    # whose division failed; stage, edges and message stay the oracle's.
    n, f = case
    ctx, basis, _ = context(n)
    v = data.draw(st.sampled_from(list(ctx.vertices)))
    support = f[v].support() or [(0,) * ctx.m]
    g = changed(f, v, data.draw(st.sampled_from(support)), data.draw(st.sampled_from((1, -1))))
    with pytest.raises(NotAKClassError) as theirs:
        oracle.decompose(ctx, g, basis)
    for given_basis in (basis, None):
        with pytest.raises(NotAKClassError) as ours:
            decompose(ctx, g, given_basis)
        assert ours.value.stage == theirs.value.stage
        assert ours.value.stage == min(max(e) for e in ours.value.failing_edges)
        assert ours.value.failing_edges == theirs.value.failing_edges
        assert str(ours.value) == str(theirs.value)


def test_only_the_shared_basis_skips_the_edges_below_the_failing_stage(monkeypatch):
    module = importlib.import_module("kquadric.decompose")
    full = module.is_k_class
    calls = []
    monkeypatch.setattr(module, "is_k_class", lambda graph, f, upper_from=1: calls.append(upper_from) or full(graph, f, upper_from))
    ctx, basis, pool = context(3)
    for seed in range(10):
        g = changed(random_k_class(ctx, random.Random(seed), pool), ctx.vertex_count - seed % 3, (0,) * ctx.m, 1)
        with pytest.raises(NotAKClassError) as err:
            decompose(ctx, g, basis)
        assert calls.pop() == 1
        with pytest.raises(NotAKClassError) as err:
            decompose(ctx, g)
        # The division fails at a stage no later than the reported one: a
        # frame move at the failing vertex can come first.
        assert 1 < calls.pop() <= err.value.stage


# -- no result aliases an accumulator ------------------------------------------------


def test_first_coefficient_survives_the_later_stages():
    # Stage 1 has no diagonal factors, so its division returns the residual's
    # value unchanged; that value must not share the residual's terms.
    ctx, basis, pool = context(2)
    f = random_k_class(ctx, random.Random(7), pool)
    assert not f[1].is_zero()
    d = decompose(ctx, f, basis)
    assert d.coefficients[0] == f[1]
    assert recompose(ctx, d, basis) == f


def test_recomposed_values_stay_fixed_under_further_calls():
    ctx, basis, pool = context(2)
    rng = random.Random(11)
    first = recompose(ctx, decompose(ctx, random_k_class(ctx, rng, pool), basis), basis)
    copies = {v: LaurentPolynomial(ctx.m, first[v].items()) for v in ctx.vertices}
    for _ in range(3):
        f = random_k_class(ctx, rng, pool)
        recompose(ctx, decompose(ctx, f, basis), basis)
        decompose(ctx, first, basis)
    assert all(first[v] == copies[v] for v in ctx.vertices)


def test_accumulator_value_is_a_snapshot():
    acc = _Accumulator(monomial((1, 0)))
    before = acc.value()
    oracle.add_product(acc, monomial((0, 1)), monomial((2**15 - 1, 0)), -1)
    acc.subtract(monomial((1, 0)))
    assert before == monomial((1, 0))
    assert acc._layout.width == 32
    assert acc.value() == -monomial((2**15 - 1, 1))
