"""In-place decompose/recompose against the vertex-map oracle in vertexmap_decompose.py.

Inputs are random coefficient tuples, random K-classes and K-classes changed
by ±1 at one vertex (never K-classes), for n = 1..3.  Each may be shifted by
y^e with entries of e near ±2^14, ±2^15 and ±2^31, so that the accumulators
start in one layout and must widen to the next as products are added.
"""
import random
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
from kquadric.laurent import LaurentPolynomial, _Accumulator, monomial
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


@settings(max_examples=40, deadline=None)
@given(coefficient_tuples())
@example(CROSSING)
def test_recompose_and_decompose_match_the_oracle_on_coefficient_tuples(case):
    n, coeffs = case
    ctx, basis, _ = context(n)
    f = recompose(ctx, coeffs, basis)
    assert f == oracle.recompose(ctx, coeffs, basis)
    assert decompose(ctx, f, basis).coefficients == coeffs == oracle.decompose(ctx, f, basis)


def test_the_pinned_example_crosses_the_16_bit_field():
    n, coeffs = CROSSING
    ctx, basis, _ = context(n)
    assert {h._layout.width for h in coeffs} == {16}
    f = recompose(ctx, coeffs, basis)
    # Vertex 1 sees only B_1 = 1; every other vertex needs the wider field.
    assert [f[v]._layout.width for v in ctx.vertices] == [16, 32, 32, 32]
    assert decompose(ctx, f, basis).coefficients == coeffs


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
    n, f = case
    ctx, basis, _ = context(n)
    v = data.draw(st.sampled_from(list(ctx.vertices)))
    support = f[v].support() or [(0,) * ctx.m]
    g = changed(f, v, data.draw(st.sampled_from(support)), data.draw(st.sampled_from((1, -1))))
    with pytest.raises(NotAKClassError) as ours:
        decompose(ctx, g, basis)
    with pytest.raises(NotAKClassError) as theirs:
        oracle.decompose(ctx, g, basis)
    assert ours.value.stage == theirs.value.stage
    assert ours.value.stage == min(max(e) for e in ours.value.failing_edges)
    assert ours.value.failing_edges == theirs.value.failing_edges
    assert str(ours.value) == str(theirs.value)


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
    acc.add_product(monomial((0, 1)), monomial((2**15 - 1, 0)), -1)
    acc.subtract(monomial((1, 0)))
    assert before == monomial((1, 0))
    assert acc._layout.width == 32
    assert acc.value() == -monomial((2**15 - 1, 1))
