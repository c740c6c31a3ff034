import importlib
import os
import random
import subprocess
import sys
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kquadric
from kquadric.decompose import (
    Decomposition,
    NotAKClassError,
    canonical_basis,
    decompose,
    generator_pool,
    random_k_class,
    recompose,
    verify_free_module,
)
from kquadric.gkm import VertexMap, is_k_class
from kquadric.laurent import (
    LaurentPolynomial,
    ParseError,
    div_exact_product,
    monomial,
    one,
    one_minus_monomial,
    zero,
)
from kquadric.quadric import QuadricGraph, monomial_class, thom_class


def one_map(ctx):
    return VertexMap.constant(ctx.vertices, one(ctx.m))


def zero_map(ctx):
    return VertexMap.constant(ctx.vertices, zero(ctx.m))


# -- the canonical basis ---------------------------------------------------------


def test_basis_n1_matches_direct_construction(q1):
    basis = canonical_basis(q1)
    assert len(basis.classes) == 4
    assert basis.classes[0] == one_map(q1)
    assert basis.classes[1] == one_map(q1) - monomial_class(q1, 1)
    assert basis.classes[2] == thom_class(q1, {3, 4})
    assert basis.classes[3] == thom_class(q1, {4})


@pytest.mark.parametrize("n", [1, 2, 3])
def test_basis_triangular_with_nonzero_diagonal(n):
    ctx = QuadricGraph(n)
    basis = canonical_basis(ctx)
    assert len(basis.classes) == ctx.vertex_count
    for k, b in enumerate(basis.classes, start=1):
        for l in range(1, k):
            assert b[l].is_zero()
        assert not b[k].is_zero()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_diagonal_factors_multiply_to_diagonal_values(n):
    ctx = QuadricGraph(n)
    basis = canonical_basis(ctx)
    for k, (b, factors) in enumerate(zip(basis.classes, basis.diagonal_factors), start=1):
        product = one(ctx.m)
        for alpha in factors:
            product = product * one_minus_monomial(alpha)
        assert product == b[k]


def frame_divisor(ctx, v, k):
    """The alphas of D_{k-1}(v): the edges from v down to neighbours below k."""
    return [ctx.graph.axial(v, i) for i in range(1, k) if ctx.graph.has_edge(v, i)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_cofactors_at_frame_k_minus_1_are_one_or_one_binomial(n):
    # The fact `decompose` rests on: B_k(v) / D_{k-1}(v) for v >= k is 1 or
    # 1 - y^beta, and 1 at v = k.  The tabulated cofactors must agree.
    ctx = QuadricGraph(n)
    basis = canonical_basis(ctx)
    updates = {k: {v: cofactors[-1] for v, _, cofactors in stage.updates}
               for k, stage in enumerate(basis._stages, start=1)}
    for k, b in enumerate(basis.classes, start=1):
        for v in range(k, ctx.vertex_count + 1):
            q = div_exact_product(b[v], frame_divisor(ctx, v, k))
            if v == k:
                assert q.is_one()
            elif q.is_zero():
                assert v not in updates[k]
            else:
                beta = [e for e in q.support() if any(e)]
                assert q.is_one() or (len(beta) == 1 and q == one_minus_monomial(beta[0]))
                assert updates[k][v] == q
    assert all(stage.valid for stage in basis._stages)


def test_replace_builds_a_new_cofactor_table(q2):
    basis = canonical_basis(q2)
    assert all(stage.valid for stage in basis._stages)
    broken = replace(basis, diagonal_factors=((),) * q2.vertex_count)
    assert [stage.valid for stage in broken._stages] == [True] + [False] * (q2.vertex_count - 1)
    assert all(stage.valid for stage in basis._stages)


def test_basis_classes_are_k_classes(q2):
    for b in canonical_basis(q2).classes:
        assert is_k_class(q2.graph, b)


# -- decompose -------------------------------------------------------------------


def test_constant_decomposes_to_leading_coefficient(q2):
    c = monomial((1, -1, 0), 5) + monomial((0, 0, 2), -2)
    d = decompose(q2, VertexMap.constant(q2.vertices, c))
    assert d.coefficients[0] == c
    assert all(h.is_zero() for h in d.coefficients[1:])


def test_monomial_class_at_one_decomposes_as_one_minus_basis(q2):
    # M_1 = 1 - (1 - M_1): coefficients (1, -1, 0, ..., 0).
    d = decompose(q2, monomial_class(q2, 1))
    assert d.coefficients[0] == one(3)
    assert d.coefficients[1] == -one(3)
    assert all(h.is_zero() for h in d.coefficients[2:])


def test_last_monomial_class_decomposition_n1(q1):
    # Brute force both sides at all four vertices: the class at vertex 4 is
    # y1*y2 times the class at vertex 1, so the coefficients are
    # (y1*y2, -y1*y2, 0, 0).
    m4 = monomial_class(q1, 4)
    y1y2 = monomial((1, 1))
    assert m4 == monomial_class(q1, 1) * y1y2
    d = decompose(q1, m4)
    assert d.coefficients == (y1y2, -y1y2, zero(2), zero(2))


def test_thom_classes_decompose_with_unit_coefficient(q2):
    basis = canonical_basis(q2)
    for k, b in enumerate(basis.classes):
        d = decompose(q2, b, basis)
        expected = tuple(
            one(3) if i == k else zero(3) for i in range(q2.vertex_count)
        )
        assert d.coefficients == expected


def test_decompose_rejects_non_k_class(q1):
    values = {v: zero(2) for v in q1.vertices}
    values[1] = one(2)
    with pytest.raises(NotAKClassError) as err:
        decompose(q1, VertexMap(values))
    assert err.value.stage >= 1
    assert (1, 2) in err.value.failing_edges
    assert (1, 3) in err.value.failing_edges


@lru_cache(maxsize=None)
def context(n):
    ctx = QuadricGraph(n)
    return ctx, canonical_basis(ctx), generator_pool(ctx)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32), st.data())
def test_decompose_fails_exactly_when_is_k_class_fails(n, seed, data):
    """A random K-class, with sign * y^e added at the vertices of a random set
    S: still a K-class when S is empty or every vertex, otherwise never."""
    ctx, basis, pool = context(n)
    f = random_k_class(ctx, random.Random(seed), pool)
    support = sorted({e for v in ctx.vertices for e in f[v].support()}) or [(0,) * ctx.m]
    e, sign = data.draw(st.sampled_from(support)), data.draw(st.sampled_from((1, -1)))
    bump = LaurentPolynomial(ctx.m, {e: sign})
    changed = data.draw(st.sets(st.sampled_from(list(ctx.vertices))))
    g = VertexMap({v: f[v] + bump if v in changed else f[v] for v in ctx.vertices})
    report = is_k_class(ctx.graph, g)
    assert report.ok == (len(changed) in (0, ctx.vertex_count))
    if report.ok:
        assert recompose(ctx, decompose(ctx, g, basis), basis) == g
    else:
        with pytest.raises(NotAKClassError) as err:
            decompose(ctx, g, basis)
        assert err.value.failing_edges == report.failing_edges


def test_broken_basis_raises_under_optimize():
    # The triangular invariant and the flow-up condition must hold under
    # `python -O`, which strips asserts.
    script = """
from dataclasses import replace
from kquadric import QuadricGraph, canonical_basis, decompose, monomial_class
from kquadric.gkm import VertexMap
from kquadric.laurent import one

def attempt(ctx, f, basis):
    try:
        decompose(ctx, f, basis)
    except RuntimeError as exc:
        print(exc)

ctx = QuadricGraph(2)
attempt(ctx, monomial_class(ctx, 1), replace(canonical_basis(ctx), diagonal_factors=((),) * ctx.vertex_count))
# B_2 with 1 added at vertex 4: every stage is valid, but the basis is not
# flow-up, so dividing the K-class B_2 fails.
ctx = QuadricGraph(1)
basis = canonical_basis(ctx)
b_2 = basis.classes[1]
broken = replace(basis, classes=(basis.classes[0], VertexMap({**b_2.values, 4: b_2[4] + one(ctx.m)})) + basis.classes[2:])
print(all(stage.valid for stage in broken._stages))
attempt(ctx, b_2, broken)
"""
    src = str(Path(kquadric.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == (
        "residual not triangular at stage 3\n"
        "True\n"
        "exact division failed at stage 4 on a K-class: the basis is not flow-up\n"
    )


def test_decompose_without_basis_builds_it_once(monkeypatch, q2):
    module = importlib.import_module("kquadric.decompose")
    built = []

    def counting(ctx):
        built.append(ctx.n)
        return canonical_basis(ctx)

    monkeypatch.setattr(module, "canonical_basis", counting)
    module._shared_basis.cache_clear()
    f = monomial_class(q2, 2) * thom_class(q2, {5, 6})
    first = decompose(q2, f)
    second = decompose(QuadricGraph(2), f)
    assert first == second
    assert recompose(q2, first) == f
    assert built == [2]


def test_decompose_validates_shape(q1, q2):
    with pytest.raises(ValueError):
        decompose(q2, one_map(q1))


# -- recompose -------------------------------------------------------------------


def test_recompose_zero_tuple(q1):
    assert recompose(q1, [zero(2)] * 4) == zero_map(q1)


def test_recompose_unit_vectors_give_basis(q2):
    basis = canonical_basis(q2)
    for k in range(q2.vertex_count):
        coeffs = [one(3) if i == k else zero(3) for i in range(q2.vertex_count)]
        assert recompose(q2, coeffs, basis) == basis.classes[k]


def test_recompose_validates_length(q1):
    with pytest.raises(ValueError):
        recompose(q1, [one(2)] * 3)


def test_round_trip_monomial_class(q2):
    f = monomial_class(q2, 1)
    assert recompose(q2, decompose(q2, f)) == f


def test_recompose_always_k_class(q2):
    rng = random.Random(30)
    basis = canonical_basis(q2)
    for _ in range(10):
        coeffs = [
            LaurentPolynomial(
                3, {tuple(rng.randint(-2, 2) for _ in range(3)): rng.randint(-3, 3)}
            )
            for _ in range(q2.vertex_count)
        ]
        assert is_k_class(q2.graph, recompose(q2, coeffs, basis))


# -- uniqueness and the certification sweep ------------------------------------------


def test_zero_decomposes_to_zero(q2):
    d = decompose(q2, zero_map(q2))
    assert all(h.is_zero() for h in d.coefficients)


def test_distinct_coefficients_recompose_distinctly(q1):
    rng = random.Random(31)
    basis = canonical_basis(q1)
    seen = []
    for _ in range(10):
        coeffs = tuple(
            LaurentPolynomial(
                2, {tuple(rng.randint(-2, 2) for _ in range(2)): rng.choice((-2, -1, 1, 2))}
            )
            for _ in range(4)
        )
        f = recompose(q1, coeffs, basis)
        for other_coeffs, other_f in seen:
            if other_coeffs != coeffs:
                assert other_f != f
        seen.append((coeffs, f))


@pytest.mark.parametrize("n", [1, 2])
def test_verify_free_module(n):
    ctx = QuadricGraph(n)
    report = verify_free_module(ctx, trials=100, seed=13)
    assert report.ok
    assert report.coefficient_round_trips == 100
    assert report.class_round_trips == 100
    assert report.zero_decomposes_to_zero
    doc = report.to_json_dict()
    assert doc["pass"] is True


def test_random_k_classes_are_k_classes(q2):
    rng = random.Random(32)
    for _ in range(10):
        assert is_k_class(q2.graph, random_k_class(q2, rng))


def test_generator_product_round_trip(q2):
    # Product of a monomial class with the Thom class of the last vertex.
    f = monomial_class(q2, 2) * thom_class(q2, {q2.vertex_count})
    d = decompose(q2, f)
    assert recompose(q2, d) == f


# -- localization ---------------------------------------------------------------------


def test_restrict_at_values(q2):
    assert monomial_class(q2, 1)[1] == one(3)
    ratio = monomial_class(q2, 2) * monomial_class(q2, 1, inverted=True)
    for v in q2.vertices:
        assert ratio[v] == monomial((1, 0, 0))


def test_vertex_values_determine_the_class(q1):
    f = monomial_class(q1, 2)
    g = thom_class(q1, {2})
    same = all(f[v] == g[v] for v in q1.vertices)
    assert same == (f == g)


# -- serialization ---------------------------------------------------------------------


def test_decomposition_json_round_trip(q1):
    d = decompose(q1, monomial_class(q1, 4))
    doc = d.to_json_dict(q1)
    assert set(doc) == {"n", "coeffs"}
    assert len(doc["coeffs"]) == 4
    assert Decomposition.from_json_dict(q1, doc) == d


def test_decomposition_json_writer_refuses_what_the_reader_refuses(q1):
    # The reader refuses a coefficient in 3 variables at n=1; so does the writer.
    with pytest.raises(ValueError, match="coefficient has 3 variables, expected 2"):
        Decomposition((one(2), one(2), one(3), one(2))).to_json_dict(q1)
    with pytest.raises(ValueError, match="coefficient count"):
        Decomposition((one(2),) * 3).to_json_dict(q1)


def test_decomposition_json_rejects_a_boolean_n(q1):
    # True == 1, so only the type check keeps it from passing as n=1.
    doc = decompose(q1, monomial_class(q1, 4)).to_json_dict(q1)
    doc["n"] = True
    with pytest.raises(ParseError, match="n=True"):
        Decomposition.from_json_dict(q1, doc)
