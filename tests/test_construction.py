"""The connection and the Thom classes against second constructions.

`derive_connection` is the pairwise partner search (`integer_multiple_of`
on every pair of edges) and `thom_class` multiplies memoized edge binomials;
`construction_oracles.py` keeps the coset-key partner search and the
vertex-weight product.  Both must agree exactly, errors included, and the
Thom memo must stay private to its context and share one key table.
"""
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kquadric.gkm as gkm
import kquadric.quadric as quadric
from construction_oracles import coset_key_connection, vertex_weight_thom_class
from kquadric.gkm import ConnectionDerivationError, GkmGraph, derive_connection
from kquadric.quadric import QuadricGraph, thom_class


def outcome(derive, graph):
    """Every star map of the derived connection, or the error's kind and message."""
    try:
        connection = derive(graph)
    except ConnectionDerivationError as exc:
        return ("error", exc.kind, str(exc))
    return ("ok", {e: connection.star_map(e) for e in connection.edges()})


@pytest.mark.parametrize("n", range(1, 9))
def test_connection_matches_the_pairwise_search_on_the_quadric(n):
    graph = QuadricGraph(n).graph
    assert outcome(derive_connection, graph) == outcome(coset_key_connection, graph)
    assert outcome(derive_connection, graph)[0] == "ok"


vector = lambda m: st.tuples(*[st.integers(-3, 3)] * m)  # noqa: E731


@st.composite
def small_graphs(draw):
    """Small graphs of three kinds: the quadric graph for n = 1, 2 with its
    weights sent through a drawn integer matrix (maps that are not injective
    make weights parallel or collinear, the others keep a connection and
    often make every weight non-primitive); vertex-weight differences on a
    complete graph; free draws of edges and weights.  Every reversal is the
    negated weight, except for at most one free draw."""
    kind = draw(st.sampled_from(("quadric", "vertex", "free")))
    if kind == "quadric":
        base = QuadricGraph(draw(st.integers(1, 2))).graph
        count, m = base.vertex_count, draw(st.integers(base.m, base.m + 1))
        matrix = [draw(vector(base.m)) for _ in range(m)]
        forward = {
            e: tuple(sum(a * x for a, x in zip(row, base.axial(*e))) for row in matrix)
            for e in base.unordered_edges()
        }
    else:
        m, count = draw(st.integers(1, 3)), draw(st.integers(2, 5))
        pairs = [(i, j) for i in range(1, count + 1) for j in range(i + 1, count + 1)]
        if kind == "vertex":
            h = {v: draw(vector(m)) for v in range(1, count + 1)}
            forward = {(i, j): tuple(b - a for a, b in zip(h[i], h[j])) for i, j in pairs}
        else:
            kept = [pair for pair in pairs if draw(st.booleans())] or pairs[:1]
            forward = {pair: draw(vector(m)) for pair in kept}
    axial = {}
    for (i, j), w in forward.items():
        axial[(i, j)] = w
        axial[(j, i)] = tuple(-x for x in w)
    odd = draw(st.sampled_from([None, None, *forward]))
    if odd is not None:
        axial[odd[::-1]] = draw(vector(m))
    return GkmGraph(m, count, axial)


def triangle(w12, w13, w23):
    axial = {}
    for (i, j), w in {(1, 2): w12, (1, 3): w13, (2, 3): w23}.items():
        axial[(i, j)] = w
        axial[(j, i)] = tuple(-x for x in w)
    return GkmGraph(len(w12), 3, axial)


@settings(max_examples=400, deadline=None)
@given(small_graphs())
@example(QuadricGraph(1).graph)
@example(triangle((1, 0), (2, 0), (1, 0)))  # collinear: ambiguous
@example(triangle((1, 0), (0, 1), (-1, 1)))  # a GKM triangle
@example(triangle((2, 0), (0, 2), (-2, 2)))  # non-primitive weights
@example(triangle((0, 0), (0, 1), (0, 1)))  # a zero weight
@example(GkmGraph(1, 2, {(1, 2): (2,), (2, 1): (2,)}))  # no reversal partner
def test_connection_matches_the_pairwise_search_on_small_graphs(graph):
    assert outcome(derive_connection, graph) == outcome(coset_key_connection, graph)


@pytest.mark.parametrize("n", range(1, 6))
def test_thom_classes_match_the_vertex_weight_product(n):
    ctx = QuadricGraph(n)
    subsets = ctx.admissible_subsets()
    assert len(subsets) == 3 ** (n + 1) - 1  # 728 at n = 5
    random.Random(n).shuffle(subsets)  # the memo must not depend on the order of requests
    for members in subsets:
        assert thom_class(ctx, members) == vertex_weight_thom_class(ctx, members)


@pytest.mark.parametrize("n", range(1, 6))
def test_memoized_values_share_the_context_key_table(n):
    """Every packed key of every memoized value is the int object that the
    context's key table holds, so each distinct key is stored once per
    context: at n = 6 the memo traces to 127 MB, against 179 MB when the
    kernel makes its keys without the table (tracemalloc)."""
    ctx = QuadricGraph(n)
    for members in ctx.admissible_subsets():
        thom_class(ctx, members)
    keys = ctx._exit_keys
    assert all(keys.get(key) is key for value in ctx._exit_products.values() for key in value._terms)


def test_thom_memo_is_private_to_its_context(monkeypatch):
    built = []
    binomial = quadric.one_minus_monomial
    monkeypatch.setattr(quadric, "one_minus_monomial", lambda alpha: built.append(alpha) or binomial(alpha))
    first, second = QuadricGraph(3), QuadricGraph(3)
    assert first._exit_products is not second._exit_products
    assert first._exit_keys is not second._exit_keys
    classes = [thom_class(first, members) for members in first.admissible_subsets()]
    cold = len(built)
    assert cold and not second._exit_products and not second._exit_keys
    # Again on the same context: every value comes from the memo.
    assert [thom_class(first, members) for members in first.admissible_subsets()] == classes
    assert len(built) == cold
    # A second cold set-up pays in full and shares no value with the first.
    again = [thom_class(second, members) for members in second.admissible_subsets()]
    assert again == classes and len(built) == 2 * cold
    assert all(a[v] is not b[v] for a, b in zip(classes, again) for v in first.vertices)


def test_no_module_level_cache_of_contexts_or_classes():
    for module in (quadric, gkm):
        for name, value in vars(module).items():
            assert not hasattr(value, "cache_info"), f"{module.__name__}.{name} is a memoized function"
            assert not isinstance(value, dict) or name.startswith("__"), f"{module.__name__}.{name} is a dict"
