import random

import pytest

import kquadric.gkm as gkm
import kquadric.laurent as laurent
from kquadric.gkm import (
    Connection,
    ConnectionDerivationError,
    GkmGraph,
    VertexMap,
    check_axial_axioms,
    check_connection_involution,
    check_three_independence,
    derive_connection,
    integer_multiple_of,
    is_k_class,
)
from kquadric.laurent import divisible_by_binomial, monomial, one, zero
from kquadric.quadric import QuadricGraph, monomial_class, thom_class


def two_path_graph(weight_12=(1, 0), weight_21=(-1, 0)):
    graph = GkmGraph(2, 2, {(1, 2): weight_12, (2, 1): weight_21})
    conn = Connection(
        {
            (1, 2): {(1, 2): ((2, 1), 0)},
            (2, 1): {(2, 1): ((1, 2), 0)},
        }
    )
    return graph, conn


# -- graph construction ---------------------------------------------------------


def test_graph_rejects_missing_reversal():
    with pytest.raises(ValueError, match="reversal"):
        GkmGraph(1, 2, {(1, 2): (1,)})


def test_graph_rejects_loops_and_range():
    with pytest.raises(ValueError, match="loop"):
        GkmGraph(1, 2, {(1, 1): (1,)})
    with pytest.raises(ValueError, match="range"):
        GkmGraph(1, 2, {(1, 3): (1,), (3, 1): (-1,)})


@pytest.mark.parametrize(
    "m, vertex_count, message",
    [
        (True, 2, "lattice rank must be a positive int, got True"),
        (1, True, "vertex count must be a positive int, got True"),
    ],
)
def test_graph_rejects_bool_counts(m, vertex_count, message):
    with pytest.raises(ValueError, match=message):
        GkmGraph(m, vertex_count, {})


def test_graph_json_round_trip(q2):
    doc = q2.graph.to_json_dict()
    assert len(doc["edges"]) == 6 * 4  # each ordered edge listed once per direction


# -- axial axioms ----------------------------------------------------------------


def test_quadric_passes_axial_axioms(q2):
    assert check_axial_axioms(q2.graph, derive_connection(q2.graph)).ok


def test_antisymmetry_violation_reported():
    graph, conn = two_path_graph(weight_21=(1, 0))  # not the negation
    report = check_axial_axioms(graph, conn)
    assert not report.ok
    assert any(v.condition == 1 and v.subject == (1, 2) for v in report.violations)


def test_parallel_weights_reported():
    # A triangle whose weights at vertex 1 are collinear.
    axial = {
        (1, 2): (1, 0), (2, 1): (-1, 0),
        (1, 3): (2, 0), (3, 1): (-2, 0),
        (2, 3): (1, 0), (3, 2): (-1, 0),
    }
    graph = GkmGraph(2, 3, axial)
    maps = {}
    for (p, q) in graph.edges():
        star = {}
        targets = sorted(graph.edges_from(q), key=lambda e: e != (q, p))
        for e_prime, target in zip(graph.edges_from(p), targets):
            diff = tuple(
                a - b for a, b in zip(graph.axial(*target), graph.axial(*e_prime))
            )
            k = integer_multiple_of(diff, graph.axial(p, q))
            star[e_prime] = (target, 0 if k is None else k)
        maps[(p, q)] = star
    report = check_axial_axioms(graph, Connection(maps))
    assert any(v.condition == 2 for v in report.violations)


def test_connection_shape_mismatch_is_an_error(q1, q2):
    with pytest.raises(ValueError, match="shape"):
        check_axial_axioms(q2.graph, derive_connection(q1.graph))


def test_tampered_witness_reported(q1):
    connection = derive_connection(q1.graph)
    maps = {e: connection.star_map(e) for e in connection.edges()}
    e = (1, 2)
    target, witness = maps[e][(1, 3)]
    maps[e][(1, 3)] = (target, witness + 1)
    report = check_axial_axioms(q1.graph, Connection(maps))
    assert any(v.condition == 3 and v.subject == (e, (1, 3)) for v in report.violations)


# -- connection derivation --------------------------------------------------------


def test_derived_connection_sends_edge_to_reversal(q2):
    connection = derive_connection(q2.graph)
    for e in q2.graph.edges():
        assert connection.transport(e, e) == (e[1], e[0])
        assert connection.witness(e, e) == -2


def test_derived_connection_generic_case(q2):
    # Along (i, j), an edge (i, k) with k neither endpoint nor an antipode of one
    # transports to (j, k) with witness -1.
    connection = derive_connection(q2.graph)
    e = (1, 2)
    assert connection.transport(e, (1, 3)) == (2, 3)
    assert connection.witness(e, (1, 3)) == -1


def test_derived_connection_antipode_case(q2):
    # Along (i, j), the edge toward antipode(j) transports to the edge toward
    # antipode(i), with witness 0.
    e = (1, 2)
    antipode_j = q2.antipode(2)
    antipode_i = q2.antipode(1)
    connection = derive_connection(q2.graph)
    assert connection.transport(e, (1, antipode_j)) == (2, antipode_i)
    assert connection.witness(e, (1, antipode_j)) == 0


def test_derivation_fails_without_candidates():
    graph, _ = two_path_graph(weight_12=(1, 0), weight_21=(0, 1))
    with pytest.raises(ConnectionDerivationError) as err:
        derive_connection(graph)
    assert err.value.kind == "no-candidate"


@pytest.mark.parametrize(
    "diff, base, k",
    [
        ((0, 0), (0, 0), 0),
        ((1, 0), (0, 0), None),
        ((4, -6), (-2, 3), -2),
        ((6, 0, -3), (2, 0, -1), 3),
        ((3, 0), (2, 0), None),  # not divisible at the pivot
        ((-3, 0), (2, 0), None),
        ((2, 5), (1, 2), None),  # divisible at the pivot, not elsewhere
        ((0, 3), (0, -1), -3),  # the pivot is the first nonzero coordinate
    ],
)
def test_integer_multiple_of(diff, base, k):
    assert integer_multiple_of(diff, base) == k


def test_derivation_fails_on_ambiguity():
    # Collinear triangle: several partners match along (1, 2).
    axial = {
        (1, 2): (1, 0), (2, 1): (-1, 0),
        (1, 3): (2, 0), (3, 1): (-2, 0),
        (2, 3): (1, 0), (3, 2): (-1, 0),
    }
    with pytest.raises(ConnectionDerivationError) as err:
        derive_connection(GkmGraph(2, 3, axial))
    assert err.value.kind == "ambiguous"


def test_connection_involution(q1, q2):
    assert check_connection_involution(q1.graph, derive_connection(q1.graph))
    assert check_connection_involution(q2.graph, derive_connection(q2.graph))


# -- three-independence ------------------------------------------------------------


def test_quadric_three_independent(q2):
    assert check_three_independence(q2.graph)


def test_degree_two_vacuously_three_independent(q1):
    assert len(q1.graph.edges_from(1)) == 2
    assert check_three_independence(q1.graph)


def test_dependent_triple_detected():
    axial = {}
    weights = {2: (1, 0, 0), 3: (0, 1, 0), 4: (1, 1, 0)}
    for j, w in weights.items():
        axial[(1, j)] = w
        axial[(j, 1)] = tuple(-x for x in w)
    others = {(2, 3), (2, 4), (3, 4)}
    fill = {(2, 3): (0, 0, 1), (2, 4): (1, 0, 1), (3, 4): (0, 1, 1)}
    for (i, j) in others:
        axial[(i, j)] = fill[(i, j)]
        axial[(j, i)] = tuple(-x for x in fill[(i, j)])
    graph = GkmGraph(3, 4, axial)
    assert not check_three_independence(graph)


# -- K-class test -------------------------------------------------------------------


def test_constant_maps_are_k_classes(q2):
    f = VertexMap.constant(q2.vertices, monomial((1, -2, 0), 3))
    assert is_k_class(q2.graph, f)


def test_monomial_class_is_k_class(q2):
    assert is_k_class(q2.graph, monomial_class(q2, 1))


def test_indicator_map_fails_with_edge_report(q1):
    values = {v: zero(2) for v in q1.vertices}
    values[1] = one(2)
    report = is_k_class(q1.graph, VertexMap(values))
    assert not report.ok
    assert report.failing_edges == ((1, 2), (1, 3))


def test_k_class_test_from_an_upper_end_tests_only_those_edges(q2):
    # The constant v at each vertex v: every difference is a nonzero
    # constant, so every edge fails; from u on, the report holds exactly the
    # edges whose larger end is at least u.
    f = VertexMap({v: monomial((0, 0, 0), v) for v in q2.vertices})
    edges = is_k_class(q2.graph, f).failing_edges
    assert edges == tuple(q2.graph.unordered_edges())
    for u in q2.vertices:
        assert is_k_class(q2.graph, f, u).failing_edges == tuple(e for e in edges if max(e) >= u)
    assert is_k_class(q2.graph, f, q2.vertex_count + 1)


def test_k_class_requires_total_map(q1):
    with pytest.raises(ValueError):
        is_k_class(q1.graph, VertexMap({1: one(2), 2: one(2)}))


def test_k_class_dimension_mismatch(q1):
    f = VertexMap.constant(q1.vertices, one(3))
    with pytest.raises(ValueError):
        is_k_class(q1.graph, f)


def test_k_class_test_checks_each_weight_once_per_graph(monkeypatch):
    checked, tested = [], []
    check, difference_divisible = laurent._checked_alpha, gkm._difference_divisible
    counting = lambda alpha, m: checked.append(alpha) or check(alpha, m)  # noqa: E731
    monkeypatch.setattr(laurent, "_checked_alpha", counting)
    monkeypatch.setattr(gkm, "_checked_alpha", counting)
    ctx = QuadricGraph(2)
    assert checked == [ctx.graph.axial(i, j) for i, j in ctx.graph.unordered_edges()]
    del checked[:]
    monkeypatch.setattr(
        gkm, "_difference_divisible", lambda a, b, alpha: tested.append(alpha) or difference_divisible(a, b, alpha)
    )
    classes = [monomial_class(ctx, v) for v in ctx.vertices] + [thom_class(ctx, [2, 4, 6])]
    monkeypatch.setattr(laurent.LaurentPolynomial, "_add", lambda *args: pytest.fail("difference built"))
    for _ in range(3):
        assert all(is_k_class(ctx.graph, f) for f in classes)
    assert tested and not checked  # every divisibility test goes through gkm's global, none re-checks
    assert all(type(alpha) is laurent._Divisor for alpha in tested)
    monkeypatch.undo()
    # Straight calls still check their alpha.
    for bad, message in [((0, 0, 0), "nonzero vector"), ((1, 0), "has length 2, expected 3"), ((1.0, 0, 0), "ints")]:
        with pytest.raises(ValueError, match=message):
            divisible_by_binomial(one(3), bad)


def test_k_class_test_refuses_a_zero_weight_it_meets():
    axial = {(1, 2): (0, 0), (2, 1): (0, 0), (1, 3): (1, 0), (3, 1): (-1, 0)}
    graph = GkmGraph(2, 3, axial)  # the axioms are reported, not enforced, at construction
    f = VertexMap({1: one(2), 2: one(2), 3: one(2)})
    assert is_k_class(graph, f)  # no difference across the zero-weight edge: nothing divided
    g = VertexMap({1: one(2), 2: zero(2), 3: one(2)})
    with pytest.raises(ValueError, match="nonzero vector"):
        is_k_class(graph, g)


# -- vertex map operations ------------------------------------------------------------


def test_scale_constant(q1):
    y1 = monomial((1, 0))
    f = VertexMap.constant(q1.vertices, one(2)) * y1
    assert f == VertexMap.constant(q1.vertices, y1)


def test_class_times_inverse_is_one(q2):
    product = monomial_class(q2, 1) * monomial_class(q2, 1, inverted=True)
    assert product == VertexMap.constant(q2.vertices, one(3))


def test_subtracting_self_gives_zero(q1):
    f = monomial_class(q1, 2)
    for difference in (f + f * -1, f - f):
        assert all(p.is_zero() for p in difference.values.values())


def test_k_classes_closed_under_ring_ops(q2):
    rng = random.Random(10)
    pool = [monomial_class(q2, v) for v in q2.vertices]
    pool += [thom_class(q2, members) for members in q2.admissible_subsets()[:12]]
    for _ in range(15):
        f = pool[rng.randrange(len(pool))]
        g = pool[rng.randrange(len(pool))]
        assert is_k_class(q2.graph, f + g)
        assert is_k_class(q2.graph, f * g)
        assert is_k_class(q2.graph, f * monomial((1, 0, -1), 2))


# -- connection invariance of admissible subsets ---------------------------------------


def connection_preserves_subset(graph, connection, members) -> bool:
    """True iff for each edge inside `members` the connection matches edges into
    `members` with edges into `members` (and likewise for edges leaving it)."""
    inside = frozenset(members)
    for i in sorted(inside):
        for j in sorted(inside):
            if i == j or not graph.has_edge(i, j):
                continue
            e = (i, j)
            for e_prime in graph.edges_from(i):
                target = connection.transport(e, e_prime)
                if (e_prime[1] in inside) != (target[1] in inside):
                    return False
    return True


@pytest.mark.parametrize("n", [1, 2, 3])
def test_admissible_subsets_connection_invariant(n, q1, q2, q3):
    ctx = {1: q1, 2: q2, 3: q3}[n]
    connection = derive_connection(ctx.graph)
    for members in ctx.admissible_subsets():
        assert connection_preserves_subset(ctx.graph, connection, members)
