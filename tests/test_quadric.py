import pytest

import kquadric.gkm as gkm
import kquadric.quadric as quadric
from kquadric.gkm import VertexMap, is_k_class
from kquadric.laurent import monomial, one
from kquadric.linalg import spans_full_lattice
from kquadric.quadric import (
    QuadricGraph,
    antipodal_product_class,
    monomial_class,
    thom_class,
    vertex_map_from_json_dict,
    vertex_map_to_json_dict,
)
from kquadric.relations import ClassProvider


# -- graph construction -----------------------------------------------------------


def test_build_rejects_bad_n():
    with pytest.raises(ValueError):
        QuadricGraph(0)
    with pytest.raises(ValueError):
        QuadricGraph(-3)


@pytest.mark.parametrize("n", range(1, 9))
def test_a_context_derives_no_connection(n, monkeypatch):
    # Classes read only the axial function; the connection is for the axiom checks.
    def derive_connection(graph):
        raise AssertionError("a QuadricGraph derived its connection")

    monkeypatch.setattr(gkm, "derive_connection", derive_connection)
    monkeypatch.setattr(quadric, "derive_connection", derive_connection, raising=False)
    ctx = QuadricGraph(n)
    members = ctx.admissible_subsets()[-1]
    doc = vertex_map_to_json_dict(ctx, thom_class(ctx, members))
    assert doc["n"] == n and len(doc["values"]) == ctx.vertex_count


def test_build_rejects_bool_n():
    # QuadricGraph(True) would write "n": true, which vertex_map_from_json_dict refuses.
    with pytest.raises(ValueError, match="n must be a positive int, got True"):
        QuadricGraph(True)


def test_vertex_and_edge_structure(q2):
    assert list(q2.vertices) == [1, 2, 3, 4, 5, 6]
    for i in q2.vertices:
        assert q2.antipode(q2.antipode(i)) == i
        assert len(q2.graph.edges_from(i)) == 2 * q2.n
        for j in q2.vertices:
            expected = j not in (i, q2.antipode(i))
            assert q2.graph.has_edge(i, j) == expected


def test_weights_n1(q1):
    # h = (-x_2, x_1 - x_2, 0, x_1) on vertices 1..4.
    assert [q1.vertex_weight(j) for j in q1.vertices] == [
        (0, -1),
        (1, -1),
        (0, 0),
        (1, 0),
    ]


def test_weight_vanishes_at_vertex_n_plus_2(q2):
    assert q2.vertex_weight(4) == (0, 0, 0)


def test_axial_values_at_vertex_one_n2(q2):
    # x_1, x_2, x_3, -x_1 + x_2 + x_3 toward vertices 2, 3, 4, 5.
    assert q2.graph.axial(1, 2) == (1, 0, 0)
    assert q2.graph.axial(1, 3) == (0, 1, 0)
    assert q2.graph.axial(1, 4) == (0, 0, 1)
    assert q2.graph.axial(1, 5) == (-1, 1, 1)


def test_weight_antipode_sum_is_constant():
    for n in (1, 2, 3, 4):
        ctx = QuadricGraph(n)
        expected = tuple(
            1 if i == n - 1 else (-1 if i == n else 0) for i in range(n + 1)
        )  # x_n - x_{n+1}
        for k in ctx.vertices:
            total = tuple(
                a + b
                for a, b in zip(ctx.vertex_weight(k), ctx.vertex_weight(ctx.antipode(k)))
            )
            assert total == expected


def test_axial_antipode_symmetry(q2):
    # weight(antipode v -> antipode k) equals weight(k -> v).
    for v in q2.vertices:
        for k in q2.vertices:
            if not q2.graph.has_edge(v, k):
                continue
            assert q2.graph.axial(q2.antipode(v), q2.antipode(k)) == q2.graph.axial(k, v)


def test_axial_values_span_lattice():
    for n in (1, 2, 3, 4):
        ctx = QuadricGraph(n)
        for v in ctx.vertices:
            rows = [ctx.graph.axial(*e) for e in ctx.graph.edges_from(v)]
            assert spans_full_lattice(rows, ctx.m)
    assert not spans_full_lattice([(2, 0), (0, 1)], 2)  # full rank, index 2
    assert not spans_full_lattice([(1, 0)], 2)  # rank 1


# -- vertex characters ---------------------------------------------------------------


def test_characters_n2(q2):
    assert monomial(q2.vertex_weight(1)) == monomial((0, 0, -1))  # y3^-1
    assert monomial(q2.vertex_weight(4)) == one(3)


def test_characters_n1(q1):
    assert monomial(q1.vertex_weight(4)) == monomial((1, 0))  # y1


def test_character_ratio_recovers_generators():
    for n in (1, 2, 3):
        ctx = QuadricGraph(n)
        for j in range(1, n + 2):
            ratio = monomial(ctx.vertex_weight(j + 1)) * monomial(tuple(-x for x in ctx.vertex_weight(1)))
            expected = monomial(tuple(1 if i == j - 1 else 0 for i in range(n + 1)))
            assert ratio == expected


# -- monomial classes -----------------------------------------------------------------


def test_monomial_class_golden_n2(q2):
    m1 = monomial_class(q2, 1)
    assert m1[1] == one(3)
    assert m1[2] == monomial((-1, 0, 0))
    assert m1[3] == monomial((0, -1, 0))
    assert m1[4] == monomial((0, 0, -1))
    assert m1[5] == monomial((1, -1, -1))
    assert m1[6] == monomial((0, -1, -1))


def test_monomial_class_is_one_at_its_vertex():
    for n in (1, 2, 3):
        ctx = QuadricGraph(n)
        for v in ctx.vertices:
            assert monomial_class(ctx, v)[v] == one(ctx.m)


def test_monomial_class_antipode_value_n1(q1):
    assert monomial_class(q1, 1)[4] == monomial((-1, -1))


def test_monomial_class_antipode_value_independent_of_auxiliary_vertex(q2):
    # The antipode value equals y^(weight(antipode(v),k) + weight(antipode(v),antipode(k)))
    # for every admissible auxiliary k.
    for v in q2.vertices:
        v_bar = q2.antipode(v)
        expected = monomial_class(q2, v)[v_bar]
        for k in q2.vertices:
            if k in (v, v_bar):
                continue
            via_k = monomial(q2.graph.axial(v_bar, k)) * monomial(
                q2.graph.axial(v_bar, q2.antipode(k))
            )
            assert via_k == expected


def test_monomial_class_inverse(q2):
    for v in q2.vertices:
        product = monomial_class(q2, v) * monomial_class(q2, v, inverted=True)
        assert product == VertexMap.constant(q2.vertices, one(3))


def test_monomial_class_vertex_range():
    for n in (1, 2, 3):
        ctx = QuadricGraph(n)
        for v in (0, 2 * n + 3):
            for inverted in (False, True):
                with pytest.raises(ValueError, match=rf"^vertex {v} out of range 1\.\.{2 * n + 2}$"):
                    monomial_class(ctx, v, inverted=inverted)


# -- Thom classes ----------------------------------------------------------------------


def test_thom_class_golden_n2(q2):
    d = thom_class(q2, [2, 4, 6])
    y1_inv = monomial((-1, 0, 0))
    y3_inv = monomial((0, 0, -1))
    y2y1_inv = monomial((-1, 1, 0))
    assert d[2] == (one(3) - y1_inv) * (one(3) - y2y1_inv)
    assert d[4] == (one(3) - y3_inv) * (one(3) - y2y1_inv)
    assert d[6] == (one(3) - y3_inv) * (one(3) - y1_inv)
    assert d[1].is_zero() and d[3].is_zero() and d[5].is_zero()


def test_thom_class_zero_off_support(q2):
    for members in q2.admissible_subsets()[:10]:
        d = thom_class(q2, members)
        for l in q2.vertices:
            assert d[l].is_zero() == (l not in members)


def test_thom_class_pair_n1(q1):
    d = thom_class(q1, [3, 4])
    expected = one(2) - monomial((0, -1))  # 1 - y2^-1
    assert d[3] == expected
    assert d[4] == expected
    assert d[1].is_zero() and d[2].is_zero()


def test_thom_class_rejects_inadmissible(q1):
    with pytest.raises(ValueError):
        thom_class(q1, [])
    with pytest.raises(ValueError):
        thom_class(q1, [1, 4])  # antipodal pair
    with pytest.raises(ValueError):
        thom_class(q1, [0, 2])  # out of range


# -- antipodal product class -------------------------------------------------------------


def test_antipodal_product_values_n1(q1):
    x = antipodal_product_class(q1)
    assert x[1] == monomial((1, 1))
    assert x[3] == monomial((1, -1))


def test_antipodal_product_at_character_one_vertex():
    for n in (1, 2, 3):
        ctx = QuadricGraph(n)
        e = [0] * ctx.m
        e[n - 1], e[n] = 1, -1
        assert antipodal_product_class(ctx)[n + 2] == monomial(tuple(e))


def test_antipodal_product_equals_class_products(q1, q2):
    for ctx in (q1, q2):
        x = antipodal_product_class(ctx)
        for v in ctx.vertices:
            assert monomial_class(ctx, v) * monomial_class(ctx, ctx.antipode(v)) == x


# -- supported classes --------------------------------------------------------------------


def test_supported_class_complement_shape_n1(q1):
    f = ClassProvider(q1).supported([2, 3, 4])  # everything but vertex 1
    assert f[1].is_zero()
    assert f[2] == one(2) - monomial((-1, 0))
    assert f[3] == one(2) - monomial((0, -1))
    assert f[4] == one(2) - monomial((-1, -1))


def test_supported_class_admissible_shape(q1):
    assert ClassProvider(q1).supported([3, 4]) == thom_class(q1, [3, 4])


def test_supported_class_rejects_other_shapes(q1):
    with pytest.raises(ValueError):
        ClassProvider(q1).supported([1, 4])  # antipodal pair, not a single-vertex complement


# -- admissible subsets ----------------------------------------------------------------


def test_admissible_subset_count():
    for n in (1, 2, 3):
        ctx = QuadricGraph(n)
        assert len(ctx.admissible_subsets()) == 3 ** (n + 1) - 1


def test_admissible_subset_order(q1):
    subsets = q1.admissible_subsets()
    assert subsets[:4] == [frozenset({1}), frozenset({2}), frozenset({3}), frozenset({4})]
    sizes = [len(s) for s in subsets]
    assert sizes == sorted(sizes)


def test_is_admissible(q2):
    assert q2.is_admissible({2, 4, 6})
    assert not q2.is_admissible(set())
    assert not q2.is_admissible({1, 6})
    assert not q2.is_admissible({0, 2})


# -- every generator is a K-class ----------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2])
def test_generator_k_class_sweep(n):
    ctx = QuadricGraph(n)
    for v in ctx.vertices:
        assert is_k_class(ctx.graph, monomial_class(ctx, v))
        assert is_k_class(ctx.graph, monomial_class(ctx, v, inverted=True))
    for members in ctx.admissible_subsets():
        assert is_k_class(ctx.graph, thom_class(ctx, members))


# -- vertex map serialization ----------------------------------------------------------


def test_vertex_map_json_round_trip(q2):
    vm = thom_class(q2, [2, 4, 6])
    doc = vertex_map_to_json_dict(q2, vm)
    assert set(doc) == {"n", "values"}
    assert vertex_map_from_json_dict(q2, doc) == vm


def test_vertex_map_json_writer_refuses_what_the_reader_refuses(q1):
    # The reader refuses a value in 3 variables at n=1; so does the writer.
    with pytest.raises(ValueError, match="vertex map has 3 variables, expected 2"):
        vertex_map_to_json_dict(q1, VertexMap.constant(q1.vertices, one(3)))
    with pytest.raises(ValueError, match="does not cover exactly"):
        vertex_map_to_json_dict(q1, VertexMap.constant(range(1, 4), one(2)))


def test_vertex_map_json_requires_every_vertex(q1):
    doc = vertex_map_to_json_dict(q1, monomial_class(q1, 1))
    del doc["values"]["3"]
    from kquadric.laurent import ParseError

    with pytest.raises(ParseError, match="missing"):
        vertex_map_from_json_dict(q1, doc)


def test_vertex_map_json_checks_n(q1, q2):
    doc = vertex_map_to_json_dict(q1, monomial_class(q1, 1))
    from kquadric.laurent import ParseError

    with pytest.raises(ParseError, match="n="):
        vertex_map_from_json_dict(q2, doc)


def test_vertex_map_json_rejects_a_boolean_n(q1):
    # True == 1, so only the type check keeps it from passing as n=1.
    doc = vertex_map_to_json_dict(q1, monomial_class(q1, 1))
    doc["n"] = True
    from kquadric.laurent import ParseError

    with pytest.raises(ParseError, match="n=True"):
        vertex_map_from_json_dict(q1, doc)
