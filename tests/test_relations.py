import gc
import json
import random
import tracemalloc
import weakref
from collections import Counter, deque
from itertools import combinations, combinations_with_replacement
from types import SimpleNamespace

import pytest

from kquadric.gkm import VertexMap
from kquadric.laurent import monomial, one
from kquadric.quadric import QuadricGraph, monomial_class, thom_class
from kquadric.relations import (
    ALL_KINDS,
    CHUNK_RECORDS,
    CheckRecord,
    ClassProvider,
    RelationStream,
    check_antipodal_product,
    check_complete_set_split,
    check_generator_identity,
    check_peeling,
    check_product_vanishing,
    iter_checks,
    random_empty_intersection_family,
    spare_pole_pair,
    support_index_sets,
)


def complement(ctx, v):
    return frozenset(ctx.vertices) - {v}


def expanded_product_vanishes(ctx, family, provider):
    """The oracle: multiply the factor values out at every vertex."""
    factors = [provider.supported(j) for j in family]
    for v in ctx.vertices:
        product = factors[0][v]
        for factor in factors[1:]:
            product = product * factor[v]
        if not product.is_zero():
            return False
    return True


def changed_at(vm, v, value):
    values = dict(vm.values)
    values[v] = value
    return VertexMap(values)


def corrupted_provider(ctx, corruption):
    provider = ClassProvider(ctx)
    if corruption == "missing_vertex":  # 1 - M_1 is -1 at vertex 1, where it should vanish
        m = monomial_class(ctx, 1)
        provider.override("M", 1, changed_at(m, 1, m[1] * 2))
    elif corruption == "off_support":  # the Thom class of {1} is 1 at vertex 2
        provider.override("Delta", {1}, changed_at(thom_class(ctx, {1}), 2, one(ctx.m)))
    return provider


# -- product vanishing ---------------------------------------------------------


def test_all_single_vertex_complements_vanish(q1):
    family = [complement(q1, v) for v in q1.vertices]
    assert check_product_vanishing(q1, family)


def test_disjoint_thom_supports_vanish(q1):
    assert check_product_vanishing(q1, [{3, 4}, {1, 2}])


def test_mixed_family_vanishes(q2):
    family = [{2, 4, 6}, complement(q2, 2), complement(q2, 4), complement(q2, 6)]
    assert check_product_vanishing(q2, family)


def test_nonempty_intersection_rejected(q1):
    with pytest.raises(ValueError, match="intersection"):
        check_product_vanishing(q1, [{1, 2}, {2, 3}])


def test_empty_family_rejected(q1):
    for family in ([], iter(())):
        with pytest.raises(ValueError, match="family must be nonempty"):
            check_product_vanishing(q1, family)


@pytest.mark.parametrize("corruption", ["none", "missing_vertex"])
def test_family_given_as_a_generator_is_read_once(q1, corruption):
    provider = corrupted_provider(q1, corruption)
    for family in ([{1}, complement(q1, 1)], [[1], [2, 3, 4], {1}], [{3, 4}, {1, 2}]):
        expected = check_product_vanishing(q1, list(family), provider)
        assert check_product_vanishing(q1, (j for j in family), provider) == expected, family
    with pytest.raises(ValueError, match=r"intersection \[2\] is nonempty"):
        check_product_vanishing(q1, (j for j in [{1, 2}, {2, 3}]), provider)


def test_invalid_index_set_rejected(q1):
    with pytest.raises(ValueError):
        check_product_vanishing(q1, [{1, 4}, {2}])  # {1,4} has no valid shape


def test_duplicate_members_allowed(q1):
    assert check_product_vanishing(q1, [{1}, {1}, {2}])


def test_random_supersets_still_vanish(q2):
    rng = random.Random(20)
    universe = support_index_sets(q2)
    base = [{1}, complement(q2, 1)]
    for _ in range(10):
        extras = [universe[rng.randrange(len(universe))] for _ in range(rng.randint(1, 3))]
        assert check_product_vanishing(q2, base + extras)


def test_random_family_generator_produces_empty_intersections(q2):
    rng = random.Random(21)
    for _ in range(30):
        family = random_empty_intersection_family(q2, rng)
        intersection = frozenset(q2.vertices)
        for j in family:
            intersection &= j
        assert not intersection
        assert check_product_vanishing(q2, family)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("corruption", ["none", "missing_vertex", "off_support"])
def test_zero_sets_agree_with_expanded_products(n, corruption):
    ctx = QuadricGraph(n)
    provider = corrupted_provider(ctx, corruption)
    for size in (1, 2, 3):
        for family in combinations_with_replacement(support_index_sets(ctx), size):
            if frozenset.intersection(*family):
                continue
            expected = expanded_product_vanishes(ctx, family, provider)
            assert check_product_vanishing(ctx, family, provider) == expected, family
    family = [complement(ctx, 1), {1}]
    assert check_product_vanishing(ctx, family, provider) == (corruption == "none")


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("corruption", ["none", "missing_vertex", "off_support"])
def test_verify_all_decides_product_vanishing_as_the_checked_function(n, corruption):
    ctx = QuadricGraph(n)
    provider = corrupted_provider(ctx, corruption)
    records = list(iter_checks(ctx, seed=4, kinds=("product_vanishing",), provider=provider))
    reference = corrupted_provider(ctx, corruption)
    assert sum(1 for r in records if r.params.get("random")) == 100
    for record in records:
        family = [frozenset(j) for j in record.params["family"]]
        assert record.passed == check_product_vanishing(ctx, family, reference), record
    assert all(r.passed for r in records) == (corruption == "none")


def test_override_after_a_sweep_drops_cached_supported_classes(q1):
    provider = ClassProvider(q1)
    assert all(r.passed for r in iter_checks(q1, seed=3, provider=provider))
    fresh = corrupted_provider(q1, "missing_vertex")
    provider.override("M", 1, fresh.monomial(1))
    records = list(iter_checks(q1, seed=3, provider=provider))
    assert any(r.kind == "product_vanishing" for r in records if not r.passed)
    assert records == list(iter_checks(q1, seed=3, provider=fresh))


def test_provider_is_freed_without_the_cyclic_collector():
    # The provider must own nothing that refers back to it: with the cyclic
    # collector off, a cycle would keep it, and every class it caches, alive.
    ctx = QuadricGraph(2)
    provider = ClassProvider(ctx)
    gc.disable()
    try:
        deque(iter_checks(ctx, provider=provider), maxlen=0)
        freed = weakref.ref(provider)
        del provider
        assert freed() is None
    finally:
        gc.enable()


def test_sweep_streams_in_constant_memory():
    # 72,652 records at n = 3, almost all product-vanishing families: a sweep
    # that collected them, or built a tuple per candidate family, would
    # allocate far more than this bound.
    tracemalloc.start()
    try:
        outcomes = Counter(r.passed for r in iter_checks(QuadricGraph(3)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcomes == {True: 72_652}
    assert peak < 4 * 2**20, peak


def oracle_product_vanishing_records(ctx, bound, random_count, seed, provider):
    """The product-vanishing records of `iter_checks`, with frozenset
    intersections as the filter and expanded products as the decision.
    Returns (family size, record) pairs."""
    universe = support_index_sets(ctx)
    factors = SimpleNamespace(supported={j: provider.supported(j) for j in universe}.__getitem__)
    families = [
        (family, {})
        for size in range(1, bound + 1)
        for family in combinations(universe, size)
        if not frozenset.intersection(*family)
    ]
    rng = random.Random(seed)
    families += [
        (random_empty_intersection_family(ctx, rng, universe), {"random": True})
        for _ in range(random_count)
    ]
    return [
        (len(family), ("product_vanishing", {"family": sorted(sorted(j) for j in family), **extra},
                       expanded_product_vanishes(ctx, family, factors)))
        for family, extra in families
    ]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("corruption", ["none", "missing_vertex", "off_support"])
def test_product_vanishing_sweep_matches_the_oracle(n, corruption):
    ctx = QuadricGraph(n)
    oracle = oracle_product_vanishing_records(ctx, 4, 0, 0, corrupted_provider(ctx, corruption))
    randoms = oracle_product_vanishing_records(ctx, 0, 100, 6, corrupted_provider(ctx, corruption))
    assert all(passed for _, (_, _, passed) in oracle) == (corruption == "none")
    for bound in range(5):
        records = iter_checks(
            ctx,
            family_size_bound=bound,
            seed=6,
            kinds=("product_vanishing",),
            provider=corrupted_provider(ctx, corruption),
        )
        expected = [record for size, record in oracle if size <= bound] + [r for _, r in randoms]
        assert [tuple(r) for r in records] == expected, bound


class RecordingProvider(ClassProvider):
    """A provider that records the index set of every `supported` call."""

    def __init__(self, ctx):
        super().__init__(ctx)
        self.asked = set()

    def supported(self, members):
        self.asked.add(frozenset(members))
        return super().supported(members)


@pytest.mark.parametrize("bound", [0, 1, 2])
def test_sweep_asks_only_for_the_index_sets_it_decides(bound):
    # Below two sets per family only the random families are decided, so only
    # their index sets are read; from two sets on, every index set is.
    ctx = QuadricGraph(3)
    provider = RecordingProvider(ctx)
    records = list(iter_checks(ctx, bound, kinds=("product_vanishing",), provider=provider))
    if bound < 2:
        assert all(r.params.get("random") for r in records)
        assert provider.asked == {frozenset(j) for r in records for j in r.params["family"]}
    else:
        assert provider.asked == set(support_index_sets(ctx))


def test_sweep_records_share_one_member_list_per_index_set():
    # `RelationStream.chunks` encodes each member list once per list object:
    # unshared lists would each be encoded, and kept, once per record.
    ctx = QuadricGraph(2)
    records = list(iter_checks(ctx, 3, kinds=("product_vanishing",)))
    lists = {id(j) for r in records for j in r.params["family"]}
    assert len(lists) <= len(support_index_sets(ctx))


def test_members_given_as_sets_and_lists(q1):
    provider = ClassProvider(q1)
    assert check_product_vanishing(q1, [{1, 2}, [3, 4]], provider)
    assert check_product_vanishing(q1, [frozenset({1, 2}), {3, 4}], provider)  # both cached by now
    assert check_product_vanishing(q1, ([2, 3, 4], {1}), provider)
    assert not check_product_vanishing(q1, [[1], [2, 3, 4], {1}], corrupted_provider(q1, "missing_vertex"))
    with pytest.raises(ValueError, match="intersection"):
        check_product_vanishing(q1, [[1, 2], {2, 3, 4}], provider)


def test_repeated_member_only_repeats_a_factor(q1):
    everything_but_1 = complement(q1, 1)
    assert check_product_vanishing(q1, [everything_but_1, {1}, everything_but_1])
    with pytest.raises(ValueError, match=r"intersection \[2, 3, 4\] is nonempty"):
        check_product_vanishing(q1, [everything_but_1, everything_but_1])


def test_intersection_is_reported_before_an_invalid_index_set(q1):
    for family in ([{2, 3}, {1, 2}], [[2, 3], [1, 2]], [{1, 2}, {2, 3}, {2}]):
        with pytest.raises(ValueError, match=r"intersection \[2\] is nonempty"):
            check_product_vanishing(q1, family)
    with pytest.raises(ValueError, match="neither the complement"):
        check_product_vanishing(q1, [{2, 3}, {1}])  # invalid, empty intersection


# -- spare pole pair -------------------------------------------------------------


def test_spare_pair_n1(q1):
    assert spare_pole_pair(q1, {1}) == (2, 3)


def test_spare_pair_n2(q2):
    assert spare_pole_pair(q2, {2, 4}) == (1, 6)
    assert spare_pole_pair(q2, {1, 2}) == (3, 4)


def test_spare_pair_requires_size_n(q2):
    with pytest.raises(ValueError):
        spare_pole_pair(q2, {1})
    with pytest.raises(ValueError):
        spare_pole_pair(q2, {1, 6})  # inadmissible


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_spare_pair_is_the_one_pair_outside_every_admissible_set_of_size_n(n):
    ctx = QuadricGraph(n)
    sets = [members for members in ctx.admissible_subsets() if len(members) == n]
    assert len(sets) == (n + 1) * 2**n
    for members in sets:
        i, i_bar = spare_pole_pair(ctx, members)
        assert i <= n + 1 and i_bar == ctx.antipode(i)
        assert i not in members and i_bar not in members
        assert {v for v in ctx.vertices if v not in members} - {i, i_bar} == {ctx.antipode(v) for v in members}


# -- complete-set split ------------------------------------------------------------


def test_split_identity_n1(q1):
    assert check_complete_set_split(q1, {1})
    # Both sides at the spare vertex equal 1 - y1^-1.
    lhs = VertexMap.constant(q1.vertices, one(2)) - monomial_class(q1, 1)
    b, b_bar = spare_pole_pair(q1, {1})
    assert b == 2 and lhs[2] == one(2) - monomial((-1, 0))
    rhs = thom_class(q1, {3, 4}) + monomial_class(q1, 2) * thom_class(q1, {2, 4})
    assert lhs == rhs


def test_split_vanishes_inside_the_set(q2):
    members = frozenset({1, 2})
    lhs = VertexMap.constant(q2.vertices, one(3))
    for i in members:
        lhs = lhs * (VertexMap.constant(q2.vertices, one(3)) - monomial_class(q2, i))
    for v in members:
        assert lhs[v].is_zero()


@pytest.mark.parametrize("n", [1, 2])
def test_split_identity_exhaustive(n):
    ctx = QuadricGraph(n)
    count = 0
    for members in ctx.admissible_subsets():
        if len(members) != n:
            continue
        assert check_complete_set_split(ctx, members)
        count += 1
    assert count > 0


def test_split_requires_admissible_size_n(q2):
    with pytest.raises(ValueError):
        check_complete_set_split(q2, {1})
    with pytest.raises(ValueError):
        check_complete_set_split(q2, {3, 4})


# -- peeling ------------------------------------------------------------------------


def test_peel_pair_n1(q1):
    assert check_peeling(q1, {3, 4}, 3)


def test_peel_golden_n2(q2):
    assert check_peeling(q2, {2, 4, 6}, 2)
    lhs = thom_class(q2, {2, 4, 6}) * (
        VertexMap.constant(q2.vertices, one(3)) - monomial_class(q2, 2)
    )
    assert lhs == thom_class(q2, {4, 6})


def test_peel_support(q2):
    lhs = thom_class(q2, {2, 4, 6}) * (
        VertexMap.constant(q2.vertices, one(3)) - monomial_class(q2, 2)
    )
    for l in q2.vertices:
        assert lhs[l].is_zero() == (l not in {4, 6})


def test_peel_parameter_validation(q1):
    with pytest.raises(ValueError):
        check_peeling(q1, {3, 4}, 1)  # i not in the set
    with pytest.raises(ValueError):
        check_peeling(q1, {3}, 3)  # too small


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("corruption", ["none", "missing_vertex", "off_support"])
def test_peeling_agrees_with_the_full_product(n, corruption):
    ctx = QuadricGraph(n)
    provider = corrupted_provider(ctx, corruption)
    outcomes = []
    for members in ctx.admissible_subsets():
        for i in sorted(members) if len(members) > 1 else ():
            product = provider.thom(members) * (1 - provider.monomial(i))
            outcomes.append(product == provider.thom(members - {i}))
            assert check_peeling(ctx, members, i, provider) == outcomes[-1], (members, i)
    assert all(outcomes) == (corruption == "none")


def test_override_drops_the_cached_one_minus_monomial(q1):
    provider = ClassProvider(q1)
    assert check_peeling(q1, {3, 4}, 3, provider)
    m = monomial_class(q1, 3)
    provider.override("M", 3, changed_at(m, 3, m[3] * 2))  # 1 - M_3 is -1 at vertex 3
    assert not check_peeling(q1, {3, 4}, 3, provider)


def test_peel_chains(q3):
    # Removing a subset S one vertex at a time lands on the Thom class of P - S.
    rng = random.Random(22)
    admissible = [s for s in q3.admissible_subsets() if len(s) >= 3]
    one_map = VertexMap.constant(q3.vertices, one(q3.m))
    for _ in range(8):
        members = admissible[rng.randrange(len(admissible))]
        strip = rng.sample(sorted(members), rng.randint(1, len(members) - 1))
        lhs = thom_class(q3, members)
        for i in strip:
            lhs = lhs * (one_map - monomial_class(q3, i))
        assert lhs == thom_class(q3, members - frozenset(strip))


# -- antipodal products ---------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2])
def test_antipodal_products_all_pairs(n):
    ctx = QuadricGraph(n)
    for v in ctx.vertices:
        for w in ctx.vertices:
            if v != w:
                assert check_antipodal_product(ctx, v, w)


def test_antipodal_product_rejects_equal_vertices(q1):
    with pytest.raises(ValueError):
        check_antipodal_product(q1, 2, 2)


# -- generator identities -----------------------------------------------------------------


def test_generator_identity_golden_n2(q2):
    assert check_generator_identity(q2, 1)
    product = monomial_class(q2, 2) * monomial_class(q2, 1, inverted=True)
    assert product == VertexMap.constant(q2.vertices, monomial((1, 0, 0)))


def test_generator_identity_n1(q1):
    assert check_generator_identity(q1, 2)
    product = monomial_class(q1, 3) * monomial_class(q1, 1, inverted=True)
    assert product == VertexMap.constant(q1.vertices, monomial((0, 1)))


def test_generator_identity_range(q1):
    with pytest.raises(ValueError):
        check_generator_identity(q1, 0)
    with pytest.raises(ValueError):
        check_generator_identity(q1, 3)


def test_generator_values_away_from_antipodes(q2):
    # Away from both antipodes the product is the plain character ratio.
    product = monomial_class(q2, 2) * monomial_class(q2, 1, inverted=True)
    for j in q2.vertices:
        if j in (q2.antipode(1), q2.antipode(2)):
            continue
        ratio = monomial(q2.vertex_weight(2)) * monomial(tuple(-x for x in q2.vertex_weight(1)))
        assert product[j] == ratio


# -- the aggregate sweep ---------------------------------------------------------------------


def report_json_dict(n, records):
    """The oracle of `RelationStream.chunks`: the records as one JSON document."""
    passes = sum(passed for _, _, passed in records)
    return {
        "n": n,
        "checks": [{"kind": kind, "params": params, "pass": passed} for kind, params, passed in records],
        "summary": {"pass": passes, "fail": len(records) - passes},
    }


def dumped(doc, pretty):
    return (json.dumps(doc, indent=2) if pretty else json.dumps(doc, separators=(",", ":"))) + "\n"


@pytest.mark.parametrize("n", [1, 2])
def test_verify_all_passes(n):
    ctx = QuadricGraph(n)
    records = list(iter_checks(ctx, seed=5))
    passes = sum(r.passed for r in records)
    assert all(r.passed for r in records)
    assert len(records) - passes == 0
    assert passes == len(records) > 0
    doc = report_json_dict(n, records)
    assert doc["summary"] == {"pass": passes, "fail": 0}
    assert doc["n"] == n


def test_verify_all_report_shape(q1):
    records = iter_checks(q1, seed=1)
    kinds = {record.kind for record in records}
    assert kinds == {
        "generator_identity",
        "antipodal_product",
        "peeling",
        "complete_set_split",
        "product_vanishing",
    }


def test_corrupted_class_is_named_in_failures(q1):
    provider = ClassProvider(q1)
    m1 = monomial_class(q1, 1)
    values = dict(m1.values)
    values[2] = values[2] * -1  # flip one coefficient
    provider.override("M", 1, VertexMap(values))
    records = iter_checks(q1, seed=3, provider=provider)
    failures = [r for r in records if not r.passed]
    assert failures
    def mentions_vertex_one(record):
        p = record.params
        return (
            p.get("i") == 1
            or p.get("v") == 1
            or p.get("w") == 1
            or 1 in p.get("members", ())
            or any(sorted(complement(q1, 1)) == j for j in p.get("family", ()))
        )
    assert any(mentions_vertex_one(r) for r in failures)


KIND_SUBSETS = [ALL_KINDS, (), ("product_vanishing",), ("peeling", "antipodal_product")]


# (n, family bound, corruption, kinds): n <= 2 with bounds up to 3 and n = 3
# up to 2, each with and without a corrupted provider and for every kind
# subset; then the two largest sweeps, whose pretty oracles alone take about a
# second, once each with a corrupted provider so that both outcomes appear.
RENDER_GRID = [
    (n, bound, corruption, kinds)
    for n, bounds in ((1, range(4)), (2, range(4)), (3, range(3)))
    for bound in bounds
    for corruption in ("none", "missing_vertex")
    for kinds in KIND_SUBSETS
] + [(1, 4, "missing_vertex", ALL_KINDS), (2, 4, "missing_vertex", ALL_KINDS), (3, 3, "missing_vertex", ALL_KINDS)]


@pytest.mark.parametrize(
    "n, bound, corruption, kinds",
    RENDER_GRID,
    ids=lambda value: "+".join(value) or "no_kinds" if isinstance(value, tuple) else None,
)
def test_rendered_stream_equals_the_dumped_report(n, bound, corruption, kinds):
    ctx = QuadricGraph(n)
    args = (bound, n + bound, kinds)
    expected = list(iter_checks(ctx, *args, corrupted_provider(ctx, corruption)))
    doc = report_json_dict(n, expected)
    passes = sum(r.passed for r in expected)
    for pretty in (False, True):
        streamed = []
        records = iter_checks(ctx, *args, corrupted_provider(ctx, corruption))
        stream = RelationStream(n, (streamed.append(r) or r for r in records))
        assert "".join(stream.chunks(pretty)) == dumped(doc, pretty), pretty
        assert streamed == expected
        assert (stream.pass_count, stream.fail_count) == (passes, len(expected) - passes)


@pytest.mark.parametrize("pretty", [False, True])
def test_render_encodes_other_params_and_repeated_member_lists(pretty):
    shared = [1, 2]
    records = [
        ("product_vanishing", {"family": [shared, [3]], "random": True}, True),
        ("product_vanishing", {"random": True, "family": [[3], shared]}, False),  # other key order
        ("product_vanishing", {"family": [shared, [3]], "random": False}, True),
        ("product_vanishing", {"family": []}, True),
        ("product_vanishing", {"family": [list(shared), []]}, False),
        ("peeling", {"members": [], "i": "x\ny"}, True),
        ("other", {}, False),
    ]
    records = [CheckRecord(*record) for record in records]
    stream = RelationStream(7, iter(records))
    assert "".join(stream.chunks(pretty)) == dumped(report_json_dict(7, records), pretty)
    assert (stream.pass_count, stream.fail_count) == (4, 3)
    empty = RelationStream(0, iter(()))
    assert "".join(empty.chunks(pretty)) == dumped(report_json_dict(0, []), pretty)


def synthetic_records(count):
    """`count` records that cycle through a family, a random family and other
    params, sharing their member lists, with alternating outcomes."""
    first, second = [1, 2], [3]
    shapes = [
        ("product_vanishing", {"family": [first, second]}),
        ("product_vanishing", {"family": [second], "random": True}),
        ("peeling", {"members": first, "i": 1}),
    ]
    return [CheckRecord(*shapes[k % 3], k % 2 == 0) for k in range(count)]


@pytest.mark.parametrize("pretty", [False, True])
@pytest.mark.parametrize("count", [0, 1, CHUNK_RECORDS, CHUNK_RECORDS + 1])
def test_chunk_boundaries_render_like_the_dumped_report(count, pretty):
    records = synthetic_records(count)
    passes = sum(r.passed for r in records)
    full_chunks = count // CHUNK_RECORDS  # then one more, which closes the document
    stream = RelationStream(5, iter(records))
    made = []
    for chunk in stream.chunks(pretty):  # the counts are set with the last chunk, not before
        last = len(made) == full_chunks
        assert (stream.pass_count, stream.fail_count) == ((passes, count - passes) if last else (0, 0))
        made.append(chunk)
    assert len(made) == full_chunks + 1
    assert "".join(made) == dumped(report_json_dict(5, records), pretty)
    assert (stream.pass_count, stream.fail_count) == (passes, count - passes)
