"""The relation families among the generator classes, verified exactly.

Four families are checked (integer-exact, no tolerance anywhere):

1. product vanishing: the product of supported classes over any family of
   index sets with empty intersection is the zero map.  Values multiply in
   the integral domain Z[y^±1], so this holds iff the factors' zero sets
   cover every vertex, and that is what is checked, on vertex bitmasks (bit
   v - 1 for vertex v): the OR of the factors' zero masks must be full;
2. complete-set split: for an admissible I of size n, the product of
   1 - (monomial class at i) over I equals the Thom class of the complement
   minus one spare pole, plus the monomial class at that pole times the Thom
   class of the complement minus the other;
3. peeling: multiplying a Thom class by 1 - (monomial class at i) removes i
   from its support;
4. antipodal product constancy: (monomial class at v) * (monomial class at
   antipode(v)) is the same map for every v;

plus the generator identity that recovers each ring variable y_i as
(monomial class at i+1) * (inverse monomial class at 1).  Families 2-4 and
the generator identities are identities of vertex maps.

`iter_checks` is the one sweep: it runs every instance of 2-4 and the
generator identities, runs family 1 exhaustively up to a size bound and on
`RANDOM_FAMILY_COUNT` seeded random families, and yields one `CheckRecord`
per instance (checks never raise on a failed identity, only on malformed
parameters).  `ClassProvider.zero_mask` is the one source of each index
set's zero mask.  The exhaustive families of 1 are decided from a table
built once per sweep, which holds each index set's member mask and sorted
member list, and, when pairs of sets are swept, its zero mask (read from
the provider): the prefix of a candidate family is ANDed and ORed once, and
each last member then costs one AND to skip the candidate or one OR to
decide it.  The random families are decided by `check_product_vanishing`,
the checked entry point for a single family and the oracle the sweep is
tested against.  A family's member lists are the table's own, sorted, so
the records share one list per index set.  Callers consume the records as
they come: `RelationStream.chunks` turns them into the report's JSON text,
`CHUNK_RECORDS` records at a time, and keeps only the counts (a fault in the
sweep ends the text after the chunks already made, without the summary),
and a tally needs no more than a `Counter`.
"""
from __future__ import annotations

import json
import random
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple

from .gkm import VertexMap
from .laurent import _quoted, monomial, one
from .quadric import (
    QuadricGraph,
    _vertex_mask,
    antipodal_product_class,
    monomial_class,
    thom_class,
)


class ClassProvider:
    """Caches generator classes for one context; supports targeted overrides.

    Overrides exist for fault injection: tests replace, say, the monomial
    class at one vertex with a corrupted copy and watch the relation suite
    name it in a failure.  Each 1 - (monomial class at v) is cached here
    too, and per index set only its zero mask; both are read from the
    generators, so an override drops what it changes.
    """

    def __init__(self, ctx: QuadricGraph):
        self.ctx = ctx
        self._cache: dict[tuple, VertexMap] = {}
        self._zero_masks: dict[frozenset[int], int] = {}

    def override(self, kind: str, key, vm: VertexMap) -> None:
        if kind not in ("M", "Minv", "Delta"):
            raise ValueError(f"unknown class kind {kind!r}")
        key = frozenset(key) if kind == "Delta" else int(key)
        self._cache[(kind, key)] = vm
        if kind == "M":
            self._cache.pop(("1-M", key), None)
        self._zero_masks.clear()

    def _lookup(self, kind: str, key, build, *args) -> VertexMap:
        vm = self._cache.get((kind, key))
        if vm is None:
            vm = self._cache[(kind, key)] = build(self.ctx, key, *args)
        return vm

    def monomial(self, v: int) -> VertexMap:
        return self._lookup("M", v, monomial_class)

    def monomial_inverse(self, v: int) -> VertexMap:
        return self._lookup("Minv", v, monomial_class, True)

    def one_minus_monomial(self, v: int) -> VertexMap:
        """1 - (monomial class at v), the class supported off v."""
        return self._lookup("1-M", v, lambda ctx, v: 1 - self.monomial(v))

    def thom(self, members) -> VertexMap:
        return self._lookup("Delta", frozenset(members), thom_class)

    def supported(self, members) -> VertexMap:
        """The class supported inside `members`: 1 - (monomial class at v)
        when `members` omits exactly one vertex v, the Thom class when
        `members` is admissible.  Anything else is rejected."""
        members = frozenset(members)
        everything = frozenset(self.ctx.vertices)
        if len(members) == self.ctx.vertex_count - 1 and members < everything:
            (v,) = everything - members
            return self.one_minus_monomial(v)
        if self.ctx.is_admissible(members):
            return self.thom(members)
        raise ValueError(
            f"{_quoted(sorted(members))} is neither the complement of a single vertex nor admissible"
        )

    def zero_mask(self, members) -> int:
        """The vertices where the supported class of a valid index set is
        zero, bit v - 1 for vertex v, read from its values (not from its
        expected support)."""
        members = frozenset(members)
        mask = self._zero_masks.get(members)
        if mask is None:
            vm = self.supported(members)
            mask = self._zero_masks[members] = _vertex_mask(v for v in self.ctx.vertices if vm[v].is_zero())
        return mask


def check_product_vanishing(ctx, family, provider=None) -> bool:
    """True iff the product of the supported classes of `family` is the zero map.

    `family` must consist of valid index sets with empty overall intersection
    (duplicates are allowed -- they only repeat factors); a nonempty
    intersection is reported before an invalid index set.  Values multiply in
    an integral domain, so the product is zero at a vertex iff some factor is
    zero there: the answer is whether the OR of the factors' zero masks covers
    every vertex.  No polynomial is multiplied.
    """
    provider = provider or ClassProvider(ctx)
    family = [frozenset(j) for j in family]
    if not family:
        raise ValueError("family must be nonempty")
    intersection = frozenset.intersection(*family)
    if intersection:
        raise ValueError(f"family intersection {sorted(intersection)} is nonempty")
    zeros = 0
    for j in family:
        zeros |= provider.zero_mask(j)
    return zeros == (1 << ctx.vertex_count) - 1


def spare_pole_pair(ctx, members) -> tuple[int, int]:
    """The unique antipodal pair disjoint from an admissible size-n set, smaller first."""
    members = frozenset(members)
    if len(members) != ctx.n or not ctx.is_admissible(members):
        raise ValueError(f"{sorted(members)} is not an admissible set of size n={ctx.n}")
    # I takes one vertex from each of n of the n + 1 antipodal pairs, so exactly one pair is left.
    i = next(i for i in range(1, ctx.n + 2) if i not in members and ctx.antipode(i) not in members)
    return i, ctx.antipode(i)


def check_complete_set_split(ctx, members, provider=None) -> bool:
    """For admissible I of size n: prod_{i in I}(1 - M_i) splits as
    Thom((I ∪ {b})^c) + M_b * Thom((I ∪ {b'})^c) with {b, b'} the spare pair."""
    provider = provider or ClassProvider(ctx)
    members = frozenset(members)
    b, b_bar = spare_pole_pair(ctx, members)
    complement = frozenset(ctx.vertices) - members
    lhs = VertexMap.constant(ctx.vertices, one(ctx.m))
    for i in sorted(members):
        lhs = lhs * provider.one_minus_monomial(i)
    rhs = provider.thom(complement - {b}) + provider.monomial(b) * provider.thom(
        complement - {b_bar}
    )
    return lhs == rhs


def check_peeling(ctx, members, i, provider=None) -> bool:
    """Thom(P) * (1 - M_i) == Thom(P \\ {i}) for i in P, |P| > 1."""
    provider = provider or ClassProvider(ctx)
    members = frozenset(members)
    if i not in members:
        raise ValueError(f"vertex {i} is not in {sorted(members)}")
    if len(members) < 2:
        raise ValueError("peeling needs at least two members")
    return provider.thom(members) * provider.one_minus_monomial(i) == provider.thom(members - {i})


def check_antipodal_product(ctx, v, w, provider=None) -> bool:
    """M_v * M_antipode(v) == M_w * M_antipode(w) == the antipodal product class."""
    if v == w:
        raise ValueError("the two vertices must be distinct")
    provider = provider or ClassProvider(ctx)
    x = antipodal_product_class(ctx)
    left = provider.monomial(v) * provider.monomial(ctx.antipode(v))
    right = provider.monomial(w) * provider.monomial(ctx.antipode(w))
    return left == x and right == x


def check_generator_identity(ctx, i, provider=None) -> bool:
    """M_{i+1} * M_1^{-1} is the constant map y_i, for i = 1..n+1."""
    if not 1 <= i <= ctx.n + 1:
        raise ValueError(f"i must be in 1..{ctx.n + 1}, got {i}")
    provider = provider or ClassProvider(ctx)
    y_i = monomial(tuple(1 if k == i - 1 else 0 for k in range(ctx.m)))
    expected = VertexMap.constant(ctx.vertices, y_i)
    return provider.monomial(i + 1) * provider.monomial_inverse(1) == expected


def support_index_sets(ctx) -> list[frozenset[int]]:
    """Every valid index set for a supported class: the 2n+2 single-vertex
    complements, then all admissible subsets (by size, then members)."""
    everything = frozenset(ctx.vertices)
    sets = [everything - {v} for v in ctx.vertices]
    sets.extend(ctx.admissible_subsets())
    return sets


def random_empty_intersection_family(ctx, rng: random.Random, universe=None) -> list[frozenset[int]]:
    """A seeded random family (duplicates allowed) with empty intersection."""
    if universe is None:
        universe = support_index_sets(ctx)
    for _ in range(200):
        size = rng.randint(2, min(6, len(universe)))
        family = [universe[rng.randrange(len(universe))] for _ in range(size)]
        if not frozenset.intersection(*family):
            return family
    # Fallback: force emptiness with a complement and its missing vertex.
    v = rng.randrange(ctx.vertex_count) + 1
    return [frozenset(ctx.vertices) - {v}, frozenset({v})]


class CheckRecord(NamedTuple):
    kind: str
    params: dict
    passed: bool


ALL_KINDS = (
    "generator_identity",
    "antipodal_product",
    "peeling",
    "complete_set_split",
    "product_vanishing",
)
RANDOM_FAMILY_COUNT = 100  # seeded random product-vanishing families per sweep


def iter_checks(
    ctx,
    family_size_bound: int = 3,
    seed: int = 0,
    kinds=ALL_KINDS,
    provider: ClassProvider | None = None,
) -> Iterator[CheckRecord]:
    """Yield a record for every relation instance, in report order.

    Exhaustive over: all generator identities, all distinct vertex pairs, all
    (admissible P, i in P) with |P| > 1, all admissible I of size n, and all
    distinct empty-intersection families of at most `family_size_bound` index
    sets; plus `RANDOM_FAMILY_COUNT` seeded random families (any size,
    duplicates allowed).  The exhaustive families are decided from a table
    of masks built once per sweep (zero masks only when `family_size_bound`
    >= 2): the answer of `check_product_vanishing`, without its argument
    checks.  The random families are decided by `check_product_vanishing`
    itself.  Records share one member list per index set.
    """
    provider = provider or ClassProvider(ctx)

    if "generator_identity" in kinds:
        for i in range(1, ctx.n + 2):
            yield CheckRecord("generator_identity", {"i": i}, check_generator_identity(ctx, i, provider))

    if "antipodal_product" in kinds:
        for v, w in combinations(ctx.vertices, 2):
            yield CheckRecord(
                "antipodal_product",
                {"v": v, "w": w},
                check_antipodal_product(ctx, v, w, provider),
            )

    if "peeling" in kinds:
        for members in ctx.admissible_subsets():
            if len(members) < 2:
                continue
            for i in sorted(members):
                yield CheckRecord(
                    "peeling",
                    {"members": sorted(members), "i": i},
                    check_peeling(ctx, members, i, provider),
                )

    if "complete_set_split" in kinds:
        for members in ctx.admissible_subsets():
            if len(members) != ctx.n:
                continue
            yield CheckRecord(
                "complete_set_split",
                {"members": sorted(members)},
                check_complete_set_split(ctx, members, provider),
            )

    if "product_vanishing" in kinds:
        # The sweep's table, one entry per position of `universe`: the member
        # mask, the zero mask (read from the provider, so an override counts)
        # and the sorted member list, shared by the records.  A single index
        # set is never empty, so families start at two sets, and the zero
        # masks are read only when there are such families.
        universe = support_index_sets(ctx)
        count = len(universe)
        member_mask = [_vertex_mask(j) for j in universe]
        lists = [sorted(j) for j in universe]
        full = (1 << ctx.vertex_count) - 1
        if family_size_bound >= 2:
            zero_mask = [provider.zero_mask(j) for j in universe]
        for size in range(2, family_size_bound + 1):
            for prefix in combinations(range(count), size - 1):
                common, zeros = -1, 0
                for k in prefix:
                    common &= member_mask[k]
                    zeros |= zero_mask[k]
                head = [lists[k] for k in prefix]
                for last in range(prefix[-1] + 1, count):
                    if common & member_mask[last]:
                        continue
                    family = head + [lists[last]]
                    family.sort()
                    yield CheckRecord("product_vanishing", {"family": family}, zeros | zero_mask[last] == full)
        position = {j: k for k, j in enumerate(universe)}
        rng = random.Random(seed)
        for _ in range(RANDOM_FAMILY_COUNT):
            family = random_empty_intersection_family(ctx, rng, universe)
            yield CheckRecord(
                "product_vanishing",
                {"family": sorted(lists[position[j]] for j in family), "random": True},
                check_product_vanishing(ctx, family, provider),
            )


CHUNK_RECORDS = 4096  # records per text chunk of `RelationStream.chunks`


class RelationStream:
    """The records of one sweep, consumed once by `chunks`.

    Only the counts outlive the rendering: `pass_count` and `fail_count` are
    set once the last chunk has been made.  The summary follows the last
    record, so a fault raised by the records part-way (an internal fault of
    the sweep) ends the text after the chunks made so far: a truncated
    document, not valid JSON, with the counts left at 0.
    """

    def __init__(self, n: int, records: Iterable[CheckRecord]):
        self.n = n
        self.records = records
        self.pass_count = self.fail_count = 0

    def chunks(self, pretty: bool = False) -> Iterator[str]:
        """The report's JSON text and a newline, in chunks of `CHUNK_RECORDS`
        records each; the last chunk holds the rest and closes the document.

        The text is exactly what ``json.dumps`` gives (compact separators, or
        ``indent=2`` when `pretty`) for the document
        ``{"n", "checks": [{"kind", "params", "pass"}, ...], "summary":
        {"pass", "fail"}}``, but no record or dict is kept: each record
        becomes one string, and a chunk's strings are dropped once it is
        made.  Params of the form ``{"family": [...]}`` or ``{"family":
        [...], "random": true}`` are assembled from templates and from each
        member list's text, encoded once per distinct list object (the
        records of one sweep share them); any other params go through the
        JSON encoder.  A fault raised by the records propagates from the
        chunk it interrupts; the chunks made before it stay made.
        """
        if pretty:
            nl = ["\n" + "  " * depth for depth in range(7)]  # newline and indent per depth
            colon = ": "
        else:
            nl = [""] * 7
            colon = ":"

        def encode(value, depth: int) -> str:
            """`value` as JSON, its inner lines indented from `depth`."""
            return json.dumps(value, indent=2 if pretty else None, separators=(",", colon)).replace("\n", nl[depth])

        def key(name: str, depth: int) -> str:
            return f'{nl[depth]}"{name}"{colon}'

        # Records share their member lists, so each list's text is memoized
        # by the list's identity.  `kept` holds every list seen, so no id is
        # reused while the memo lives, and the memo grows only with the
        # distinct lists.
        texts: dict[int, str] = {}
        kept: list[list] = []
        member_texts = texts.__getitem__
        member_sep = "," + nl[5]
        heads: dict[str, tuple[str, str]] = {}  # kind -> (up to the params, up to the first member)
        pass_tail = {b: f",{key('pass', 3)}{encode(b, 0)}{nl[2]}}}" for b in (False, True)}
        # The text after the last member, by the number of params (1, or 2
        # with "random": true), then by the outcome.
        family_tail = {
            size: [nl[4] + "]" + flag + nl[3] + "}" + pass_tail[b] for b in (False, True)]
            for size, flag in ((1, ""), (2, f",{key('random', 4)}true"))
        }

        record_sep = "," + nl[2]
        opening = "{" + key("n", 1) + encode(self.n, 1) + "," + key("checks", 1)
        lead = opening + "[" + nl[2]  # what precedes the next chunk's first record
        batch: list[str] = []  # the texts of the next chunk's records
        passes = count = 0
        for kind, params, passed in self.records:
            passes += passed
            head = heads.get(kind)
            if head is None:
                plain = "{" + key("kind", 3) + encode(kind, 0) + "," + key("params", 3)
                head = heads[kind] = (plain, plain + "{" + key("family", 4) + "[" + nl[5])
            family = params.get("family")
            size = len(params)
            if family and (size == 1 or (tuple(params) == ("family", "random") and params["random"] is True)):
                try:
                    text = member_sep.join(map(member_texts, map(id, family)))
                except KeyError:  # a member list not seen before
                    for members in family:
                        if id(members) not in texts:
                            kept.append(members)
                            texts[id(members)] = encode(members, 5)
                    text = member_sep.join(map(member_texts, map(id, family)))
                batch.append(head[1] + text + family_tail[size][passed])
            else:
                batch.append(head[0] + encode(params, 3) + pass_tail[passed])
            if len(batch) == CHUNK_RECORDS:
                yield lead + record_sep.join(batch)
                count += CHUNK_RECORDS
                batch.clear()
                lead = record_sep

        count += len(batch)
        self.pass_count, self.fail_count = passes, count - passes
        closing = "," + key("summary", 1) + encode({"pass": passes, "fail": self.fail_count}, 1) + nl[0] + "}\n"
        if not count:
            yield opening + "[]" + closing
        else:
            yield (lead + record_sep.join(batch) if batch else "") + nl[1] + "]" + closing
