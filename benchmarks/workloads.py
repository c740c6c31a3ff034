"""The benchmark's three workloads: seeded inputs, one request, its exact check.

Every workload is a closed loop with a single client: the next request starts
only after the previous one has completed and been checked.  Inputs come from
``random.Random(f"{workload}:{seed}")``, so the same seed gives the same
inputs; they are generated before each request's clock starts and are never
timed.  Checks are exact (integer equality, byte-identical text) and also run
outside the clock.

A workload provides ``setup()`` (the timed set-up), ``requests(ctx)`` (an
endless input stream), ``execute(ctx, request)`` (the timed request),
``check(ctx, request, result)`` (True when the output is right; it also
records input sizes), ``items(request)`` and ``trace_requests(seconds)``.

kquadric is reached through its modules at call time (``self.dec.decompose``
and so on), never through names bound at import, so the traced run's
wrappers see every call.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import statistics
from dataclasses import dataclass
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden_verify.json")

# decompose-n4 runs blocks of ten requests: five classes recomposed from
# coefficient tuples and five random_k_class draws, one per entry below.
# Unbanded, random_k_class has a tail of classes that take 4-16 s each, and
# even within a band of total term counts the cost of a class varies tenfold,
# so a run's throughput would depend on what its seed drew.  The heavy work is
# therefore carried by coefficient tuples of set sizes (a heavy coefficient is
# a sum of random terms, their number taken from HEAVY_TERMS), and the K-class
# draws are kept to the two lighter bands of total term counts.
# Sorted by cost, a block is 3 tiny K-classes, 3 light tuples, 2 mid K-classes
# and 2 heavy tuples, so the median falls among the light tuples and the 90th
# percentile among the heavy ones.
COEFFICIENT_SIZES = ("light", "light", "light", "heavy", "heavy")
# Heavy sizes are dealt from shuffled rounds of HEAVY_TERMS, so every four
# blocks hold each size once and a run's mix does not depend on its seed.  A
# request's cost grows about linearly with the size, so heavy latencies span
# a range 2.5 times wide.  They must not bunch at one value: on a machine that
# switches between a fast and a 1.45 times slower speed for seconds at a
# time, the 90th percentile of bunched latencies jumps between the two speeds
# by which one held more than half of a run.  Spread over a range, it moves
# in step with the share of slow time, as the throughput does.
HEAVY_TERMS = tuple(range(16, 45, 4))
K_CLASS_BANDS = {4: ((0, 300), (0, 300), (0, 300), (300, 1000), (300, 1000))}
# Total-term bands for the products in kcheck-n4, used in turn.  kcheck
# measures the K-class test, parsing and the per-call basis; heavy products are
# decompose-n4's job, and unbanded products made a run's time depend on its seed.
PRODUCT_BANDS = {4: ((1, 300), (300, 600))}
MAX_DRAWS = 10_000
QUEUE_LIMIT = 10


def _module(name: str):
    # kquadric.decompose on the package is the function; take the module.
    return importlib.import_module(f"kquadric.{name}")


def total_terms(vm) -> int:
    return sum(vm[v].term_count() for v in vm.vertices())


def peak_terms(vm) -> int:
    return max(vm[v].term_count() for v in vm.vertices())


def compact_json(doc) -> str:
    """The CLI's compact output form."""
    return json.dumps(doc, separators=(",", ":")) + "\n"


def spread(rng, groups) -> list:
    """Shuffle each group and interleave them evenly, so every prefix of the
    result holds each group in about its overall share."""
    keyed = []
    for group in groups:
        group = list(group)
        rng.shuffle(group)
        offset = rng.random()
        keyed += [((i + offset) / len(group), item) for i, item in enumerate(group)]
    keyed.sort(key=lambda pair: pair[0])
    return [item for _, item in keyed]


@dataclass
class Request:
    kind: str
    payload: object
    expected: object = None


class SizeRecord:
    """Input-size counters, so a run shows whether time or work moved."""

    def __init__(self):
        self.values: dict[str, list[int]] = {}

    def add(self, name: str, value: int) -> None:
        self.values.setdefault(name, []).append(value)

    def summary(self) -> dict:
        return {
            name: {
                "count": len(values),
                "median": statistics.median(values),
                "peak": max(values),
                "total": sum(values),
            }
            for name, values in sorted(self.values.items())
        }


class RelationsWorkload:
    """`kquadric verify --n N --seed S` through cli.main, stdout captured.

    S cycles through the seeds of the golden file, starting at the bench seed;
    every stdout must match the sha256 recorded there.
    """

    min_requests = 1

    def __init__(self, seed: int, n: int = 3):
        self.n = n
        self.seed = seed
        self.quadric = _module("quadric")
        self.cli = _module("cli")
        self.golden = json.loads(GOLDEN_PATH.read_text())[str(n)]
        self.sizes = SizeRecord()

    def setup(self):
        return self.quadric.QuadricGraph(self.n)

    def requests(self, ctx):
        seeds = sorted(self.golden, key=int)
        i = self.seed
        while True:
            verify_seed = seeds[i % len(seeds)]
            yield Request("verify", int(verify_seed), self.golden[verify_seed])
            i += 1

    def execute(self, ctx, request):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(["verify", "--n", str(self.n), "--seed", str(request.payload)])
        return code, out.getvalue()

    def check(self, ctx, request, result) -> bool:
        code, text = result
        data = text.encode()
        self.sizes.add("output_bytes", len(data))
        for kind, count in request.expected["instances"].items():
            self.sizes.add(f"instances.{kind}", count)
        return code == 0 and hashlib.sha256(data).hexdigest() == request.expected["sha256"]

    def items(self, request) -> int:
        return sum(request.expected["instances"].values())

    def trace_requests(self, seconds: float) -> int:
        return max(1, int(seconds // 20))


class DecomposeWorkload:
    """decompose then recompose, with a prebuilt basis, on a stream of K-classes.

    Blocks of ten requests alternate a class recomposed from a random
    coefficient tuple (expected: those coefficients) with a random_k_class
    draw from the next total-term band (expected: the round trip reproduces it).
    """

    min_requests = 100

    def __init__(self, seed: int, n: int = 4):
        self.n = n
        self.seed = seed
        self.quadric = _module("quadric")
        self.dec = _module("decompose")
        self.laurent = _module("laurent")
        self.bands = K_CLASS_BANDS.get(n, ((0, None),) * 5)
        self.sizes = SizeRecord()

    def setup(self):
        ctx = self.quadric.QuadricGraph(self.n)
        return ctx, self.dec.canonical_basis(ctx), self.dec.generator_pool(ctx)

    def requests(self, setup):
        ctx, basis, pool = setup
        dec = self.dec
        rng = random.Random(f"decompose-n{self.n}:{self.seed}")
        # Draws wait in the queue of their band until a block needs them, so
        # a draw that misses one band is not wasted when it fits another.
        queues = {band: [] for band in self.bands}
        heavy_terms = []
        while True:
            for size, band in zip(COEFFICIENT_SIZES, self.bands):
                if size == "light":
                    terms = None
                else:
                    if not heavy_terms:
                        heavy_terms = list(HEAVY_TERMS)
                        rng.shuffle(heavy_terms)
                    terms = heavy_terms.pop()
                coeffs = tuple(self._coefficient(rng, ctx.m, terms) for _ in ctx.vertices)
                yield Request(f"coefficients.{size}", dec.recompose(ctx, coeffs, basis), coeffs)
                for _ in range(MAX_DRAWS):
                    if queues[band]:
                        break
                    f = dec.random_k_class(ctx, rng, pool)
                    terms = total_terms(f)
                    for (low, high), queue in queues.items():
                        if low <= terms and (high is None or terms < high):
                            if len(queue) < QUEUE_LIMIT:
                                queue.append(f)
                            break
                else:
                    raise RuntimeError(f"no K-class in band {band} in {MAX_DRAWS} draws")
                yield Request(f"k_class.{band[0]}-{band[1]}", queues[band].pop(0))

    def _coefficient(self, rng, m, terms):
        """As verify_free_module draws them (1-3 terms), or a sum of `terms` random terms."""
        if terms is None:
            return self.dec.random_coefficient(rng, m)
        parts = (self.dec.random_coefficient(rng, m, max_terms=1) for _ in range(terms))
        return sum(parts, self.laurent.zero(m))

    def execute(self, setup, request):
        ctx, basis, _ = setup
        decomposition = self.dec.decompose(ctx, request.payload, basis)
        return decomposition, self.dec.recompose(ctx, decomposition, basis)

    def check(self, setup, request, result) -> bool:
        decomposition, recomposed = result
        f = request.payload
        self.sizes.add(f"input_terms.{request.kind}", total_terms(f))
        self.sizes.add("value_peak_terms", peak_terms(f))
        self.sizes.add(
            "coefficient_terms", sum(c.term_count() for c in decomposition.coefficients)
        )
        if recomposed != f:
            return False
        return request.expected is None or decomposition.coefficients == request.expected

    def items(self, request) -> int:
        return 1

    def trace_requests(self, seconds: float) -> int:
        return 10 * max(1, int(seconds // 4))


class KCheckWorkload:
    """What `kquadric check` and `kquadric decompose` do, one request per input.

    Each epoch takes every generator class (monomial classes, their inverses,
    Thom classes) plus seeded products of two or three of them, in an order
    that interleaves classes of similar cost evenly, and follows each class
    with a copy whose value at one vertex v gets a +-1 change to one
    coefficient.  The change adds a unit at v only,
    and a unit is never divisible by 1 - y^alpha, so the copy fails exactly at
    the edges through v: every label is exact by construction.
    """

    min_requests = 100

    def __init__(self, seed: int, n: int = 4):
        self.n = n
        self.seed = seed
        self.quadric = _module("quadric")
        self.gkm = _module("gkm")
        self.laurent = _module("laurent")
        self.dec = _module("decompose")
        self.product_bands = PRODUCT_BANDS.get(n, ((1, None),))
        self.sizes = SizeRecord()
        self._basis = None

    def setup(self):
        return self.quadric.QuadricGraph(self.n)

    def _generators(self, ctx):
        quadric = self.quadric
        classes = [("M", quadric.monomial_class(ctx, v)) for v in ctx.vertices]
        classes += [("Minv", quadric.monomial_class(ctx, v, inverted=True)) for v in ctx.vertices]
        classes += [("Delta", quadric.thom_class(ctx, s)) for s in ctx.admissible_subsets()]
        return classes

    def _product(self, rng, pool, low, high):
        for _ in range(MAX_DRAWS):
            factors = [pool[rng.randrange(len(pool))][1] for _ in range(rng.choice((2, 3)))]
            value = factors[0]
            for factor in factors[1:]:
                value = value * factor
                if high is not None and total_terms(value) >= high:
                    break
            else:
                if total_terms(value) >= low:
                    return value
        raise RuntimeError(f"no product with {low}..{high} terms in {MAX_DRAWS} draws")

    def _mutate(self, rng, ctx, vm, v):
        support = vm[v].support()
        e = rng.choice(support) if support else (0,) * ctx.m
        values = dict(vm.values)
        values[v] = vm[v] + self.laurent.LaurentPolynomial(ctx.m, {e: rng.choice((1, -1))})
        edges = tuple(edge for edge in ctx.graph.unordered_edges() if v in edge)
        return self.gkm.VertexMap(values), edges

    def requests(self, ctx):
        rng = random.Random(f"kcheck-n{self.n}:{self.seed}")
        generators = self._generators(ctx)
        to_json = self.quadric.vertex_map_to_json_dict
        while True:
            # Strata of similar cost, spread evenly so that the part of an
            # epoch a run reaches has the same mix for every seed.
            strata: dict[str, list] = {}
            for kind, vm in generators:
                stratum = f"Delta{peak_terms(vm)}" if kind == "Delta" else kind
                strata.setdefault(stratum, []).append((kind, vm))
            bands = self.product_bands
            for i in range(len(generators) // 7):
                low, high = bands[i % len(bands)]
                strata.setdefault(f"product{low}", []).append(
                    ("product", self._product(rng, generators, low, high))
                )
            vertices = list(ctx.vertices)
            rng.shuffle(vertices)
            for i, (kind, vm) in enumerate(spread(rng, strata.values())):
                yield Request(kind, json.dumps(to_json(ctx, vm)), (True, (), vm))
                mutated, edges = self._mutate(rng, ctx, vm, vertices[i % len(vertices)])
                yield Request(
                    f"{kind}.changed", json.dumps(to_json(ctx, mutated)), (False, edges, mutated)
                )

    def execute(self, ctx, request):
        vm = self.quadric.vertex_map_from_json_dict(ctx, json.loads(request.payload))
        report = self.gkm.is_k_class(ctx.graph, vm)
        check_text = compact_json(
            {
                "n": ctx.n,
                "is_k_class": report.ok,
                "failing_edges": [list(e) for e in report.failing_edges],
            }
        )
        try:
            decomposition = self.dec.decompose(ctx, vm)
        except self.dec.NotAKClassError as exc:
            return report, check_text, None, exc
        return report, check_text, compact_json(decomposition.to_json_dict(ctx)), None

    def check(self, ctx, request, result) -> bool:
        report, check_text, decomposition_text, error = result
        label, edges, vm = request.expected
        self.sizes.add(f"input_bytes.{request.kind}", len(request.payload))
        self.sizes.add(f"input_terms.{request.kind}", total_terms(vm))
        self.sizes.add("output_bytes", len(check_text) + len(decomposition_text or ""))
        if report.ok != label or tuple(report.failing_edges) != edges:
            return False
        if json.loads(check_text)["failing_edges"] != [list(e) for e in edges]:
            return False
        if not label:
            return (
                decomposition_text is None
                and error is not None
                and tuple(error.failing_edges) == edges
            )
        if error is not None or decomposition_text is None:
            return False
        if self._basis is None:
            self._basis = self.dec.canonical_basis(ctx)
        decomposition = self.dec.Decomposition.from_json_dict(ctx, json.loads(decomposition_text))
        return self.dec.recompose(ctx, decomposition, self._basis) == vm

    def items(self, request) -> int:
        return 1

    def trace_requests(self, seconds: float) -> int:
        return max(20, int(seconds * 10))


WORKLOADS = {
    "relations-n3": RelationsWorkload,
    "decompose-n4": DecomposeWorkload,
    "kcheck-n4": KCheckWorkload,
}
