"""Span tracing around calls into kquadric's modules, installed from outside.

The tracer replaces module attributes and class methods of the package with
wrappers that record a span per call: its name, start, end and the span that
was open when it started (its parent).  Nothing in ``src/`` is edited; the
wrappers are installed for the traced run only and removed afterwards.

Spans are aggregated as they close, keyed by (parent name, name), so a run
with millions of products keeps constant memory.  The first ``RAW_SPAN_LIMIT``
spans are also kept verbatim.  A span's self time is its duration minus the
time covered by its child spans.

Binding pitfalls the wrappers handle:

* ``kquadric.decompose`` on the package is the function, not the module, so
  modules are taken from ``sys.modules`` (``importlib.import_module``);
* ``decompose``, ``gkm``, ``quadric``, ``relations`` and ``cli`` bind library
  functions by name at import time, so each binding is wrapped where it lives;
* ``__rmul__`` and ``__radd__`` are aliases of ``__mul__`` and ``__add__``,
  so both names are wrapped.

A binding that a later version of the package no longer has is skipped, and
its metrics read 0.
"""
from __future__ import annotations

import importlib
from time import perf_counter

RAW_SPAN_LIMIT = 256

RELATION_KINDS = (
    "generator_identity",
    "antipodal_product",
    "peeling",
    "complete_set_split",
    "product_vanishing",
)

# The per-layer metrics a traced run reports, in BENCHMARK.json order.
PER_LAYER_METRICS = (
    ("laurent.mul.calls", "count"),
    ("laurent.mul.self_s", "s"),
    ("laurent.mul.term_pairs", "count"),
    ("laurent.mul.zero_operand_ratio", "ratio"),
    ("laurent.div.calls", "count"),
    ("laurent.div.self_s", "s"),
    ("laurent.div.fail_ratio", "ratio"),
    ("laurent.divisible.calls", "count"),
    ("laurent.divisible.self_s", "s"),
    ("laurent.divisible.false_ratio", "ratio"),
    ("laurent.json.self_s", "s"),
    ("laurent.peak_terms", "count"),
    ("quadric.thom_class.calls", "count"),
    ("quadric.thom_class.self_s", "s"),
    ("quadric.monomial_class.calls", "count"),
    ("quadric.monomial_class.self_s", "s"),
    ("gkm.derive_connection.self_s", "s"),
    ("gkm.is_k_class.calls", "count"),
    ("gkm.is_k_class.self_s", "s"),
    ("gkm.is_k_class.edges_tested", "count"),
    ("gkm.vertexmap.mul.self_s", "s"),
    ("gkm.vertexmap.add.self_s", "s"),
    *(
        (f"relations.{kind}.{field}", unit)
        for kind in RELATION_KINDS
        for field, unit in (("instances", "count"), ("self_s", "s"))
    ),
    ("relations.supported.calls", "count"),
    ("relations.supported.distinct", "count"),
    ("decompose.decompose.calls", "count"),
    ("decompose.decompose.self_s", "s"),
    ("decompose.recompose.calls", "count"),
    ("decompose.recompose.self_s", "s"),
    ("decompose.canonical_basis.calls", "count"),
    ("decompose.canonical_basis.self_s", "s"),
    ("decompose.stage_failures", "count"),
    ("cli.emit_s", "s"),
    ("cli.output_bytes", "count"),
    ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    """Aggregates spans by (parent, name); counters sit beside them."""

    def __init__(self):
        self.enabled = False
        self._stack: list[list] = []  # [name, child seconds, raw index]
        self.stats: dict[tuple[str | None, str], list] = {}  # [calls, total_s, self_s]
        self.counters: dict[str, int] = {}
        self.distinct_supported: set = set()
        self.raw_spans: list[dict] = []
        self._origin = perf_counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def parent_name(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span called `name`."""
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack
        parent = stack[-1] if stack else None
        raw = None
        if len(self.raw_spans) < RAW_SPAN_LIMIT:
            raw = len(self.raw_spans)
            self.raw_spans.append(
                {"name": name, "start": None, "end": None, "parent": parent[2] if parent else None}
            )
        frame = [name, 0.0, raw]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            if parent is not None:
                parent[1] += duration
            key = (parent[0] if parent else None, name)
            entry = self.stats.get(key)
            if entry is None:
                entry = self.stats[key] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - frame[1]
            if raw is not None:
                self.raw_spans[raw]["start"] = start - self._origin
                self.raw_spans[raw]["end"] = end - self._origin

    def count(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value: int) -> None:
        if self.enabled and value > self.counters.get(name, 0):
            self.counters[name] = value

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, make_wrapper) -> None:
        """Replace owner.attr by make_wrapper(original).

        A binding that does not exist is skipped, so that a later version of
        kquadric that drops or moves one still runs traced; its metrics read 0.
        """
        original = owner.__dict__.get(attr)
        if original is None:
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def _wrap(self, owner, attr: str, name: str) -> None:
        def make_wrapper(original):
            def wrapper(*args, **kwargs):
                return self.span(name, original, *args, **kwargs)

            return wrapper

        self._patch(owner, attr, make_wrapper)

    def install(self) -> None:
        """Wrap every traced binding; `uninstall` restores the originals."""
        mod = {name: importlib.import_module(f"kquadric.{name}")
               for name in ("laurent", "gkm", "quadric", "relations", "decompose", "cli")}
        laurent, gkm, quadric = mod["laurent"], mod["gkm"], mod["quadric"]
        relations, decompose, cli = mod["relations"], mod["decompose"], mod["cli"]
        poly = laurent.LaurentPolynomial

        def mul(original):
            def wrapper(a, b):
                if not isinstance(b, (poly, int)):
                    return original(a, b)  # NotImplemented: Python tries b's method
                left = a.term_count()
                right = b.term_count() if isinstance(b, poly) else (1 if b else 0)
                self.count("laurent.mul.calls")
                self.count("laurent.mul.term_pairs", left * right)
                if not (left and right):
                    self.count("laurent.mul.zero_operands")
                result = self.span("laurent.mul", original, a, b)
                if isinstance(result, poly):
                    self.peak("laurent.peak_terms", max(left, right, result.term_count()))
                return result

            return wrapper

        for attr in ("__mul__", "__rmul__"):
            self._patch(poly, attr, mul)

        def div(original):
            def wrapper(g, alpha):
                self.count("laurent.div.calls")
                self.peak("laurent.peak_terms", g.term_count())
                try:
                    return self.span("laurent.div", original, g, alpha)
                except laurent.NonDivisibleError:
                    self.count("laurent.div.failures")
                    raise

            return wrapper

        # div_exact_product looks div_exact_binomial up in laurent's namespace.
        self._patch(laurent, "div_exact_binomial", div)
        self._wrap(decompose, "div_exact_product", "laurent.div_product")

        def divisible(original):
            def wrapper(g, alpha):
                self.count("laurent.divisible.calls")
                if self.parent_name() == "gkm.is_k_class":
                    self.count("gkm.is_k_class.edges_tested")
                result = self.span("laurent.divisible", original, g, alpha)
                if not result:
                    self.count("laurent.divisible.false")
                return result

            return wrapper

        self._patch(gkm, "divisible_by_binomial", divisible)

        for owner in (laurent, quadric, decompose):
            for attr in ("to_json_dict", "from_json_dict"):
                self._wrap(owner, attr, "laurent.json")
        for owner in (quadric, relations, decompose, cli):
            for attr in ("thom_class", "monomial_class"):
                self._wrap(owner, attr, f"quadric.{attr}")

        self._wrap(quadric, "derive_connection", "gkm.derive_connection")
        for owner in (gkm, decompose, cli):
            self._wrap(owner, "is_k_class", "gkm.is_k_class")
        for attr in ("__mul__", "__rmul__"):
            self._wrap(gkm.VertexMap, attr, "gkm.vertexmap.mul")
        for attr in ("__add__", "__radd__"):
            self._wrap(gkm.VertexMap, attr, "gkm.vertexmap.add")

        for kind in RELATION_KINDS:
            self._wrap(relations, f"check_{kind}", f"relations.{kind}")

        def supported(original):
            def wrapper(provider, members):
                self.count("relations.supported.calls")
                if self.enabled:
                    self.distinct_supported.add(frozenset(members))
                return self.span("relations.supported", original, provider, members)

            return wrapper

        self._patch(relations.ClassProvider, "supported", supported)

        def traced_decompose(original):
            def wrapper(*args, **kwargs):
                try:
                    return self.span("decompose.decompose", original, *args, **kwargs)
                except decompose.NotAKClassError:
                    self.count("decompose.stage_failures")
                    raise

            return wrapper

        for owner in (decompose, cli):
            self._patch(owner, "decompose", traced_decompose)
            self._wrap(owner, "canonical_basis", "decompose.canonical_basis")
        self._wrap(decompose, "recompose", "decompose.recompose")

        def dump(original):
            def wrapper(doc, pretty):
                text = self.span("cli.emit", original, doc, pretty)
                self.count("cli.output_bytes", len(text.encode()))
                return text

            return wrapper

        self._patch(cli, "_dump", dump)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def by_name(self) -> dict[str, list]:
        """[calls, total_s, self_s] per span name, summed over parents."""
        totals: dict[str, list] = {}
        for (_, name), (calls, total, own) in self.stats.items():
            entry = totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        return totals

    def edges(self) -> list[dict]:
        """Every (parent, name) pair seen, with calls, total and self seconds."""
        return [
            {"parent": parent, "name": name, "calls": calls, "total_s": total, "self_s": own}
            for (parent, name), (calls, total, own) in sorted(
                self.stats.items(), key=lambda item: (item[0][0] or "", item[0][1])
            )
        ]

    def per_layer(self, overhead_ratio: float) -> dict[str, float]:
        spans = self.by_name()
        counters = self.counters

        def self_s(name: str) -> float:
            return spans.get(name, [0, 0.0, 0.0])[2]

        def calls(name: str) -> int:
            return spans.get(name, [0, 0.0, 0.0])[0]

        def ratio(part: int, whole: int) -> float:
            return part / whole if whole else 0.0

        values: dict[str, float] = {
            "laurent.mul.calls": counters.get("laurent.mul.calls", 0),
            "laurent.mul.self_s": self_s("laurent.mul"),
            "laurent.mul.term_pairs": counters.get("laurent.mul.term_pairs", 0),
            "laurent.mul.zero_operand_ratio": ratio(
                counters.get("laurent.mul.zero_operands", 0), counters.get("laurent.mul.calls", 0)
            ),
            "laurent.div.calls": counters.get("laurent.div.calls", 0),
            "laurent.div.self_s": self_s("laurent.div"),
            "laurent.div.fail_ratio": ratio(
                counters.get("laurent.div.failures", 0), counters.get("laurent.div.calls", 0)
            ),
            "laurent.divisible.calls": counters.get("laurent.divisible.calls", 0),
            "laurent.divisible.self_s": self_s("laurent.divisible"),
            "laurent.divisible.false_ratio": ratio(
                counters.get("laurent.divisible.false", 0),
                counters.get("laurent.divisible.calls", 0),
            ),
            "laurent.json.self_s": self_s("laurent.json"),
            "laurent.peak_terms": counters.get("laurent.peak_terms", 0),
            "gkm.derive_connection.self_s": self_s("gkm.derive_connection"),
            "gkm.is_k_class.calls": calls("gkm.is_k_class"),
            "gkm.is_k_class.self_s": self_s("gkm.is_k_class"),
            "gkm.is_k_class.edges_tested": counters.get("gkm.is_k_class.edges_tested", 0),
            "gkm.vertexmap.mul.self_s": self_s("gkm.vertexmap.mul"),
            "gkm.vertexmap.add.self_s": self_s("gkm.vertexmap.add"),
            "relations.supported.calls": counters.get("relations.supported.calls", 0),
            "relations.supported.distinct": len(self.distinct_supported),
            "decompose.stage_failures": counters.get("decompose.stage_failures", 0),
            "cli.emit_s": self_s("cli.emit"),
            "cli.output_bytes": counters.get("cli.output_bytes", 0),
            "trace.overhead_ratio": overhead_ratio,
        }
        for name in ("thom_class", "monomial_class"):
            values[f"quadric.{name}.calls"] = calls(f"quadric.{name}")
            values[f"quadric.{name}.self_s"] = self_s(f"quadric.{name}")
        for kind in RELATION_KINDS:
            values[f"relations.{kind}.instances"] = calls(f"relations.{kind}")
            values[f"relations.{kind}.self_s"] = self_s(f"relations.{kind}")
        for name in ("decompose", "recompose", "canonical_basis"):
            values[f"decompose.{name}.calls"] = calls(f"decompose.{name}")
            values[f"decompose.{name}.self_s"] = self_s(f"decompose.{name}")
        return {name: values[name] for name, _ in PER_LAYER_METRICS}
