"""The canonical free-module basis and the exact decomposition of K-classes.

Every K-class f on the quadric graph is a unique combination

    f = h_1 * B_1 + ... + h_{2n+2} * B_{2n+2},

with coefficients h_k in the Laurent ring, over the canonical basis

    B_1 = 1,
    B_k = prod_{i=1}^{k-1} (1 - monomial class at i)      for k = 2..n+1,
    B_k = Thom class of {k, k+1, ..., 2n+2}               for k = n+2..2n+2.

The basis is lower triangular for the vertex order (B_k vanishes at vertices
below k) with nonzero diagonal values B_k(k), each the product of binomials
1 - y^alpha over the weights alpha of the edges from k down to its lower
neighbours (the flow-up condition).  `decompose` peels the coefficients off
vertex by vertex: h_k is the exact quotient of the running residual at vertex
k by those diagonal binomials, and subtracting h_k * B_k zeroes the vertex.
Division failure at stage k certifies that the input was not a K-class;
conversely every K-class decomposes and recomposes exactly.

Division frames.  Write D_j(v) for the product of the binomials of v's lower
neighbours i <= j, so that D_{v-1}(v) = B_v(v).  `decompose` keeps the
residual at v divided by D_j(v) for some j, the *frame* of v, in one
in-place accumulator (`laurent._Accumulator`).  After the stages below k the
residual is a K-class that vanishes at 1..k-1, so it is divisible by
D_{k-1}(v), and so is every B_i(v) with i >= k.  Each stage therefore
subtracts h_k times the cofactor B_k(v) / D_j(v) at the frame v holds, or
first moves v to frame k-1 when the product would have more term pairs than
the residual has terms.  At frame k-1 every cofactor of the canonical basis
is 1 or one binomial (a test checks this for n = 1..5), and at v = k it is 1:
dividing vertex k up to frame k-1 gives h_k itself, and no diagonal product
is built.  The cofactors are tabulated once per basis object.  The first
division that fails, at a stage or in an early frame move, ends the call at
the least k with a failing edge from k down to a lower neighbour: after the
stages below k the residual is f minus a K-class and vanishes below k, and
the binomials of the edges from k down are pairwise coprime in the UFD
Z[y^±1] (their weights are pairwise independent), so stage k divides exactly
when f passes the tests of those edges.  `recompose` sums h_k * B_k(v) into
one accumulator per vertex.
"""
from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

from .gkm import VertexMap, is_k_class
from .laurent import (
    LaurentPolynomial,
    NonDivisibleError,
    ParseError,
    _Accumulator,
    div_exact_product,
    one,
    to_json_dict,
    zero,
)
from .quadric import QuadricGraph, _document_body, _value_from_json_dict, monomial_class, thom_class


class NotAKClassError(ValueError):
    """Decomposition input failed the edge-divisibility condition.

    `stage` is the vertex at which division broke down; `failing_edges` are
    the witnesses from the K-class test.
    """

    def __init__(self, message: str, stage: int, failing_edges: tuple = ()):
        super().__init__(message)
        self.stage = stage
        self.failing_edges = tuple(failing_edges)


class _Stage(NamedTuple):
    """What stage k of `decompose` needs from the basis.

    `valid` says that B_k vanishes below k, that its cofactor at k is 1 and
    that B_k(v) is divisible by D_{k-1}(v) at every v > k; `updates` holds,
    for every v > k with B_k(v) != 0, the frame k-1 of v (as a count of v's
    diagonal factors) and the cofactors B_k(v) / D for the first 0..frame of
    those factors.
    """

    valid: bool
    updates: tuple[tuple[int, int, tuple[LaurentPolynomial, ...]], ...]


@dataclass(frozen=True)
class CanonicalBasis:
    """The 2n+2 basis classes plus the symbolic binomial factorization of each
    diagonal value B_k(k) (never re-factored from the expanded polynomial).

    `diagonal_factors[k-1]` lists the weights of the edges from k down to
    `lower_neighbours[k-1]`, in the same order; together they give `decompose`
    its division schedule (see "Division frames" above)."""

    classes: tuple[VertexMap, ...]
    diagonal_factors: tuple[tuple[tuple[int, ...], ...], ...]
    lower_neighbours: tuple[tuple[int, ...], ...]

    def _cofactors(self, value: LaurentPolynomial, v: int, frame: int) -> tuple[LaurentPolynomial, ...]:
        """value divided by the first 0, 1, ..., frame diagonal factors of v."""
        chain = [value]
        for alpha in self.diagonal_factors[v - 1][:frame]:
            chain.append(div_exact_product(chain[-1], (alpha,)))
        return tuple(chain)

    @cached_property
    def _stages(self) -> tuple[_Stage, ...]:
        """One `_Stage` per basis class, built on first use.  The cache lives
        on this object, so `dataclasses.replace` starts a new one."""
        count = len(self.classes)

        def frame(v: int, k: int) -> int:  # v's factors from lower neighbours below k
            return min(bisect_left(self.lower_neighbours[v - 1], k), len(self.diagonal_factors[v - 1]))

        stages = []
        for k, b in enumerate(self.classes, start=1):
            try:
                at_k = self._cofactors(b[k], k, len(self.diagonal_factors[k - 1]))[-1]
                updates = tuple(
                    (v, frame(v, k), self._cofactors(b[v], v, frame(v, k)))
                    for v in range(k + 1, count + 1)
                    if not b[v].is_zero()
                )
            except NonDivisibleError:
                stages.append(_Stage(False, ()))
                continue
            valid = at_k.is_one() and all(b[l].is_zero() for l in range(1, k))
            stages.append(_Stage(valid, updates))
        return tuple(stages)


def canonical_basis(ctx: QuadricGraph) -> CanonicalBasis:
    n = ctx.n
    one_map = VertexMap.constant(ctx.vertices, one(ctx.m))
    classes: list[VertexMap] = [one_map]

    running = one_map
    for k in range(2, n + 2):
        running = running * (1 - monomial_class(ctx, k - 1))
        classes.append(running)

    for k in range(n + 2, 2 * n + 3):
        members = frozenset(range(k, 2 * n + 3))
        classes.append(thom_class(ctx, members))

    graph = ctx.graph
    lower = [tuple(j for j in range(1, k) if graph.has_edge(k, j)) for k in ctx.vertices]
    factors = [tuple(graph.axial(k, j) for j in below) for k, below in zip(ctx.vertices, lower)]
    return CanonicalBasis(tuple(classes), tuple(factors), tuple(lower))


@lru_cache(maxsize=None)
def _shared_basis(n: int) -> CanonicalBasis:
    """The canonical basis at n, built once: QuadricGraph(n) depends only on n."""
    return canonical_basis(QuadricGraph(n))


@dataclass(frozen=True)
class Decomposition:
    """The 2n+2 coefficients of a K-class over the canonical basis."""

    coefficients: tuple[LaurentPolynomial, ...]

    def to_json_dict(self, ctx: QuadricGraph) -> dict:
        if len(self.coefficients) != ctx.vertex_count:
            raise ValueError("coefficient count does not match the context")
        for c in self.coefficients:
            if c.m != ctx.m:
                raise ValueError(f"coefficient has {c.m} variables, expected {ctx.m}")
        return {"n": ctx.n, "coeffs": [to_json_dict(c) for c in self.coefficients]}

    @classmethod
    def from_json_dict(cls, ctx: QuadricGraph, doc) -> "Decomposition":
        coeffs = _document_body(ctx, doc, "decomposition", "coeffs")
        if not isinstance(coeffs, list) or len(coeffs) != ctx.vertex_count:
            raise ParseError(f"'coeffs' must be a list of {ctx.vertex_count} polynomials")
        return cls(tuple(_value_from_json_dict(ctx, entry, "coefficient") for entry in coeffs))


def decompose(ctx: QuadricGraph, f: VertexMap, basis: CanonicalBasis | None = None) -> Decomposition:
    """The unique coefficients of a K-class over the canonical basis.

    Processes vertices 1, 2, ..., 2n+2 in order; at stage k the residual at k
    is divided exactly up to frame k-1, which gives h_k, and h_k times the
    cofactor at the frame of each v > k is subtracted there (see "Division
    frames" above).  Raises NotAKClassError (naming the stage and the failing
    edges) when a division fails; that happens precisely for non-K-classes.
    Raises RuntimeError, naming the next stage, if a stage with h_k != 0
    would break the triangular invariant, or naming the stage and saying the
    basis is not flow-up if a division fails on a K-class (both possible
    only for a caller-supplied basis that is not the canonical one).
    Without `basis`, the canonical basis of `ctx.n` is built once and reused.
    """
    f._check_shape(ctx.vertices, ctx.m)
    if basis is None:
        basis = _shared_basis(ctx.n)
    factors = basis.diagonal_factors
    residual = {v: _Accumulator(f[v]) for v in ctx.vertices}
    frame = dict.fromkeys(ctx.vertices, 0)
    coefficients = []
    try:
        for k, stage in enumerate(basis._stages, start=1):
            h_k = div_exact_product(residual.pop(k).value(), factors[k - 1][frame[k]:])
            coefficients.append(h_k)
            if h_k.is_zero():
                continue
            if not stage.valid:
                if k < ctx.vertex_count:
                    raise RuntimeError(f"residual not triangular at stage {k + 1}")
                raise RuntimeError(f"nonzero terminal remainder after stage {k}")
            size = h_k.term_count()
            for v, target, cofactors in stage.updates:
                acc, j = residual[v], frame[v]
                if j < target and size * cofactors[j].term_count() > acc.term_count():
                    acc = residual[v] = _Accumulator(div_exact_product(acc.value(), factors[v - 1][j:target]))
                    frame[v] = j = target
                cofactor = cofactors[j]
                acc.subtract(h_k if cofactor.is_one() else h_k * cofactor)
    except NonDivisibleError as exc:
        report = is_k_class(ctx.graph, f)
        if report.ok:
            raise RuntimeError(f"exact division failed at stage {k} on a K-class: the basis is not flow-up") from exc
        first = min(max(edge) for edge in report.failing_edges)
        raise NotAKClassError(
            f"not a K-class: exact division failed at stage {first} "
            f"(failing edges: {list(report.failing_edges)})",
            stage=first,
            failing_edges=report.failing_edges,
        ) from exc
    return Decomposition(tuple(coefficients))


def recompose(ctx: QuadricGraph, coefficients, basis: CanonicalBasis | None = None) -> VertexMap:
    """Sum h_k * B_k; always a K-class."""
    if isinstance(coefficients, Decomposition):
        coefficients = coefficients.coefficients
    coefficients = tuple(coefficients)
    if len(coefficients) != ctx.vertex_count:
        raise ValueError(
            f"expected {ctx.vertex_count} coefficients, got {len(coefficients)}"
        )
    if basis is None:
        basis = _shared_basis(ctx.n)
    sums = {v: _Accumulator(zero(ctx.m)) for v in ctx.vertices}
    for h_k, b_k in zip(coefficients, basis.classes):
        if not h_k.is_zero():
            for v, acc in sums.items():
                if not b_k[v].is_zero():
                    acc.add_product(h_k, b_k[v])
    return VertexMap({v: acc.value() for v, acc in sums.items()})


# -- seeded random material for the certification sweep -----------------------


def random_coefficient(rng: random.Random, m: int, max_terms: int = 3) -> LaurentPolynomial:
    """A small random ring element: up to `max_terms` terms, exponents in [-2, 2]."""
    result = zero(m)
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(-2, 2) for _ in range(m))
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        result = result + LaurentPolynomial(m, {e: c})
    return result


def generator_pool(ctx: QuadricGraph) -> list[VertexMap]:
    """All monomial classes, their inverses, and all Thom classes."""
    pool = [monomial_class(ctx, v) for v in ctx.vertices]
    pool.extend(monomial_class(ctx, v, inverted=True) for v in ctx.vertices)
    pool.extend(thom_class(ctx, members) for members in ctx.admissible_subsets())
    return pool


def random_k_class(ctx: QuadricGraph, rng: random.Random, pool=None) -> VertexMap:
    """A seeded random K-class: a sum of up to three products of at most three
    generator classes, each scaled by a small random ring element."""
    if pool is None:
        pool = generator_pool(ctx)
    result = VertexMap.constant(ctx.vertices, zero(ctx.m))
    for _ in range(rng.randint(1, 3)):
        term = VertexMap.constant(ctx.vertices, random_coefficient(rng, ctx.m))
        for _ in range(rng.randint(0, 3)):
            term = term * pool[rng.randrange(len(pool))]
        result = result + term
    return result


@dataclass(frozen=True)
class FreeModuleReport:
    """Outcome of the round-trip certification at one n."""

    n: int
    trials: int
    coefficient_round_trips: int  # recompose then decompose returned the inputs
    class_round_trips: int  # decompose then recompose reproduced the class
    zero_decomposes_to_zero: bool

    @property
    def ok(self) -> bool:
        return (
            self.coefficient_round_trips == self.trials
            and self.class_round_trips == self.trials
            and self.zero_decomposes_to_zero
        )

    def to_json_dict(self) -> dict:
        return {**asdict(self), "pass": self.ok}


def verify_free_module(ctx: QuadricGraph, trials: int = 100, seed: int = 0) -> FreeModuleReport:
    """Certify freeness at this n with seeded random round trips.

    (a) random coefficient tuples: recompose then decompose returns them
        exactly (uniqueness / injectivity);
    (b) random K-classes: decompose then recompose reproduces the map exactly
        (the constructive surjectivity);
    (c) the zero map decomposes to the zero tuple.
    """
    rng = random.Random(seed)
    basis = canonical_basis(ctx)
    pool = generator_pool(ctx)

    coeff_ok = 0
    for _ in range(trials):
        coeffs = tuple(random_coefficient(rng, ctx.m) for _ in range(ctx.vertex_count))
        back = decompose(ctx, recompose(ctx, coeffs, basis), basis)
        if back.coefficients == coeffs:
            coeff_ok += 1

    class_ok = 0
    for _ in range(trials):
        f = random_k_class(ctx, rng, pool)
        if recompose(ctx, decompose(ctx, f, basis), basis) == f:
            class_ok += 1

    zero_map = VertexMap.constant(ctx.vertices, zero(ctx.m))
    zero_ok = all(c.is_zero() for c in decompose(ctx, zero_map, basis).coefficients)

    return FreeModuleReport(ctx.n, trials, coeff_ok, class_ok, zero_ok)
