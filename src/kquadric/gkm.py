"""Integral GKM graphs: axial-function axioms, connections, and the K-class test.

A graph is regular with vertices 1..N; every oriented edge (i, j) carries a
weight vector in Z^m (the axial function).  A connection assigns to each
oriented edge e = (p, q) a bijection between the edge stars at p and q whose
weight differences are integer multiples of the weight of e.  For
three-independent graphs the connection is forced and `derive_connection`
recovers it.

A vertex map assigns a Laurent polynomial to every vertex; it is a K-class
when the difference across each edge is divisible by 1 - y^(edge weight).
The set of K-classes is closed under the pointwise ring operations, which is
what `VertexMap`'s operators implement.

All values are immutable after construction and every check is a pure
function, so everything here can be evaluated edge-parallel and merged.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping

from .laurent import LaurentPolynomial, _checked_alpha, _difference_divisible, _Divisor, constant
from .linalg import integer_rank

Edge = tuple[int, int]


class ConnectionDerivationError(ValueError):
    """No candidate (kind='no-candidate') or several (kind='ambiguous') for a transported edge."""

    def __init__(self, message: str, kind: str):
        super().__init__(message)
        self.kind = kind


class GkmGraph:
    """A graph on vertices 1..vertex_count with weight-labeled oriented edges.

    The edge set must contain (j, i) whenever it contains (i, j) and must have
    no loops; those are structural requirements.  The axial-function axioms
    (antisymmetry, local pairwise independence, existence of the integer
    congruence witnesses) are *not* enforced here -- `check_axial_axioms`
    reports their violations, so deliberately broken graphs can be built for
    diagnosis.
    """

    __slots__ = ("m", "vertex_count", "_axial", "_stars", "_divisors")

    def __init__(self, m: int, vertex_count: int, axial: Mapping[Edge, Iterable[int]]):
        if type(m) is not int or m < 1:
            raise ValueError(f"lattice rank must be a positive int, got {m!r}")
        if type(vertex_count) is not int or vertex_count < 1:
            raise ValueError(f"vertex count must be a positive int, got {vertex_count!r}")
        weights: dict[Edge, tuple[int, ...]] = {}
        for (i, j), w in axial.items():
            if not (1 <= i <= vertex_count and 1 <= j <= vertex_count):
                raise ValueError(f"edge ({i}, {j}) leaves the vertex range 1..{vertex_count}")
            if i == j:
                raise ValueError(f"loop edge at vertex {i}")
            w = tuple(w)
            if len(w) != m or not all(type(x) is int for x in w):
                raise ValueError(f"edge ({i}, {j}): weight {w!r} is not an integer vector of length {m}")
            weights[(i, j)] = w
        for i, j in weights:
            if (j, i) not in weights:
                raise ValueError(f"edge ({i}, {j}) present without its reversal")
        stars: dict[int, list[Edge]] = {v: [] for v in range(1, vertex_count + 1)}
        for i, j in sorted(weights):
            stars[i].append((i, j))
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "_axial", weights)
        object.__setattr__(self, "_stars", {v: tuple(es) for v, es in stars.items()})
        # (i, j, weight(i, j)) per unordered edge for `is_k_class`: each nonzero
        # weight is checked as a divisor once, here; a zero one raises when used.
        divisors = []
        for i, j in self.unordered_edges():
            w = weights[(i, j)]
            divisors.append((i, j, _checked_alpha(w, m) if any(w) else w))
        object.__setattr__(self, "_divisors", tuple(divisors))

    def __setattr__(self, name, value):
        raise AttributeError("GkmGraph is immutable")

    @property
    def vertices(self) -> range:
        return range(1, self.vertex_count + 1)

    def edges(self) -> list[Edge]:
        """All oriented edges, sorted."""
        return sorted(self._axial)

    def unordered_edges(self) -> list[Edge]:
        return [(i, j) for i, j in sorted(self._axial) if i < j]

    def edges_from(self, p: int) -> tuple[Edge, ...]:
        return self._stars[p]

    def has_edge(self, i: int, j: int) -> bool:
        return (i, j) in self._axial

    def axial(self, i: int, j: int) -> tuple[int, ...]:
        try:
            return self._axial[(i, j)]
        except KeyError:
            raise ValueError(f"({i}, {j}) is not an edge") from None

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "vertices": self.vertex_count,
            "edges": [
                {"from": i, "to": j, "alpha": list(self._axial[(i, j)])}
                for i, j in sorted(self._axial)
            ],
        }


class VertexMap:
    """A total map from vertices to Laurent polynomials, with pointwise ring ops."""

    __slots__ = ("values",)

    def __init__(self, values: Mapping[int, LaurentPolynomial]):
        if not values:
            raise ValueError("a vertex map needs at least one vertex")
        ms = {p.m for p in values.values()}
        if len(ms) != 1:
            raise ValueError(f"mixed variable counts in vertex map: {sorted(ms)}")
        object.__setattr__(self, "values", dict(sorted(values.items())))

    def __setattr__(self, name, value):
        raise AttributeError("VertexMap is immutable")

    @classmethod
    def constant(cls, vertices: Iterable[int], p: LaurentPolynomial) -> "VertexMap":
        return cls({v: p for v in vertices})

    @property
    def m(self) -> int:
        return next(iter(self.values.values())).m

    def vertices(self) -> tuple[int, ...]:
        return tuple(self.values)

    def __getitem__(self, v: int) -> LaurentPolynomial:
        return self.values[v]

    def _check_shape(self, vertices: Iterable[int], m: int) -> None:
        """Refuse a map not on exactly `vertices`, or with values not in `m` variables."""
        if self.vertices() != tuple(vertices):
            raise ValueError("vertex map does not cover exactly the graph's vertices")
        if self.m != m:
            raise ValueError(f"vertex map has {self.m} variables, expected {m}")

    def _coerce(self, other) -> "VertexMap":
        if isinstance(other, (int, LaurentPolynomial)):
            m = self.m
            p = constant(m, other) if isinstance(other, int) else other
            return VertexMap.constant(self.values, p)
        if isinstance(other, VertexMap):
            if tuple(other.values) != tuple(self.values):
                raise ValueError("vertex maps live on different vertex sets")
            return other
        return NotImplemented

    def _pointwise(self, op, other):
        """op(self[v], other[v]) at every vertex, or NotImplemented."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        values = other.values
        return VertexMap({v: op(p, values[v]) for v, p in self.values.items()})

    def __add__(self, other):
        return self._pointwise(operator.add, other)

    __radd__ = __add__

    def __neg__(self):
        return VertexMap({v: -p for v, p in self.values.items()})

    def __sub__(self, other):
        return self._pointwise(operator.sub, other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        return self._pointwise(operator.mul, other)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, VertexMap):
            return NotImplemented
        return self.values == other.values

    __hash__ = None

    def __repr__(self) -> str:
        body = ", ".join(f"{v}: {p}" for v, p in self.values.items())
        return f"VertexMap({{{body}}})"


class Connection:
    """Edge-star bijections: for e = (p, q), transport(e, e') is the edge at q
    matched with e' at p, and witness(e, e') the integer in
    weight(transport) - weight(e') = witness * weight(e)."""

    __slots__ = ("_maps",)

    def __init__(self, maps: Mapping[Edge, Mapping[Edge, tuple[Edge, int]]]):
        object.__setattr__(self, "_maps", {e: dict(star) for e, star in maps.items()})

    def __setattr__(self, name, value):
        raise AttributeError("Connection is immutable")

    def transport(self, e: Edge, e_prime: Edge) -> Edge:
        return self._maps[e][e_prime][0]

    def witness(self, e: Edge, e_prime: Edge) -> int:
        return self._maps[e][e_prime][1]

    def star_map(self, e: Edge) -> dict[Edge, tuple[Edge, int]]:
        return dict(self._maps[e])

    def edges(self) -> list[Edge]:
        return sorted(self._maps)


def integer_multiple_of(diff: Iterable[int], base: Iterable[int]) -> int | None:
    """The integer k with diff == k * base, or None if there is none."""
    diff = tuple(diff)
    base = tuple(base)
    if not any(base):
        return 0 if not any(diff) else None
    pivot = next(i for i, b in enumerate(base) if b)
    if diff[pivot] % base[pivot]:
        return None
    k = diff[pivot] // base[pivot]
    return k if all(d == k * b for d, b in zip(diff, base)) else None


def derive_connection(graph: GkmGraph) -> Connection:
    """The unique connection compatible with the axial function.

    For each oriented edge e = (p, q) and each edge e' at p, the partner at q
    is the unique edge whose weight differs from weight(e') by an integer
    multiple of weight(e), found by `integer_multiple_of` (the test that
    `check_axial_axioms` applies); the multiple is the witness.  Raises
    ConnectionDerivationError when no partner exists (not a GKM graph) or
    several do (three-independence violated).
    """
    axial = graph._axial
    maps: dict[Edge, dict[Edge, tuple[Edge, int]]] = {}
    for e in graph.edges():
        p, q = e
        w_e = axial[e]
        star: dict[Edge, tuple[Edge, int]] = {}
        used: set[Edge] = set()
        for e_prime in graph.edges_from(p):
            w_prime = axial[e_prime]
            candidates = [
                (e_double, k)
                for e_double in graph.edges_from(q)
                if (k := integer_multiple_of(map(operator.sub, axial[e_double], w_prime), w_e)) is not None
            ]
            if not candidates:
                raise ConnectionDerivationError(
                    f"no connection partner for edge {e_prime} along {e}: not a GKM graph",
                    kind="no-candidate",
                )
            if len(candidates) > 1:
                raise ConnectionDerivationError(
                    f"edge {e_prime} along {e} has {len(candidates)} partners: "
                    "three-independence violated",
                    kind="ambiguous",
                )
            (target, k), = candidates
            if target in used:
                raise ConnectionDerivationError(
                    f"connection along {e} is not a bijection (edge {target} matched twice)",
                    kind="ambiguous",
                )
            used.add(target)
            star[e_prime] = (target, k)
        if star[e][0] != (q, p):
            raise ConnectionDerivationError(
                f"edge {e} does not transport to its own reversal: not a GKM graph",
                kind="no-candidate",
            )
        maps[e] = star
    return Connection(maps)


@dataclass(frozen=True)
class AxiomViolation:
    condition: int  # 1 = antisymmetry, 2 = pairwise independence, 3 = integer congruence
    subject: tuple
    detail: str


@dataclass(frozen=True)
class AxiomReport:
    violations: tuple[AxiomViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def check_axial_axioms(graph: GkmGraph, connection: Connection) -> AxiomReport:
    """Verify the three axial-function axioms; violations accumulate, never raise.

    Condition 1: weight(j, i) == -weight(i, j) for every edge.
    Condition 2: the weights at each vertex are pairwise linearly independent.
    Condition 3: every transported edge admits the integer congruence witness,
    and the stored witness matches.
    A connection whose shape does not match the graph is a usage error.
    """
    if sorted(connection.edges()) != graph.edges():
        raise ValueError("connection shape does not match the graph's edge set")
    violations: list[AxiomViolation] = []
    for i, j in graph.unordered_edges():
        forward = graph.axial(i, j)
        backward = graph.axial(j, i)
        if tuple(-x for x in forward) != backward:
            violations.append(
                AxiomViolation(1, (i, j), f"weight({j},{i}) != -weight({i},{j})")
            )
    for p in graph.vertices:
        star = graph.edges_from(p)
        for e1, e2 in combinations(star, 2):
            if integer_rank([graph.axial(*e1), graph.axial(*e2)]) < 2:
                violations.append(
                    AxiomViolation(2, (p, e1, e2), f"parallel weights at vertex {p}: {e1}, {e2}")
                )
    for e in graph.edges():
        w_e = graph.axial(*e)
        star_map = connection.star_map(e)
        for e_prime in graph.edges_from(e[0]):
            if e_prime not in star_map:
                violations.append(
                    AxiomViolation(3, (e, e_prime), f"connection along {e} misses edge {e_prime}")
                )
                continue
            target, stored = star_map[e_prime]
            diff = tuple(
                a - b for a, b in zip(graph.axial(*target), graph.axial(*e_prime))
            )
            k = integer_multiple_of(diff, w_e)
            if k is None:
                violations.append(
                    AxiomViolation(
                        3, (e, e_prime), f"no integer congruence witness for {e_prime} along {e}"
                    )
                )
            elif k != stored:
                violations.append(
                    AxiomViolation(
                        3, (e, e_prime), f"stored witness {stored} disagrees with computed {k}"
                    )
                )
    return AxiomReport(tuple(violations))


def check_three_independence(graph: GkmGraph) -> bool:
    """True iff every three weights at a common vertex are linearly independent.

    Vacuously true for degree <= 2.
    """
    for p in graph.vertices:
        weights = [graph.axial(*e) for e in graph.edges_from(p)]
        for triple in combinations(weights, 3):
            if integer_rank(triple) < 3:
                return False
    return True


@dataclass(frozen=True)
class KClassReport:
    ok: bool
    failing_edges: tuple[Edge, ...]

    def __bool__(self) -> bool:
        return self.ok


def is_k_class(graph: GkmGraph, vm: VertexMap) -> KClassReport:
    """Decide whether the vertex map is a K-class.

    For every edge {i, j} the difference vm[i] - vm[j] must be divisible by
    1 - y^weight(i, j); divisibility is orientation-independent because the
    two binomials differ by a unit.  An edge whose two values are equal
    passes untested; otherwise the two values are summed by coset of
    Z·weight(i, j) (`laurent._difference_divisible`), without building their
    difference.  A zero weight raises ValueError once an edge with two
    different values meets it.  All failing edges are reported.
    """
    vm._check_shape(graph.vertices, graph.m)
    failing = []
    values = vm.values
    for i, j, alpha in graph._divisors:
        a, b = values[i], values[j]
        if a == b:
            continue
        if type(alpha) is not _Divisor:  # a zero weight: _checked_alpha refuses it
            alpha = _checked_alpha(alpha, graph.m)
        if not _difference_divisible(a, b, alpha):
            failing.append((i, j))
    return KClassReport(not failing, tuple(failing))


def check_connection_involution(graph: GkmGraph, connection: Connection) -> bool:
    """True iff transporting along e and then back along its reversal is the identity."""
    for e in graph.edges():
        back = (e[1], e[0])
        for e_prime in graph.edges_from(e[0]):
            if connection.transport(back, connection.transport(e, e_prime)) != e_prime:
                return False
    return True
