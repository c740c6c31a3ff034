"""The GKM graph of an even-dimensional complex quadric and its generator classes.

For n >= 1 the graph has vertices 1..2n+2; vertex i and its antipode 2n+3-i
are the only non-neighbors, so the graph is regular of degree 2n.  Each vertex
j carries a weight h(j) in Z^(n+1):

    h(j) = x_{j-1} - x_{n+1}   for j = 1..n+2   (with x_0 = 0),
    h(j) = x_n - x_{2n+2-j}    for j = n+3..2n+2,

and an edge (i, j) is labeled h(j) - h(i).  Exponentiating weights gives the
vertex characters f(j) = y^h(j), out of which all generator K-classes are
assembled:

* the monomial class at v: value 1 at v, the monomial
  y_n * y_{n+1}^-1 * f(antipode(v))^-2 at the antipode, and f(v)*f(l)^-1
  = y^alpha(l, v) elsewhere (all values are unit monomials, so the class
  has a pointwise inverse);
* the Thom class of an admissible set P (one containing no antipodal pair):
  supported on P, with value prod(1 - f(k)*f(l)^-1) at l in P, the product
  running over the vertices k outside P other than antipode(l).  Those k
  are exactly the ends of the edges that leave P from l, and
  f(k)*f(l)^-1 = y^alpha(l, k) is the edge's own weight, so the value is the
  product of the binomials 1 - y^alpha(l, k) over the edges leaving P;
* the antipodal product class, the common value of (monomial class at v) *
  (monomial class at antipode(v));
* the supported classes of the relation suite, 1 - (monomial class at v) or
  a Thom class, which `relations.ClassProvider` assembles from the above.

Each `QuadricGraph` memoizes those products, keyed by (l, set of exit
vertices): the binomial of every edge is built once, and each longer product
is a memoized shorter one (mostly the value of another Thom class) times
one memoized edge binomial, by `laurent._times_binomial`.  That kernel
takes each key it makes from the context's key table, and the edge
binomials take theirs from it too, so equal exponents share one packed-key
int with no second pass over any product.  One zero polynomial serves every
vertex outside P.  The memo is private to its context and lives
exactly as long as it: two contexts share nothing, and nothing is cached per
n at module level.
"""
from __future__ import annotations

from itertools import product as iter_product
from typing import Iterable

from .gkm import GkmGraph, VertexMap
from .laurent import (
    LaurentPolynomial,
    ParseError,
    _quoted,
    _sharing_keys,
    _times_binomial,
    from_json_dict,
    monomial,
    one_minus_monomial,
    to_json_dict,
    zero,
)

Weight = tuple[int, ...]


class QuadricGraph:
    """Immutable context for one quadric graph: the labeled graph and the
    weight data every generator class is built from.

    Its one mutable part is the private memo of Thom-class values (see the
    module docstring), filled on first use; it never changes a result."""

    __slots__ = ("n", "m", "vertex_count", "graph", "_weights", "_zero", "_exit_products", "_exit_keys")

    def __init__(self, n: int):
        if type(n) is not int or n < 1:
            raise ValueError(f"n must be a positive int, got {_quoted(n)}")
        m = n + 1
        vertex_count = 2 * n + 2
        weights = {j: self._weight(n, j) for j in range(1, vertex_count + 1)}
        axial = {}
        for i in range(1, vertex_count + 1):
            for j in range(1, vertex_count + 1):
                if j == i or j == vertex_count + 1 - i:
                    continue
                axial[(i, j)] = tuple(a - b for a, b in zip(weights[j], weights[i]))
        graph = GkmGraph(m, vertex_count, axial)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "_weights", weights)
        object.__setattr__(self, "_zero", zero(m))
        object.__setattr__(self, "_exit_products", {})
        object.__setattr__(self, "_exit_keys", {})

    def __setattr__(self, name, value):
        raise AttributeError("QuadricGraph is immutable")

    @staticmethod
    def _weight(n: int, j: int) -> Weight:
        # x_k is basis vector k (1-based); x_0 = 0.
        e = [0] * (n + 1)
        if j <= n + 2:
            if j >= 2:
                e[j - 2] += 1
            e[n] -= 1
        else:
            e[n - 1] += 1
            k = 2 * n + 2 - j
            if k >= 1:
                e[k - 1] -= 1
        return tuple(e)

    @property
    def vertices(self) -> range:
        return range(1, self.vertex_count + 1)

    def antipode(self, i: int) -> int:
        if not 1 <= i <= self.vertex_count:
            raise ValueError(f"vertex {_quoted(i)} out of range 1..{self.vertex_count}")
        return self.vertex_count + 1 - i

    def vertex_weight(self, j: int) -> Weight:
        try:
            return self._weights[j]
        except KeyError:
            raise ValueError(f"vertex {_quoted(j)} out of range 1..{self.vertex_count}") from None

    def is_admissible(self, members: Iterable[int]) -> bool:
        """Nonempty, in range, and free of antipodal pairs."""
        members = set(members)
        if not members:
            return False
        if not all(1 <= v <= self.vertex_count for v in members):
            return False
        return all(self.antipode(v) not in members for v in members)

    def admissible_subsets(self) -> list[frozenset[int]]:
        """All admissible subsets (there are 3^(n+1) - 1), ordered by size then members."""
        pairs = [(i, self.antipode(i)) for i in range(1, self.n + 2)]
        subsets = []
        for choice in iter_product((None, 0, 1), repeat=len(pairs)):
            members = frozenset(
                pair[pick] for pair, pick in zip(pairs, choice) if pick is not None
            )
            if members:
                subsets.append(members)
        subsets.sort(key=lambda s: (len(s), sorted(s)))
        return subsets

    def _exit_product(self, l: int, exits: int) -> LaurentPolynomial:
        """The product of 1 - y^alpha(l, k) over the vertices k in `exits`, a
        nonzero bitmask with bit k-1 for vertex k; every k must be a neighbour
        of l.  A single edge's binomial is built once.  A longer product is
        one binomial times the memoized product over the rest; the factor
        taken off is the highest k whose antipode is also in `exits`, if there
        is one, so that the rest is again a Thom-class value at l (that of
        P + {k} when `exits` comes from P) and the memo holds little else.
        Every memoized value takes its packed keys from one table per
        context as they are made, so equal exponents share one int object."""
        memo = self._exit_products
        value = memo.get((l, exits))
        if value is None:
            count = self.vertex_count
            k = next(
                (k for k in range(count, 0, -1) if exits >> (k - 1) & exits >> (count - k) & 1),
                exits.bit_length(),
            )
            rest = exits ^ 1 << (k - 1)
            keys = self._exit_keys
            if rest:
                value = _times_binomial(self._exit_product(l, rest), self._exit_product(l, 1 << (k - 1)), keys)
            else:
                value = _sharing_keys(one_minus_monomial(self.graph.axial(l, k)), keys)
            memo[(l, exits)] = value
        return value

    def __repr__(self) -> str:
        return f"QuadricGraph(n={self.n})"


def _antipodal_exponent(ctx: QuadricGraph, k: int) -> Weight:
    """The exponent of y_n * y_{n+1}^-1 * f(k)^-2."""
    e = [-2 * x for x in ctx.vertex_weight(k)]
    e[ctx.n - 1] += 1
    e[ctx.n] -= 1
    return tuple(e)


def _vertex_mask(vertices: Iterable[int]) -> int:
    """The vertices as a bitmask, bit v - 1 for vertex v."""
    mask = 0
    for v in vertices:
        mask |= 1 << (v - 1)
    return mask


def monomial_class(ctx: QuadricGraph, v: int, inverted: bool = False) -> VertexMap:
    """The monomial-valued generator class attached to vertex v (or its inverse).

    Every value is a unit monomial, so the pointwise inverse is again a vertex
    map; `inverted=True` returns it.
    """
    v_bar = ctx.antipode(v)  # refuses a v out of range
    values = {}
    for l in ctx.vertices:
        if l == v:
            exponent = (0,) * ctx.m
        elif l == v_bar:
            exponent = _antipodal_exponent(ctx, v_bar)
        else:
            exponent = ctx.graph.axial(l, v)
        if inverted:
            exponent = tuple(-x for x in exponent)
        values[l] = monomial(exponent)
    return VertexMap(values)


def thom_class(ctx: QuadricGraph, members: Iterable[int]) -> VertexMap:
    """The Thom class of an admissible vertex set P: supported on P, with value
    at l in P the product of 1 - y^alpha(l, k) over the edges (l, k) leaving
    P, that is over the k outside P other than antipode(l).

    The values come from the context's memo (see the module docstring): a
    value is built once per (l, exit set) for the life of `ctx`, and vertices
    outside P share its one zero polynomial.
    """
    members = frozenset(members)
    if not ctx.is_admissible(members):
        raise ValueError(f"{_quoted(sorted(members))} is empty, out of range, or contains an antipodal pair")
    outside = ((1 << ctx.vertex_count) - 1) ^ _vertex_mask(members)
    values = {}
    for l in ctx.vertices:
        if l in members:
            # P has at most n+1 members, so some k outside P is not antipode(l).
            values[l] = ctx._exit_product(l, outside & ~(1 << (ctx.vertex_count - l)))
        else:
            values[l] = ctx._zero
    return VertexMap(values)


def antipodal_product_class(ctx: QuadricGraph) -> VertexMap:
    """The common product of the monomial class at v with the one at antipode(v):
    value y_n * y_{n+1}^-1 * f(k)^-2 at each vertex k."""
    return VertexMap({k: monomial(_antipodal_exponent(ctx, k)) for k in ctx.vertices})


# -- vertex-map serialization --------------------------------------------------


def vertex_map_to_json_dict(ctx: QuadricGraph, vm: VertexMap) -> dict:
    """Schema: {"n": int, "values": {"<vertex>": polynomial-JSON, ...}}, every vertex present."""
    vm._check_shape(ctx.vertices, ctx.m)
    return {"n": ctx.n, "values": {str(v): to_json_dict(vm[v]) for v in ctx.vertices}}


def _document_body(ctx: QuadricGraph, doc, what: str, key: str):
    """The body of an n-keyed document for `ctx`: one with exactly the keys
    'n' and `key`, whose n is the int ctx.n.  `what` names the document."""
    if not isinstance(doc, dict) or set(doc) != {"n", key}:
        raise ParseError(f"{what} document must have exactly the keys 'n' and '{key}'")
    if type(doc["n"]) is not int or doc["n"] != ctx.n:
        raise ParseError(f"{what} is for n={_quoted(doc['n'])}, context expects n={ctx.n}")
    return doc[key]


def _value_from_json_dict(ctx: QuadricGraph, doc, where: str) -> LaurentPolynomial:
    """A polynomial document in ctx.m variables; `where` names the value."""
    p = from_json_dict(doc)
    if p.m != ctx.m:
        raise ParseError(f"{where} has {p.m} variables, expected {ctx.m}")
    return p


def vertex_map_from_json_dict(ctx: QuadricGraph, doc) -> VertexMap:
    values_doc = _document_body(ctx, doc, "vertex map", "values")
    if not isinstance(values_doc, dict):
        raise ParseError("'values' must be an object keyed by vertex")
    expected = {str(v) for v in ctx.vertices}
    if set(values_doc) != expected:
        missing = sorted(expected - set(values_doc))
        extra = sorted(set(values_doc) - expected)
        raise ParseError(f"vertex keys wrong (missing {missing}, unexpected {_quoted(extra)})")
    return VertexMap({v: _value_from_json_dict(ctx, values_doc[str(v)], f"value at vertex {v}") for v in ctx.vertices})
