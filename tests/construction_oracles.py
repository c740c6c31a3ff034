"""Second constructions of the connection and of the Thom classes, kept as
test oracles.

`coset_key_connection` keys the edges at each end of an oriented edge by
their coset modulo the edge's weight and matches keys;
`vertex_weight_thom_class` multiplies the binomials 1 - f(k)*f(l)^-1 from
vertex-weight differences, with no memo.  The package derives the same
connection by testing every pair of edges with `integer_multiple_of`, and
builds the same classes from memoized edge-binomial products.
"""
from __future__ import annotations

from kquadric.gkm import Connection, ConnectionDerivationError, VertexMap
from kquadric.laurent import monomial, one, zero


def _coset(w, base, j):
    """(w - t*base, t) with t = w_j // base_j, where j is a nonzero coordinate
    of base; (w, 0) when base is zero (j is None)."""
    if j is None:
        return w, 0
    t = w[j] // base[j]
    return tuple(a - t * b for a, b in zip(w, base)), t


def coset_key_connection(graph) -> Connection:
    """Partners by coset key, not by testing every pair of edges.

    Each weight w is keyed by its representative w - t*weight(e) modulo
    Z*weight(e), with t = w_j // weight(e)_j at the first nonzero coordinate
    j of weight(e).  Adding weight(e) to w adds exactly 1 to t, whatever the
    signs and even for a non-primitive weight, so two weights share a key iff
    their difference is an integer multiple of weight(e), and the multiple
    (the witness) is the difference of their t's.  A zero weight(e) keys
    each weight by itself: only equal weights match.
    """
    maps = {}
    for e in graph.edges():
        p, q = e
        w_e = graph.axial(p, q)
        j = next((i for i, x in enumerate(w_e) if x), None)
        partners = {}
        for e_double in graph.edges_from(q):
            key, t = _coset(graph.axial(*e_double), w_e, j)
            partners.setdefault(key, []).append((e_double, t))
        star = {}
        used = set()
        for e_prime in graph.edges_from(p):
            key, t = _coset(graph.axial(*e_prime), w_e, j)
            candidates = partners.get(key, ())
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
            (target, t_target), = candidates
            if target in used:
                raise ConnectionDerivationError(
                    f"connection along {e} is not a bijection (edge {target} matched twice)",
                    kind="ambiguous",
                )
            used.add(target)
            star[e_prime] = (target, t_target - t)
        if star[e][0] != (q, p):
            raise ConnectionDerivationError(
                f"edge {e} does not transport to its own reversal: not a GKM graph",
                kind="no-candidate",
            )
        maps[e] = star
    return Connection(maps)


def vertex_weight_thom_class(ctx, members) -> VertexMap:
    members = frozenset(members)
    if not ctx.is_admissible(members):
        raise ValueError(f"{sorted(members)} is empty, out of range, or contains an antipodal pair")
    values = {}
    for l in ctx.vertices:
        if l not in members:
            values[l] = zero(ctx.m)
            continue
        h_l = ctx.vertex_weight(l)
        value = one(ctx.m)
        for k in ctx.vertices:
            if k in members or k == ctx.antipode(l):
                continue
            value = value * (
                one(ctx.m) - monomial(tuple(a - b for a, b in zip(ctx.vertex_weight(k), h_l)))
            )
        values[l] = value
    return VertexMap(values)
