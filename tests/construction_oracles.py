"""The former constructions of the connection and of the Thom classes, kept
as test oracles.

`pairwise_connection` tests every pair of edges at the two ends of each
oriented edge with `integer_multiple_of`; `vertex_weight_thom_class`
multiplies the binomials 1 - f(k)*f(l)^-1 from vertex-weight differences,
with no memo.  The package derives the same connection by coset-key lookup
and builds the same classes from memoized edge-binomial products.
"""
from __future__ import annotations

from kquadric.gkm import Connection, ConnectionDerivationError, VertexMap, integer_multiple_of
from kquadric.laurent import monomial, one, zero


def pairwise_connection(graph) -> Connection:
    maps = {}
    for e in graph.edges():
        p, q = e
        w_e = graph.axial(p, q)
        star = {}
        used = set()
        for e_prime in graph.edges_from(p):
            w_prime = graph.axial(*e_prime)
            candidates = []
            for e_double in graph.edges_from(q):
                w_double = graph.axial(*e_double)
                k = integer_multiple_of(tuple(a - b for a, b in zip(w_double, w_prime)), w_e)
                if k is not None:
                    candidates.append((e_double, k))
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
            target, k = candidates[0]
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
