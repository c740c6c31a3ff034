"""The tuple-keyed Laurent kernel, kept as the oracle for the packed one.

Polynomials here are plain dicts from exponent tuples to nonzero ints.  This
is the arithmetic `kquadric.laurent` used before exponents were packed into
ints: keys are added coordinate by coordinate, and cosets of Z·alpha are
keyed by e - t·alpha with t = ⌊alpha·e / alpha·alpha⌋ (a different choice of
t from the packed kernel's, which makes the comparison independent).
"""
from __future__ import annotations

Terms = dict[tuple[int, ...], int]


class NotDivisible(ArithmeticError):
    pass


def terms_of(p) -> Terms:
    return dict(p.items())


def add(a: Terms, b: Terms, sign: int = 1) -> Terms:
    result = dict(a)
    for e, c in b.items():
        v = result.get(e, 0) + sign * c
        if v:
            result[e] = v
        elif e in result:
            del result[e]
    return result


def mul(a: Terms, b: Terms) -> Terms:
    result: Terms = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            v = result.get(key, 0) + c1 * c2
            if v:
                result[key] = v
            elif key in result:
                del result[key]
    return result


def _buckets(g: Terms, alpha) -> dict[tuple[int, ...], list[tuple[int, int]]]:
    norm = sum(a * a for a in alpha)
    buckets: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for e, c in g.items():
        t = sum(a * x for a, x in zip(alpha, e)) // norm
        rep = tuple(x - t * a for x, a in zip(e, alpha))
        buckets.setdefault(rep, []).append((t, c))
    return buckets


def quotient_size(g: Terms, alpha) -> int:
    """An upper bound on the term count of g / (1 - y^alpha), which can be
    astronomically large (1 - y^N over 1 - y has N terms)."""
    return sum(max(t for t, _ in b) - min(t for t, _ in b) for b in _buckets(g, alpha).values())


def divisible(g: Terms, alpha) -> bool:
    return not any(sum(c for _, c in bucket) for bucket in _buckets(g, alpha).values())


def div_exact(g: Terms, alpha) -> Terms:
    buckets = _buckets(g, alpha)
    if any(sum(c for _, c in bucket) for bucket in buckets.values()):
        raise NotDivisible(alpha)
    quotient: Terms = {}
    for rep, bucket in buckets.items():
        bucket.sort()
        running = 0
        for (t, c), (t_next, _) in zip(bucket, bucket[1:]):
            running += c
            if running:
                for s in range(t, t_next):
                    quotient[tuple(x + s * a for x, a in zip(rep, alpha))] = running
    return quotient


def div_exact_product(g: Terms, alphas) -> Terms:
    for alpha in alphas:
        if not g:
            return g
        g = div_exact(g, alpha)
    return g
