"""Decomposition on whole vertex maps, kept as the oracle for the in-place one.

This is how `kquadric.decompose` computed before the residual became one
accumulator per vertex: every stage subtracts the vertex map B_k * h_k from
the residual map, building each product and copying every vertex value, and
recompose adds the maps B_k * h_k one by one.  Errors are raised exactly as
the library raises them, so a test can compare stages and failing edges.

`expanded_recompose` is how `kquadric.decompose.recompose` computed before it
walked the division frames: one accumulator per vertex, and h_k * B_k(v)
added to it for every k by `add_product`, the accumulator's former fused
product.  Its layouts and bounds are the ones the library's values must keep.
"""
from __future__ import annotations

from kquadric.decompose import NotAKClassError
from kquadric.gkm import VertexMap, is_k_class
from kquadric.laurent import NonDivisibleError, _Accumulator, _common_layout, _keyed, _mul_into, div_exact_product, zero


def decompose(ctx, f: VertexMap, basis) -> tuple:
    residual = f
    coefficients = []
    for k in ctx.vertices:
        if not all(residual[l].is_zero() for l in range(1, k)):
            raise RuntimeError(f"residual not triangular at stage {k}")
        try:
            h_k = div_exact_product(residual[k], basis.diagonal_factors[k - 1])
        except NonDivisibleError as exc:
            report = is_k_class(ctx.graph, f)
            raise NotAKClassError(
                f"not a K-class: exact division failed at stage {k} "
                f"(failing edges: {list(report.failing_edges)})",
                stage=k,
                failing_edges=report.failing_edges,
            ) from exc
        coefficients.append(h_k)
        if not h_k.is_zero():
            residual = residual - basis.classes[k - 1] * h_k
    if not all(p.is_zero() for p in residual.values.values()):
        raise RuntimeError(f"nonzero terminal remainder after stage {ctx.vertex_count}")
    return tuple(coefficients)


def recompose(ctx, coefficients, basis) -> VertexMap:
    result = VertexMap.constant(ctx.vertices, zero(ctx.m))
    for h_k, b_k in zip(coefficients, basis.classes):
        if not h_k.is_zero():
            result = result + b_k * h_k
    return result


def add_product(acc: _Accumulator, h, b, sign: int = 1) -> None:
    """acc += sign * h * b by the pair loop, widening acc by the rule its
    `subtract` follows, for the bound max(acc, h + b)."""
    bound = h._bound + b._bound
    layout = acc._fit(_common_layout(acc.m, h._layout, b._layout, bound), max(acc._bound, bound))
    _mul_into(acc._terms, _keyed(h, layout), _keyed(b, layout), layout.zero, sign)


def expanded_recompose(ctx, coefficients, basis) -> VertexMap:
    sums = {v: _Accumulator(zero(ctx.m)) for v in ctx.vertices}
    for h_k, b_k in zip(coefficients, basis.classes):
        if not h_k.is_zero():
            for v, acc in sums.items():
                if not b_k[v].is_zero():
                    add_product(acc, h_k, b_k[v])
    return VertexMap({v: acc.value() for v, acc in sums.items()})
