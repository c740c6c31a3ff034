"""Decomposition on whole vertex maps, kept as the oracle for the in-place one.

This is how `kquadric.decompose` computed before the residual became one
accumulator per vertex: every stage subtracts the vertex map B_k * h_k from
the residual map, building each product and copying every vertex value, and
recompose adds the maps B_k * h_k one by one.  Errors are raised exactly as
the library raises them, so a test can compare stages and failing edges.
"""
from __future__ import annotations

from kquadric.decompose import NotAKClassError
from kquadric.gkm import VertexMap, is_k_class
from kquadric.laurent import NonDivisibleError, div_exact_product, zero


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
