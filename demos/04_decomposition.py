"""Decomposing K-classes over the canonical free-module basis.

Every K-class has unique Laurent-polynomial coefficients over the 2n+2 basis
classes (1, the nested products of 1 - monomial classes, then the chain of
Thom classes of tail segments).  The peeling algorithm recovers them exactly,
division by binomials only; a failed division certifies that the input was
not a K-class in the first place.
"""
import random

from kquadric import (
    NotAKClassError,
    QuadricGraph,
    VertexMap,
    canonical_basis,
    decompose,
    monomial_class,
    one,
    random_k_class,
    recompose,
    thom_class,
    verify_free_module,
    zero,
)

ctx = QuadricGraph(1)
basis = canonical_basis(ctx)

print("the canonical basis for n = 1 (lower triangular in the vertex order):")
for k, b in enumerate(basis.classes, start=1):
    print(f"  B_{k}: " + ", ".join(f"{v}: {b[v]}" for v in ctx.vertices))

print("\ndecomposing the monomial class at vertex 4:")
m4 = monomial_class(ctx, 4)
d = decompose(ctx, m4, basis)
for k, h in enumerate(d.coefficients, start=1):
    print(f"  h_{k} = {h}")
print(f"  recompose reproduces the class: {recompose(ctx, d, basis) == m4}")

print("\na product of generators decomposes exactly too:")
f = monomial_class(ctx, 2) * thom_class(ctx, {4})
d = decompose(ctx, f, basis)
print("  coefficients:", [str(h) for h in d.coefficients])
print(f"  round trip: {recompose(ctx, d, basis) == f}")

print("\nnon-K-classes are refused with a witness:")
values = {v: zero(ctx.m) for v in ctx.vertices}
values[1] = one(ctx.m)
try:
    decompose(ctx, VertexMap(values), basis)
except NotAKClassError as exc:
    print(f"  {exc}")

print("\nvertex restriction (the localization embedding):")
ratio = monomial_class(ctx, 2) * monomial_class(ctx, 1, inverted=True)
print("  M_2 * M_1^-1 restricted at each vertex:",
      [str(ratio[v]) for v in ctx.vertices])

print("\nseeded certification sweep at n = 2:")
ctx2 = QuadricGraph(2)
print(" ", verify_free_module(ctx2, trials=50, seed=1).to_json_dict())

print("\none random K-class, start to finish:")
rng = random.Random(5)
f = random_k_class(ctx2, rng)
d = decompose(ctx2, f)
print(f"  coefficients nonzero at positions "
      f"{[k + 1 for k, h in enumerate(d.coefficients) if not h.is_zero()]}")
print(f"  exact round trip: {recompose(ctx2, d) == f}")
