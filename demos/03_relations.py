"""The relation families among the generators, verified exactly.

Four identities of vertex maps tie the generators together; each is checked
here on a hand-picked instance, and then the aggregate sweep runs every
instance (plus seeded random product families) and prints its tally.
"""
from collections import Counter

from kquadric import (
    QuadricGraph,
    check_antipodal_product,
    check_complete_set_split,
    check_generator_identity,
    check_peeling,
    check_product_vanishing,
    iter_checks,
    spare_pole_pair,
)

ctx = QuadricGraph(2)
everything = frozenset(ctx.vertices)

print("1. product vanishing: supported classes over sets with empty intersection")
family = [{2, 4, 6}, everything - {2}, everything - {4}, everything - {6}]
print(f"   family {[sorted(j) for j in family]} -> zero map: "
      f"{check_product_vanishing(ctx, family)}")

print("2. complete-set split: for admissible I of size n")
members = frozenset({1, 2})
b, b_bar = spare_pole_pair(ctx, members)
print(f"   I = {sorted(members)}, spare pole pair ({b}, {b_bar}): "
      f"{check_complete_set_split(ctx, members)}")

print("3. peeling: a Thom class times (1 - monomial class at i) drops i")
print(f"   P = [2, 4, 6], i = 2: {check_peeling(ctx, {2, 4, 6}, 2)}")

print("4. antipodal product constancy across all vertices")
print(f"   v = 1, w = 3: {check_antipodal_product(ctx, 1, 3)}")

print("and the ring generators are recovered as ratios of monomial classes:")
for i in range(1, ctx.n + 2):
    print(f"   y_{i} = M_{i + 1} * M_1^-1: {check_generator_identity(ctx, i)}")

print("\naggregate sweep (every instance, families up to size 3, 100 random):")
records = list(iter_checks(ctx, family_size_bound=3, seed=0))
outcomes = Counter(r.passed for r in records)
print(f"   {outcomes[True]} checks passed, {outcomes[False]} failed")
for kind, count in sorted(Counter(r.kind for r in records).items()):
    print(f"   {kind}: {count}")
