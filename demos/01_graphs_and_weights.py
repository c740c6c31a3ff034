"""Build quadric GKM graphs and inspect their combinatorial structure.

The graph for a 2n-dimensional quadric has 2n+2 vertices; vertex i and its
antipode 2n+3-i are the only pair not joined by an edge.  Every oriented edge
carries an integer weight vector in Z^(n+1), and the whole package rests on
three structural facts checked here: the weights satisfy the axial-function
axioms, any three weights at a vertex are linearly independent (which forces
a unique connection), and the weights at each vertex span the full lattice.
"""
from kquadric import (
    QuadricGraph,
    check_axial_axioms,
    check_connection_involution,
    check_three_independence,
    derive_connection,
)
from kquadric.linalg import spans_full_lattice


def describe(n):
    ctx = QuadricGraph(n)
    print(f"--- n = {n}: {ctx.vertex_count} vertices, degree {2 * n}, weights in Z^{ctx.m}")

    print("vertex weights h(j):")
    for j in ctx.vertices:
        print(f"  h({j}) = {ctx.vertex_weight(j)}   antipode({j}) = {ctx.antipode(j)}")

    print("weights on the edges out of vertex 1:")
    for e in ctx.graph.edges_from(1):
        print(f"  {e}: {ctx.graph.axial(*e)}")

    connection = derive_connection(ctx.graph)
    report = check_axial_axioms(ctx.graph, connection)
    print(f"axial axioms: {'ok' if report.ok else report.violations}")
    print(f"three-independent: {check_three_independence(ctx.graph)}")
    print(f"connection involution: {check_connection_involution(ctx.graph, connection)}")

    rows = [ctx.graph.axial(*e) for e in ctx.graph.edges_from(1)]
    print(f"weights at vertex 1 span Z^{ctx.m}: {spans_full_lattice(rows, ctx.m)}")

    # The derived connection in action: transport the edges at 1 along (1, 2).
    print("transport along (1, 2):")
    for e_prime in ctx.graph.edges_from(1):
        target = connection.transport((1, 2), e_prime)
        witness = connection.witness((1, 2), e_prime)
        print(f"  {e_prime} -> {target}   (integer witness {witness})")
    print()


if __name__ == "__main__":
    for n in (1, 2):
        describe(n)
