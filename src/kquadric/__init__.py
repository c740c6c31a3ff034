"""Exact equivariant K-ring computations for even-dimensional quadric GKM graphs.

The package builds the labeled graph of a 2n-dimensional quadric, its
generator K-classes, verifies the relation families among them, and computes
the unique coefficients of any K-class over the canonical free-module basis.
All arithmetic is exact over the integers.
"""

from .decompose import (
    CanonicalBasis,
    Decomposition,
    FreeModuleReport,
    NotAKClassError,
    canonical_basis,
    decompose,
    random_k_class,
    recompose,
    verify_free_module,
)
from .gkm import (
    AxiomReport,
    AxiomViolation,
    Connection,
    ConnectionDerivationError,
    GkmGraph,
    KClassReport,
    VertexMap,
    check_axial_axioms,
    check_connection_involution,
    check_three_independence,
    derive_connection,
    is_k_class,
)
from .laurent import (
    LaurentPolynomial,
    NonDivisibleError,
    ParseError,
    constant,
    div_exact_binomial,
    div_exact_product,
    divisible_by_binomial,
    from_json_dict,
    monomial,
    one,
    one_minus_monomial,
    to_json_dict,
    zero,
)
from .quadric import (
    QuadricGraph,
    antipodal_product_class,
    monomial_class,
    thom_class,
    vertex_map_from_json_dict,
    vertex_map_to_json_dict,
)
from .relations import (
    ClassProvider,
    check_antipodal_product,
    check_complete_set_split,
    check_generator_identity,
    check_peeling,
    check_product_vanishing,
    iter_checks,
    random_empty_intersection_family,
    spare_pole_pair,
    support_index_sets,
)

__version__ = "0.1.0"
