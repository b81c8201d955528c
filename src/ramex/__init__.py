"""Exact construction and certification of bipartite Ramanujan multigraphs."""

from .exact_algebra import (
    InvariantViolation,
    NonzeroRemainder,
    UniPoly,
    poly_div_exact,
    poly_shift_by_sqrt,
    poly_substitute_square,
    quad_sign,
)
from .exact_linalg import (
    BlockSpec,
    CTensor,
    GridTooLarge,
    Matrix,
    RationalityViolation,
    charpoly,
    trivariate_detpoly,
)
from .expectation_engine import (
    add_random_matching,
    fixed_plus_random_block_expected,
    g_weight,
    node_polynomial,
)
from .matching_family import (
    IsLeaf,
    Multigraph,
    NodeState,
    NotALeaf,
    Params,
    children,
    half_adjacency,
    leaf_graph,
)
from .oracle import TooLarge, brute_expected_charpoly, brute_fixed_plus_permutation
from .ramanujan_walk import (
    Certificate,
    NoPassingChild,
    NotRegular,
    certify,
    max_root_leq_sqrt,
    walk,
)

__version__ = "0.1.0"
