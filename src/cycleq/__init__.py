"""Counting equivalence classes of S_n under two-sided shifts by a full cycle.

Two permutations alpha and beta of {1..n} are equivalent when some powers of
a fixed full cycle sigma connect them, sigma^k * alpha == beta * sigma^l.
This package computes the number of such classes exactly for any n, builds
the divisor graph that organizes the recursion, solves and enumerates the
underlying equations constructively, and cross-checks everything for small n
with a brute-force pass over the whole group.
"""

from .class_graph import (
    GammaGraph,
    Vertex,
    build_gamma,
    export_dot,
    export_json,
    precedes,
    tau,
)
from .counting import (
    Column,
    CountTable,
    InexactDivision,
    NotPrime,
    count_table,
    h_count,
    p_count,
    predicted_size_histogram,
    q_count,
    q_prime,
    wilson_check,
)
from .equation_solver import (
    BlockPartition,
    EquationInstance,
    InvalidParameters,
    NoSolution,
    block_partition,
    check_parameters,
    enumerate_solutions,
    min_left_exponent,
    solution_images,
    solve_base,
)
from .oracle import (
    DEFAULT_BOUND,
    DEFAULT_SEED,
    BoundExceeded,
    ClassReport,
    count_equation_solutions,
    enumerate_classes,
    sigma_independence_check,
)
from .permutation import (
    Permutation,
    canonical_sigma,
    compose,
    cycle_string,
    cycles,
    identity,
    inverse,
    is_full_cycle,
    one_line,
    order,
    power,
)
from .zn_ring import (
    divisors,
    gcd,
    is_prime,
    prime_factors,
    residue,
    totient,
)

__version__ = "0.1.0"

__all__ = [
    "BlockPartition",
    "BoundExceeded",
    "ClassReport",
    "Column",
    "CountTable",
    "DEFAULT_BOUND",
    "DEFAULT_SEED",
    "EquationInstance",
    "GammaGraph",
    "InexactDivision",
    "InvalidParameters",
    "NoSolution",
    "NotPrime",
    "Permutation",
    "Vertex",
    "block_partition",
    "build_gamma",
    "canonical_sigma",
    "check_parameters",
    "compose",
    "count_equation_solutions",
    "count_table",
    "cycle_string",
    "cycles",
    "divisors",
    "enumerate_classes",
    "enumerate_solutions",
    "export_dot",
    "export_json",
    "gcd",
    "h_count",
    "identity",
    "inverse",
    "is_full_cycle",
    "is_prime",
    "min_left_exponent",
    "one_line",
    "order",
    "p_count",
    "power",
    "precedes",
    "predicted_size_histogram",
    "prime_factors",
    "q_count",
    "q_prime",
    "residue",
    "sigma_independence_check",
    "solution_images",
    "solve_base",
    "tau",
    "totient",
    "wilson_check",
]
