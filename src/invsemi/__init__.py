"""Exact computation in finite and truncated inverse semigroups.

The library works over the complex semigroup algebra with Gaussian-rational
coefficients: group gradings and their fibers, the restriction expectation
onto a kernel with sum-of-squares positivity witnesses, graph inverse
semigroups, Bruck-Reilly extensions, Toeplitz normal forms, and truncated
regular representations that turn positivity questions into finite
eigenvalue certificates. The `invsemi` console script exposes the same
operations on JSON documents.
"""

from .algebra import (
    AlgebraElement,
    Grading,
    bundle_fibers,
    check_grading,
    convolve,
    epsilon_restrict,
    epsilon_star_square,
    fiber_decompose,
    involution,
    sos_witness_coset,
    sos_witness_idempotent_kernel,
)
from .core import (
    FiniteInverseSemigroup,
    GroupTable,
    PartialBijection,
    close_generators,
    is_e_unitary,
    max_group_image,
    natural_leq,
    omega_coset_partition,
)
from .errors import InputError, InvsemiError, MathAssertionError
from .families import BRContext, Shift, ShiftBundle, TQContext, example62
from .graphs import (
    DirectedGraph,
    GraphContext,
    PathPair,
    enumerate_pairs,
    orthogonality_check,
    semisaturation_factorize,
)
from .jsonio import dump_report, load_fixture, load_input
from .rep import (
    Truncation,
    action_matrix,
    lambda_matrix,
    min_eig,
    norm_lower_bound,
    psd_refute,
    rho_matrix,
)
from .scalars import QQi

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "BRContext",
    "DirectedGraph",
    "FiniteInverseSemigroup",
    "Grading",
    "GraphContext",
    "GroupTable",
    "InputError",
    "InvsemiError",
    "MathAssertionError",
    "PartialBijection",
    "PathPair",
    "QQi",
    "Shift",
    "ShiftBundle",
    "TQContext",
    "Truncation",
    "action_matrix",
    "bundle_fibers",
    "check_grading",
    "close_generators",
    "convolve",
    "dump_report",
    "enumerate_pairs",
    "epsilon_restrict",
    "epsilon_star_square",
    "example62",
    "fiber_decompose",
    "involution",
    "is_e_unitary",
    "lambda_matrix",
    "load_fixture",
    "load_input",
    "max_group_image",
    "min_eig",
    "natural_leq",
    "norm_lower_bound",
    "omega_coset_partition",
    "orthogonality_check",
    "psd_refute",
    "rho_matrix",
    "semisaturation_factorize",
    "sos_witness_coset",
    "sos_witness_idempotent_kernel",
]
