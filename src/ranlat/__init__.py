"""Randomised rank-1 lattice rules in weighted Korobov spaces.

Construction of generating vectors for the random-prime fixed-vector
algorithm, exact deterministic and randomised error evaluation, fast CBC
search, and online randomised integration.  The reference paths that check
them live in `ranlat.oracles`, which only `ranlat verify` imports.
"""

__version__ = "0.1.0"

from .cbc import cbc_construct
from .construct import construct_fixed_vector
from .errors import (
    BoundParams,
    ErrorReport,
    default_lambda_grid,
    randomized_error_sq_fixed,
    theorem_bound_min,
    worst_case_error_sq,
)
from .kernels import DomainError, KorobovSpaceParams, poly_weights
from .primes import ResidueVector
from .runtime import (
    Integrand,
    RunConfig,
    lattice_rule,
    product_cosine,
    run_rp_cbc,
    run_rp_rv,
    run_rpfv,
)

__all__ = [
    "BoundParams",
    "DomainError",
    "ErrorReport",
    "Integrand",
    "KorobovSpaceParams",
    "ResidueVector",
    "RunConfig",
    "cbc_construct",
    "construct_fixed_vector",
    "default_lambda_grid",
    "lattice_rule",
    "poly_weights",
    "product_cosine",
    "randomized_error_sq_fixed",
    "run_rp_cbc",
    "run_rp_rv",
    "run_rpfv",
    "theorem_bound_min",
    "worst_case_error_sq",
]
