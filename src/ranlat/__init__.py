"""Randomised rank-1 lattice rules in weighted Korobov spaces.

Construction of generating vectors for the random-prime fixed-vector
algorithm, exact deterministic and randomised error evaluation, fast CBC
search, and online randomised integration.
"""

__version__ = "0.1.0"

from .cbc import cbc_construct
from .construct import construct_fixed_vector
from .errors import (
    BoundParams,
    ErrorReport,
    default_lambda_grid,
    good_set_threshold,
    randomized_error_sq_fixed,
    theorem_bound_eran,
    theorem_bound_min,
    worst_case_error_sq,
)
from .kernels import (
    DomainError,
    KorobovSpaceParams,
    UnsupportedSmoothnessError,
    poly_weights,
    r_alpha,
    sigma_alpha,
    zeta,
)
from .primes import (
    PrimePool,
    ResidueVector,
    build_prime_pool,
    crt_reconstruct,
    is_prime,
    primitive_root,
    sieve_primes,
)
from .runtime import (
    Integrand,
    RunConfig,
    SplitMix64,
    lattice_rule,
    product_bernoulli,
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
    "PrimePool",
    "ResidueVector",
    "RunConfig",
    "SplitMix64",
    "UnsupportedSmoothnessError",
    "build_prime_pool",
    "cbc_construct",
    "construct_fixed_vector",
    "crt_reconstruct",
    "default_lambda_grid",
    "good_set_threshold",
    "is_prime",
    "lattice_rule",
    "poly_weights",
    "primitive_root",
    "product_bernoulli",
    "product_cosine",
    "r_alpha",
    "randomized_error_sq_fixed",
    "run_rp_cbc",
    "run_rp_rv",
    "run_rpfv",
    "sieve_primes",
    "sigma_alpha",
    "theorem_bound_eran",
    "theorem_bound_min",
    "worst_case_error_sq",
    "zeta",
]
