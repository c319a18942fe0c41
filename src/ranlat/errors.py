"""Exact error evaluation for rank-1 lattice rules in weighted Korobov spaces.

Contains the point formula for the squared worst-case error, the exact
CRT prime-pair decomposition of the squared randomised error of the
random-prime fixed-vector algorithm (both take the mean of a `cbc.CbcState`,
the record that the construction keeps for every prime and prime pair), the
good-set thresholds, computed once per prime, params and bounds, and the
explicit theoretical error bound of the constructive theorem.

`eran_report` is the one term loop of e_ran, over the mean of every prime's
and pair's record.  `construct_fixed_vector` runs it over the means its search
kept at all d components, and the vector carries that report;
`randomized_error_sq_fixed` returns it under the same params and otherwise
runs the loop over records built anew from the residues.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from .cbc import CbcState, residue_row
from .kernels import DomainError, KorobovSpaceParams, mu_quantity
from .primes import C_PRIME, ResidueVector

_CLAMP_FLOOR = -1e-12

# Largest n with (n - 1)^2 < 2^63, so that k z (k, z < n) fits in int64.
_MAX_POINTS = 3_037_000_499


@dataclass(frozen=True)
class ErrorReport:
    """Squared error value with the decomposition terms that produced it.

    decomposition is read-only, as a report may be returned more than once;
    clamped counts the terms that round-off put below 0 and that were set to 0.
    """

    squared_error: float
    decomposition: Mapping[str, float]
    clamped: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "decomposition", MappingProxyType(dict(self.decomposition)))

    def __reduce__(self):
        # a mappingproxy does not pickle or copy; its items do
        return ErrorReport, (self.squared_error, dict(self.decomposition), self.clamped)

    @property
    def error(self) -> float:
        return math.sqrt(self.squared_error)


@dataclass(frozen=True)
class BoundParams:
    """Relaxation parameter and lambda-grid for good-set thresholds."""

    tau: float
    lambda_grid: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "lambda_grid", tuple(self.lambda_grid))  # hashable
        if not 0.0 < self.tau < 1.0:
            raise DomainError(f"tau must lie in (0, 1), got {self.tau}")
        if not self.lambda_grid:
            raise DomainError("lambda grid must be nonempty")


def default_lambda_grid(alpha: int) -> tuple[float, ...]:
    """32 equispaced points on [1/2, alpha - 0.01]."""
    return tuple(np.linspace(0.5, alpha - 0.01, 32))


_GOLDEN_INV = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_STEPS = 20


def _grid_infimum(fun: Callable[[float], float], grid: Sequence[float]) -> float:
    """Grid minimum with golden-section refinement around the grid argmin."""
    vals = [fun(lam) for lam in grid]
    i = int(np.argmin(vals))
    best = vals[i]
    if len(grid) == 1:
        return best
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, len(grid) - 1)]
    x1 = b - _GOLDEN_INV * (b - a)
    x2 = a + _GOLDEN_INV * (b - a)
    f1, f2 = fun(x1), fun(x2)
    for _ in range(_GOLDEN_STEPS):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN_INV * (b - a)
            f1 = fun(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN_INV * (b - a)
            f2 = fun(x2)
    return min(best, f1, f2)


def _error_sq(mean):
    """E(m) = mean - 1, of a record's products, and whether round-off below 0 was
    clamped to 0; arrays of both, one entry per vector, for an array of means."""
    value = mean - 1.0
    if np.any(value < _CLAMP_FLOOR):
        raise ArithmeticError(
            f"squared error {np.min(value)} below the roundoff clamp floor"
        )
    clamped = value < 0.0
    if np.ndim(value):
        return np.where(clamped, 0.0, value), clamped
    return (0.0, True) if clamped else (value, False)


def _check_points(n: int) -> None:
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if n > _MAX_POINTS:
        raise DomainError(f"n = {n} exceeds {_MAX_POINTS}: k z mod n would overflow int64")


def worst_case_errors_sq(
    n: int, z: np.ndarray, params: KorobovSpaceParams
) -> np.ndarray:
    """Squared worst-case error of the n-point rule with each row of the int64
    array z[r, j] as its generating vector, the rows folded together into one
    `CbcState` modulo n (see `worst_case_error_sq`)."""
    _check_points(n)
    if z.shape[-1] != params.d:
        raise DomainError(f"vector has {z.shape[-1]} components, params.d = {params.d}")
    return _error_sq(CbcState((n,), params, zip(z.T[:, :, None])).mean())[0]


def worst_case_error_sq(
    n: int, z: Sequence[int], params: KorobovSpaceParams
) -> float:
    """Squared worst-case error of the n-point rule with integer generating vector z.

    Point formula: -1 + (1/n) sum_k prod_j (1 + gamma_j^2 sigma_alpha(k z_j / n)),
    the products folded one component at a time into a `CbcState` modulo n and
    summed by `kernels.exact_sum`, bit for bit math.fsum.  The one-row case of
    `worst_case_errors_sq`, with z reduced modulo n first.
    """
    _check_points(n)
    return float(worst_case_errors_sq(n, residue_row(n, z), params)[0])


def eran_report(
    primes: Sequence[int], mean: Callable[..., float]
) -> ErrorReport:
    """[e_ran]^2 from mean(p), the mean of the products of every prime's record, and
    mean(p, q) of every pair p < q, over all d components (see `randomized_error_sq_fixed`)."""
    L = len(primes)
    scale = 1.0 / (L * L)
    terms: dict[str, float] = {}
    clamped = 0
    for p in primes:
        e_p, flag = _error_sq(mean(p))
        terms[f"p={p}"] = scale * e_p
        clamped += flag
    for p, q in combinations(primes, 2):
        e_pq, flag = _error_sq(mean(p, q))
        terms[f"pq={p}x{q}"] = 2.0 * scale * e_pq
        clamped += flag
    return ErrorReport(math.fsum(terms.values()), terms, clamped)


def randomized_error_sq_fixed(
    v: ResidueVector, params: KorobovSpaceParams
) -> ErrorReport:
    """Exact squared randomised error of the random-prime fixed-vector rule.

    Squaring the prime-averaged dual-lattice indicator and merging the two
    congruence conditions via the CRT collapses the infinite frequency sum
    into lattice-rule error evaluations at each prime and each prime pair:

        [e_ran]^2 = (1/L^2) [ sum_p E(p) + 2 sum_{p<q} E(p q) ]

    with E(m) the squared worst-case error of the m-point rule.  E(p q) is
    summed over the separable Z_p x Z_q grid of a `CbcState` with moduli
    (p, q), which the CRT maps onto the points of the pq-point rule.  Terms
    are accumulated in sorted prime(-pair) order for bit-reproducibility;
    clamped ones are counted.  A vector from `construct_fixed_vector` carries
    the report from the means of the construction's own records; under the same
    params it is returned as is, and it is bit for bit the one built here.
    """
    primes = v.pool.primes
    if not primes:
        raise DomainError("prime pool is empty")
    if v.d != params.d:
        raise DomainError(f"vector has {v.d} components, params.d = {params.d}")
    if v.eran is not None and v.eran[0] == params:
        return v.eran[1]
    residues = dict(zip(primes, v.residues))
    return eran_report(
        primes, lambda *moduli: CbcState(moduli, params, zip(*(residues[m] for m in moduli))).mean()
    )


# ---------------------------------------------------------------------------
# Good-set thresholds and theoretical bounds
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1024)
def good_set_threshold(
    p: int, params: KorobovSpaceParams, bounds: BoundParams
) -> float:
    """Worst-case-error threshold defining the good set of generating vectors.

    inf over lambda of (2 mu(lambda) / ((1 - tau) p))^lambda, taken over the
    lambda-grid with golden-section refinement; computed once per (p, params, bounds).
    """
    def fun(lam: float) -> float:
        return (2.0 * mu_quantity(params, lam) / ((1.0 - bounds.tau) * p)) ** lam

    return _grid_infimum(fun, bounds.lambda_grid)


def theorem_constant(tau: float, lam: float) -> float:
    """Explicit constant of the constructive randomised-error bound."""
    if not 0.0 < tau < 1.0:
        raise DomainError(f"tau must lie in (0, 1), got {tau}")
    one_m = 1.0 - tau
    return (
        2.0 ** (4 * lam) / (C_PRIME * one_m ** (2 * lam))
        + 2.0 ** (4 * lam + 1) / (tau * one_m ** (2 * lam))
        + 2.0 ** (4 * lam) * (1.0 + tau) / (tau * one_m ** (2 * lam - 1))
    )


def theorem_bound_eran(
    n: int, params: KorobovSpaceParams, tau: float, lam: float
) -> float:
    """Randomised-error bound (C ln n)^(1/2) / n^(lambda + 1/2) * mu(lambda)^lambda."""
    if not (0.5 <= lam < params.alpha):
        raise DomainError(f"lambda must lie in [1/2, alpha), got {lam}")
    c = theorem_constant(tau, lam)
    return (
        math.sqrt(c * math.log(n))
        / n ** (lam + 0.5)
        * mu_quantity(params, lam) ** lam
    )


def theorem_bound_min(
    n: int, params: KorobovSpaceParams, bounds: BoundParams
) -> float:
    """Minimum of the constructive bound over the lambda-grid (with refinement)."""
    return _grid_infimum(
        lambda lam: theorem_bound_eran(n, params, bounds.tau, lam),
        bounds.lambda_grid,
    )

