"""Exact error evaluation for rank-1 lattice rules in weighted Korobov spaces.

Contains the point formula for the squared worst-case error, the exact
CRT prime-pair decomposition of the squared randomised error of the
random-prime fixed-vector algorithm (both take the mean of a `cbc.CbcState`,
the record that the construction keeps for every prime and prime pair), the
good-set thresholds, and the explicit theoretical error bound of the
constructive theorem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .cbc import CbcState
from .kernels import DomainError, KorobovSpaceParams, mu_quantity
from .primes import C_PRIME, ResidueVector

_CLAMP_FLOOR = -1e-12

# Largest n with (n - 1)^2 < 2^63, so that k z (k, z < n) fits in int64.
_MAX_POINTS = 3_037_000_499


@dataclass(frozen=True)
class ErrorReport:
    """Squared error value with the decomposition terms that produced it.

    clamped counts the terms that round-off put below 0 and that were set to 0.
    """

    squared_error: float
    decomposition: dict[str, float]
    clamped: int

    @property
    def error(self) -> float:
        return math.sqrt(self.squared_error)


@dataclass(frozen=True)
class BoundParams:
    """Relaxation parameter and lambda-grid for good-set thresholds."""

    tau: float
    lambda_grid: tuple[float, ...]

    def __post_init__(self) -> None:
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


def _error_sq(state: CbcState) -> tuple[float, bool]:
    """E(m) = mean of the record's products - 1, and whether round-off below 0 was clamped to 0."""
    value = state.mean() - 1.0
    if value < 0.0:
        if value < _CLAMP_FLOOR:
            raise ArithmeticError(
                f"squared error {value} below the roundoff clamp floor"
            )
        return 0.0, True
    return value, False


def worst_case_error_sq(
    n: int, z: Sequence[int], params: KorobovSpaceParams
) -> float:
    """Squared worst-case error of the n-point rule with generating vector z.

    Point formula: -1 + (1/n) sum_k prod_j (1 + gamma_j^2 sigma_alpha(k z_j / n)),
    the products folded one component at a time into a `CbcState` modulo n and
    summed with compensated (fsum) accumulation.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if len(z) != params.d:
        raise DomainError(f"vector has {len(z)} components, params.d = {params.d}")
    if n > _MAX_POINTS:
        raise DomainError(f"n = {n} exceeds {_MAX_POINTS}: k z mod n would overflow int64")
    return _error_sq(CbcState((n,), params, zip(z)))[0]


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
    clamped ones are counted.
    """
    primes = v.pool.primes
    if not primes:
        raise DomainError("prime pool is empty")
    if v.d != params.d:
        raise DomainError(f"vector has {v.d} components, params.d = {params.d}")
    L = len(primes)
    scale = 1.0 / (L * L)
    terms: dict[str, float] = {}
    clamped = 0
    for p, res in zip(primes, v.residues):
        e_p, flag = _error_sq(CbcState((p,), params, zip(res)))
        terms[f"p={p}"] = scale * e_p
        clamped += flag
    for (p, res_p), (q, res_q) in combinations(zip(primes, v.residues), 2):
        e_pq, flag = _error_sq(CbcState((p, q), params, zip(res_p, res_q)))
        terms[f"pq={p}x{q}"] = 2.0 * scale * e_pq
        clamped += flag
    return ErrorReport(math.fsum(terms.values()), terms, clamped)


# ---------------------------------------------------------------------------
# Good-set thresholds and theoretical bounds
# ---------------------------------------------------------------------------

def good_set_threshold(
    p: int, params: KorobovSpaceParams, bounds: BoundParams
) -> float:
    """Worst-case-error threshold defining the good set of generating vectors.

    inf over lambda of (2 mu(lambda) / ((1 - tau) p))^lambda, taken over the
    lambda-grid with golden-section refinement.
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

