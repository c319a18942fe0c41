"""Exact error evaluation for rank-1 lattice rules in weighted Korobov spaces.

Contains the point formula for the squared worst-case error, the exact
CRT prime-pair decomposition of the squared randomised error of the
random-prime fixed-vector algorithm (both read the point products of
`cbc.CbcState`, the half of an even record that the construction keeps for
every prime and prime pair), truncated dual-lattice oracles used for
cross-validation, the good-set thresholds, and the explicit theoretical
error bound of the constructive theorem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .cbc import CbcState
from .kernels import DomainError, KorobovSpaceParams, mu_quantity, zeta
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


def _error_sq(products: np.ndarray, m0: int) -> tuple[float, bool]:
    """E(m) = fsum(P) / m - 1 for the even record P stored as products (rows 0..m0 // 2;
    the others stand for k and m0 - k, and doubling them is exact, so this is fsum
    over the full P bit for bit), and whether round-off below 0 was clamped to 0."""
    weighted = 2.0 * products
    own = [0, -1] if m0 % 2 == 0 else [0]  # the rows that are their own mirror
    weighted[own] = products[own]
    value = math.fsum(weighted.ravel()) / (m0 * products[0].size) - 1.0
    if value < 0.0:
        if value < _CLAMP_FLOOR:
            raise ArithmeticError(
                f"squared error {value} below the roundoff clamp floor"
            )
        return 0.0, True
    return value, False


def point_products(n: int, z: Sequence[int], params: KorobovSpaceParams) -> np.ndarray:
    """prod_j (1 + gamma_j^2 sigma_alpha(k z_j / n)) for k = 0..n // 2; P(n - k) = P(k).

    The components are folded one by one into a `CbcState` modulo n, the
    running product the CBC search keeps.
    """
    if len(z) != params.d:
        raise DomainError(f"vector has {len(z)} components, params.d = {params.d}")
    if n > _MAX_POINTS:
        raise DomainError(f"n = {n} exceeds {_MAX_POINTS}: k z mod n would overflow int64")
    return CbcState((n,), params, zip(z)).P_products


def worst_case_error_sq(
    n: int, z: Sequence[int], params: KorobovSpaceParams
) -> float:
    """Squared worst-case error of the n-point rule with generating vector z.

    Point formula: -1 + (1/n) sum_k prod_j (1 + gamma_j^2 sigma_alpha(k z_j / n)),
    summed with compensated (fsum) accumulation.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return _error_sq(point_products(n, z, params), n)[0]


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
    L = len(primes)
    scale = 1.0 / (L * L)
    terms: dict[str, float] = {}
    clamped = 0
    for p, res in zip(primes, v.residues):
        e_p, flag = _error_sq(point_products(p, res, params), p)
        terms[f"p={p}"] = scale * e_p
        clamped += flag
    for (p, res_p), (q, res_q) in combinations(zip(primes, v.residues), 2):
        e_pq, flag = _error_sq(CbcState((p, q), params, zip(res_p, res_q, strict=True)).P_products, p)
        terms[f"pq={p}x{q}"] = 2.0 * scale * e_pq
        clamped += flag
    return ErrorReport(math.fsum(terms.values()), terms, clamped)


def omega_weight(h: Sequence[int], v: ResidueVector) -> float:
    """Fraction of pool primes p with h . z^(p) = 0 (mod p)."""
    hits = 0
    for p, res in zip(v.pool.primes, v.residues):
        if sum(hj * zj for hj, zj in zip(h, res, strict=True)) % p == 0:
            hits += 1
    return hits / len(v.pool.primes)


# ---------------------------------------------------------------------------
# Truncated dual-lattice oracles (cross-validation only)
# ---------------------------------------------------------------------------

def _residue_weight_table(
    n: int, zj: int, gamma: float, alpha: int, hmax: int
) -> np.ndarray:
    """a[m] = sum over |h| <= hmax with h zj = m (mod n) of r_alpha factor."""
    h = np.arange(-hmax, hmax + 1, dtype=np.int64)
    vals = np.empty(len(h))
    nz = h != 0
    vals[~nz] = 1.0
    vals[nz] = gamma ** 2 / np.abs(h[nz]).astype(float) ** (2 * alpha)
    table = np.zeros(n)
    np.add.at(table, (h * (zj % n)) % n, vals)
    return table


def worst_case_error_sq_truncated(
    n: int, z: Sequence[int], params: KorobovSpaceParams, hmax: int
) -> float:
    """Dual-lattice sum over the box |h_j| <= hmax with h . z = 0 (mod n).

    Exact enumeration of the truncated sum via residue-class accumulation;
    independent of the Bernoulli-kernel point formula.
    """
    acc = _residue_weight_table(n, int(z[0]), params.gamma[0], params.alpha, hmax)
    for j in range(1, params.d):
        nxt = _residue_weight_table(n, int(z[j]), params.gamma[j], params.alpha, hmax)
        combined = np.zeros(n)
        idx = np.arange(n)
        for m in range(n):
            combined[(m + idx) % n] += acc[m] * nxt
        acc = combined
    return float(acc[0]) - 1.0  # remove the h = 0 term


def dual_tail_bound(params: KorobovSpaceParams, hmax: int) -> float:
    """Upper bound on the dual sum over frequencies outside the |h_j| <= hmax box.

    Drops the congruence condition: sum over all h with some |h_j| > hmax of
    r_alpha^{-2}(h) = full product minus in-box product.
    """
    s = 2 * params.alpha
    full = 1.0
    inbox = 1.0
    head = math.fsum(k ** (-float(s)) for k in range(1, hmax + 1))
    for g in params.gamma:
        full *= 1.0 + g * g * 2.0 * zeta(float(s))
        inbox *= 1.0 + g * g * 2.0 * head
    return full - inbox


def randomized_error_sq_truncated(
    v: ResidueVector, params: KorobovSpaceParams, hmax: int
) -> float:
    """Brute-force truncated sum of omega_n^2(h) r_alpha^{-2}(h) over the box.

    Intended for small d only (cost (2 hmax + 1)^d).
    """
    d = params.d
    primes = v.pool.primes
    L = len(primes)
    h1 = np.arange(-hmax, hmax + 1, dtype=np.int64)
    grids = np.meshgrid(*([h1] * d), indexing="ij")
    H = np.stack([g.ravel() for g in grids], axis=1)  # (m, d)
    rinv2 = np.ones(len(H))
    for j in range(d):
        hj = np.abs(H[:, j]).astype(float)
        factor = np.ones(len(H))
        nz = hj != 0
        factor[nz] = params.gamma[j] ** 2 / hj[nz] ** (2 * params.alpha)
        rinv2 *= factor
    omega = np.zeros(len(H))
    for p, res in zip(primes, v.residues):
        dot = np.zeros(len(H), dtype=np.int64)
        for j in range(d):
            dot += H[:, j] * res[j]
        omega += (dot % p == 0).astype(float)
    omega /= L
    mask = np.any(H != 0, axis=1)
    return float(np.sum(omega[mask] ** 2 * rinv2[mask]))


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


def sum_hs_nonzero(params: KorobovSpaceParams, s: int, lam: float) -> float:
    """sum over h in Z^s with h_s != 0 of r_alpha^{-1/lambda}(h), product weights."""
    z2 = 2.0 * zeta(params.alpha / lam)
    out = params.gamma[s - 1] ** (1.0 / lam) * z2
    for j in range(s - 1):
        out *= 1.0 + params.gamma[j] ** (1.0 / lam) * z2
    return out


def component_threshold(
    p: int, s: int, params: KorobovSpaceParams, bounds: BoundParams
) -> float:
    """Theta threshold defining the good set of s-th components.

    inf over lambda of (2 S_s(lambda) / ((1 - tau) p))^(2 lambda) with
    S_s the sum of r_alpha^{-1/lambda} over frequencies with h_s != 0.
    """
    if not 1 <= s <= params.d:
        raise DomainError(f"component index must be in [1, {params.d}], got {s}")

    def fun(lam: float) -> float:
        return (
            2.0 * sum_hs_nonzero(params, s, lam) / ((1.0 - bounds.tau) * p)
        ) ** (2.0 * lam)

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

