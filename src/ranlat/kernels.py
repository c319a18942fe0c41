"""Scalar numeric kernels for weighted Korobov-space computations.

Provides the periodic Bernoulli kernel sigma_alpha, the correctly rounded
sum exact_sum, Riemann zeta values for real arguments > 1 and the
mu-quantity (the weighted sum of r_alpha^{-1/lambda} over all nonzero
frequencies h, with r_alpha(h) = prod_{j in supp(h)} |h_j|^alpha / gamma_j,
which has a closed-form product for product weights).

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
import numpy as np

SUPPORTED_ALPHA = (1, 2, 3)

_TWO_PI = 2.0 * math.pi


class UnsupportedSmoothnessError(ValueError):
    """Raised when the smoothness parameter is outside the supported set {1, 2, 3}."""


class DomainError(ValueError):
    """Raised when a real parameter lies outside its admissible interval."""


@dataclass(frozen=True)
class KorobovSpaceParams:
    """Parameters of a weighted Korobov space with product weights.

    Attributes
    ----------
    d : int
        Dimension, >= 1; any integer type, stored as an int.
    alpha : int
        Integer smoothness, one of {1, 2, 3}; stored as an int.
    gamma : tuple of float
        Positive product weights gamma_1..gamma_d, stored as a tuple of floats.
    """

    d: int
    alpha: int
    gamma: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", operator.index(self.d))
        object.__setattr__(self, "alpha", operator.index(self.alpha))
        if self.d < 1:
            raise DomainError(f"dimension must be >= 1, got {self.d}")
        if self.alpha not in SUPPORTED_ALPHA:
            raise UnsupportedSmoothnessError(
                f"smoothness alpha must be in {SUPPORTED_ALPHA}, got {self.alpha}"
            )
        if len(self.gamma) != self.d:
            raise DomainError(
                f"need {self.d} weights, got {len(self.gamma)}"
            )
        for g in self.gamma:
            # compares an int exactly, where float(g) would overflow
            if not 0.0 < g <= sys.float_info.max:
                raise DomainError(f"weights must be positive and finite, got {g}")
        object.__setattr__(self, "gamma", tuple(float(g) for g in self.gamma))


def poly_weights(d: int, c: float) -> tuple[float, ...]:
    """Product weights gamma_j = j^-c for j = 1..d."""
    return tuple(float(j) ** (-c) for j in range(1, d + 1))


# Bernoulli polynomials B_2, B_4, B_6 with exact rational coefficients,
# highest degree first (Horner order).
_BERNOULLI_COEFFS = {
    1: (1.0, -1.0, 1.0 / 6.0),
    2: (1.0, -2.0, 1.0, 0.0, -1.0 / 30.0),
    3: (1.0, -3.0, 5.0 / 2.0, 0.0, -1.0 / 2.0, 0.0, 1.0 / 42.0),
}

# (-1)^(alpha+1) (2 pi)^(2 alpha) / (2 alpha)!
_SIGMA_SCALE = {
    a: (-1.0) ** (a + 1) * _TWO_PI ** (2 * a) / math.factorial(2 * a)
    for a in SUPPORTED_ALPHA
}


def sigma_alpha(x, alpha: int):
    """Periodic kernel sum_{h != 0} exp(2 pi i h x) / |h|^(2 alpha).

    For integer alpha this equals
    (-1)^(alpha+1) (2 pi)^(2 alpha) / (2 alpha)! * B_{2 alpha}(x mod 1).
    Accepts scalars or ndarrays; vectorised over x.
    """
    x = np.asarray(x, dtype=float)
    # x - floor(x) is x % 1.0 bit for bit (both round the real x - floor(x)
    # once), at a fraction of np.remainder's cost.
    acc = sigma_reduced(x - np.floor(x), alpha)
    if acc.ndim == 0:
        return float(acc)
    return acc


def sigma_reduced(t: np.ndarray, alpha: int) -> np.ndarray:
    """sigma_alpha(t) of a float array t already in [0, 1), bit for bit, with no
    reduction: Horner from t + c_1, as 1.0 * t is t."""
    if alpha not in _BERNOULLI_COEFFS:
        raise UnsupportedSmoothnessError(
            f"sigma_alpha supports alpha in {SUPPORTED_ALPHA}, got {alpha}"
        )
    _, c1, *rest = _BERNOULLI_COEFFS[alpha]
    acc = t + c1
    for c in rest:
        acc *= t
        acc += c
    acc *= _SIGMA_SCALE[alpha]
    return acc


# Below this many entries math.fsum of the list beats the extraction's fixed
# cost of about a dozen numpy calls (crossover measured at 500-800 entries).
EXACT_SUM_CUTOFF = 640
# Entries per extraction block: its two scratch buffers are the only
# temporaries of exact_sum, at most 2 * 8 * _EXTRACT_BLOCK bytes.
_EXTRACT_BLOCK = 16384


def exact_sum(x) -> float:
    """math.fsum(x) of a 1-d array, bit for bit, by error-free extraction
    (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31 (2008)).

    A block of b entries with |x_i| < 2^e splits into q = (sigma + x) - sigma
    and the remainder x - q, both exact, with sigma = 2^(e + k + 1) and
    b + 2 <= 2^k.  Every q is a multiple of 2^-53 sigma of size at most
    2^-(k+1) sigma, so np.sum adds a level exactly in any order.  Levels repeat
    on the remainder until it is zero, and math.fsum of the level sums,
    correctly rounded, is math.fsum(x).  Short, all-zero and non-finite
    arrays, and any whose partial sums could pass 2^1022, are summed by
    math.fsum itself, which also gives its exceptions.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    if n < EXACT_SUM_CUTOFF:
        return math.fsum(x.tolist())
    top = max(x.max(), -x.min())  # NaN if any entry is NaN
    if not 0.0 < top < math.ldexp(1.0, 1022 - (n + 1).bit_length()):
        return math.fsum(x.tolist())
    blocks = -(-n // _EXTRACT_BLOCK)
    size = -(-n // blocks)  # blocks of equal size, at most _EXTRACT_BLOCK entries
    k = (size + 1).bit_length()
    level, rest = np.empty(size), np.empty(size)
    sums = []
    for start in range(0, n, size):
        block = x[start:start + size]
        q, rem = level[:len(block)], rest[:len(block)]
        bound = top
        while bound:
            sigma = math.ldexp(1.0, math.frexp(bound)[1] + k + 1)
            np.add(block, sigma, out=q)
            q -= sigma
            sums.append(float(q.sum()))
            block = np.subtract(block, q, out=rem)
            bound = max(rem.max(), -rem.min())
    return math.fsum(sums)


# Bernoulli numbers B_2, B_4, ... used by the Euler-Maclaurin tail.
_BERNOULLI_NUMBERS = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
)

_ZETA_CUTOFF = 64


def zeta(s: float) -> float:
    """Riemann zeta for real s > 1: direct series plus Euler-Maclaurin tail.

    Accurate to ~1e-14 relative over the arguments used here (s >= 1.005).
    """
    if not s > 1.0:
        raise DomainError(f"zeta requires s > 1, got {s}")
    n = _ZETA_CUTOFF
    head = math.fsum(k ** (-s) for k in range(1, n + 1))
    tail = n ** (1.0 - s) / (s - 1.0) - 0.5 * n ** (-s)
    # Correction terms B_2i/(2i)! * s(s+1)...(s+2i-2) * n^(-s-2i+1)
    rising = s
    for i, b in enumerate(_BERNOULLI_NUMBERS, start=1):
        tail += b / math.factorial(2 * i) * rising * n ** (-s - 2 * i + 1)
        rising *= (s + 2 * i - 1) * (s + 2 * i)
    return head + tail


def mu_quantity(params: KorobovSpaceParams, lam: float) -> float:
    """Sum of r_alpha^{-1/lambda} over all nonzero frequencies in d dimensions.

    For product weights this is prod_j (1 + gamma_j^{1/lambda} 2 zeta(alpha/lambda)) - 1.
    Requires 1/2 <= lambda < alpha.
    """
    if not (0.5 <= lam < params.alpha):
        raise DomainError(
            f"lambda must lie in [1/2, alpha={params.alpha}), got {lam}"
        )
    z2 = 2.0 * zeta(params.alpha / lam)
    log_terms = [math.log1p(g ** (1.0 / lam) * z2) for g in params.gamma]
    return math.expm1(math.fsum(log_terms))
