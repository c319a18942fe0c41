"""Prime pools, primitive roots and the residue representation of generating vectors.

The budget-n prime pool is the set of primes in (n/2, n].  A generating
vector modulo N = prod(p in pool) is stored as per-prime residue tuples,
never as its huge integer representative.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .errors import ErrorReport
    from .kernels import KorobovSpaceParams


# Lower-bound constant of the pool size: |P_n| > C_PRIME n / ln n.
C_PRIME = 0.23


class NotPrimeError(ValueError):
    """Raised when an argument expected to be prime is composite."""


class BudgetTooSmallError(ValueError):
    """Raised when the budget n is too small to yield a nonempty prime pool."""


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit via the sieve of Eratosthenes."""
    if limit < 2:
        return []
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, int(limit ** 0.5) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return [int(p) for p in np.flatnonzero(mask)]


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    """Primality by trial division, the factoring `primitive_root` runs on p - 1."""
    return n >= 2 and _prime_factors(n) == [n]


def primitive_root(p: int) -> int:
    """Smallest generator of the multiplicative group modulo prime p."""
    if not is_prime(p):
        raise NotPrimeError(f"primitive_root requires a prime, got {p}")
    if p == 2:
        return 1
    factors = _prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise AssertionError(f"no primitive root found for prime {p}")  # unreachable


@dataclass(frozen=True)
class PrimePool:
    """Primes in (n/2, n] for budget n."""

    n: int
    primes: tuple[int, ...]


def build_prime_pool(n: int) -> PrimePool:
    """Complete sorted pool of primes in (n/2, n]."""
    if n < 4:
        raise BudgetTooSmallError(f"budget must be >= 4 to guarantee a prime in (n/2, n], got {n}")
    primes = tuple(p for p in sieve_primes(n) if 2 * p > n)
    # Bertrand's postulate guarantees nonemptiness for n >= 4.
    assert primes, f"empty pool at n={n}"
    assert len(primes) > C_PRIME * n / math.log(n), (
        f"pool size {len(primes)} below the {C_PRIME} n/ln n lower bound at n={n}"
    )
    return PrimePool(n=n, primes=primes)


@dataclass(frozen=True)
class ResidueVector:
    """Generating vector stored as per-prime residue tuples.

    residues[i] holds (z_1, ..., z_d) modulo pool.primes[i], any integers
    stored as a tuple of ints.  Constructed vectors always have z_1 = 1 for
    every prime; synthetic vectors used in tests may violate that, so it is
    not enforced here.  eran is the (params, `errors.ErrorReport`) that
    `construct_fixed_vector` read from its own records, and None on every
    vector built otherwise.
    """

    pool: PrimePool
    residues: tuple[tuple[int, ...], ...]
    d: int
    eran: tuple[KorobovSpaceParams, ErrorReport] | None = field(
        default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", operator.index(self.d))
        object.__setattr__(self, "residues",
                           tuple(tuple(map(operator.index, res)) for res in self.residues))
        if len(self.residues) != len(self.pool.primes):
            raise ValueError("one residue tuple per pool prime required")
        for p, res in zip(self.pool.primes, self.residues):
            if len(res) != self.d:
                raise ValueError(f"residue tuple for p={p} has wrong dimension")
            if any(not (0 <= r < p) for r in res):
                raise ValueError(f"residues for p={p} must lie in [0, {p})")
