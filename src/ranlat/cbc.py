"""Point products of rank-1 lattice rules and the component-by-component search.

`CbcState` keeps the running per-point products P(k) = prod_{j<s} (1 + gamma_j^2
sigma_alpha(k z_j / m)) of the rule modulo m, for one prime modulus or, by
the CRT, a pair of them, so that the squared-error increment theta of every
candidate residue comes out of a single Rader convolution sweep.  As sigma_alpha
is even, so is P: a record stores the rows k_1 <= m_1/2 of its first axis, and
sigma is evaluated once per class +-c.
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass, field
from typing import Iterable

import numpy as np

from .fftconv import rader_cbc_kernel
from .kernels import DomainError, KorobovSpaceParams, sigma_alpha
from .primes import residue_perm

# Relative tolerance under which two criterion values count as tied.  Exact
# mathematical ties other than theta's z, p - z (bit-equal by construction)
# differ only by round-off, and round-off must not decide the residue: tied
# values resolve to the smaller index.
TIE_RTOL = 1e-9


def sigma_grid(moduli: tuple[int, ...], alpha: int) -> np.ndarray:
    """Read-only grid[a_1, a_2] = sigma_alpha(min(c, m - c) / m), c = (a_1 m / m_1 + a_2 m / m_2)
    mod m, on the stored rows a_1 <= m_1/2 of the CRT grid of m = prod(moduli)."""
    m = math.prod(moduli)
    c = np.arange(moduli[0] // 2 + 1, dtype=np.int64) * (m // moduli[0])
    if len(moduli) == 2:
        c = np.add.outer(c, np.arange(0, m, moduli[0], dtype=np.int64)) % m
    grid = sigma_alpha(np.minimum(c, m - c, out=c) / m, alpha)
    grid.flags.writeable = False
    return grid


# Pair grids are not cached: the rebuild policy exists to avoid holding them.
single_sigma_grid = functools.lru_cache(maxsize=1024)(sigma_grid)


@dataclass
class CbcState:
    """Running point products of the rank-1 rule modulo m = prod(moduli).

    The moduli are one modulus (p,) or a coprime prime pair (q, p).  The CRT
    maps Z_m onto Z_{m_1} x Z_{m_2}, so the products live on that grid:
    P_products[k_1, k_2] = prod_j (1 + gamma_j^2 sigma_alpha(k_1 z_1j / m_1 + k_2 z_2j / m_2))
    over the dims components folded in so far, `prefix` first.  Only the rows
    k_1 <= m_1/2 are stored; row m_1 - k_1 is row k_1 at the negated residues of
    the other axis.  grid is `sigma_grid`, so the point of index k sits at
    grid[k_1 z_1 mod m_1, k_2 z_2 mod m_2], folded alike: every lookup is one
    permutation (`residue_perm`) per axis.  Only the methods below read this
    layout: `mean` and the sweeps of the construction's criteria.
    """

    moduli: tuple[int, ...]
    params: KorobovSpaceParams
    prefix: InitVar[Iterable[tuple[int, ...]]]
    dims: int = field(init=False)
    grid: np.ndarray = field(init=False)
    P_products: np.ndarray = field(init=False)

    def __post_init__(self, prefix: Iterable[tuple[int, ...]]) -> None:
        if len(self.moduli) not in (1, 2):
            raise DomainError(f"a record has moduli (p,) or (q, p), got {self.moduli}")
        grids = single_sigma_grid if len(self.moduli) == 1 else sigma_grid
        self.grid = grids(self.moduli, self.params.alpha)
        self.dims = 0
        self.P_products = np.ones(self.grid.shape)
        for z in prefix:
            self.extend(*z)

    def sigma_rows(self, *z: int) -> np.ndarray:
        """grid at the stored points: [k_1, k_2] holds grid[k_1 z_1 mod m_1, k_2 z_2 mod m_2],
        a row a > m_1/2 read as row m_1 - a at the negated residues; a missing z_2 reads as 1."""
        m = self.moduli[0]
        r = np.arange(len(self.grid), dtype=np.int64) * (z[0] % m) % m
        rows = self.grid.take(np.minimum(r, m - r), axis=0)
        if len(self.moduli) == 2:
            if len(z) == 2:
                rows = rows.take(residue_perm(self.moduli[1], z[1]), axis=1)
            fold = np.flatnonzero(r > m // 2)
            rows[fold, 1:] = rows[fold, :0:-1]
        return rows

    def extend(self, *z: int) -> None:
        """Fold the next component, one residue per modulus, into the products."""
        self.P_products *= 1.0 + self.params.gamma[self.dims] ** 2 * self.sigma_rows(*z)
        self.dims += 1

    def mean(self) -> float:
        """Mean of P over all m points by one fsum: a stored row that is not its
        own mirror stands for two, and doubling is exact, so this is bit for bit
        the fsum over the full record."""
        weighted = 2.0 * self.P_products
        own = [0, -1] if self.moduli[0] % 2 == 0 else [0]  # the rows that are their own mirror
        weighted[own] = self.P_products[own]
        return math.fsum(weighted.ravel()) / math.prod(self.moduli)

    def sweep(self, weights: np.ndarray) -> np.ndarray:
        """S[z] = sum_{k in Z_p} sigma_alpha(k z / p) weights[k] for every z in Z_p, for
        even weights stored on k <= p/2 (one prime)."""
        (p,) = self.moduli
        return rader_cbc_kernel(p, self.grid, weights)

    def cross_sweep(self, zq: int) -> np.ndarray:
        """S[z] = sum_{l in Z_q, k in Z_p} sigma_alpha(l zq / q + k z / p) P(l, k) for every
        z in Z_p, of the pair (q, p): row l stands for l and q - l, so rows l > 0 count twice."""
        v = self.sigma_rows(zq)
        v[1:] *= 2.0
        return rader_cbc_kernel(self.moduli[1], v, self.P_products)

    def row_sums(self, z: int) -> np.ndarray:
        """sum_{l in Z_q} P(k z mod p, l) for k <= p/2, of the pair (p, q)."""
        p = self.moduli[0]
        r = np.arange(p // 2 + 1, dtype=np.int64) * z % p
        return self.P_products.sum(axis=1)[np.minimum(r, p - r)]


def theta_all(state: CbcState) -> np.ndarray:
    """Squared-error increment theta_s(z) for every candidate z in Z_p.

    theta_s(z) = (gamma_s^2 / p) sum_k sigma_alpha(k z / p) P(k), evaluated
    for all z at once through the Rader convolution sweep.
    """
    return state.params.gamma[state.dims] ** 2 / state.moduli[0] * state.sweep(state.P_products)


def argmin_first(values: np.ndarray) -> int:
    """Index of the minimum, ties broken by smallest index.

    Values within relative TIE_RTOL of the minimum count as tied, so exact
    mathematical ties survive the differing round-off of the FFT and
    naive evaluation paths.
    """
    v = np.asarray(values)
    best = v.min()
    return int(np.flatnonzero(v <= best + TIE_RTOL * abs(best))[0])


def candidate_set(theta: np.ndarray, tau: float) -> np.ndarray:
    """Indices of the ceil(tau p) candidates with the smallest theta.

    Values within relative TIE_RTOL of the ceil(tau p)-th smallest count as
    tied with it and fill the set in index order, so round-off cannot choose
    between the members of a tie.
    """
    if not 0.0 < tau < 1.0:
        raise DomainError(f"tau must lie in (0, 1), got {tau}")
    m = math.ceil(tau * len(theta))
    edge = np.sort(theta)[m - 1]
    tol = TIE_RTOL * abs(edge)
    below = np.flatnonzero(theta < edge - tol)
    tied = np.flatnonzero(np.abs(theta - edge) <= tol)
    return np.concatenate([below, tied[: m - len(below)]])


def cbc_construct(p: int, params: KorobovSpaceParams) -> tuple[int, ...]:
    """Fast CBC vector for the p-point rule: z_1 = 1, then per-dimension argmin.

    Ties in the theta sweep are broken by the smallest candidate residue.
    """
    z = [1]
    state = CbcState((p,), params, zip(z))
    for _ in range(2, params.d + 1):
        z.append(argmin_first(theta_all(state)))
        state.extend(z[-1])
    return tuple(z)
