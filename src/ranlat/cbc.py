"""Point products of rank-1 lattice rules and the component-by-component search.

`CbcState` keeps the running per-point products P(k) = prod_{j<s} (1 + gamma_j^2
sigma_alpha(k z_j / m)) of the rule modulo m, for one prime modulus or, by
the CRT, a pair of them, so that the squared-error increment theta of every
candidate residue comes out of a single Rader convolution sweep,
`fftconv.rader_cbc_kernel`, as do a pair's cross terms.  As sigma_alpha
is even, so is P: a record stores the rows k_1 <= m_1/2 of its first axis, and
sigma is evaluated once per class +-c.  A state of one modulus may also hold
many vectors at once, one row of products each: `cbc_vectors` takes all the
vectors of one prime through the CBC levels together.  A state of pairs may
hold a run of them, (q_1, p), ..., (q_r, p), stacked on rows: one grid, one
product array and one kernel call per sweep for all of them, each pair's rows
bit for bit its own state's.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import InitVar, dataclass, field
from typing import Iterable

import numpy as np

from .fftconv import rader_cbc_kernel
from .kernels import DomainError, KorobovSpaceParams, exact_sum, sigma_alpha

# Relative tolerance under which two criterion values count as tied.  Exact
# mathematical ties other than theta's z, p - z (bit-equal by construction)
# differ only by round-off, and round-off must not decide the residue: tied
# values resolve to the smaller index.
TIE_RTOL = 1e-9


def sigma_grid(moduli: tuple[int, ...], alpha: int) -> np.ndarray:
    """Read-only grid[a_1, a_2] = sigma_alpha(min(c, m - c) / m), c = (a_1 m / m_1 + a_2 m / m_2)
    mod m, on the stored rows a_1 <= m_1/2 of the CRT grid of m = m_1 m_2 of each pair
    (m_1, m_2) = (q_i, p) of a run (q_1, ..., q_r, p), stacked on rows; of one prime
    (p,), sigma_alpha(a / p) for a <= p/2."""
    if len(moduli) == 1:
        (m,) = moduli
        x = np.arange(m // 2 + 1, dtype=np.int64) / m
    else:
        p = moduli[-1]
        x = np.empty((sum(q // 2 + 1 for q in moduli[:-1]), p))
        row = 0
        for q in moduli[:-1]:
            m = q * p
            c = np.add.outer(np.arange(q // 2 + 1, dtype=np.int64) * p,
                             np.arange(0, m, q, dtype=np.int64))
            # both residues are reduced, so c < 2m and one subtraction reduces it
            np.subtract(c, m, out=c, where=c >= m)
            np.divide(np.minimum(c, m - c, out=c), m, out=x[row : row + len(c)])
            row += len(c)
    grid = sigma_alpha(x, alpha)
    grid.flags.writeable = False
    return grid


def residue_perm(m: int, z, points: int) -> np.ndarray:
    """k z mod m for k = 0..points-1: the residue of the k-th point's coordinate;
    for an int64 column z of shape (R, 1), one row per entry."""
    return np.arange(points, dtype=np.int64) * (z % m) % m


def residue_row(n: int, z) -> np.ndarray:
    """The integers z reduced mod n, as the one row of an int64 array."""
    return np.array([[operator.index(c) % n for c in z]], dtype=np.int64)


def record_bytes(moduli: tuple[int, ...]) -> int:
    """Bytes of a `CbcState`'s sigma grid and products: p // 2 + 1 floats of one prime
    (p,), and q_i // 2 + 1 rows of p floats for each pair of a run (q_1, ..., q_r, p)."""
    if len(moduli) == 1:
        return 2 * 8 * (moduli[0] // 2 + 1)
    return 2 * 8 * sum(q // 2 + 1 for q in moduli[:-1]) * moduli[-1]


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
    layout: `mean` and the sweeps and sums of the construction's criteria.

    A state of one modulus holds R vectors at once if each component of the
    prefix is an int64 column of R residues, shape (R, 1): P_products then has a leading axis,
    P_products[r, k], and every method works row by row, each row bit for bit
    the state of that one vector.  A state of moduli (q_1, ..., q_r, p) holds the
    run of pairs (q_i, p), stacked on rows from `starts[i]` on, and a component
    is one residue per modulus; each pair's rows, sweep, sums and mean are bit for
    bit those of its own state (q_i, p), which is the run of one.
    """

    moduli: tuple[int, ...]
    params: KorobovSpaceParams
    prefix: InitVar[Iterable[tuple[int, ...]]]
    dims: int = field(init=False)
    grid: np.ndarray = field(init=False)
    P_products: np.ndarray = field(init=False)

    def __post_init__(self, prefix: Iterable[tuple[int, ...]]) -> None:
        if not self.moduli:
            raise DomainError("a record has moduli (p,) or a run of pairs (q_1, ..., q_r, p)")
        if len(self.moduli) == 1:
            self.grid = single_sigma_grid(self.moduli, self.params.alpha)
        else:
            self.grid = sigma_grid(self.moduli, self.params.alpha)
            # each pair's stored rows [start, end); each stored row's pair start,
            # its pair's q_i and its index a <= q_i/2 within the pair
            self._counts = [q // 2 + 1 for q in self.moduli[:-1]]
            ends = list(itertools.accumulate(self._counts))
            self._rows = list(zip([0] + ends[:-1], ends))
            self.starts = np.array([a for a, _ in self._rows])
            self._base = np.repeat(self.starts, self._counts)
            self._q = np.repeat(self.moduli[:-1], self._counts)
            self._a = np.arange(ends[-1]) - self._base
            self._read = self._inverse = None
        self.dims = 0
        prefix = list(prefix)
        rows = np.shape(prefix[0][0])[:-1] if prefix else ()
        if rows and len(self.moduli) > 1:
            raise DomainError("a pair record holds one vector")
        self.P_products = np.ones(rows + self.grid.shape)
        for z in prefix:
            self.extend(*z)

    def _stored_rows(self, zq: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """(rows, fold) of a run: for each stored row a of pair i, the stored row that holds
        row a zq_i mod q_i, and the rows where that residue is above q_i / 2, so is read
        folded.  The last zq's are kept, for the extension that follows a sweep."""
        if self._read is None or self._read[0] != zq:
            r = np.array([z % q for z, q in zip(zq, self.moduli)]).repeat(self._counts)
            r *= self._a
            r %= self._q
            rows = np.minimum(r, self._q - r)
            fold = np.flatnonzero(rows != r)
            rows += self._base
            self._read = zq, rows, fold
        return self._read[1:]

    def sigma_rows(self, *z: int) -> np.ndarray:
        """grid at the stored points: [k_1, k_2] holds grid[k_1 z_1 mod m_1, k_2 z_2 mod m_2],
        a row a > m_1/2 read as row m_1 - a at the negated residues; a missing z_2 reads as 1.
        One modulus and a column z_1 give one row per entry; a run takes one z_1 per pair."""
        if len(self.moduli) == 1:
            m = self.moduli[0]
            r = residue_perm(m, z[0], len(self.grid))
            return self.grid.take(np.minimum(r, m - r), axis=0)
        rows, fold = self._stored_rows(z[: len(self.moduli) - 1])
        rows = self.grid.take(rows, axis=0)
        if len(z) == len(self.moduli):
            rows = rows.take(residue_perm(self.moduli[-1], z[-1], rows.shape[1]), axis=1)
        rows[fold, 1:] = rows[fold, :0:-1]
        return rows

    def extend(self, *z: int) -> None:
        """Fold the next component, one residue per modulus, into the products."""
        rows = self.sigma_rows(*z)  # a new array, so updated in place
        rows *= self.params.gamma[self.dims] ** 2
        rows += 1.0
        self.P_products *= rows
        self.dims += 1

    def mean(self) -> float | np.ndarray:
        """Mean of P over all m points by one `exact_sum`: a stored row that is not
        its own mirror stands for two, and doubling is exact, so this is bit for
        bit the fsum over the full record.  An array of one mean per vector if the
        state holds many, or per pair if it holds a run of more than one."""
        weighted = 2.0 * self.P_products
        if len(self.moduli) > 1:
            own = np.flatnonzero((self._a == 0) | (2 * self._a == self._q))
            weighted[own] = self.P_products[own]
            p = self.moduli[-1]
            means = [exact_sum(weighted[a:b].ravel()) / (q * p)
                     for q, (a, b) in zip(self.moduli, self._rows)]
            return means[0] if len(means) == 1 else np.array(means)
        rows = weighted.shape[:-1]
        own = [0, -1] if self.moduli[0] % 2 == 0 else [0]  # the rows that are their own mirror
        own = (slice(None),) * len(rows) + (own,)
        weighted[own] = self.P_products[own]
        m = self.moduli[0]
        if not rows:
            return exact_sum(weighted) / m
        return np.array([exact_sum(w) / m for w in weighted])

    def sweep(self, *rows: np.ndarray) -> np.ndarray:
        """S[..., z] = sum_k sigma_alpha(k z / p) w[..., k], k and z in Z_p (one prime), one sweep
        per row of w: the products, stacked over any given rows of even weights on k <= p/2."""
        w = np.vstack((self.P_products,) + rows) if rows else self.P_products
        return rader_cbc_kernel(self.moduli[0], self.grid[None], w[..., None, :])

    def pair_sweep(self, *zq: int) -> np.ndarray:
        """S[i, z] = sum_{l in Z_q_i, k in Z_p} sigma_alpha(l zq_i / q_i + k z / p) P_i(l, k) for
        every z in Z_p, one row per pair (q_i, p) of the run, from one kernel call that sums
        each pair's rows apart: row l stands for l and q_i - l, so rows l > 0 count twice."""
        v = self.sigma_rows(*zq)
        for a, b in self._rows:
            v[a + 1 : b] *= 2.0
        return rader_cbc_kernel(self.moduli[-1], v, self.P_products, self.starts)

    def pair_sums(self) -> list[np.ndarray]:
        """sum_{k in Z_p} P_i(l, k) at l = k p^-1 mod q_i for k <= q_i/2, the larger-prime weights
        of T-hat at q_i, one array per pair (q_i, p) of the run."""
        if self._inverse is None:
            p = self.moduli[-1]
            self._inverse = self._stored_rows(tuple(pow(p, -1, q) for q in self.moduli[:-1]))[0]
        sums = self.P_products.sum(axis=1)[self._inverse]
        return [sums[a:b] for a, b in self._rows]


def theta_all(state: CbcState) -> np.ndarray:
    """Squared-error increment theta_s(z) for every candidate z in Z_p.

    theta_s(z) = (gamma_s^2 / p) sum_k sigma_alpha(k z / p) P(k), evaluated
    for all z at once through the Rader convolution sweep; one row per vector
    of a state over many.
    """
    return state.params.gamma[state.dims] ** 2 / state.moduli[0] * state.sweep()


def candidate_count(p: int, tau: float) -> int:
    """ceil(tau p), the size of every `candidate_set` of a prime p."""
    if not 0.0 < tau < 1.0:
        raise DomainError(f"tau must lie in (0, 1), got {tau}")
    return math.ceil(tau * p)


def candidate_set(theta: np.ndarray, m: int) -> np.ndarray:
    """Indices of the m candidates with the smallest theta, per row of theta[..., z].

    Values within relative TIE_RTOL of the m-th smallest count as tied with
    it and fill the set in index order, after those below it, so round-off
    cannot choose between the members of a tie.  With m = 1 this is the
    argmin, ties broken by the smallest index.
    """
    edge = np.partition(theta, m - 1, axis=-1)[..., m - 1 : m]
    tol = TIE_RTOL * np.abs(edge)
    # 0 below the tie, 1 tied, 2 above: a stable sort lists each class in index order
    rank = (np.abs(theta - edge) > tol).view(np.int8) + np.int8(1)
    rank[theta < edge - tol] = 0
    return np.argsort(rank, axis=-1, kind="stable")[..., :m]


def cbc_vectors(p: int, params: KorobovSpaceParams, m: int, draws: np.ndarray) -> np.ndarray:
    """The vectors z[r] of the p-point rule with z_1 = 1 and each z_s member
    draws[r, s - 2] of the m-member `candidate_set` of its prefix z_1..z_(s-1),
    as an int64 array of shape (R, d) for the R rows of draws.

    All rows go through the levels s = 2..d together, in one `CbcState` of p
    over all of them, and theta is swept for every row at every level.
    """
    z = np.ones((len(draws), params.d), dtype=np.int64)
    state = CbcState((p,), params, [(z[:, :1],)])
    for s in range(1, params.d):
        good = candidate_set(theta_all(state), m)
        z[:, s] = np.take_along_axis(good, draws[:, s - 1 : s], axis=1)[:, 0]
        if s < params.d - 1:
            state.extend(z[:, s : s + 1])
    return z


def cbc_construct(p: int, params: KorobovSpaceParams) -> tuple[int, ...]:
    """Fast CBC vector for the p-point rule: z_1 = 1, then per-dimension argmin.

    The one-row case of `cbc_vectors` with m = 1: theta ties go to the smaller residue.
    """
    draws = np.zeros((1, params.d - 1), dtype=np.int64)
    return tuple(cbc_vectors(p, params, 1, draws)[0].tolist())
