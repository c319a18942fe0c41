"""Point products of rank-1 lattice rules and the component-by-component search.

`CbcState` keeps the running per-point products P(k) = prod_{j<s} (1 + gamma_j^2
sigma_alpha(k z_j / m)) of the rule modulo m, for one prime or, by the CRT, a
pair of coprime moduli, so that the squared-error increment theta of every
candidate residue comes out of a single Rader convolution sweep,
`fftconv.rader_cbc_kernel`, as do a pair's cross terms.  As sigma_alpha is even,
so is P: a record stores the rows k_1 <= m_1/2 of its first axis, each for k_1
and m_1 - k_1, as `record_layout` lays them out, and each row's products times
the rows it stands for, 1 or 2, so that sweeps, means and sums read them as
stored.  A state of one prime may hold many vectors, one row of products each:
`cbc_vectors` takes all the vectors of one prime through the CBC levels
together.  A state of pairs may hold a run of them, (q_1, p), ..., (q_r, p),
stacked on rows: one grid, one product array and one correlation call per sweep
for all of them, each pair's rows bit for bit its own.  The last modulus p of a
run is prime, and a pair's columns, the residues k of p, are stored in p's Rader
order, k = 0 and then g^a, so that its sweep, `fftconv.rader_correlation`, reads
grid rows and products as stored.  Reading a row at z_p is then a rotation of
its period by the discrete log of z_p, and at -k one by (p - 1)/2.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import InitVar, dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from .fftconv import rader_cbc_kernel, rader_correlation, rader_plan
from .kernels import DomainError, KorobovSpaceParams, exact_sum, sigma_reduced
from .primes import is_prime

# Relative tolerance under which two criterion values count as tied.  Exact
# mathematical ties other than theta's z, p - z (bit-equal by construction)
# differ only by round-off, and round-off must not decide the residue: tied
# values resolve to the smaller index.
TIE_RTOL = 1e-9


class RecordLayout(NamedTuple):
    """A record's stored rows, each the row a <= q/2 of a pair (q, c), for a and q - a."""

    shape: tuple[int, ...]  # of the grid and the products
    rows: tuple[slice, ...]  # each pair's rows
    starts: np.ndarray  # each pair's first row
    pair: np.ndarray  # each row's pair, q and a
    q: np.ndarray
    a: np.ndarray
    weight: np.ndarray  # the rows it stands for: 1 if a = -a mod q, else 2
    inverse: np.ndarray  # the stored row of a c^-1 mod q


def _pairs(moduli: tuple[int, ...]) -> tuple[list[int], int]:
    """(q_1, ..., q_r), c: the first moduli of a record's pairs (q_i, c), a prime (p,) the pair (p, 1)."""
    *qs, c = moduli + (1,) if len(moduli) == 1 else moduli
    return qs, c


@functools.lru_cache(maxsize=1024)
def record_layout(moduli: tuple[int, ...]) -> RecordLayout:
    """The read-only `RecordLayout` of a prime (p,), the pair (p, 1) of one column, or of
    a run (q_1, ..., q_r, p) of a prime p, the pairs (q_i, p) of p columns stacked on rows.
    A run's columns are the residues k of p in its Rader order (`fftconv.rader_plan`):
    k = 0, then k = g^a for a = 0..p-2."""
    if (not moduli or any(math.gcd(q, moduli[-1]) != 1 for q in moduli[:-1])
            or len(moduli) > 1 and not is_prime(moduli[-1])):
        raise DomainError(f"moduli {moduli}: not (p,) or (q_1, ..., q_r, p), p prime, q_i prime to p")
    qs, c = _pairs(moduli)
    counts = [q // 2 + 1 for q in qs]
    pair = np.repeat(np.arange(len(qs)), counts)
    starts = np.cumsum(counts) - counts
    q = np.array(qs)[pair]
    a = np.arange(len(pair)) - starts[pair]
    r = a * np.array([pow(c, -1, m) for m in qs])[pair] % q
    inverse = starts[pair] + np.minimum(r, q - r)
    shape = (len(pair),) + ((c,) if len(moduli) > 1 else ())
    rows = tuple(slice(b, b + n) for b, n in zip(starts.tolist(), counts))
    layout = RecordLayout(shape, rows, starts, pair, q, a, np.where(2 * a % q, 2.0, 1.0), inverse)
    for x in layout[2:]:
        x.flags.writeable = False
    return layout


def sigma_grid(moduli: tuple[int, ...], alpha: int) -> np.ndarray:
    """Read-only grid[a_1, j] = sigma_alpha(min(c, m - c) / m), c = (a_1 m / m_1 + k_j m / m_2)
    mod m, on the stored rows a_1 <= m_1/2 of the `record_layout` of moduli and the columns
    k_j of m_2 in its Rader order, of the CRT grid of m = m_1 m_2 of each pair (m_1, m_2); a
    prime (p,) is the pair (p, 1) of one column, k = 0."""
    layout = record_layout(moduli)
    qs, p = _pairs(moduli)
    k = rader_plan(p, p)[0] if len(moduli) > 1 else np.zeros(1, dtype=np.int64)
    x = np.empty(layout.shape)
    for q, rows in zip(qs, layout.rows):
        m = q * p
        # both residues are reduced, so the sum s is below 2m, and d = |s - m| gives
        # min(d, m - d) = min(s mod m, m - s mod m), which lies in [0, m / 2]
        d = np.add.outer((layout.a[rows] * p - m).astype(float), (k * q).astype(float))
        np.abs(d, out=d)
        np.divide(np.minimum(d, m - d, out=d), m, out=x.reshape(-1, p)[rows])
    grid = sigma_reduced(x, alpha)  # x in [0, 1/2]: no reduction
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
    """Bytes of a `CbcState`'s sigma grid and products, 8 each per stored entry, from the
    moduli alone: no layout is built."""
    qs, c = _pairs(moduli)
    return 16 * c * sum(q // 2 + 1 for q in qs)


def _rotate(rows: np.ndarray, at, read: np.ndarray, s: int) -> None:
    """rows[at] = read, a copy of those rows in Rader order, read at g^s: column 1 + a of the
    period takes column 1 + (a + s) mod (p - 1) of read, and column 0 is kept."""
    p = rows.shape[-1]
    rows[at, 1 : p - s] = read[:, 1 + s :]
    rows[at, p - s :] = read[:, 1 : 1 + s]


# Pair grids are not cached: the rebuild policy exists to avoid holding them.
single_sigma_grid = functools.lru_cache(maxsize=1024)(sigma_grid)


@dataclass
class CbcState:
    """Running point products of the rank-1 rule modulo m = prod(moduli).

    The moduli are one modulus (p,) or a pair (q, p) of coprime moduli with p prime;
    the sweeps need p prime.  The CRT maps Z_m onto Z_{m_1} x Z_{m_2}, so the products
    live on that grid: P_products[k_1, k_2] = prod_j (1 + gamma_j^2 sigma_alpha(k_1 z_1j / m_1 + k_2 z_2j / m_2))
    over the dims components folded in so far, `prefix` first, on the stored rows
    k_1 <= m_1/2 of `layout`, each times the rows it stands for, 1 or 2 (`layout.weight`),
    which is exact; row m_1 - k_1 is row k_1 at the negated residues of the other axis.
    A pair stores its columns k_2 in the Rader order of m_2 (k_2 = 0, then g^a).  grid
    is `sigma_grid`, in the same order, unweighted: the point of index k sits at
    grid[k_1 z_1 mod m_1, k_2 z_2 mod m_2], folded alike, so every lookup is one row
    permutation and, of a pair, a rotation of each row's period, by the discrete log
    of z_2 (`fftconv.rader_plan`'s lag) and, for a folded row, (m_2 - 1)/2 more.  Only
    the methods below read this layout: `mean`, the sweeps and the sums.

    A state of one modulus holds R vectors at once if each component of the prefix
    is an int64 column of R residues, shape (R, 1): P_products then has a leading axis,
    P_products[r, k], and every method works row by row, each row bit for bit the
    state of that one vector.  A state of moduli (q_1, ..., q_r, p) holds the run of
    pairs (q_i, p) on the rows `layout.rows[i]`, and a component is one residue per
    modulus; each pair's rows, sweep, sums and mean are bit for bit those of its own
    state (q_i, p), which is the run of one.
    """

    moduli: tuple[int, ...]
    params: KorobovSpaceParams
    prefix: InitVar[Iterable[tuple[int, ...]]]
    dims: int = field(init=False, default=0)
    grid: np.ndarray = field(init=False)
    layout: RecordLayout = field(init=False)
    P_products: np.ndarray = field(init=False)

    def __post_init__(self, prefix: Iterable[tuple[int, ...]]) -> None:
        self.layout = record_layout(self.moduli)
        grid = single_sigma_grid if len(self.moduli) == 1 else sigma_grid
        self.grid = grid(self.moduli, self.params.alpha)
        self._read = None
        prefix = list(prefix)
        rows = np.shape(prefix[0][0])[:-1] if prefix else ()
        if rows and len(self.moduli) > 1:
            raise DomainError("a pair record holds one vector")
        # each stored row times the rows it stands for
        weight = self.layout.weight.reshape((-1,) + (1,) * (self.grid.ndim - 1))
        self.P_products = np.broadcast_to(weight, rows + self.grid.shape).copy()
        for z in prefix:
            self.extend(*z)

    def _stored_rows(self, zq: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """(rows, fold) of a run: for each stored row a of pair i, the stored row that holds
        row a zq_i mod q_i, and the rows where that residue is above q_i / 2, so is read
        folded.  The last zq's are kept, for the extension that follows a sweep."""
        if self._read is None or self._read[0] != zq:
            r = np.array([z % q for z, q in zip(zq, self.moduli)])[self.layout.pair]
            r *= self.layout.a
            r %= self.layout.q
            rows = np.minimum(r, self.layout.q - r)
            fold = np.flatnonzero(rows != r)
            rows += self.layout.starts[self.layout.pair]
            self._read = zq, rows, fold
        return self._read[1:]

    def sigma_rows(self, *z: int) -> np.ndarray:
        """grid at the stored points: [k_1, k_2] holds grid[k_1 z_1 mod m_1, k_2 z_2 mod m_2],
        a row a > m_1/2 read as row m_1 - a at the negated residues; a missing z_2 reads as 1.
        Columns are in the grid's order.  One modulus and a column z_1 give one row per
        entry; a run takes one z_1 per pair."""
        if len(self.moduli) == 1:
            m = self.moduli[0]
            r = residue_perm(m, z[0], len(self.grid))
            return self.grid.take(np.minimum(r, m - r), axis=0)
        p = self.moduli[-1]
        stored, fold = self._stored_rows(z[: len(self.moduli) - 1])
        rows = self.grid.take(stored, axis=0)
        if len(z) == len(self.moduli):  # k z_p: g^(a + e) at k = g^a, 0 at z_p = 0
            zp = operator.index(z[-1]) % p
            if zp == 0:
                rows[:, 1:] = rows[:, :1]
                return rows
            e = -int(rader_plan(p, p)[1][zp - 1]) % (p - 1)
            if e:
                _rotate(rows, slice(None), rows.copy(), e)
        _rotate(rows, fold, rows[fold], (p - 1) // 2)  # -g^a = g^(a + (p-1)/2)
        return rows

    def extend(self, *z: int) -> None:
        """Fold the next component, one residue per modulus, into the products."""
        rows = self.sigma_rows(*z)  # a new array, so updated in place
        rows *= self.params.gamma[self.dims] ** 2
        rows += 1.0
        self.P_products *= rows
        self.dims += 1

    def mean(self) -> float | np.ndarray:
        """Mean of P over all m points by one `exact_sum` of the stored, weighted products,
        bit for bit the fsum over the full record.  An array of one mean per vector if the
        state holds many, or per pair if it holds a run of more than one."""
        (qs, c), P = _pairs(self.moduli), self.P_products
        if P.ndim > len(self.layout.shape):  # one row of products per vector
            return np.array([exact_sum(w) / qs[0] for w in P])
        means = [exact_sum(P[rows].ravel()) / (q * c) for q, rows in zip(qs, self.layout.rows)]
        return means[0] if len(means) == 1 else np.array(means)

    def sweep(self, *rows: np.ndarray) -> np.ndarray:
        """S[..., z] = sum_k sigma_alpha(k z / p) w[..., k], k and z in Z_p (one prime), one sweep
        per row of w: the products, stacked over any given rows of even weights on k <= p/2,
        stored alike, each entry times the residues it stands for."""
        w = np.vstack((self.P_products,) + rows) if rows else self.P_products
        return rader_cbc_kernel(self.moduli[0], self.grid[None], w[..., None, :])

    def pair_sweep(self, *zq: int) -> np.ndarray:
        """S[i, z] = sum_{l in Z_q_i, k in Z_p} sigma_alpha(l zq_i / q_i + k z / p) P_i(l, k) for
        every z in Z_p, one row per pair (q_i, p) of the run, from one correlation that sums
        each pair's rows apart.  Grid and weighted products are in Rader order, so the
        correlation reads them as stored."""
        return rader_correlation(self.moduli[-1], self.sigma_rows(*zq), self.P_products,
                                 self.layout.starts)

    def pair_sums(self) -> list[np.ndarray]:
        """sum_{k in Z_p} P_i(l, k) at l = k p^-1 mod q_i for k <= q_i/2, the larger-prime weights
        of T-hat at q_i, one array per pair (q_i, p) of the run, each row summed in the
        stored column order and, as stored, times the rows it stands for, k and q_i - k."""
        sums = self.P_products.sum(axis=1)[self.layout.inverse]
        return [sums[rows] for rows in self.layout.rows]


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
