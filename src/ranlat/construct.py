"""Prime-by-prime construction of the fixed generating vector.

Implements the component-by-component, prime-by-prime search that minimises
the cross-prime criterion T-hat over the ceil(tau p) candidates with the
smallest theta, for each prime of the budget pool in ascending order.

Every prime and every prime pair has one record, a `CbcState` over its
moduli: the sigma grid of the rule modulo p or pq in CRT order and the
running point products, the record e_ran builds too; both are even, and only
the rows k <= q/2 of the first prime q are stored and swept.  T-hat of prime p
reads the pair record of each partner prime q: the pair (q, p) of a smaller q
is swept against its sigma rows, and the row sums of the pair (p, q) of a
larger q feed one shared sweep.  The pairs are kept (sum_{q<p} (q + 1) p
floats) if they fit in half of the memory the process may use, and each is
folded by the larger prime's residue right after that is chosen; else each
pair is rebuilt from the chosen prefix whenever it is read, so at most two
are alive at once.  Both give bit-identical vectors.
"""

from __future__ import annotations

import itertools
import os
import pathlib
from dataclasses import dataclass, field

import numpy as np

from .cbc import CbcState, argmin_first, candidate_set, theta_all
from .errors import DomainError
from .fftconv import rader_cbc_kernel
from .kernels import KorobovSpaceParams
from .primes import PrimePool, ResidueVector, build_prime_pool


class SequencingError(RuntimeError):
    """A residue was requested out of the dimension-by-dimension, ascending prime order."""


def select_candidate(theta: np.ndarray, t_hat: np.ndarray, tau: float) -> int:
    """Residue choice: T-hat-minimiser among the `candidate_set` of theta.

    T-hat ties resolve to the smaller index, as in `argmin_first`.
    """
    if len(t_hat) != len(theta):
        raise DomainError("theta and t_hat must have equal length")
    candidates = np.sort(candidate_set(theta, tau))
    return int(candidates[argmin_first(t_hat[candidates])])


def estimate_cached_bytes(pool: PrimePool) -> int:
    """Bytes for the sigma grids and point products, q // 2 + 1 rows of p each, of every pair (q, p)."""
    return sum(2 * 8 * (q // 2 + 1) * p for q, p in itertools.combinations(pool.primes, 2))


# cgroup v2 memory limit of the process's container: a byte count, or "max".
CGROUP_MEMORY_MAX = pathlib.Path("/sys/fs/cgroup/memory.max")


def physical_memory_bytes() -> int:
    """Memory the process may use: installed RAM, or a smaller cgroup v2 limit."""
    installed = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    try:
        limit = CGROUP_MEMORY_MAX.read_text().strip()
    except OSError:
        return installed
    return min(installed, int(limit)) if limit.isdigit() else installed


@dataclass
class ConstructionState:
    """All records needed by the per-(dimension, prime) search step.

    residues[p] holds prime p's chosen residues, hence its next dimension;
    single[p] is the `CbcState` of p over them.  pairs[(q, p)] is the
    `CbcState` of q < p over moduli (q, p), kept if keep_tables (set from the
    memory probe); else each pair is rebuilt from the chosen prefix whenever
    it is read.
    """

    pool: PrimePool
    params: KorobovSpaceParams
    tau: float

    keep_tables: bool = field(init=False)
    residues: dict[int, list[int]] = field(init=False)
    single: dict[int, CbcState] = field(init=False)
    pairs: dict[tuple[int, int], CbcState] = field(init=False)

    def __post_init__(self) -> None:
        # Keep the pairs only if they fit in half of the probed memory: the
        # other half holds what runs beside them, that is, one pair at a time
        # with its permuted sigma rows and FFT spectra during a choice, the
        # e_ran evaluation that usually follows, and other processes.
        self.keep_tables = 2 * estimate_cached_bytes(self.pool) <= physical_memory_bytes()
        self.residues = {p: [1] for p in self.pool.primes}
        self.single = {p: CbcState((p,), self.params, zip(z)) for p, z in self.residues.items()}
        self.pairs = {}

    def _turn(self, p: int) -> int:
        """The dimension s at which p's residue is due.

        Raises unless s <= d, every smaller prime has its z_s and every larger
        one z_{s-1}.
        """
        s = len(self.residues[p]) + 1
        for q, res in self.residues.items():
            if s > self.params.d or len(res) != (s if q < p else s - 1):
                raise SequencingError(
                    f"prime {p} at dimension {s} of {self.params.d}; prime {q} at {len(res) + 1}"
                )
        return s

    def _pair(self, q: int, p: int) -> CbcState:
        """Pair (q, p), q < p, over the residues both have chosen; stored if keep_tables."""
        pair = self.pairs.get((q, p))
        if pair is None:
            pair = CbcState((q, p), self.params, zip(self.residues[q], self.residues[p]))
            if self.keep_tables:
                self.pairs[(q, p)] = pair
        return pair

    # -- criteria ------------------------------------------------------------

    def theta_all(self, p: int) -> np.ndarray:
        return theta_all(self.single[p])

    def t_hat_all(self, p: int, theta: np.ndarray | None = None) -> np.ndarray:
        """T-hat for every candidate residue z in Z_p at the current dimension.

        Adds to theta (computed here unless given) the cross-prime
        corrections.  Each smaller prime q contributes one batched Rader
        sweep over the stored classes l <= q/2 of q (l > 0 weighted by 2, for
        l and q - l), summed in the frequency domain.  Since
        sum_k sigma(k q z / p) w(k) = sum_k sigma(k z / p) w(k q^-1 mod p),
        all larger primes share one sweep over their permuted row sums.
        """
        s = self._turn(p)
        alpha = self.params.alpha
        gam2 = self.params.gamma[s - 1] ** 2
        if theta is None:
            theta = self.theta_all(p)
        cross = np.zeros(p)
        larger = np.zeros(p // 2 + 1)
        for q in self.pool.primes:
            if q < p:
                pair = self._pair(q, p)
                # row l: sigma((l zq/q + m/p) mod 1) for m in Z_p
                v = pair.sigma_rows(self.residues[q][s - 1])
                v[1:] *= 2.0
                cross += (2.0 / q) * rader_cbc_kernel(p, v, pair.P_products)
            elif q > p:
                row_sums = self._pair(p, q).P_products.sum(axis=1)
                r = np.arange(p // 2 + 1) * pow(q, -1, p) % p
                larger += 2.0 / q ** (2 * alpha + 1) * row_sums[np.minimum(r, p - r)]
        if p < self.pool.primes[-1]:
            cross += rader_cbc_kernel(p, self.single[p].grid, larger)
        return theta + gam2 / p * cross

    # -- stepping ------------------------------------------------------------

    def choose(self, p: int) -> int:
        """Choose p's residue, then fold it into p's kept smaller-prime pairs.

        The fold is skipped at the last dimension, where nothing reads it.
        """
        s = self._turn(p)
        theta = self.theta_all(p)
        z = select_candidate(theta, self.t_hat_all(p, theta), self.tau)
        self.single[p].extend(z)
        self.residues[p].append(z)
        if s < self.params.d:
            for q in self.pool.primes:
                if q == p:
                    break
                pair = self.pairs.get((q, p))
                if pair is not None:
                    pair.extend(self.residues[q][s - 1], z)
        return z


def construct_fixed_vector(
    n: int,
    d: int,
    params: KorobovSpaceParams,
    tau: float = 0.5,
) -> ResidueVector:
    """Build the fixed generating vector for budget n (primes in (n/2, n]).

    z_1 = 1 for every prime; for s = 2..d and each pool prime ascending, the
    residue is the T-hat minimiser among the ceil(tau p) best-theta candidates.
    """
    if not 0.0 < tau < 1.0:
        raise DomainError(f"tau must lie in (0, 1), got {tau}")
    if d != params.d:
        raise DomainError(f"dimension mismatch: d={d} vs params.d={params.d}")
    pool = build_prime_pool(n)
    state = ConstructionState(pool=pool, params=params, tau=tau)
    for _ in range(2, d + 1):
        for p in pool.primes:
            state.choose(p)
    return ResidueVector(
        pool=pool,
        residues=tuple(tuple(state.residues[p]) for p in pool.primes),
        d=d,
    )
