"""Prime-by-prime construction of the fixed generating vector.

Implements the component-by-component, prime-by-prime search that minimises
the cross-prime criterion T-hat over the ceil(tau p) candidates with the
smallest theta, for each prime of the budget pool in ascending order.

Every prime and every prime pair has one record, a `CbcState` over its
moduli, the record e_ran builds too.  T-hat of prime p reads the pair record
of each partner prime q: the pair (q, p) of a smaller q is swept at q's
residue, and the row sums of the pair (p, q) of a larger q feed one shared
sweep.  The pairs are kept (sum_{q<p} (q + 1) p floats) if they fit in half
of the memory the process may use, and each is folded by the larger prime's
residue right after that is chosen; else each pair is rebuilt from the
chosen prefix whenever it is read, so one is alive at a time.  Both give
bit-identical vectors.
"""

from __future__ import annotations

import itertools
import os
import pathlib
from dataclasses import dataclass, field

import numpy as np

from .cbc import CbcState, argmin_first, candidate_set, theta_all
from .errors import DomainError
from .kernels import KorobovSpaceParams
from .primes import PrimePool, ResidueVector, build_prime_pool


class SequencingError(RuntimeError):
    """A residue was requested after the last dimension's."""


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

    residues[p] holds prime p's chosen residues; the prime whose residue is
    due is the first with the fewest, so the search goes dimension by
    dimension, primes ascending.  single[p] is the `CbcState` of p over them.
    pairs[(q, p)] is the `CbcState` of q < p over moduli (q, p), kept if
    keep_tables (set from the memory probe); else each pair is rebuilt from
    the chosen prefix whenever it is read.
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

    def _due(self) -> tuple[int, int]:
        """(p, s): the prime whose residue is due, the first with the fewest, and the
        dimension s of that residue."""
        p = min(self.residues, key=lambda q: len(self.residues[q]))
        s = len(self.residues[p]) + 1
        if s > self.params.d:
            raise SequencingError(f"all {self.params.d} components are chosen")
        return p, s

    def _pair(self, q: int, p: int) -> CbcState:
        """Pair (q, p), q < p, over the residues both have chosen; stored if keep_tables."""
        pair = self.pairs.get((q, p))
        if pair is None:
            pair = CbcState((q, p), self.params, zip(self.residues[q], self.residues[p]))
            if self.keep_tables:
                self.pairs[(q, p)] = pair
        return pair

    def t_hat_all(self, theta: np.ndarray | None = None) -> np.ndarray:
        """T-hat for every candidate residue z in Z_p of the prime p that is due.

        Adds to theta (computed here unless given) the cross-prime
        corrections.  Each smaller prime q contributes one batched Rader
        sweep of its pair, summed in the frequency domain.  Since
        sum_k sigma(k q z / p) w(k) = sum_k sigma(k z / p) w(k q^-1 mod p),
        all larger primes share one sweep over their permuted row sums.
        """
        p, s = self._due()
        alpha = self.params.alpha
        gam2 = self.params.gamma[s - 1] ** 2
        if theta is None:
            theta = theta_all(self.single[p])
        cross = np.zeros(p)
        larger = np.zeros(p // 2 + 1)
        for q in self.pool.primes:
            if q < p:
                cross += (2.0 / q) * self._pair(q, p).cross_sweep(self.residues[q][s - 1])
            elif q > p:
                larger += 2.0 / q ** (2 * alpha + 1) * self._pair(p, q).row_sums(pow(q, -1, p))
        if p < self.pool.primes[-1]:
            cross += self.single[p].sweep(larger)
        return theta + gam2 / p * cross

    def choose(self) -> int:
        """Choose the residue of the prime that is due, then fold it into that
        prime's kept smaller-prime pairs.

        The fold is skipped at the last dimension, where nothing reads it.
        """
        p, s = self._due()
        theta = theta_all(self.single[p])
        z = select_candidate(theta, self.t_hat_all(theta), self.tau)
        self.single[p].extend(z)
        self.residues[p].append(z)
        if s < self.params.d:
            for q in self.pool.primes[: self.pool.primes.index(p)]:
                if (q, p) in self.pairs:
                    self.pairs[(q, p)].extend(self.residues[q][s - 1], z)
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
    for _ in range((d - 1) * len(pool.primes)):
        state.choose()
    return ResidueVector(pool, tuple(tuple(res) for res in state.residues.values()), d)
