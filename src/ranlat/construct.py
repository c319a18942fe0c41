"""Prime-by-prime construction of the fixed generating vector.

Implements the component-by-component, prime-by-prime search that minimises
the cross-prime criterion T-hat over the ceil(tau p) candidates with the
smallest theta, for each prime of the budget pool in ascending order.

Every prime has one record, a `CbcState` over its chosen residues.  The
pairs (q, p) of a prime p with its smaller partners q are held in runs,
`CbcState`s of consecutive pairs stacked on rows, up to `RUN_BYTES` of
products each (`partner_runs`).  At
p's turn each run is one kernel call (`CbcState.pair_sweep`) that gives T-hat
the cross terms of its pairs, swept at the partners' residues.  After p's
choice each run is extended by the component, and the row sums of its pairs
are added, in ascending p, to each partner's shared larger-prime row: the
weights that its next turn's single sweep runs with theta's.  After p's last
choice the runs are at all d components, and each pair's mean is kept for
the e_ran report (`errors.eran_report`) that the vector carries.

The runs are kept (sum_{q<p} (q//2 + 1) p floats of grid and products each)
if they fit in half of the memory the process may use.  Otherwise a prime's
runs are built at the start and at each of its turns, held through the
choice and dropped, so one prime's runs are alive at a time.  Both policies
give bit-identical vectors and reports.
"""

from __future__ import annotations

import functools
import itertools
import os
import pathlib
from dataclasses import dataclass, field

import numpy as np

from .cbc import CbcState, candidate_count, candidate_set, record_bytes
from .errors import DomainError, eran_report
from .kernels import KorobovSpaceParams
from .primes import PrimePool, ResidueVector, build_prime_pool


class SequencingError(RuntimeError):
    """A residue was requested after the last dimension's."""


def select_candidate(theta: np.ndarray, t_hat: np.ndarray, tau: float) -> int:
    """Residue choice: T-hat-minimiser among the `candidate_set` of theta.

    T-hat ties resolve to the smaller index by the same rule, a `candidate_set` of one.
    """
    if len(t_hat) != len(theta):
        raise DomainError("theta and t_hat must have equal length")
    candidates = np.sort(candidate_set(theta, candidate_count(len(theta), tau)))
    return int(candidates[candidate_set(t_hat[candidates], 1)[0]])


def estimate_cached_bytes(pool: PrimePool) -> int:
    """Bytes the kept policy holds in the runs, the records of every pair (q, p)."""
    return sum(record_bytes(moduli) for moduli in itertools.combinations(pool.primes, 2))


# Bytes of point products up to which consecutive pairs of a prime share a run
# (measured best at 128 KiB), and as many of sigma grid; a larger pair is a run
# of its own.
RUN_BYTES = 128 * 1024


@functools.lru_cache(maxsize=1024)
def partner_runs(primes: tuple[int, ...], p: int) -> tuple[tuple[int, ...], ...]:
    """The moduli (q_1, ..., q_r, p) of p's runs: its smaller partners q < p of primes
    in ascending order, split into consecutive runs of at most RUN_BYTES of products.
    A run's bytes are its pairs', counted from the moduli alone (`record_bytes`)."""
    runs: list[tuple[int, ...]] = []
    run: tuple[int, ...] = ()
    size = 0
    for q in (q for q in primes if q < p):
        pair = record_bytes((q, p))
        if run and size + pair > 2 * RUN_BYTES:
            runs.append(run + (p,))
            run, size = (), 0
        run, size = run + (q,), size + pair
    return tuple(runs + [run + (p,)] if run else runs)


# The container's memory limit: cgroup v2's byte count or "max", cgroup v1's byte count.
CGROUP_MEMORY_LIMITS = (pathlib.Path("/sys/fs/cgroup/memory.max"),
                        pathlib.Path("/sys/fs/cgroup/memory/memory.limit_in_bytes"))


def physical_memory_bytes() -> int:
    """Memory the process may use: installed RAM, or a smaller cgroup v2 or v1 limit;
    0 where installed RAM cannot be read (no `os.sysconf`, as on Windows)."""
    try:
        installed = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return 0
    limits = [installed]
    for path in CGROUP_MEMORY_LIMITS:
        try:
            limits.append(int(path.read_text()))
        except (OSError, ValueError):  # no such file, or cgroup v2's "max"
            pass
    return min(limits)


@dataclass
class ConstructionState:
    """The search's state: residues[p], the residues prime p has chosen, the
    records over them, and each prime's larger-prime row for its next turn.

    The prime whose residue is due is the first with the fewest, so the
    search goes dimension by dimension, primes ascending.  records[(p,)] is a
    prime's `CbcState` and records[run] the `CbcState` of each run of
    `partner_runs`, all over as many components as their larger prime has
    chosen.  A prime's record is kept, a run only if keep_tables (set from the
    memory probe); else it is held through its prime's choice.  larger[p] sums,
    over q > p ascending, 2 / q^(2 alpha + 1) times the row sums of the pair
    (p, q) read at k q^-1 mod p, k <= p/2, weighted as p's products, as q's choices
    extend the pair; means holds E(pq) + 1 of each pair once it is at all d components.
    """

    pool: PrimePool
    params: KorobovSpaceParams
    tau: float

    keep_tables: bool = field(init=False)
    residues: dict[int, list[int]] = field(init=False)
    records: dict[tuple[int, ...], CbcState] = field(init=False)
    larger: dict[int, np.ndarray] = field(init=False)
    means: dict[tuple[int, int], float] = field(init=False)

    def __post_init__(self) -> None:
        # Keep the runs only if they fit in half of the probed memory: the
        # other half holds what runs beside them, that is, one prime's runs
        # with their permuted sigma rows and FFT spectra during a choice, and
        # other processes.
        self.keep_tables = 2 * estimate_cached_bytes(self.pool) <= physical_memory_bytes()
        self.residues = {p: [1] for p in self.pool.primes}
        self.records = {(p,): CbcState((p,), self.params, [(1,)]) for p in self.pool.primes}
        self.larger = {p: np.zeros(p // 2 + 1) for p in self.pool.primes}
        self.means = {}
        # the start: every prime's runs over z_1, for the smaller primes' first turns
        for p in self.pool.primes:
            self._store(p, self._runs(p, 1))

    def _due(self) -> tuple[int, int]:
        """(p, dims): the prime whose residue is due, the first with the fewest, and
        how many it has, the components every record of p is at."""
        p = min(self.residues, key=lambda q: len(self.residues[q]))
        dims = len(self.residues[p])
        if dims >= self.params.d:
            raise SequencingError(f"all {self.params.d} components are chosen")
        return p, dims

    def _runs(self, p: int, dims: int) -> list[CbcState]:
        """p's runs over the first dims components: the kept or held ones, or built
        and held until `_store` drops them."""
        runs = []
        for moduli in partner_runs(self.pool.primes, p):
            if moduli not in self.records:
                prefix = zip(*(self.residues[m][:dims] for m in moduli))
                self.records[moduli] = CbcState(moduli, self.params, prefix)
            runs.append(self.records[moduli])
        return runs

    def _store(self, p: int, runs: list[CbcState]) -> None:
        """Add the row sums of p's pairs to the smaller primes' larger-prime rows or,
        at all d components, keep their means; then drop the runs unless kept."""
        scale = 2.0 / p ** (2 * self.params.alpha + 1)
        for run in runs:
            qs = run.moduli[:-1]
            if run.dims < self.params.d:
                for q, sums in zip(qs, run.pair_sums()):
                    self.larger[q] += scale * sums
            else:
                self.means.update(zip(((q, p) for q in qs), np.atleast_1d(run.mean()).tolist()))
            if not self.keep_tables:
                del self.records[run.moduli]

    def t_hat_all(self) -> tuple[np.ndarray, np.ndarray]:
        """(theta, T-hat) for every candidate residue z in Z_p of the prime p that is due.

        T-hat adds to theta the cross-prime corrections: one kernel call per run
        of the smaller primes, its pairs swept at their residues and added in
        ascending q.  Since sum_k sigma(k q z / p) w(k) = sum_k sigma(k z / p) w(k q^-1 mod p),
        all larger primes share one row, larger[p], swept with theta's products.
        """
        p, dims = self._due()
        cross = np.zeros(p)
        for run in self._runs(p, dims):
            qs = run.moduli[:-1]
            S = run.pair_sweep(*(self.residues[q][dims] for q in qs))
            S *= [[2.0 / q] for q in qs]
            for row in S:  # in ascending q, as one pair at a time
                cross += row
        S = self.records[(p,)].sweep(self.larger[p])
        scale = self.params.gamma[dims] ** 2 / p
        theta = scale * S[0]
        return theta, theta + scale * (cross + S[1])

    def choose(self) -> int:
        """Choose and append the residue of the prime that is due, and extend its records."""
        theta, t_hat = self.t_hat_all()
        p, dims = self._due()
        z = select_candidate(theta, t_hat, self.tau)
        self.residues[p].append(z)
        self.records[(p,)].extend(z)
        self.larger[p] = np.zeros(p // 2 + 1)
        runs = self._runs(p, dims)  # held since t_hat_all
        for run in runs:
            run.extend(*(self.residues[m][dims] for m in run.moduli))
        self._store(p, runs)
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
    The vector carries its e_ran report (`ResidueVector.eran`), from the means
    of the search's records, which `randomized_error_sq_fixed` returns under params.
    """
    if not 0.0 < tau < 1.0:
        raise DomainError(f"tau must lie in (0, 1), got {tau}")
    if d != params.d:
        raise DomainError(f"dimension mismatch: d={d} vs params.d={params.d}")
    pool = build_prime_pool(n)
    state = ConstructionState(pool=pool, params=params, tau=tau)
    for _ in range((d - 1) * len(pool.primes)):
        state.choose()
    v = ResidueVector(pool, state.residues.values(), d)
    # e_ran from the means the search keeps, all at d components
    means = {(p,): state.records[(p,)].mean() for p in pool.primes} | state.means
    report = eran_report(pool.primes, lambda *moduli: means[moduli])
    object.__setattr__(v, "eran", (params, report))  # frozen, and set here only
    return v
