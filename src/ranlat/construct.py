"""Prime-by-prime construction of the fixed generating vector.

Implements the component-by-component, prime-by-prime search that minimises
the cross-prime criterion T-hat over the ceil(tau p) candidates with the
smallest theta, for each prime of the budget pool in ascending order.

Every prime and every prime pair has one record, a `CbcState` over its
moduli.  T-hat of prime p reads the pair record of each partner prime q:
the pair (q, p) of a smaller q is swept at q's residue, and the row sums of
the pair (p, q) of a larger q feed one shared sweep, which the due prime's
sigma table runs with theta's in one call.  The chosen residues are the
search's only state: a record is a cache over them, brought up to date when
it is read.  The pairs are kept (sum_{q<p} (q + 1) p floats) if they fit in
half of the memory the process may use; else each is rebuilt whenever it is
read, so one is alive at a time.  Both give bit-identical vectors.  After
the last choice every record is read once more, at all d components, for
the e_ran report (`errors.eran_report`) that the vector carries.
"""

from __future__ import annotations

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
    """Bytes the kept policy holds in the records of every pair (q, p)."""
    return sum(record_bytes(moduli) for moduli in itertools.combinations(pool.primes, 2))


# cgroup v2 memory limit of the process's container: a byte count, or "max".
CGROUP_MEMORY_MAX = pathlib.Path("/sys/fs/cgroup/memory.max")


def physical_memory_bytes() -> int:
    """Memory the process may use: installed RAM, or a smaller cgroup v2 limit;
    0 where installed RAM cannot be read (no `os.sysconf`, as on Windows)."""
    try:
        installed = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return 0
    try:
        limit = CGROUP_MEMORY_MAX.read_text().strip()
    except OSError:
        return installed
    return min(installed, int(limit)) if limit.isdigit() else installed


@dataclass
class ConstructionState:
    """The search's only state, residues[p], the residues prime p has chosen,
    and the records cached over it.

    The prime whose residue is due is the first with the fewest, so the
    search goes dimension by dimension, primes ascending.  records[(p,)] and
    records[(q, p)], q < p, are the `CbcState`s of a prime and of a pair over
    the chosen residues, each brought up to date when it is read.  A prime's
    record is kept; a pair's only if keep_tables (set from the memory probe).
    """

    pool: PrimePool
    params: KorobovSpaceParams
    tau: float

    keep_tables: bool = field(init=False)
    residues: dict[int, list[int]] = field(init=False)
    records: dict[tuple[int, ...], CbcState] = field(init=False)

    def __post_init__(self) -> None:
        # Keep the pairs only if they fit in half of the probed memory: the
        # other half holds what runs beside them, that is, one pair at a time
        # with its permuted sigma rows and FFT spectra during a choice or
        # the e_ran read, and other processes.
        self.keep_tables = 2 * estimate_cached_bytes(self.pool) <= physical_memory_bytes()
        self.residues = {p: [1] for p in self.pool.primes}
        self.records = {}

    def _due(self) -> tuple[int, int]:
        """(p, dims): the prime whose residue is due, the first with the fewest, and
        how many it has, the components every record is read at."""
        p = min(self.residues, key=lambda q: len(self.residues[q]))
        dims = len(self.residues[p])
        if dims >= self.params.d:
            raise SequencingError(f"all {self.params.d} components are chosen")
        return p, dims

    def _record(self, *moduli: int, dims: int) -> CbcState:
        """The record over moduli (p,) or (q, p), q < p, extended by the components
        it lacks up to dims; kept if it is a prime's or keep_tables."""
        record = self.records.get(moduli) or CbcState(moduli, self.params, ())
        if record.dims < dims:  # most reads find the record up to date
            for z in zip(*(self.residues[m][record.dims:dims] for m in moduli)):
                record.extend(*z)
        if len(moduli) == 1 or self.keep_tables:
            self.records[moduli] = record
        return record

    def t_hat_all(self) -> tuple[np.ndarray, np.ndarray]:
        """(theta, T-hat) for every candidate residue z in Z_p of the prime p that is due.

        T-hat adds to theta the cross-prime corrections.  Each smaller prime
        q contributes one batched Rader sweep of its pair, summed in the
        frequency domain.  Since
        sum_k sigma(k q z / p) w(k) = sum_k sigma(k z / p) w(k q^-1 mod p),
        all larger primes share one row, swept with theta's products.
        """
        p, dims = self._due()
        power = 2 * self.params.alpha + 1
        cross = np.zeros(p)
        larger = np.zeros(p // 2 + 1)  # zero for the largest prime: its sweep is +-0
        # Each pair is a temporary, so a rebuilt one is freed before the next is built.
        for q in self.pool.primes:
            if q < p:
                cross += 2.0 / q * self._record(q, p, dims=dims).cross_sweep(self.residues[q][dims])
            elif q > p:
                larger += 2.0 / q ** power * self._record(p, q, dims=dims).row_sums(pow(q, -1, p))
        S = self._record(p, dims=dims).sweep(larger)
        scale = self.params.gamma[dims] ** 2 / p
        theta = scale * S[0]
        return theta, theta + scale * (cross + S[1])

    def choose(self) -> int:
        """Choose and append the residue of the prime that is due."""
        z = select_candidate(*self.t_hat_all(), self.tau)
        self.residues[self._due()[0]].append(z)
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
    The vector carries its e_ran report (`ResidueVector.eran`), read from the
    search's records, which `randomized_error_sq_fixed` returns under params.
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
    # e_ran from the records, read at all d components: one extend each if kept
    report = eran_report(pool.primes, lambda *moduli: state._record(*moduli, dims=d))
    object.__setattr__(v, "eran", (params, report))  # frozen, and set here only
    return v
