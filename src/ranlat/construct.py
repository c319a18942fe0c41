"""Prime-by-prime construction of the fixed generating vector.

Implements the component-by-component, prime-by-prime search that minimises
the cross-prime criterion T-hat over the ceil(tau p) candidates with the
smallest theta, for each prime of the budget pool in ascending order.

Right after prime p's residue is chosen, it is folded into each pair table
P(q, p), q < p, whose row sums feed q's next larger-prime terms.  The tables
are then kept (Theta(sum_{q<p} q p) floats) if they fit in half of physical
memory, else rebuilt from the chosen prefix at the next dimension; both
give bit-identical vectors.  The sweep rows and the fold read each pair's
CRT-ordered sigma grid through row and column permutations (`residue_perm`).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .cbc import TIE_RTOL, CbcState, argmin_first, theta_all
from .errors import DomainError, pair_sigma_grid, pair_table
from .fftconv import rader_cbc_kernel
from .kernels import KorobovSpaceParams, sigma_alpha
from .primes import PrimePool, ResidueVector, build_prime_pool, residue_perm


class SequencingError(RuntimeError):
    """A residue was requested out of the dimension-by-dimension, ascending prime order."""


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


def select_candidate(theta: np.ndarray, t_hat: np.ndarray, tau: float) -> int:
    """Residue choice: T-hat-minimiser among the `candidate_set` of theta.

    T-hat ties resolve to the smaller index, as in `argmin_first`.
    """
    if len(t_hat) != len(theta):
        raise DomainError("theta and t_hat must have equal length")
    candidates = np.sort(candidate_set(theta, tau))
    return int(candidates[argmin_first(t_hat[candidates])])


def estimate_cached_bytes(pool: PrimePool) -> int:
    """Bytes for the pair product tables plus the pair sigma grids."""
    total = 0
    primes = pool.primes
    for i, p in enumerate(primes):
        for q in primes[i + 1 :]:
            total += 2 * 8 * p * q
    return total


def physical_memory_bytes() -> int:
    """Installed physical memory of the machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


@dataclass
class ConstructionState:
    """All tables needed by the per-(dimension, prime) search step.

    single[p] is prime p's CBC state and the only record of where p stands:
    its chosen residues, hence its next dimension, and its running point products.
    tables[(q, p)] holds a sigma grid and pair table P(q, p), q < p, kept if
    keep_tables (set from physical memory); folded[p] p's larger-prime weights.
    """

    pool: PrimePool
    params: KorobovSpaceParams
    tau: float

    keep_tables: bool = field(init=False)
    single: dict[int, CbcState] = field(init=False)
    tables: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = field(init=False)
    folded: dict[int, np.ndarray] = field(init=False)

    def __post_init__(self) -> None:
        # Keep the pair tables only if they fit in half of physical memory: the
        # other half holds what runs beside them, that is, one prime's partner
        # tables with their permuted sigma rows and FFT spectra during a choice,
        # the e_ran evaluation that usually follows, and other processes.
        self.keep_tables = 2 * estimate_cached_bytes(self.pool) <= physical_memory_bytes()
        primes = self.pool.primes
        alpha = self.params.alpha
        self.single = {p: CbcState(p=p, params=self.params) for p in primes}
        for state in self.single.values():
            state.extend(1)
        self.tables = {}
        # With z_1 = 1, sum_{l in Z_q} sigma(x + l/q) = q^(1 - 2 alpha) sigma(q x)
        # (the sum over l keeps the frequencies divisible by q), so the row
        # sums of P(p, q) are known before any pair table is built.
        g1sq = self.params.gamma[0] ** 2
        self.folded = {p: np.zeros(p) for p in primes}
        for i, p in enumerate(primes):
            for q in primes[i + 1 :]:
                sigma = self.single[p].sigma_table[residue_perm(p, q)]
                self._fold_row_sums(p, q, q + g1sq * q ** (1 - 2 * alpha) * sigma)

    @property
    def residues(self) -> dict[int, list[int]]:
        """Chosen residues per prime; a prime chosen at dimension s holds z_s."""
        return {p: state.z_prefix for p, state in self.single.items()}

    def _fold_row_sums(self, p: int, q: int, row_sums: np.ndarray) -> None:
        """Add the row sums of P(p, q), q > p, to p's larger-prime weights.

        Since sum_k sigma(k q z / p) w(k) = sum_k sigma(k z / p) w(k q^-1 mod p),
        all larger primes share one sweep against sigma(k z / p).
        """
        self.folded[p] += (
            2.0 / q ** (2 * self.params.alpha + 1) * row_sums[residue_perm(p, pow(q, -1, p))]
        )

    def _partner_tables(self, p: int) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """(q, sigma grid, P(q, p) over the prefix s-1) for every smaller prime q.

        Raises unless s <= d, every smaller prime has its z_s and every larger
        one z_{s-1}.
        """
        s = self.single[p].s
        for q, state in self.single.items():
            if s > self.params.d or state.s != (s + 1 if q < p else s):
                raise SequencingError(
                    f"prime {p} at dimension {s} of {self.params.d}; prime {q} at {state.s}"
                )
        partners = []
        for q in self.pool.primes:
            if q >= p:
                break
            entry = self.tables.get((q, p))
            if entry is None:
                grid = pair_sigma_grid(q, p, self.params.alpha)
                table = pair_table(
                    q, p,
                    self.single[q].z_prefix[: s - 1],
                    self.single[p].z_prefix[: s - 1],
                    self.params, grid,
                )
                entry = (grid, table)
            partners.append((q, *entry))
        return partners

    # -- criteria ------------------------------------------------------------

    def theta_all(self, p: int) -> np.ndarray:
        return theta_all(self.single[p])

    def t_hat_all(
        self,
        p: int,
        theta: np.ndarray | None = None,
        partners: list[tuple[int, np.ndarray, np.ndarray]] | None = None,
    ) -> np.ndarray:
        """T-hat for every candidate residue z in Z_p at the current dimension.

        Adds to theta (computed here unless given) the cross-prime
        corrections.  Each smaller prime q contributes one batched Rader
        sweep over the residue classes of q, summed in the frequency domain;
        all larger primes share one sweep over p's folded weights.
        """
        s = self.single[p].s
        gam2 = self.params.gamma[s - 1] ** 2
        if theta is None:
            theta = self.theta_all(p)
        if partners is None:
            partners = self._partner_tables(p)
        cross = np.zeros(p)
        for q, grid, table in partners:
            # v[l, m] = sigma((l zq/q + m/p) mod 1), batched over l
            v = grid[residue_perm(q, self.single[q].z_prefix[s - 1])]
            cross += (2.0 / q) * rader_cbc_kernel(p, v, table)
        if p < self.pool.primes[-1]:
            cross += rader_cbc_kernel(p, self.single[p].sigma_table, self.folded[p])
        return theta + gam2 / p * cross

    # -- stepping ------------------------------------------------------------

    def choose(self, p: int) -> int:
        """Choose p's residue, then fold it into p's partner tables.

        The fold is skipped at the last dimension, where nothing reads it.
        """
        partners = self._partner_tables(p)
        s = self.single[p].s
        theta = self.theta_all(p)
        z = select_candidate(theta, self.t_hat_all(p, theta, partners), self.tau)
        self.single[p].extend(z)
        gam2 = self.params.gamma[s - 1] ** 2
        self.folded[p] = np.zeros(p)
        while partners:  # popping frees each old table once it is folded
            q, grid, table = partners.pop()
            self.tables.pop((q, p), None)
            if s == self.params.d:
                continue
            rows = residue_perm(q, self.single[q].z_prefix[s - 1])
            table = table * (1.0 + gam2 * grid[rows][:, residue_perm(p, z)])
            self._fold_row_sums(q, p, table.sum(axis=1))
            if self.keep_tables:
                self.tables[(q, p)] = (grid, table)
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


# ---------------------------------------------------------------------------
# Naive reference (oracle) evaluation of T-hat
# ---------------------------------------------------------------------------

def t_hat_all_naive(
    pool: PrimePool,
    params: KorobovSpaceParams,
    p: int,
    residues: dict[int, list[int]],
) -> np.ndarray:
    """Direct triple-loop evaluation of T-hat over (q, l, k); no FFT, no grids.

    residues[p] holds p's s-1 prefix components, which set the dimension s;
    residues[q] holds at least those s-1 for every pool prime, and also z_s
    for q < p.
    """
    s = len(residues[p]) + 1
    alpha = params.alpha
    gam2 = params.gamma[s - 1] ** 2
    out = np.zeros(p)

    def prefix_prod(k: int, q: int | None, l: int | None) -> float:
        prod = 1.0
        for j in range(s - 1):
            x = k * residues[p][j] / p
            if q is not None:
                x += l * residues[q][j] / q
            prod *= 1.0 + params.gamma[j] ** 2 * sigma_alpha(x % 1.0, alpha)
        return prod

    for z in range(p):
        # theta term
        acc = 0.0
        for k in range(p):
            acc += sigma_alpha(k * z / p % 1.0, alpha) * prefix_prod(k, None, None)
        total = gam2 / p * acc
        # smaller primes
        for q in pool.primes:
            if q >= p:
                continue
            zq = residues[q][s - 1]
            acc = 0.0
            for l in range(q):
                for k in range(p):
                    acc += sigma_alpha(
                        (k * z / p + l * zq / q) % 1.0, alpha
                    ) * prefix_prod(k, q, l)
            total += 2.0 / q * gam2 / p * acc
        # larger primes
        for q in pool.primes:
            if q <= p:
                continue
            acc = 0.0
            for k in range(p):
                bracket = sum(prefix_prod(k, q, l) for l in range(q))
                acc += sigma_alpha(k * q * z / p % 1.0, alpha) * bracket
            total += 2.0 * gam2 / (q ** (2 * alpha + 1) * p) * acc
        out[z] = total
    return out
