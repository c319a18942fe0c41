"""Prime-by-prime construction of the fixed generating vector.

Implements the component-by-component, prime-by-prime search that minimises
the cross-prime criterion T-hat over the ceil(tau p) candidates with the
smallest theta, for each prime of the budget pool in ascending order.

Cached mode keeps one product table per prime pair in memory
(Theta(sum_{p<q} p q) floats); streaming mode recomputes pair tables from
the chosen prefix on demand and produces bit-identical vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cbc import TIE_RTOL
from .errors import DomainError, pair_index, pair_sigma_grid, pair_table
from .fftconv import rader_cbc_kernel, rader_cbc_sum
from .kernels import KorobovSpaceParams, sigma_alpha
from .primes import PrimePool, ResidueVector, build_prime_pool

DEFAULT_MEMORY_BUDGET = 8 << 30  # bytes


class CapacityError(RuntimeError):
    """Cached pair tables would exceed the memory budget; use streaming mode."""


class SequencingError(RuntimeError):
    """A T-hat evaluation was requested before earlier residues were chosen."""


def select_candidate(theta: np.ndarray, t_hat: np.ndarray, tau: float) -> int:
    """Residue choice: T-hat-minimiser among the ceil(tau p) smallest-theta candidates.

    Values within relative TIE_RTOL of each other count as tied.  Theta
    values tied with the ceil(tau p)-th smallest fill the candidate set in
    index order; T-hat ties resolve to the smaller index.
    """
    p = len(theta)
    if len(t_hat) != p:
        raise DomainError("theta and t_hat must have equal length")
    if not 0.0 < tau < 1.0:
        raise DomainError(f"tau must lie in (0, 1), got {tau}")
    m = math.ceil(tau * p)
    edge = np.sort(theta)[m - 1]
    tol = TIE_RTOL * abs(edge)
    below = np.flatnonzero(theta < edge - tol)
    tied = np.flatnonzero(np.abs(theta - edge) <= tol)
    candidates = np.concatenate([below, tied[: m - len(below)]])
    vals = t_hat[candidates]
    best = vals.min()
    return int(candidates[vals <= best + TIE_RTOL * abs(best)].min())


def estimate_cached_bytes(pool: PrimePool) -> int:
    """Bytes for the pair product tables plus the pair sigma grids."""
    total = 0
    primes = pool.primes
    for i, p in enumerate(primes):
        for q in primes[i + 1 :]:
            total += 2 * 8 * p * q
    return total


@dataclass
class ConstructionState:
    """All tables needed by the per-(dimension, prime) search step.

    Residues are stored per prime as growing lists; `chosen_this_dim` tracks
    which primes already have their component for the current dimension.
    """

    pool: PrimePool
    params: KorobovSpaceParams
    tau: float
    cached: bool

    residues: dict[int, list[int]] = field(init=False)
    sigma_p: dict[int, np.ndarray] = field(init=False)
    P_single: dict[int, np.ndarray] = field(init=False)
    sigma_pq: dict[tuple[int, int], np.ndarray] = field(init=False)
    P_pair: dict[tuple[int, int], np.ndarray] = field(init=False)
    # dimension currently being chosen; z_1 = 1 is fixed at init
    s: int = field(init=False, default=2)
    chosen_this_dim: dict[int, int] = field(init=False)

    def __post_init__(self) -> None:
        primes = self.pool.primes
        alpha = self.params.alpha
        self.sigma_p = {
            p: sigma_alpha(np.arange(p) / p, alpha) for p in primes
        }
        # z_1 = 1 for every prime.
        self.residues = {p: [1] for p in primes}
        g1sq = self.params.gamma[0] ** 2
        self.P_single = {p: 1.0 + g1sq * self.sigma_p[p] for p in primes}
        self.sigma_pq = {}
        self.P_pair = {}
        if self.cached:
            for i, p in enumerate(primes):
                for q in primes[i + 1 :]:
                    grid = pair_sigma_grid(p, q, alpha)
                    self.sigma_pq[(p, q)] = grid
                    self.P_pair[(p, q)] = pair_table(
                        p, q, [1], [1], self.params, grid
                    )
        self.chosen_this_dim = {}

    # -- pair-table access (cached or recomputed) ---------------------------

    def _pair(self, p: int, q: int) -> np.ndarray:
        """Product table oriented (k in Z_p, l in Z_q), prefix of length s-1."""
        key, transpose = ((p, q), False) if p < q else ((q, p), True)
        if self.cached:
            table = self.P_pair[key]
        else:
            a, b = key
            grid = pair_sigma_grid(a, b, self.params.alpha)
            table = pair_table(
                a, b,
                self.residues[a][: self.s - 1],
                self.residues[b][: self.s - 1],
                self.params, grid,
            )
        return table.T if transpose else table

    # -- criteria ------------------------------------------------------------

    def theta_all(self, p: int) -> np.ndarray:
        gam2 = self.params.gamma[self.s - 1] ** 2
        S = rader_cbc_kernel(
            p, self.pool.root_of(p), self.sigma_p[p], self.P_single[p]
        )
        return gam2 / p * S

    def t_hat_all(self, p: int, theta: np.ndarray | None = None) -> np.ndarray:
        """T-hat for every candidate residue z in Z_p at the current dimension.

        Adds to theta (computed here unless given) the cross-prime
        corrections.  Each smaller prime q contributes one batched Rader
        sweep over the residue classes of q, summed in the frequency domain.
        All larger primes share one sweep against sigma(k z / p): since
        sum_k sigma(k q z / p) w(k) = sum_k sigma(k z / p) w(k q^-1 mod p),
        their pair-table row sums fold into a single weight row.
        """
        s = self.s
        gam2 = self.params.gamma[s - 1] ** 2
        g = self.pool.root_of(p)
        alpha = self.params.alpha
        if theta is None:
            theta = self.theta_all(p)
        k = np.arange(p, dtype=np.int64)
        cross = np.zeros(p)
        folded = np.zeros(p)  # weights of the larger-prime terms against sigma_p
        for q in self.pool.primes:
            if q == p:
                continue
            table = self._pair(p, q)  # (p, q)
            if q < p:
                if q not in self.chosen_this_dim:
                    raise SequencingError(
                        f"residue for prime {q} at dimension {s} not chosen yet"
                    )
                zq = self.chosen_this_dim[q]
                grid = (
                    self.sigma_pq[(q, p)]
                    if self.cached
                    else pair_sigma_grid(q, p, alpha)
                )
                # v[l, m] = sigma((l zq/q + m/p) mod 1), batched over l
                v = grid[pair_index(q, p, zq, 1)]
                cross += (2.0 / q) * rader_cbc_sum(p, g, v, table.T)
            else:
                row_sums = table.sum(axis=1)  # (p,)
                folded += 2.0 / q ** (2 * alpha + 1) * row_sums[k * pow(q, -1, p) % p]
        if p < self.pool.primes[-1]:
            cross += rader_cbc_kernel(p, g, self.sigma_p[p], folded)
        return theta + gam2 / p * cross

    # -- stepping ------------------------------------------------------------

    def choose(self, p: int) -> int:
        theta = self.theta_all(p)
        z = select_candidate(theta, self.t_hat_all(p, theta), self.tau)
        self.chosen_this_dim[p] = z
        return z

    def finish_dimension(self) -> None:
        """Fold this dimension's residues into all product tables."""
        s = self.s
        gam2 = self.params.gamma[s - 1] ** 2
        for p in self.pool.primes:
            z = self.chosen_this_dim[p]
            self.residues[p].append(z)
            k = (np.arange(p, dtype=np.int64) * z) % p
            self.P_single[p] = self.P_single[p] * (1.0 + gam2 * self.sigma_p[p][k])
        if self.cached:
            primes = self.pool.primes
            for i, p in enumerate(primes):
                for q in primes[i + 1 :]:
                    idx = pair_index(
                        p, q, self.chosen_this_dim[p], self.chosen_this_dim[q]
                    )
                    self.P_pair[(p, q)] = self.P_pair[(p, q)] * (
                        1.0 + gam2 * self.sigma_pq[(p, q)][idx]
                    )
        self.chosen_this_dim = {}
        self.s += 1


def construct_fixed_vector(
    n: int,
    d: int,
    params: KorobovSpaceParams,
    tau: float = 0.5,
    mode: str = "auto",
    memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET,
) -> ResidueVector:
    """Build the fixed generating vector for budget n (primes in (n/2, n]).

    z_1 = 1 for every prime; for s = 2..d and each pool prime ascending, the
    residue is the T-hat minimiser among the ceil(tau p) best-theta candidates.
    mode is one of "cached", "streaming", "auto" (cached when the estimated
    table memory fits the budget).
    """
    if not 0.0 < tau < 1.0:
        raise DomainError(f"tau must lie in (0, 1), got {tau}")
    if d != params.d:
        raise DomainError(f"dimension mismatch: d={d} vs params.d={params.d}")
    pool = build_prime_pool(n)
    est = estimate_cached_bytes(pool)
    if mode == "auto":
        cached = est <= memory_budget_bytes
    elif mode == "cached":
        if est > memory_budget_bytes:
            raise CapacityError(
                f"cached mode needs ~{est} bytes (> budget {memory_budget_bytes}); "
                "use streaming mode"
            )
        cached = True
    elif mode == "streaming":
        cached = False
    else:
        raise DomainError(f"unknown mode {mode!r}")

    state = ConstructionState(pool=pool, params=params, tau=tau, cached=cached)
    for _ in range(2, d + 1):
        for p in pool.primes:
            state.choose(p)
        state.finish_dimension()
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
    s: int,
    p: int,
    residues: dict[int, list[int]],
    chosen_this_dim: dict[int, int],
) -> np.ndarray:
    """Direct triple-loop evaluation of T-hat over (q, l, k); no FFT, no grids.

    residues[q] holds the s-1 prefix components for every pool prime;
    chosen_this_dim[q] the already-fixed dimension-s residues for q < p.
    """
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
            zq = chosen_this_dim[q]
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
