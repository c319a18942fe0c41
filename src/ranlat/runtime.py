"""Online randomised integration algorithms and the integrands of `ranlat integrate`.

Randomness comes from a SplitMix64 generator specified bit-exactly below,
so identical (seed, repetitions) configurations reproduce byte-identical
estimate streams on any platform.  Each repetition derives its own stream
from (seed, repetition index), making parallel and serial runs agree.
The scalar `SplitMix64` and `stream_seed` are the specification;
`first_draws_below` evaluates every repetition's first bounded draw as one
uint64 array and replays only the rare rejected draw through them.

`run_rp_cbc` and `run_rp_rv` take `REPETITION_BLOCK` repetitions at a time.
Each repetition still draws from its own scalar stream, in the order of the
one-repetition algorithm; the arithmetic then runs one prime at a time over
every repetition of the block that drew it: the CBC levels of
`cbc.cbc_vectors`, which sweep theta for every vector at every level, or the
worst-case errors of all their tries.  Each block's rules are one call of the
integrand on the stacked points (`lattice_rules`).  Every estimate is bit for
bit the one-repetition value, so the streams do not depend on the block.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import cbc
from .errors import BoundParams, default_lambda_grid, good_set_threshold, worst_case_errors_sq
from .kernels import DomainError, KorobovSpaceParams, exact_sum, sigma_alpha
from .primes import ResidueVector, build_prime_pool

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    """SplitMix64 output mix (Steele/Lea/Flood finaliser)."""
    x &= _MASK64
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    return x ^ (x >> 31)


class SplitMix64:
    """Counter-based 64-bit generator: out_i = mix64(seed + (i+1) * GOLDEN)."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def next_below(self, m: int) -> int:
        """Uniform draw from {0, ..., m-1} by rejection (no modulo bias)."""
        limit = _rejection_limit(m)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % m


def _rejection_limit(m: int) -> int:
    """Outputs below this are kept, so output % m is uniform on {0, ..., m-1}.

    Above 2**64 the limit would be 0 and every output rejected.
    """
    if not 0 < m <= 1 << 64:
        raise DomainError(f"modulus must lie in [1, 2**64], got {m}")
    return (1 << 64) - ((1 << 64) % m)


def stream_seed(seed: int, index: int) -> int:
    """Per-repetition stream seed: mix64(seed) XOR mix64(index + 1)."""
    return _mix64(seed & _MASK64) ^ _mix64((index + 1) & _MASK64)


def _mix64_inplace(x: np.ndarray, tmp: np.ndarray) -> None:
    """`_mix64` of every entry of the uint64 array x, in place; tmp is scratch.

    uint64 array arithmetic wraps modulo 2**64, as the scalar `& _MASK64`
    does, and every operand is a uint64 so no promotion rule can widen it.
    """
    np.right_shift(x, np.uint64(30), out=tmp)
    x ^= tmp
    x *= np.uint64(0xBF58476D1CE4E5B9)
    np.right_shift(x, np.uint64(27), out=tmp)
    x ^= tmp
    x *= np.uint64(0x94D049BB133111EB)
    np.right_shift(x, np.uint64(31), out=tmp)
    x ^= tmp


def first_draws_below(seed: int, reps: int, m: int) -> np.ndarray:
    """SplitMix64(stream_seed(seed, i)).next_below(m) for every i < reps, as uint64.

    The first output of stream i is mix64(stream_seed(seed, i) + GOLDEN), so
    all of them are one array pass.  An output at or above the rejection
    limit (probability below m / 2**64) is replaced by replaying its stream
    through the scalar generator.
    """
    limit = _rejection_limit(m)
    x = np.arange(1, reps + 1, dtype=np.uint64)
    tmp = np.empty_like(x)
    _mix64_inplace(x, tmp)
    x ^= np.uint64(_mix64(seed))
    x += np.uint64(_GOLDEN)
    _mix64_inplace(x, tmp)
    del tmp
    # limit and m may be 2**64, which is no uint64: x >= limit is
    # x > limit - 1, and x % 2**64 is x
    rejected = np.flatnonzero(x > np.uint64(limit - 1))
    if m < 1 << 64:
        np.remainder(x, np.uint64(m), out=x)
    for i in rejected:
        x[i] = SplitMix64(stream_seed(seed, int(i))).next_below(m)
    return x


MAX_TRIES = 10_000  # rejection-sampling tries per `run_rp_rv` repetition
# Repetitions that `run_rp_cbc` and `run_rp_rv` carry through together: their
# working memory, chiefly the stacked rule points, grows with it.
REPETITION_BLOCK = 256


class SamplingFailureError(RuntimeError):
    """Rejection sampling exceeded MAX_TRIES (indicates a threshold bug)."""


@dataclass(frozen=True)
class Integrand:
    """Vectorised integrand on [0,1)^d."""

    evaluate: Callable[[np.ndarray], np.ndarray]  # (m, d) -> (m,)
    d: int

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.evaluate(points)


def constant_integrand(d: int) -> Integrand:
    """f(x) = 1."""
    return Integrand(evaluate=lambda x: np.ones(len(x)), d=d)


def product_cosine(d: int) -> Integrand:
    """f(x) = prod_j (1 + cos(2 pi x_j) / j^2); integral 1."""
    coeffs = 1.0 / np.arange(1, d + 1, dtype=float) ** 2

    def f(x: np.ndarray) -> np.ndarray:
        return np.prod(1.0 + coeffs * np.cos(2.0 * math.pi * x), axis=1)

    return Integrand(evaluate=f, d=d)


def product_bernoulli(params: KorobovSpaceParams) -> Integrand:
    """f(x) = prod_j (1 + gamma_j sigma_alpha(x_j)); integral 1, lies in the space."""
    gam = np.asarray(params.gamma)

    def f(x: np.ndarray) -> np.ndarray:
        return np.prod(1.0 + gam * sigma_alpha(x, params.alpha), axis=1)

    return Integrand(evaluate=f, d=params.d)


@dataclass(frozen=True)
class RunConfig:
    """Seed and repetition count for the online runs, stored as ints."""

    seed: int
    repetitions: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", operator.index(self.seed))
        object.__setattr__(self, "repetitions", operator.index(self.repetitions))
        if self.repetitions < 1:
            raise DomainError("repetitions must be >= 1")


def _stacked_points(ns: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The points {k z_r mod n_r}/n_r, k = 0..n_r-1, of every row r in turn, for
    residues z[r] in [0, n_r): every product k z is below n^2, so no integer
    overflow can occur at supported scales."""
    owner = np.repeat(np.arange(len(ns)), ns)
    k = np.arange(len(owner), dtype=np.int64) - np.repeat(np.cumsum(ns) - ns, ns)
    n = ns[owner, None]
    points = z[owner]
    points *= k[:, None]
    points %= n
    return points / n


def lattice_rules(f: Integrand, ns, z: np.ndarray) -> np.ndarray:
    """lattice_rule(f, ns[r], z[r]) for every row r of the int64 array z of residues
    in [0, ns[r]): f is called once, on the stacked points, and each rule's values
    summed apart."""
    ns = np.asarray(ns, dtype=np.int64)
    if z.shape[-1] != f.d:
        raise DomainError(f"integrand dimension {f.d} != vector dimension {z.shape[-1]}")
    values = f(_stacked_points(ns, z))
    ends = np.cumsum(ns).tolist()
    return np.array([exact_sum(values[end - n:end]) / n for end, n in zip(ends, ns.tolist())])


def lattice_rule(f: Integrand, n: int, z) -> float:
    """Equal-weight average of f over the n-point rank-1 lattice: the one-row
    case of `lattice_rules`, with z reduced modulo n first."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return float(lattice_rules(f, [n], cbc.residue_row(n, z))[0])


def run_rpfv(f: Integrand, v: ResidueVector, cfg: RunConfig) -> np.ndarray:
    """Random-prime fixed-vector algorithm: draw p uniformly, use z* mod p.

    Since each repetition's estimate depends only on the drawn prime, the
    per-prime rule values are computed once and indexed by the draws.  A
    repetition's only draw is the first of its stream, so `first_draws_below`
    draws them all at once, the same values as a loop over `SplitMix64`.
    """
    primes = v.pool.primes
    per_prime = lattice_rules(f, primes, np.array(v.residues, dtype=np.int64))
    return per_prime[first_draws_below(cfg.seed, cfg.repetitions, len(primes))]


def _blocks(cfg: RunConfig):
    """(slice, streams) of `REPETITION_BLOCK` repetitions at a time, in order."""
    for start in range(0, cfg.repetitions, REPETITION_BLOCK):
        block = range(start, min(start + REPETITION_BLOCK, cfg.repetitions))
        yield slice(start, block.stop), [SplitMix64(stream_seed(cfg.seed, i)) for i in block]


def run_rp_cbc(
    f: Integrand,
    n: int,
    params: KorobovSpaceParams,
    tau: float,
    cfg: RunConfig,
) -> np.ndarray:
    """Random-prime random-CBC-vector: z_1 = 1, then each z_s uniform among the
    ceil(tau p) best-theta candidates (`candidate_set`) of the prefix z_1..z_(s-1).

    A candidate set always has ceil(tau p) members, so a repetition's draws do
    not depend on theta: a block's draws come first, then the vectors of each
    prime drawn (`cbc.cbc_vectors`), then the block's rules (`lattice_rules`).
    """
    pool = build_prime_pool(n)
    primes = np.array(pool.primes, dtype=np.int64)
    sizes = [cbc.candidate_count(p, tau) for p in pool.primes]
    out = np.empty(cfg.repetitions)
    for block, rngs in _blocks(cfg):
        which = np.empty(len(rngs), dtype=np.int64)
        draws = np.empty((len(rngs), params.d - 1), dtype=np.int64)
        for r, rng in enumerate(rngs):
            which[r] = j = rng.next_below(len(primes))
            draws[r] = [rng.next_below(sizes[j]) for _ in range(params.d - 1)]
        z = np.empty((len(rngs), params.d), dtype=np.int64)
        for j in np.flatnonzero(np.bincount(which)).tolist():
            rows = which == j
            z[rows] = cbc.cbc_vectors(pool.primes[j], params, sizes[j], draws[rows])
        out[block] = lattice_rules(f, primes[which], z)
    return out


def run_rp_rv(
    f: Integrand,
    n: int,
    params: KorobovSpaceParams,
    tau: float,
    cfg: RunConfig,
) -> np.ndarray:
    """Random-prime random-vector: rejection-sample z uniform over the good set.

    Each try of a block's repetitions draws all its components, and the tries
    of one prime have their errors evaluated together (`worst_case_errors_sq`);
    only the rejected repetitions draw again.  Acceptance probability is at
    least tau, so the MAX_TRIES cap per repetition should never bind; hitting
    it raises SamplingFailureError.
    """
    pool = build_prime_pool(n)
    primes = np.array(pool.primes, dtype=np.int64)
    bounds = BoundParams(tau=tau, lambda_grid=default_lambda_grid(params.alpha))
    thresholds = np.array([good_set_threshold(p, params, bounds) ** 2 for p in pool.primes])
    out = np.empty(cfg.repetitions)
    for block, rngs in _blocks(cfg):
        which = np.array([rng.next_below(len(primes)) for rng in rngs], dtype=np.int64)
        ns = primes[which]
        z = np.empty((len(rngs), params.d), dtype=np.int64)
        pending = np.arange(len(rngs))
        for _ in range(MAX_TRIES):
            for r, m in zip(pending.tolist(), ns[pending].tolist()):
                z[r] = [rngs[r].next_below(m) for _ in range(params.d)]
            accepted = np.empty(len(pending), dtype=bool)
            for j in np.flatnonzero(np.bincount(which[pending])).tolist():
                rows = which[pending] == j
                wce = worst_case_errors_sq(pool.primes[j], z[pending[rows]], params)
                accepted[rows] = wce <= thresholds[j]
            pending = pending[~accepted]
            if not len(pending):
                break
        else:
            raise SamplingFailureError(
                f"no accepted vector for p={ns[pending[0]]} within {MAX_TRIES} tries"
            )
        out[block] = lattice_rules(f, ns, z)
    return out
