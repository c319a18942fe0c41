"""Online randomised integration algorithms and the integrands of `ranlat integrate`.

Randomness comes from SplitMix64 (Steele, Lea & Flood 2014), so identical
(seed, repetitions) configurations reproduce byte-identical estimate streams
on any platform.  Repetition r has its own stream, seeded from (seed, r), and
every online draw is taken by `draws_below`, many streams in one uint64 array
pass.  The scalar generator in `ranlat.oracles` is its specification: the
tests replay every draw against it.

`run_rp_cbc` and `run_rp_rv` take `REPETITION_BLOCK` repetitions at a time,
each drawing in the order of the one-repetition algorithm, then run one prime
at a time over every repetition of the block that drew it: the CBC levels of
`cbc.cbc_vectors` or the worst-case errors of all their tries.  Each block's
rules are one call of the integrand on the stacked points (`lattice_rules`).
Every estimate is bit for bit the one-repetition value, so the streams do not
depend on the block.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import cbc
from .errors import BoundParams, default_lambda_grid, good_set_threshold, worst_case_errors_sq
from .kernels import DomainError, KorobovSpaceParams, exact_sum, sigma_alpha
from .primes import ResidueVector, build_prime_pool

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _mix64_inplace(x: np.ndarray) -> None:
    """The SplitMix64 output mix (Steele/Lea/Flood finaliser) of every entry of the
    uint64 array x, in place: uint64 operands only, so it wraps modulo 2**64."""
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)


@functools.lru_cache(maxsize=64)
def _seed_mix(seed: int) -> np.uint64:
    """mix64(seed mod 2**64), the seed's half of every stream seed, mixed once per seed."""
    s = np.array(seed % (1 << 64), dtype=np.uint64)
    _mix64_inplace(s)
    return s[()]


def _outputs(seed: int, reps: np.ndarray, pos) -> np.ndarray:
    """Output pos (from 0) of each stream reps[i], as uint64: mix64(s + (pos + 1) GOLDEN)
    for the stream seed s = mix64(seed) XOR mix64(reps[i] + 1)."""
    x = np.asarray(reps).astype(np.uint64) + np.uint64(1)
    _mix64_inplace(x)
    x ^= _seed_mix(seed)
    x += np.multiply(np.asarray(pos).astype(np.uint64) + np.uint64(1), _GOLDEN)
    _mix64_inplace(x)
    return x


def draws_below(seed: int, reps: np.ndarray, pos, m) -> tuple[np.ndarray, np.ndarray]:
    """(draws, after): draws[i] uniform on {0, ..., m[i] - 1}, as uint64, from
    stream reps[i] once it is pos[i] outputs in, and after[i] the outputs that
    stream has then consumed; pos and m are each one value per repetition or a
    scalar for all, with 1 <= m < 2**64.  A draw is the first output below the
    rejection limit, reduced mod m, as `oracles.SplitMix64.next_below` specifies:
    one uint64 array pass, which the rejected repetitions (probability below
    m / 2**64 each) take again at their next output."""
    m = np.asarray(m)
    if m.size and not 1 <= int(m.min()) <= int(m.max()) < 1 << 64:
        raise DomainError(f"moduli must lie in [1, 2**64), got {m}")
    m = m.astype(np.uint64)
    keep = ~(-m % m)  # the largest kept output, 2**64 - 1 - 2**64 % m
    x = _outputs(seed, reps, pos)
    redraw = np.flatnonzero(x > keep)
    np.remainder(x, m, out=x)
    after = np.ones(len(x), dtype=np.int64) + pos
    while len(redraw):
        out = _outputs(seed, reps[redraw], after[redraw])
        after[redraw] += 1
        m_r, keep_r = (m[redraw], keep[redraw]) if m.ndim else (m, keep)
        kept = out <= keep_r
        x[redraw[kept]] = (out % m_r)[kept]
        redraw = redraw[~kept]
    return x, after


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
    repetition's only draw is the first of its stream, so every repetition's
    prime is one `draws_below` pass.
    """
    primes = v.pool.primes
    per_prime = lattice_rules(f, primes, np.array(v.residues, dtype=np.int64))
    return per_prime[draws_below(cfg.seed, np.arange(cfg.repetitions), 0, len(primes))[0]]


def _blocks(cfg: RunConfig):
    """The indices of `REPETITION_BLOCK` repetitions at a time, in order."""
    for start in range(0, cfg.repetitions, REPETITION_BLOCK):
        yield np.arange(start, min(start + REPETITION_BLOCK, cfg.repetitions))


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
    sizes = np.array([cbc.candidate_count(p, tau) for p in pool.primes])
    out = np.empty(cfg.repetitions)
    for reps in _blocks(cfg):
        which, pos = draws_below(cfg.seed, reps, 0, len(primes))
        z = np.empty((len(reps), params.d), dtype=np.int64)
        for s in range(1, params.d):  # the draw of z_s, replaced by z_s below
            z[:, s], pos = draws_below(cfg.seed, reps, pos, sizes[which])
        for j in np.unique(which).tolist():
            rows = which == j
            z[rows] = cbc.cbc_vectors(pool.primes[j], params, int(sizes[j]), z[rows, 1:])
        out[reps] = lattice_rules(f, primes[which], z)
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
    for reps in _blocks(cfg):
        which, pos = draws_below(cfg.seed, reps, 0, len(primes))
        ns = primes[which]
        z = np.empty((len(reps), params.d), dtype=np.int64)
        pending = np.arange(len(reps))
        for _ in range(MAX_TRIES):
            for s in range(params.d):
                z[pending, s], pos[pending] = draws_below(
                    cfg.seed, reps[pending], pos[pending], ns[pending])
            accepted = np.empty(len(pending), dtype=bool)
            for j in np.unique(which[pending]).tolist():
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
        out[reps] = lattice_rules(f, ns, z)
    return out
