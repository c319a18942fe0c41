"""Reference paths: slow, independent evaluations that check the product.

Nothing in the package calls these except `ranlat verify`; the tests read
them as oracles.  Each one computes what a product path computes fast, by a
route that shares as little with it as possible: the point-products
records by a per-point formula, the candidate sweep and theta by direct
O(p^2) sums, a run's pair sweep by a direct sum over (l, k), CBC by
exhaustive argmin, T-hat by a direct sum over (q, l, k), the errors by
truncated dual-lattice sums, and a unit-norm truncated worst-case
integrand.  The scalar SplitMix64 generator is the specification of the
online draws: `runtime.draws_below` takes them many streams at a time, and
must give its bytes.  This module imports the product; the product never
imports it.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .cbc import CbcState, candidate_set
from .errors import BoundParams, _grid_infimum
from .fftconv import ShapeError
from .kernels import DomainError, KorobovSpaceParams, sigma_alpha, zeta
from .primes import PrimePool, ResidueVector, primitive_root
from .runtime import Integrand


# ---------------------------------------------------------------------------
# Point-products records
# ---------------------------------------------------------------------------

def direct_products(
    moduli: tuple[int, ...], params: KorobovSpaceParams, prefix: Iterable[tuple[int, ...]]
) -> np.ndarray:
    """P at every point of the CRT grid of m = prod(moduli), from each point's coordinates:
    the product over the prefix of 1 + gamma_j^2 sigma_alpha(min(c, m - c) / m)."""
    m = math.prod(moduli)
    axes = np.meshgrid(*(np.arange(k, dtype=np.int64) for k in moduli), indexing="ij")
    out = np.ones(moduli)
    for j, z in enumerate(prefix):
        c = sum(a * (zi % k) * (m // k) for a, zi, k in zip(axes, z, moduli)) % m
        out *= 1.0 + params.gamma[j] ** 2 * sigma_alpha(np.minimum(c, m - c) / m, params.alpha)
    return out


def column_order(p: int) -> np.ndarray:
    """The residues k of a prime p in the order a pair's record stores its columns: 0, g^0,
    g^1, ..., g^(p-2) of the smallest primitive root g of p."""
    g = primitive_root(p)
    return np.array([0] + [pow(g, a, p) for a in range(p - 1)])


def expanded_products(state: CbcState) -> np.ndarray:
    """A record's full products over Z_m_1 x ..., in natural order: row a > m_1/2 is the
    stored row m_1 - a at the negated residues of the other axis.  Of a run (q_1, ..., q_r, p),
    each pair's q_i full rows, from its q_i // 2 + 1 stored ones, stacked in order.  A record
    stores each row times the rows it stands for, 1 or 2, and a run its columns in
    `column_order`, both undone here: dividing by 1 or 2 is exact."""
    qs = state.moduli[:-1] or state.moduli
    weight = state.layout.weight.reshape((-1,) + (1,) * (state.grid.ndim - 1))
    stored = state.P_products / weight
    if len(state.moduli) > 1:
        natural = np.empty_like(stored)
        natural[:, column_order(state.moduli[-1])] = stored
        stored = natural
    parts, start = [], 0
    for m in qs:
        k = np.arange(m)
        full = stored[start + np.minimum(k, m - k)]
        if len(state.moduli) > 1:
            n = state.moduli[-1]
            mirror = k > m // 2
            full[mirror] = full[mirror][:, (-np.arange(n)) % n]
        parts.append(full)
        start += m // 2 + 1
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# Candidate sweep, theta and CBC
# ---------------------------------------------------------------------------

def rader_cbc_kernel_naive(
    p: int, values: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """O(p^2) reference evaluation of the candidate sweep."""
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    if v.shape != (p,) or w.shape != (p,):
        raise ShapeError(f"naive kernel expects 1-D inputs of length p={p}")
    k = np.arange(p)
    out = np.empty(p)
    for z in range(p):
        out[z] = float(v[(k * z) % p] @ w)
    return out


def theta_all_naive(state: CbcState) -> np.ndarray:
    """O(p^2) double-loop reference for theta_all."""
    (p,) = state.moduli
    gam2 = state.params.gamma[state.dims] ** 2
    full = np.minimum(np.arange(p), p - np.arange(p))  # P(p - k) = P(k)
    return gam2 / p * rader_cbc_kernel_naive(p, state.grid[full], expanded_products(state))


def pair_sweep_naive(state: CbcState, *zq: int) -> np.ndarray:
    """Direct O(q p^2) sum of `CbcState.pair_sweep` over each pair's full products:
    S[i, z] = sum_{l in Z_q_i, k in Z_p} sigma_alpha(l zq_i / q_i + k z / p) P_i(l, k)."""
    *qs, p = state.moduli
    pairs = np.split(expanded_products(state), np.cumsum(qs)[:-1])
    k = np.arange(p)
    out = np.empty((len(qs), p))
    for i, (q, zi, full) in enumerate(zip(qs, zq, pairs)):
        l = np.arange(q)[:, None]
        for z in range(p):
            c = (l * (zi % q) * p + k * z * q) % (q * p)
            out[i, z] = math.fsum((sigma_alpha(c / (q * p), state.params.alpha) * full).ravel())
    return out


def cbc_construct_naive(p: int, params: KorobovSpaceParams) -> tuple[int, ...]:
    """Oracle CBC: exhaustive per-component argmin via the naive theta sweep."""
    z = [1]
    state = CbcState((p,), params, zip(z))
    for _ in range(2, params.d + 1):
        z.append(int(candidate_set(theta_all_naive(state), 1)[0]))
        state.extend(z[-1])
    return tuple(z)


# ---------------------------------------------------------------------------
# T-hat
# ---------------------------------------------------------------------------

def t_hat_all_naive(
    pool: PrimePool,
    params: KorobovSpaceParams,
    p: int,
    residues: dict[int, list[int]],
) -> np.ndarray:
    """Direct evaluation of T-hat as a sum over (q, l, k), each k row at once; no FFT, no grids.

    residues[p] holds p's s-1 prefix components, which set the dimension s;
    residues[q] holds at least those s-1 for every pool prime, and also z_s
    for q < p.
    """
    s = len(residues[p]) + 1
    alpha = params.alpha
    gam2 = params.gamma[s - 1] ** 2
    k = np.arange(p)
    out = np.zeros(p)

    def prefix_prod(q: int | None, l: int) -> np.ndarray:
        """The prefix product at the points k = 0..p-1, paired with l in Z_q if q is given."""
        prod = np.ones(p)
        for j in range(s - 1):
            x = k * residues[p][j] / p
            if q is not None:
                x += l * residues[q][j] / q
            prod *= 1.0 + params.gamma[j] ** 2 * sigma_alpha(x % 1.0, alpha)
        return prod

    for z in range(p):
        # theta term
        total = gam2 / p * float(sigma_alpha(k * z / p % 1.0, alpha) @ prefix_prod(None, 0))
        # smaller primes
        for q in pool.primes:
            if q >= p:
                continue
            zq = residues[q][s - 1]
            acc = 0.0
            for l in range(q):
                acc += float(sigma_alpha((k * z / p + l * zq / q) % 1.0, alpha) @ prefix_prod(q, l))
            total += 2.0 / q * gam2 / p * acc
        # larger primes
        for q in pool.primes:
            if q <= p:
                continue
            bracket = sum(prefix_prod(q, l) for l in range(q))
            acc = float(sigma_alpha(k * q * z / p % 1.0, alpha) @ bracket)
            total += 2.0 * gam2 / (q ** (2 * alpha + 1) * p) * acc
        out[z] = total
    return out


# ---------------------------------------------------------------------------
# Errors: the CRT point formula and truncated dual-lattice sums
# ---------------------------------------------------------------------------

def crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    """Unique x in [0, m1 m2) with x = r1 (mod m1) and x = r2 (mod m2)."""
    inv = pow(m2, -1, m1)
    return (r2 + m2 * ((r1 - r2) * inv % m1)) % (m1 * m2)


def r_alpha(params: KorobovSpaceParams, h: Sequence[int]) -> float:
    """Frequency weight prod_{j in supp(h)} |h_j|^alpha / gamma_j; 1 for h = 0."""
    out = 1.0
    for j, hj in enumerate(h):
        if hj != 0:
            out *= abs(hj) ** params.alpha / params.gamma[j]
    return out


def omega_weight(h: Sequence[int], v: ResidueVector) -> float:
    """Fraction of pool primes p with h . z^(p) = 0 (mod p)."""
    hits = 0
    for p, res in zip(v.pool.primes, v.residues):
        if sum(hj * zj for hj, zj in zip(h, res, strict=True)) % p == 0:
            hits += 1
    return hits / len(v.pool.primes)


def _residue_weight_table(
    n: int, zj: int, gamma: float, alpha: int, hmax: int
) -> np.ndarray:
    """a[m] = sum over |h| <= hmax with h zj = m (mod n) of r_alpha factor."""
    h = np.arange(-hmax, hmax + 1, dtype=np.int64)
    vals = np.empty(len(h))
    nz = h != 0
    vals[~nz] = 1.0
    vals[nz] = gamma ** 2 / np.abs(h[nz]).astype(float) ** (2 * alpha)
    table = np.zeros(n)
    np.add.at(table, (h * (zj % n)) % n, vals)
    return table


def worst_case_error_sq_truncated(
    n: int, z: Sequence[int], params: KorobovSpaceParams, hmax: int
) -> float:
    """Dual-lattice sum over the box |h_j| <= hmax with h . z = 0 (mod n).

    Exact enumeration of the truncated sum via residue-class accumulation;
    independent of the Bernoulli-kernel point formula.
    """
    acc = _residue_weight_table(n, int(z[0]), params.gamma[0], params.alpha, hmax)
    for j in range(1, params.d):
        nxt = _residue_weight_table(n, int(z[j]), params.gamma[j], params.alpha, hmax)
        combined = np.zeros(n)
        idx = np.arange(n)
        for m in range(n):
            combined[(m + idx) % n] += acc[m] * nxt
        acc = combined
    return float(acc[0]) - 1.0  # remove the h = 0 term


def dual_tail_bound(params: KorobovSpaceParams, hmax: int) -> float:
    """Upper bound on the dual sum over frequencies outside the |h_j| <= hmax box.

    Drops the congruence condition: sum over all h with some |h_j| > hmax of
    r_alpha^{-2}(h) = full product minus in-box product.
    """
    s = 2 * params.alpha
    full = 1.0
    inbox = 1.0
    head = math.fsum(k ** (-float(s)) for k in range(1, hmax + 1))
    for g in params.gamma:
        full *= 1.0 + g * g * 2.0 * zeta(float(s))
        inbox *= 1.0 + g * g * 2.0 * head
    return full - inbox


def randomized_error_sq_truncated(
    v: ResidueVector, params: KorobovSpaceParams, hmax: int
) -> float:
    """Brute-force truncated sum of omega_n^2(h) r_alpha^{-2}(h) over the box.

    Intended for small d only (cost (2 hmax + 1)^d).
    """
    d = params.d
    primes = v.pool.primes
    L = len(primes)
    h1 = np.arange(-hmax, hmax + 1, dtype=np.int64)
    grids = np.meshgrid(*([h1] * d), indexing="ij")
    H = np.stack([g.ravel() for g in grids], axis=1)  # (m, d)
    rinv2 = np.ones(len(H))
    for j in range(d):
        hj = np.abs(H[:, j]).astype(float)
        factor = np.ones(len(H))
        nz = hj != 0
        factor[nz] = params.gamma[j] ** 2 / hj[nz] ** (2 * params.alpha)
        rinv2 *= factor
    omega = np.zeros(len(H))
    for p, res in zip(primes, v.residues):
        dot = np.zeros(len(H), dtype=np.int64)
        for j in range(d):
            dot += H[:, j] * res[j]
        omega += (dot % p == 0).astype(float)
    omega /= L
    mask = np.any(H != 0, axis=1)
    return float(np.sum(omega[mask] ** 2 * rinv2[mask]))


def truncated_extremal(
    v: ResidueVector, params: KorobovSpaceParams, hmax: int
) -> Integrand:
    """Unit-norm truncation of the worst-case fit function for the fixed-vector rule.

    f(x) = (1/c) sum over the |h_j| <= hmax box, h != 0, of
    omega_n(h) r_alpha^{-2}(h) cos(2 pi h . x), with c chosen so ||f|| = 1.
    Integral is 0.
    """
    d = params.d
    h1 = np.arange(-hmax, hmax + 1, dtype=np.int64)
    grids = np.meshgrid(*([h1] * d), indexing="ij")
    H = np.stack([g.ravel() for g in grids], axis=1)
    H = H[np.any(H != 0, axis=1)]
    coeff = np.array(
        [omega_weight(h, v) / r_alpha(params, h) ** 2 for h in H]
    )
    keep = coeff > 0.0
    H, coeff = H[keep], coeff[keep]
    norm = math.sqrt(
        math.fsum(c * c * r_alpha(params, h) ** 2 for c, h in zip(coeff, H))
    )

    def f(x: np.ndarray) -> np.ndarray:
        phase = 2.0 * math.pi * (x @ H.T)
        return (np.cos(phase) @ coeff) / norm

    return Integrand(evaluate=f, d=d)


# ---------------------------------------------------------------------------
# Component thresholds
# ---------------------------------------------------------------------------

def sum_hs_nonzero(params: KorobovSpaceParams, s: int, lam: float) -> float:
    """sum over h in Z^s with h_s != 0 of r_alpha^{-1/lambda}(h), product weights."""
    z2 = 2.0 * zeta(params.alpha / lam)
    out = params.gamma[s - 1] ** (1.0 / lam) * z2
    for j in range(s - 1):
        out *= 1.0 + params.gamma[j] ** (1.0 / lam) * z2
    return out


def component_threshold(
    p: int, s: int, params: KorobovSpaceParams, bounds: BoundParams
) -> float:
    """Theta threshold defining the good set of s-th components.

    inf over lambda of (2 S_s(lambda) / ((1 - tau) p))^(2 lambda) with
    S_s the sum of r_alpha^{-1/lambda} over frequencies with h_s != 0.
    """
    if not 1 <= s <= params.d:
        raise DomainError(f"component index must be in [1, {params.d}], got {s}")

    def fun(lam: float) -> float:
        return (
            2.0 * sum_hs_nonzero(params, s, lam) / ((1.0 - bounds.tau) * p)
        ) ** (2.0 * lam)

    return _grid_infimum(fun, bounds.lambda_grid)


# ---------------------------------------------------------------------------
# SplitMix64: the specification of the online draws
# ---------------------------------------------------------------------------

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
        if not 0 < m <= 1 << 64:  # above 2**64 every output would be rejected
            raise DomainError(f"modulus must lie in [1, 2**64], got {m}")
        limit = (1 << 64) - ((1 << 64) % m)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % m


def stream_seed(seed: int, index: int) -> int:
    """Per-repetition stream seed: mix64(seed) XOR mix64(index + 1)."""
    return _mix64(seed & _MASK64) ^ _mix64((index + 1) & _MASK64)
