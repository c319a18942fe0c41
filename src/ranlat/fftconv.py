"""Rader-style candidate sweep for the CBC search criteria.

The sweep S[z] = sum_k values[(k z) mod p] weights[k] over all z in Z_p is
a multiplicative sum.  Reindexing the nonzero residues by powers of the
smallest primitive root of p turns it into a cyclic correlation of length
p - 1, computed with unpadded real FFTs in O(p log p), or of half that
length when both inputs are even functions on Z_p, as the CBC search's
sigma grids and point products are.  The reindexing is built once per prime
and cached as a `RaderPlan`.  `rader_cbc_kernel` sums the sweeps of paired
rows of values and weights; `rader_sweeps` sweeps each row of weights on its
own against one table of values, which is the one-prime search's theta.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .primes import primitive_root


class ShapeError(ValueError):
    """Raised on mismatched array shapes."""


def power_permutation(p: int, g: int) -> np.ndarray:
    """powers[a] = g^a mod p for a = 0..p-2."""
    out = np.empty(p - 1, dtype=np.int64)
    acc = 1
    for a in range(p - 1):
        out[a] = acc
        acc = acc * g % p
    return out


@dataclass(frozen=True)
class RaderPlan:
    """Rader reindexing of the nonzero residues mod p by its smallest primitive root g.

    powers[a] = g^a mod p orders the summation index k; lag[z - 1] = b, where
    z = g^-b mod p, is the correlation lag whose value the candidate z takes;
    half[a] = min(g^a, p - g^a), a < (p - 1) / 2, orders the entries of an even k,
    and half_lag is lag modulo that period.
    """

    powers: np.ndarray
    lag: np.ndarray
    half: np.ndarray
    half_lag: np.ndarray


@functools.lru_cache(maxsize=1024)
def rader_plan(p: int) -> RaderPlan:
    """Cached plan for prime p; a composite p raises `NotPrimeError`."""
    powers = power_permutation(p, primitive_root(p))
    L = p - 1
    lag = np.empty(L, dtype=np.int64)
    lag[powers[(-np.arange(L)) % L] - 1] = np.arange(L)
    half = np.minimum(powers, p - powers)[: L // 2]
    half_lag = lag % max(L // 2, 1)  # p = 2 has no half layout
    for a in (powers, lag, half, half_lag):
        a.flags.writeable = False
    return RaderPlan(powers=powers, lag=lag, half=half, half_lag=half_lag)


def _layout(p: int, n: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(fold, order, lag) of entries 0..n-1 of a function on Z_p: order lists the
    entries of one period in Rader order, fold counts the residues per entry k != 0,
    and lag[z - 1] is the lag within the period that z = 1..p-1 reads.

    A last axis of length p // 2 + 1 < p holds even functions' entries 0..p // 2;
    with g^((p-1)/2) = -1 they have period (p - 1) / 2 in Rader order.
    """
    if n not in (p, p // 2 + 1):
        raise ShapeError(f"the last axis must have length p={p} or p // 2 + 1, got {n}")
    plan = rader_plan(p)
    return (2, plan.half, plan.half_lag) if n < p else (1, plan.powers, plan.lag)


def _assemble(p: int, fold: int, lag: np.ndarray, c: np.ndarray, c0, s0) -> np.ndarray:
    """S[..., z] from the cyclic correlation c[..., b] over one period, the k = 0 term
    c0[...] = values[0] weights[..., 0] and s0[...] = values[0] sum_k weights[..., k];
    S[..., z] == S[..., p - z] if fold is 2."""
    S = np.empty(c.shape[:-1] + (p,))
    S[..., 0] = fold * s0 - (fold - 1) * c0
    S[..., 1:] = (c0[..., None] + fold * c).take(lag, axis=-1)
    return S


def rader_cbc_kernel(p: int, values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """S[z] = sum_{k in Z_p} values[(k z) mod p] * weights[k] for every z in Z_p.

    values and weights share one shape; S sums over its leading batch axes and
    has shape (p,).  The k = 0 and z = 0 terms are split off, and reindexing
    k = g^a, z = g^-b leaves a cyclic correlation of length p - 1, whose batch
    spectra are summed before one inverse transform.  The last axis holds all p
    entries, or entries 0..p // 2 of even functions (`_layout`).
    """
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    if v.shape != w.shape:
        raise ShapeError("values and weights must share one shape")
    n = v.shape[-1]
    fold, order, lag = _layout(p, n)
    v = v.reshape(-1, n)
    w = w.reshape(-1, n)
    # c[b] = sum_rows sum_a v[g^(a-b)] w[g^a], a over one period
    spec = np.fft.rfft(v[:, order])
    np.conjugate(spec, out=spec)
    spec *= np.fft.rfft(w[:, order])
    c = np.fft.irfft(spec.sum(axis=0), len(order))
    v0 = v[:, 0]
    return _assemble(p, fold, lag, c, v0 @ w[:, 0], v0 @ w.sum(axis=1))


def rader_sweeps(p: int, values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """S[..., z] = sum_{k in Z_p} values[(k z) mod p] * weights[..., k] for every z in Z_p:
    one sweep per row of weights, all against the one table values.

    Shape weights.shape[:-1] + (p,); one row of weights gives shape (p,).  The
    table's spectrum is taken once, and each row has its own inverse transform.
    The spectra multiply as conj(table) * row, the operand order of
    `rader_cbc_kernel`: complex products need not be bit-commutative.
    """
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    n = v.shape[-1]
    if v.shape != (n,) or w.shape[-1:] != (n,):
        raise ShapeError("values must be one table, weights rows of its length")
    fold, order, lag = _layout(p, n)
    spec = np.conjugate(np.fft.rfft(v[order])) * np.fft.rfft(w[..., order])
    c = np.fft.irfft(spec, len(order))
    return _assemble(p, fold, lag, c, v[0] * w[..., 0], v[0] * w.sum(axis=-1))
