"""Rader-style candidate sweep for the CBC search criteria.

The sweep S[z] = sum_k values[(k z) mod p] weights[k] over all z in Z_p is
a multiplicative sum.  Reindexing the nonzero residues by powers of the
smallest primitive root of p turns it into a cyclic correlation of length
p - 1, computed with unpadded real FFTs in O(p log p), or of half that
length when both inputs are even functions on Z_p, as the CBC search's sigma
grids and point products are (entries 0..p // 2, the weights times the residues
each stands for).  `rader_plan` builds the reindexing once per prime and layout.
The sweep has one body, `rader_correlation`: it contracts R tables of values with
R rows of weights, both already in Rader order, for any batch of such row sets,
and sums the tables in one total or in consecutive runs, one result row per run.
A run of prime pairs sharing their larger prime, whose records are stored in
Rader order, is one call of it.  `rader_cbc_kernel` takes tables and rows in
natural order, reindexes them into Rader order and calls it.
"""

from __future__ import annotations

import functools

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


@functools.lru_cache(maxsize=1024)
def rader_plan(p: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (order, lag) of entries 0..n-1 of a function on Z_p, reindexed by the
    smallest primitive root g of p; a composite p raises `NotPrimeError`.

    order lists the entries in Rader order: k = 0 first, then one period of k = g^a;
    lag[z - 1] = b, where z = g^-b mod p, is the lag within the period whose
    correlation value the candidate z takes.  A last axis of length n = p holds all
    entries; n = p // 2 + 1 < p holds even functions' entries 0..p // 2, which with
    g^((p-1)/2) = -1 have period (p - 1) / 2 in Rader order.
    """
    if n not in (p, p // 2 + 1):
        raise ShapeError(f"the last axis must have length p={p} or p // 2 + 1, got {n}")
    period = power_permutation(p, primitive_root(p))
    L = p - 1
    lag = np.empty(L, dtype=np.int64)
    lag[period[(-np.arange(L)) % L] - 1] = np.arange(L)
    if n < p:  # p = 2 keeps the full layout: there p // 2 + 1 == p
        period = np.minimum(period, p - period)[: L // 2]
        lag %= L // 2
    order = np.concatenate(([0], period))
    order.flags.writeable = lag.flags.writeable = False
    return order, lag


def rader_cbc_kernel(p: int, values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """S[..., z] = sum_r sum_{k in Z_p} values[r, (k z) mod p] * weights[..., r, k], z in Z_p.

    values holds R tables, shape (R, n), and weights R rows per batch entry, shape
    (..., R, n); S has shape (..., p).  The last axis holds all p entries, or entries
    0..p // 2 of even functions (`rader_plan`), the weights times the residues each
    entry stands for, k and p - k, in natural order: they are reindexed into Rader
    order and correlated by `rader_correlation`.
    """
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    if v.ndim != 2 or w.shape[-2:] != v.shape:
        raise ShapeError("values must be R tables, shape (R, n), and weights (..., R, n)")
    order = rader_plan(p, v.shape[-1])[0]
    return rader_correlation(p, v.take(order, axis=-1), w.take(order, axis=-1))


def rader_correlation(p: int, values: np.ndarray, weights: np.ndarray, starts=None) -> np.ndarray:
    """`rader_cbc_kernel` of tables and rows whose last axis is in Rader order: entry 0
    is k = 0 and entry 1 + a is k = g^a, a over one period (`rader_plan`).

    Given segment starts, the indices at which consecutive runs of tables begin
    (starts[0] = 0), each run is summed apart and S has shape (..., len(starts), p),
    one row per run.  The k = 0 and z = 0 terms are split off, the z = 0 term summing
    each row of weights in the given order, and k = g^a, z = g^-b leave a cyclic
    correlation of length n - 1, whose spectra multiply as conj(table) * row (complex
    products need not be bit-commutative) and are summed over r before one inverse
    transform per sum.
    """
    v, w = values, weights
    lag = rader_plan(p, v.shape[-1])[1]
    # c[..., b] = sum_r sum_a v[r, g^(a-b)] w[..., r, g^a], a over one period
    table, spec = np.fft.rfft(v[:, 1:]), np.fft.rfft(w[..., 1:])
    np.multiply(np.conjugate(table, out=table), spec, out=spec)  # conj(table) * row
    # the k = 0 terms: c0 = sum_r v[r, 0] w[..., r, 0], s0 = sum_r v[r, 0] sum_k w[..., r, k]
    if len(v) == 1:  # one table: each term is its own sum
        c0, s0 = w[..., 0] * v[0, 0], w.sum(axis=-1) * v[0, 0]
    else:  # each run of tables summed in order, apart from the others
        at = [0] if starts is None else starts
        spec = np.add.reduceat(spec, at, axis=-2)
        c0 = np.add.reduceat(w[..., 0] * v[:, 0], at, axis=-1)
        s0 = np.add.reduceat(w.sum(axis=-1) * v[:, 0], at, axis=-1)
    c = np.fft.irfft(spec, v.shape[-1] - 1)
    S = np.empty(c.shape[:-1] + (p,))
    S[..., 0] = s0
    S[..., 1:] = (c0[..., None] + c).take(lag, axis=-1)  # S[..., z] == S[..., p - z] if n < p
    return S[..., 0, :] if starts is None else S
