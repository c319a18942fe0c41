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
It takes the tables as their transform, `rader_table`: their k = 0 column and the
conjugated spectrum of their period.  The caller owns the tables and builds the
transform, so a table read by many sweeps, a prime's sigma table, is transformed
once (`cbc.single_sigma_table`), and a run of prime pairs sharing their larger
prime transforms the grid rows it gathered for its sweep.  `rader_cbc_kernel`
takes tables and rows in natural order, reindexes them into Rader order and
calls the body.
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
    return rader_correlation(p, rader_table(v.take(order, axis=-1)), w.take(order, axis=-1))


def rader_table(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values[:, 0], conj(rfft(values[:, 1:]))) of R tables, shape (R, n), in Rader order:
    the transform `rader_correlation` takes, their k = 0 entries and the conjugated
    spectrum of their period.  The first is a view of values."""
    spec = np.fft.rfft(values[:, 1:])
    return values[:, 0], np.conjugate(spec, out=spec)


def rader_correlation(p: int, table: tuple[np.ndarray, np.ndarray], weights: np.ndarray,
                      starts=None) -> np.ndarray:
    """`rader_cbc_kernel` of R tables, given as their `rader_table`, and rows of weights
    whose last axis is in Rader order: entry 0 is k = 0 and entry 1 + a is k = g^a, a
    over one period (`rader_plan`).

    Given segment starts, the indices at which consecutive runs of tables begin
    (starts[0] = 0), each run is summed apart and S has shape (..., len(starts), p),
    one row per run.  The k = 0 and z = 0 terms are split off, the z = 0 term summing
    each row of weights in the given order, and k = g^a, z = g^-b leave a cyclic
    correlation of length n - 1, whose spectra multiply as conj(table) * row (complex
    products need not be bit-commutative) and are summed over r before one inverse
    transform per sum.
    """
    (v0, table), w = table, weights
    n = w.shape[-1]
    lag = rader_plan(p, n)[1]
    # c[..., b] = sum_r sum_a v[r, g^(a-b)] w[..., r, g^a], a over one period
    spec = np.fft.rfft(w[..., 1:])
    np.multiply(table, spec, out=spec)  # conj(table) * row
    # the k = 0 terms: c0 = sum_r v[r, 0] w[..., r, 0], s0 = sum_r v[r, 0] sum_k w[..., r, k]
    if len(v0) == 1:  # one table: each term is its own sum
        c0, s0 = w[..., 0] * v0[0], w.sum(axis=-1) * v0[0]
    else:  # each run of tables summed in order, apart from the others
        at = [0] if starts is None else starts
        spec = np.add.reduceat(spec, at, axis=-2)
        c0 = np.add.reduceat(w[..., 0] * v0, at, axis=-1)
        s0 = np.add.reduceat(w.sum(axis=-1) * v0, at, axis=-1)
    c = np.fft.irfft(spec, n - 1)
    S = np.empty(c.shape[:-1] + (p,))
    S[..., 0] = s0
    S[..., 1:] = (c0[..., None] + c).take(lag, axis=-1)  # S[..., z] == S[..., p - z] if n < p
    return S[..., 0, :] if starts is None else S
