"""Rader-style candidate sweep for the CBC search criteria.

The sweep S[z] = sum_k values[(k z) mod p] weights[k] over all z in Z_p is
a multiplicative sum.  Reindexing the nonzero residues by powers of the
smallest primitive root of p turns it into a cyclic correlation of length
p - 1, computed with unpadded real FFTs in O(p log p), or of half that
length when both inputs are even functions on Z_p, as the CBC search's
sigma grids and point products are.  The reindexing is built once per prime
and cached as a `RaderPlan`.
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

    powers[a] = g^a mod p orders the summation index k; z_index[b] = g^-b mod p
    is the candidate z whose sweep value lands at correlation lag b;
    half[a] = min(g^a, p - g^a), a < (p - 1) / 2, orders the entries of an even k.
    """

    powers: np.ndarray
    z_index: np.ndarray
    half: np.ndarray


@functools.lru_cache(maxsize=1024)
def rader_plan(p: int) -> RaderPlan:
    """Cached plan for prime p; a composite p raises `NotPrimeError`."""
    powers = power_permutation(p, primitive_root(p))
    L = p - 1
    z_index = powers[(-np.arange(L)) % L]
    half = np.minimum(powers, p - powers)[: L // 2]
    for a in (powers, z_index, half):
        a.flags.writeable = False
    return RaderPlan(powers=powers, z_index=z_index, half=half)


def rader_cbc_kernel(p: int, values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """S[z] = sum_{k in Z_p} values[(k z) mod p] * weights[k] for every z in Z_p.

    values and weights share one shape; S sums over its leading batch axes and
    has shape (p,).  The k = 0 and z = 0 terms are split off, and reindexing
    k = g^a, z = g^-b leaves a cyclic correlation of length p - 1, whose batch
    spectra are summed before one inverse transform.  A last axis of length
    p // 2 + 1 < p holds even functions' entries 0..p // 2; with g^((p-1)/2) = -1
    they have period (p - 1) / 2 in Rader order, and so has S: S[z] == S[p - z].
    """
    plan = rader_plan(p)
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    n = v.shape[-1]
    if v.shape != w.shape or n not in (p, p // 2 + 1):
        raise ShapeError(f"values and weights must share one shape ending in p={p} or p // 2 + 1")
    fold, order = (2, plan.half) if n < p else (1, plan.powers)  # fold: residues per entry k != 0
    v = v.reshape(-1, n)
    w = w.reshape(-1, n)
    # c[b] = sum_rows sum_a v[g^(a-b)] w[g^a], a over one period
    spec = np.fft.rfft(v[:, order])
    np.conjugate(spec, out=spec)
    spec *= np.fft.rfft(w[:, order])
    c = np.fft.irfft(spec.sum(axis=0), len(order))
    v0 = v[:, 0]
    c0 = v0 @ w[:, 0]
    S = np.empty(p, dtype=float)
    S[0] = fold * (v0 @ w.sum(axis=1)) - (fold - 1) * c0
    S[plan.z_index] = np.concatenate((c0 + fold * c,) * fold)
    return S
