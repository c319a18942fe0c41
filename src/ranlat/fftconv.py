"""Arbitrary-length cyclic convolution and the Rader-style candidate-sweep kernel.

Cyclic convolutions and correlations of length L (typically p - 1) are
computed directly with real FFTs of length L, without zero padding.  The
Rader kernel maps a multiplicative sum over Z_p onto such a correlation
using a primitive root, which evaluates the CBC search criteria for all
candidate residues at once in O(p log p).  The reindexing for each
(prime, root) is built once and cached as a `RaderPlan`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .primes import is_prime, _prime_factors


class ShapeError(ValueError):
    """Raised on mismatched vector lengths."""


class InvalidRootError(ValueError):
    """Raised when the supplied generator is not a primitive root."""


def next_pow2(m: int) -> int:
    return 1 << max(0, (m - 1).bit_length())


@dataclass(frozen=True)
class ConvolutionPlan:
    """Zero-padded linear-convolution sizing (a power of two >= 2L - 1) for length L.

    The transforms in this module are unpadded; the plan remains as a
    sizing estimate for callers that compare against the padded layout.
    """

    length: int
    padded_length: int

    @classmethod
    def for_length(cls, length: int) -> "ConvolutionPlan":
        if length < 1:
            raise ShapeError(f"length must be >= 1, got {length}")
        return cls(length=length, padded_length=next_pow2(2 * length - 1))


def _cyclic(a: np.ndarray, b: np.ndarray, correlate: bool, sum_batch: bool) -> np.ndarray:
    """Length-L cyclic convolution or correlation along the last axis, by real FFTs.

    Convolution: c[m] = sum_k a[k] b[(m - k) mod L].
    Correlation: c[m] = sum_k a[(k - m) mod L] b[k].
    With sum_batch the leading axes are summed in the frequency domain, so a
    whole batch costs a single inverse transform.
    """
    L = a.shape[-1]
    fa = np.fft.rfft(a, axis=-1)
    if correlate:
        np.conjugate(fa, out=fa)
    spec = fa * np.fft.rfft(b, axis=-1)
    if sum_batch:
        spec = spec.reshape(-1, spec.shape[-1]).sum(axis=0)
    return np.fft.irfft(spec, L, axis=-1)


def cyclic_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """c[m] = sum_k a[k] b[(m - k) mod L] along the last axis.

    Inputs may carry leading batch axes (broadcast against each other).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[-1] != b.shape[-1]:
        raise ShapeError(f"length mismatch: {a.shape[-1]} vs {b.shape[-1]}")
    return _cyclic(a, b, correlate=False, sum_batch=False)


def check_primitive_root(p: int, g: int) -> None:
    if not is_prime(p):
        raise InvalidRootError(f"{p} is not prime")
    if p == 2:
        if g % 2 != 1:
            raise InvalidRootError(f"{g} is not a primitive root of 2")
        return
    if g % p == 0 or any(pow(g, (p - 1) // q, p) == 1 for q in _prime_factors(p - 1)):
        raise InvalidRootError(f"{g} is not a primitive root of {p}")


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
    """Rader reindexing of the nonzero residues mod p for the primitive root g.

    powers[a] = g^a mod p orders the summation index k; z_index[b] = g^-b mod p
    is the candidate z whose sweep value lands at correlation lag b.
    """

    powers: np.ndarray
    z_index: np.ndarray


@functools.lru_cache(maxsize=1024)
def rader_plan(p: int, g: int) -> RaderPlan:
    """Checked, cached plan for (p, g); an invalid root raises on every call."""
    check_primitive_root(p, g)
    powers = power_permutation(p, g)
    L = p - 1
    z_index = powers[(-np.arange(L)) % L]
    powers.flags.writeable = False
    z_index.flags.writeable = False
    return RaderPlan(powers=powers, z_index=z_index)


def _rader_inputs(
    p: int, g: int, values: np.ndarray, weights: np.ndarray
) -> tuple[RaderPlan, np.ndarray, np.ndarray]:
    """Plan plus values and weights as float arrays broadcast to (..., p)."""
    plan = rader_plan(p, g)
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    if v.shape[-1] != p or w.shape[-1] != p:
        raise ShapeError(f"values and weights must have length p={p}")
    batch = np.broadcast_shapes(v.shape[:-1], w.shape[:-1])
    return plan, np.broadcast_to(v, batch + (p,)), np.broadcast_to(w, batch + (p,))


def rader_cbc_kernel(
    p: int, g: int, values: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """S[z] = sum_{k in Z_p} values[(k z) mod p] * weights[k] for every z in Z_p.

    Splits off the k = 0 and z = 0 terms, reindexes k = g^a and z = g^{-b},
    and reduces to a cyclic correlation of length p - 1.  values/weights may
    carry a leading batch axis; the result has the matching shape (..., p).
    """
    plan, v, w = _rader_inputs(p, g, values, weights)
    # c[b] = sum_a v[g^(a-b)] w[g^a]
    c = _cyclic(v[..., plan.powers], w[..., plan.powers], correlate=True, sum_batch=False)
    S = np.empty(v.shape, dtype=float)
    S[..., 0] = v[..., 0] * w.sum(axis=-1)
    S[..., plan.z_index] = v[..., :1] * w[..., :1] + c
    return S


def rader_cbc_sum(
    p: int, g: int, values: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Sum of `rader_cbc_kernel(p, g, values, weights)` over all batch axes.

    The per-row spectra are summed before one inverse transform, so a batch
    of rows costs one irfft instead of one per row.  Returns shape (p,).
    """
    plan, v, w = _rader_inputs(p, g, values, weights)
    c = _cyclic(v[..., plan.powers], w[..., plan.powers], correlate=True, sum_batch=True)
    v0 = v[..., 0].ravel()
    S = np.empty(p, dtype=float)
    S[0] = v0 @ w.sum(axis=-1).ravel()
    S[plan.z_index] = v0 @ w[..., 0].ravel() + c
    return S


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
