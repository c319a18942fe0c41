"""Deterministic component-by-component construction for a prime modulus.

Maintains the running per-point products P(k) = prod_{j<s} (1 + gamma_j^2
sigma_alpha(k z_j / p)) so that the squared-error increment theta of every
candidate residue comes out of a single Rader convolution sweep.  A naive
O(p^2) path is kept as an oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fftconv import rader_cbc_kernel, rader_cbc_kernel_naive
from .kernels import DomainError, KorobovSpaceParams, sigma_alpha
from .primes import residue_perm

# Relative tolerance under which two criterion values count as tied.  Exact
# mathematical ties (z and p - z give the same theta and T-hat at the
# smallest pool prime) differ only by round-off, and round-off must not
# decide the residue: tied values resolve to the smaller index.
TIE_RTOL = 1e-9


@dataclass
class CbcState:
    """Search state after choosing components z_1..z_{s-1} modulo p.

    P_products holds the point products of the p-point rule over z_1..z_{s-1}.
    Any modulus p >= 1 works for `extend`; `theta_all` needs p prime.
    """

    p: int
    params: KorobovSpaceParams
    z_prefix: list[int] = field(init=False)
    P_products: np.ndarray = field(init=False)
    sigma_table: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.z_prefix = []
        self.P_products = np.ones(self.p)
        self.sigma_table = sigma_alpha(np.arange(self.p) / self.p, self.params.alpha)

    @property
    def s(self) -> int:
        """Dimension index currently being chosen (1-based)."""
        return len(self.z_prefix) + 1

    def extend(self, z_s: int) -> None:
        """Fix component s and fold it into the running products."""
        z_s = int(z_s) % self.p
        gam2 = self.params.gamma[self.s - 1] ** 2
        self.P_products = self.P_products * (
            1.0 + gam2 * self.sigma_table[residue_perm(self.p, z_s)]
        )
        self.z_prefix.append(z_s)


def theta_all(state: CbcState) -> np.ndarray:
    """Squared-error increment theta_s(z) for every candidate z in Z_p.

    theta_s(z) = (gamma_s^2 / p) sum_k sigma_alpha(k z / p) P(k), evaluated
    for all z at once through the Rader convolution sweep.
    """
    gam2 = state.params.gamma[state.s - 1] ** 2
    S = rader_cbc_kernel(state.p, state.sigma_table, state.P_products)
    return gam2 / state.p * S


def theta_all_naive(state: CbcState) -> np.ndarray:
    """O(p^2) double-loop reference for theta_all."""
    gam2 = state.params.gamma[state.s - 1] ** 2
    S = rader_cbc_kernel_naive(state.p, state.sigma_table, state.P_products)
    return gam2 / state.p * S


def argmin_first(values: np.ndarray) -> int:
    """Index of the minimum, ties broken by smallest index.

    Values within relative TIE_RTOL of the minimum count as tied, so exact
    mathematical ties survive the differing round-off of the FFT and
    naive evaluation paths.
    """
    v = np.asarray(values)
    best = v.min()
    return int(np.flatnonzero(v <= best + TIE_RTOL * abs(best))[0])


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


def cbc_construct(p: int, params: KorobovSpaceParams) -> tuple[int, ...]:
    """Fast CBC vector for the p-point rule: z_1 = 1, then per-dimension argmin.

    Ties in the theta sweep are broken by the smallest candidate residue.
    """
    state = CbcState(p=p, params=params)
    state.extend(1)
    for _ in range(2, params.d + 1):
        state.extend(argmin_first(theta_all(state)))
    return tuple(state.z_prefix)


def cbc_construct_naive(p: int, params: KorobovSpaceParams) -> tuple[int, ...]:
    """Oracle CBC: exhaustive per-component argmin via the naive theta sweep."""
    state = CbcState(p=p, params=params)
    state.extend(1)
    for _ in range(2, params.d + 1):
        state.extend(argmin_first(theta_all_naive(state)))
    return tuple(state.z_prefix)
