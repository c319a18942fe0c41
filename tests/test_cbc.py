import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ranlat.cbc import CbcState, argmin_first, cbc_construct, theta_all
from ranlat.errors import _error_sq, worst_case_error_sq
from ranlat.kernels import KorobovSpaceParams, mu_quantity, poly_weights, sigma_alpha, zeta
from ranlat.oracles import cbc_construct_naive, theta_all_naive
from ranlat.primes import sieve_primes


def _params(d, alpha=2, c=2.0):
    return KorobovSpaceParams(d=d, alpha=alpha, gamma=poly_weights(d, c))


def test_argmin_first_tie_rule():
    assert argmin_first(np.array([3.0, 1.0, 1.0 + 1e-12, 2.0])) == 1
    assert argmin_first(np.array([0.5, 0.5, 0.1])) == 2


def test_theta_first_dimension_branches():
    # empty prefix: theta(z) = gamma^2 2 zeta(2 alpha)/p^{2 alpha} off z=0,
    # and gamma^2 2 zeta(2 alpha) at z=0
    p = 13
    params = _params(1, alpha=2)
    th = theta_all(CbcState((p,), params, ()))
    assert th[0] == pytest.approx(2 * zeta(4.0), rel=1e-10)
    assert np.allclose(th[1:], 2 * zeta(4.0) / p ** 4, rtol=1e-9)


def test_theta_fast_matches_naive_all_small_primes():
    params = _params(3)
    for p in [q for q in sieve_primes(101) if q >= 3]:
        state = CbcState((p,), params, ())
        for z in (1, min(5, p - 1)):
            fast = theta_all(state)
            slow = theta_all_naive(state)
            # FFT error is relative to the dominant entry, so compare in
            # scaled max-norm (entries span many orders of magnitude)
            assert np.max(np.abs(fast - slow)) < 1e-9 * np.max(np.abs(slow))
            state.extend(z)


def test_theta_telescopes_to_worst_case_error():
    # e^2(z_1..z_d) = sum_s theta_s(z_s): extending one dimension at a time
    p = 17
    params = _params(3)
    state = CbcState((p,), params, ())
    z = (1, 5, 9)
    total = 0.0
    for zs in z:
        total += theta_all(state)[zs]
        state.extend(zs)
    assert total == pytest.approx(worst_case_error_sq(p, z, params), rel=1e-10)


def test_cbc_fast_equals_naive():
    for p in (31, 61, 101):
        for d in range(1, 7):
            params = _params(d)
            assert cbc_construct(p, params) == cbc_construct_naive(p, params)


def test_cbc_first_component_is_one():
    params = _params(4)
    assert cbc_construct(19, params)[0] == 1


def test_cbc_satisfies_average_bound():
    # e_det(z_cbc) <= (2 mu(1/2)/p)^{1/2}: the CBC choice beats the average
    for p in (11, 31, 61):
        params = _params(3, alpha=1, c=2.0)
        z = cbc_construct(p, params)
        e2 = worst_case_error_sq(p, z, params)
        bound = 2.0 * mu_quantity(params, 0.5) / p
        assert e2 <= bound * (1 + 1e-12)


def _expanded(state):
    """The full record over Z_m_1 x ...: row a > m_1/2 is row m_1 - a at the negated residues."""
    m = state.moduli[0]
    k = np.arange(m)
    full = state.P_products[np.minimum(k, m - k)]
    if len(state.moduli) == 2:
        n = state.moduli[1]
        mirror = k > m // 2
        full[mirror] = full[mirror][:, (-np.arange(n)) % n]
    return full


def _direct(moduli, params, prefix):
    """P at every point of the CRT grid, from each point's coordinates."""
    m = math.prod(moduli)
    axes = np.meshgrid(*(np.arange(k) for k in moduli), indexing="ij")
    out = np.ones(moduli)
    for j, z in enumerate(prefix):
        c = sum(a * (zi % k) * (m // k) for a, zi, k in zip(axes, z, moduli)) % m
        out *= 1.0 + params.gamma[j] ** 2 * sigma_alpha(np.minimum(c, m - c) / m, params.alpha)
    return out


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from(_PRIMES),
    q=st.sampled_from(_PRIMES),
    alpha=st.sampled_from([1, 2, 3]),
    data=st.lists(st.integers(min_value=0, max_value=10 ** 4), max_size=8),
)
def test_records_are_exactly_even(p, q, alpha, data):
    # P(-k) = P(k) and P(-l, -k) = P(l, k) bit for bit, at every point the
    # value of the direct formula; and theta(z) == theta(p - z) exactly
    assume(p != q)
    s = len(data) // 2
    params = KorobovSpaceParams(d=s + 1, alpha=alpha, gamma=poly_weights(s + 1, 1.5))
    prefixes = {(p,): [(r,) for r in data[:s]],
                (p, q): list(zip(data[:s], data[s : 2 * s]))}
    for moduli, prefix in prefixes.items():
        state = CbcState(moduli, params, prefix)
        full = _expanded(state)
        mirror = full[np.ix_(*((-np.arange(k)) % k for k in moduli))]
        assert full.tobytes() == mirror.tobytes()
        assert full.tobytes() == _direct(moduli, params, prefix).tobytes()
    theta = theta_all(CbcState((p,), params, prefixes[(p,)]))
    assert theta.tobytes() == theta[(-np.arange(p)) % p].tobytes()


@settings(max_examples=40, deadline=None)
@given(
    moduli=st.sampled_from([(1,), (2,), (12,), (30,), (64,), (101,), (2, 3), (3, 2), (4, 9),
                            (7, 11), (11, 7), (16, 15), (53, 59)]),
    alpha=st.sampled_from([1, 2, 3]),
    data=st.lists(st.integers(min_value=0, max_value=10 ** 4), min_size=2, max_size=8),
)
def test_error_sq_of_half_record_is_fsum_of_full(moduli, alpha, data):
    # row 0 (and row m_1/2 for even m_1) once, every other stored row twice:
    # for an exactly even record this is fsum over the full one, bit for bit
    d = len(data) // 2
    params = KorobovSpaceParams(d=d, alpha=alpha, gamma=poly_weights(d, 1.0))
    state = CbcState(moduli, params, zip(*([data[:d], data[d : 2 * d]][: len(moduli)])))
    full = _expanded(state)
    expect = math.fsum(full.ravel()) / full.size - 1.0
    assert _error_sq(state.P_products, moduli[0]) == (max(expect, 0.0), expect < 0.0)
