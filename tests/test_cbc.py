import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ranlat.cbc import CbcState, argmin_first, cbc_construct, theta_all
from ranlat.errors import _error_sq, worst_case_error_sq
from ranlat.kernels import DomainError, KorobovSpaceParams, mu_quantity, poly_weights, zeta
from ranlat.oracles import cbc_construct_naive, direct_products, expanded_products, theta_all_naive
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
        full = expanded_products(state)
        mirror = full[np.ix_(*((-np.arange(k)) % k for k in moduli))]
        assert full.tobytes() == mirror.tobytes()
        assert full.tobytes() == direct_products(moduli, params, prefix).tobytes()
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
    full = expanded_products(state)
    expect = math.fsum(full.ravel()) / full.size - 1.0
    assert _error_sq(state) == (max(expect, 0.0), expect < 0.0)


def test_record_index_arithmetic_is_int64():
    # k z reaches 32768 * 65536 = 2^31 on the stored rows: an int32 index
    # would wrap and read the wrong sigma entries
    n, z = 65_537, (1, 65_536)
    params = KorobovSpaceParams(d=2, alpha=2, gamma=(1.0, 0.5))
    fast = CbcState((n,), params, zip(z)).P_products
    assert fast.tobytes() == direct_products((n,), params, zip(z))[: n // 2 + 1].tobytes()


@pytest.mark.parametrize("moduli", [(), (2, 3, 5)])
def test_record_takes_one_or_two_moduli(moduli):
    with pytest.raises(DomainError):
        CbcState(moduli, _params(1), ())
