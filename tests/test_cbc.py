import math

import numpy as np
import pytest

from ranlat.cbc import (
    CbcState,
    argmin_first,
    cbc_construct,
    cbc_construct_naive,
    theta_all,
    theta_all_naive,
)
from ranlat.errors import worst_case_error_sq
from ranlat.kernels import KorobovSpaceParams, mu_quantity, poly_weights, zeta
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
