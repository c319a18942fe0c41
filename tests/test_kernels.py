import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ranlat import kernels
from ranlat.kernels import (
    EXACT_SUM_CUTOFF,
    DomainError,
    KorobovSpaceParams,
    UnsupportedSmoothnessError,
    exact_sum,
    mu_quantity,
    poly_weights,
    sigma_alpha,
    zeta,
)
from ranlat.oracles import r_alpha


def test_zeta_known_values():
    assert zeta(2.0) == pytest.approx(math.pi ** 2 / 6, rel=1e-13)
    assert zeta(4.0) == pytest.approx(math.pi ** 4 / 90, rel=1e-13)
    assert zeta(6.0) == pytest.approx(math.pi ** 6 / 945, rel=1e-13)
    # slowly converging case needs the tail correction to be right
    assert zeta(1.1) == pytest.approx(10.584448464950803, rel=1e-12)


def test_zeta_domain():
    with pytest.raises(DomainError):
        zeta(1.0)


def test_sigma_known_values():
    assert sigma_alpha(0.0, 1) == pytest.approx(math.pi ** 2 / 3, rel=1e-14)
    assert sigma_alpha(0.5, 1) == pytest.approx(-math.pi ** 2 / 6, rel=1e-14)
    assert sigma_alpha(0.0, 2) == pytest.approx(math.pi ** 4 / 45, rel=1e-14)
    assert sigma_alpha(0.0, 2) == pytest.approx(2 * zeta(4.0), rel=1e-14)
    assert sigma_alpha(0.0, 3) == pytest.approx(2 * zeta(6.0), rel=1e-13)


def test_sigma_rejects_unsupported_alpha():
    with pytest.raises(UnsupportedSmoothnessError):
        sigma_alpha(0.3, 4)


def test_sigma_symmetry_and_mean():
    # sigma(x) = sigma(1-x); grid mean approximates the zero integral
    x = np.linspace(0.0, 1.0, 1001)
    for alpha in (1, 2, 3):
        s = sigma_alpha(x, alpha)
        assert np.max(np.abs(s - s[::-1])) < 1e-12
        # trapezoid over the full period (np.trapezoid is numpy >= 2 only)
        assert abs(np.sum((s[1:] + s[:-1]) / 2.0 * np.diff(x))) < 1e-5


def test_sigma_fourier_partial_sum():
    # sigma_alpha(x) = sum_{h != 0} e^{2 pi i h x} / |h|^{2 alpha}
    x = 0.3173
    for alpha in (1, 2, 3):
        h = np.arange(1, 200_000)
        val = 2.0 * np.sum(np.cos(2 * np.pi * h * x) / h ** (2.0 * alpha))
        assert sigma_alpha(x, alpha) == pytest.approx(val, abs=1e-8)


def test_sigma_vector_matches_scalar():
    x = np.array([0.0, 0.25, 0.5, 0.99])
    out = sigma_alpha(x, 2)
    assert out.shape == x.shape
    for xi, oi in zip(x, out):
        assert oi == sigma_alpha(float(xi), 2)


def _sigma_by_remainder(x, alpha):
    """Reference form of sigma_alpha: reduce by x % 1.0, then Horner with a new array per step."""
    t = np.asarray(x, dtype=float) % 1.0
    acc = np.full_like(t, kernels._BERNOULLI_COEFFS[alpha][0])
    for c in kernels._BERNOULLI_COEFFS[alpha][1:]:
        acc = acc * t + c
    out = kernels._SIGMA_SCALE[alpha] * acc
    return float(out) if np.ndim(x) == 0 else out


_SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 2.0 ** 52, -(2.0 ** 52), 2.0 ** 52 + 1.0,
            -(2.0 ** 53) - 2.0, 1e300, -1e300, 5e-324, -5e-324, -1e-20, 1.0 - 2.0 ** -53,
            -(2.0 ** -53), 0.5, -0.5, 1.0, -1.0]


def test_floor_reduction_is_remainder_bit_for_bit():
    # x - floor(x) and x % 1.0 round the same real x - floor(x) once; NaN
    # payloads are not compared, as IEEE 754 leaves them to the platform
    rng = np.random.default_rng(20260)
    x = np.concatenate([
        rng.integers(0, 2 ** 64, 1 << 20, dtype=np.uint64, endpoint=False).view(np.float64),
        rng.uniform(-4.0, 4.0, 1 << 18),
        rng.normal(scale=1e6, size=1 << 18),
        np.array(_SPECIAL),
    ])
    with np.errstate(invalid="ignore"):
        want, got = x % 1.0, x - np.floor(x)
    nan = np.isnan(want)
    assert np.array_equal(nan, np.isnan(got))
    assert want[~nan].tobytes() == got[~nan].tobytes()


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_sigma_is_the_remainder_formula_bit_for_bit(alpha):
    rng = np.random.default_rng(alpha)
    finite = [v for v in _SPECIAL if math.isfinite(v)]
    arrays = [rng.uniform(0.0, 1.0, 4099), rng.uniform(-3.0, 3.0, (7, 13)),
              np.arange(0, 307) / 307, np.array(finite), np.array([0.25])]
    for x in arrays:
        assert sigma_alpha(x, alpha).tobytes() == _sigma_by_remainder(x, alpha).tobytes()
    for x in finite + [0.3, np.float64(0.7), 3, np.int64(-2)]:
        got = sigma_alpha(x, alpha)
        assert type(got) is float and got.hex() == _sigma_by_remainder(x, alpha).hex()
    before = arrays[0].copy()
    sigma_alpha(arrays[0], alpha)
    assert arrays[0].tobytes() == before.tobytes()  # the input is not overwritten


def _sum_or_error(fn, x):
    try:
        return fn(x).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__, str(exc)


_BLOCK = kernels._EXTRACT_BLOCK


@settings(max_examples=150, deadline=None)
@given(
    n=st.one_of(
        st.integers(0, 3),
        st.integers(EXACT_SUM_CUTOFF - 2, EXACT_SUM_CUTOFF + 2),
        st.integers(_BLOCK - 1, _BLOCK + 1),
        st.integers(0, 3 * _BLOCK),
    ),
    low=st.integers(-1074, 1023),
    span=st.integers(0, 2100),
    signs=st.sampled_from(["+", "-", "mixed", "cancelling"]),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_exact_sum_is_fsum_bit_for_bit(n, low, span, signs, seed):
    # magnitudes 2^low .. 2^(low + span): subnormals below 2^-1022, values near
    # 1e308 (whose sum or sigma would pass 2^1023) at the top
    rng = np.random.default_rng(seed)
    x = np.ldexp(rng.uniform(1.0, 2.0, n), rng.integers(low, min(low + span, 1023), n, endpoint=True))
    if signs == "-":
        x = -x
    elif signs == "mixed":
        x *= rng.choice([-1.0, 1.0], n)
    elif signs == "cancelling":
        x = rng.permutation(np.concatenate([x[: n // 2], -x[: n // 2], x[n // 2 :]]))
    before = x.copy()
    assert _sum_or_error(exact_sum, x) == _sum_or_error(math.fsum, x)
    assert x.tobytes() == before.tobytes()  # the input is not overwritten


@pytest.mark.parametrize("n", [0, 1, EXACT_SUM_CUTOFF - 1, EXACT_SUM_CUTOFF, 3 * _BLOCK])
@pytest.mark.parametrize("special", [[np.inf], [-np.inf], [np.nan], [np.inf, -np.inf],
                                     [np.nan, np.inf], [-0.0], [1e308, 1e308, -1e308]])
def test_exact_sum_special_values_as_fsum(n, special):
    # the same float or the same exception as math.fsum, wherever the values sit
    rng = np.random.default_rng(n)
    for fill in (rng.uniform(-1.0, 1.0, n), np.full(n, -0.0)):
        for at in (0, n // 2, n):
            x = np.insert(fill, at, special)
            assert _sum_or_error(exact_sum, x) == _sum_or_error(math.fsum, x)


def test_poly_weights():
    assert poly_weights(3, 2.0) == pytest.approx((1.0, 0.25, 1.0 / 9.0))


def test_params_validation():
    with pytest.raises(UnsupportedSmoothnessError):
        KorobovSpaceParams(d=1, alpha=4, gamma=(1.0,))
    with pytest.raises(DomainError):
        KorobovSpaceParams(d=2, alpha=1, gamma=(1.0,))
    with pytest.raises(DomainError):
        KorobovSpaceParams(d=1, alpha=1, gamma=(0.0,))


@pytest.mark.parametrize("gamma", [(10 ** 400,), (float("inf"),), (float("nan"),), (-1.0,)])
def test_params_reject_weights_beyond_every_float(gamma):
    # an int no float holds is a DomainError, not an OverflowError from float()
    with pytest.raises(DomainError):
        KorobovSpaceParams(d=1, alpha=1, gamma=gamma)


@pytest.mark.parametrize("field, value", [("d", 2.0), ("d", 2.5), ("alpha", 2.0), ("alpha", 2.5)])
def test_params_reject_non_integer_dimension_and_smoothness(field, value):
    kwargs = {"d": 2, "alpha": 2, "gamma": (1.0, 1.0), field: value}
    with pytest.raises(TypeError, match="integer"):
        KorobovSpaceParams(**kwargs)


def test_params_store_integer_dimension_and_smoothness_as_int():
    params = KorobovSpaceParams(d=np.int64(2), alpha=np.int32(2), gamma=(1.0, 1.0))
    assert type(params.d) is int and type(params.alpha) is int
    assert params == KorobovSpaceParams(d=2, alpha=2, gamma=(1.0, 1.0))


def test_params_compare_and_hash_by_value():
    # any sequence of weights is stored as a tuple of floats
    want = KorobovSpaceParams(d=3, alpha=2, gamma=(1.0, 0.25, 0.5))
    for gamma in ([1.0, 0.25, 0.5], np.array([1.0, 0.25, 0.5]), (1, 0.25, 0.5)):
        params = KorobovSpaceParams(d=3, alpha=2, gamma=gamma)
        assert params == want and hash(params) == hash(want)
        assert all(type(g) is float for g in params.gamma)


def test_r_alpha_examples():
    p = KorobovSpaceParams(d=3, alpha=1, gamma=(1.0, 0.5, 0.25))
    assert r_alpha(p, (0, 0, 0)) == 1.0
    assert r_alpha(p, (3, -2, 0)) == pytest.approx(12.0)
    p2 = KorobovSpaceParams(d=2, alpha=2, gamma=(0.5, 1.0))
    assert r_alpha(p2, (-3, 1)) == pytest.approx(9.0 / 0.5 * 1.0)


@given(
    h=st.integers(min_value=1, max_value=50),
    m=st.integers(min_value=2, max_value=5),
)
def test_r_alpha_multiplicative_scaling(h, m):
    # |m h|^alpha / gamma = m^alpha * |h|^alpha / gamma in one dimension
    p = KorobovSpaceParams(d=1, alpha=2, gamma=(0.7,))
    assert r_alpha(p, (m * h,)) == pytest.approx(m ** 2 * r_alpha(p, (h,)), rel=1e-12)


def test_mu_single_dimension():
    p = KorobovSpaceParams(d=1, alpha=1, gamma=(1.0,))
    assert mu_quantity(p, 1.0 / 2.0) == pytest.approx(2 * zeta(2.0), rel=1e-13)


def test_mu_two_dimensions_unit_weights():
    p = KorobovSpaceParams(d=2, alpha=1, gamma=(1.0, 1.0))
    expect = (1.0 + math.pi ** 2 / 3) ** 2 - 1.0
    assert mu_quantity(p, 0.5) == pytest.approx(expect, rel=1e-13)


def test_mu_subset_sum_oracle():
    # mu(lambda) = sum over nonempty subsets u of prod_{j in u} gamma_j^{1/lam} 2 zeta(alpha/lam)
    import itertools

    p = KorobovSpaceParams(d=5, alpha=2, gamma=poly_weights(5, 3.0))
    lam = 0.8
    base = [g ** (1.0 / lam) * 2 * zeta(p.alpha / lam) for g in p.gamma]
    expect = 0.0
    for r in range(1, 6):
        for u in itertools.combinations(range(5), r):
            expect += math.prod(base[j] for j in u)
    assert mu_quantity(p, lam) == pytest.approx(expect, rel=1e-12)


def test_mu_domain():
    p = KorobovSpaceParams(d=1, alpha=1, gamma=(1.0,))
    with pytest.raises(DomainError):
        mu_quantity(p, 1.0)  # lambda must stay below alpha
    with pytest.raises(DomainError):
        mu_quantity(p, 0.4)
