import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ranlat.kernels import (
    DomainError,
    KorobovSpaceParams,
    UnsupportedSmoothnessError,
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
        # trapezoid over the full period
        assert abs(np.trapezoid(s, x)) < 1e-5


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


def test_poly_weights():
    assert poly_weights(3, 2.0) == pytest.approx((1.0, 0.25, 1.0 / 9.0))


def test_params_validation():
    with pytest.raises(UnsupportedSmoothnessError):
        KorobovSpaceParams(d=1, alpha=4, gamma=(1.0,))
    with pytest.raises(DomainError):
        KorobovSpaceParams(d=2, alpha=1, gamma=(1.0,))
    with pytest.raises(DomainError):
        KorobovSpaceParams(d=1, alpha=1, gamma=(0.0,))


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
