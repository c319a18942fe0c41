import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ranlat.fftconv import (
    InvalidRootError,
    check_primitive_root,
    cyclic_convolve,
    next_pow2,
    power_permutation,
    rader_cbc_kernel,
    rader_cbc_kernel_naive,
    rader_cbc_sum,
    rader_plan,
)
from ranlat.primes import primitive_root, sieve_primes


def test_next_pow2():
    assert next_pow2(1) == 1
    assert next_pow2(2) == 2
    assert next_pow2(3) == 4
    assert next_pow2(1025) == 2048


def _naive_cyclic(a, b):
    L = len(a)
    return np.array([
        sum(a[m] * b[(i - m) % L] for m in range(L)) for i in range(L)
    ])


def test_cyclic_convolve_small():
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([4.0, 5.0, 6.0])
    assert np.allclose(cyclic_convolve(a, b), _naive_cyclic(a, b))


def test_cyclic_convolve_length_one():
    assert cyclic_convolve(np.array([3.0]), np.array([5.0])) == pytest.approx([15.0])


@settings(max_examples=30)
@given(
    L=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2 ** 31),
)
def test_cyclic_convolve_matches_naive(L, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(L)
    b = rng.standard_normal(L)
    fast = cyclic_convolve(a, b)
    slow = _naive_cyclic(a, b)
    assert np.max(np.abs(fast - slow)) < 1e-9 * max(1.0, np.max(np.abs(slow)))


def test_cyclic_convolve_batched():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 9))
    b = rng.standard_normal(9)
    out = cyclic_convolve(a, b)
    for i in range(4):
        assert np.allclose(out[i], _naive_cyclic(a[i], b))


def test_check_primitive_root():
    check_primitive_root(7, 3)
    with pytest.raises(InvalidRootError):
        check_primitive_root(7, 2)  # order 3, not 6


def test_power_permutation():
    # powers of 3 mod 7: 1, 3, 2, 6, 4, 5
    assert power_permutation(7, 3).tolist() == [1, 3, 2, 6, 4, 5]


def test_rader_kernel_p3_by_hand():
    v = np.array([10.0, 1.0, 2.0])
    w = np.array([100.0, 7.0, 11.0])
    out = rader_cbc_kernel(3, 2, v, w)
    # S[z] = sum_k v[(k z) % 3] w[k]
    expect = [
        v[0] * (w[0] + w[1] + w[2]),
        v[0] * w[0] + v[1] * w[1] + v[2] * w[2],
        v[0] * w[0] + v[2] * w[1] + v[1] * w[2],
    ]
    assert np.allclose(out, expect)


def test_rader_kernel_p2():
    v = np.array([4.0, 9.0])
    w = np.array([0.5, 0.25])
    out = rader_cbc_kernel(2, 1, v, w)
    assert np.allclose(out, [v[0] * (w[0] + w[1]), v[0] * w[0] + v[1] * w[1]])


@settings(max_examples=25, deadline=None)
@given(
    pidx=st.integers(min_value=1, max_value=25),
    seed=st.integers(min_value=0, max_value=2 ** 31),
)
def test_rader_matches_naive(pidx, seed):
    p = sieve_primes(101)[pidx]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(p)
    w = rng.standard_normal(p)
    fast = rader_cbc_kernel(p, primitive_root(p), v, w)
    slow = rader_cbc_kernel_naive(p, v, w)
    assert np.max(np.abs(fast - slow)) < 1e-9 * max(1.0, np.max(np.abs(slow)))


def test_rader_batched_leading_axis():
    p = 11
    g = primitive_root(p)
    rng = np.random.default_rng(3)
    v = rng.standard_normal((5, p))
    w = rng.standard_normal((5, p))
    out = rader_cbc_kernel(p, g, v, w)
    assert out.shape == (5, p)
    for i in range(5):
        assert np.allclose(out[i], rader_cbc_kernel_naive(p, v[i], w[i]))


def test_rader_plan_cached_per_prime_and_root():
    plan = rader_plan(13, 2)
    assert rader_plan(13, 2) is plan
    assert plan.powers.tolist() == power_permutation(13, 2).tolist()
    # z_index[b] = g^-b: the lag-b correlation value belongs to z = g^-b
    assert [(int(z) * pow(2, b, 13)) % 13 for b, z in enumerate(plan.z_index)] == [1] * 12
    with pytest.raises(ValueError):
        plan.powers[0] = 5


def test_rader_plan_bad_root_raises_on_every_call():
    for _ in range(2):
        with pytest.raises(InvalidRootError):
            rader_plan(7, 2)
        with pytest.raises(InvalidRootError):
            rader_cbc_kernel(7, 2, np.ones(7), np.ones(7))
        with pytest.raises(InvalidRootError):
            rader_cbc_sum(7, 2, np.ones((3, 7)), np.ones((3, 7)))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 53, 307])
def test_rader_cbc_sum_matches_naive_batch_sum(p):
    rng = np.random.default_rng(p)
    g = primitive_root(p)
    for rows in (1, 4):
        v = rng.standard_normal((rows, p))
        w = rng.standard_normal((rows, p))
        slow = sum(rader_cbc_kernel_naive(p, v[i], w[i]) for i in range(rows))
        fast = rader_cbc_sum(p, g, v, w)
        assert fast.shape == (p,)
        assert np.max(np.abs(fast - slow)) < 1e-9 * max(1.0, np.max(np.abs(slow)))
        # a broadcast 1-D weight row is summed against every value row
        slow_b = sum(rader_cbc_kernel_naive(p, v[i], w[0]) for i in range(rows))
        fast_b = rader_cbc_sum(p, g, v, w[0])
        assert np.max(np.abs(fast_b - slow_b)) < 1e-9 * max(1.0, np.max(np.abs(slow_b)))
