import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ranlat.fftconv import (
    ShapeError, power_permutation, rader_cbc_kernel, rader_correlation, rader_plan,
)
from ranlat.oracles import rader_cbc_kernel_naive
from ranlat.primes import NotPrimeError, primitive_root, sieve_primes


def test_power_permutation():
    # powers of 3 mod 7: 1, 3, 2, 6, 4, 5
    assert power_permutation(7, 3).tolist() == [1, 3, 2, 6, 4, 5]


def test_rader_kernel_p3_by_hand():
    v = np.array([10.0, 1.0, 2.0])
    w = np.array([100.0, 7.0, 11.0])
    out = rader_cbc_kernel(3, v[None], w[None])
    # S[z] = sum_k v[(k z) % 3] w[k]
    expect = [
        v[0] * (w[0] + w[1] + w[2]),
        v[0] * w[0] + v[1] * w[1] + v[2] * w[2],
        v[0] * w[0] + v[2] * w[1] + v[1] * w[2],
    ]
    assert np.allclose(out, expect)
    # even on Z_3, given by entries 0 and 1, f(2) = f(1), and the weights times the
    # residues each entry stands for: w[1] for k = 1 and 2
    half = np.array([100.0, 2 * 7.0])
    assert rader_cbc_kernel(3, v[None, :2], half[None]).tolist() == [10.0 * 114.0, 1014.0, 1014.0]
    # a last axis of p // 2 + 1 selects the even form; any other length but p fails
    with pytest.raises(ShapeError):
        rader_cbc_kernel(5, np.ones((1, 4)), np.ones((1, 4)))


def test_rader_kernel_p2():
    v = np.array([4.0, 9.0])
    w = np.array([0.5, 0.25])
    out = rader_cbc_kernel(2, v[None], w[None])
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
    fast = rader_cbc_kernel(p, v[None], w[None])
    slow = rader_cbc_kernel_naive(p, v, w)
    assert np.max(np.abs(fast - slow)) < 1e-9 * max(1.0, np.max(np.abs(slow)))
    # even inputs, given by their entries 0..p // 2, the weights times the residues
    # k and p - k each entry stands for, take the half-length form; z and p - z
    # share one correlation lag class: bit-equal, not just close
    even = np.minimum(np.arange(p), p - np.arange(p))
    half = w[: p // 2 + 1] * np.where(np.arange(p // 2 + 1) > 0, 2.0, 1.0)
    fast = rader_cbc_kernel(p, v[None, : p // 2 + 1], half[None])
    slow = rader_cbc_kernel_naive(p, v[even], w[even])
    assert np.max(np.abs(fast - slow)) < 1e-9 * max(1.0, np.max(np.abs(slow)))
    assert fast.tobytes() == fast[even].tobytes()


def test_rader_plan_is_cached_per_prime_and_length():
    g = primitive_root(13)
    powers = power_permutation(13, g)
    full, half = rader_plan(13, 13), rader_plan(13, 7)
    assert rader_plan(13, 13) is full and rader_plan(13, 7) is half
    # order lists k = 0, then one period of k = g^a
    assert full[0].tolist() == [0] + powers.tolist()
    # lag[z - 1] = b with z = g^-b: the lag-b correlation value belongs to z
    assert [(z * pow(g, int(b), 13)) % 13 for z, b in enumerate(full[1], start=1)] == [1] * 12
    # the even layout: one period of min(g^a, p - g^a), lags modulo it
    assert half[0].tolist() == [0] + np.minimum(powers, 13 - powers)[:6].tolist()
    assert half[1].tolist() == (full[1] % 6).tolist()
    for a in full + half:
        with pytest.raises(ValueError):
            a[0] = 5
    assert rader_plan(2, 2)[0].tolist() == [0, 1]  # p = 2 keeps the full layout: p // 2 + 1 == p
    with pytest.raises(ShapeError):
        rader_plan(13, 8)
    with pytest.raises(NotPrimeError):
        rader_plan(9, 9)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 53, 307])
def test_rader_matches_naive_batch_sum(p):
    # R tables against R rows: the sum over r of each pair's sweep
    rng = np.random.default_rng(p)
    for rows in (1, 4):
        v = rng.standard_normal((rows, p))
        w = rng.standard_normal((rows, p))
        slow = sum(rader_cbc_kernel_naive(p, v[i], w[i]) for i in range(rows))
        fast = rader_cbc_kernel(p, v, w)
        assert fast.shape == (p,)
        assert np.max(np.abs(fast - slow)) < 1e-9 * max(1.0, np.max(np.abs(slow)))


def test_rader_batch_rows_are_the_kernel_bit_for_bit():
    # each batch entry of weights swept against one table is the kernel of that
    # row alone, in both layouts and at p = 2, where p // 2 + 1 == p; 2 rows is
    # the construction's turn, theta's products over the larger-prime row
    rng = np.random.default_rng(3)
    for p in sieve_primes(400)[::3]:
        for n in {p, p // 2 + 1}:
            v = rng.standard_normal((1, n))
            for k in (1, 2, 4):
                w = rng.standard_normal((k, 1, n))
                rows = rader_cbc_kernel(p, v, w)
                assert rows.shape == (k, p)
                for r in range(k):
                    assert rows[r].tobytes() == rader_cbc_kernel(p, v, w[r]).tobytes()
    with pytest.raises(ShapeError):
        rader_cbc_kernel(5, np.ones(5), np.ones(5))  # values must be 2-D
    with pytest.raises(ShapeError):
        rader_cbc_kernel(5, np.ones((1, 2, 5)), np.ones((1, 2, 5)))
    with pytest.raises(ShapeError):
        rader_cbc_kernel(5, np.ones((2, 5)), np.ones((3, 5)))  # one row per table
    with pytest.raises(ShapeError):
        rader_cbc_kernel(5, np.ones((2, 5)), np.ones((2, 2, 3)))


def test_rader_segments_are_the_kernel_of_each_segment_bit_for_bit():
    # given segment starts, the correlation body sums each run of tables apart: fed
    # the inputs reindexed by rader_plan's order as the kernel does, a C-contiguous
    # take, row i is the kernel of the tables from starts[i] to starts[i + 1] alone,
    # bit for bit, in both layouts and with segments of one table
    rng = np.random.default_rng(5)
    for p in (2, 3, 5, 13, 53, 101):
        for n in {p, p // 2 + 1}:
            counts = rng.integers(1, 5, 4)
            counts[1] = 1
            starts = np.cumsum(counts) - counts
            v = rng.standard_normal((counts.sum(), n))
            w = rng.standard_normal((counts.sum(), n))
            order = rader_plan(p, n)[0]
            rows = rader_correlation(p, v.take(order, axis=-1), w.take(order, axis=-1), starts)
            assert rows.shape == (4, p)
            for i, (a, c) in enumerate(zip(starts, counts)):
                one = rader_cbc_kernel(p, v[a : a + c], w[a : a + c])
                assert rows[i].tobytes() == one.tobytes()
