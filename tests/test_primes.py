import numpy as np
import pytest

from ranlat.oracles import crt_pair
from ranlat.primes import (
    BudgetTooSmallError,
    ResidueVector,
    build_prime_pool,
    is_prime,
    primitive_root,
    sieve_primes,
)


def test_sieve_matches_trial_division():
    primes = sieve_primes(491)
    assert primes[:5] == [2, 3, 5, 7, 11]
    for m in range(2, 492):
        trial = all(m % q for q in range(2, int(m ** 0.5) + 1))
        assert (m in primes) == trial


def test_is_prime_agrees_with_sieve():
    primes = set(sieve_primes(2000))
    for m in range(2, 2000):
        assert is_prime(m) == (m in primes)
    assert is_prime(2 ** 31 - 1)
    assert not is_prime(2 ** 32 + 1)


def test_pool_examples():
    assert build_prime_pool(10).primes == (7,)
    assert build_prime_pool(20).primes == (11, 13, 17, 19)


def test_pool_contents_are_primes_in_half_open_interval():
    for n in (11, 50, 101, 200):
        pool = build_prime_pool(n)
        for p in pool.primes:
            assert is_prime(p) and n / 2 < p <= n


def test_pool_budget_too_small():
    with pytest.raises(BudgetTooSmallError):
        build_prime_pool(3)


def test_primitive_root():
    assert primitive_root(7) == 3
    assert primitive_root(11) == 2
    assert primitive_root(2) == 1
    for p in sieve_primes(300):
        g = primitive_root(p)
        if p > 2:
            assert len({pow(g, a, p) for a in range(p - 1)}) == p - 1


def test_residue_vector_validation():
    pool = build_prime_pool(12)
    with pytest.raises(ValueError):
        ResidueVector(pool=pool, residues=((1, 9), (1, 3)), d=2)  # 9 >= 7
    for bad in (3.5, 3.0):
        with pytest.raises(TypeError):
            ResidueVector(pool=pool, residues=((1, bad), (1, 3)), d=2)
        with pytest.raises(TypeError, match="integer"):
            ResidueVector(pool=pool, residues=((1, 3), (1, 3)), d=bad - 1.0)


def test_residue_vector_normalises_rows_to_int_tuples():
    pool = build_prime_pool(12)
    want = ResidueVector(pool=pool, residues=((1, 3), (1, 5)), d=2)
    for rows in ([[1, 3], [1, 5]], np.array([[1, 3], [1, 5]]),
                 ((np.int64(1), np.int32(3)), (1, np.uint8(5)))):
        v = ResidueVector(pool=pool, residues=rows, d=2)
        assert v == want and hash(v) == hash(want)
        assert all(type(r) is int for row in v.residues for r in row)
    assert type(ResidueVector(pool=pool, residues=((1, 3), (1, 5)), d=np.int64(2)).d) is int


def test_crt_pair_example():
    assert crt_pair(2, 3, 3, 5) == 8
    assert crt_pair(1, 7, 1, 11) == 1
