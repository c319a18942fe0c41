import copy
import math
import pickle
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import ranlat.cbc as cbc_module
import ranlat.construct as construct_module
import ranlat.errors as errors_module
from ranlat.cbc import CbcState
from ranlat.construct import construct_fixed_vector
from ranlat.errors import (
    BoundParams,
    default_lambda_grid,
    good_set_threshold,
    randomized_error_sq_fixed,
    theorem_bound_eran,
    theorem_bound_min,
    theorem_constant,
    worst_case_error_sq,
)
from ranlat.kernels import DomainError, KorobovSpaceParams, poly_weights, sigma_alpha, zeta
from ranlat.oracles import (
    component_threshold,
    crt_pair,
    direct_products,
    dual_tail_bound,
    omega_weight,
    randomized_error_sq_truncated,
    worst_case_error_sq_truncated,
)
from ranlat.primes import ResidueVector, build_prime_pool

UNIT_1D = KorobovSpaceParams(d=1, alpha=1, gamma=(1.0,))


def test_wce_one_point_rule():
    # single point at the origin: squared error is the full kernel sum
    assert worst_case_error_sq(1, [1], UNIT_1D) == pytest.approx(
        math.pi ** 2 / 3, rel=1e-13
    )


def test_wce_1d_closed_form():
    # dual lattice of z=1, n=3 in 1-D is 3Z \ {0}: sum 1/h^2 = 2 zeta(2)/9
    assert worst_case_error_sq(3, [1], UNIT_1D) == pytest.approx(
        math.pi ** 2 / 27, rel=1e-12
    )
    for n in (5, 7, 11):
        assert worst_case_error_sq(n, [1], UNIT_1D) == pytest.approx(
            2 * zeta(2.0) / n ** 2, rel=1e-11
        )


def test_wce_rejects_non_integer_vector():
    # rejected as a residue, not by a numpy cast deep inside the sum
    params = KorobovSpaceParams(d=2, alpha=1, gamma=(1.0, 1.0))
    with pytest.raises(TypeError, match="integer"):
        worst_case_error_sq(7, (1, 3.5), params)


def test_character_sum_identity():
    # (1/p) sum_k sigma_alpha(k z / p) = 2 zeta(2 alpha) / p^{2 alpha} for gcd(z,p)=1
    for p in (3, 5, 7, 11):
        for alpha in (1, 2):
            k = np.arange(p)
            val = float(np.mean(sigma_alpha(k * (p - 1) % p / p, alpha)))
            assert val == pytest.approx(
                2 * zeta(2.0 * alpha) / p ** (2 * alpha), rel=1e-10, abs=1e-14
            )


def test_wce_point_formula_vs_truncated_oracle():
    params = KorobovSpaceParams(d=3, alpha=2, gamma=poly_weights(3, 2.0))
    exact = worst_case_error_sq(13, (1, 5, 8), params)
    approx = worst_case_error_sq_truncated(13, (1, 5, 8), params, 60)
    tail = dual_tail_bound(params, 60)
    assert abs(exact - approx) <= 1e-6 * exact + tail


@pytest.mark.parametrize("n, z", [(12, (1, 5, 7)), (30, (1, 7, 11)), (64, (1, 19, 27))])
def test_wce_composite_and_even_n_vs_truncated_oracle(n, z):
    # half records at composite and even n: row n/2 stands for itself
    params = KorobovSpaceParams(d=3, alpha=2, gamma=poly_weights(3, 2.0))
    exact = worst_case_error_sq(n, z, params)
    approx = worst_case_error_sq_truncated(n, z, params, 60)
    tail = dual_tail_bound(params, 60)
    assert abs(exact - approx) <= 1e-6 * exact + tail


def test_dual_tail_bound_decreasing():
    params = KorobovSpaceParams(d=2, alpha=2, gamma=(1.0, 0.5))
    tails = [dual_tail_bound(params, h) for h in (10, 20, 40, 80)]
    assert all(a > b > 0 for a, b in zip(tails, tails[1:]))


def test_eran_single_prime_pool():
    # budget 6 -> pool {5}; z = (1,): squared randomised error is E(5)
    pool = build_prime_pool(6)
    assert pool.primes == (5,)
    v = ResidueVector(pool=pool, residues=((1,),), d=1)
    rep = randomized_error_sq_fixed(v, UNIT_1D)
    assert rep.squared_error == pytest.approx(2 * zeta(2.0) / 25, rel=1e-12)
    assert list(rep.decomposition) == ["p=5"]


def test_eran_decomposition_sums_to_total():
    params = KorobovSpaceParams(d=2, alpha=2, gamma=poly_weights(2, 2.0))
    pool = build_prime_pool(20)
    v = ResidueVector(pool=pool, residues=((1, 3), (1, 5), (1, 2), (1, 7)), d=2)
    rep = randomized_error_sq_fixed(v, params)
    assert rep.squared_error == pytest.approx(
        math.fsum(rep.decomposition.values()), rel=1e-13
    )
    assert all(t >= 0.0 for t in rep.decomposition.values())


def test_eran_pair_terms_equal_crt_point_formula():
    # the separable Z_p x Z_q grid holds the CRT-combined rule's points in a
    # permuted order, and fsum is exact, so every term agrees bit for bit
    params = KorobovSpaceParams(d=4, alpha=2, gamma=poly_weights(4, 3.0))
    pool = build_prime_pool(60)
    rng = np.random.default_rng(7)
    res = tuple((1,) + tuple(int(r) for r in rng.integers(0, p, 3)) for p in pool.primes)
    v = ResidueVector(pool=pool, residues=res, d=4)
    rep = randomized_error_sq_fixed(v, params)
    scale = 1.0 / len(pool.primes) ** 2
    count = 0
    for (p, res_p), (q, res_q) in combinations(zip(pool.primes, v.residues), 2):
        # the pq-point rule's vector: componentwise CRT combination
        z = [crt_pair(rp, p, rq, q) for rp, rq in zip(res_p, res_q, strict=True)]
        crt_term = 2.0 * scale * worst_case_error_sq(p * q, z, params)
        assert rep.decomposition[f"pq={p}x{q}"] == crt_term
        count += 1
    assert count == 21  # pool 31, 37, 41, 43, 47, 53, 59


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)


@settings(max_examples=80, deadline=None)
@example(p=7, q=61, alpha=3, data=[3, 0, 60, 5, 1, 2, 4, 59])
@example(p=61, q=7, alpha=2, data=[3, 0, 60, 5, 1, 2, 4, 59])
@given(
    p=st.sampled_from(_SMALL_PRIMES),
    q=st.sampled_from(_SMALL_PRIMES),
    alpha=st.sampled_from([1, 2, 3]),
    data=st.lists(st.integers(min_value=0, max_value=10 ** 4), max_size=8),
)
def test_pair_state_bit_identical_to_flat_formula(p, q, alpha, data):
    # p < q and p > q; prefix lengths 0..4 from the residue pairs in data
    assume(p != q)
    m = len(data) // 2
    res_p = [r % p for r in data[:m]]
    res_q = [r % q for r in data[m : 2 * m]]
    params = KorobovSpaceParams(d=max(m, 1), alpha=alpha, gamma=poly_weights(max(m, 1), 1.5))
    fast = CbcState((p, q), params, zip(res_p, res_q, strict=True)).P_products
    direct = direct_products((p, q), params, zip(res_p, res_q, strict=True))
    assert fast.tobytes() == direct[: p // 2 + 1].tobytes()


def test_eran_counts_clamped_terms(monkeypatch):
    # n=131, alpha=3: round-off puts one pair term (109 x 127) below 0
    params = KorobovSpaceParams(d=5, alpha=3, gamma=poly_weights(5, 3.0))
    v = construct_fixed_vector(131, 5, params)
    real = randomized_error_sq_fixed(v, params)
    assert real.clamped == 1
    # pair products of 1 - 1e-14 put every pair term at -1e-14, above the
    # floor; the single-prime records stay real
    class PairProductsBelowOne(CbcState):
        def __post_init__(self, prefix):
            super().__post_init__(prefix)
            if len(self.moduli) == 2:
                self.P_products = np.full(self.P_products.shape, 1.0 - 1e-14)

    monkeypatch.setattr(errors_module, "CbcState", PairProductsBelowOne)
    rep = randomized_error_sq_fixed(ResidueVector(v.pool, v.residues, v.d), params)
    pair_terms = [t for key, t in rep.decomposition.items() if key.startswith("pq=")]
    assert len(pair_terms) == 91  # 14 primes in (65, 131]
    assert rep.clamped == 91 and set(pair_terms) == {0.0}
    assert type(rep.clamped) is int and {type(t) for t in rep.decomposition.values()} == {float}
    singles = [f"p={p}" for p in v.pool.primes]
    assert [rep.decomposition[k] for k in singles] == [real.decomposition[k] for k in singles]
    assert rep.squared_error == math.fsum(rep.decomposition.values())


def _report_hex(rep):
    return (rep.squared_error.hex(), {k: t.hex() for k, t in rep.decomposition.items()},
            rep.clamped)


@pytest.mark.parametrize("memory_bytes", [1 << 62, 0], ids=["kept", "rebuilt"])
@pytest.mark.parametrize("n, alpha", [(30, 2), (101, 2), (131, 3)])
def test_carried_report_equals_fresh_bit_for_bit(monkeypatch, memory_bytes, n, alpha):
    # the report construct reads from its records is the one built anew from
    # the residues, term for term; n=131, alpha=3 has one clamped term
    monkeypatch.setattr(construct_module, "physical_memory_bytes", lambda: memory_bytes)
    params = KorobovSpaceParams(d=5, alpha=alpha, gamma=poly_weights(5, 3.0))
    v = construct_fixed_vector(n, 5, params)
    carried = randomized_error_sq_fixed(v, params)
    assert carried is v.eran[1]
    fresh = randomized_error_sq_fixed(ResidueVector(v.pool, v.residues, v.d), params)
    assert _report_hex(carried) == _report_hex(fresh)
    assert carried.clamped == (n == 131)


def test_other_params_take_the_fresh_path():
    # the carried report answers only the params it was computed under, by
    # value; an equal vector built by hand carries none, and equality ignores
    # the report
    params = KorobovSpaceParams(d=3, alpha=2, gamma=poly_weights(3, 3.0))
    other = KorobovSpaceParams(d=3, alpha=2, gamma=poly_weights(3, 2.0))
    v = construct_fixed_vector(30, 3, params)
    same = KorobovSpaceParams(d=3, alpha=2, gamma=np.array(poly_weights(3, 3.0)))
    assert randomized_error_sq_fixed(v, same) is v.eran[1]
    plain = ResidueVector(v.pool, v.residues, v.d)
    assert plain == v and hash(plain) == hash(v) and plain.eran is None
    assert v.eran[0] == params
    rep = randomized_error_sq_fixed(v, other)
    assert _report_hex(rep) == _report_hex(randomized_error_sq_fixed(plain, other))
    assert rep.squared_error != v.eran[1].squared_error


def test_report_decomposition_is_read_only():
    # a carried report is returned on every call, so no caller may edit it;
    # a vector that carries one still pickles and copies, report and all
    params = KorobovSpaceParams(d=2, alpha=2, gamma=poly_weights(2, 3.0))
    v = construct_fixed_vector(20, 2, params)
    rep = randomized_error_sq_fixed(v, params)
    with pytest.raises(TypeError):
        rep.decomposition["p=11"] = 0.0
    assert randomized_error_sq_fixed(v, params).decomposition == rep.decomposition
    for w in (pickle.loads(pickle.dumps(v)), copy.deepcopy(v)):
        assert w == v and w.eran[0] == params
        assert _report_hex(w.eran[1]) == _report_hex(rep)
        with pytest.raises(TypeError):
            w.eran[1].decomposition["p=11"] = 0.0


def test_point_products_overflow_guard(monkeypatch):
    params = KorobovSpaceParams(d=1, alpha=1, gamma=(1.0,))

    class NoArrays:
        def __getattr__(self, name):
            raise AssertionError(f"np.{name} reached before the overflow guard")

    monkeypatch.setattr(errors_module, "np", NoArrays())
    monkeypatch.setattr(cbc_module, "np", NoArrays())
    with pytest.raises(DomainError):
        worst_case_error_sq(3_037_000_500, (1,), params)
    with pytest.raises(DomainError):
        worst_case_error_sq(2 ** 40, (1,), params)


@pytest.mark.parametrize("z", [(1,), (1, 5, 7)], ids=["d-1", "d+1"])
def test_wce_rejects_vector_of_wrong_dimension(z):
    # a surplus component must not be ignored, nor a missing one read past the end
    params = KorobovSpaceParams(d=2, alpha=1, gamma=(1.0, 0.5))
    with pytest.raises(DomainError):
        worst_case_error_sq(31, z, params)


@pytest.mark.parametrize("d", [1, 3])
def test_eran_rejects_vector_of_wrong_dimension(d):
    params = KorobovSpaceParams(d=2, alpha=1, gamma=(1.0, 0.5))
    pool = build_prime_pool(12)  # primes 7, 11
    v = ResidueVector(pool=pool, residues=((1, 2, 3)[:d], (1, 5, 7)[:d]), d=d)
    with pytest.raises(DomainError):
        randomized_error_sq_fixed(v, params)


@settings(max_examples=60, deadline=None)
@example(n=307, alpha=2, z=[1, 117, 45], gamma=[1.0, 0.125, 0.037])
@example(n=3599, alpha=3, z=[1, 1024, 3598, 60], gamma=[1.0, 0.25, 0.1, 0.0625])
@given(
    n=st.integers(min_value=1, max_value=500),
    alpha=st.sampled_from([1, 2, 3]),
    z=st.lists(st.integers(min_value=-10 ** 6, max_value=10 ** 6), min_size=1, max_size=6),
    gamma=st.lists(st.floats(min_value=1e-3, max_value=2.0), min_size=6, max_size=6),
)
def test_single_record_bit_identical_to_direct_formula(n, alpha, z, gamma):
    # prime (307) and composite (3599 = 59 * 61) budgets as fixed examples
    params = KorobovSpaceParams(d=len(z), alpha=alpha, gamma=tuple(gamma[: len(z)]))
    fast = CbcState((n,), params, zip(z)).P_products
    assert fast.tobytes() == direct_products((n,), params, zip(z))[: n // 2 + 1].tobytes()


def test_eran_matches_truncated_brute_force():
    params = KorobovSpaceParams(d=2, alpha=2, gamma=poly_weights(2, 2.0))
    pool = build_prime_pool(12)
    v = ResidueVector(pool=pool, residues=((1, 3), (1, 8)), d=2)
    exact = randomized_error_sq_fixed(v, params).squared_error
    approx = randomized_error_sq_truncated(v, params, 80)
    tail = dual_tail_bound(params, 80)
    assert abs(exact - approx) <= 1e-6 * exact + 4.0 * tail


def test_omega_examples():
    pool = build_prime_pool(12)  # {7, 11}
    v = ResidueVector(pool=pool, residues=((1, 3), (1, 5)), d=2)
    assert omega_weight((0, 0), v) == 1.0
    assert omega_weight((7, 7), v) == pytest.approx(0.5)  # hits p=7 only
    assert omega_weight((77, 0), v) == 1.0


@given(
    h1=st.integers(min_value=-30, max_value=30),
    h2=st.integers(min_value=-30, max_value=30),
)
def test_omega_in_unit_interval(h1, h2):
    pool = build_prime_pool(12)
    v = ResidueVector(pool=pool, residues=((1, 3), (1, 5)), d=2)
    w = omega_weight((h1, h2), v)
    assert 0.0 <= w <= 1.0


def test_theorem_constant_value():
    # lambda = tau = 1/2: 2^2/(c' (1/2)) + 2^3/((1/2)(1/2)) + 2^2 (3/2)/((1/2)(1/2)^0)
    c = theorem_constant(0.5, 0.5)
    assert c == pytest.approx(8.0 / 0.23 + 32.0 + 12.0, rel=1e-13)


def test_theorem_bound_shapes():
    params = KorobovSpaceParams(d=5, alpha=1, gamma=poly_weights(5, 3.0))
    bounds = BoundParams(tau=0.5, lambda_grid=default_lambda_grid(1))
    b = theorem_bound_min(100, params, bounds)
    assert b > 0
    # the minimum over the grid is no larger than any single grid point
    for lam in bounds.lambda_grid:
        assert b <= theorem_bound_eran(100, params, 0.5, lam) * (1 + 1e-12)


def test_thresholds_decrease_with_p():
    params = KorobovSpaceParams(d=3, alpha=2, gamma=poly_weights(3, 2.0))
    bounds = BoundParams(tau=0.5, lambda_grid=default_lambda_grid(2))
    ts = [good_set_threshold(p, params, bounds) for p in (11, 23, 47, 97)]
    assert all(a > b > 0 for a, b in zip(ts, ts[1:]))
    cs = [component_threshold(p, 2, params, bounds) for p in (11, 23, 47, 97)]
    assert all(a > b > 0 for a, b in zip(cs, cs[1:]))


def test_good_set_threshold_is_loose_enough():
    # at least ceil(tau p) of all p^d vectors must fall under the threshold
    params = KorobovSpaceParams(d=2, alpha=1, gamma=(1.0, 0.5))
    bounds = BoundParams(tau=0.5, lambda_grid=default_lambda_grid(1))
    p = 7
    thr2 = good_set_threshold(p, params, bounds) ** 2
    count = sum(
        worst_case_error_sq(p, (z1, z2), params) <= thr2
        for z1 in range(p)
        for z2 in range(p)
    )
    assert count >= math.ceil(0.5 * p ** 2)
