import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ranlat.cbc import (
    TIE_RTOL, CbcState, candidate_count, candidate_set, cbc_construct, record_bytes, record_layout,
    sigma_grid, single_sigma_table, theta_all,
)
from ranlat.errors import _error_sq, worst_case_error_sq, worst_case_errors_sq
from ranlat.fftconv import rader_cbc_kernel
from ranlat.kernels import (
    EXACT_SUM_CUTOFF, DomainError, KorobovSpaceParams, mu_quantity, poly_weights, sigma_alpha, zeta,
)
from ranlat.oracles import (
    cbc_construct_naive, column_order, direct_products, expanded_products, pair_sweep_naive,
    theta_all_naive,
)
from ranlat.primes import build_prime_pool, sieve_primes


def _params(d, alpha=2, c=2.0):
    return KorobovSpaceParams(d=d, alpha=alpha, gamma=poly_weights(d, c))


def test_candidate_set_of_one_tie_rule():
    assert candidate_set(np.array([3.0, 1.0, 1.0 + 1e-12, 2.0]), 1).tolist() == [1]
    assert candidate_set(np.array([0.5, 0.5, 0.1]), 1).tolist() == [2]


# offsets relative to a row's minimum: tied well inside TIE_RTOL, or apart well outside it
_tie_offsets = st.one_of(st.floats(0.0, 0.5 * TIE_RTOL), st.floats(2.0 * TIE_RTOL, 1.0))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), rows=st.integers(1, 4), p=st.integers(1, 12))
def test_candidate_set_of_one_is_the_first_near_minimum(data, rows, p):
    theta = np.empty((rows, p))
    for r in range(rows):
        offsets = data.draw(st.lists(_tie_offsets, min_size=p, max_size=p))
        offsets[data.draw(st.integers(0, p - 1))] = 0.0
        theta[r] = data.draw(st.floats(1e-18, 1e3)) * (1.0 + np.array(offsets))
    expect = []
    for row in theta.tolist():
        best = min(row)
        expect.append(next(i for i, v in enumerate(row) if v <= best + TIE_RTOL * abs(best)))
    assert candidate_set(theta, 1)[:, 0].tolist() == expect


def _ranked_candidate_set(theta, m):
    """candidate_set's rank-and-argsort path, which it takes for every m > 1."""
    edge = np.partition(theta, m - 1, axis=-1)[..., m - 1 : m]
    tol = TIE_RTOL * np.abs(edge)
    rank = (np.abs(theta - edge) > tol).view(np.int8) + np.int8(1)
    rank[theta < edge - tol] = 0
    return np.argsort(rank, axis=-1, kind="stable")[..., :m]


def test_candidate_set_of_one_is_the_general_path_at_the_tolerance():
    # the one-pass m = 1 path picks what the rank-and-argsort path picks when a value
    # lies exactly at the tie tolerance of the minimum (tied) or one ulp beyond it (not
    # tied), ahead of the minimum or behind it, in one row and in many
    rng = np.random.default_rng(7)
    rows, expect = [], []
    for low in (1.0, 3.7e-13, 2.5e3, 0.0):
        tol = TIE_RTOL * abs(low)
        at = low + tol
        while abs(at - low) > tol:
            at = np.nextafter(at, -np.inf)
        beyond = np.nextafter(at, np.inf)
        assert abs(at - low) <= tol < abs(beyond - low)
        for planted in (at, beyond):
            for where in (0, 2, 7):
                row = low + (1.0 + rng.random(9)) * max(abs(low), 1e-300) * 1e-3
                row[4], row[where] = low, planted
                rows.append(row)
                expect.append(where if planted == at and where < 4 else 4)
                assert candidate_set(row, 1).tolist() == _ranked_candidate_set(row, 1).tolist()
                assert candidate_set(row, 1).tolist() == [expect[-1]]
    rows = np.array(rows)
    assert candidate_set(rows, 1).tobytes() == _ranked_candidate_set(rows, 1).tobytes()
    assert candidate_set(rows, 1)[:, 0].tolist() == expect
    assert 0 < sum(e != 4 for e in expect) < len(expect)


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
    moduli=st.sampled_from([(1,), (2,), (12,), (30,), (64,), (101,), (2, 3), (3, 2), (4, 7),
                            (7, 11), (11, 7), (16, 13), (53, 59)]),
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
    assert _error_sq(state.mean()) == (max(expect, 0.0), expect < 0.0)


def _fsum_mean(state):
    """mean() as it was before exact_sum: one math.fsum over the stored rows, which a
    record stores weighted."""
    return math.fsum(state.P_products.ravel()) / math.prod(state.moduli)


@pytest.mark.parametrize("n", [30, 101, 307])
def test_mean_is_fsum_of_the_full_record_bit_for_bit(n):
    # every prime's record and, at n = 307, the pairs with the largest prime
    # (up to 45k stored entries, several extraction blocks) below and above the
    # exact_sum cutoff
    primes = build_prime_pool(n).primes
    params = _params(5, alpha=2, c=3.0)
    rng = np.random.default_rng(n)
    residues = {p: [1, *rng.integers(1, p, 4).tolist()] for p in primes}
    pairs = [(q, primes[-1]) for q in primes[:-1]]
    if n < 307:
        pairs += [(p, q) for p in primes for q in primes if p < q]
    sizes = []
    for moduli in [(p,) for p in primes] + pairs:
        state = CbcState(moduli, params, zip(*(residues[m] for m in moduli)))
        full = expanded_products(state)
        mean = state.mean()
        assert mean.hex() == _fsum_mean(state).hex()
        assert mean.hex() == (math.fsum(full.ravel()) / full.size).hex()
        sizes.append(state.P_products.size)
    assert min(sizes) < EXACT_SUM_CUTOFF
    assert n == 30 or max(sizes) >= EXACT_SUM_CUTOFF


def test_record_index_arithmetic_is_int64():
    # k z reaches 32768 * 65536 = 2^31 on the stored rows: an int32 index
    # would wrap and read the wrong sigma entries
    n, z = 65_537, (1, 65_536)
    params = KorobovSpaceParams(d=2, alpha=2, gamma=(1.0, 0.5))
    state = CbcState((n,), params, zip(z))
    fast = state.P_products / state.layout.weight  # stored weighted: dividing by 1 or 2 is exact
    assert fast.tobytes() == direct_products((n,), params, zip(z))[: n // 2 + 1].tobytes()


def test_record_takes_a_prime_or_a_run():
    # (2, 3, 5) is the run of the pairs (2, 5) and (3, 5), a row each at a = 0, 1
    with pytest.raises(DomainError):
        CbcState((), _params(1), ())
    with pytest.raises(DomainError):  # 3 and 9 share a factor: no CRT grid
        CbcState((5, 3, 9), _params(1), ())
    for moduli in ((4, 9), (16, 15), (3, 5, 16, 49)):  # a run's columns are a prime's Rader order
        with pytest.raises(DomainError):
            record_layout(moduli)
        with pytest.raises(DomainError):
            sigma_grid(moduli, 2)
        with pytest.raises(DomainError):
            CbcState(moduli, _params(1), ())
    run = CbcState((2, 3, 5), _params(1), [(1, 2, 3)])
    assert run.layout.starts.tolist() == [0, 2]
    pairs = [CbcState((q, 5), _params(1), [(z, 3)]) for q, z in ((2, 1), (3, 2))]
    assert run.P_products.tobytes() == np.vstack([s.P_products for s in pairs]).tobytes()


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_state_over_many_vectors_is_each_vector_bit_for_bit(alpha):
    # every prime < 120, p = 2 included (p // 2 + 1 == p: the full layout); a
    # state over many vectors sweeps, chooses and sums each row as the state of
    # that vector alone
    params = _params(3, alpha=alpha, c=3.0)
    rng = np.random.default_rng(alpha)
    for p in sieve_primes(119):
        z = rng.integers(0, p, (5, 3))
        z[:, 0] = 1
        for dims in (1, 2):
            batch = CbcState((p,), params, zip(z[:, :dims].T[:, :, None]))
            m = candidate_count(p, 0.5)
            theta, good, means = theta_all(batch), candidate_set(theta_all(batch), m), batch.mean()
            for r, row in enumerate(z[:, :dims].tolist()):
                one = CbcState((p,), params, zip(row))
                assert theta[r].tobytes() == theta_all(one).tobytes()
                assert good[r].tobytes() == candidate_set(theta_all(one), m).tobytes()
                assert means[r].hex() == one.mean().hex()
        wce = worst_case_errors_sq(p, z, params)
        for r, row in enumerate(z.tolist()):
            assert wce[r].hex() == worst_case_error_sq(p, row, params).hex()


def test_pair_record_holds_one_vector():
    with pytest.raises(DomainError):
        CbcState((5, 7), _params(1), [(np.array([[1], [2]]), np.array([[1], [3]]))])


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    p=st.sampled_from([5, 7, 11, 13, 29, 31, 53, 59]),
    alpha=st.sampled_from([1, 2, 3]),
)
def test_run_is_its_pairs_bit_for_bit(data, p, alpha):
    # a run of pairs (q_i, p) stacked on rows sweeps, extends, sums and averages
    # each pair bit for bit as the one-pair state (q_i, p) does, at any residues,
    # also when it is extended at the residues it was just swept at, and each
    # pair's products are the direct formula's
    qs = data.draw(st.lists(st.sampled_from([q for q in _PRIMES if q < p]), min_size=1,
                            max_size=4, unique=True).map(sorted))
    dims = data.draw(st.integers(1, 4))
    residues = st.integers(min_value=0, max_value=10 ** 4)
    prefix = [tuple(data.draw(residues) for _ in range(len(qs) + 1)) for _ in range(dims)]
    zq = [data.draw(residues) for _ in qs]
    params = KorobovSpaceParams(d=dims + 1, alpha=alpha, gamma=poly_weights(dims + 1, 1.5))
    run = CbcState((*qs, p), params, prefix)
    pairs = [CbcState((q, p), params, [(z[i], z[-1]) for z in prefix]) for i, q in enumerate(qs)]
    rows, sums, means = run.pair_sweep(*zq), run.pair_sums(), np.atleast_1d(run.mean())
    assert rows.shape == (len(qs), p)
    for i, pair in enumerate(pairs):
        a, b = run.layout.starts[i], run.layout.starts[i] + qs[i] // 2 + 1
        assert run.P_products[a:b].tobytes() == pair.P_products.tobytes()
        assert rows[i].tobytes() == pair.pair_sweep(zq[i])[0].tobytes()
        assert sums[i].tobytes() == pair.pair_sums()[0].tobytes()
        assert means[i].hex() == pair.mean().hex()
    zp = data.draw(residues)
    run.extend(*zq, zp)
    for i, pair in enumerate(pairs):
        pair.extend(zq[i], zp)
        direct = direct_products((qs[i], p), params, [(z[i], z[-1]) for z in prefix] + [(zq[i], zp)])
        assert expanded_products(pair).tobytes() == direct.tobytes()
    assert run.P_products.tobytes() == np.vstack([pair.P_products for pair in pairs]).tobytes()


@pytest.mark.parametrize("moduli", [(2,), (7,), (12,), (4, 7), (3, 2), (2, 4, 6, 9, 11), (3, 5, 16, 17),
                                    (16, 3), (47, 53)])
def test_record_layout_is_cached_and_read_only(moduli):
    # a prime is the pair (p, 1) of one column; each stored row a <= q/2 stands for
    # a and q - a, once where they are one row, so a pair's weights sum to q; and
    # a -> a c^-1 mod q, folded, permutes the pair's rows.  A run's columns are the
    # residues k of c in Rader order: sigma_rows reads them at z = 1, and extend at
    # any z by rotating the period.  At each z, folded rows included, entry (a, j)
    # of the rows is sigma_alpha at the CRT point of (a zq mod q, k_j z mod c), byte
    # for byte: the products of one extend from the weights are weight (1 + g sigma)
    layout = record_layout(moduli)
    assert record_layout(moduli) is layout
    *qs, c = moduli + (1,) if len(moduli) == 1 else moduli
    rows = sum(q // 2 + 1 for q in qs)
    assert layout.shape == ((rows,) if len(moduli) == 1 else (rows, c))
    assert record_bytes(moduli) == 16 * rows * c == 16 * math.prod(layout.shape)
    for x in layout[2:]:
        with pytest.raises(ValueError):
            x[0] = 5
    if len(moduli) > 1:
        params = _params(1, alpha=2)
        g = params.gamma[0] ** 2
        zq = [-(i + 1) for i in range(len(qs))]  # -1 folds each row 0 < a < q/2; q = 2 never folds
        folded = 0
        for z in (0, 1, 2, c - 1, c, 3 * c + 5, -7):
            expect = []
            for q, zi in zip(qs, zq):
                m, l = q * c, np.arange(q // 2 + 1) * zi % q
                point = (l[:, None] * c + column_order(c) * z % c * q) % m
                expect.append(sigma_alpha(np.minimum(point, m - point) / m, 2))
                folded += np.count_nonzero(l > q - l)
            expect = np.concatenate(expect)
            state = CbcState(moduli, params, ())
            if z == 1:
                assert state.sigma_rows(*zq).tobytes() == expect.tobytes()
            state.extend(*zq, z)
            assert state.P_products.tobytes() == (layout.weight[:, None] * (expect * g + 1.0)).tobytes(), z
        assert folded > 0
    for i, q in enumerate(qs):
        own = np.flatnonzero(layout.pair == i)
        assert layout.starts[i] == own[0] and len(own) == q // 2 + 1
        assert layout.rows[i] == slice(own[0], own[-1] + 1)
        assert layout.q[own].tolist() == [q] * len(own)
        assert layout.a[own].tolist() == list(range(len(own)))
        assert layout.weight[own].sum() == q
        assert sorted(layout.inverse[own].tolist()) == own.tolist()
        r = layout.a[own] * pow(c, -1, q) % q
        assert (layout.inverse[own] - own[0]).tolist() == np.minimum(r, q - r).tolist()


@pytest.mark.parametrize("alpha", [1, 2, 3])
@pytest.mark.parametrize("p", [5, 7, 11])
def test_pair_sweep_and_sums_are_the_direct_sums(p, alpha):
    # even and composite first moduli, as a run and each pair alone: the row q/2 of
    # an even q is its own mirror and counts once in the sweep.  The pair sums are
    # the full products' row sums read at k p^-1 mod q, times the rows each stands
    # for, and at z = 0 the direct sweep is sum over l in Z_q of sigma_alpha(l zq / q)
    # times row sum l
    qs = (2, 4, 6, 9)
    rng = np.random.default_rng(p * alpha)
    params = _params(3, alpha=alpha, c=1.5)
    prefix = [tuple(rng.integers(0, 10 ** 4, len(qs) + 1).tolist()) for _ in range(2)]
    zq = dict(zip(qs, rng.integers(0, 10 ** 4, len(qs)).tolist()))
    states = [CbcState((*qs, p), params, prefix)]
    states += [CbcState((q, p), params, [(z[i], z[-1]) for z in prefix]) for i, q in enumerate(qs)]
    for state in states:
        run = state.moduli[:-1]
        z = [zq[q] for q in run]
        slow = pair_sweep_naive(state, *z)
        assert np.max(np.abs(state.pair_sweep(*z) - slow)) < 1e-12 * np.max(np.abs(slow))
        full = np.split(expanded_products(state), np.cumsum(run)[:-1])
        for q, zi, sums, rows, s0 in zip(run, z, state.pair_sums(), full, slow[:, 0]):
            k = np.arange(q // 2 + 1)
            sums = sums / np.where(2 * k % q, 2.0, 1.0)  # dividing by 1 or 2 is exact
            np.testing.assert_allclose(sums, rows[k * pow(p, -1, q) % q].sum(axis=1), rtol=1e-13)
            at = np.arange(q) * p % q
            total = sigma_alpha(np.arange(q) * zi % q / q, alpha) @ sums[np.minimum(at, q - at)]
            assert total == pytest.approx(s0, rel=1e-12)


@pytest.mark.parametrize("alpha", [1, 2, 3])
@pytest.mark.parametrize("moduli", [(2,), (7,), (12,), (101,), (2, 5), (3, 2), (4, 7), (16, 13),
                                    (53, 59), (2, 4, 6, 9, 11), (3, 5, 16, 17), (31, 43, 53)])
def test_sigma_grid_is_the_direct_formula(moduli, alpha):
    # primes, runs, and even and composite first moduli: each entry is
    # sigma_alpha(min(c, m - c) / m) of the CRT point c = (a m / q + k m / p) mod m
    # of the pair (q, p) of its row, with the columns k in Rader order, byte for
    # byte, though the grid reduces |c - m| with no mask and skips the floor
    grid = sigma_grid(moduli, alpha)
    *qs, p = moduli + (1,) if len(moduli) == 1 else moduli
    k = column_order(p) if len(moduli) > 1 else 0
    expect = []
    for q in qs:
        m = q * p
        c = (np.arange(q // 2 + 1)[:, None] * p + k * q) % m
        expect.append(sigma_alpha(np.minimum(c, m - c) / m, alpha))
    assert grid.tobytes() == np.concatenate(expect).reshape(grid.shape).tobytes()
    assert not grid.flags.writeable


def _natural_table(q, p, zq, alpha):
    """The natural-order sigma table of the pair (q, p) read at zq: row a <= q/2 is the
    CRT grid's row l = a zq mod q over k in Z_p, times the rows it stands for."""
    m, a = q * p, np.arange(q // 2 + 1)
    c = ((a * zq % q)[:, None] * p + np.arange(p) * q) % m
    return sigma_alpha(np.minimum(c, m - c) / m, alpha) * np.where(2 * a % q, 2.0, 1.0)[:, None]


@pytest.mark.parametrize("alpha", [1, 2, 3])
@pytest.mark.parametrize("p", [5, 7, 11, 53])
def test_pair_sweep_takes_the_natural_kernels_inputs(p, alpha):
    # a pair's grid rows, folded or not, and its products, both stored in Rader order
    # and the products weighted, are the same numbers in the same positions as the
    # natural-order weighted table and products that rader_cbc_kernel reindexes, so
    # every sweep value is that kernel's bit for bit, z = 0 included, whose sum runs
    # over the k in Rader order in both: for the run (2, 4, 6, 9, p), a pair (q, p) and
    # a run (q_1, q_2, p)
    below = sieve_primes(p - 1)
    rng = np.random.default_rng(p * alpha)
    params = _params(4, alpha=alpha, c=1.5)
    folded = 0
    for qs in ((2, 4, 6, 9), (below[-1],), tuple(below[-2:])):
        prefix = [tuple(rng.integers(0, 10 ** 4, len(qs) + 1).tolist()) for _ in range(3)]
        zq = rng.integers(0, 10 ** 4, len(qs)).tolist()
        state = CbcState((*qs, p), params, prefix)
        S = state.pair_sweep(*zq)
        full = np.split(expanded_products(state), np.cumsum(qs)[:-1])
        for i, (q, zi) in enumerate(zip(qs, zq)):
            table = _natural_table(q, p, zi, alpha)
            kernel = rader_cbc_kernel(p, table, full[i][: q // 2 + 1])
            assert S[i].tobytes() == kernel.tobytes(), (qs, q)
            a = np.arange(q // 2 + 1) * zi % q
            folded += np.count_nonzero(a > q - a)
    assert folded > 0  # some rows are read folded


@pytest.mark.parametrize("moduli", [(3, 5, 7, 11, 13), (2, 4, 9, 11), (47, 53)])
def test_held_rows_extend_as_a_fresh_gather_byte_for_byte(moduli):
    # pair_sweep gathers a run's grid rows into the caller's buffer and holds them, and
    # the extend at the same zq scales them in place and multiplies them in: its products
    # are byte-equal to those of a never-swept twin extended through a fresh gather, for
    # runs of several pairs and one, folded rows, z_p = 0 and rotation 0 (z_p = 1).  The
    # held rows serve one extend; a sweep at one zq and an extend at another gathers
    # afresh and leaves the buffer as swept
    p, size = moduli[-1], record_bytes(moduli) // 16
    params = _params(4, alpha=2, c=1.5)
    rng = np.random.default_rng(p)
    prefix = [tuple(rng.integers(0, 10 ** 4, len(moduli)).tolist())]
    zq = tuple(-(i + 1) for i in range(len(moduli) - 1))  # -1 folds each row 0 < a < q/2
    g = params.gamma[1] ** 2
    for zp in (0, p, 1, 2, -1, int(rng.integers(3, 10 ** 4))):
        buffer = np.full(size + 5, np.nan)
        view = buffer[:size].reshape(-1, p)
        swept, fresh = CbcState(moduli, params, prefix), CbcState(moduli, params, prefix)
        gathered = fresh.sigma_rows(*zq)
        S = swept.pair_sweep(*zq, out=view)
        assert S.tobytes() == CbcState(moduli, params, prefix).pair_sweep(*zq).tobytes()
        assert view.tobytes() == gathered.tobytes()
        swept.extend(*zq, zp)
        fresh.extend(*zq, zp)
        assert swept.P_products.tobytes() == fresh.P_products.tobytes(), zp
        assert view.tobytes() == (gathered * g + 1.0).tobytes()  # the held rows were read
        assert np.isnan(buffer[size:]).all()
        swept.extend(*zq, zp + 3)  # the held rows are spent
        fresh.extend(*zq, zp + 3)
        assert swept.P_products.tobytes() == fresh.P_products.tobytes(), zp
        other = tuple(z + 1 for z in zq)
        swept, fresh = CbcState(moduli, params, prefix), CbcState(moduli, params, prefix)
        swept.pair_sweep(*zq, out=view)
        swept.extend(*other, zp)
        fresh.extend(*other, zp)
        assert swept.P_products.tobytes() == fresh.P_products.tobytes(), zp
        assert view.tobytes() == gathered.tobytes()
    a = [np.arange(q // 2 + 1) * z % q for q, z in zip(moduli, zq)]
    assert sum(np.count_nonzero(a_i > q - a_i) for q, a_i in zip(moduli, a)) > 0  # some read folded


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_theta_reads_the_cached_sigma_table_bit_for_bit_the_kernel(alpha):
    # a prime's sigma table transform is cached per (p, alpha) and read-only, and every
    # sweep through it, with and without the larger-prime row, of one vector and of
    # many, is rader_cbc_kernel of the natural-order grid and products bit for bit
    params = _params(3, alpha=alpha, c=3.0)
    rng = np.random.default_rng(alpha)
    for p in (2, 3, 13, 53, 101):
        table = single_sigma_table(p, alpha)
        assert single_sigma_table(p, alpha) is table
        for x in table:
            with pytest.raises(ValueError):
                x[0] = 1.0
        z = rng.integers(0, p, (4, 2))
        z[:, 0] = 1
        one, batch = CbcState((p,), params, zip(z[0])), CbcState((p,), params, zip(z.T[:, :, None]))
        for state in (one, batch):
            for rows in ((), (rng.random(p // 2 + 1),)):
                w = np.vstack((state.P_products,) + rows) if rows else state.P_products
                kernel = rader_cbc_kernel(p, state.grid[None], w[..., None, :])
                assert state.sweep(*rows).tobytes() == kernel.tobytes(), (p, rows)
