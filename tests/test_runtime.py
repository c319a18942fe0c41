import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ranlat import runtime
from ranlat.construct import construct_fixed_vector
from ranlat.errors import randomized_error_sq_fixed
from ranlat.fftconv import rader_cbc_kernel
from ranlat.kernels import EXACT_SUM_CUTOFF, DomainError, KorobovSpaceParams, poly_weights, sigma_reduced
from ranlat.primes import ResidueVector, build_prime_pool
from ranlat.runtime import (
    REPETITION_BLOCK,
    Integrand,
    RunConfig,
    SamplingFailureError,
    constant_integrand,
    draws_below,
    lattice_rule,
    lattice_rules,
    product_bernoulli,
    product_cosine,
    run_rp_cbc,
    run_rp_rv,
    run_rpfv,
)
from ranlat.oracles import SplitMix64, stream_seed, truncated_extremal


def test_splitmix_reference_sequence():
    # reference outputs for seed 0 (SplitMix64 with the standard constants)
    g = SplitMix64(0)
    assert g.next_u64() == 0xE220A8397B1DCDAF
    assert g.next_u64() == 0x6E789E6AA1B965F4
    assert g.next_u64() == 0x06C45D188009454F


def test_splitmix_determinism_and_streams():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]
    assert stream_seed(1, 0) != stream_seed(1, 1)
    assert stream_seed(1, 5) == stream_seed(1, 5)


@given(m=st.integers(min_value=1, max_value=10 ** 12))
def test_next_below_range(m):
    g = SplitMix64(m)
    x = g.next_below(m)
    assert 0 <= x < m


def test_next_below_modulus_bounds():
    # above 2**64 the rejection limit is 0, so no draw could ever be accepted;
    # the specification takes 2**64 itself, draws_below only uint64 moduli
    assert 0 <= SplitMix64(5).next_below(2 ** 64) < 2 ** 64
    with pytest.raises(DomainError):
        draws_below(5, np.arange(3), 0, 2 ** 64)
    for m in (2 ** 64 + 1, 2 ** 65, 0, -3):
        with pytest.raises(DomainError):
            SplitMix64(5).next_below(m)
        with pytest.raises(DomainError):
            draws_below(5, np.arange(3), 0, m)
    for m in ([3, 0, 2], [-3, 5], [3, 2 ** 64]):  # one modulus per repetition
        with pytest.raises(DomainError):
            draws_below(5, np.arange(len(m)), 0, np.array(m))


def test_draws_below_of_no_repetitions_is_empty():
    for m in (np.array([], dtype=np.int64), 5):
        draws, after = draws_below(5, np.arange(0), np.array([], dtype=np.int64), m)
        assert draws.shape == after.shape == (0,)


def test_draws_below_leaves_its_arguments_as_they_were():
    # callers keep their position and modulus arrays, rejections included
    reps, pos, m = np.arange(200), np.arange(200) % 7, MIXED[np.arange(200) % len(MIXED)]
    kept = reps.copy(), pos.copy(), m.copy()
    draws_below(3, reps, pos, m)
    for arg, was in zip((reps, pos, m), kept):
        assert arg.tobytes() == was.tobytes()


class _Counted(SplitMix64):
    """The specification's generator, counting the outputs it has given."""

    outputs = 0

    def next_u64(self) -> int:
        self.outputs += 1
        return super().next_u64()


def _assert_scalar_draws(seed, reps, pos, m):
    """draws_below(seed, reps, pos, m) against stream reps[i] of the scalar
    generator advanced by pos[i] outputs, then next_below(m[i]): the same
    draws, and the outputs each stream has then consumed.  pos and m may be
    "per repetition": reps % 7 and a cycle of MIXED."""
    if pos == "per repetition":
        pos = reps % 7
    if m == "per repetition":
        m = MIXED[reps % len(MIXED)]
    got, after = draws_below(seed, reps, pos, m)
    assert got.dtype == np.uint64
    per_rep = lambda v: v.tolist() if np.ndim(v) else [v] * len(reps)
    want, consumed = [], []
    for r, p, mr in zip(reps.tolist(), per_rep(pos), per_rep(m)):
        g = _Counted(stream_seed(seed, r))
        for _ in range(p):
            g.next_u64()
        want.append(g.next_below(mr))
        consumed.append(g.outputs)
    assert got.tolist() == want
    assert after.tolist() == consumed


# 2**63 + 1 and 3 * 2**62 reject about 1/2 and 1/4 of outputs, so rejected
# repetitions are redrawn, some more than once; 2**64 - 1 rejects one output
# in 2**64 and 2**62 none.  MIXED puts small moduli into one array with
# moduli that reach the redraw.
MIXED = np.array([13, 2 ** 63 + 1, 1, 3 * 2 ** 62, 7, 2 ** 62], dtype=np.uint64)
MODULI = [1, 13, 2 ** 63 + 1, 3 * 2 ** 62, 2 ** 62, 2 ** 64 - 1, "per repetition"]
SEEDS = [0, 1, 7, 2 ** 64 - 1, -1]


@pytest.mark.parametrize("m", MODULI)
@pytest.mark.parametrize("seed", SEEDS)
def test_first_draws_below_matches_scalar_streams(seed, m):
    # every stream at position 0: the only draw of a run_rpfv repetition
    _assert_scalar_draws(seed, np.arange(2_000), 0, m)


@pytest.mark.parametrize("m", MODULI)
@pytest.mark.parametrize("pos", [5, "per repetition"])
@pytest.mark.parametrize("seed", SEEDS)
def test_draws_below_matches_scalar_streams_at_any_position(seed, pos, m):
    _assert_scalar_draws(seed, np.arange(300, 1_300), pos, m)


def test_draws_below_chains_like_one_stream():
    # each call at the positions the last one returned: consecutive next_below
    # calls of every stream, the rejections of one draw shifting the next
    moduli = [3 * 2 ** 62, 13, 2 ** 63 + 1, 7]
    reps, pos, got = np.arange(500), 0, []
    for m in moduli:
        draws, pos = draws_below(3, reps, pos, m)
        got.append(draws.tolist())
    for r in reps.tolist():
        g = SplitMix64(stream_seed(3, r))
        assert [g.next_below(m) for m in moduli] == [col[r] for col in got]


@pytest.mark.parametrize("m, share", [(2 ** 63 + 1, 1 / 2), (3 * 2 ** 62, 1 / 4)])
def test_first_draws_below_moduli_reach_the_redraw(m, share):
    # the premise of the tests above: these moduli reject first outputs often
    limit = (1 << 64) - ((1 << 64) % m)
    firsts = [SplitMix64(stream_seed(0, i)).next_u64() for i in range(2_000)]
    assert abs(sum(r >= limit for r in firsts) / 2_000 - share) < 0.05


def test_next_below_unbiased_small():
    g = SplitMix64(9)
    counts = np.zeros(5)
    for _ in range(50_000):
        counts[g.next_below(5)] += 1
    # chi-square with 4 dof; 30 is far beyond any sane quantile
    chi2 = np.sum((counts - 10_000) ** 2 / 10_000)
    assert chi2 < 30


def test_lattice_points_structure():
    # the rule evaluates f at the points {k z mod n}/n, k = 0..n-1
    seen = []
    f = Integrand(evaluate=lambda x: seen.append(x) or np.zeros(len(x)), d=2)
    lattice_rule(f, 5, [1, 7])
    (pts,) = seen
    assert pts.tobytes() == (np.outer(np.arange(5), [1, 7]) % 5 / 5).tobytes()
    assert pts[3] == pytest.approx([3 / 5, 21 % 5 / 5])


def test_lattice_rule_exact_for_low_frequency():
    # the rule integrates e^{2 pi i h x} exactly unless h is in the dual lattice
    f = product_cosine(2)
    # n=7, z=(1,3): frequencies h with |h_j| <= 1 and h_1 + 3 h_2 = 0 (mod 7)
    # do not exist apart from h=0, so the rule is exact
    assert lattice_rule(f, 7, [1, 3]) == pytest.approx(1.0, abs=1e-14)


def test_lattice_rule_rejects_non_integer_vector():
    # 3.5 must not be truncated to 3
    with pytest.raises(TypeError, match="integer"):
        lattice_rule(product_cosine(2), 7, (1, 3.5))


@pytest.mark.parametrize("n", [EXACT_SUM_CUTOFF - 1, EXACT_SUM_CUTOFF, 40_009])
def test_lattice_rule_is_the_fsum_average_bit_for_bit(n):
    f = product_cosine(4)
    z = [1, 7, 4_001 % n, 15_015 % n]
    want = math.fsum(f(np.outer(np.arange(n), z) % n / n)) / n
    assert lattice_rule(f, n, z).hex() == want.hex()


def test_lattice_rules_are_each_rule_bit_for_bit():
    # one call of f on the stacked points of rules of different sizes
    f = product_cosine(3)
    rng = np.random.default_rng(5)
    ns = np.array([1, 2, 7, 101, 7, 640, 997])
    z = np.array([rng.integers(0, n, 3) for n in ns])
    calls = []
    counted = Integrand(evaluate=lambda x: calls.append(len(x)) or f(x), d=3)
    got = lattice_rules(counted, ns, z)
    assert calls == [int(ns.sum())]
    for r, (n, row) in enumerate(zip(ns.tolist(), z.tolist())):
        assert got[r].hex() == lattice_rule(f, n, row).hex()


def test_constant_integrand_zero_variance():
    pool = build_prime_pool(12)
    v = ResidueVector(pool=pool, residues=((1, 3), (1, 5)), d=2)
    est = run_rpfv(constant_integrand(2), v, RunConfig(seed=3, repetitions=50))
    assert np.all(est == 1.0)


def test_run_rpfv_reproducible():
    pool = build_prime_pool(12)
    v = ResidueVector(pool=pool, residues=((1, 3), (1, 5)), d=2)
    cfg = RunConfig(seed=11, repetitions=64)
    f = product_cosine(2)
    assert np.array_equal(run_rpfv(f, v, cfg), run_rpfv(f, v, cfg))


@pytest.mark.parametrize("seed", [0, 11, -1])
def test_run_rpfv_matches_scalar_replay(seed):
    # the block draws give the bytes of one scalar stream per repetition
    pool = build_prime_pool(30)
    residues = tuple((1, 2 + i % (p - 2)) for i, p in enumerate(pool.primes))
    v = ResidueVector(pool=pool, residues=residues, d=2)
    f = product_cosine(2)
    per_prime = [lattice_rule(f, p, res) for p, res in zip(pool.primes, residues)]
    want = np.array([per_prime[SplitMix64(stream_seed(seed, i)).next_below(len(pool.primes))]
                     for i in range(2_000)])
    assert run_rpfv(f, v, RunConfig(seed=seed, repetitions=2_000)).tobytes() == want.tobytes()


def test_run_rpfv_memory_is_a_few_words_per_repetition():
    # the draws are one uint64 pass over all repetitions, with nothing per
    # repetition beyond a few 8-byte arrays: one array of positions more than
    # the indices, the draws and the estimates would read about 40 B
    import tracemalloc

    pool = build_prime_pool(30)
    v = ResidueVector(pool=pool, residues=tuple((1, 2) for _ in pool.primes), d=2)
    f, reps = product_cosine(2), 200_000
    run_rpfv(f, v, RunConfig(seed=1, repetitions=10))  # fill the caches
    tracemalloc.start()
    try:
        run_rpfv(f, v, RunConfig(seed=1, repetitions=reps))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * reps + 128 * 1024


@pytest.mark.parametrize("seed, reps", [(1, 2.5), (1, 2.0), (1.5, 2)])
def test_run_config_rejects_non_integers(seed, reps):
    # a float count must not become ceil(reps) draws of one uint64 pass
    with pytest.raises(TypeError, match="integer"):
        RunConfig(seed=seed, repetitions=reps)


def test_run_rpfv_dimension_mismatch():
    pool = build_prime_pool(12)
    v = ResidueVector(pool=pool, residues=((1, 3), (1, 5)), d=2)
    with pytest.raises(ValueError):
        run_rpfv(product_cosine(3), v, RunConfig(seed=0, repetitions=1))


@pytest.mark.parametrize("f_dim", [1, 6])
@pytest.mark.parametrize("algorithm", ["rpfv", "rp_cbc", "rp_rv"])
def test_integrand_of_wrong_dimension_rejected(algorithm, f_dim):
    # d=5 parameters: a 1- or 6-dimensional integrand must not be integrated
    # over 5-dimensional points
    params = KorobovSpaceParams(d=5, alpha=2, gamma=poly_weights(5, 3.0))
    f = product_cosine(f_dim)
    cfg = RunConfig(seed=1, repetitions=20)
    with pytest.raises(DomainError):
        if algorithm == "rpfv":
            run_rpfv(f, construct_fixed_vector(101, 5, params), cfg)
        elif algorithm == "rp_cbc":
            run_rp_cbc(f, 101, params, 0.5, cfg)
        else:
            run_rp_rv(f, 101, params, 0.5, cfg)


def test_run_rpfv_mean_matches_exact_expectation():
    # the estimator averages the per-prime rule values with equal weight, so
    # its exact expectation is enumerable; the empirical mean must sit within
    # sampling noise of it (the deviation from the true integral is a fixed
    # bias of worst-case-error size, not something 1/sqrt(reps) shrinks)
    params = KorobovSpaceParams(d=3, alpha=2, gamma=poly_weights(3, 2.0))
    f = product_bernoulli(params)
    v = construct_fixed_vector(40, 3, params)
    expect = np.mean([
        lattice_rule(f, p, res) for p, res in zip(v.pool.primes, v.residues)
    ])
    cfg = RunConfig(seed=5, repetitions=4000)
    est = run_rpfv(f, v, cfg)
    sem = np.std(est, ddof=1) / math.sqrt(len(est))
    assert abs(np.mean(est) - expect) <= 5.0 * sem + 1e-12


def test_truncated_extremal_unit_norm_properties():
    params = KorobovSpaceParams(d=2, alpha=2, gamma=poly_weights(2, 2.0))
    v = construct_fixed_vector(12, 2, params)
    f = truncated_extremal(v, params, hmax=6)
    # zero integral: the n=1 rule evaluates f(0), while the empirical mean
    # over a fine lattice of a frequency-truncated f is exactly its integral
    est = lattice_rule(f, 1009, [1, 501])
    assert abs(est - 0.0) < 1e-6


def test_run_rp_cbc_mean_matches_exact_expectation():
    # outcome distribution at n=12, d=2 is small: uniform prime in {7, 11},
    # then z_2 uniform over that prime's best-theta candidate set
    from ranlat.cbc import CbcState, candidate_count, candidate_set, theta_all

    params = KorobovSpaceParams(d=2, alpha=2, gamma=poly_weights(2, 2.0))
    f = product_bernoulli(params)
    pool = build_prime_pool(12)
    prime_means = []
    for p in pool.primes:
        state = CbcState((p,), params, ())
        state.extend(1)
        good = candidate_set(theta_all(state), candidate_count(p, 0.5))
        prime_means.append(
            np.mean([lattice_rule(f, p, [1, int(z)]) for z in good])
        )
    expect = np.mean(prime_means)
    cfg = RunConfig(seed=17, repetitions=2000)
    est = run_rp_cbc(f, 12, params, 0.5, cfg)
    sem = np.std(est, ddof=1) / math.sqrt(len(est))
    assert abs(np.mean(est) - expect) <= 5.0 * sem + 1e-12


def _rp_cbc_replay(f, n, params, seed, reps):
    """run_rp_cbc replayed one repetition at a time, each prefix's candidate set
    from a state replayed from z_1."""
    from ranlat.cbc import CbcState, candidate_count, candidate_set, theta_all

    pool = build_prime_pool(n)
    ref = np.empty(reps)
    for i in range(reps):
        rng = SplitMix64(stream_seed(seed, i))
        p = pool.primes[rng.next_below(len(pool.primes))]
        z = [1]
        for _ in range(2, params.d + 1):
            good = candidate_set(theta_all(CbcState((p,), params, zip(z))), candidate_count(p, 0.5))
            z.append(int(good[rng.next_below(len(good))]))
        ref[i] = lattice_rule(f, p, z)
    return ref


@pytest.mark.parametrize("n, d, reps", [(30, 3, 200), (101, 5, 300)])
def test_run_rp_cbc_matches_prefix_replay(n, d, reps):
    params = KorobovSpaceParams(d=d, alpha=2, gamma=poly_weights(d, 3.0))
    f = product_cosine(d)
    for seed in (0, 1, 7):
        ref = _rp_cbc_replay(f, n, params, seed, reps)
        est = run_rp_cbc(f, n, params, 0.5, RunConfig(seed=seed, repetitions=reps))
        assert est.tobytes() == ref.tobytes()


def test_run_rp_cbc_sweeps_theta_once_per_block_prime_and_level(monkeypatch):
    # one theta sweep per (block, prime drawn, level), over every vector of
    # the block that drew the prime: reps (d - 1) rows in all
    import ranlat.cbc as cbc_module

    rows = []

    def counted_sweeps(p, values, weights):
        rows.append(math.prod(np.shape(weights)[:-1]))
        return rader_cbc_kernel(p, values, weights)

    monkeypatch.setattr(cbc_module, "rader_cbc_kernel", counted_sweeps)
    d, n, reps = 4, 30, 2 * REPETITION_BLOCK + 100
    params = KorobovSpaceParams(d=d, alpha=2, gamma=poly_weights(d, 3.0))
    run_rp_cbc(product_cosine(d), n, params, 0.5, RunConfig(seed=1, repetitions=reps))
    # a repetition's first draw picks its prime
    which = draws_below(1, np.arange(reps), 0, len(build_prime_pool(n).primes))[0].tolist()
    drawn = sum(len(set(which[i:i + REPETITION_BLOCK])) for i in range(0, reps, REPETITION_BLOCK))
    assert len(rows) == drawn * (d - 1)
    assert sum(rows) == reps * (d - 1)


def _rp_rv_replay(f, n, params, seed, reps):
    """(estimates, rejected tries): run_rp_rv replayed one repetition at a time."""
    from ranlat.errors import BoundParams, default_lambda_grid, good_set_threshold, worst_case_error_sq

    pool = build_prime_pool(n)
    bounds = BoundParams(tau=0.5, lambda_grid=default_lambda_grid(params.alpha))
    ref = np.empty(reps)
    rejected = 0
    for i in range(reps):
        rng = SplitMix64(stream_seed(seed, i))
        p = pool.primes[rng.next_below(len(pool.primes))]
        while True:
            z = [rng.next_below(p) for _ in range(params.d)]
            if worst_case_error_sq(p, z, params) <= good_set_threshold(p, params, bounds) ** 2:
                break
            rejected += 1
        ref[i] = lattice_rule(f, p, z)
    return ref, rejected


@pytest.mark.parametrize("n", [30, 101])
def test_run_rp_rv_matches_scalar_replay(n):
    d, reps = 5, REPETITION_BLOCK + 44
    params = KorobovSpaceParams(d=d, alpha=2, gamma=poly_weights(d, 3.0))
    f = product_cosine(d)
    rejected = 0
    for seed in (0, 1, 7):
        ref, r = _rp_rv_replay(f, n, params, seed, reps)
        est = run_rp_rv(f, n, params, 0.5, RunConfig(seed=seed, repetitions=reps))
        assert est.tobytes() == ref.tobytes()
        rejected += r
    assert rejected > 0  # the redraws of rejected repetitions are covered


@pytest.mark.parametrize("run", [run_rp_cbc, run_rp_rv], ids=["rp_cbc", "rp_rv"])
def test_online_runs_do_not_depend_on_the_block(monkeypatch, run):
    # run(k) is the first k outputs of run(R), R over more than one block, and
    # another block size gives the same bytes
    d, n = 3, 30
    params = KorobovSpaceParams(d=d, alpha=2, gamma=poly_weights(d, 3.0))
    f = product_cosine(d)
    reps = 2 * REPETITION_BLOCK + 37
    full = run(f, n, params, 0.5, RunConfig(seed=3, repetitions=reps))
    for k in (1, 37):
        head = run(f, n, params, 0.5, RunConfig(seed=3, repetitions=k))
        assert head.tobytes() == full[:k].tobytes()
    monkeypatch.setattr(runtime, "REPETITION_BLOCK", 7)
    assert run(f, n, params, 0.5, RunConfig(seed=3, repetitions=reps)).tobytes() == full.tobytes()


def test_run_rp_rv_stops_at_the_try_cap(monkeypatch):
    # a threshold no vector meets: every repetition of the first block makes
    # MAX_TRIES tries, then the run fails
    draws = []

    def counted(seed, reps, pos, m):
        draws.extend(reps.tolist())
        return draws_below(seed, reps, pos, m)

    monkeypatch.setattr(runtime, "good_set_threshold", lambda p, params, bounds: 0.0)
    monkeypatch.setattr(runtime, "MAX_TRIES", 3)
    monkeypatch.setattr(runtime, "draws_below", counted)
    d = 3
    params = KorobovSpaceParams(d=d, alpha=2, gamma=poly_weights(d, 3.0))
    with pytest.raises(SamplingFailureError, match="within 3 tries"):
        run_rp_rv(product_cosine(d), 30, params, 0.5, RunConfig(seed=1, repetitions=50))
    assert len(draws) == 50 * (1 + 3 * d)


@pytest.mark.parametrize("run", [run_rp_cbc, run_rp_rv], ids=["rp_cbc", "rp_rv"])
def test_online_run_memory_is_bounded_by_the_block(run):
    # beyond one block's working memory, more repetitions may only add the
    # larger output array.  At n=53, d=5 few rp_cbc prefixes of length d - 1
    # repeat, so anything kept per (prime, prefix) across blocks would grow
    # with the repetitions.
    import tracemalloc

    n, d, small, large = 53, 5, 2_000, 10_000
    params = KorobovSpaceParams(d=d, alpha=2, gamma=poly_weights(d, 3.0))
    f = product_cosine(d)
    run(f, n, params, 0.5, RunConfig(seed=1, repetitions=REPETITION_BLOCK))  # fill the caches
    peaks = {}
    for reps in (small, large):
        tracemalloc.start()
        try:
            run(f, n, params, 0.5, RunConfig(seed=1, repetitions=reps))
            peaks[reps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    slack = 128 * 1024  # run-to-run noise of the peak is about 60 KB
    assert peaks[large] - peaks[small] <= 8 * (large - small) + slack


def test_run_rp_rv_mean_matches_exact_expectation():
    from ranlat.errors import (
        BoundParams,
        default_lambda_grid,
        good_set_threshold,
        worst_case_error_sq,
    )

    params = KorobovSpaceParams(d=2, alpha=1, gamma=(1.0, 0.5))
    f = product_bernoulli(params)
    pool = build_prime_pool(12)
    bounds = BoundParams(tau=0.5, lambda_grid=default_lambda_grid(1))
    prime_means = []
    for p in pool.primes:
        thr2 = good_set_threshold(p, params, bounds) ** 2
        vals = [
            lattice_rule(f, p, [z1, z2])
            for z1 in range(p)
            for z2 in range(p)
            if worst_case_error_sq(p, (z1, z2), params) <= thr2
        ]
        assert len(vals) >= math.ceil(0.5 * p ** 2)
        prime_means.append(np.mean(vals))
    expect = np.mean(prime_means)
    cfg = RunConfig(seed=23, repetitions=1500)
    est = run_rp_rv(f, 12, params, 0.5, cfg)
    sem = np.std(est, ddof=1) / math.sqrt(len(est))
    assert abs(np.mean(est) - expect) <= 5.0 * sem + 1e-12


def test_rpfv_empirical_rms_within_exact_error():
    # empirical RMS of the estimator on a unit-norm integrand in the space
    # cannot exceed the exact randomised error by more than sampling noise
    params = KorobovSpaceParams(d=2, alpha=2, gamma=poly_weights(2, 2.0))
    v = construct_fixed_vector(12, 2, params)
    eran = randomized_error_sq_fixed(v, params).error
    f = truncated_extremal(v, params, hmax=12)
    est = run_rpfv(f, v, RunConfig(seed=2, repetitions=4000))
    rms = math.sqrt(np.mean(est ** 2))
    # mean absolute error <= e_ran * ||f||; RMS over two primes is comparable
    assert rms <= 2.0 * eran


@pytest.mark.parametrize("run", [run_rp_cbc, run_rp_rv], ids=["rp_cbc", "rp_rv"])
def test_online_runs_evaluate_sigma_once_per_prime(monkeypatch, run):
    # the half sigma table of (p,) depends on (p, alpha) alone and is cached:
    # one evaluation per distinct prime drawn, whatever the draws and tries
    import ranlat.cbc as cbc_module

    points = []

    def counted_sigma(x, alpha):
        points.append(np.size(x))
        return sigma_reduced(x, alpha)

    monkeypatch.setattr(cbc_module, "sigma_reduced", counted_sigma)
    cbc_module.single_sigma_grid.cache_clear()
    d, n = 3, 30
    params = KorobovSpaceParams(d=d, alpha=2, gamma=poly_weights(d, 3.0))
    run(product_cosine(d), n, params, 0.5, RunConfig(seed=1, repetitions=200))
    # p // 2 + 1 points per table: one size per prime of the pool 17, 19, 23, 29
    assert sorted(points) == sorted({p // 2 + 1 for p in build_prime_pool(n).primes})
    cbc_module.single_sigma_grid.cache_clear()


def test_draws_below_mixes_each_seed_once(monkeypatch):
    # the seed's mix is the same for every stream of a run: it is taken once
    # per seed, not on every call
    mixed = []
    mix = runtime._mix64_inplace

    def counted(x):
        mixed.append(np.ndim(x))
        mix(x)

    monkeypatch.setattr(runtime, "_mix64_inplace", counted)
    runtime._seed_mix.cache_clear()
    reps = np.arange(5)
    first = [draws_below(11, reps, pos, 7)[0] for pos in range(4)]
    assert mixed.count(0) == 1
    draws_below(12, reps, 0, 7)
    assert mixed.count(0) == 2
    runtime._seed_mix.cache_clear()
    assert all(draws_below(11, reps, pos, 7)[0].tobytes() == x.tobytes()
               for pos, x in enumerate(first))


def test_run_rp_rv_takes_each_threshold_once(monkeypatch):
    # good_set_threshold is computed once per (p, params, bounds): a second
    # run over the same pool evaluates no mu(lambda)
    from ranlat import errors

    calls = []
    mu = errors.mu_quantity
    monkeypatch.setattr(errors, "mu_quantity", lambda *a: calls.append(a) or mu(*a))
    errors.good_set_threshold.cache_clear()
    d = 3
    params = KorobovSpaceParams(d=d, alpha=2, gamma=poly_weights(d, 3.0))
    first = run_rp_rv(product_cosine(d), 30, params, 0.5, RunConfig(seed=2, repetitions=20))
    assert calls
    calls.clear()
    again = run_rp_rv(product_cosine(d), 30, params, 0.5, RunConfig(seed=2, repetitions=20))
    assert not calls
    assert again.tobytes() == first.tobytes()
