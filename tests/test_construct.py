import itertools
import math
import os
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ranlat import construct
from ranlat.cbc import CbcState, candidate_set, cbc_construct, theta_all
from ranlat.construct import (
    ConstructionState,
    SequencingError,
    construct_fixed_vector,
    estimate_cached_bytes,
    select_candidate,
)
from ranlat.errors import randomized_error_sq_fixed
from ranlat.kernels import KorobovSpaceParams, poly_weights
from ranlat.oracles import t_hat_all_naive
from ranlat.primes import ResidueVector, build_prime_pool


def _params(d, alpha=2, c=2.0):
    return KorobovSpaceParams(d=d, alpha=alpha, gamma=poly_weights(d, c))


def test_select_candidate_worked_example():
    theta = np.array([3.0, 1.0, 2.0, 5.0, 4.0])
    t_hat = np.array([9.0, 9.0, 1.0, 0.0, 0.0])
    # tau=0.5 keeps the 3 smallest-theta candidates {1, 2, 0}; among those
    # t_hat is minimised at index 2
    assert select_candidate(theta, t_hat, 0.5) == 2


def test_select_candidate_theta_boundary_ties_fill_by_index():
    # the 3rd-smallest theta (the set boundary) is tied with two larger
    # indices up to round-off; the smaller indices fill the set
    theta = np.array([5.0, 2.0 * (1 + 1e-13), 1.0, 2.0, 2.0 * (1 - 1e-13), 9.0])
    t_hat = np.array([0.0, 3.0, 2.0, 1.0, 0.5, 0.0])
    assert select_candidate(theta, t_hat, 0.5) == 3


def test_select_candidate_mirror_tie_resolves_to_smaller_residue():
    # at the second dimension theta and T-hat of the smallest pool prime are
    # symmetric under z <-> p - z; round-off must not pick the larger one
    pool = build_prime_pool(101)
    params = KorobovSpaceParams(d=3, alpha=2, gamma=poly_weights(3, 3.0))
    state = ConstructionState(pool=pool, params=params, tau=0.5)
    p = pool.primes[0]
    theta = theta_all(state.single[p])
    t_hat = state.t_hat_all(theta)
    z = select_candidate(theta, t_hat, 0.5)
    assert 0 < z < p - z
    assert t_hat[p - z] == pytest.approx(t_hat[z], rel=1e-11)
    for bumped in (z, p - z):
        for sign in (1.0, -1.0):
            t2 = t_hat.copy()
            t2[bumped] *= 1.0 + sign * 1e-12
            th2 = theta.copy()
            th2[bumped] *= 1.0 + sign * 1e-12
            assert select_candidate(theta, t2, 0.5) == z
            assert select_candidate(th2, t2, 0.5) == z


def test_select_candidate_tau_one_rejected():
    with pytest.raises(ValueError):
        select_candidate(np.ones(5), np.ones(5), 1.0)


@settings(max_examples=50)
@given(seed=st.integers(min_value=0, max_value=2 ** 31), p=st.sampled_from([5, 7, 11]))
def test_select_candidate_matches_full_sort(seed, p):
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal(p)
    t_hat = rng.standard_normal(p)
    tau = 0.5
    m = math.ceil(tau * p)
    cand = sorted(range(p), key=lambda i: (theta[i], i))[:m]
    expect = min(cand, key=lambda i: (t_hat[i], i))
    assert select_candidate(theta, t_hat, tau) == expect


def test_t_hat_single_prime_reduces_to_cbc():
    # budget 6 -> single prime 5: no cross terms, choice = plain CBC restricted
    # to the ceil(tau p) best-theta set, which contains the CBC minimiser
    params = _params(3)
    v = construct_fixed_vector(6, 3, params, tau=0.5)
    assert v.residues == (cbc_construct(5, params),)


def test_t_hat_fast_matches_naive_triple_loop():
    pool = build_prime_pool(12)
    for d in (2, 3):
        params = _params(d)
        state = ConstructionState(pool=pool, params=params, tau=0.5)
        for _ in range(2, d + 1):
            for p in pool.primes:
                fast = state.t_hat_all()
                slow = t_hat_all_naive(pool, params, p, state.residues)
                assert np.max(np.abs(fast - slow) / np.abs(slow)) < 1e-9
                state.choose()


def test_choose_past_the_last_dimension_raises_and_leaves_state_intact():
    # pool {7, 11}: each dimension takes 7 then 11; a choice past the last
    # dimension is rejected, and the stepped state holds the vector that
    # the full construction builds
    pool = build_prime_pool(12)
    params = _params(3)
    state = ConstructionState(pool=pool, params=params, tau=0.5)
    for _ in range(4):
        state.choose()
    for _ in range(2):
        with pytest.raises(SequencingError):
            state.choose()
    v = construct_fixed_vector(12, 3, params)
    assert tuple(tuple(state.residues[p]) for p in pool.primes) == v.residues


def test_t_hat_fast_matches_naive_n30_pool():
    # four primes (17, 19, 23, 29): the shared larger-prime sweep and the
    # frequency-domain sums over several smaller primes
    pool = build_prime_pool(30)
    params = _params(3)
    state = ConstructionState(pool=pool, params=params, tau=0.5)
    for _ in range(2, 4):
        for p in pool.primes:
            theta = theta_all(state.single[p])
            fast = state.t_hat_all(theta)
            assert np.array_equal(fast, state.t_hat_all())
            slow = t_hat_all_naive(pool, params, p, state.residues)
            assert np.max(np.abs(fast - slow) / np.abs(slow)) < 1e-9
            state.choose()


def test_relaxed_criterion_shifts_by_candidate_independent_constant():
    # the selection criterion drops a divisibility restriction on its cross
    # term; the dropped frequencies satisfy h_2 = 0 (mod p), which makes both
    # remaining congruences independent of the candidate residue.  On a
    # truncated frequency box the relaxed and strict criteria must therefore
    # differ by a constant, leaving the ranking unchanged.
    pool = build_prime_pool(12)
    params = _params(2)
    state = ConstructionState(pool=pool, params=params, tau=0.5)
    z7 = state.choose()
    p, q, hmax = 11, 7, 40
    g1, g2 = params.gamma

    h = np.arange(-hmax, hmax + 1)
    h1, h2 = np.meshgrid(h, h, indexing="ij")
    h1, h2 = h1.ravel(), h2.ravel()
    nz2 = h2 != 0
    rinv2 = np.ones(len(h1))
    rinv2[h1 != 0] *= g1 ** 2 / np.abs(h1[h1 != 0]) ** (2 * params.alpha)
    rinv2[nz2] *= g2 ** 2 / np.abs(h2[nz2]) ** (2 * params.alpha)

    def criterion(strict):
        out = np.empty(p)
        for z in range(p):
            mask = (
                nz2
                & ((h1 + h2 * z) % p == 0)
                & ((h1 + h2 * z7) % q == 0)
            )
            if strict:
                mask &= h2 % p != 0
            theta_mask = nz2 & ((h1 + h2 * z) % p == 0)
            out[z] = np.sum(rinv2[theta_mask]) + 2.0 * np.sum(rinv2[mask])
        return out

    relaxed = criterion(strict=False)
    strict = criterion(strict=True)
    diff = relaxed - strict
    assert np.max(diff) - np.min(diff) < 1e-12 * max(1.0, np.max(np.abs(relaxed)))
    assert np.array_equal(np.argsort(relaxed, kind="stable"),
                          np.argsort(strict, kind="stable"))


def _probe_reports(monkeypatch, memory_bytes):
    monkeypatch.setattr(construct, "physical_memory_bytes", lambda: memory_bytes)


def _count_pair_builds(monkeypatch):
    # builds: CbcState.__post_init__ calls with two moduli (the pair records);
    # extends: their extend calls, the prefix a build folds in included
    counts = {"builds": 0, "extends": 0}
    post_init, extend = CbcState.__post_init__, CbcState.extend

    def counted_post_init(self, prefix):
        counts["builds"] += len(self.moduli) == 2
        post_init(self, prefix)

    def counted_extend(self, *z):
        counts["extends"] += len(self.moduli) == 2
        extend(self, *z)

    monkeypatch.setattr(CbcState, "__post_init__", counted_post_init)
    monkeypatch.setattr(CbcState, "extend", counted_extend)
    return counts


def test_kept_and_rebuilt_identical(monkeypatch):
    # kept: the pair records are kept between dimensions; rebuilt: they are
    # rebuilt from the chosen prefix whenever they are read
    params = _params(4)
    _probe_reports(monkeypatch, 1 << 62)
    kept = construct_fixed_vector(30, 4, params)
    _probe_reports(monkeypatch, 0)
    rebuilt = construct_fixed_vector(30, 4, params)
    assert kept.residues == rebuilt.residues


def test_estimate_over_probe_selects_rebuild(monkeypatch):
    # the tables are kept up to half of the probed memory; one byte more
    # rebuilds each of the 6 pairs at both of its primes' turns in each of
    # the d - 1 = 2 chosen dimensions
    params = _params(3)
    est = estimate_cached_bytes(build_prime_pool(30))
    counts = _count_pair_builds(monkeypatch)
    _probe_reports(monkeypatch, 2 * est)
    kept = construct_fixed_vector(30, 3, params)
    assert counts["builds"] == 6
    _probe_reports(monkeypatch, 2 * est - 1)
    rebuilt = construct_fixed_vector(30, 3, params)
    assert counts["builds"] == 6 + 24
    assert rebuilt.residues == kept.residues


def test_probe_takes_cgroup_limit_below_installed_memory(monkeypatch, tmp_path):
    # a container limit under twice the kept tables selects the rebuild
    # policy on any host; a missing file or "max" leaves installed memory
    limit = tmp_path / "memory.max"
    monkeypatch.setattr(construct, "CGROUP_MEMORY_MAX", limit)
    installed = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    assert construct.physical_memory_bytes() == installed
    limit.write_text("max\n")
    assert construct.physical_memory_bytes() == installed
    est = estimate_cached_bytes(build_prime_pool(30))
    limit.write_text(f"{2 * est - 1}\n")
    assert construct.physical_memory_bytes() == 2 * est - 1
    counts = _count_pair_builds(monkeypatch)
    construct_fixed_vector(30, 3, _params(3))
    assert counts["builds"] == 24


@pytest.mark.parametrize(
    "memory_bytes, builds, extends", [(1 << 62, 6, 12), (0, 24, 36)], ids=["kept", "rebuilt"]
)
def test_pair_table_builds_per_policy(monkeypatch, memory_bytes, builds, extends):
    # n=30: primes 17, 19, 23, 29 make 6 pairs.  Kept pairs are built once,
    # at the smaller prime's turn at s = 2, over z_1 and extended by z_2.
    # Rebuilt ones are built at both primes' turns, over z_1 at s = 2 and
    # over z_1, z_2 at s = 3, and never extended after.  Nothing is extended
    # by z_3, the last component.
    counts = _count_pair_builds(monkeypatch)
    _probe_reports(monkeypatch, memory_bytes)
    construct_fixed_vector(30, 3, _params(3))
    assert counts == {"builds": builds, "extends": extends}


def test_rebuild_holds_at_most_one_pair(monkeypatch):
    # n=101: 11 primes, so a prime has 10 partner pairs; a rebuilt pair is
    # dropped once swept, before the next one is built
    alive = {}
    peak = 0
    post_init = CbcState.__post_init__

    def tracked_post_init(self, prefix):
        nonlocal peak
        if len(self.moduli) == 2:
            alive[id(self)] = weakref.ref(self, lambda _, key=id(self): alive.pop(key))
            peak = max(peak, len(alive))
        post_init(self, prefix)

    monkeypatch.setattr(CbcState, "__post_init__", tracked_post_init)
    _probe_reports(monkeypatch, 0)
    construct_fixed_vector(101, 4, _params(4))
    assert peak == 1


def test_eran_builds_one_pair_state_per_pair(monkeypatch):
    # n=30, d=3: each of the 6 pairs is built once over all 3 components
    v = construct_fixed_vector(30, 3, _params(3))
    counts = _count_pair_builds(monkeypatch)
    randomized_error_sq_fixed(v, _params(3))
    assert counts == {"builds": 6, "extends": 18}


def test_candidate_set_boundary_mirror_tie():
    # p = 11, s = 2: theta(z) = theta(-z) = theta(z^-1), so 2, 9, 6 and 5 tie
    # at the edge of the ceil(11/2) = 6 smallest, with 3, 4, 7, 8 below it.
    # The tie fills the set in index order, whichever member round-off makes
    # smallest; a stable argsort took 9 instead of 5.
    p = 11
    state = CbcState((p,), _params(2), ())
    state.extend(1)
    theta = theta_all(state)
    tied = [2, 5, 6, 9]
    assert np.ptp(theta[tied]) <= 1e-12 * theta[2]
    expect = [2, 3, 4, 5, 7, 8]
    assert sorted(candidate_set(theta, 0.5).tolist()) == expect
    for bumped in tied:
        for sign in (1.0, -1.0):
            th2 = theta.copy()
            th2[bumped] *= 1.0 + sign * 1e-12
            assert sorted(candidate_set(th2, 0.5).tolist()) == expect


def test_estimate_cached_bytes(monkeypatch):
    # the estimate is the bytes the kept policy really holds: the sigma grid
    # and point products of every pair record, each q // 2 + 1 rows of p
    _probe_reports(monkeypatch, 1 << 62)
    state = ConstructionState(pool=build_prime_pool(30), params=_params(3), tau=0.5)
    for _ in range(2 * len(state.pool.primes)):
        state.choose()
    assert len(state.pairs) == 6
    held = sum(pair.grid.nbytes + pair.P_products.nbytes for pair in state.pairs.values())
    assert estimate_cached_bytes(state.pool) == held


def test_first_component_all_ones():
    params = _params(3)
    v = construct_fixed_vector(40, 3, params)
    for row in v.residues:
        assert row[0] == 1


def test_constructed_beats_exhaustive_candidate_mean():
    # n=12, d=2: e_ran of the constructed vector is at most the mean e_ran
    # over the product of the per-prime candidate sets
    params = _params(2)
    pool = build_prime_pool(12)
    tau = 0.5
    v = construct_fixed_vector(12, 2, params, tau=tau)
    e2 = randomized_error_sq_fixed(v, params).squared_error

    state = ConstructionState(pool=pool, params=params, tau=tau)
    cand = {p: candidate_set(theta_all(state.single[p]), tau) for p in pool.primes}
    vals = []
    for z7, z11 in itertools.product(cand[7], cand[11]):
        w = ResidueVector(pool=pool, residues=((1, int(z7)), (1, int(z11))), d=2)
        vals.append(randomized_error_sq_fixed(w, params).squared_error)
    assert e2 <= np.mean(vals) * (1 + 1e-12)
