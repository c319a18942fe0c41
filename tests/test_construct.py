import json
import math
import os
import pathlib
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ranlat import construct
from ranlat.cbc import (
    CbcState, candidate_count, candidate_set, cbc_construct, record_layout, theta_all,
)
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
    theta, t_hat = state.t_hat_all()
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
    # frequency-domain sums over several smaller primes; theta, swept in the
    # same call, is the due prime's theta_all bit for bit
    pool = build_prime_pool(30)
    params = _params(3)
    state = ConstructionState(pool=pool, params=params, tau=0.5)
    for _ in range(2, 4):
        for p in pool.primes:
            theta, fast = state.t_hat_all()
            assert theta.tobytes() == theta_all(state.records[(p,)]).tobytes()
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
    # builds: CbcState.__post_init__ calls with two moduli or more (a run of
    # pairs, the one pair included); extends: their extend calls, the prefix a
    # build folds in included
    counts = {"builds": 0, "extends": 0}
    post_init, extend = CbcState.__post_init__, CbcState.extend

    def counted_post_init(self, prefix):
        counts["builds"] += len(self.moduli) >= 2
        post_init(self, prefix)

    def counted_extend(self, *z):
        counts["extends"] += len(self.moduli) >= 2
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
    # the runs are kept up to half of the probed memory; one byte more
    # rebuilds each of the 3 runs at the start and at its prime's turn in each
    # of the d - 1 = 2 chosen dimensions
    params = _params(3)
    est = estimate_cached_bytes(build_prime_pool(30))
    counts = _count_pair_builds(monkeypatch)
    _probe_reports(monkeypatch, 2 * est)
    kept = construct_fixed_vector(30, 3, params)
    assert counts["builds"] == 3
    _probe_reports(monkeypatch, 2 * est - 1)
    rebuilt = construct_fixed_vector(30, 3, params)
    assert counts["builds"] == 3 + 9
    assert rebuilt.residues == kept.residues


def test_probe_takes_cgroup_limit_below_installed_memory(monkeypatch, tmp_path):
    # a container limit under twice the kept tables selects the rebuild
    # policy on any host; a missing file or "max" leaves installed memory
    limit = tmp_path / "memory.max"
    monkeypatch.setattr(construct, "CGROUP_MEMORY_LIMITS", (limit, tmp_path / "missing"))
    installed = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    assert construct.physical_memory_bytes() == installed
    limit.write_text("max\n")
    assert construct.physical_memory_bytes() == installed
    est = estimate_cached_bytes(build_prime_pool(30))
    limit.write_text(f"{2 * est - 1}\n")
    assert construct.physical_memory_bytes() == 2 * est - 1
    counts = _count_pair_builds(monkeypatch)
    construct_fixed_vector(30, 3, _params(3))
    assert counts["builds"] == 9


def test_probe_takes_cgroup_v1_limit(monkeypatch, tmp_path):
    # a cgroup v1 host has no memory.max: its limit file counts alike, and its
    # "unlimited", a byte count above installed memory, leaves installed memory
    v2, v1 = tmp_path / "memory.max", tmp_path / "memory.limit_in_bytes"
    monkeypatch.setattr(construct, "CGROUP_MEMORY_LIMITS", (v2, v1))
    installed = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    v1.write_text("9223372036854771712\n")
    assert construct.physical_memory_bytes() == installed
    v1.write_text(f"{installed // 4}\n")
    assert construct.physical_memory_bytes() == installed // 4
    v2.write_text("max\n")
    assert construct.physical_memory_bytes() == installed // 4
    v2.write_text(f"{installed // 8}\n")  # the smaller of the two
    assert construct.physical_memory_bytes() == installed // 8


@pytest.mark.parametrize(
    "memory_bytes, builds, extends", [(1 << 62, 3, 9), (0, 9, 18)], ids=["kept", "rebuilt"]
)
def test_pair_table_builds_per_policy(monkeypatch, memory_bytes, builds, extends):
    # n=30: primes 17, 19, 23, 29 make 6 pairs in 3 runs, (17, 19),
    # (17, 19, 23) and (17, 19, 23, 29), one per larger prime.  Kept runs are
    # built once, at the start, over z_1, and extended by z_2 and z_3 at their
    # prime's turns at s = 2 and s = 3.  Rebuilt ones are built at the start
    # over z_1 and at their prime's turns over z_1 and over z_1, z_2, and
    # extended once at each turn: 1 + 2 + 3 extends each.  The e_ran report
    # builds and extends none.
    counts = _count_pair_builds(monkeypatch)
    _probe_reports(monkeypatch, memory_bytes)
    construct_fixed_vector(30, 3, _params(3))
    assert counts == {"builds": builds, "extends": extends}


@pytest.mark.parametrize("memory_bytes, per_run", [(1 << 62, 1), (0, 4)], ids=["kept", "rebuilt"])
def test_each_run_is_built_once_or_once_per_dimension(monkeypatch, memory_bytes, per_run):
    # n=53, d=4: 21 pairs in 6 runs.  A kept run is built once; a rebuilt one
    # at the start and at its prime's turn in each of the d - 1 = 3 chosen
    # dimensions, d = 4 builds, and none for the e_ran report
    builds = {}
    post_init = CbcState.__post_init__

    def counted_post_init(self, prefix):
        if len(self.moduli) >= 2:
            builds[self.moduli] = builds.get(self.moduli, 0) + 1
        post_init(self, prefix)

    monkeypatch.setattr(CbcState, "__post_init__", counted_post_init)
    _probe_reports(monkeypatch, memory_bytes)
    report = construct.eran_report
    before = {}
    monkeypatch.setattr(construct, "eran_report",
                        lambda *args: before.update(builds) or report(*args))
    primes = build_prime_pool(53).primes
    construct_fixed_vector(53, 4, _params(4))
    runs = {run for p in primes for run in construct.partner_runs(primes, p)}
    assert len(runs) == 6 and sum(len(run) - 1 for run in runs) == 21
    assert builds == before == {run: per_run for run in runs}


def test_rebuild_holds_one_primes_runs(monkeypatch):
    # n=101: 11 primes, and the largest has its 10 smaller partners in runs;
    # rebuilt runs are held through their prime's choice and dropped before
    # the next prime's are built, so the runs alive at any build share one
    # larger prime, and at most all of them are
    alive = {}
    peak = 0
    post_init = CbcState.__post_init__

    def tracked_post_init(self, prefix):
        nonlocal peak
        if len(self.moduli) >= 2:
            assert {ref().moduli[-1] for ref in alive.values()} <= {self.moduli[-1]}
            alive[id(self)] = weakref.ref(self, lambda _, key=id(self): alive.pop(key))
            peak = max(peak, len(alive))
        post_init(self, prefix)

    monkeypatch.setattr(CbcState, "__post_init__", tracked_post_init)
    _probe_reports(monkeypatch, 0)
    construct_fixed_vector(101, 4, _params(4))
    primes = build_prime_pool(101).primes
    assert peak == max(len(construct.partner_runs(primes, p)) for p in primes) > 1


def test_eran_builds_one_pair_state_per_pair(monkeypatch):
    # n=30, d=3: each of the 6 pairs is built once over all 3 components
    # (a vector built anew from the residues, so not the constructed one's report)
    v = construct_fixed_vector(30, 3, _params(3))
    counts = _count_pair_builds(monkeypatch)
    randomized_error_sq_fixed(ResidueVector(v.pool, v.residues, v.d), _params(3))
    assert counts == {"builds": 6, "extends": 18}


@pytest.mark.parametrize("memory_bytes", [1 << 62, 0], ids=["kept", "rebuilt"])
def test_report_reads_no_record(monkeypatch, memory_bytes):
    # construct's e_ran report builds and extends no run under either policy:
    # each pair's mean was kept when its last choice extended it to z_3
    _probe_reports(monkeypatch, memory_bytes)
    counts = _count_pair_builds(monkeypatch)
    before = {}
    report = construct.eran_report

    def counted_report(primes, record):
        before.update(counts)
        return report(primes, record)

    monkeypatch.setattr(construct, "eran_report", counted_report)
    construct_fixed_vector(30, 3, _params(3))
    assert counts == before


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
    assert sorted(candidate_set(theta, candidate_count(p, 0.5)).tolist()) == expect
    for bumped in tied:
        for sign in (1.0, -1.0):
            th2 = theta.copy()
            th2[bumped] *= 1.0 + sign * 1e-12
            assert sorted(candidate_set(th2, candidate_count(p, 0.5)).tolist()) == expect


def test_estimate_cached_bytes(monkeypatch):
    # the estimate is the bytes the kept policy really holds: the sigma grid
    # and point products of every run, q // 2 + 1 rows of p for each pair
    _probe_reports(monkeypatch, 1 << 62)
    state = ConstructionState(pool=build_prime_pool(30), params=_params(3), tau=0.5)
    for _ in range(2 * len(state.pool.primes)):
        state.choose()
    runs = [record for moduli, record in state.records.items() if len(moduli) >= 2]
    assert len(runs) == 3
    held = sum(run.grid.nbytes + run.P_products.nbytes for run in runs)
    assert estimate_cached_bytes(state.pool) == held


def test_estimate_builds_no_layout():
    # the estimate counts the bytes of 1,035 pairs at n=593, more than the layout
    # cache holds, from their moduli: no layout is built or read
    before = record_layout.cache_info()
    assert estimate_cached_bytes(build_prime_pool(593)) > 0
    assert record_layout.cache_info() == before


@pytest.mark.parametrize("memory_bytes", [1 << 62, 0], ids=["kept", "rebuilt"])
def test_records_are_caches_over_residues(monkeypatch, memory_bytes):
    # after every choice, each record held, a prime's or a run's, is byte-equal
    # to a record built anew from the residues over as many components; the
    # kept policy holds every prime's runs, the rebuild policy none
    _probe_reports(monkeypatch, memory_bytes)
    params = _params(4)
    state = ConstructionState(pool=build_prime_pool(30), params=params, tau=0.5)
    for _ in range(3 * len(state.pool.primes)):
        state.choose()
        assert state.records
        for moduli, record in state.records.items():
            prefix = zip(*(state.residues[m][:record.dims] for m in moduli))
            fresh = CbcState(moduli, params, prefix)
            assert record.P_products.tobytes() == fresh.P_products.tobytes(), moduli
        primes = state.pool.primes
        runs = {run for p in primes for run in construct.partner_runs(primes, p)}
        assert {moduli for moduli in state.records if len(moduli) >= 2} == (
            runs if memory_bytes else set())


def test_probe_without_sysconf_reports_zero_and_rebuilds(monkeypatch, tmp_path):
    # os.sysconf exists on Unix only: without it the probe reports 0, which
    # selects the rebuild policy, and the vector is the golden one
    monkeypatch.delattr(os, "sysconf")
    monkeypatch.setattr(construct, "CGROUP_MEMORY_LIMITS", (tmp_path / "missing",))
    assert construct.physical_memory_bytes() == 0
    fix = json.loads((pathlib.Path(__file__).parent / "data" / "golden_n30.json").read_text())
    case = next(c for c in fix["cases"] if c["d"] == 3 and c["alpha"] == 2)
    params = KorobovSpaceParams(d=3, alpha=2, gamma=tuple(case["gamma"]))
    counts = _count_pair_builds(monkeypatch)
    v = construct_fixed_vector(30, 3, params, tau=fix["tau"])
    assert [list(res) for res in v.residues] == case["residues"]
    assert counts["builds"] == 9  # 3 runs at the start and at each of 2 turns, none for e_ran


@pytest.mark.parametrize("alpha", [1, 2, 3])
@pytest.mark.parametrize("n", [53, 101])
def test_shorter_vector_is_a_prefix_of_the_longer(n, alpha):
    # the choice at component s reads only the components before s and gamma_s, so
    # the d = 3 vectors are the first three components of the d = 6 ones
    short, long = _params(3, alpha=alpha, c=3.0), _params(6, alpha=alpha, c=3.0)
    fixed = construct_fixed_vector(n, 6, long).residues
    assert [r[:3] for r in fixed] == list(construct_fixed_vector(n, 3, short).residues)
    assert cbc_construct(n, long)[:3] == cbc_construct(n, short)


def test_first_component_all_ones():
    params = _params(3)
    v = construct_fixed_vector(40, 3, params)
    for row in v.residues:
        assert row[0] == 1


@pytest.mark.parametrize("memory_bytes", [1 << 62, 0], ids=["kept", "rebuilt"])
def test_t_hat_all_leaves_the_search_as_it_was(monkeypatch, memory_bytes):
    # t_hat_all may be called any number of times before a choice: it returns
    # the same bytes each time, and the choices and report are the ones of a
    # search that only chooses
    _probe_reports(monkeypatch, memory_bytes)
    params = _params(3)
    pool = build_prime_pool(30)
    probed = ConstructionState(pool=pool, params=params, tau=0.5)
    for _ in range(2 * len(pool.primes)):
        first, again = probed.t_hat_all(), probed.t_hat_all()
        assert [a.tobytes() for a in first] == [a.tobytes() for a in again]
        probed.choose()
    plain = ConstructionState(pool=pool, params=params, tau=0.5)
    for _ in range(2 * len(pool.primes)):
        plain.choose()
    assert probed.residues == plain.residues
    assert probed.means == plain.means
