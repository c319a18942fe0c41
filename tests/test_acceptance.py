"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the report lines.
"""

import itertools
import math
import time

import numpy as np

from ranlat.cbc import CbcState, candidate_set, cbc_construct, theta_all
from ranlat.construct import ConstructionState, construct_fixed_vector
from ranlat.errors import (
    BoundParams,
    default_lambda_grid,
    good_set_threshold,
    randomized_error_sq_fixed,
    theorem_bound_min,
    worst_case_error_sq,
)
from ranlat.kernels import KorobovSpaceParams, poly_weights
from ranlat.oracles import (
    cbc_construct_naive,
    component_threshold,
    dual_tail_bound,
    randomized_error_sq_truncated,
    t_hat_all_naive,
    theta_all_naive,
    worst_case_error_sq_truncated,
)
from ranlat.primes import ResidueVector, build_prime_pool, sieve_primes
from ranlat.runtime import RunConfig, SplitMix64, product_cosine, run_rpfv
from ranlat.cli import closest_prime


def _report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


def test_criterion_1_worst_case_error_oracle():
    t0 = time.perf_counter()
    rng = SplitMix64(1)
    primes = [p for p in sieve_primes(97) if p >= 11]
    hmax = 100
    worst = 0.0
    for _ in range(30):
        p = primes[rng.next_below(len(primes))]
        d = 1 + rng.next_below(3)
        params = KorobovSpaceParams(d=d, alpha=2, gamma=poly_weights(d, 2.0))
        z = tuple(rng.next_below(p) for _ in range(d))
        exact = worst_case_error_sq(p, z, params)
        approx = worst_case_error_sq_truncated(p, z, params, hmax)
        tol = 1e-5 * exact + dual_tail_bound(params, hmax)
        worst = max(worst, abs(exact - approx) / tol if tol else 0.0)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 and elapsed < 10.0
    _report(1, ok, f"30 instances, worst error/tolerance = {worst:.3f}, "
                   f"{elapsed:.1f}s (< 10 s)")


def test_criterion_2_randomised_error_oracle():
    t0 = time.perf_counter()
    params = KorobovSpaceParams(d=2, alpha=2, gamma=poly_weights(2, 2.0))
    v = construct_fixed_vector(20, 2, params, tau=0.5)
    exact = randomized_error_sq_fixed(v, params).squared_error
    approx = randomized_error_sq_truncated(v, params, 250)
    rel = abs(exact - approx) / exact
    elapsed = time.perf_counter() - t0
    ok = rel <= 1e-4 and elapsed < 60.0
    _report(2, ok, f"n=20 decomposition vs |h|<=250 brute force, "
                   f"rel diff {rel:.2e} (<= 1e-4), {elapsed:.1f}s (< 60 s)")


def test_criterion_3_fast_path_equivalence():
    rng = SplitMix64(3)
    worst_theta = 0.0
    for p in [q for q in sieve_primes(101) if q >= 3]:
        d = 3
        params = KorobovSpaceParams(d=d, alpha=2, gamma=poly_weights(d, 2.0))
        state = CbcState((p,), params, ())
        for _ in range(d):
            fast = theta_all(state)
            slow = theta_all_naive(state)
            worst_theta = max(
                worst_theta, np.max(np.abs(fast - slow)) / np.max(np.abs(slow))
            )
            state.extend(rng.next_below(p))
    theta_ok = worst_theta <= 1e-9

    worst_that = 0.0
    pool = build_prime_pool(12)
    for d in (2, 3):
        params = KorobovSpaceParams(d=d, alpha=2, gamma=poly_weights(d, 2.0))
        state = ConstructionState(pool=pool, params=params, tau=0.5)
        for _ in range(2, d + 1):
            for p in pool.primes:
                fast = state.t_hat_all()
                slow = t_hat_all_naive(pool, params, p, state.residues)
                worst_that = max(worst_that, np.max(np.abs(fast - slow) / np.abs(slow)))
                state.choose()
    that_ok = worst_that <= 1e-9

    cbc_ok = True
    for p in (31, 61, 101):
        for d in range(1, 7):
            params = KorobovSpaceParams(d=d, alpha=2, gamma=poly_weights(d, 2.0))
            cbc_ok = cbc_ok and cbc_construct(p, params) == cbc_construct_naive(p, params)

    ok = theta_ok and that_ok and cbc_ok
    _report(3, ok, f"theta rel {worst_theta:.2e}, t_hat rel {worst_that:.2e} "
                   f"(<= 1e-9), cbc identical: {cbc_ok}")


def test_criterion_4_exhaustive_optimality():
    t0 = time.perf_counter()
    tau = 0.5
    params = KorobovSpaceParams(d=2, alpha=2, gamma=poly_weights(2, 2.0))
    pool = build_prime_pool(12)
    v = construct_fixed_vector(12, 2, params, tau=tau)
    e2 = randomized_error_sq_fixed(v, params).squared_error

    state = ConstructionState(pool=pool, params=params, tau=tau)
    cand = {p: candidate_set(theta_all(state.single[p]), tau) for p in pool.primes}
    vals = [
        randomized_error_sq_fixed(
            ResidueVector(pool=pool, residues=((1, int(z7)), (1, int(z11))), d=2),
            params,
        ).squared_error
        for z7, z11 in itertools.product(cand[7], cand[11])
    ]
    mean = float(np.mean(vals))
    elapsed = time.perf_counter() - t0
    ok = e2 <= mean * (1 + 1e-12) and elapsed < 30.0
    _report(4, ok, f"constructed e_ran^2 {e2:.6e} <= candidate mean {mean:.6e} "
                   f"({len(vals)} combos), {elapsed:.1f}s (< 30 s)")


def test_criterion_5_lemma_suite():
    # exact averaging identity by integer counting
    count_ok = True
    for p in (3, 5, 7):
        for d in (1, 2, 3):
            zs = np.stack(np.meshgrid(
                *([np.arange(p)] * d), indexing="ij"), axis=-1).reshape(-1, d)
            for h in itertools.product(range(-2, 3), repeat=d):
                ha = np.array(h)
                count = int(np.count_nonzero(zs @ ha % p == 0))
                expect = p ** (d - 1) * ((p - 1) * int(np.all(ha % p == 0)) + 1)
                count_ok = count_ok and count == expect

    # good-set cardinality over full vectors (d=2)
    tau = 0.5
    params = KorobovSpaceParams(d=2, alpha=1, gamma=poly_weights(2, 2.0))
    bounds = BoundParams(tau=tau, lambda_grid=default_lambda_grid(1))
    card_ok = True
    for p in (3, 5, 7, 11):
        thr2 = good_set_threshold(p, params, bounds) ** 2
        size = sum(
            worst_case_error_sq(p, (z1, z2), params) <= thr2
            for z1 in range(p) for z2 in range(p)
        )
        card_ok = card_ok and size >= math.ceil(tau * p ** 2)

    # per-component good-set cardinality with a fixed prefix
    comp_ok = True
    for p in [q for q in sieve_primes(31) if q >= 3]:
        state = CbcState((p,), params, ())
        state.extend(1)
        theta = theta_all(state)
        thr = component_threshold(p, 2, params, bounds)
        size = int(np.count_nonzero(theta <= thr))
        comp_ok = comp_ok and size >= math.ceil(tau * p)

    ok = count_ok and card_ok and comp_ok
    _report(5, ok, f"averaging counts exact: {count_ok}, good-set sizes "
                   f">= ceil(tau p^2): {card_ok}, component sets >= ceil(tau p): {comp_ok}")


def test_criterion_6_theorem_bound_conformance():
    lines = []
    ok = True
    for alpha in (1, 2):
        params = KorobovSpaceParams(d=5, alpha=alpha, gamma=poly_weights(5, 3.0))
        bounds = BoundParams(tau=0.5, lambda_grid=default_lambda_grid(alpha))
        for n in (20, 50, 100, 200):
            v = construct_fixed_vector(n, 5, params, tau=0.5)
            eran = randomized_error_sq_fixed(v, params).error
            bound = theorem_bound_min(n, params, bounds)
            ok = ok and eran <= bound
            lines.append(f"a{alpha}/n{n}: {eran:.2e}<={bound:.2e}")
    _report(6, ok, "; ".join(lines))


def test_criterion_7_convergence_study():
    t0 = time.perf_counter()
    # budgets up to n ~ 400: the directional slope thresholds need the onset
    # of the asymptotic rate, which the smallest budgets have not reached
    ns = []
    for k in range(15, 34):
        n = closest_prime(1.2 ** k)
        if n not in ns:
            ns.append(n)
    results = {}
    for alpha in (1, 2):
        params = KorobovSpaceParams(d=5, alpha=alpha, gamma=poly_weights(5, 3.0))
        e_det, e_ran = [], []
        for n in ns:
            z = cbc_construct(n, params)
            e_det.append(math.sqrt(worst_case_error_sq(n, z, params)))
            v = construct_fixed_vector(n, 5, params, tau=0.5)
            e_ran.append(randomized_error_sq_fixed(v, params).error)
        ln = np.log(ns)
        slope_det = float(np.polyfit(ln, np.log(e_det), 1)[0])
        slope_ran = float(np.polyfit(ln, np.log(e_ran), 1)[0])
        results[alpha] = (slope_det, slope_ran)
    elapsed = time.perf_counter() - t0
    (sd1, sr1), (sd2, sr2) = results[1], results[2]
    ok = (
        sr1 <= -1.15 and sd1 - sr1 >= 0.2
        and sr2 <= -2.1 and sd2 - sr2 >= 0.2
        and elapsed <= 1800.0
    )
    _report(7, ok, f"alpha=1: slope_ran {sr1:.3f} (<= -1.15), gap {sd1 - sr1:.3f}; "
                   f"alpha=2: slope_ran {sr2:.3f} (<= -2.1), gap {sd2 - sr2:.3f}; "
                   f"{elapsed:.0f}s (<= 1800 s)")


def test_criterion_8_reproducibility(tmp_path, monkeypatch):
    from ranlat import construct
    from ranlat.cli import main, EXIT_OK
    import json
    import pathlib

    vfile = tmp_path / "v.json"
    assert main(["construct", "--n", "30", "--d", "3", "--alpha", "2",
                 "--out", str(vfile)]) == EXIT_OK
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for path in (a, b):
        assert main(["integrate", "--vector-file", str(vfile),
                     "--integrand", "product-bernoulli", "--seed", "41",
                     "--reps", "500", "--out", str(path)]) == EXIT_OK
    stream_ok = a.read_bytes() == b.read_bytes()

    # the construct command reproduces the golden n=30 residues whether the
    # memory probe lets it keep its pair tables or makes it rebuild them
    golden = json.loads(
        (pathlib.Path(__file__).parent / "data" / "golden_n30.json").read_text())
    expect = next(c["residues"] for c in golden["cases"]
                  if c["d"] == 3 and c["alpha"] == 2)
    files_ok = True
    for memory_bytes in (1 << 62, 0):
        monkeypatch.setattr(construct, "physical_memory_bytes", lambda m=memory_bytes: m)
        vfile = tmp_path / f"golden_{memory_bytes}.json"
        assert main(["construct", "--n", "30", "--d", "3", "--alpha", "2",
                     "--gamma-spec", "poly:3", "--out", str(vfile)]) == EXIT_OK
        files_ok = files_ok and json.loads(vfile.read_text())["residues"] == expect
    ok = stream_ok and files_ok
    _report(8, ok, f"byte-identical estimate streams: {stream_ok}, "
                   f"golden n=30 residues with kept and rebuilt tables: {files_ok}")


def test_criterion_9_integration_smoke():
    t0 = time.perf_counter()
    params = KorobovSpaceParams(d=3, alpha=2, gamma=poly_weights(3, 2.0))
    v = construct_fixed_vector(100, 3, params, tau=0.5)
    f = product_cosine(3)
    est = run_rpfv(f, v, RunConfig(seed=100, repetitions=100_000))
    mean = float(np.mean(est))
    sem = float(np.std(est, ddof=1)) / math.sqrt(len(est))
    elapsed = time.perf_counter() - t0
    # 1e-12 absorbs deterministic summation round-off when the rule happens
    # to be exact for every prime (SEM then collapses to ~1e-19)
    ok = abs(mean - 1.0) <= 4.0 * sem + 1e-12 and elapsed < 60.0
    _report(9, ok, f"mean {mean:.12f}, |mean-1| {abs(mean-1):.2e} <= "
                   f"4*SEM+1e-12 = {4*sem + 1e-12:.2e}, {elapsed:.1f}s (< 60 s)")
