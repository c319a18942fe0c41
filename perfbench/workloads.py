"""The benchmark's workloads: inputs from a seed, one timed pass, output checks.

Every workload calls the package through module attributes looked up at
call time (`rl.construct_fixed_vector`, `cli.read_vector_file`), so the
outside-in tracer sees the calls.

Workloads:

- build_large: one production vector, n=307, d=5, alpha=2, then its exact
  randomised error and the theorem bound.  Large batched Rader sweeps and
  pair tables dominate; per-call overhead is negligible.
- sweep_small: convergence study over 12 budgets n=17..113, d=10,
  alpha in {1, 2, 3}.  Thousands of small Rader calls, so per-call set-up
  (root checks, power permutations, reindexing) is a large share.
- online: a stored n=101 vector (built and round-tripped through the vector
  file in set-up), then the three online algorithms.  Single-row sweeps,
  small-n error evaluations and the pure-Python RNG dominate.
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import ranlat as rl
import ranlat.cli as cli
import ranlat.errors as errors

TAU = 0.5
WEIGHT_DECAY = 3.0
WEIGHT_JITTER = 1e-3  # relative; seed 0 gives exactly gamma_j = j^-3
PREFIX_REPS = 64  # repetitions re-run to check byte-identical streams


def product_weights(seed: int, d: int) -> tuple[float, ...]:
    """gamma_j = j^-3 times (1 + 1e-3 u_j), u_j uniform in [-1, 1) from the seed."""
    base = [float(j) ** -WEIGHT_DECAY for j in range(1, d + 1)]
    if seed == 0:
        return tuple(base)
    # Draw for the largest dimension used, so all workloads share a prefix.
    u = np.random.default_rng(seed % 2**64).uniform(-1.0, 1.0, max(d, 10))
    return tuple(g * (1.0 + WEIGHT_JITTER * float(x)) for g, x in zip(base, u))


def bound_params(alpha: int) -> errors.BoundParams:
    return errors.BoundParams(tau=TAU, lambda_grid=rl.default_lambda_grid(alpha))


@dataclass
class Checks:
    """Output checks: each is attempted once and either passes or fails."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def expect(self, ok, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def check_vector(checks: Checks, label: str, v, report, bound: float) -> None:
    """Paper invariants of a built fixed vector; no stored golden values."""
    checks.expect(all(res[0] == 1 for res in v.residues), f"{label}: z_1 != 1")
    checks.expect(
        len(v.residues) == len(v.pool.primes)
        and all(len(res) == v.d and all(0 <= r < p for r in res)
                for p, res in zip(v.pool.primes, v.residues)),
        f"{label}: residues outside [0, p) or wrong shape")
    e = report.error
    checks.expect(math.isfinite(e) and e > 0.0 and not report.clamped,
                  f"{label}: e_ran {e!r} not finite, zero or clamped")
    checks.expect(e <= bound, f"{label}: e_ran {e:.6e} above the theorem bound {bound:.6e}")


def vector_key(v) -> tuple:
    return (v.pool.primes, tuple(tuple(int(r) for r in res) for res in v.residues))


def digest(*parts) -> str:
    """Fingerprint of a pass's outputs; passes of one run must agree bit for bit."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Each workload has run_pass(snapshot) -> output, digest(output) and
# check(output, checks) -> {"eran", "detail"}; check sees the first pass only.


class BuildLarge:
    def __init__(self, seed: int, tiny: bool) -> None:
        self.n, self.d, self.alpha = (31, 3, 2) if tiny else (307, 5, 2)
        self.params = rl.KorobovSpaceParams(
            d=self.d, alpha=self.alpha, gamma=product_weights(seed, self.d))
        self.bounds = bound_params(self.alpha)

    def run_pass(self, snapshot=None):
        v = rl.construct_fixed_vector(self.n, self.d, self.params, tau=TAU)
        report = rl.randomized_error_sq_fixed(v, self.params)
        bound = rl.theorem_bound_min(self.n, self.params, self.bounds)
        return v, report, bound

    def digest(self, out) -> str:
        v, report, bound = out
        return digest(vector_key(v), report.squared_error, bound)

    def check(self, out, checks: Checks) -> dict:
        v, report, bound = out
        check_vector(checks, f"n={self.n}", v, report, bound)
        return {"eran": report.error, "detail": {"n": self.n, "bound": bound}}


class SweepSmall:
    def __init__(self, seed: int, tiny: bool) -> None:
        ks = range(15, 18) if tiny else range(15, 27)
        self.ns = sorted({cli.closest_prime(1.2 ** k) for k in ks})
        self.d = 4 if tiny else 10
        self.alphas = (1, 2, 3)
        gamma = product_weights(seed, self.d)
        self.params = {a: rl.KorobovSpaceParams(d=self.d, alpha=a, gamma=gamma)
                       for a in self.alphas}

    def run_pass(self, snapshot=None):
        rows, slopes = [], {}
        for alpha in self.alphas:
            params = self.params[alpha]
            erans = []
            for n in self.ns:
                z = rl.cbc_construct(n, params)
                e_det_sq = rl.worst_case_error_sq(n, z, params)
                v = rl.construct_fixed_vector(n, self.d, params, tau=TAU)
                report = rl.randomized_error_sq_fixed(v, params)
                rows.append((alpha, n, z, e_det_sq, v, report))
                erans.append(report.error)
            slopes[alpha] = cli.fit_slope(self.ns, erans)
        return rows, slopes

    def digest(self, out) -> str:
        rows, slopes = out
        return digest([(a, n, z, e, vector_key(v), r.squared_error)
                       for a, n, z, e, v, r in rows], slopes)

    def check(self, out, checks: Checks) -> dict:
        rows, slopes = out
        for alpha, n, z, e_det_sq, v, report in rows:
            label = f"alpha={alpha} n={n}"
            checks.expect(z[0] == 1 and len(z) == self.d and all(0 <= r < n for r in z),
                          f"{label}: CBC vector {z} malformed")
            checks.expect(math.isfinite(e_det_sq) and e_det_sq > 0.0,
                          f"{label}: CBC e_det^2 {e_det_sq!r} not finite and positive")
            bound = rl.theorem_bound_min(n, self.params[alpha], bound_params(alpha))
            check_vector(checks, label, v, report, bound)
        for alpha, slope in slopes.items():
            checks.expect(slope < 0.0, f"alpha={alpha}: e_ran slope {slope} not negative")
        largest = [r[5].error for r in rows if r[0] == 2 and r[1] == self.ns[-1]][0]
        return {"eran": largest, "detail": {
            "ns": self.ns, **{f"slope_eran_a{a}": s for a, s in slopes.items()}}}


class Online:
    ALGORITHMS = ("rpfv", "rpcbc", "rprv")

    def __init__(self, seed: int, tiny: bool, workdir: str) -> None:
        self.seed = seed
        self.n, self.d = (23, 5) if tiny else (101, 5)
        self.reps = dict(zip(self.ALGORITHMS, (2_000, 40, 80) if tiny
                             else (200_000, 2_000, 4_000)))
        built_params = rl.KorobovSpaceParams(d=self.d, alpha=2,
                                             gamma=product_weights(seed, self.d))
        self.built = rl.construct_fixed_vector(self.n, self.d, built_params, tau=TAU)
        path = os.path.join(workdir, "vector.json")
        cli.write_vector_file(path, cli.vector_to_dict(self.built, built_params, TAU, {}))
        self.v, self.params, _ = cli.read_vector_file(path)
        self.built_gamma = built_params.gamma
        self.f = rl.product_cosine(self.d)

    def run(self, name: str, reps: int):
        cfg = rl.RunConfig(self.seed, reps)
        if name == "rpfv":
            return rl.run_rpfv(self.f, self.v, cfg)
        if name == "rpcbc":
            return rl.run_rp_cbc(self.f, self.n, self.params, TAU, cfg)
        return rl.run_rp_rv(self.f, self.n, self.params, TAU, cfg)

    def run_pass(self, snapshot=None):
        """({algorithm: estimates}, {algorithm: (seconds, snapshot before, after)})."""
        snapshot = snapshot or (lambda: None)
        estimates, info = {}, {}
        for name in self.ALGORITHMS:
            before = snapshot()
            t0 = time.perf_counter()
            estimates[name] = self.run(name, self.reps[name])
            info[name] = (time.perf_counter() - t0, before, snapshot())
        return estimates, info

    def digest(self, out) -> str:
        return digest(*out[0].values())

    def draws_per_s(self, infos) -> dict[str, float]:
        """Repetitions per second of each algorithm, median over the given passes."""
        return {name: reps / statistics.median(info[name][0] for info in infos)
                for name, reps in self.reps.items()}

    def rpfv_expectation(self) -> float:
        """Exact E[estimate] of rpfv: the mean over the pool of the prime's lattice rule."""
        return statistics.fmean(rl.lattice_rule(self.f, p, res)
                                for p, res in zip(self.v.pool.primes, self.v.residues))

    def check(self, out, checks: Checks) -> dict:
        checks.expect(vector_key(self.v) == vector_key(self.built)
                      and tuple(self.params.gamma) == tuple(self.built_gamma),
                      "vector file round trip changed the vector or weights")
        report = rl.randomized_error_sq_fixed(self.v, self.params)
        bound = rl.theorem_bound_min(self.n, self.params, bound_params(self.params.alpha))
        check_vector(checks, f"n={self.n}", self.v, report, bound)
        detail = {}
        for name, est in out[0].items():
            checks.expect(bool(np.all(np.isfinite(est))), f"{name}: non-finite estimate")
            # product_cosine has only non-negative Fourier coefficients, so any
            # rank-1 lattice rule gives 1 + (a sum of them over the dual lattice) >= 1.
            checks.expect(float(np.min(est)) >= 1.0 - 1e-12,
                          f"{name}: estimate {float(np.min(est))!r} below the integral 1")
            again = self.run(name, min(PREFIX_REPS, len(est)))
            checks.expect(again.tobytes() == est[:len(again)].tobytes(),
                          f"{name}: re-run of the first {len(again)} repetitions differs")
            detail[f"{name}_mean_minus_1"] = float(np.mean(est)) - 1.0
        est = out[0]["rpfv"]
        mean, expected = float(np.mean(est)), self.rpfv_expectation()
        limit = 4.0 * float(np.std(est, ddof=1)) / math.sqrt(len(est)) + 1e-12
        checks.expect(abs(mean - expected) <= limit,
                      f"rpfv: |mean - E| = {abs(mean - expected):.3e} > {limit:.3e}")
        detail["rpfv_expectation_minus_1"] = expected - 1.0
        return {"eran": report.error, "detail": detail}


def make(name: str, seed: int, tiny: bool, workdir: str):
    if name == "online":
        return Online(seed, tiny, workdir)
    return {"build_large": BuildLarge, "sweep_small": SweepSmall}[name](seed, tiny)
