"""Command-line surface: construction, convergence studies, verification
suites, and online integration runs.

Exit codes: 0 success, 1 verification failure, 2 usage/validation error
(including a malformed vector file).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .cbc import cbc_construct
from .construct import construct_fixed_vector
from .errors import (
    BoundParams,
    ErrorReport,
    default_lambda_grid,
    randomized_error_sq_fixed,
    theorem_bound_min,
    worst_case_error_sq,
)
from .fftconv import rader_cbc_kernel, rader_correlation, rader_plan
from .kernels import DomainError, KorobovSpaceParams, poly_weights
from .primes import C_PRIME, ResidueVector, build_prime_pool, sieve_primes
from .runtime import (
    RunConfig,
    constant_integrand,
    product_bernoulli,
    product_cosine,
    run_rpfv,
)

FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2


def parse_gamma_spec(spec: str, d: int) -> tuple[float, ...]:
    """`poly:c` (gamma_j = j^-c) or an explicit comma-separated list of length d."""
    if spec.startswith("poly:"):
        try:
            c = float(spec[5:])
        except ValueError as exc:
            raise DomainError(f"bad poly exponent in gamma spec {spec!r}") from exc
        return poly_weights(d, c)
    try:
        gamma = tuple(float(t) for t in spec.split(","))
    except ValueError as exc:
        raise DomainError(f"cannot parse gamma spec {spec!r}") from exc
    if len(gamma) != d:
        raise DomainError(f"gamma list has length {len(gamma)}, expected {d}")
    return gamma


def parse_k_range(spec: str) -> range:
    """Inclusive integer range written as `lo..hi`."""
    lo, sep, hi = spec.partition("..")
    if not sep:
        raise DomainError(f"k-range must look like 15..26, got {spec!r}")
    a, b = int(lo), int(hi)
    if b < a:
        raise DomainError(f"empty k-range {spec!r}")
    return range(a, b + 1)


def nearest_prime(x: float, primes: Sequence[int]) -> int:
    """The p in primes minimising |p - x|, ties resolved to the smaller prime."""
    return int(min(primes, key=lambda p: (abs(p - x), p)))


def closest_prime(x: float) -> int:
    """Prime minimising |p - x|, ties resolved to the smaller prime."""
    return nearest_prime(x, sieve_primes(max(8, int(2 * x) + 100)))


def vector_to_dict(v: ResidueVector, params: KorobovSpaceParams, tau: float,
                   metadata: dict) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "n": v.pool.n,
        "d": v.d,
        "alpha": params.alpha,
        "gamma": list(params.gamma),
        "tau": tau,
        "primes": list(v.pool.primes),
        "residues": list(map(list, v.residues)),
        "metadata": metadata,
    }


def write_vector_file(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _is_int(x: object) -> bool:
    """A JSON integer: bool is an int subclass in Python but not a JSON number."""
    return isinstance(x, int) and not isinstance(x, bool)


def read_vector_file(path: str) -> tuple[ResidueVector, KorobovSpaceParams, dict]:
    """Validated vector file contents, with residues and weights as tuples."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise DomainError("a vector file must hold a JSON object")
    version = data.get("format_version")
    if not _is_int(version) or version != FORMAT_VERSION:
        raise DomainError(f"unsupported vector file version {version!r}")
    missing = {"n", "d", "alpha", "gamma", "tau", "primes", "residues"} - data.keys()
    if missing:
        raise DomainError(f"vector file lacks {sorted(missing)}")
    for key in ("n", "d", "alpha"):
        if not _is_int(data[key]):
            raise DomainError(f"{key} must be an integer, got {data[key]!r}")
    tau = data["tau"]
    if not isinstance(tau, (int, float)) or not 0.0 < tau < 1.0:
        raise DomainError(f"tau must lie in (0, 1), got {tau!r}")
    gamma, rows = data["gamma"], data["residues"]
    if not isinstance(gamma, list) or not all(
            isinstance(g, (int, float)) and not isinstance(g, bool) for g in gamma):
        raise DomainError("gamma must be a list of numbers")
    if not isinstance(rows, list) or not all(
            isinstance(row, list) and all(map(_is_int, row)) for row in rows):
        raise DomainError("residues must be a list of lists of integers")
    n, primes = data["n"], data["primes"]
    # The pool has more than C_PRIME n / ln n primes: bound n before sieving.
    # n stays an int, compared exactly with the float, as it may exceed every float.
    if not (isinstance(primes, list)
            and n < len(primes) * math.log(max(n, 2)) / C_PRIME):
        raise DomainError(f"prime list in file is too short for a budget of n={n}")
    pool = build_prime_pool(n)
    if list(pool.primes) != primes:
        raise DomainError("prime list in file does not match the budget pool")
    params = KorobovSpaceParams(d=data["d"], alpha=data["alpha"], gamma=gamma)
    v = ResidueVector(pool=pool, residues=rows, d=params.d)
    if any(row[0] != 1 for row in v.residues):
        raise DomainError("the first component must be 1 for every prime")
    return v, params, data


def warn_clamped(report: ErrorReport) -> None:
    if report.clamped:
        print(f"warning: {report.clamped} of {len(report.decomposition)} e_ran terms "
              "fell below 0 from round-off and were clamped to 0", file=sys.stderr)


def cmd_construct(args: argparse.Namespace) -> int:
    gamma = parse_gamma_spec(args.gamma_spec, args.d)
    params = KorobovSpaceParams(d=args.d, alpha=args.alpha, gamma=gamma)
    t0 = time.perf_counter()
    v = construct_fixed_vector(args.n, args.d, params, tau=args.tau)
    seconds = time.perf_counter() - t0
    report = randomized_error_sq_fixed(v, params)
    warn_clamped(report)
    bounds = BoundParams(tau=args.tau, lambda_grid=default_lambda_grid(args.alpha))
    bound = theorem_bound_min(args.n, params, bounds)
    payload = vector_to_dict(v, params, args.tau, {
        "construct_seconds": seconds,
        "code_version": __version__,
    })
    if args.out:
        write_vector_file(args.out, payload)
    print(f"n={args.n} d={args.d} alpha={args.alpha} tau={args.tau}")
    print(f"e_ran = {report.error:.17g}")
    print(f"bound = {bound:.17g}")
    return EXIT_OK


def fit_slope(ns: Sequence[int], errs: Sequence[float]) -> Optional[float]:
    if len(ns) < 2:
        return None
    return float(np.polyfit(np.log(np.asarray(ns, float)),
                            np.log(np.asarray(errs, float)), 1)[0])


def cmd_study(args: argparse.Namespace) -> int:
    gamma = parse_gamma_spec(args.gamma_spec, args.d)
    params = KorobovSpaceParams(d=args.d, alpha=args.alpha, gamma=gamma)
    ks = parse_k_range(args.k_range)
    # Bertrand's postulate puts a prime in (x, 2x] for x >= 1, so the prime
    # closest to x = 1.2^k is above the cap when x > 2 max_n, and else at most
    # 2x <= 4 min(max_n, x): one sieve up to the largest kept x serves every row.
    xs: list[float] = []
    for k in ks:
        try:
            x = 1.2 ** k
        except OverflowError:  # above every float, so above the cap
            x = math.inf
        if x > 2 * args.max_n:
            print(f"warning: skipping k={k}: the prime closest to 1.2^{k} exceeds cap "
                  f"{args.max_n} (raise --max-n to override)", file=sys.stderr)
            continue
        xs.append(x)
    primes = sieve_primes(4 * min(args.max_n, math.ceil(max(xs, default=0.0))) + 100)
    ns = sorted({nearest_prime(x, primes) for x in xs})
    rows = []
    for n in ns:
        if n > args.max_n:
            print(f"warning: skipping n={n} > cap {args.max_n} "
                  "(raise --max-n to override)", file=sys.stderr)
            continue
        z = cbc_construct(n, params)
        e_det = math.sqrt(worst_case_error_sq(n, z, params))
        t0 = time.perf_counter()  # the construction and its e_ran only
        v = construct_fixed_vector(n, args.d, params, tau=args.tau)
        report = randomized_error_sq_fixed(v, params)
        seconds = time.perf_counter() - t0
        rows.append((n, e_det, report.error, seconds))
        print(f"n={n} e_det={e_det:.6e} e_ran={report.error:.6e} ({seconds:.2f}s)",
              file=sys.stderr)
        warn_clamped(report)
    if not rows:
        print("no rows within budget", file=sys.stderr)
        return EXIT_USAGE
    ns_done = [r[0] for r in rows]
    # dashed reference lines n^-alpha and n^-(alpha+1/2), anchored at row 1
    ref_det0 = rows[0][1] * rows[0][0] ** args.alpha
    ref_ran0 = rows[0][2] * rows[0][0] ** (args.alpha + 0.5)
    lines = ["n,e_det_cbc,e_ran_rpfv,ref_det,ref_ran,construct_seconds"]
    for n, e_det, e_ran, seconds in rows:
        ref_det = ref_det0 * n ** (-args.alpha)
        ref_ran = ref_ran0 * n ** (-(args.alpha + 0.5))
        lines.append(
            f"{n},{e_det:.17g},{e_ran:.17g},{ref_det:.17g},"
            f"{ref_ran:.17g},{seconds:.17g}"
        )
    slope_det = fit_slope(ns_done, [r[1] for r in rows])
    slope_ran = fit_slope(ns_done, [r[2] for r in rows])
    fmt = lambda s: "absent" if s is None else f"{s:.17g}"
    lines.append(f"# slope_e_det,{fmt(slope_det)}")
    lines.append(f"# slope_e_ran,{fmt(slope_ran)}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"slope(e_det) = {fmt(slope_det)}  slope(e_ran) = {fmt(slope_ran)}",
          file=sys.stderr)
    return EXIT_OK


def _verify_lemma_averaging() -> list[str]:
    """Exact counting: over all z in Z_p^d, the number of z with h.z = 0 (mod p)
    equals p^{d-1} ((p-1) 1(h = 0 mod p) + 1)."""
    failures = []
    for p in (3, 5, 7):
        for d in (1, 2, 3):
            hs = np.stack(np.meshgrid(
                *([np.arange(-2, 3)] * d), indexing="ij"), axis=-1).reshape(-1, d)
            zs = np.stack(np.meshgrid(
                *([np.arange(p)] * d), indexing="ij"), axis=-1).reshape(-1, d)
            for h in hs:
                count = int(np.count_nonzero(zs @ h % p == 0))
                expect = p ** (d - 1) * ((p - 1) * int(np.all(h % p == 0)) + 1)
                if count != expect:
                    failures.append(f"lemma-averaging p={p} d={d} h={h.tolist()}: "
                                    f"{count} != {expect}")
    return failures


def _verify_fft_oracle() -> list[str]:
    from .oracles import SplitMix64, rader_cbc_kernel_naive as naive

    failures = []
    rng = SplitMix64(2024)
    uniform = lambda n: np.array([(rng.next_u64() >> 11) / 2.0 ** 53 for _ in range(n)])
    primes = [p for p in sieve_primes(200) if p > 5]  # p <= 5 cannot tell a reversed correlation
    for i in range(20):
        p = primes[rng.next_below(len(primes))]
        R = 2 + rng.next_below(3)  # R tables against R rows, as T-hat's cross terms
        v, w = uniform(p)[None], uniform(p)[None]
        vs, ws = uniform(R * p).reshape(R, p), uniform(R * p).reshape(R, p)
        even, h = np.minimum(np.arange(p), p - np.arange(p)), p // 2 + 1  # even inputs: entries < h
        half = np.where(np.arange(h) > 0, 2.0, 1.0)  # the residues k, p - k an entry stands for
        cut, order = 1 + rng.next_below(R - 1), rader_plan(p, p)[0]  # two runs of tables
        for form, fast, slow in (
            ("", rader_cbc_kernel(p, v, w), naive(p, v[0], w[0])),
            (" tables", rader_cbc_kernel(p, vs, ws), sum(naive(p, a, b) for a, b in zip(vs, ws))),
            (" even", rader_cbc_kernel(p, v[:, :h], w[:, :h] * half), naive(p, v[0, even], w[0, even])),
            (" even batch", rader_cbc_kernel(p, v[:, :h], ws[:, None, :h] * half),
             [naive(p, v[0, even], r[even]) for r in ws]),
            (" segments", rader_correlation(p, vs.take(order, -1), ws.take(order, -1), [0, cut]),
             [sum(naive(p, a, b) for a, b in zip(vs[at], ws[at])) for at in (slice(cut), slice(cut, None))]),
        ):
            err = float(np.max(np.abs(fast - slow) / np.maximum(np.abs(slow), 1e-300)))
            if err > 1e-9 or ("even" in form and not np.array_equal(fast[..., even], fast)):
                failures.append(f"fft-oracle{form} instance {i} p={p}: rel err {err:.3e}")
    return failures


def _verify_eran_oracle() -> list[str]:
    from .oracles import dual_tail_bound, randomized_error_sq_truncated

    failures = []
    params = KorobovSpaceParams(d=2, alpha=2, gamma=poly_weights(2, 2.0))
    v = construct_fixed_vector(20, 2, params, tau=0.5)
    exact = randomized_error_sq_fixed(v, params).squared_error
    hmax = 80
    approx = randomized_error_sq_truncated(v, params, hmax)
    tail = dual_tail_bound(params, hmax)
    if abs(exact - approx) > 1e-4 * exact + 4.0 * tail:
        failures.append(
            f"eran-oracle: exact {exact:.12e} vs truncated {approx:.12e} "
            f"(tail bound {tail:.3e})"
        )
    return failures


VERIFY_SUITES = {
    "lemma-averaging": _verify_lemma_averaging,
    "fft-oracle": _verify_fft_oracle,
    "eran-oracle": _verify_eran_oracle,
}


def cmd_verify(args: argparse.Namespace) -> int:
    suites = list(VERIFY_SUITES) if args.suite == "all" else [args.suite]
    any_fail = False
    for name in suites:
        failures = VERIFY_SUITES[name]()
        status = "FAIL" if failures else "ok"
        print(f"{name}: {status}")
        for msg in failures:
            print(f"  {msg}")
        any_fail = any_fail or bool(failures)
    return EXIT_VERIFY if any_fail else EXIT_OK


def make_integrand(spec: str, v: ResidueVector, params: KorobovSpaceParams):
    """Integrand spec `name` or `name:d`; a declared d must match the file."""
    name, sep, dim = spec.partition(":")
    if sep:
        if int(dim) != v.d:
            raise DomainError(
                f"integrand dimension {dim} does not match vector file d={v.d}"
            )
    if name == "constant":
        return constant_integrand(v.d)
    if name == "product-cosine":
        return product_cosine(v.d)
    if name == "product-bernoulli":
        return product_bernoulli(params)
    raise DomainError(f"unknown integrand {name!r}")


def cmd_integrate(args: argparse.Namespace) -> int:
    v, params, _ = read_vector_file(args.vector_file)
    f = make_integrand(args.integrand, v, params)
    cfg = RunConfig(seed=args.seed, repetitions=args.reps)
    estimates = run_rpfv(f, v, cfg)
    out = sys.stdout if not args.out else open(args.out, "w")
    try:
        for i, est in enumerate(estimates):
            out.write(json.dumps({"rep": i, "estimate": float(est)}) + "\n")
        mean = float(np.mean(estimates))
        std = float(np.std(estimates, ddof=1)) if len(estimates) > 1 else 0.0
        out.write(json.dumps(
            {"summary": {"reps": args.reps, "mean": mean, "stddev": std}}) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ranlat",
        description="Randomised rank-1 lattice rules in weighted Korobov spaces",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a fixed generating vector")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--alpha", type=int, default=1)
    c.add_argument("--gamma-spec", default="poly:2")
    c.add_argument("--tau", type=float, default=0.5)
    c.add_argument("--out")
    c.set_defaults(func=cmd_construct)

    s = sub.add_parser("study", help="convergence study over a range of budgets")
    s.add_argument("--alpha", type=int, default=1)
    s.add_argument("--d", type=int, default=5)
    s.add_argument("--gamma-spec", default="poly:3")
    s.add_argument("--k-range", default="15..26")
    s.add_argument("--tau", type=float, default=0.5)
    s.add_argument("--max-n", type=int, default=600)
    s.add_argument("--out")
    s.set_defaults(func=cmd_study)

    vv = sub.add_parser("verify", help="run a verification suite")
    vv.add_argument("--suite", choices=tuple(VERIFY_SUITES) + ("all",),
                    default="all")
    vv.set_defaults(func=cmd_verify)

    i = sub.add_parser("integrate", help="online randomised integration")
    i.add_argument("--vector-file", required=True)
    i.add_argument("--integrand", default="product-cosine")
    i.add_argument("--seed", type=int, default=0)
    i.add_argument("--reps", type=int, default=1000)
    i.add_argument("--out")
    i.set_defaults(func=cmd_integrate)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
