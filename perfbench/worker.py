"""One workload in one fresh process; started by run.py, not meant to be run by hand.

Set-up covers process start (measured from the monotonic time the runner
passes in `--t0`), imports, input generation and, for `online`, the vector
build and file round trip.  With `--setup-only` the process stops there and
reports its set-up time.  Otherwise it repeats the workload's pass until
`--seconds` have elapsed, checks the outputs and prints one JSON line.

Untraced times are reported raw and normalised to the nominal host speed
(`hostspeed.py`): pass times by samples taken during the pass, set-up by
samples taken right after it.
Only the first pass's outputs are kept; later passes keep a fingerprint,
so peak RSS does not grow with the number of passes.

With `--trace 1` untraced and traced passes alternate, so the tracing
overhead is measured in the same process, and the per-layer numbers are
per traced pass.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field

import hostspeed
import layertrace

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_package():
    """Import ranlat from this checkout's src/, never from anywhere else."""
    if not (SRC / "ranlat" / "__init__.py").is_file():
        raise SystemExit(f"worker: no ranlat package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ranlat

    if pathlib.Path(ranlat.__file__).resolve().parent != (SRC / "ranlat").resolve():
        raise SystemExit(f"worker: imported ranlat from {ranlat.__file__}, not {SRC}")
    return ranlat


@dataclass
class Passes:
    first: object = None  # outputs of the first pass
    digests: list[str] = field(default_factory=list)
    walls: list[float] = field(default_factory=list)  # untraced pass times
    norm_walls: list[float] = field(default_factory=list)  # the same, normalised
    traced: list[float] = field(default_factory=list)  # traced pass times
    infos: list[tuple[bool, object]] = field(default_factory=list)  # (traced, online timings)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    ranlat = import_package()
    import numpy as np

    import workloads

    setup_tracer = layertrace.Tracer()
    # The vector-file round trip writes inside the checkout, and nowhere else.
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        if args.trace:
            with setup_tracer.installed():
                wl = workloads.make(args.workload, args.seed, args.tiny, workdir)
        else:
            wl = workloads.make(args.workload, args.seed, args.tiny, workdir)
        setup_s = time.monotonic() - args.t0
        speed = hostspeed.HostSpeed()
        setup_norm_s = setup_s * speed.settle()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_norm_s": setup_norm_s}))
            return 0
        tracer = layertrace.Tracer()
        passes = run_passes(wl, args, tracer, speed)

    checks = workloads.Checks()
    summary = wl.check(passes.first, checks)
    for i, d in enumerate(passes.digests[1:], start=2):
        checks.expect(d == passes.digests[0], f"pass {i} differs from pass 1")
    online = args.workload == "online"
    if online:
        untraced = [info for traced, info in passes.infos if not traced]
        summary["detail"].update(
            {f"{k}_draws_per_s": v for k, v in wl.draws_per_s(untraced).items()})
    out = {
        "setup_s": setup_s,
        "setup_norm_s": setup_norm_s,
        "walls": passes.walls,
        "norm_walls": passes.norm_walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "eran": summary["eran"],
        "attempted": checks.attempted,
        "failures": checks.failures,
        "detail": summary["detail"],
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "ranlat": getattr(ranlat, "__version__", "unknown")},
    }
    if args.trace:
        out["layers"] = layer_metrics(wl, passes, tracer, setup_tracer, online)
        out["trace_sites"] = {
            name: {"calls": st.calls, "s": st.total, "self_s": st.self_time}
            for name, st in sorted(tracer.stats.items())}
        out["absent"] = tracer.absent
        out["size_errors"] = tracer.size_errors
    print(json.dumps(out))
    return 0


def run_passes(wl, args, tracer, speed) -> Passes:
    """Untraced passes until --seconds; with tracing, alternate untraced/traced.

    Host speed is sampled during untraced passes of untraced runs only, so
    the handler's time never lands in a span.
    """
    online = args.workload == "online"

    def snapshot():
        get = lambda name: tracer.stats.get(name, layertrace.Stat())
        return (get("runtime.rng").calls,
                get("runtime.rng").total + get("runtime.rng_seed").total,
                get("cbc.state").calls)

    passes = Passes()
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes.walls) > len(passes.traced)
        if traced:
            with tracer.installed():
                out, dur = tracer.run_root(lambda: wl.run_pass(snapshot))
            passes.traced.append(dur)
        elif args.trace:
            t0 = time.perf_counter()
            out = wl.run_pass()
            passes.walls.append(time.perf_counter() - t0)
        else:
            out, raw, norm = speed.timed(wl.run_pass)
            passes.walls.append(raw)
            passes.norm_walls.append(norm)
        if passes.first is None:
            passes.first = out
        passes.digests.append(wl.digest(out))
        passes.infos.append((traced, out[1] if online else None))
        if time.perf_counter() - start >= args.seconds and (not args.trace or passes.traced):
            return passes


def layer_metrics(wl, passes: Passes, tracer, setup_tracer, online: bool) -> dict:
    """Per-layer metrics of one traced pass (averaged over the traced passes)."""
    k = len(passes.traced)
    stats = tracer.stats

    def calls(name):
        return stats[name].calls / k if name in stats else 0.0

    def total(name):
        return stats[name].total / k if name in stats else 0.0

    def self_s(name):
        return stats[name].self_time / k if name in stats else 0.0

    def work(name):
        return stats[name].work / k if name in stats else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    traced_wall = statistics.median(passes.traced)
    untraced_wall = statistics.median(passes.walls)
    plan_s = total("fftconv.check_root") + total("fftconv.power_perm")
    m = {
        "primes.pool.calls": calls("primes.pool"),
        "primes.pool.s": total("primes.pool"),
        "primes.is_prime.calls": calls("primes.is_prime"),
        "kernels.sigma.calls": calls("kernels.sigma"),
        "kernels.sigma.points": work("kernels.sigma"),
        "kernels.sigma.s": total("kernels.sigma"),
        "fftconv.rader.calls": calls("fftconv.rader"),
        "fftconv.rader.rows": work("fftconv.rader"),
        "fftconv.rader.self_s": self_s("fftconv.rader"),
        "fftconv.rader.plan_s": plan_s,
        "fftconv.rader.overhead_share": ratio(plan_s + self_s("fftconv.rader"), traced_wall),
        "fftconv.conv.calls": calls("fftconv.conv"),
        "fftconv.conv.s": total("fftconv.conv"),
        "fftconv.conv.points": work("fftconv.conv"),
        "construct.choose.calls": calls("construct.choose"),
        "construct.theta.calls": calls("construct.theta"),
        "construct.theta_per_choose": ratio(calls("construct.theta"), calls("construct.choose")),
        "construct.t_hat.s": total("construct.t_hat"),
        "construct.t_hat.self_s": self_s("construct.t_hat"),
        "construct.finish_dim.s": total("construct.finish_dim"),
        "construct.pair_table.calls": calls("construct.pair_table"),
        "construct.pair_bytes": work("construct.build"),
        "errors.eran.s": total("errors.eran"),
        "errors.wce.calls": calls("errors.wce"),
        "errors.wce.points": work("errors.wce"),
        "errors.wce.s": total("errors.wce"),
        "errors.bound.s": total("errors.bound"),
        "cbc.construct.s": total("cbc.construct"),
        "cbc.theta.calls": calls("cbc.theta"),
        "cbc.theta.s": total("cbc.theta"),
        "runtime.rng.draws": calls("runtime.rng"),
        "runtime.rng.s": total("runtime.rng") + total("runtime.rng_seed"),
        "runtime.lattice_rule.calls": calls("runtime.lattice_rule"),
        "runtime.lattice_rule.s": total("runtime.lattice_rule"),
        "runtime.rprv.accept_ratio": 0.0,
        "runtime.rpcbc.states_per_draw": 0.0,
        "runtime.rpfv.rng_share": 0.0,
        "runtime.rpfv.draws_per_s": 0.0,
        "runtime.rpcbc.draws_per_s": 0.0,
        "runtime.rprv.draws_per_s": 0.0,
        "cli.vector_io.s": (setup_tracer.stats["cli.vector_io"].total
                            if "cli.vector_io" in setup_tracer.stats else 0.0),
    }
    for layer in layertrace.LAYERS:
        m[f"{layer}.self_s"] = sum(
            s.self_time for name, s in stats.items() if name.split(".")[0] == layer) / k
    if online:
        traced = [info for is_traced, info in passes.infos if is_traced]
        untraced = [info for is_traced, info in passes.infos if not is_traced]
        reps = wl.reps

        def delta(info, name, i):
            """Change of snapshot field i (rng draws, rng seconds, CbcState builds)."""
            return info[name][2][i] - info[name][1][i]

        m["runtime.rprv.accept_ratio"] = statistics.mean(
            ratio(reps["rprv"], (delta(t, "rprv", 0) - reps["rprv"]) / wl.d) for t in traced)
        m["runtime.rpcbc.states_per_draw"] = statistics.mean(
            delta(t, "rpcbc", 2) / reps["rpcbc"] for t in traced)
        m["runtime.rpfv.rng_share"] = statistics.mean(
            ratio(delta(t, "rpfv", 1), t["rpfv"][0]) for t in traced)
        for name, rate in wl.draws_per_s(untraced).items():
            m[f"runtime.{name}.draws_per_s"] = rate
    m.update({
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead": ratio(traced_wall, untraced_wall),
        "trace.self_sum_ratio": ratio(sum(s.self_time for s in stats.values()),
                                      sum(passes.traced)),
        "trace.absent": float(len(tracer.absent)),
    })
    return m


if __name__ == "__main__":
    sys.exit(main())
