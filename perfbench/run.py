"""Run one ranlat benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload build_large --seed 1 --seconds 25 --trace 0

Run from anywhere; the package is imported from `src/` next to this
directory.  Each workload runs in one fresh worker process with the
numpy/BLAS thread pools pinned to one thread, so peak RSS and times
belong to that workload alone.  Set-up is measured in SETUP_SPAWNS extra
set-up-only processes plus the measured one, and reported as the median.

`wall_s` and `setup_s` are in seconds on the nominal host: each raw time
is scaled by the host speed sampled with a fixed kernel while it ran
(`hostspeed.py`), which takes out the shared host's drift.  The raw
samples are in the detail line.

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
metrics of an outside-in traced run.  The line before the result holds
the samples, the environment (nproc, CPU model, Python and numpy
versions), workload details and any failed checks.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("build_large", "sweep_small", "online")
SETUP_SPAWNS = 6
TIME_LIMIT_S = 170.0  # the whole run, set-up spawns included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from the naming convention."""
    if name.endswith("draws_per_s"):
        return "1/s"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith((".calls", ".points", ".rows", ".draws", ".absent")):
        return "count"
    return "ratio"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def spawn(argv: list[str], deadline: float) -> dict:
    """Run the worker once; returns its JSON line.  Exits on any failure."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), *argv, "--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        sys.exit("run.py: worker timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run.py: worker failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the benchmark's own smoke test")
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "ranlat" / "__init__.py").is_file():
        sys.exit(f"run.py: no ranlat package under {ROOT / 'src'}")

    deadline = time.monotonic() + TIME_LIMIT_S
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        argv.append("--tiny")

    setups = []
    if not args.trace:
        setups = [spawn(argv + ["--setup-only"], deadline) for _ in range(SETUP_SPAWNS)]
    res = spawn(argv, deadline)
    setups.append(res)

    if args.trace:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in res["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(s["setup_norm_s"] for s in setups),
                        "unit": "s"},
            "wall_s": {"value": statistics.median(res["norm_walls"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "eran": {"value": res["eran"], "unit": "1"},
        }
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": {**res["env"], "nproc": os.cpu_count(), "cpu": cpu_model()},
        "setup_samples_s": [s["setup_norm_s"] for s in setups],
        "setup_raw_samples_s": [s["setup_s"] for s in setups],
        "wall_samples_s": res["norm_walls"], "wall_raw_samples_s": res["walls"],
        **res["detail"],
        "failures": res["failures"],
    }
    for key in ("trace_sites", "absent", "size_errors"):
        if key in res:
            detail[key] = res[key]
    print(json.dumps({"detail": detail}))
    failed = len(res["failures"])
    print(json.dumps({"correct": failed == 0, "attempted": res["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
