#!/usr/bin/env python3
"""Time construct plus e_ran at the study's scale budgets under both pair-table policies.

Each row is one (source tree, n, alpha, policy), with d = 5, gamma_j = j^-3 and
tau = 0.5, and runs in fresh processes of its own: one timed, which records
wall time, CPU time, peak RSS (`ru_maxrss`) and the minor page faults of
construct plus e_ran (`ru_minflt` around them), and one under tracemalloc,
which records its peak.  The policy is forced by replacing
`construct.physical_memory_bytes` before the construction: 2^62 keeps the
pair runs, 0 rebuilds them.  Rows run one at a time, the trees in turn within
each (n, alpha, policy), the given order first, then reversed for the next.

The JSON written holds the host, the settings, every row and two ratios per
(tree, n, alpha): rebuild over kept, and each tree over the first tree.  Every
row also records a digest of its vector and its e_ran^2, and the script exits 1
if two rows of one (n, alpha) disagree on either, across trees or policies.

    PYTHONPATH=src python3 scripts/construct_scale.py --out BENCH_runs.json
    python3 scripts/construct_scale.py --tree parent=../parent/src --tree change=src \\
        --out BENCH_runs.json
    python3 scripts/construct_scale.py --n 30 --alpha 2     # a smoke run, printed only
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import subprocess
import sys
import time

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
PROBED_MEMORY = {"kept": 1 << 62, "rebuilt": 0}
D, TAU, WEIGHT_DECAY = 5, 0.5, 3.0


def row(src: str, n: int, alpha: int, policy: str, traced: bool) -> dict:
    """Build the vector and its e_ran in this process, with ranlat imported from src."""
    sys.path.insert(0, src)
    import resource
    import tracemalloc

    from ranlat import construct
    from ranlat.errors import randomized_error_sq_fixed
    from ranlat.kernels import KorobovSpaceParams, poly_weights

    construct.physical_memory_bytes = lambda: PROBED_MEMORY[policy]
    params = KorobovSpaceParams(d=D, alpha=alpha, gamma=poly_weights(D, WEIGHT_DECAY))
    if traced:
        tracemalloc.start()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    wall, cpu = time.perf_counter(), time.process_time()
    v = construct.construct_fixed_vector(n, D, params, tau=TAU)
    report = randomized_error_sq_fixed(v, params)
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out = {"eran_sq": report.squared_error.hex(),
           "vector_sha256": hashlib.sha256(repr(v.residues).encode()).hexdigest()}
    if traced:
        out["tracemalloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    else:  # ru_maxrss is in KiB on Linux
        out.update(wall_s=wall, cpu_s=cpu, peak_rss_mb=usage.ru_maxrss / 1024,
                   minor_faults=usage.ru_minflt - faults)
    return out


def spawn(src: str, n: int, alpha: int, policy: str, traced: bool) -> dict:
    cmd = [sys.executable, __file__, "--row", src, str(n), str(alpha), policy, str(int(traced))]
    env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    return json.loads(subprocess.run(cmd, capture_output=True, text=True, check=True,
                                     env=env).stdout)


def host() -> dict:
    try:
        info = pathlib.Path("/proc/cpuinfo").read_text()
    except OSError:  # not Linux
        info = ""
    cpu = next((line.split(":", 1)[1].strip() for line in info.splitlines()
                if line.startswith("model name")), "")
    import numpy
    return {"cpu": cpu or platform.processor(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def ratios(rows: list[dict], trees: list[str]) -> tuple[list[dict], list[dict]]:
    """Rebuild over kept per (tree, n, alpha), and each tree over the first per row."""
    at = {(r["tree"], r["n"], r["alpha"], r["policy"]): r for r in rows}
    metrics = ("wall_s", "cpu_s", "peak_rss_mb", "minor_faults", "tracemalloc_peak_mb")
    policy, trees_ratio = [], []
    for (tree, n, alpha, pol), r in at.items():
        if pol == "rebuilt" and (tree, n, alpha, "kept") in at:
            kept = at[(tree, n, alpha, "kept")]
            policy.append({"tree": tree, "n": n, "alpha": alpha,
                           **{m: r[m] / kept[m] for m in metrics}})
        if tree != trees[0] and (trees[0], n, alpha, pol) in at:
            base = at[(trees[0], n, alpha, pol)]
            trees_ratio.append({"tree": f"{tree}/{trees[0]}", "n": n, "alpha": alpha,
                                "policy": pol, **{m: r[m] / base[m] for m in metrics}})
    return policy, trees_ratio


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--tree", action="append", default=[],
                    help="LABEL=SRC: a source tree to time (ranlat under SRC); repeatable, "
                         "default the tree of this script")
    ap.add_argument("--n", type=int, nargs="+", default=[101, 199, 307, 409])
    ap.add_argument("--alpha", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--policy", nargs="+", choices=list(PROBED_MEMORY), default=list(PROBED_MEMORY))
    ap.add_argument("--out", type=pathlib.Path, help="write the JSON here (default: print it)")
    ap.add_argument("--row", nargs=5, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.row:
        src, n, alpha, policy, traced = args.row
        print(json.dumps(row(src, int(n), int(alpha), policy, traced == "1")))
        return 0
    trees = [(label, str(pathlib.Path(src).resolve()))
             for label, src in (t.split("=", 1) for t in args.tree)] or [("tree", str(SRC))]
    rows, order = [], [label for label, _ in trees]
    for i, (n, alpha, policy) in enumerate(
            (n, alpha, policy) for n in args.n for alpha in args.alpha for policy in args.policy):
        for label, src in (trees if i % 2 == 0 else trees[::-1]):
            timed = spawn(src, n, alpha, policy, traced=False)
            traced = spawn(src, n, alpha, policy, traced=True)
            rows.append({"tree": label, "n": n, "d": D, "alpha": alpha, "policy": policy,
                         **timed, "tracemalloc_peak_mb": traced["tracemalloc_peak_mb"],
                         "agrees": traced["vector_sha256"] == timed["vector_sha256"]
                         and traced["eran_sq"] == timed["eran_sq"]})
            print(f"{label:>8} n={n:<4} alpha={alpha} {policy:<7} wall {timed['wall_s']:7.2f} s "
                  f"cpu {timed['cpu_s']:7.2f} s  rss {timed['peak_rss_mb']:7.1f} MB  "
                  f"minflt {timed['minor_faults']:8d}  "
                  f"tracemalloc {traced['tracemalloc_peak_mb']:7.1f} MB", file=sys.stderr)
    outputs = {}
    for r in rows:
        outputs.setdefault((r["n"], r["alpha"]), set()).add((r["vector_sha256"], r["eran_sq"]))
    differs = [key for key, seen in outputs.items() if len(seen) > 1]
    differs += [(r["n"], r["alpha"]) for r in rows if not r["agrees"]]
    by_policy, by_tree = ratios(rows, order)
    result = {"script": "scripts/construct_scale.py", "host": host(),
              "settings": {"d": D, "gamma": f"j^-{WEIGHT_DECAY:g}", "tau": TAU,
                           "probed_memory": PROBED_MEMORY, "trees": order},
              "rows": rows, "rebuilt_over_kept": by_policy, "over_first_tree": by_tree,
              "outputs_differ": sorted(set(differs))}
    text = json.dumps(result, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    else:
        print(text)
    if differs:
        print(f"vector or e_ran differs at (n, alpha) {sorted(set(differs))}", file=sys.stderr)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
