"""Smoke test of the benchmark itself: tiny inputs, a few seconds per workload.

    python3 perfbench/smoke_test.py        # or: python3 -m pytest perfbench/smoke_test.py

For every workload, untraced and traced, it checks that the last output
line has exactly the result keys, that every metric named in
BENCHMARK.json is printed with its unit, and that no output check failed
(fail ratio 0).  It also checks that the runner refuses to run, printing
no result, when the package sources are missing.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(root: pathlib.Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True, timeout=170)


def check_result(workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, f"{workload} trace={trace}: exit code {proc.returncode}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["attempted"] >= 1
    fail_ratio = result["failed"] / result["attempted"]
    assert fail_ratio == 0 and result["correct"] is True, proc.stdout
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, f"{workload} trace={trace}: {got} != {expected}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)
        if not trace:
            assert m["value"] > 0, f"{workload}: end-to-end metric {name} is {m['value']}"


def test_build_large():
    for trace in (0, 1):
        check_result("build_large", trace)


def test_sweep_small():
    for trace in (0, 1):
        check_result("sweep_small", trace)


def test_online():
    for trace in (0, 1):
        check_result("online", trace)


def test_refuses_without_sources():
    with tempfile.TemporaryDirectory(prefix=".perfbench-smoke-", dir=ROOT) as tmp:
        bare = pathlib.Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "online", 0)
        assert proc.returncode != 0 and proc.stdout.strip() == "", proc.stdout


if __name__ == "__main__":
    tests = [test_build_large, test_sweep_small, test_online, test_refuses_without_sources]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
