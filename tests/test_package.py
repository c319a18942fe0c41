"""The package boundary: the product never loads its oracles."""

import ast
import itertools
import os
import pathlib
import subprocess
import sys

import pytest

import ranlat
from ranlat import cbc, construct, fftconv
from ranlat.kernels import KorobovSpaceParams, poly_weights
from ranlat.primes import build_prime_pool

PACKAGE = pathlib.Path(ranlat.__file__).parent
PRODUCT = {"cbc", "cli", "construct", "errors", "fftconv", "kernels", "primes", "runtime"}


def test_product_modules_do_not_load_oracles():
    # A fresh interpreter, so that no other test has loaded ranlat.oracles yet.
    code = (
        "import importlib, pkgutil, sys\n"
        "import ranlat\n"
        "assert 'ranlat.oracles' not in sys.modules\n"
        "names = sorted(m.name for m in pkgutil.iter_modules(ranlat.__path__) if m.name != 'oracles')\n"
        "for name in names:\n"
        "    importlib.import_module('ranlat.' + name)\n"
        "assert 'ranlat.oracles' not in sys.modules, 'a product module loaded ranlat.oracles'\n"
        "print(' '.join(names))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    ).stdout
    assert set(out.split()) == PRODUCT


def test_only_cli_imports_oracles():
    importers = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module] if node.module else [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(name.split(".")[-1] == "oracles" for name in names):
                importers.add(path.stem)
    assert importers == {"cli"}


def test_every_exported_name_resolves():
    assert len(set(ranlat.__all__)) == len(ranlat.__all__)
    for name in ranlat.__all__:
        assert getattr(ranlat, name) is not None, name


def test_only_cbc_reads_the_record_layout():
    # A record's layout (its grid, products, sigma rows, stored rows and column order)
    # is read through CbcState's methods alone, and only cbc runs the Rader sweep: the
    # correlation body on its Rader-ordered pair records, the reindexing kernel on
    # natural-order tables.  The Rader order itself, rader_plan, is named by fftconv
    # and cbc, and by cli, whose fft oracle suite checks the kernel and, on tables in
    # runs reindexed by rader_plan, the correlation body.
    watched = {"rader_cbc_kernel", "rader_correlation", "rader_plan"}
    readers, namers = set(), {s: set() for s in watched}
    for name in PRODUCT:
        for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text())):
            if isinstance(node, ast.Attribute):
                if node.attr in {"P_products", "grid", "layout", "sigma_rows"}:
                    readers.add(name)
                named = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                named = [a.name for a in node.names]
            elif isinstance(node, ast.Name):
                named = [node.id]
            else:
                continue
            for n in watched.intersection(named):
                namers[n].add(name)
    assert readers == {"cbc"}
    assert namers == {"rader_cbc_kernel": {"cbc", "cli"}, "rader_correlation": {"cbc", "cli", "fftconv"},
                      "rader_plan": {"cbc", "cli", "fftconv"}}


@pytest.mark.parametrize("n", [53, 307])
def test_one_kernel_call_per_run_per_turn(monkeypatch, n):
    # a turn sweeps the due prime's sigma table once, with theta's products and
    # the larger primes' row, and each run of its smaller partners once.  Runs
    # cover every pair once; at n=307 each is a single pair, so a sweep keeps
    # one pair's cache footprint, and at n=53 some run holds several.  Calls are
    # counted at the correlation body, which the θ kernel and the runs share.
    calls = []
    body = fftconv.rader_correlation
    counted = lambda *args: calls.append(args) or body(*args)  # noqa: E731
    monkeypatch.setattr(fftconv, "rader_correlation", counted)
    monkeypatch.setattr(cbc, "rader_correlation", counted)
    monkeypatch.setattr(construct, "physical_memory_bytes", lambda: 0)
    params = KorobovSpaceParams(d=2, alpha=2, gamma=poly_weights(2, 3.0))
    state = construct.ConstructionState(pool=build_prime_pool(n), params=params, tau=0.5)
    primes = state.pool.primes
    runs = {p: construct.partner_runs(primes, p) for p in primes}
    pairs = [(q, run[-1]) for rs in runs.values() for run in rs for q in run[:-1]]
    assert sorted(pairs) == list(itertools.combinations(primes, 2))
    for p in primes:
        calls.clear()
        state.choose()
        assert len(state.residues[p]) == 2
        assert len(calls) == len(runs[p]) + 1
    sizes = [len(run) - 1 for rs in runs.values() for run in rs]
    assert max(sizes) == 1 if n == 307 else max(sizes) > 1


def test_runtime_keeps_no_scalar_generator():
    # draws_below is the product's one SplitMix64; the scalar generator is
    # the specification in ranlat.oracles
    scalar = {"SplitMix64", "stream_seed", "_mix64", "_rejection_limit"}
    defined = set()
    for node in ast.walk(ast.parse((PACKAGE / "runtime.py").read_text())):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
    assert not defined & scalar
    assert "draws_below" in defined
