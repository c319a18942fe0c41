"""The package boundary: the product never loads its oracles."""

import ast
import os
import pathlib
import subprocess
import sys

import ranlat

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
    # A record's layout (its grid, products and sigma rows) is read through
    # CbcState's methods alone, and only cbc runs the Rader sweep; cli
    # imports it for its fft oracle suite.
    readers, sweepers = set(), set()
    for name in PRODUCT:
        for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text())):
            if isinstance(node, ast.Attribute):
                if node.attr in {"P_products", "grid", "sigma_rows"}:
                    readers.add(name)
                if node.attr == "rader_cbc_kernel":
                    sweepers.add(name)
            elif isinstance(node, ast.ImportFrom):
                if any(a.name == "rader_cbc_kernel" for a in node.names):
                    sweepers.add(name)
    assert readers == {"cbc"}
    assert sweepers == {"cbc", "cli"}
