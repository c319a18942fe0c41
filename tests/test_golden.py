"""Golden fixtures: construction must reproduce recorded vectors exactly.

The fixtures under tests/data were written by scripts/golden_fixtures.py.
Any change to the T-hat evaluation or the e_ran evaluation must leave every
residue and e_ran^2 bit-identical, under both pair-table policies, both as
the report a constructed vector carries and as evaluated afresh.  A policy
is forced through the memory probe.  The kept policy sees ample memory, so
the pair records are kept between dimensions.  The rebuilt policy sees none,
so each pair record is rebuilt from the chosen prefix every time it is read.
A change that moves the numerics on purpose regenerates the fixtures and
says so.
"""

import json
import pathlib

import pytest

from ranlat import construct
from ranlat.errors import randomized_error_sq_fixed
from ranlat.kernels import KorobovSpaceParams
from ranlat.primes import ResidueVector

PROBED_MEMORY = {"kept": 1 << 62, "rebuilt": 0}
FIXTURES = sorted((pathlib.Path(__file__).parent / "data").glob("golden_*.json"))


def test_fixture_grid_present():
    names = {path.name for path in FIXTURES}
    assert names == {f"golden_n{n}.json" for n in (12, 30, 53, 101)}


@pytest.mark.parametrize("policy", ["kept", "rebuilt"])
@pytest.mark.parametrize("path", FIXTURES, ids=lambda path: path.stem)
def test_golden_vectors_reproduced(path, policy, monkeypatch):
    monkeypatch.setattr(
        construct, "physical_memory_bytes", lambda: PROBED_MEMORY[policy]
    )
    fix = json.loads(path.read_text())
    for case in fix["cases"]:
        params = KorobovSpaceParams(
            d=case["d"], alpha=case["alpha"], gamma=tuple(case["gamma"])
        )
        v = construct.construct_fixed_vector(fix["n"], case["d"], params, tau=fix["tau"])
        label = f"n={fix['n']} d={case['d']} alpha={case['alpha']}"
        assert list(v.pool.primes) == fix["primes"], label
        assert [list(res) for res in v.residues] == case["residues"], label
        e2 = randomized_error_sq_fixed(v, params).squared_error
        assert e2 == case["eran_sq"], label
        # a vector without the carried report: the evaluator of vector files
        fresh = randomized_error_sq_fixed(ResidueVector(v.pool, v.residues, v.d), params)
        assert fresh.squared_error == case["eran_sq"], label
