#!/usr/bin/env python3
"""Write the golden construction fixtures `tests/data/golden_n<N>.json`.

Each fixture holds, for one budget n and every (d, alpha) of the grid, the
exact residues of the fixed vector and its squared randomised error.
`tests/test_golden.py` checks that construction still reproduces them with
its pair tables kept and with them rebuilt.  Regenerating the fixtures changes what counts as correct:
do it only on an intended numerics change, and record why.

    PYTHONPATH=src python3 scripts/golden_fixtures.py [--out-dir tests/data]
"""

import argparse
import json
import pathlib

from ranlat import (
    KorobovSpaceParams,
    construct_fixed_vector,
    poly_weights,
    randomized_error_sq_fixed,
)

BUDGETS = (12, 30, 53, 101)
DIMS = (3, 5)
ALPHAS = (1, 2, 3)
WEIGHT_DECAY = 3.0  # gamma_j = j^-3
TAU = 0.5


def fixture(n: int) -> dict:
    cases = []
    for d in DIMS:
        gamma = poly_weights(d, WEIGHT_DECAY)
        for alpha in ALPHAS:
            params = KorobovSpaceParams(d=d, alpha=alpha, gamma=gamma)
            v = construct_fixed_vector(n, d, params, tau=TAU)
            cases.append({
                "d": d,
                "alpha": alpha,
                "gamma": list(gamma),
                "residues": [list(res) for res in v.residues],
                "eran_sq": randomized_error_sq_fixed(v, params).squared_error,
            })
    return {"n": n, "tau": TAU, "primes": list(v.pool.primes), "cases": cases}


def dumps(fix: dict) -> str:
    """JSON with one line per case, so a regenerated fixture diffs per case."""
    head = {k: v for k, v in fix.items() if k != "cases"}
    lines = [json.dumps(head)[:-1] + ', "cases": [']
    lines += [" " + json.dumps(case) + "," for case in fix["cases"]]
    lines[-1] = lines[-1][:-1]
    return "\n".join(lines) + "\n]}\n"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default=str(pathlib.Path(__file__).parent.parent
                                             / "tests" / "data"))
    args = ap.parse_args()
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for n in BUDGETS:
        path = out / f"golden_n{n}.json"
        path.write_text(dumps(fixture(n)))
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
