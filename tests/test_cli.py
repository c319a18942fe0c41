import json
import math
import time

import pytest

import ranlat.cli as cli
import ranlat.primes as primes_module
from ranlat.cli import (
    EXIT_OK,
    EXIT_USAGE,
    closest_prime,
    main,
    parse_gamma_spec,
    parse_k_range,
    read_vector_file,
)
from ranlat.kernels import DomainError, zeta
from ranlat.primes import sieve_primes


def test_parse_gamma_spec():
    assert parse_gamma_spec("poly:2", 3) == pytest.approx((1.0, 0.25, 1 / 9))
    assert parse_gamma_spec("1.0,0.5", 2) == (1.0, 0.5)
    with pytest.raises(ValueError):
        parse_gamma_spec("1.0,0.5", 3)
    with pytest.raises(ValueError):
        parse_gamma_spec("poly:x", 2)


def test_parse_k_range():
    assert list(parse_k_range("15..17")) == [15, 16, 17]
    with pytest.raises(ValueError):
        parse_k_range("17-15")


def test_closest_prime():
    assert closest_prime(10.0) == 11  # |11-10| = |?|: 7 is 3 away, 11 is 1
    assert closest_prime(6.0) == 5  # tie between 5 and 7 -> smaller
    assert closest_prime(1.2 ** 26) == 113


def test_construct_writes_valid_vector_file(tmp_path):
    out = tmp_path / "v.json"
    rc = main([
        "construct", "--n", "12", "--d", "2", "--alpha", "2",
        "--gamma-spec", "poly:2", "--tau", "0.5", "--out", str(out),
    ])
    assert rc == EXIT_OK
    v, params, data = read_vector_file(str(out))
    assert data["primes"] == [7, 11]
    assert all(row[0] == 1 for row in data["residues"])
    # round trip is bit-exact
    assert [list(r) for r in v.residues] == data["residues"]


def test_construct_d1_closed_form(tmp_path, capsys):
    rc = main([
        "construct", "--n", "12", "--d", "1", "--alpha", "2",
        "--gamma-spec", "1.0", "--tau", "0.5",
    ])
    assert rc == EXIT_OK
    printed = capsys.readouterr().out
    e_ran = float([l for l in printed.splitlines() if l.startswith("e_ran")][0]
                  .split("=")[1])
    # all residues 1: every E(m) is the 1-D dual sum 2 zeta(2 alpha)/m^{2 alpha}
    z4 = 2 * zeta(4.0)
    expect2 = (z4 / 7 ** 4 + z4 / 11 ** 4 + 2 * z4 / 77 ** 4) / 4.0
    assert e_ran == pytest.approx(math.sqrt(expect2), rel=1e-12)


@pytest.mark.parametrize("n, clamped", [(131, "1 of 105"), (101, None)], ids=["n131", "n101"])
def test_construct_warns_of_clamped_terms(capsys, n, clamped):
    rc = main(["construct", "--n", str(n), "--d", "5", "--alpha", "3", "--gamma-spec", "poly:3"])
    assert rc == EXIT_OK
    err = capsys.readouterr().err
    if clamped is None:
        assert "warning" not in err
    else:
        assert (f"warning: {clamped} e_ran terms fell below 0 from round-off "
                "and were clamped to 0") in err.splitlines()


def test_construct_tau_one_rejected():
    assert main(["construct", "--n", "12", "--d", "2", "--tau", "1.0"]) == EXIT_USAGE


def test_read_vector_file_returns_hashable_tuples(tmp_path):
    out = tmp_path / "v.json"
    assert main(["construct", "--n", "30", "--d", "3", "--out", str(out)]) == EXIT_OK
    v, params, _ = read_vector_file(str(out))
    v2, params2, _ = read_vector_file(str(out))
    assert v == v2 and params == params2
    assert hash(params) == hash(params2)
    assert isinstance(v.residues, tuple) and isinstance(v.residues[0], tuple)
    assert all(type(r) is int for row in v.residues for r in row)
    assert isinstance(params.gamma, tuple)


def test_read_vector_file_bounds_n_before_sieving(tmp_path, monkeypatch):
    # the pool of n = 10^9 has more than C_PRIME n / ln n primes, so a file
    # listing one prime is rejected before the sieve up to n could run
    def no_sieve(limit):
        raise AssertionError(f"sieve up to {limit} ran before the pool-size check")

    monkeypatch.setattr(primes_module, "sieve_primes", no_sieve)
    path = tmp_path / "v.json"
    path.write_text(json.dumps({
        "format_version": 1, "n": 10 ** 9, "d": 1, "alpha": 1, "gamma": [1.0],
        "tau": 0.5, "primes": [999_999_937], "residues": [[1]],
    }))
    with pytest.raises(DomainError):
        read_vector_file(str(path))


@pytest.mark.parametrize("field, value", [
    ("tau", 7.0), ("tau", 0.0), ("tau", 1.0), ("tau", None), ("z_1", 0), ("z_1", 2),
    ("missing", "gamma"),
    ("n", "30"), ("n", 30.0), ("d", 3.0), ("alpha", True), ("gamma", 5),
    ("residues", 5), ("residues", [1, 17, 5]), ("z_2", 25.7), ("z_2", "25"),
    ("file", "list"), ("format_version", True),
    # JSON integers are unbounded: one that no float holds must not overflow
    pytest.param("n", 10 ** 400, id="n-beyond-floats"),
    pytest.param("gamma", [10 ** 400, 1.0, 1.0], id="gamma-beyond-floats"),
])
def test_integrate_rejects_invalid_vector_file(tmp_path, capsys, field, value):
    out = tmp_path / "v.json"
    assert main(["construct", "--n", "30", "--d", "3", "--out", str(out)]) == EXIT_OK
    data = json.loads(out.read_text())
    if field in ("z_1", "z_2"):
        data["residues"][-1][int(field[-1]) - 1] = value
    elif field == "missing":
        del data[value]
    elif field == "file":
        data = [data]
    else:
        data[field] = value
    out.write_text(json.dumps(data))
    capsys.readouterr()
    rc = main(["integrate", "--vector-file", str(out), "--reps", "5"])
    assert rc == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_integrate_reproducible_and_dim_checked(tmp_path, capsys):
    out = tmp_path / "v.json"
    main(["construct", "--n", "12", "--d", "2", "--out", str(out)])
    capsys.readouterr()

    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    for path in (a, b):
        rc = main([
            "integrate", "--vector-file", str(out), "--integrand",
            "product-cosine", "--seed", "9", "--reps", "200",
            "--out", str(path),
        ])
        assert rc == EXIT_OK
    assert a.read_bytes() == b.read_bytes()

    lines = a.read_text().splitlines()
    assert len(lines) == 201
    summary = json.loads(lines[-1])["summary"]
    assert summary["reps"] == 200

    rc = main([
        "integrate", "--vector-file", str(out),
        "--integrand", "product-cosine:3", "--seed", "9", "--reps", "10",
    ])
    assert rc == EXIT_USAGE


def test_verify_suites_pass(capsys):
    assert main(["verify", "--suite", "all"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "lemma-averaging: ok" in out
    assert "fft-oracle: ok" in out
    assert "eran-oracle: ok" in out


def test_study_small_range(tmp_path):
    out = tmp_path / "study.csv"
    rc = main([
        "study", "--alpha", "2", "--d", "2", "--gamma-spec", "poly:2",
        "--k-range", "13..15", "--out", str(out),
    ])
    assert rc == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "n,e_det_cbc,e_ran_rpfv,ref_det,ref_ran,construct_seconds"
    body = [l for l in lines[1:] if not l.startswith("#")]
    ns = [int(l.split(",")[0]) for l in body]
    assert ns == sorted(ns) and len(set(ns)) == len(ns)
    for l in body:
        fields = [float(t) for t in l.split(",")[1:]]
        assert all(f > 0 for f in fields[:4])
    # 17 significant digits round-trip
    e_det = body[0].split(",")[1]
    assert float(e_det) == float(f"{float(e_det):.17g}")
    slopes = [l for l in lines if l.startswith("# slope_")]
    assert len(slopes) == 2


def test_study_construct_seconds_leave_out_the_cbc_baseline(monkeypatch, tmp_path):
    # construct_seconds times construct_fixed_vector and its e_ran, not the CBC
    # vector and e_det that the row's e_det_cbc column reports
    cbc_construct = cli.cbc_construct

    def slow_cbc(n, params):
        time.sleep(0.3)
        return cbc_construct(n, params)

    monkeypatch.setattr(cli, "cbc_construct", slow_cbc)
    out = tmp_path / "study.csv"
    args = ["study", "--alpha", "1", "--d", "2", "--k-range", "13..13", "--out", str(out)]
    assert main(args) == EXIT_OK
    row = out.read_text().splitlines()[1]
    assert float(row.split(",")[-1]) < 0.3


def test_study_single_row_has_absent_slopes(tmp_path):
    out = tmp_path / "study.csv"
    rc = main([
        "study", "--alpha", "1", "--d", "2", "--gamma-spec", "poly:2",
        "--k-range", "13..13", "--out", str(out),
    ])
    assert rc == EXIT_OK
    text = out.read_text()
    assert "absent" in text


def test_study_sieve_is_bounded_by_the_largest_row(monkeypatch, capsys):
    # --max-n alone used to size the sieve (4 * 10^9 + 100 entries for two rows);
    # the largest kept 1.2^k, 1.2^16 ~ 18.5, bounds it at 4 * 19 + 100 = 176
    def spy(limit):
        if limit > 176:
            raise AssertionError(f"sieve to {limit} for rows at n = 17 and 19")
        limits.append(limit)
        return sieve_primes(limit)

    limits = []
    monkeypatch.setattr(cli, "sieve_primes", spy)
    args = ["study", "--alpha", "1", "--d", "3", "--max-n", "1000000000", "--k-range", "15..16"]
    assert main(args) == EXIT_OK
    assert limits == [176]
    out = capsys.readouterr().out
    assert [line.split(",")[0] for line in out.splitlines()[1:-2]] == ["17", "19"]


def test_study_sieves_once_up_to_the_cap(monkeypatch, capsys):
    # a sieve for the budget of each k up to 200 would reach 2 * 1.2^200 ~ 1.4e16
    # bytes; the spy raises before any sieve above the cap's bound allocates
    def spy(limit):
        if limit > 4 * 40 + 100:
            raise AssertionError(f"sieve to {limit} for --max-n 40")
        limits.append(limit)
        return sieve_primes(limit)

    limits = []
    monkeypatch.setattr(cli, "sieve_primes", spy)
    args = ["study", "--alpha", "1", "--d", "3", "--max-n", "40", "--k-range"]
    assert main(args + ["15..200"]) == EXIT_OK
    wide = capsys.readouterr()
    assert limits == [4 * 40 + 100]
    assert "skipping k=25:" in wide.err and "skipping k=200:" in wide.err
    assert main(args + ["15..23"]) == EXIT_OK
    narrow = capsys.readouterr().out

    def without_seconds(csv):
        return [line if line.startswith("#") else line.rsplit(",", 1)[0]
                for line in csv.splitlines()]

    assert without_seconds(wide.out) == without_seconds(narrow)
    assert [line.split(",")[0] for line in narrow.splitlines()[1:-2]] == [
        "17", "19", "23", "29", "31", "37"]


def test_study_skips_k_whose_power_overflows(capsys):
    # 1.2^4000 is above every float, so above any cap: skipped with a warning
    rc = main(["study", "--alpha", "1", "--d", "3", "--max-n", "40", "--k-range", "4000..4001"])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert "warning: skipping k=4000:" in err and "warning: skipping k=4001:" in err
