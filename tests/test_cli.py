"""CLI tests: expression parsing, report plumbing, exit codes, suite
determinism, and the Satake ingestion diagnostics."""

import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from metaplectic import cli, symsq
from metaplectic.cli import (
    Case,
    ingest_satake,
    main,
    parse_element,
    parse_place,
    parse_rational,
    parse_rational_list,
    render,
    render_poly,
    run_cases,
)
from metaplectic.errors import DataError
from metaplectic.local_arith import TruncatedSeries
from metaplectic.weil_index import EighthRoot


# parsing helpers ----------------------------------------------------------


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)
    assert parse_rational("0.5") == Fraction(1, 2)
    with pytest.raises(DataError):
        parse_rational("x")
    with pytest.raises(DataError):
        parse_rational("1/0")
    assert parse_rational_list("1,3/2, -5") == [1, Fraction(3, 2), -5]


def test_parse_place():
    assert parse_place("inf").is_real
    assert parse_place("7").p == 7
    with pytest.raises(DataError):
        parse_place("4")
    with pytest.raises(DataError):
        parse_place("seven")


def test_render():
    assert render(Fraction(3, 4)) == "3/4"
    assert render(True) == "true"
    assert render([1, Fraction(1, 2)]) == "[1, 1/2]"
    assert render(complex(2, 0)) == "2"
    assert render_poly((1, -3, 3, -1)) == "1 - 3*X + 3*X^2 - X^3"
    assert render_poly((1, 1)) == "1 + X"
    assert render_poly((0,)) == "0"


def test_render_eighth_roots_by_name():
    for k in range(8):
        assert render(EighthRoot(k)) == str(EighthRoot(k))


# one scale per Gauss-sign class; -1 needs p = 1 mod 4, so it is pinned at 5
@pytest.mark.parametrize(
    "place, scale, want",
    [
        ("3", "2", "1"),
        ("3", "3", "i"),
        ("3", "6", "-i"),
        ("5", "5", "1"),
        ("5", "10", "-1"),
        ("7", "3", "1"),
        ("7", "7", "i"),
        ("7", "21", "-i"),
    ],
)
def test_weil_gamma_prints_each_sign_class(place, scale, want, capsys):
    assert main(["weil-gamma", "--place", place, "--scale", scale]) == 0
    assert capsys.readouterr().out == want + "\n"


def test_parse_element():
    t = parse_element("torus(2,3,5)")
    assert t.torus_entries == (2, 3, 5)
    c = parse_element("central(2, 3)")
    assert c.r == 3
    s = parse_element("sl2(0,1,-1,0)")
    assert s.r == 2
    b = parse_element("blocks[sl2(1,2,0,1), torus(2,3)]")
    assert b.r == 4
    g = parse_element("blocks[gl2(1,0,0,4)]")
    assert g.r == 2
    with pytest.raises(DataError):
        parse_element("spiral(1,2)")
    with pytest.raises(DataError):
        parse_element("torus(1,2")
    with pytest.raises(DataError):
        parse_element("central(2, 3/2)")
    with pytest.raises(DataError):
        parse_element("blocks[]")


# report plumbing -----------------------------------------------------------


def test_run_cases_statuses():
    cases = [
        Case("a/good", "x", lambda: (1, 1)),
        Case("a/bad", "y", lambda: (1, 2)),
        Case("b/boom", "z", lambda: (_ for _ in ()).throw(DataError("nope"))),
    ]
    rep = run_cases("demo", cases)
    assert rep["summary"] == {
        "pass": 1,
        "fail": 1,
        "error": 1,
        "skipped": 0,
        "total": 3,
    }
    statuses = {row["id"]: row["status"] for row in rep["cases"]}
    assert statuses == {"a/good": "pass", "a/bad": "fail", "b/boom": "error"}
    assert all(row["elapsed"] is None for row in rep["cases"])
    # filtered run keeps only the matching prefix
    only_a = run_cases("demo", cases, case_filter="a/")
    assert only_a["summary"]["total"] == 2
    timed = run_cases("demo", cases[:1], timings=True)
    assert timed["cases"][0]["elapsed"] is not None


def test_unexpected_case_exception_is_an_error_row(monkeypatch, capsys):
    def boom():
        raise KeyError(17)

    rep = run_cases("demo", [Case("a/boom", "x", boom), Case("a/good", "y", lambda: (1, 1))])
    row = rep["cases"][0]
    assert (row["status"], row["got"]) == ("error", "KeyError: 17")
    assert rep["summary"]["pass"] == 1  # the report went on past the error
    monkeypatch.setitem(cli._SUITES, "symbols", lambda rng: [Case("symbols/boom", "x", boom)])
    assert main(["suite", "symbols"]) == 1
    assert "got 'KeyError: 17'" in capsys.readouterr().out


# exit codes and outputs -------------------------------------------------------


def test_hilbert_command(capsys):
    assert main(["hilbert", "-a", "-1", "-b", "-1", "--place", "inf"]) == 0
    assert capsys.readouterr().out.strip() == "-1"
    assert main(["hilbert", "-a", "2", "-b", "3", "--place", "2"]) == 0
    assert capsys.readouterr().out.strip() == "-1"
    assert main(["hilbert", "-a", "0", "-b", "1", "--place", "3"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cocycle_command(capsys):
    code = main(["cocycle", "torus(2,3)", "torus(3,5)", "--place", "3"])
    assert code == 0
    first = capsys.readouterr().out.strip()
    assert first in ("1", "-1")
    code = main(
        [
            "cocycle",
            "blocks[sl2(0,1,-1,0),torus(2,3)]",
            "blocks[sl2(1,2,0,1),torus(3,5)]",
            "--place",
            "5",
        ]
    )
    assert code == 0
    assert main(["cocycle", "torus(2)", "junk", "--place", "3"]) == 2


def test_weil_commands(capsys):
    assert main(["weil-gamma", "--place", "3"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["weil-gamma", "--place", "3", "--scale", "3"]) == 0
    assert capsys.readouterr().out.strip() == "i"
    assert main(["weil-mu", "-a", "2", "--place", "5"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    # even residue characteristic is outside the character layer
    assert main(["weil-gamma", "--place", "2"]) == 2


def test_lfactor_command(capsys):
    code = main(["lfactor", "--r", "2", "--alphas", "1,1", "--chi", "1", "--q", "7"])
    assert code == 0
    out = capsys.readouterr().out
    assert "sym: 1 - 3*X + 3*X^2 - X^3" in out
    assert "ext: 1 - X" in out
    assert "rs:  1 - 4*X + 6*X^2 - 4*X^3 + X^4" in out


def test_zeta_command(capsys):
    code = main(
        ["zeta", "--r", "2", "--alphas", "1,1", "--chi", "1", "--q", "7", "--deg", "6"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "toral series coefficients: [1, 3, 5, 7, 9, 11, 13]" in out
    assert "identity to X^6: true" in out


def test_zeta_prints_the_toral_sum_it_checked(capsys, monkeypatch):
    # with the symmetric-square side broken, the toral sum is still printed
    monkeypatch.setattr(
        symsq, "sym_square_series", lambda sat, degree: TruncatedSeries.one(degree)
    )
    code = main(["zeta", "--r", "2", "--alphas", "1,1", "--q", "7", "--deg", "6"])
    assert code == 1
    out = capsys.readouterr().out
    assert "toral series coefficients: [1, 3, 5, 7, 9, 11, 13]" in out
    assert "identity to X^6: false" in out


def test_zeta_negative_degree_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["zeta", "--r", "2", "--alphas", "1,1", "--q", "7", "--deg", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--deg" in err and "got -1" in err


def test_poles_command(capsys):
    assert main(["poles", "--r", "3", "--trivial", "true"]) == 0
    out = capsys.readouterr().out
    assert "normalizer poles: {1/4, 3/4}" in out
    assert "l-function poles: {0, 1}" in out
    assert main(["poles", "--r", "3", "--trivial", "false"]) == 0
    out = capsys.readouterr().out
    assert "none" in out


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["suite", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main([])


# suites ------------------------------------------------------------------------


def test_suite_symbols_green_and_deterministic(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["suite", "symbols", "--json", str(out1)]) == 0
    assert main(["suite", "symbols", "--json", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    rep = json.loads(out1.read_text())
    assert rep["summary"]["fail"] == 0 and rep["summary"]["error"] == 0
    assert rep["summary"]["total"] == rep["summary"]["pass"]
    assert all(row["elapsed"] is None for row in rep["cases"])


def test_suite_filter_and_timings(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(
        [
            "suite",
            "symbols",
            "--suite",
            "symbols/reciprocity",
            "--timings",
            "--json",
            str(out),
        ]
    )
    assert code == 0
    capsys.readouterr()
    rep = json.loads(out.read_text())
    assert rep["summary"]["total"] == 1
    assert rep["cases"][0]["elapsed"] is not None


@pytest.mark.parametrize("name", ["cocycles", "weil", "weilrep", "symsq"])
def test_each_suite_green(name, capsys):
    assert main(["suite", name]) == 0
    out = capsys.readouterr().out
    assert "0 failed, 0 errors" in out


def test_weilrep_suite_config(capsys):
    assert main(["suite", "weilrep", "--p", "5", "--N", "1"]) == 0
    out = capsys.readouterr().out
    assert "@(5,1)" in out


def test_least_nonresidue():
    want = {3: 2, 5: 2, 7: 3, 11: 2, 13: 2, 17: 3, 19: 2, 23: 5, 71: 7}
    assert {p: cli._least_nonresidue(p) for p in want} == want


@pytest.mark.parametrize("p", [17, 19])
def test_weilrep_suite_past_small_primes(p, tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["suite", "weilrep", "--p", str(p), "--json", str(path)]) == 0
    summary = json.loads(path.read_text())["summary"]
    assert summary["pass"] == summary["total"] == 7


@pytest.mark.parametrize("p, big_n", [(11, 2), (5, 3)])
def test_weilrep_suite_refuses_a_model_past_the_cap(p, big_n, capsys):
    started = time.perf_counter()
    assert main(["suite", "weilrep", "--p", str(p), "--N", str(big_n)]) == 2
    assert time.perf_counter() - started < 5
    err = capsys.readouterr().err
    assert f"M = {p ** (2 * big_n)}" in err and "cap of 2500" in err


def test_suite_all_refuses_a_large_model_before_any_suite_runs(tmp_path, capsys):
    path = tmp_path / "report.json"
    started = time.perf_counter()
    assert main(["suite", "all", "--p", "11", "--N", "2", "--json", str(path)]) == 2
    assert time.perf_counter() - started < 5
    assert capsys.readouterr().out == ""
    assert not path.exists()


@pytest.mark.parametrize(
    "p, big_n, message", [("9", "1", "need an odd prime"), ("3", "0", "window depth")]
)
def test_weilrep_suite_keeps_the_model_errors(p, big_n, message, capsys):
    assert main(["suite", "all", "--p", p, "--N", big_n]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


# ingestion ------------------------------------------------------------------------


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(payload)
    return str(path)


def test_ingest_happy_path(tmp_path, capsys):
    path = _write(
        tmp_path,
        "tbl.json",
        json.dumps(
            [
                {"p": 2, "alphas": ["1"], "chi": 1},
                {"p": 3, "alphas": ["3/2", "2/3"], "chi": "ramified"},
                {"p": 5, "alphas": [0.5, 2], "chi": "1"},
            ]
        ),
    )
    table = ingest_satake(path)
    assert [p for p, _ in table] == [2, 3, 5]
    assert table[2][1].alphas[0] == Fraction(1, 2)
    assert table[1][1].chi_val == "ramified"
    out_json = tmp_path / "norm.json"
    assert main(["ingest", path, "--json", str(out_json)]) == 0
    assert "3 entries ok" in capsys.readouterr().out
    rows = json.loads(out_json.read_text())
    assert rows[1]["chi"] == "ramified" and rows[1]["omega"] == "1"


def test_ingest_diagnostics(tmp_path):
    with pytest.raises(DataError, match="line 1"):
        ingest_satake(_write(tmp_path, "bad.json", "[{"))
    with pytest.raises(DataError, match="top level"):
        ingest_satake(_write(tmp_path, "obj.json", "{}"))
    with pytest.raises(DataError, match="entry 0, field 'p'"):
        ingest_satake(_write(tmp_path, "np.json", '[{"p": 4, "alphas": ["1"]}]'))
    with pytest.raises(DataError, match="alphas\\[1\\].*zero"):
        ingest_satake(_write(tmp_path, "za.json", '[{"p": 3, "alphas": ["1", "0"]}]'))
    with pytest.raises(DataError, match="duplicate prime"):
        ingest_satake(
            _write(
                tmp_path,
                "dup.json",
                '[{"p": 3, "alphas": ["1"]}, {"p": 3, "alphas": ["2"]}]',
            )
        )
    with pytest.raises(DataError, match="missing field"):
        ingest_satake(_write(tmp_path, "mf.json", '[{"p": 3}]'))
    with pytest.raises(DataError, match="nonempty array"):
        ingest_satake(_write(tmp_path, "ea.json", '[{"p": 3, "alphas": []}]'))
    with pytest.raises(DataError, match="not a rational"):
        ingest_satake(_write(tmp_path, "nr.json", '[{"p": 3, "alphas": ["x"]}]'))
    with pytest.raises(DataError, match="chi"):
        ingest_satake(
            _write(tmp_path, "zc.json", '[{"p": 3, "alphas": ["1"], "chi": 0}]')
        )
    assert main(["ingest", str(tmp_path / "missing.json")]) == 2


def test_euler_command(tmp_path, capsys):
    path = _write(
        tmp_path,
        "zeta.json",
        json.dumps([{"p": p, "alphas": [1]} for p in (2, 3, 5, 7)]),
    )
    assert main(["euler", "--table", path, "--s", "2"]) == 0
    val = float(capsys.readouterr().out.strip())
    partial = (4 / 3) * (9 / 8) * (25 / 24) * (49 / 48)
    assert abs(val - partial) < 1e-6


# pinned behaviour and the fixes past the old oracle cap --------------------------


GOLDEN_SUITE_ALL = Path(__file__).parent / "golden" / "suite_all_seed0.json"


def test_suite_all_matches_golden_report(tmp_path, capsys):
    # "same behaviour" means this report, byte for byte
    out = tmp_path / "all.json"
    assert main(["suite", "all", "--seed", "0", "--json", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == GOLDEN_SUITE_ALL.read_bytes()


def test_weil_gamma_past_the_old_cap(capsys):
    assert main(["weil-gamma", "--place", "23", "--scale", "23"]) == 0
    assert capsys.readouterr().out.strip() == "i"


@pytest.mark.parametrize(
    "p, a, want", [(23, 115, "-i"), (29, 145, "1"), (31, 155, "i"), (29, 58, "-1")]
)
def test_weil_mu_past_the_old_cap(p, a, want, capsys):
    assert main(["weil-mu", "-a", str(a), "--place", str(p)]) == 0
    assert capsys.readouterr().out.strip() == want


@pytest.mark.parametrize("seed", [9, 10])
def test_weilrep_cocycle_checks_twenty_triples(seed, tmp_path, capsys):
    # seed 9 used to draw 20 triples that all left the (3,1) window; seed 10
    # reaches 20 in-window triples only with unit torus entries at N = 1
    path = tmp_path / "report.json"
    argv = ["suite", "weilrep", "--seed", str(seed), "--p", "3", "--N", "1", "--json", str(path)]
    assert main(argv) == 0
    capsys.readouterr()
    rows = {row["id"]: row for row in json.loads(path.read_text())["cases"]}
    assert rows["weilrep/2-cocycle@(3,1)"]["got"] == "0"


def test_zeta_rank_one_names_the_rank(capsys):
    assert main(["zeta", "--r", "1", "--alphas", "2", "--q", "7"]) == 2
    assert "needs rank r >= 2, got 1" in capsys.readouterr().err
