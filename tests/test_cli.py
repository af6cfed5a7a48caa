"""CLI tests: expression parsing, report plumbing, exit codes, suite
determinism, and the Satake ingestion diagnostics."""

import argparse
import json
import os
import random
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import metaplectic
from metaplectic import checks, local_arith, symsq, weil_rep
from metaplectic.cli import (
    build_parser,
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
from metaplectic.errors import (
    DataError,
    DomainError,
    ModelInconsistencyError,
    UnsupportedDomainError,
)
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


def test_central_rank_is_capped(capsys):
    # a rank past what one argv can list as torus entries is a data error,
    # not a MemoryError from building its diagonal
    huge = "central({},1000000000000)"
    assert main(["cocycle", huge.format(2), huge.format(3), "--place", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "65536" in err
    assert "Traceback" not in err
    assert parse_element("central(2,65536)").r == 65536


# report plumbing -----------------------------------------------------------


def test_run_cases_statuses():
    cases = [
        ("a/good", "x", lambda: (1, 1)),
        ("a/bad", "y", lambda: (1, 2)),
        ("b/boom", "z", lambda: (_ for _ in ()).throw(DataError("nope"))),
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

    rep = run_cases("demo", [("a/boom", "x", boom), ("a/good", "y", lambda: (1, 1))])
    row = rep["cases"][0]
    assert (row["status"], row["got"]) == ("error", "KeyError: 17")
    assert rep["summary"]["pass"] == 1  # the report went on past the error
    monkeypatch.setitem(checks.SUITES, "symbols", lambda: [("symbols/boom", "x", lambda _: boom())])
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


@pytest.mark.parametrize("command", ["zeta", "lfactor"])
def test_alphas_with_a_leading_minus_needs_the_equals_form(command, capsys):
    # argparse reads a separate "-7,1/2,1" as an option, so the help and the
    # README document --alphas=-7,1/2,1
    assert main([command, "--r", "3", "--alphas=-7,1/2,1", "--q", "7"]) == 0
    assert capsys.readouterr().err == ""


def test_zeta_prints_the_toral_sum_it_checked(capsys, monkeypatch):
    # with the symmetric-square side broken, the toral sum is still printed
    monkeypatch.setattr(
        symsq, "sym_square_series", lambda sat, degree: (1,) + (0,) * degree
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
    assert {p: checks.least_nonresidue(p) for p in want} == want


def test_filtered_case_draws_what_the_full_run_draws(monkeypatch, capsys):
    # each case has its own generator, so a row rerun alone reproduces it
    calls = []
    real = local_arith.hilbert

    def recording(a, b, place):
        calls.append((a, b, place))
        return real(a, b, place)

    monkeypatch.setattr(local_arith, "hilbert", recording)
    assert main(["suite", "symbols", "--seed", "3"]) == 0
    full = list(calls)
    calls.clear()
    assert main(["suite", "symbols", "--seed", "3", "--suite", "symbols/bilinearity"]) == 0
    capsys.readouterr()
    # bilinearity is the last symbols row: 50 triples, three symbols each
    assert len(calls) == 150
    assert full[-150:] == calls


def test_weilrep_cocycle_row_reports_a_broken_model(monkeypatch, tmp_path, capsys):
    # only a triple that leaves the window is skipped; a model error shows
    real = weil_rep.projective_multiplier
    seen = []

    def broken_once(g, h, model, chi=None):
        seen.append(g)
        if len(seen) == 1:
            raise ModelInconsistencyError("injected")
        return real(g, h, model, chi)

    monkeypatch.setattr(weil_rep, "projective_multiplier", broken_once)
    path = tmp_path / "report.json"
    argv = ["suite", "weilrep", "--suite", "weilrep/2-cocycle", "--json", str(path)]
    assert main(argv) == 1
    capsys.readouterr()
    row = json.loads(path.read_text())["cases"][0]
    assert (row["status"], row["got"]) == ("error", "ModelInconsistencyError: injected")


def test_closed_stdout_exits_cleanly():
    # the reader goes away after the first line; unbuffered, each later
    # suite's report then meets the closed pipe as it prints
    src = Path(metaplectic.__file__).resolve().parent.parent
    proc = subprocess.Popen(
        [sys.executable, "-m", "metaplectic.cli", "suite", "all", "--seed", "5"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src), "PYTHONUNBUFFERED": "1"},
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    assert first == "suite: symbols\n"
    assert "Traceback" not in err
    assert err.splitlines() == [
        "error: stdout was closed before the output was written (BrokenPipeError)"
    ]


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


@pytest.mark.parametrize("name", ["weilrep", "all"])
def test_weilrep_suite_refuses_a_deep_window_before_forming_m(name, capsys):
    # 3^200000000 has about 95 million digits: forming it would take minutes
    started = time.perf_counter()
    assert main(["suite", name, "--N", "100000000"]) == 2
    assert time.perf_counter() - started < 1
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and len(lines[0]) <= 200
    assert "M = 3^200000000 carrier points" in lines[0] and "cap of 2500" in lines[0]


@pytest.mark.parametrize(
    "p, big_n, message", [("9", "1", "need an odd prime"), ("3", "0", "window depth"),
                          ("1", "100000000", "need an odd prime, got 1")]
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


@pytest.mark.parametrize("s", ["1e400", "-1e400", "-1000"])
def test_euler_past_the_float_range_is_a_domain_error(s, tmp_path, capsys):
    path = _write(tmp_path, "t.json", json.dumps([{"p": 3, "alphas": ["1/2", 2]}]))
    assert main(["euler", "--table", path, f"--s={s}"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert len(err.splitlines()) == 1 and "past the float range" in err


# each option that takes a rational, with a value that starts with a minus sign
EQUALS_FORM = [
    ["hilbert", "-a=-1/2", "-b", "3", "--place", "3"],
    ["hilbert", "-a", "3", "-b=-2/5", "--place", "3"],
    ["weil-mu", "-a=-2/3", "--place", "5"],
    ["weil-gamma", "--place", "3", "--scale=-1/3"],
    ["weil-mu", "-a", "2", "--place", "5", "--scale=-1/3"],
    ["lfactor", "--r", "2", "--alphas=-7,1/2", "--chi=-1/2", "--q", "7"],
    ["zeta", "--r", "2", "--alphas", "1,1", "--chi=-1/2", "--q", "7", "--deg", "4"],
]


@pytest.mark.parametrize("argv", EQUALS_FORM, ids=[" ".join(a) for a in EQUALS_FORM])
def test_a_negative_rational_takes_the_equals_form(argv):
    assert main(argv) == 0


def test_every_rational_option_names_the_equals_form():
    commands = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    options = {"hilbert": ("-a", "-b"), "weil-gamma": ("--scale",), "weil-mu": ("-a", "--scale"),
               "lfactor": ("--alphas", "--chi"), "zeta": ("--alphas", "--chi"), "euler": ("--s",)}
    for command, flags in options.items():
        helps = {flag: a.help for a in commands[command]._actions for flag in a.option_strings}
        for flag in flags:
            assert "needs the = form, as in -a=-1/2" in helps[flag], (command, flag)


# pinned behaviour and the fixes past the old oracle cap --------------------------


GOLDEN_SUITE_ALL = Path(__file__).parent / "golden" / "suite_all_seed0.json"


def test_suite_all_matches_golden_report(tmp_path, capsys):
    # "same behaviour" means this report, byte for byte
    out = tmp_path / "all.json"
    assert main(["suite", "all", "--seed", "0", "--json", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == GOLDEN_SUITE_ALL.read_bytes()


@pytest.mark.parametrize("prefix", ["cocycles/normalization", "weil", "sym"])
def test_filtered_suite_all_is_the_golden_report_filtered(prefix, tmp_path, capsys):
    # only the suites the prefix can match are built; the others print an
    # empty report, as when every row was built and filtered out
    out = tmp_path / "all.json"
    assert main(["suite", "all", "--seed", "0", "--suite", prefix, "--json", str(out)]) == 0
    stdout = capsys.readouterr().out
    cases = [row for row in json.loads(GOLDEN_SUITE_ALL.read_text())["cases"]
             if row["id"].startswith(prefix)]
    report = json.loads(out.read_text())
    assert cases and report["cases"] == cases
    assert report["summary"]["pass"] == report["summary"]["total"] == len(cases)
    for name in ("symbols", "cocycles", "weil", "weilrep", "symsq"):
        if not any(row["id"].startswith(name + "/") for row in cases):
            assert f"suite: {name}\n  0 passed, 0 failed, 0 errors of 0\n" in stdout


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


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_suite_all_report_does_not_depend_on_the_hash_seed(hash_seed, tmp_path):
    # value types hash by their fields; no output may follow set or dict order
    src = Path(metaplectic.__file__).resolve().parent.parent
    out = tmp_path / "all.json"
    proc = subprocess.run(
        [sys.executable, "-m", "metaplectic.cli", "suite", "all", "--seed", "0", "--json", str(out)],
        capture_output=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": hash_seed},
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == GOLDEN_SUITE_ALL.read_bytes()


# exact values past the interpreter's int/str digit limit --------------------------

BIG = "123456789012345678901"


def test_render_names_the_digit_count_past_the_limit():
    assert render(Fraction(10**4299, 7)) == str(10**4299) + "/7"
    with pytest.raises(UnsupportedDomainError, match="has 4301 decimal digits"):
        render(Fraction(7, 10**4300))
    with pytest.raises(UnsupportedDomainError, match="has 4301 decimal digits"):
        render([1, -(10**4301 - 1)])


def test_lfactor_past_the_digit_limit_exits_two(capsys):
    argv = ["lfactor", "--r", "12", "--alphas", ",".join([BIG] * 12), "--q", "7"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith("error: an exact result has ") and "decimal digits" in err


def test_ingest_past_the_digit_limit_exits_two(tmp_path, capsys):
    # the product of two 4000-digit Satake values is past the limit on output
    table = tmp_path / "big.json"
    table.write_text(json.dumps([{"p": 7, "alphas": ["9" * 4000, "9" * 4000]}]))
    out = tmp_path / "out.json"
    assert main(["ingest", str(table), "--json", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and not out.exists()
    assert err.startswith("error: an exact result has 8000 decimal digits")
    # a JSON integer past the limit is refused on input
    table.write_text('[{"p": 7, "alphas": [' + "9" * 4400 + "]}]")
    assert main(["ingest", str(table)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "4400 digits" in err


def test_library_message_with_a_huge_value_exits_two(capsys):
    # the block's det has 8000 digits; its error message shows a placeholder
    nines = "9" * 4000
    argv = ["cocycle", f"sl2({nines},1,1,{nines})", "sl2(1,0,0,1)", "--place", "3"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err == "error: unimodular block must have det 1, got <a number with 8000 digits>\n"


HUGE = 10**5000


@pytest.mark.parametrize(
    "build",
    [
        lambda: symsq.Partition((1, HUGE)),
        lambda: symsq.Partition((HUGE,)).padded(0),
        lambda: weil_rep.word_action(weil_rep.build_model(3, 1), [("zz", HUGE)]),
    ],
    ids=["partition-order", "partition-padded", "unknown-letter"],
)
def test_library_messages_show_a_huge_part(build):
    # str() of a tuple holding a 5001-digit int raises ValueError
    with pytest.raises(DomainError, match="<a number with 5001 digits>"):
        build()


def test_partition_repr_shows_a_huge_part():
    assert repr(symsq.Partition((HUGE, 1))) == "Partition(<a number with 5001 digits>, 1)"
    assert repr(symsq.Partition((3,))) == "Partition(3,)"


# boundary fuzz ---------------------------------------------------------------------
#
# Seeded argvs at the edges of every compute command, `ingest`, `euler` and
# `suite symbols --json`, run in this process. Each must exit 0, 1 or 2, exit 1
# only with a verdict line, exit 2 with a line on stderr, and never show a
# traceback.

# each field draws from (inputs in the documented domain, edge inputs)
FUZZ_RATIONALS = (["1", "-1", "2", "3", "1/2", "-3/4", "0.5", "49/9", "-7", "100000000003",
                   "100000000000000000039"], ["0", "inf", "x", "1/0", ""])
FUZZ_PLACES = (["inf", "2", "3", "7", "23", "100000000003", "100000000000000000039"],
               ["4", "1", "0", "-3", "x", "9" * 30])
FUZZ_ELEMENTS = (["torus(2,3)", "torus(3,5)", "torus(1/2,-7)", "central(2,3)", "sl2(1,1,0,1)",
                  "sl2(0,1,-1,0)", "gl2(2,0,0,2)", "blocks[sl2(0,1,-1,0),torus(2,3)]",
                  "blocks[sl2(1,2,0,1),torus(3,5)]"],
                 ["torus(0,1)", "sl2(2,0,0,1)", "gl2(0,0,0,0)", "sl2(", "x"])
FUZZ_TABLES = {
    "ok": json.dumps([{"p": 2, "alphas": ["1/2", 3], "chi": 1}, {"p": 5, "alphas": [1, 1]}]),
    "ramified": json.dumps([{"p": 3, "alphas": ["3/2", "2/3"], "chi": "ramified"}]),
    "big": json.dumps([{"p": 7, "alphas": ["100000000000000000039", "-1"]}]),
    "broken": "[{",
    "object": "{}",
    "not-prime": '[{"p": 4, "alphas": ["1"]}]',
    "zero-alpha": '[{"p": 3, "alphas": ["1", "0"]}]',
    "duplicate": '[{"p": 3, "alphas": ["1"]}, {"p": 3, "alphas": ["2"]}]',
    "boolean": '[{"p": 3, "alphas": [true]}]',
    "past-the-limit": '[{"p": 7, "alphas": [' + "9" * 4400 + "]}]",
}


def _fuzz_argvs(rng, tables, out):
    def pick(pools):
        good, edge = pools
        return rng.choice(edge if rng.random() < 0.15 else good)

    def symsq_args():
        r = pick((["2", "3", "4"], ["-1", "0", "1", "x"]))
        count = int(r) if r.isdigit() and rng.random() < 0.85 else rng.randint(1, 4)
        return ["--r", r, "--alphas", ",".join(pick(FUZZ_RATIONALS) for _ in range(count)),
                "--chi", pick((["1", "-1", "1/2", "ramified"], ["0", "x"])),
                "--q", pick((["2", "7", "9"], ["-1", "0", "1", "x"]))]

    makers = [
        lambda: ["hilbert", "-a", pick(FUZZ_RATIONALS), "-b", pick(FUZZ_RATIONALS),
                 "--place", pick(FUZZ_PLACES)],
        lambda: ["weil-gamma", "--place", pick(FUZZ_PLACES), "--scale", pick(FUZZ_RATIONALS)],
        lambda: ["weil-mu", "-a", pick(FUZZ_RATIONALS), "--place", pick(FUZZ_PLACES),
                 "--scale", pick(FUZZ_RATIONALS)],
        lambda: ["cocycle", pick(FUZZ_ELEMENTS), pick(FUZZ_ELEMENTS), "--place", pick(FUZZ_PLACES)],
        lambda: ["lfactor", *symsq_args()],
        lambda: ["zeta", *symsq_args(), "--deg", pick((["0", "1", "5", "20"], ["-1", "x"]))],
        lambda: ["poles", "--r", pick((["1", "2", "5"], ["-1", "0", "x"])),
                 "--trivial", pick((["true", "false"], ["maybe"]))],
        lambda: ["ingest", pick((tables[:3], tables[3:]))] + (["--json", out] if rng.random() < 0.3 else []),
        lambda: ["euler", "--table", pick((tables[:3], tables[3:])),
                 "--s", pick((["2", "3", "7/2"], ["1/2", "0", "-1", "x", "inf"]))],
    ]
    argvs = [rng.choice(makers)() for _ in range(196)]
    argvs += [["suite", "symbols", "--json", out, "--seed", str(seed)] for seed in (0, 1, 2, -5)]
    return argvs


def _has_verdict(stdout):
    for line in stdout.splitlines():
        if line.startswith("identity to X^") and line.endswith(": false"):
            return True
        counts = line.split()
        if line.startswith("  ") and counts[1:2] == ["passed,"] and (counts[2], counts[4]) != ("0", "0"):
            return True
    return False


def test_boundary_argvs_exit_cleanly(tmp_path, capsys):
    tables = [_write(tmp_path, f"{name}.json", payload) for name, payload in FUZZ_TABLES.items()]
    tables.append(str(tmp_path / "missing.json"))
    codes = []
    for argv in _fuzz_argvs(random.Random(0), tables, str(tmp_path / "out.json")):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - any escape is the failure under test
            pytest.fail(f"{argv}: {exc!r}")
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        assert code != 1 or _has_verdict(out), argv
        assert code != 2 or err.strip(), argv
        codes.append(code)
    # the draw reaches both answers and refusals
    assert codes.count(0) > 20 and codes.count(2) > 20


# the README's CLI examples ------------------------------------------------------


README = Path(__file__).parent.parent / "README.md"


def _readme_cli_lines():
    text = README.read_text().split("\n## CLI\n", 1)[1]
    block = text.split("```\n", 2)[1]
    return [line for line in block.splitlines() if line.startswith("metaplectic ")]


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "table.json").write_text(json.dumps([{"p": p, "alphas": [1]} for p in (2, 3, 5, 7)]))
    lines = _readme_cli_lines()
    assert any("central(" in line for line in lines)
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        assert main(argv) == 0, line
        assert capsys.readouterr().err == "", line
