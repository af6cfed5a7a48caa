"""Command-line entry point.

Three kinds of work: `suite` runs a module's invariant checks and emits a
deterministic report (JSON on request, human table always), the compute
subcommands evaluate one quantity and print it exactly, and `ingest` loads
and validates a Satake table from JSON.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage or data errors,
or a reader that closed stdout before the output was written (one line on
stderr names BrokenPipeError). Reports are byte-identical across runs:
sampling is seeded (default 0) and per-case timings stay null unless
--timings is passed. The suites' checks live in `checks`.
"""

import argparse
import os
import sys
import time
from fractions import Fraction

# Library code is imported inside the function that runs it, so a one-shot
# process loads (and, without a bytecode cache, compiles) only what its
# command needs. Every command parses a place or a prime.
from .errors import (
    DataError,
    DomainError,
    ModelInconsistencyError,
    OracleConsistencyError,
    UnsupportedDomainError,
    digits_past_limit,
)
from .local_arith import Place, is_prime

_CAUGHT = (DomainError, OracleConsistencyError, ModelInconsistencyError, DataError)


# rendering ------------------------------------------------------------------


def render(x) -> str:
    """Exact textual form: rationals as fractions, signs as +-1, eighth
    roots by name, floats/complex rounded for display only. Every exact
    result written to stdout or a JSON report is rendered here."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, Fraction)):
        digits = digits_past_limit(x)
        if digits:
            raise UnsupportedDomainError(
                f"an exact result has {digits} decimal digits, past the interpreter's"
                f" limit of {sys.get_int_max_str_digits()} for printing an integer"
            )
        return str(x)
    if isinstance(x, float):
        return f"{x:.9g}"
    if isinstance(x, complex):
        if abs(x.imag) < 1e-12:
            return f"{x.real:.9g}"
        return f"{x.real:.9g} + {x.imag:.9g}i"
    if isinstance(x, (list, tuple)):
        return "[" + ", ".join(render(v) for v in x) + "]"
    if isinstance(x, (set, frozenset)):
        return "{" + ", ".join(sorted(render(v) for v in x)) + "}"
    return str(x)


def render_poly(coeffs) -> str:
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        if k == 0:
            terms.append(render(c))
        else:
            mag = "" if abs(c) == 1 else f"{render(abs(c))}*"
            var = "X" if k == 1 else f"X^{k}"
            terms.append(("- " if c < 0 else "+ ") + mag + var)
    if not terms:
        return "0"
    head = terms[0]
    if head.startswith("+ "):
        head = head[2:]
    elif head.startswith("- "):
        head = "-" + head[2:]
    return " ".join([head] + terms[1:])


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise DataError(f"not a rational: {text!r} ({exc})") from exc


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {value}")
    return value


def parse_place(text: str) -> Place:
    if text.strip() in ("inf", "real", "oo"):
        return Place.real()
    try:
        p = int(text)
    except ValueError as exc:
        raise DataError(f"place must be 'inf' or a prime, got {text!r}") from exc
    if not is_prime(p):
        raise DataError(f"place must be 'inf' or a prime, got {p}")
    return Place.finite(p)


def parse_rational_list(text: str):
    return [parse_rational(tok) for tok in text.split(",") if tok.strip()]


# element expression grammar ---------------------------------------------------
#
#   torus(2,3,5)       diagonal element
#   central(a,r)       scalar a embedded in GL_r: torus(a,...,a), r entries
#   sl2(a,b,c,d)       a 2x2 block with determinant 1
#   gl2(a,b,c,d)       a 2x2 block (any nonzero determinant)
#   blocks[e1, e2]     block-diagonal combination of the above


def _split_top(text: str, sep: str = ","):
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                raise DataError(f"unbalanced brackets in {text!r}")
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise DataError(f"unbalanced brackets in {text!r}")
    if cur or parts:
        parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


# One argv string is at most 128 KiB on Linux, so torus(...) cannot list more
# entries than this either; a larger central rank would only allocate.
_CENTRAL_RANK_CAP = 1 << 16


def _parse_payload(text: str):
    from .cocycle import StructuredElement, Torus, gl2, sl2

    text = text.strip()
    for head, close in (("torus(", ")"), ("central(", ")"), ("sl2(", ")"), ("gl2(", ")")):
        if text.startswith(head) and text.endswith(close):
            args = _split_top(text[len(head) : -1])
            vals = [parse_rational(a) for a in args]
            if head == "torus(":
                return Torus(tuple(vals))
            if head == "central(":
                if len(vals) != 2 or vals[1].denominator != 1 or vals[1] < 1:
                    raise DataError(f"central(a, r) needs integer rank: {text!r}")
                if vals[1] > _CENTRAL_RANK_CAP:
                    raise DataError(
                        f"central(a, r) needs rank at most {_CENTRAL_RANK_CAP}: {text!r}"
                    )
                return StructuredElement.central(vals[0], int(vals[1])).blocks[0]
            if len(vals) != 4:
                raise DataError(f"{head[:-1]} needs four entries: {text!r}")
            return (sl2 if head == "sl2(" else gl2)(*vals)
    raise DataError(f"cannot parse element payload: {text!r}")


def parse_element(text: str) -> "StructuredElement":
    from .cocycle import StructuredElement

    text = text.strip()
    if text.startswith("blocks[") and text.endswith("]"):
        inner = _split_top(text[len("blocks[") : -1])
        if not inner:
            raise DataError("blocks[...] needs at least one payload")
        return StructuredElement.block_diagonal([_parse_payload(t) for t in inner])
    payload = _parse_payload(text)
    return StructuredElement(blocks=(payload,))


# check report ------------------------------------------------------------------


def _summary(rows):
    counts = {"pass": 0, "fail": 0, "error": 0, "skipped": 0}
    for row in rows:
        counts[row["status"]] += 1
    counts["total"] = len(rows)
    return counts


def run_cases(suite_name, cases, timings=False, case_filter=None):
    """Run (id, inputs, fn) cases; fn() -> (expected, got), pass iff rendered equal."""
    rows = []
    for case_id, inputs, fn in cases:
        if case_filter and not case_id.startswith(case_filter):
            continue
        started = time.perf_counter()
        try:
            expected, got = fn()
            status = "pass" if render(expected) == render(got) else "fail"
        except Exception as exc:  # one broken case must not abort the report
            expected, got = "", f"{type(exc).__name__}: {exc}"
            status = "error"
        elapsed = (time.perf_counter() - started) * 1000.0
        rows.append(
            {
                "id": case_id,
                "inputs": inputs,
                "expected": render(expected),
                "got": render(got),
                "status": status,
                "elapsed": round(elapsed, 3) if timings else None,
            }
        )
    return {"suite": suite_name, "cases": rows, "summary": _summary(rows)}


def print_report(report, stream=None):
    stream = stream if stream is not None else sys.stdout
    print(f"suite: {report['suite']}", file=stream)
    for row in report["cases"]:
        mark = {"pass": "ok", "fail": "FAIL", "error": "ERROR", "skipped": "skip"}[
            row["status"]
        ]
        line = f"  [{mark:5s}] {row['id']}: {row['inputs']}"
        if row["status"] != "pass":
            line += f" | expected {row['expected']!r} got {row['got']!r}"
        if row["elapsed"] is not None:
            line += f" ({row['elapsed']} ms)"
        print(line, file=stream)
    s = report["summary"]
    print(
        f"  {s['pass']} passed, {s['fail']} failed, {s['error']} errors"
        f" of {s['total']}",
        file=stream,
    )


# suites -----------------------------------------------------------------------


def cmd_suite(args) -> int:
    import json

    from .checks import suite_cases

    if args.name == "all":
        names = ["symbols", "cocycles", "weil", "weilrep", "symsq"]
    else:
        names = [args.name]
    # Every suite that --suite can match is built before any runs, so a
    # refused weilrep model stops the run before a report is printed; the
    # others print an empty report. weilrep is built last: it loads numpy, and
    # a module compiled after that (no bytecode cache) raises the process's
    # peak memory by about 2 MB.
    built = {name: [] for name in names}
    for name in sorted(names, key=lambda name: name == "weilrep"):
        head = name + "/"  # every case id of the suite starts with it
        if not args.suite or head.startswith(args.suite) or args.suite.startswith(head):
            built[name] = suite_cases(name, args.seed, args.p, args.N)
    rows = []
    code = 0
    for name in names:
        report = run_cases(name, built[name], timings=args.timings, case_filter=args.suite)
        print_report(report)
        rows.extend(report["cases"])
        if report["summary"]["fail"] + report["summary"]["error"]:
            code = 1
    combined = {"suite": args.name, "cases": rows, "summary": _summary(rows)}
    if args.json:
        payload = json.dumps(combined, indent=2, sort_keys=True) + "\n"
        with open(args.json, "w") as fh:
            fh.write(payload)
    return code


# compute subcommands -------------------------------------------------------------


def cmd_hilbert(args) -> int:
    from .local_arith import hilbert

    place = parse_place(args.place)
    print(render(hilbert(parse_rational(args.a), parse_rational(args.b), place)))
    return 0


def cmd_cocycle(args) -> int:
    from .cocycle import sigma_eval

    place = parse_place(args.place)
    g = parse_element(args.g)
    h = parse_element(args.h)
    print(render(sigma_eval(g, h, place)))
    return 0


def cmd_weil_gamma(args) -> int:
    from .weil_index import AdditiveCharacter, gamma

    place = parse_place(args.place)
    psi = AdditiveCharacter(place, parse_rational(args.scale))
    print(render(gamma(psi)))
    return 0


def cmd_weil_mu(args) -> int:
    from .weil_index import AdditiveCharacter, mu

    place = parse_place(args.place)
    psi = AdditiveCharacter(place, parse_rational(args.scale))
    print(render(mu(parse_rational(args.a), psi)))
    return 0


def _sat_from_args(args) -> "SatakeData":
    from .symsq import RAMIFIED, SatakeData

    alphas = parse_rational_list(args.alphas)
    chi = RAMIFIED if args.chi.strip() == "ramified" else parse_rational(args.chi)
    return SatakeData(args.r, alphas, args.q, chi_val=chi)


def cmd_lfactor(args) -> int:
    from .symsq import local_factors

    sat = _sat_from_args(args)
    f = local_factors(sat)
    # every line is rendered before any is printed: a refused value prints nothing
    print(f"sym: {render_poly(f.sym.coeffs)}\n"
          f"ext: {render_poly(f.ext.coeffs)}\n"
          f"rs:  {render_poly(f.rs.coeffs)}\n"
          f"sym coefficients: {render(list(f.sym.coeffs))}")
    return 0


def cmd_zeta(args) -> int:
    from .symsq import sym_square_series, toral_series

    sat = _sat_from_args(args)
    series = toral_series(sat, args.deg)
    ok = series == sym_square_series(sat, args.deg)
    print(f"toral series coefficients: {render(list(series))}")
    print(f"identity to X^{args.deg}: {render(ok)}")
    return 0 if ok else 1


def cmd_euler(args) -> int:
    from .symsq import euler_product

    table = ingest_satake(args.table)
    val = euler_product([sat for _, sat in table], parse_rational(args.s))
    print(render(val))
    return 0


def cmd_poles(args) -> int:
    from .symsq import pole_report

    trivial = {"true": True, "false": False}[args.trivial]
    rep = pole_report(args.r, trivial)
    if not rep.normalizer_poles:
        print("normalizer poles: none")
        print("l-function poles: none")
        return 0
    print(f"normalizer poles: {render(set(rep.normalizer_poles))}")
    print(f"l-function poles: {render(set(rep.l_function_poles))}")
    print("map: s -> 2s - 1/2")
    return 0


# Satake ingestion ------------------------------------------------------------------


def _entry_rational(raw, where: str) -> Fraction:
    if isinstance(raw, bool):
        raise DataError(f"{where}: expected a number or string, got a boolean")
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, float):
        return Fraction(str(raw))
    if isinstance(raw, str):
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise DataError(f"{where}: not a rational: {raw!r}") from exc
    raise DataError(f"{where}: expected a number or string, got {type(raw).__name__}")


def ingest_satake(path: str):
    """Load a JSON array of {p, alphas, chi} rows into (p, SatakeData) pairs.

    alphas entries and chi may be JSON numbers or exact strings like "3/2";
    chi may also be "ramified". Primes must be distinct. Errors carry the
    entry index and field name.
    """
    import json

    from .symsq import RAMIFIED, SatakeData

    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # a JSON integer past the int/str digit limit
        raise DataError(f"{path}: {exc}") from exc
    if not isinstance(data, list):
        raise DataError(f"{path}: top level must be a JSON array of entries")
    out = []
    seen = set()
    for idx, entry in enumerate(data):
        where = f"{path}: entry {idx}"
        if not isinstance(entry, dict):
            raise DataError(f"{where}: expected an object")
        for field in ("p", "alphas"):
            if field not in entry:
                raise DataError(f"{where}: missing field {field!r}")
        p = entry["p"]
        if not isinstance(p, int) or isinstance(p, bool) or not is_prime(p):
            raise DataError(f"{where}, field 'p': need a prime, got {p!r}")
        if p in seen:
            raise DataError(f"{where}, field 'p': duplicate prime {p}")
        seen.add(p)
        raw_alphas = entry["alphas"]
        if not isinstance(raw_alphas, list) or not raw_alphas:
            raise DataError(f"{where}, field 'alphas': need a nonempty array")
        alphas = []
        for k, raw in enumerate(raw_alphas):
            val = _entry_rational(raw, f"{where}, field 'alphas[{k}]'")
            if val == 0:
                raise DataError(f"{where}, field 'alphas[{k}]': zero alpha")
            alphas.append(val)
        raw_chi = entry.get("chi", 1)
        if isinstance(raw_chi, str) and raw_chi.strip() == "ramified":
            chi = RAMIFIED
        else:
            chi = _entry_rational(raw_chi, f"{where}, field 'chi'")
            if chi == 0:
                raise DataError(f"{where}, field 'chi': zero character value")
        try:
            sat = SatakeData(len(alphas), alphas, p, chi_val=chi)
        except DomainError as exc:
            raise DataError(f"{where}: {exc}") from exc
        out.append((p, sat))
    return out


def cmd_ingest(args) -> int:
    import json

    from .symsq import RAMIFIED

    table = ingest_satake(args.path)
    rows, lines = [], []
    for p, sat in table:
        chi = "ramified" if sat.chi_val == RAMIFIED else render(sat.chi_val)
        row = {
            "p": p,
            "r": sat.r,
            "alphas": [render(a) for a in sat.alphas],
            "chi": chi,
            "omega": render(sat.omega_val),
        }
        rows.append(row)
        lines.append(
            f"p={p} r={sat.r} alphas=[{', '.join(row['alphas'])}]"
            f" chi={chi} omega={row['omega']}"
        )
    lines.append(f"{len(table)} entries ok")
    print("\n".join(lines))
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(json.dumps(rows, indent=2, sort_keys=True) + "\n")
    return 0


# argument plumbing ------------------------------------------------------------------

# every option that takes a rational or a list of them
_RATIONAL_HELP = (
    "; a value that starts with a minus sign needs the = form, as in -a=-1/2 or"
    " --alphas=-7,1/2,1, since argparse reads -1/2 or -7,... as an option")
_ALPHAS_HELP = "comma-separated rationals" + _RATIONAL_HELP
_CHI_HELP = "a rational or ramified, default 1" + _RATIONAL_HELP


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="metaplectic",
        description="Local metaplectic toolkit: verification suites and exact computations.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("suite", help="run a verification suite")
    ps.add_argument("name", choices=["symbols", "cocycles", "weil", "weilrep", "symsq", "all"])
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--json", metavar="PATH", help="write the JSON report here")
    ps.add_argument("--timings", action="store_true", help="fill per-case elapsed times")
    ps.add_argument("--suite", metavar="PREFIX", help="only run cases whose id starts here")
    ps.add_argument("--p", type=int, default=3, help="residue characteristic for weilrep")
    ps.add_argument("--N", type=int, default=1, help="lattice depth for weilrep")
    ps.set_defaults(fn=cmd_suite)

    ph = sub.add_parser("hilbert", help="one Hilbert symbol")
    ph.add_argument("-a", required=True, help="a rational" + _RATIONAL_HELP)
    ph.add_argument("-b", required=True, help="a rational" + _RATIONAL_HELP)
    ph.add_argument("--place", required=True, help="inf or a prime")
    ph.set_defaults(fn=cmd_hilbert)

    pc = sub.add_parser(
        "cocycle",
        help="cover cocycle of two structured elements, Kubota's GL2 formula on 2x2 slots",
    )
    pc.add_argument("g", help="torus(...), central(a,r), sl2(a,b,c,d), gl2(...), blocks[...]")
    pc.add_argument("h")
    pc.add_argument("--place", required=True)
    pc.set_defaults(fn=cmd_cocycle)

    pg = sub.add_parser("weil-gamma", help="Weil index of a quadratic character")
    pg.add_argument("--place", required=True)
    pg.add_argument("--scale", default="1", help="a rational, default 1" + _RATIONAL_HELP)
    pg.set_defaults(fn=cmd_weil_gamma)

    pm = sub.add_parser("weil-mu", help="normalized Weil index ratio")
    pm.add_argument("-a", required=True, help="a rational" + _RATIONAL_HELP)
    pm.add_argument("--place", required=True)
    pm.add_argument("--scale", default="1", help="a rational, default 1" + _RATIONAL_HELP)
    pm.set_defaults(fn=cmd_weil_mu)

    pz = sub.add_parser("zeta", help="unramified toral zeta series and identity check")
    pz.add_argument("--r", type=int, required=True)
    pz.add_argument("--alphas", required=True, help=_ALPHAS_HELP)
    pz.add_argument("--chi", default="1", help=_CHI_HELP)
    pz.add_argument("--q", type=int, required=True)
    pz.add_argument("--deg", type=_nonnegative_int, default=10, help=(
        "truncation degree, default 10; the cost grows faster than the degree:"
        " at r = 3, deg 200 takes about 1.6 s, or 12.9 s with 21-digit Satake values"))
    pz.set_defaults(fn=cmd_zeta)

    pl = sub.add_parser("lfactor", help="local factors: symmetric, exterior, product")
    pl.add_argument("--r", type=int, required=True)
    pl.add_argument("--alphas", required=True, help=_ALPHAS_HELP)
    pl.add_argument("--chi", default="1", help=_CHI_HELP)
    pl.add_argument("--q", type=int, required=True)
    pl.set_defaults(fn=cmd_lfactor)

    pe = sub.add_parser("euler", help="partial Euler product from a Satake table")
    pe.add_argument("--table", required=True, help="JSON table path")
    pe.add_argument("--s", required=True, help="a rational" + _RATIONAL_HELP)
    pe.set_defaults(fn=cmd_euler)

    pp = sub.add_parser("poles", help="normalizer and L-function pole bookkeeping")
    pp.add_argument("--r", type=int, required=True)
    pp.add_argument("--trivial", choices=["true", "false"], required=True)
    pp.set_defaults(fn=cmd_poles)

    pi = sub.add_parser("ingest", help="validate a Satake table")
    pi.add_argument("path")
    pi.add_argument("--json", metavar="PATH", help="write the normalized table here")
    pi.set_defaults(fn=cmd_ingest)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed reader shows up here, not at interpreter exit
        return code
    except _CAUGHT as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; let that write go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the output was written (BrokenPipeError)",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
