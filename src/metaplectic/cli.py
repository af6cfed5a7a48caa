"""Command-line entry point.

Three kinds of work: `suite` runs a module's invariant checks and emits a
deterministic report (JSON on request, human table always), the compute
subcommands evaluate one quantity and print it exactly, and `ingest` loads
and validates a Satake table from JSON.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage or data errors.
Reports are byte-identical across runs: sampling is seeded (default 0) and
per-case timings stay null unless --timings is passed.
"""

import argparse
import sys
import time
from fractions import Fraction

# Library code is imported inside the function that runs it, so a one-shot
# process loads (and, without a bytecode cache, compiles) only what its
# command needs. Every command parses a place or a prime.
from .errors import (
    ConvergenceDomainError,
    DataError,
    DomainError,
    ModelInconsistencyError,
    OracleConsistencyError,
    PreconditionError,
    UnsupportedDomainError,
)
from .local_arith import Place, is_prime

_CAUGHT = (
    DomainError,
    UnsupportedDomainError,
    PreconditionError,
    OracleConsistencyError,
    ModelInconsistencyError,
    ConvergenceDomainError,
    DataError,
)


# rendering ------------------------------------------------------------------


def render(x) -> str:
    """Exact textual form: rationals as fractions, signs as +-1, eighth
    roots by name, floats/complex rounded for display only."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, Fraction)):
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
#   central(a,r)       scalar a embedded in GL_r
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


def _parse_payload(text: str):
    from .cocycle import Scalar, Torus, gl2, sl2

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
                return Scalar(vals[0], int(vals[1]))
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


class Case:
    __slots__ = ("id", "inputs", "fn")

    def __init__(self, case_id, inputs, fn):
        self.id = case_id
        self.inputs = inputs
        self.fn = fn  # () -> (expected, got); pass iff rendered equal


def run_cases(suite_name, cases, timings=False, case_filter=None):
    rows = []
    counts = {"pass": 0, "fail": 0, "error": 0, "skipped": 0}
    for case in cases:
        if case_filter and not case.id.startswith(case_filter):
            continue
        started = time.perf_counter()
        try:
            expected, got = case.fn()
            status = "pass" if render(expected) == render(got) else "fail"
        except Exception as exc:  # one broken case must not abort the report
            expected, got = "", f"{type(exc).__name__}: {exc}"
            status = "error"
        elapsed = (time.perf_counter() - started) * 1000.0
        counts[status] += 1
        rows.append(
            {
                "id": case.id,
                "inputs": case.inputs,
                "expected": render(expected),
                "got": render(got),
                "status": status,
                "elapsed": round(elapsed, 3) if timings else None,
            }
        )
    counts["total"] = len(rows)
    return {"suite": suite_name, "cases": rows, "summary": counts}


def report_exit_code(report) -> int:
    bad = report["summary"]["fail"] + report["summary"]["error"]
    return 1 if bad else 0


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

_SYMBOL_GRID = (1, -1, 2, -2, 3, -3, 5, -5, 6, -6, 10, -10)


def _suite_symbols(rng):
    from .local_arith import hilbert, reciprocity_product, solvability_oracle

    cases = []

    def reciprocity():
        bad = 0
        for _ in range(200):
            a = Fraction(rng.randint(1, 60), rng.randint(1, 60)) * rng.choice((1, -1))
            b = Fraction(rng.randint(1, 60), rng.randint(1, 60)) * rng.choice((1, -1))
            if reciprocity_product(a, b) != 1:
                bad += 1
        return 0, bad

    cases.append(Case("symbols/reciprocity", "200 seeded pairs", reciprocity))

    for place in [Place.finite(2), Place.finite(3), Place.finite(5), Place.finite(7), Place.real()]:

        def agreement(place=place):
            bad = 0
            for a in _SYMBOL_GRID:
                for b in _SYMBOL_GRID:
                    if hilbert(a, b, place) != solvability_oracle(a, b, place):
                        bad += 1
            return 0, bad

        cases.append(
            Case(f"symbols/oracle@{place}", "144 pairs vs solvability", agreement)
        )

    def bilinear():
        place = Place.finite(3)
        bad = 0
        for _ in range(50):
            a, b, c = (Fraction(rng.randint(1, 30)) for _ in range(3))
            if hilbert(a * b, c, place) != hilbert(a, c, place) * hilbert(b, c, place):
                bad += 1
        return 0, bad

    cases.append(Case("symbols/bilinearity@3", "50 triples", bilinear))
    return cases


def _suite_cocycles(rng):
    from .cocycle import (
        StructuredElement,
        Torus,
        block_lemmas_check,
        cocycle_identity_check,
        global_sigma_product,
        sigma_eval,
        sigma_torus_even_reduced,
        sl2,
    )
    from .local_arith import hilbert

    cases = []
    torus = StructuredElement.torus
    p3, p5 = Place.finite(3), Place.finite(5)

    def normalization():
        e = StructuredElement.identity(3)
        return 1, sigma_eval(e, e, p3)

    cases.append(Case("cocycles/normalization", "identity pair, r=3", normalization))

    def torus_triples():
        entries = [Fraction(1), Fraction(2), Fraction(3)]
        toruses = [torus(a, b) for a in entries for b in entries]
        bad = 0
        for g in toruses:
            for h in toruses:
                for k in toruses:
                    if not cocycle_identity_check(g, h, k, p3):
                        bad += 1
        return 0, bad

    cases.append(Case("cocycles/torus-2-cocycle", "729 exhaustive triples @3", torus_triples))

    def reduced():
        reps = [Fraction(1), Fraction(2), Fraction(5), Fraction(10)]
        bad = 0
        for _ in range(30):
            def te():
                pairs = []
                for _ in range(2):
                    c = rng.choice(reps)
                    s = Fraction(rng.randint(1, 9))
                    pairs.extend([c * s * s, c])
                return torus(*pairs)

            t, h = te(), te()
            if sigma_torus_even_reduced(t, h, p5) != sigma_eval(t, h, p5):
                bad += 1
        return 0, bad

    cases.append(Case("cocycles/reduced-torus@5", "30 even-subtorus pairs", reduced))

    def center():
        bad = 0
        for r in (2, 3, 4):
            for a in (2, 3, 5):
                for b in (2, 3, 5):
                    za = StructuredElement.central(a, r)
                    zb = StructuredElement.central(b, r)
                    expect = hilbert(a, b, p3) ** (r * (r - 1) // 2)
                    if sigma_eval(za, zb, p3) != expect:
                        bad += 1
        return 0, bad

    cases.append(Case("cocycles/center-exponent", "r in {2,3,4}, 9 scalar pairs", center))

    def unipotent():
        u = StructuredElement.unipotent_upper([[1, 2, 3], [0, 1, 5], [0, 0, 1]])
        v = StructuredElement.unipotent_upper([[1, 0, 7], [0, 1, 1], [0, 0, 1]])
        return 1, sigma_eval(u, v, p5)

    cases.append(Case("cocycles/unipotent-trivial", "two upper unipotents @5", unipotent))

    def global_product():
        bad = 0
        for _ in range(25):
            g = torus(Fraction(rng.randint(1, 20)), Fraction(rng.randint(1, 20)))
            h = torus(Fraction(rng.randint(1, 20)), Fraction(rng.randint(1, 20)))
            if global_sigma_product(g, h) != 1:
                bad += 1
        return 0, bad

    cases.append(Case("cocycles/global-product", "25 torus pairs, all places", global_product))

    def blocks():
        bad = 0
        pairs = [
            (Torus((Fraction(4), Fraction(1))), Torus((Fraction(9), Fraction(1)))),
            (sl2(0, 1, -1, 0), sl2(1, 2, 0, 1)),
            (sl2(2, 0, 0, Fraction(1, 2)), Torus((Fraction(9), Fraction(4)))),
        ]
        for g, h in pairs:
            if block_lemmas_check(0, 1, g, h, p3) is not True:
                bad += 1
        return 0, bad

    cases.append(Case("cocycles/block-lemmas", "square-det blocks @3", blocks))
    return cases


def _suite_weil(rng):
    from .local_arith import hilbert, square_class_rep
    from .weil_index import AdditiveCharacter, EighthRoot, gamma, mu

    cases = []
    places = [Place.finite(p) for p in (3, 5, 7, 11, 13)] + [Place.real()]

    for place in places:

        def mu_mult(place=place):
            psi = AdditiveCharacter(place)
            if place.is_real:
                reps = [Fraction(1), Fraction(-1)]
            else:
                reps = [
                    square_class_rep(x, place)
                    for x in (1, 2, 3, place.p, 2 * place.p, 3 * place.p)
                ]
                reps = sorted(set(reps))
            bad = 0
            for a in reps:
                for b in reps:
                    lhs = mu(a * b, psi)
                    rhs = mu(a, psi) * mu(b, psi) * hilbert(a, b, place)
                    if lhs != rhs:
                        bad += 1
            return 0, bad

        cases.append(
            Case(f"weil/mu-multiplicativity@{place}", "square-class rep pairs", mu_mult)
        )

        def inversion(place=place):
            psi = AdditiveCharacter(place)
            return EighthRoot(0), mu(-1, psi) * gamma(psi) * gamma(psi)

        cases.append(Case(f"weil/mu(-1)gamma^2@{place}", "closed identity", inversion))

    def class_invariance():
        bad = 0
        for p in (3, 5, 7):
            place = Place.finite(p)
            for a in (2, 3, p):
                for c in (2, 3, 5):
                    g1 = gamma(AdditiveCharacter(place, a))
                    g2 = gamma(AdditiveCharacter(place, a * c * c))
                    if g1 != g2:
                        bad += 1
        return 0, bad

    cases.append(Case("weil/gamma-square-class", "scales a vs a*c^2", class_invariance))
    return cases


def _least_nonresidue(p: int) -> int:
    from .local_arith import legendre

    return next(n for n in range(2, p) if legendre(n, p) == -1)


def _suite_weilrep(rng, p=3, big_n=1):
    from .cocycle import UnramifiedCharacter, sl2
    from .local_arith import hilbert
    from .weil_index import mu
    from .weil_rep import (
        _DENSE_SIZE_CAP,
        build_model,
        identity_blocks,
        parity_invariance_check,
        projective_multiplier,
        tensor_whittaker_check,
        twist_intertwiner_check,
        whittaker_functional_exists,
        word_action,
    )

    # Each multiplier check streams O(M^2) work, so past the dense cap the
    # suite would run for minutes; an invalid p or N keeps build_model's error.
    if big_n >= 1 and p ** (2 * big_n) > _DENSE_SIZE_CAP:
        raise UnsupportedDomainError(
            f"suite weilrep at p={p}, N={big_n} has M = {p ** (2 * big_n)} carrier"
            f" points, above the cap of {_DENSE_SIZE_CAP}"
        )
    cases = []
    model = build_model(p, big_n)
    nonres = _least_nonresidue(p)
    chi = UnramifiedCharacter(Place.finite(p), at_uniformizer=Fraction(1))

    def torus_multiplier():
        bad = 0
        vals = [1, 2, -1, 4]
        if big_n >= 2:
            vals += [p, 2 * p]  # valuation-1 entries need the deeper window
        for a in vals:
            for b in vals:
                got = projective_multiplier(
                    sl2(a, 0, 0, Fraction(1, a)), sl2(b, 0, 0, Fraction(1, b)), model
                )
                want = hilbert(a, b, model.place)
                if abs(got - want) > 1e-6:
                    bad += 1
        return 0, bad

    cases.append(
        Case(f"weilrep/torus-multiplier@({p},{big_n})", "25 diagonal pairs", torus_multiplier)
    )

    def cocycle_property():
        # valuation-1 torus entries only when big_n >= 2, as in torus_multiplier
        deep = (p,) if big_n >= 2 else ()
        mats = []
        for _ in range(8):
            kind = rng.choice(("t", "n", "w", "b"))
            if kind == "t":
                a = rng.choice((1, 2, -1) + deep)
                mats.append(sl2(a, 0, 0, Fraction(1, a)))
            elif kind == "n":
                mats.append(sl2(1, rng.randint(-3, 3), 0, 1))
            elif kind == "w":
                mats.append(sl2(0, 1, -1, 0))
            else:
                a = rng.choice((2,) + deep)
                mats.append(sl2(a, rng.randint(0, 2), 0, Fraction(1, a)))
        bad = 0
        checked = 0
        # draw until 20 triples stay in the window; 99 only if the cap is hit
        for _ in range(200):
            if checked == 20:
                break
            g, h, k = rng.choice(mats), rng.choice(mats), rng.choice(mats)
            try:
                lhs = projective_multiplier(g, h, model) * projective_multiplier(
                    g.compose(h), k, model
                )
                rhs = projective_multiplier(g, h.compose(k), model) * projective_multiplier(
                    h, k, model
                )
            except _CAUGHT:
                continue
            checked += 1
            if abs(lhs - rhs) > 1e-6:
                bad += 1
        return 0, bad if checked == 20 else 99

    cases.append(
        Case(f"weilrep/2-cocycle@({p},{big_n})", "20 seeded SL2 triples", cocycle_property)
    )

    def parity():
        gens = [("w",), ("n", 1), ("n", 2), ("t", 2), ("t", -1), ("sign", -1)]
        bad = sum(0 if parity_invariance_check(model, g) else 1 for g in gens)
        for g in [("d", 1), ("central", 2)]:
            if not parity_invariance_check(model, g, chi_value=Fraction(1)):
                bad += 1
        return 0, bad

    cases.append(Case(f"weilrep/parity@({p},{big_n})", "all generator kinds", parity))

    def central_scalar():
        import numpy as np

        bad = 0
        for a in (1, 2, -1, 4):
            # the central letter against the scalar times each identity block
            act = word_action(model, [("central", a)], chi=chi)
            want = complex(chi.value(a)) * mu(a, model.psi).value()
            if not all(np.allclose(act(X), want * X, atol=1e-9) for X in identity_blocks(model)):
                bad += 1
        return 0, bad

    cases.append(
        Case(f"weilrep/central-scalar@({p},{big_n})", "units 1,2,-1,4", central_scalar)
    )

    def whittaker():
        expect = [True, True, False, False]
        got = [
            whittaker_functional_exists(model, 1),
            whittaker_functional_exists(model, 4),
            whittaker_functional_exists(model, nonres),
            whittaker_functional_exists(model, p),
        ]
        return expect, got

    cases.append(
        Case(f"weilrep/whittaker@({p},{big_n})", "classes 1, 4, nonres, p", whittaker)
    )

    def tensor():
        ok = tensor_whittaker_check(model, (1, 2), (1, 2))
        bad = tensor_whittaker_check(model, (1, 1), (1, nonres))
        return (True, False), (ok, bad)

    cases.append(Case(f"weilrep/tensor@({p},{big_n})", "two-block pairs", tensor))

    def twist():
        return True, twist_intertwiner_check(nonres, model)

    cases.append(
        Case(f"weilrep/twist@({p},{big_n})", "nonresidue unit twist", twist)
    )
    return cases


def _random_sat(rng, r, q=7, chi=Fraction(1)):
    from .symsq import SatakeData

    alphas = []
    while len(alphas) < r:
        a = Fraction(rng.randint(1, 4), rng.randint(1, 4))
        if rng.random() < 0.3:
            a = -a
        alphas.append(a)
    return SatakeData(r, alphas, q, chi_val=chi)


def _suite_symsq(rng):
    from .symsq import (
        SatakeData,
        euler_product,
        even_partition_gf,
        even_partition_identity_check,
        partitions_at_most,
        pole_report,
        rs_factorization_check,
        schur_jt,
        schur_tableau_oracle,
        tate_factor_ratio,
        unramified_zeta_check,
    )

    cases = []

    def schur_agreement():
        vals = [Fraction(2), Fraction(1, 2), Fraction(3)]
        bad = 0
        for total in range(0, 6):
            for lam in partitions_at_most(total, 3):
                if schur_jt(lam, vals) != schur_tableau_oracle(lam, vals):
                    bad += 1
        return 0, bad

    cases.append(Case("symsq/schur-agreement", "|lambda| <= 5, 3 variables", schur_agreement))

    def gf_frozen():
        sat = SatakeData(2, [1, 1], 7)
        gf = even_partition_gf(sat, 5)
        return [1, 3, 5, 7, 9, 11], [gf[k] for k in range(6)]

    cases.append(Case("symsq/gf-coefficients", "r=2, alphas=(1,1)", gf_frozen))

    def identity():
        bad = 0
        for r in (2, 3):
            for _ in range(2):
                if not even_partition_identity_check(_random_sat(rng, r), degree=8):
                    bad += 1
        return 0, bad

    cases.append(Case("symsq/partition-identity", "r in {2,3}, 2 tuples each", identity))

    def zeta():
        bad = 0
        if not unramified_zeta_check(SatakeData(2, [1, 1], 7), 8):
            bad += 1
        sat3 = SatakeData(3, [Fraction(2), Fraction(1, 2), Fraction(3)], 5, chi_val=2)
        if not unramified_zeta_check(sat3, 6):
            bad += 1
        return 0, bad

    cases.append(Case("symsq/zeta-check", "r=2 trivial; r=3 chi=2", zeta))

    def rs():
        bad = 0
        for r in range(1, 5):
            if not rs_factorization_check(_random_sat(rng, r, chi=Fraction(2))):
                bad += 1
        return 0, bad

    cases.append(Case("symsq/rs-factorization", "r <= 4 seeded tuples", rs))

    def ratio():
        return Fraction(40, 27), tate_factor_ratio("even", 2, 1, Fraction(1, 4), 1, 3)

    cases.append(Case("symsq/tate-ratio", "even, r=2, s=1/4, q=3", ratio))

    def poles():
        rep = pole_report(2, True)
        want = ({Fraction(1, 4), Fraction(3, 4)}, {Fraction(0), Fraction(1)}, 1)
        got = (set(rep.normalizer_poles), set(rep.l_function_poles), rep.s_to_l_arg(Fraction(3, 4)))
        return want, got

    cases.append(Case("symsq/pole-report", "trivial composite character", poles))

    def euler():
        import math

        primes = [q for q in range(2, 100) if is_prime(q)]
        val = euler_product([SatakeData(1, [1], q) for q in primes], 2)
        return True, abs(val - math.pi**2 / 6) < 0.011

    cases.append(Case("symsq/euler-zeta2", "primes < 100 at s=2", euler))
    return cases


_SUITES = {
    "symbols": _suite_symbols,
    "cocycles": _suite_cocycles,
    "weil": _suite_weil,
    "weilrep": _suite_weilrep,
    "symsq": _suite_symsq,
}


def cmd_suite(args) -> int:
    import json
    import random

    if args.name == "all":
        names = ["symbols", "cocycles", "weil", "weilrep", "symsq"]
    else:
        names = [args.name]
    # Every suite is built before any runs, so a refused weilrep model stops
    # the run before a report is printed. weilrep is built last: it loads
    # numpy, and a module compiled after that (no bytecode cache) raises the
    # process's peak memory by about 2 MB.
    built = {}
    for name in sorted(names, key=lambda name: name == "weilrep"):
        rng = random.Random(args.seed)
        builder = _SUITES[name]
        built[name] = builder(rng, args.p, args.N) if name == "weilrep" else builder(rng)
    combined = {"suite": args.name, "cases": [], "summary": None}
    code = 0
    for name in names:
        report = run_cases(name, built[name], timings=args.timings, case_filter=args.suite)
        print_report(report)
        combined["cases"].extend(report["cases"])
        code = max(code, report_exit_code(report))
    counts = {"pass": 0, "fail": 0, "error": 0, "skipped": 0}
    for row in combined["cases"]:
        counts[row["status"]] += 1
    counts["total"] = len(combined["cases"])
    combined["summary"] = counts
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
    print(f"sym: {render_poly(f.sym.coeffs)}")
    print(f"ext: {render_poly(f.ext.coeffs)}")
    print(f"rs:  {render_poly(f.rs.coeffs)}")
    print(f"sym coefficients: {render(list(f.sym.coeffs))}")
    return 0


def cmd_zeta(args) -> int:
    from .symsq import sym_square_series, toral_series

    sat = _sat_from_args(args)
    series = toral_series(sat, args.deg)
    ok = series == sym_square_series(sat, args.deg)
    print(f"toral series coefficients: {render(list(series.coeffs))}")
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
    rows = []
    for p, sat in table:
        chi = "ramified" if sat.chi_val == RAMIFIED else render(sat.chi_val)
        rows.append(
            {
                "p": p,
                "r": sat.r,
                "alphas": [render(a) for a in sat.alphas],
                "chi": chi,
                "omega": render(sat.omega_val),
            }
        )
        print(
            f"p={p} r={sat.r} alphas={render(list(sat.alphas))}"
            f" chi={chi} omega={render(sat.omega_val)}"
        )
    print(f"{len(table)} entries ok")
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(json.dumps(rows, indent=2, sort_keys=True) + "\n")
    return 0


# argument plumbing ------------------------------------------------------------------


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
    ph.add_argument("-a", required=True)
    ph.add_argument("-b", required=True)
    ph.add_argument("--place", required=True, help="inf or a prime")
    ph.set_defaults(fn=cmd_hilbert)

    pc = sub.add_parser("cocycle", help="cocycle of two structured elements")
    pc.add_argument("g", help="torus(...), central(a,r), sl2(a,b,c,d), gl2(...), blocks[...]")
    pc.add_argument("h")
    pc.add_argument("--place", required=True)
    pc.set_defaults(fn=cmd_cocycle)

    pg = sub.add_parser("weil-gamma", help="Weil index of a quadratic character")
    pg.add_argument("--place", required=True)
    pg.add_argument("--scale", default="1")
    pg.set_defaults(fn=cmd_weil_gamma)

    pm = sub.add_parser("weil-mu", help="normalized Weil index ratio")
    pm.add_argument("-a", required=True)
    pm.add_argument("--place", required=True)
    pm.add_argument("--scale", default="1")
    pm.set_defaults(fn=cmd_weil_mu)

    pz = sub.add_parser("zeta", help="unramified toral zeta series and identity check")
    pz.add_argument("--r", type=int, required=True)
    pz.add_argument("--alphas", required=True, help="comma-separated rationals")
    pz.add_argument("--chi", default="1")
    pz.add_argument("--q", type=int, required=True)
    pz.add_argument("--deg", type=_nonnegative_int, default=10)
    pz.set_defaults(fn=cmd_zeta)

    pl = sub.add_parser("lfactor", help="local factors: symmetric, exterior, product")
    pl.add_argument("--r", type=int, required=True)
    pl.add_argument("--alphas", required=True)
    pl.add_argument("--chi", default="1")
    pl.add_argument("--q", type=int, required=True)
    pl.set_defaults(fn=cmd_lfactor)

    pe = sub.add_parser("euler", help="partial Euler product from a Satake table")
    pe.add_argument("--table", required=True, help="JSON table path")
    pe.add_argument("--s", required=True)
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
        return args.fn(args)
    except _CAUGHT as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
