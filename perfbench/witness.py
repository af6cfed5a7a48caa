"""Independent witnesses for every benchmark item.

Each check takes an item and what the program returned for it and says
whether the two agree. The witnesses are closed forms written here (Gauss's
sign for the Weil index, the lattice window of a Bruhat word, series and
polynomial products by direct expansion) or the program's own brute-force
oracles, which share no code with the paths under test (the solvability
oracle for Hilbert symbols, tableau enumeration for Schur polynomials).
They run after the timed passes, never inside them.
"""

import functools
import json
import math
from fractions import Fraction

# plain number theory ----------------------------------------------------------


def is_prime(n):
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for q in small:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n):
    while not is_prime(n):
        n += 1
    return n


def val_unit(x, p):
    """(v, u) with x = p^v * u and u a p-adic unit."""
    x = Fraction(x)
    num, den, v = x.numerator, x.denominator, 0
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v, Fraction(num, den)


def legendre(u, p):
    """(u|p) for a rational p-adic unit u and an odd prime p (Euler)."""
    u = Fraction(u)
    r = pow(u.numerator % p, (p - 1) // 2, p) * pow(u.denominator % p, (p - 1) // 2, p) % p
    return 1 if r == 1 else -1


def gamma_exponent(p, scale):
    """Gauss's sign of the quadratic Gauss sum as an eighth-root exponent:
    at the real place e^(+-i pi/4) by the sign of the scale; at an odd
    prime 1 for even valuation and eps_p (u|p) for odd valuation, with
    eps_p = 1 for p = 1 mod 4 and i for p = 3 mod 4."""
    scale = Fraction(scale)
    if p is None:
        return 1 if scale > 0 else 7
    v, u = val_unit(scale, p)
    if v % 2 == 0:
        return 0
    k = 0 if p % 4 == 1 else 2
    return k if legendre(u, p) == 1 else k + 4


def root_name(k):
    """An eighth root of unity e^(i pi k/4) as the program prints it."""
    k %= 8
    return {0: "1", 2: "i", 4: "-1", 6: "-i"}.get(k) or f"e^({'' if k == 1 else k}i*pi/4)"


def square_class_key(p, scale):
    """Square class of a scale: its sign at the real place, otherwise (at an
    odd prime) the valuation parity and the residue symbol of the unit."""
    scale = Fraction(scale)
    if p is None:
        return (None, scale > 0)
    v, u = val_unit(scale, p)
    return (p, v % 2, legendre(u, p))


# Hilbert symbols through the solvability oracle ------------------------------


def _place(text):
    from metaplectic.local_arith import Place

    return Place.real() if text == "inf" else Place.finite(int(text))


def oracle_symbol(a, b, place):
    """(a, b) at a place, by the program's brute-force conic search. For a
    place too large to search, the product formula: the symbol there is the
    product of the symbols at every other place where it can be nontrivial.
    The inputs are built so those places are the real one and primes <= 7."""
    from metaplectic.local_arith import solvability_oracle

    if place == "inf" or int(place) <= 7:
        return solvability_oracle(a, b, _place(place))
    big = int(place)
    out = solvability_oracle(a, b, _place("inf"))
    for q in (2, 3, 5, 7):
        out *= solvability_oracle(a, b, _place(str(q)))
    rest = Fraction(a) * Fraction(b)
    while val_unit(rest, big)[0]:
        rest /= big
    for q in (2, 3, 5, 7):
        while val_unit(rest, q)[0]:
            rest = rest / q if val_unit(rest, q)[0] > 0 else rest * q
    if abs(rest) != 1:
        raise ValueError(f"{a}, {b} have prime factors outside the witness set")
    return out


def torus_rule(g, h, place):
    out = 1
    for i in range(len(g)):
        for j in range(i + 1, len(h)):
            out *= oracle_symbol(g[i], h[j], place)
    return out


def kubota(g, h, place):
    """Kubota's SL(2) cocycle (x(gh)/x(g), x(gh)/x(h)), x the lower-left
    entry when nonzero, else the lower-right one."""

    def x(m):
        return m[2] if m[2] != 0 else m[3]

    gh = matmul(g, h)
    return oracle_symbol(x(gh) / x(g), x(gh) / x(h), place)


# 2x2 matrices and the finite model's lattice window ------------------------------


def matmul(g, h):
    a, b, c, d = g
    e, f, k, m = h
    return (a * e + b * k, a * f + b * m, c * e + d * k, c * f + d * m)


def _letters(m):
    """Bruhat letters of a determinant-one block: t(a) n(b/a) when the
    lower-left entry vanishes, n(a/c) w t(-c) n(d/c) otherwise."""
    a, b, c, d = m
    if c == 0:
        return [("t", a), ("n", b / a)]
    return [("n", a / c), ("w", None), ("t", -c), ("n", d / c)]


def in_window(m, p, N):
    """Whether every letter of the block's word fits the model: torus
    valuations in [0, 2N-2], quadratic phases zero or in [0, 4N-4]."""
    for kind, x in _letters(m):
        if kind == "t" and not 0 <= val_unit(x, p)[0] <= 2 * N - 2:
            return False
        if kind == "n" and x != 0 and not 0 <= val_unit(x, p)[0] <= 4 * N - 4:
            return False
    return True


def phases_nonzero(m):
    """Whether every quadratic-phase letter of the block's word is nonzero."""
    return all(x != 0 for kind, x in _letters(m) if kind == "n")


def triple_in_window(mats, p, N):
    """Every word the multiplier calls of a pair (g, h) or of the cocycle
    identity on a triple (g, h, k) build: the factors and their contiguous
    products."""
    words = list(mats)
    for i in range(len(mats)):
        prod = mats[i]
        for j in range(i + 1, len(mats)):
            prod = matmul(prod, mats[j])
            words.append(prod)
    return all(in_window(m, p, N) for m in words)


# exact series -------------------------------------------------------------------


def partitions(total, max_parts, bound=None):
    """Partitions of total into at most max_parts parts, as tuples."""
    bound = total if bound is None else bound
    if total == 0:
        return [()]
    if max_parts == 0:
        return []
    out = []
    for first in range(min(total, bound), 0, -1):
        out.extend((first,) + rest for rest in partitions(total - first, max_parts - 1, first))
    return out


@functools.lru_cache(maxsize=None)
def partition_count(total, max_parts):
    if total == 0:
        return 1
    if max_parts == 0:
        return 0
    # either fewer parts, or subtract one from each of max_parts parts
    rest = partition_count(total - max_parts, max_parts) if total >= max_parts else 0
    return partition_count(total, max_parts - 1) + rest


def even_partitions(r, deg):
    """Even dominant weights enumerated by a zeta or identity check of rank
    r to degree deg: partitions of 0..deg into at most r-1 parts."""
    return sum(partition_count(m, r - 1) for m in range(deg + 1))


def linear_product(roots):
    """Coefficients of prod (1 - c X)."""
    poly = [Fraction(1)]
    for c in roots:
        poly = [x - c * y for x, y in zip(poly + [Fraction(0)], [Fraction(0)] + poly)]
    return poly


def _pairs(alphas, scale, strict):
    r = len(alphas)
    return [scale * alphas[i] * alphas[j] for i in range(r) for j in range(i + strict, r)]


def toral_series(alphas, deg):
    """prod_{i<=j} (1 - a_i a_j X)^-1 (1 - omega^2 X^r) to X^deg."""
    out = [Fraction(1)] + [Fraction(0)] * deg
    for c in _pairs(alphas, 1, 0):
        for k in range(1, deg + 1):
            out[k] += c * out[k - 1]
    omega2 = math.prod(alphas) ** 2
    r = len(alphas)
    return [out[k] - (omega2 * out[k - r] if k >= r else 0) for k in range(deg + 1)]


def euler_value(table, s):
    out = 1.0
    for row in table:
        if row["chi"] == "ramified":
            continue
        chi = Fraction(row["chi"])
        x = row["p"] ** -s
        alphas = [Fraction(a) for a in row["alphas"]]
        for c in _pairs(alphas, chi, 0):
            out /= 1 - float(c) * x
    return out


# checks ---------------------------------------------------------------------------

TOL = 1e-6


def _sign(c):
    return min(abs(c - 1), abs(c + 1)) < TOL


def check_weil(item, out, err):
    """weil-model items. out is the program's value, err the name of the
    exception it raised, if any."""
    kind = item["kind"]
    if kind == "reject":
        return err == "PreconditionError"
    if err is not None:
        return False
    p = item["model"][0]
    if kind == "torus":
        want = oracle_symbol(item["g"][0], item["h"][0], str(p))
        return abs(out - want) < TOL
    if kind == "pair":
        return _sign(out)
    if kind == "triple":
        return all(_sign(c) for c in out[2:]) and abs(out[0] - out[1]) < TOL
    if kind in ("parity", "twist"):
        return out is True
    if kind == "whittaker":
        v, u = val_unit(item["a"], p)
        return out == (v % 2 == 0 and legendre(u, p) == 1)
    raise ValueError(kind)


def _factors_agree(sat, factors):
    """The sym, ext and rs reciprocal polynomials by direct expansion."""
    _, alphas, _, chi = sat
    want = (linear_product(_pairs(alphas, chi, 0)), linear_product(_pairs(alphas, chi, 1)),
            linear_product([chi * a * b for a in alphas for b in alphas]))
    return all(list(f.coeffs) == w for f, w in zip(factors, want))


@functools.lru_cache(maxsize=None)
def _ingredients_agree(kind, sat, deg):
    """The zeta, identity and rs checks return only the program's own
    verdict. Beside it, compare what the public API exposes of their
    ingredients with direct expansion: the local factors, and the
    even-partition generating function, which both sides of the zeta and
    identity checks equal. Cached: the inputs are the same every pass."""
    from metaplectic.symsq import SatakeData, even_partition_gf, local_factors

    data = SatakeData(*sat[:3], chi_val=sat[3])
    if not _factors_agree(sat, local_factors(data)):
        return False
    if kind == "rs":
        return True
    gf = even_partition_gf(data, deg)
    return [gf[k] for k in range(deg + 1)] == toral_series(sat[1], deg)


def check_symsq(item, out, err):
    if err is not None:
        return False
    kind = item["kind"]
    if kind in ("zeta", "identity", "rs"):
        return out is True and _ingredients_agree(kind, item["sat"], item.get("deg"))
    if kind == "pinned":
        return [out[k] for k in range(4)] == [1, 3, 6, 10]
    if kind == "schur":
        from metaplectic.symsq import schur_tableau_oracle

        return out == schur_tableau_oracle(item["lam"], item["values"])
    if kind == "lfactor":
        return _factors_agree(item["sat"], out)
    raise ValueError(kind)


def _lines(text):
    return [line.strip() for line in text.strip().splitlines()]


def _render(xs):
    return "[" + ", ".join(str(x) for x in xs) + "]"


def check_cli(item, code, stdout, report_path=None):
    """One CLI invocation: the exit code a correct program gives, and the
    printed value against the witness."""
    if code != 0:
        return False
    kind = item["kind"]
    last = _lines(stdout)[-1] if stdout.strip() else ""
    if kind == "suite":
        with open(report_path) as fh:
            summary = json.load(fh)["summary"]
        return summary["total"] > 0 and summary["pass"] == summary["total"]
    if kind == "hilbert":
        return last == str(oracle_symbol(item["a"], item["b"], item["place"]))
    if kind == "cocycle-torus":
        return last == str(torus_rule(item["g"], item["h"], item["place"]))
    if kind == "cocycle-sl2":
        return last == str(kubota(item["g"], item["h"], item["place"]))
    if kind == "gamma":
        return last == root_name(gamma_exponent(item["p"], item["scale"]))
    if kind == "mu":
        p, s = item["p"], item["scale"]
        return last == root_name(gamma_exponent(p, s * item["a"]) - gamma_exponent(p, s))
    if kind == "lfactor":
        _, alphas, _, chi = item["sat"]
        return last == "sym coefficients: " + _render(linear_product(_pairs(alphas, chi, 0)))
    if kind == "zeta":
        want = "toral series coefficients: " + _render(toral_series(item["sat"][1], item["deg"]))
        return _lines(stdout) == [want, f"identity to X^{item['deg']}: true"]
    if kind == "poles":
        if item["trivial"]:
            want = ["normalizer poles: {1/4, 3/4}", "l-function poles: {0, 1}", "map: s -> 2s - 1/2"]
        else:
            want = ["normalizer poles: none", "l-function poles: none"]
        return _lines(stdout) == want
    if kind == "ingest":
        return last == f"{len(item['table'])} entries ok" and [
            line.split()[0] for line in _lines(stdout)[:-1]
        ] == [f"p={row['p']}" for row in item["table"]]
    if kind == "euler":
        want = euler_value(item["table"], item["s"])
        return abs(float(last) - want) <= 1e-8 * abs(want)
    raise ValueError(kind)
