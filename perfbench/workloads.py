"""Seeded inputs for the three benchmark workloads.

Everything here is plain data built from the workload seed with the standard
library only: SL(2) matrices as 4-tuples of Fractions, Satake tuples as
(r, alphas, q, chi), and CLI argument lists. The program never sees the seed,
only these generated inputs.

The composition of each batch (how many items of each kind, at which model
size, rank or degree, and with which word shapes) is fixed; the seed only
picks the parameters inside each slot. That keeps the cost of a pass nearly
the same from seed to seed, so run-to-run spread measures the program and
not the draw. The composition is chosen, not measured: the package has no
usage traffic to sample. Each workload's comments say what its counts are
chosen for.
"""

import json
import random
from fractions import Fraction

import witness

# weil-model -----------------------------------------------------------------

# Carrier sizes M = p^(2N) of 81, 625 and 729. M=81 keeps per-call overhead
# visible; the two large models are where the dense O(M^3) chains dominate.
WEIL_MODELS = ((3, 2), (5, 2), (3, 3))

# (torus pairs, generator pairs, rejected pairs, cocycle triples,
#  parity checks, twist checks, Whittaker checks) per model. Most items are
#  at M=81, so the item latencies show per-call overhead; the few items at
#  M=625 and M=729 still take most of a pass, so run_s shows the dense chains.
_WEIL_COUNTS = {
    (3, 2): (4, 16, 3, 4, 8, 2, 11),
    (5, 2): (1, 2, 1, 1, 2, 1, 2),
    (3, 3): (1, 2, 1, 1, 2, 1, 2),
}
_UNITS = (1, 2, -1, 4, -2)
_W = (Fraction(0), Fraction(1), Fraction(-1), Fraction(0))


def _mat(a, b, c, d):
    return tuple(Fraction(x) for x in (a, b, c, d))


def _torus(a):
    return _mat(a, 0, 0, Fraction(1) / Fraction(a))


def _upper(rng, p):
    a = rng.choice(_UNITS + (p,))
    b = rng.choice((-3, -2, -1, 1, 2, 3)) * (p if a == p else 1)
    return _mat(a, b, 0, Fraction(1) / Fraction(a))


def _lower(rng):
    return _mat(1, 0, rng.choice(_UNITS), 1)


def _shape(rng, p, kind):
    if kind == "U":
        return _upper(rng, p)
    if kind == "L":
        return _lower(rng)
    return _W


def _sample(rng, p, N, shapes, want_reject=False):
    """Draw matrices of the given shapes until every word the multiplier
    calls build is inside the window, or, for a rejected pair, until the
    two factors are inside and their product is not. Without w, a product
    whose word has a zero phase letter is drawn again: that letter is the
    identity and would make the item cheaper than its shape."""
    while True:
        mats = [_shape(rng, p, s) for s in shapes]
        if want_reject:
            g, h = mats
            if (witness.in_window(g, p, N) and witness.in_window(h, p, N)
                    and not witness.in_window(witness.matmul(g, h), p, N)):
                return mats
        elif witness.triple_in_window(mats, p, N) and (
                "W" in shapes or witness.phases_nonzero(witness.matmul(*mats))):
            return mats


def weil_model_items(seed):
    rng = random.Random(f"weil-model:{seed}")
    items = []
    for p, N in WEIL_MODELS:
        n_torus, n_gen, n_rej, n_tri, n_par, n_twist, n_whit = _WEIL_COUNTS[(p, N)]
        model = (p, N)
        ext = _UNITS + (p, 2 * p)
        for _ in range(n_torus):
            a, b = rng.choice(ext), rng.choice(ext)
            items.append({"kind": "torus", "model": model, "g": _torus(a), "h": _torus(b)})
        # Every shape builds ten letters over its three words; the phase
        # letters cost most. A pair with w has two nonzero phase letters,
        # one without has five, so the mix is fixed: 4 of 16 at M=81 have w.
        shapes = ("LU", "UL", "UW", "LU", "UL", "LU", "UL", "WU")
        for i in range(n_gen):
            g, h = _sample(rng, p, N, shapes[i % len(shapes)])
            items.append({"kind": "pair", "model": model, "g": g, "h": h})
        for _ in range(n_rej):
            g, h = _sample(rng, p, N, "UU", want_reject=True)
            items.append({"kind": "reject", "model": model, "g": g, "h": h})
        for _ in range(n_tri):
            g, h, k = _sample(rng, p, N, "UUW")
            items.append({"kind": "triple", "model": model, "g": g, "h": h, "k": k})
        gens = [
            ("w",),
            ("n", rng.choice((1, 2, -1, p))),
            ("t", rng.choice(_UNITS + (p,))),
            ("n", rng.choice((3, -2, 2 * p))),
            ("t", -1),
            ("sign", -1),
            ("d", Fraction(1, rng.choice((1, p)))),
            ("central", rng.choice(_UNITS)),
        ]
        big = gens[:3]
        pool = gens if n_par == len(gens) else [rng.choice(big) for _ in range(n_par)]
        for gen in pool[:n_par]:
            items.append({"kind": "parity", "model": model, "gen": gen})
        # a square twist also checks the explicit intertwiner, at twice the
        # cost; only the small model gets one, so large-model costs stay fixed
        for i in range(n_twist):
            a = 4 if i == 1 else rng.choice((2, -1, -2))
            items.append({"kind": "twist", "model": model, "a": a})
        targets = [1, 2, 3, 4, -1, p, 2 * p, p * p, 5 * p * p]
        for _ in range(n_whit):
            items.append({"kind": "whittaker", "model": model, "a": rng.choice(targets)})
    return items


# symsq-zeta -------------------------------------------------------------------

# (rank, degree) of the zeta-assembly slots; the four sizes span a 40x cost range
ZETA_SIZES = ((2, 10), (4, 10), (4, 16), (6, 12))
PINNED = (2, (Fraction(1), Fraction(1)), 7, Fraction(1))


def _satake(rng, r, q=7):
    alphas = tuple(
        Fraction(rng.randint(1, 4), rng.randint(1, 4)) * rng.choice((1, 1, -1))
        for _ in range(r)
    )
    chi = rng.choice((Fraction(1), Fraction(2), Fraction(3, 2)))
    return (r, alphas, q, chi)


def symsq_items(seed):
    rng = random.Random(f"symsq-zeta:{seed}")
    items = []
    for r, deg in ZETA_SIZES:
        for _ in range(5):
            items.append({"kind": "zeta", "sat": _satake(rng, r), "deg": deg})
        for _ in range(2):
            items.append({"kind": "identity", "sat": _satake(rng, r), "deg": deg})
    items.append({"kind": "zeta", "sat": PINNED, "deg": 10})
    items.append({"kind": "identity", "sat": PINNED, "deg": 10})
    items.append({"kind": "pinned", "sat": PINNED})
    # one schur_jt item per shape of weight 4 in four variables, and one
    # local-factor and one factorisation item per rank up to 5
    for lam in witness.partitions(4, 4):
        values = tuple(Fraction(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(4))
        items.append({"kind": "schur", "lam": lam, "values": values})
    for r in range(1, 6):
        items.append({"kind": "lfactor", "sat": _satake(rng, r)})
        items.append({"kind": "rs", "sat": _satake(rng, r)})
    return items


# cli-cold ------------------------------------------------------------------------

GAMMA_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)

# Suite seeds are drawn below SUITE_SEED_POOL. At the commit that defined
# this benchmark, every suite passes at every seed of the pool except these,
# where `suite all` and `suite weilrep` (p=3, N=1) sample no in-window
# 2-cocycle triple, report 99 and exit 1 (the other suites pass there too).
SUITE_SEED_POOL = 1000
VACUOUS_SUITE_SEEDS = frozenset((
    9, 76, 154, 173, 186, 267, 294, 305, 336, 355, 356, 367, 385, 408, 422, 430,
    435, 439, 506, 529, 560, 616, 665, 667, 671, 681, 716, 872, 888, 901, 917, 945,
))


def _q(x):
    return str(Fraction(x))


def _small_rational(rng, top=60):
    return Fraction(rng.randint(1, top), rng.randint(1, top)) * rng.choice((1, -1))


def _unit_at(rng, p):
    while True:
        x = _small_rational(rng, 12)
        if x.numerator % p and x.denominator % p:
            return x


def _sl2_word(rng):
    m = _mat(1, 0, 0, 1)
    for _ in range(3):
        pick = rng.choice("wnt")
        if pick == "w":
            f = _W
        elif pick == "n":
            f = _mat(1, rng.randint(-4, 4), 0, 1)
        else:
            f = _torus(rng.choice((2, 3, -1, Fraction(1, 5), 7)))
        m = witness.matmul(m, f)
    return m


def _element(m):
    return "sl2(" + ",".join(_q(x) for x in m) + ")"


def satake_table(rng):
    """Rows for `ingest` and `euler`: distinct primes, small exact alphas
    and character values, so every local factor converges at s = 2."""
    primes = rng.sample([q for q in range(3, 60) if witness.is_prime(q)], 12)
    rows = []
    for q in sorted(primes):
        r = rng.randint(1, 3)
        alphas = [_q(rng.choice((1, -1, Fraction(1, 2), 2, Fraction(-3, 2)))) for _ in range(r)]
        chi = rng.choice(("1", "3/2", "-1", "ramified"))
        rows.append({"p": q, "alphas": alphas, "chi": chi})
    return rows


def cli_script(seed):
    """The ordered list of CLI invocations of one pass. Each entry is
    {"argv": [...], "kind": ..., plus what the witness needs}. Paths are
    written as placeholders ({work}, and {run} for the pass number) and
    filled in by the runner."""
    rng = random.Random(f"cli-cold:{seed}")
    script = []

    def suite(name, seed, *extra):
        n = len(script)
        report = f"suite-{n}-{{run}}.json"
        argv = ["suite", name, f"--seed={seed}", *extra, "--json={work}/" + report]
        script.append({"kind": "suite", "argv": argv, "report": report,
                       "vacuous": seed in VACUOUS_SUITE_SEEDS
                       and (name == "all" or extra == ("--p=3", "--N=1"))})

    # One `suite all` at a seed with the vacuous-cocycle defect and one at a
    # seed without it, so every pass fails the same number of items.
    clean = [s for s in range(SUITE_SEED_POOL) if s not in VACUOUS_SUITE_SEEDS]
    suite("all", rng.choice(sorted(VACUOUS_SUITE_SEEDS)))
    suite("all", rng.choice(clean))
    for name in ("symbols", "cocycles", "weil"):
        suite(name, rng.randrange(SUITE_SEED_POOL))
        suite(name, rng.randrange(SUITE_SEED_POOL))
    # The weilrep suites' cost swings several-fold with how many sampled
    # triples stay in the window, so their suite seeds are pinned. Seed 9 at
    # (3,1) samples no in-window triple: the vacuous-cocycle defect again.
    suite("weilrep", 9, "--p=3", "--N=1")
    suite("weilrep", 0, "--p=3", "--N=2")
    suite("weilrep", 0, "--p=17")

    for _ in range(6):
        place = rng.choice(("2", "3", "5", "7", "inf"))
        a, b = _small_rational(rng), _small_rational(rng)
        script.append({"kind": "hilbert", "a": a, "b": b, "place": place,
                       "argv": ["hilbert", f"-a={a}", f"-b={b}", f"--place={place}"]})
    # Places near 10^12, where local_arith pays for trial division. They are
    # the slow items of a pass, nearly equal for every seed; eight of them
    # make the tail item one of them, so item_tail_ms shows that cost.
    for _ in range(8):
        big = witness.next_prime(rng.randrange(9 * 10**11, 10**12))
        a = big * rng.choice((1, -1, 2, 3, -5, 7))
        b = rng.choice((-1, 2, 3, 5, -6, 7, 10, -21))
        script.append({"kind": "hilbert", "a": Fraction(a), "b": Fraction(b), "place": str(big),
                       "big_place": True,
                       "argv": ["hilbert", f"-a={a}", f"-b={b}", f"--place={big}"]})

    for i in range(4):
        place = rng.choice(("3", "5", "7", "inf"))
        if i < 2:
            r = rng.choice((2, 3))
            g = tuple(_small_rational(rng, 12) for _ in range(r))
            h = tuple(_small_rational(rng, 12) for _ in range(r))
            gs = "torus(" + ",".join(_q(x) for x in g) + ")"
            hs = "torus(" + ",".join(_q(x) for x in h) + ")"
            entry = {"kind": "cocycle-torus", "g": g, "h": h}
        else:
            g, h = _sl2_word(rng), _sl2_word(rng)
            gs, hs = _element(g), _element(h)
            entry = {"kind": "cocycle-sl2", "g": g, "h": h}
        entry.update(place=place, argv=["cocycle", gs, hs, f"--place={place}"])
        script.append(entry)

    # Odd valuations at every prime; at p >= 23 they hit the oracle's
    # resource cap, a known defect kept in the batch on purpose.
    for p in GAMMA_PRIMES + (None,):
        if p is None:
            scale = _small_rational(rng, 12)
        else:
            scale = _unit_at(rng, p) * Fraction(p) ** rng.choice((-1, 1, 3))
        script.append({"kind": "gamma", "p": p, "scale": scale,
                       "argv": ["weil-gamma", f"--place={p or 'inf'}", f"--scale={scale}"]})
    for p in GAMMA_PRIMES + (None,):
        scale = _unit_at(rng, p) if p else _small_rational(rng, 12)
        a = _unit_at(rng, p) * Fraction(p) ** rng.choice((-1, 1)) if p else _small_rational(rng, 12)
        script.append({"kind": "mu", "p": p, "scale": scale, "a": a,
                       "argv": ["weil-mu", f"-a={a}", f"--place={p or 'inf'}", f"--scale={scale}"]})

    for _ in range(2):
        r, alphas, q, chi = _satake(rng, rng.choice((2, 3)))
        script.append({"kind": "lfactor", "sat": (r, alphas, q, chi),
                       "argv": ["lfactor", f"--r={r}", "--alphas=" + ",".join(map(str, alphas)),
                                f"--chi={chi}", f"--q={q}"]})
    for r, alphas, q, chi, deg in (PINNED + (10,), _satake(rng, 3) + (8,)):
        script.append({"kind": "zeta", "sat": (r, alphas, q, chi), "deg": deg,
                       "argv": ["zeta", f"--r={r}", "--alphas=" + ",".join(map(str, alphas)),
                                f"--chi={chi}", f"--q={q}", f"--deg={deg}"]})
    for trivial in ("true", "false"):
        script.append({"kind": "poles", "trivial": trivial == "true",
                       "argv": ["poles", f"--r={rng.randint(1, 6)}", f"--trivial={trivial}"]})

    table = satake_table(rng)
    script.append({"kind": "ingest", "table": table, "argv": ["ingest", "{work}/table.json"]})
    script.append({"kind": "euler", "table": table, "s": 2,
                   "argv": ["euler", "--table={work}/table.json", "--s=2"]})
    return script, table


def known_defect(item, code, stderr, report_path):
    """The id of the known defect a failed CLI item shows, or None.

    The known defects of the program when this benchmark was defined:
    gamma-resource-cap, weil-gamma / weil-mu at p in {23, 29, 31} with odd
    valuation exit 2 on the Gauss-sum oracle's resource cap;
    weilrep-p17-keyerror, suite weilrep --p 17 exits 1 with a KeyError
    traceback; weilrep-vacuous-cocycle, `suite all` or `suite weilrep` at
    (3,1) at one of VACUOUS_SUITE_SEEDS, whose 20 sampled triples all leave
    the window, report 99 for the 2-cocycle case and exit 1. Their items
    count as failed but do not make a run incorrect; any other failure,
    the same symptom at another seed included, does.
    """
    kind = item["kind"]
    if kind in ("gamma", "mu") and item["p"] in (23, 29, 31):
        return "gamma-resource-cap" if code == 2 and "resource cap" in stderr else None
    if kind != "suite" or code != 1:
        return None
    if "--p=17" in item["argv"]:
        return "weilrep-p17-keyerror" if "KeyError" in stderr else None
    try:
        with open(report_path) as fh:
            rows = json.load(fh)["cases"]
    except (OSError, ValueError):
        return None
    bad = [(r["id"], r["got"]) for r in rows if r["status"] != "pass"]
    vacuous = item["vacuous"] and bad == [("weilrep/2-cocycle@(3,1)", "99")]
    return "weilrep-vacuous-cocycle" if vacuous else None
