"""Spans around the public functions of each layer, installed from outside.

A layer is one module of the package. Tracing replaces the chosen
functions, wherever a module of the package holds a reference to them
(their own module, the modules that import them, and the CLI), with a
wrapper that records a span: layer, function, start, end, the enclosing
span, the exception type if one escaped, and a small tag taken from the
arguments. Spans stay in memory; callers write them out when they finish.
Nothing in the program changes, and uninstalling restores every reference.
"""

import importlib
import statistics
import sys
import time

import witness

LAYERS = {
    "local_arith": ("hilbert", "is_prime", "prime_factors", "reciprocity_product",
                    "solvability_oracle", "square_class_rep", "same_square_class"),
    "weil_index": ("gamma", "mu", "gauss_shell_oracle", "mu_multiplicativity_check"),
    "cocycle": ("sigma_eval", "kubota_sl2", "global_sigma_product", "cocycle_identity_check",
                "block_lemmas_check", "sigma_torus_even_reduced"),
    "weil_rep": ("build_model", "operator", "op_of_word", "projective_multiplier",
                 "parity_invariance_check", "whittaker_functional_exists",
                 "twist_intertwiner_check", "tensor_whittaker_check", "central_word_check"),
    "symsq": ("schur_jt", "schur_tableau_oracle", "even_partition_gf",
              "even_partition_identity_check", "local_factors", "rs_factorization_check",
              "unramified_zeta_check", "pole_report", "euler_product", "tate_factor_ratio"),
}

# span fields
LAYER, NAME, START, END, PARENT, ERROR, TAG = range(7)


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _tag(name, args, kwargs):
    """What the rollup needs from the inputs: carrier size for words and
    multipliers, (rank, degree) for the symmetric-square checks, the square
    class for Weil indices."""
    if name == "projective_multiplier":
        return _arg(args, kwargs, 2, "model").size
    if name == "op_of_word":
        return _arg(args, kwargs, 0, "model").size
    if name in ("unramified_zeta_check", "even_partition_identity_check", "even_partition_gf"):
        return [_arg(args, kwargs, 0, "sat").r, _arg(args, kwargs, 1, "degree", 10)]
    if name == "gamma":
        psi = args[0]
        return list(witness.square_class_key(psi.place.p, psi.scale))
    return None


class Recorder:
    def __init__(self):
        self.spans = []
        self._stack = []

    def call(self, layer, name, fn, args, kwargs):
        try:
            tag = _tag(name, args, kwargs)
        except Exception:  # odd arguments are the program's to reject, not the tracer's
            tag = None
        span = [layer, name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None, tag]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            span[ERROR] = type(exc).__name__
            raise
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    def take(self):
        """Hand over the spans recorded so far and start a fresh list."""
        out, self.spans = self.spans, []
        return out


def install(rec):
    """Wrap every listed function in every loaded module of the package.
    Returns a function that puts the originals back."""
    wrapped = {}
    for layer, names in LAYERS.items():
        mod = importlib.import_module(f"metaplectic.{layer}")
        for name in names:
            fn = getattr(mod, name)

            def traced(*args, _fn=fn, _layer=layer, _name=name, **kwargs):
                return rec.call(_layer, _name, _fn, args, kwargs)

            traced.__wrapped__ = fn
            wrapped[id(fn)] = (fn, traced)
    patched = []
    for modname in ("metaplectic", "metaplectic.cli", *(f"metaplectic.{m}" for m in LAYERS)):
        mod = sys.modules.get(modname)
        if mod is None:
            continue
        for attr, val in list(vars(mod).items()):
            hit = wrapped.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
                patched.append((mod, attr, val))

    def uninstall():
        for mod, attr, val in patched:
            setattr(mod, attr, val)

    return uninstall


# rollup -------------------------------------------------------------------------


def exclusive_times(spans):
    """Duration of each span minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_totals(spans, totals=None):
    """Per layer: calls entering it from another layer or from outside,
    self time, and how many of those calls raised (any exception, and
    PreconditionError alone)."""
    totals = totals if totals is not None else {}
    for s, own in zip(spans, exclusive_times(spans)):
        t = totals.setdefault(s[LAYER], {"calls": 0, "busy": 0.0, "raised": 0, "rejected": 0})
        t["busy"] += own
        if s[PARENT] < 0 or spans[s[PARENT]][LAYER] != s[LAYER]:
            t["calls"] += 1
            t["raised"] += s[ERROR] is not None
            t["rejected"] += s[ERROR] == "PreconditionError"
    return totals


def cold_gamma(spans):
    """Summed duration of the first gamma span per (place, square class)."""
    seen, total = set(), 0.0
    for s in spans:
        if s[NAME] == "gamma" and tuple(s[TAG]) not in seen:
            seen.add(tuple(s[TAG]))
            total += s[END] - s[START]
    return total


def durations(spans, name, tag=None):
    return [s[END] - s[START] for s in spans
            if s[NAME] == name and (tag is None or s[TAG] == tag)]


def median(xs):
    return statistics.median(xs) if xs else 0.0
