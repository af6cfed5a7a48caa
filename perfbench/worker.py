"""One benchmark process: set up a workload, time passes over its batch,
then check every item against its witness.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --out PATH [--setup-only]

Prints "ready" on stdout once the batch is ready (run.py times set-up up
to that line), then runs passes until S seconds have gone and writes its
measurements to PATH as JSON. With --trace 1 the first half of the time is
untraced and the second half traced, so the two halves give the tracing
overhead. --setup-only exits right after "ready".
"""

import argparse
import glob
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import spans
import witness
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
LAUNCHER = os.path.join(ROOT, "perfbench", "launch.py")
CLI_TIMEOUT_S = 60


# in-process workloads ---------------------------------------------------------
#
# Each item becomes a zero-argument call that looks the layer function up on
# its module at call time, so installed span wrappers are seen.


def build_weil_model(seed):
    from metaplectic import weil_rep
    from metaplectic.cocycle import sl2

    models, batch = {}, []
    for it in workloads.weil_model_items(seed):
        if it["model"] not in models:
            models[it["model"]] = weil_rep.build_model(*it["model"])
        m = models[it["model"]]
        kind = it["kind"]
        if kind in ("torus", "pair", "reject"):
            g, h = sl2(*it["g"]), sl2(*it["h"])

            def call(g=g, h=h, m=m):
                return weil_rep.projective_multiplier(g, h, m)
        elif kind == "triple":
            g, h, k = sl2(*it["g"]), sl2(*it["h"]), sl2(*it["k"])

            def call(g=g, h=h, k=k, m=m):
                pm = weil_rep.projective_multiplier
                c = (pm(g, h, m), pm(g.compose(h), k, m), pm(g, h.compose(k), m), pm(h, k, m))
                return (c[0] * c[1], c[2] * c[3]) + c
        elif kind == "parity":
            cv = Fraction(1) if it["gen"][0] in ("d", "central") else None

            def call(gen=it["gen"], cv=cv, m=m):
                return weil_rep.parity_invariance_check(m, gen, chi_value=cv)
        elif kind == "twist":
            def call(a=it["a"], m=m):
                return weil_rep.twist_intertwiner_check(a, m)
        else:
            def call(a=it["a"], m=m):
                return weil_rep.whittaker_functional_exists(m, a)
        batch.append((f"{kind}@M{m.size}", it, call))
    return batch, witness.check_weil


def build_symsq(seed):
    from metaplectic import symsq

    batch = []
    for it in workloads.symsq_items(seed):
        kind = it["kind"]
        sat = symsq.SatakeData(*it["sat"][:3], chi_val=it["sat"][3]) if "sat" in it else None
        if kind == "zeta":
            def call(sat=sat, deg=it["deg"]):
                return symsq.unramified_zeta_check(sat, deg)
        elif kind == "identity":
            def call(sat=sat, deg=it["deg"]):
                return symsq.even_partition_identity_check(sat, deg)
        elif kind == "pinned":
            def call(sat=sat):
                return symsq.local_factors(sat).sym.inverse_series(10)
        elif kind == "schur":
            def call(lam=it["lam"], values=it["values"]):
                return symsq.schur_jt(lam, values)
        elif kind == "lfactor":
            def call(sat=sat):
                return symsq.local_factors(sat)
        else:
            def call(sat=sat):
                return symsq.rs_factorization_check(sat)
        label = kind if sat is None else f"{kind}@r{sat.r}" + (f"d{it['deg']}" if "deg" in it else "")
        batch.append((label, it, call))
    return batch, witness.check_symsq


def run_pass(batch):
    """Time every item; keep what it returned (or the exception type) for
    the witness step."""
    lat, outs = [], []
    started = time.perf_counter()
    for _, _, call in batch:
        t = time.perf_counter()
        try:
            out, err = call(), None
        except Exception as exc:  # an unexpected exception is a failed item
            out, err = None, type(exc).__name__
        lat.append(time.perf_counter() - t)
        outs.append((out, err))
    return time.perf_counter() - started, lat, outs


# cli-cold ---------------------------------------------------------------------------


class CliBatch:
    """The seeded script of fresh CLI processes, run one at a time."""

    def __init__(self, seed, work):
        self.work = work
        self.script, table = workloads.cli_script(seed)
        with open(os.path.join(work, "table.json"), "w") as fh:
            json.dump(table, fh)
        self.env = dict(os.environ, PYTHONPATH=SRC)

    def invoke(self, argv):
        """One fresh process; returns (seconds, exit code, stdout, stderr).
        A process that overruns the timeout is killed and fails its item."""
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                env=dict(self.env, PERFBENCH_T0=repr(t0)), cwd=self.work)
        try:
            out, err = proc.communicate(timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
        return time.monotonic() - t0, proc.returncode, out, err

    def run_pass(self, run, trace_log=None):
        """One pass over the script; with a trace_log, through the launcher,
        appending (item, spans record) per process."""
        lat, outs = [], []
        started = time.perf_counter()
        for n, item in enumerate(self.script):
            args = [a.format(work=self.work, run=run) for a in item["argv"]]
            if trace_log is None:
                head = ["-m", "metaplectic.cli"]
            else:
                # a fresh file per process: truncating a just-written file
                # can force a disk flush on some file systems
                spans_path = os.path.join(self.work, f"spans-{run}-{n}.json")
                head = [LAUNCHER, spans_path]
            elapsed, code, out, err = self.invoke([sys.executable, *head, *args])
            lat.append(elapsed)
            outs.append((code, out, err))
            if trace_log is not None:
                with open(spans_path) as fh:
                    trace_log.append((item, json.load(fh)))
                os.remove(spans_path)
        return time.perf_counter() - started, lat, outs

    def report(self, item, run):
        return os.path.join(self.work, item["report"].format(run=run)) if "report" in item else None

    def warm_up(self):
        """Fill the bytecode cache with one process; the OS caches follow."""
        self.invoke([sys.executable, "-m", "metaplectic.cli", "poles", "--r=2", "--trivial=true"])


# statistics ---------------------------------------------------------------------------


def tail(lat):
    """Latency at the highest percentile with at least ten items beyond
    it: the eleventh largest. Returns (value, percentile)."""
    xs = sorted(lat)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def summarize(pass_s, lats, labels):
    tails = [tail(lat) for lat in lats]
    by_label = {}
    for lat in lats:
        for label, x in zip(labels, lat):
            by_label.setdefault(label, []).append(1000 * x)
    return {
        "item_ms_by_kind": {k: statistics.median(v) for k, v in sorted(by_label.items())},
        "run_s": statistics.median(pass_s),
        "item_p50_ms": 1000 * statistics.median(x for lat in lats for x in lat),
        "item_tail_ms": 1000 * statistics.median(t for t, _ in tails),
        "tail_percentile": tails[0][1],
        "items_per_pass": len(lats[0]),
        "passes": len(pass_s),
    }


def timed_passes(seconds, one_pass):
    """Run passes until the time is up (at least one)."""
    results = []
    deadline = time.perf_counter() + seconds
    while not results or time.perf_counter() < deadline:
        results.append(one_pass(len(results)))
    return results


# per-layer rollup ----------------------------------------------------------------------


def layer_metrics(span_lists, passes, cold_ms, extra):
    """The per-layer metrics from the spans of the traced passes. Counts and
    busy times are per pass; latencies are medians over all spans."""
    totals = {}
    for sp in span_lists:
        spans.layer_totals(sp, totals)
    every = [s for sp in span_lists for s in sp]

    def per_pass(layer, key):
        return totals.get(layer, {}).get(key, 0) / passes

    def p50(name, tag=None, scale=1000.0):
        return scale * spans.median(spans.durations(every, name, tag))

    out = {}
    for layer in spans.LAYERS:
        out[f"{layer}.calls"] = (per_pass(layer, "calls"), "count")
        out[f"{layer}.busy_s"] = (per_pass(layer, "busy"), "s")
    mult = [s for s in every if s[spans.NAME] == "projective_multiplier"]
    out.update({
        "local_arith.hilbert_p50_us": (p50("hilbert", scale=1e6), "us"),
        "local_arith.big_place_ms": (extra.get("big_place_ms", 0.0), "ms"),
        "weil_index.cold_ms": (cold_ms, "ms"),
        "weil_index.failed": (per_pass("weil_index", "raised"), "count"),
        "cocycle.sigma_p50_us": (p50("sigma_eval", scale=1e6), "us"),
        "weil_rep.carrier_points": (sum(s[spans.TAG] for s in every if s[spans.NAME] == "op_of_word")
                                    / passes, "count"),
        "weil_rep.rejected": (per_pass("weil_rep", "rejected"), "count"),
        "weil_rep.useful_ratio": (sum(s[spans.ERROR] is None for s in mult) / len(mult)
                                  if mult else 0.0, "ratio"),
        "symsq.identity_p50_ms.r6d12": (p50("even_partition_identity_check", [6, 12]), "ms"),
        "symsq.partitions": (sum(witness.even_partitions(*s[spans.TAG]) for s in every
                                 if s[spans.NAME] in ("unramified_zeta_check", "even_partition_gf"))
                             / passes, "count"),
        "cli.invocations": (extra.get("invocations", 0) / passes, "count"),
        "cli.self_s": (sum(own for sp in span_lists
                           for s, own in zip(sp, spans.exclusive_times(sp))
                           if s[spans.LAYER] == "cli") / passes, "s"),
        "cli.import_ms": (extra.get("import_ms", 0.0), "ms"),
    })
    for m in (81, 625, 729):
        out[f"weil_rep.multiplier_p50_ms.M{m}"] = (p50("projective_multiplier", m), "ms")
    for r, d in workloads.ZETA_SIZES:
        out[f"symsq.zeta_p50_ms.r{r}d{d}"] = (p50("unramified_zeta_check", [r, d]), "ms")
    return out


def cli_trace_rollup(trace_log):
    """Spans and per-process figures from the traced CLI processes."""
    span_lists, cold, big, imports = [], 0.0, [], []
    for item, rec in trace_log:
        sp = rec["spans"]
        span_lists.append(sp)
        cold += spans.cold_gamma(sp)
        imports.append(rec["import_ms"])
        if item.get("big_place"):
            busy = spans.layer_totals(sp).get("local_arith", {}).get("busy", 0.0)
            big.append(1000 * busy)
    return span_lists, cold, {"big_place_ms": spans.median(big),
                              "import_ms": spans.median(imports),
                              "invocations": len(trace_log)}


# provenance ----------------------------------------------------------------------------


def blas_info():
    import numpy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    info = {"blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": None}
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                                  "numpy.libs", "libscipy_openblas*.so"))
    if libs:
        import ctypes

        fn = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            info["blas_threads"] = fn()
    info["numpy"] = numpy.__version__
    return info


# main ---------------------------------------------------------------------------------------


# A value the witness cannot even read (wrong type, unparsable output, a
# missing report) fails its item.
UNREADABLE = (AttributeError, IndexError, KeyError, OSError, TypeError, ValueError)


def agrees(check, *args):
    try:
        return check(*args)
    except UNREADABLE:
        return False


def check_in_process(batch, check, all_outs):
    failing = []
    for outs in all_outs:
        for (label, it, _), (out, err) in zip(batch, outs):
            if not agrees(check, it, out, err):
                failing.append({"item": label, "error": err, "got": repr(out)[:120]})
    return failing


def main_in_process(args, build):
    batch, check = build(args.seed)
    rec = spans.Recorder()
    uninstall = spans.install(rec) if args.trace else None
    run_pass(batch)  # warm-up: fills the gamma cache and lru caches
    cold_ms = 1000 * spans.cold_gamma(rec.take()) if args.trace else 0.0
    if uninstall:
        uninstall()
    print("ready", flush=True)
    if args.setup_only:
        return None
    result = {}
    seconds = args.seconds / 2 if args.trace else args.seconds
    plain = timed_passes(seconds, lambda _: run_pass(batch))
    all_outs = [outs for _, _, outs in plain]
    result.update(summarize([p for p, _, _ in plain], [lat for _, lat, _ in plain],
                            [label for label, _, _ in batch]))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        uninstall = spans.install(rec)
        span_lists = []

        def traced_pass(_):
            res = run_pass(batch)
            span_lists.append(rec.take())
            return res

        traced = timed_passes(seconds, traced_pass)
        uninstall()
        all_outs += [outs for _, _, outs in traced]
        traced_run = statistics.median(p for p, _, _ in traced)
        result["per_layer"] = layer_metrics(span_lists, len(traced), cold_ms, {})
        result["per_layer"]["trace.overhead_ratio"] = (traced_run / result["run_s"], "ratio")
    failing = check_in_process(batch, check, all_outs)
    result.update(attempted=len(batch) * len(all_outs), failed=len(failing),
                  failing=failing, unexpected=failing)
    return result


def main_cli(args):
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="cli-", dir=os.path.join(ROOT, ".perfbench_work"))
    try:
        return _main_cli(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _main_cli(args, work):
    cli = CliBatch(args.seed, work)
    cli.warm_up()
    print("ready", flush=True)
    if args.setup_only:
        return None
    seconds = args.seconds / 2 if args.trace else args.seconds
    plain = timed_passes(seconds, lambda run: cli.run_pass(run))
    result = summarize([r[0] for r in plain], [r[1] for r in plain],
                       [" ".join(item["argv"][:2]) for item in cli.script])
    # every child of this process is a CLI process, so the children's peak
    # is the largest one's
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    runs = [(run, r[2]) for run, r in enumerate(plain)]
    if args.trace:
        trace_log = []
        offset = len(plain)
        traced = timed_passes(seconds, lambda run: cli.run_pass(offset + run, trace_log))
        runs += [(offset + run, r[2]) for run, r in enumerate(traced)]
        span_lists, cold, extra = cli_trace_rollup(trace_log)
        result["per_layer"] = layer_metrics(span_lists, len(traced), 1000 * cold / len(traced), extra)
        traced_run = statistics.median(r[0] for r in traced)
        result["per_layer"]["trace.overhead_ratio"] = (traced_run / result["run_s"], "ratio")
    failing, unexpected = [], []
    for run, outs in runs:
        for item, (code, out, err) in zip(cli.script, outs):
            report = cli.report(item, run)
            if agrees(witness.check_cli, item, code, out, report):
                continue
            label = " ".join(a for a in item["argv"] if not a.startswith("--json"))
            row = {"item": label, "exit": code,
                   "stderr": err.strip()[-160:],
                   "known_defect": workloads.known_defect(item, code, err, report)}
            failing.append(row)
            if row["known_defect"] is None:
                unexpected.append(row)
    result.update(attempted=len(cli.script) * len(runs), failed=len(failing),
                  failing=failing, unexpected=unexpected)
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("weil-model", "symsq-zeta", "cli-cold"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    sys.path.insert(0, SRC)
    if args.workload == "cli-cold":
        result = main_cli(args)
    else:
        build = build_weil_model if args.workload == "weil-model" else build_symsq
        result = main_in_process(args, build)
    if result is None:
        return
    result["provenance"] = blas_info()
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1, default=str)


if __name__ == "__main__":
    main()
