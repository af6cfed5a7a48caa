"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it needs the package sources under
src/ and nothing installed. Workloads (see README.md for why each exists):

    weil-model   finite Weil model multipliers and checks at M = 81, 625, 729
    symsq-zeta   symmetric-square zeta assembly and identities, exact rationals
    cli-cold     a script of fresh `python -m metaplectic.cli` processes

With --trace 0 it starts SETUP_SAMPLES worker processes, each of which sets
the workload up; the last one then times passes over the batch for S
seconds. It prints the end-to-end metrics. With --trace 1 it starts one
worker that times half the passes plain and half with layer spans, and
prints the per-layer metrics. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The full record, with
provenance and the list of failed items, goes to .perfbench_out/.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 3
# A worker may overrun --seconds by its last pass; set-up and the witness
# checks come on top. Past twice the run length plus this margin it is killed.
WORKER_MARGIN_S = 150
HELD_OUT_SEED = 7919


def spawn_worker(args, out_path=None):
    """Start one worker and return the seconds from spawn until it printed
    "ready". Without out_path the worker only sets up."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += ["--out", out_path] if out_path else ["--setup-only"]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    watchdog = threading.Timer(2 * args.seconds + WORKER_MARGIN_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        setup_s = time.monotonic() - t0
        proc.communicate()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        sys.exit(f"worker failed with exit code {proc.returncode}: {' '.join(cmd)}")
    return setup_s


def git_commit():
    """HEAD of the checkout, read from .git without running git; a checkout
    exported without .git reports 'unknown'."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, worker_info):
    return {
        "workload": args.workload, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), **worker_info,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(), "commit": git_commit(),
        "machine_tuning": "none: no pinning, no cache dropping, BLAS threads left at default",
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("weil-model", "symsq-zeta", "cli-cold"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "metaplectic", "cli.py")):
        sys.exit(f"no package sources under {os.path.join(ROOT, 'src')}; run from a checkout")

    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    setups = [] if args.trace else [spawn_worker(args) for _ in range(SETUP_SAMPLES - 1)]
    setups.append(spawn_worker(args, out_path))
    with open(out_path) as fh:
        res = json.load(fh)

    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in res["per_layer"].items()}
    else:
        values = {
            "setup_s": (statistics.median(setups), "s"),
            "run_s": (res["run_s"], "s"),
            "item_p50_ms": (res["item_p50_ms"], "ms"),
            "item_tail_ms": (res["item_tail_ms"], "ms"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
            "pass_ratio": (1 - res["failed"] / res["attempted"], "ratio"),
        }
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
    record = {
        "correct": not res["unexpected"], "attempted": res["attempted"], "failed": res["failed"],
        "metrics": metrics,
    }
    res.update(setup_samples_s=setups, provenance=provenance(args, res.pop("provenance")),
               fail_ratio=res["failed"] / res["attempted"], result=record)
    with open(out_path, "w") as fh:
        json.dump(res, fh, indent=1)

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {res['passes']} passes of "
          f"{res['items_per_pass']} items; tail = p{res['tail_percentile']:.1f} "
          f"(the eleventh slowest item of each pass)")
    print(f"fail_ratio {res['fail_ratio']:.4f} ({res['failed']}/{res['attempted']}); "
          f"unexpected failures: {len(res['unexpected'])}")
    for row in {r["item"]: r for r in res["failing"]}.values():
        print(f"  failed: {row['item']} [{row.get('known_defect') or 'unexpected'}]")
    print("provenance: " + json.dumps(res["provenance"], sort_keys=True))
    print(json.dumps(record))


if __name__ == "__main__":
    main()
