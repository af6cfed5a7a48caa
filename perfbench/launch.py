"""Run one CLI invocation with the layer spans installed.

    python3 perfbench/launch.py SPANS_OUT [cli arguments ...]

Behaves like `python -m metaplectic.cli [cli arguments ...]`: the same
output and exit code, and an uncaught exception still ends in a traceback.
At exit it also writes to SPANS_OUT the spans of this process and the time
from the spawn to the end of `import metaplectic.cli`. The spawn time is the
time.monotonic() value the parent put in PERFBENCH_T0 just before starting
this process; that clock is shared by all processes on the machine.
"""

import json
import os
import sys
import time

import metaplectic.cli as cli

IMPORTED = time.monotonic()

import spans  # noqa: E402  (imported after the clock so it is not counted)


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    rec = spans.Recorder()
    spans.install(rec)
    try:
        return rec.call("cli", "main", cli.main, (argv,), {})
    finally:
        import_ms = 1000 * (IMPORTED - float(os.environ["PERFBENCH_T0"]))
        with open(out_path, "w") as fh:
            json.dump({"import_ms": import_ms, "spans": rec.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
