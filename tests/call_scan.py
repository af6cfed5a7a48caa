"""List the package functions that nothing a user or the benchmark reaches runs.

    PYTHONPATH=src python tests/call_scan.py

Runs, in this process and under `sys.setprofile`:

  * every argv of tests/golden/cli_transcript.json, through the transcript's
    own runner, in a scratch directory that holds the transcript's files
  * the in-process benchmark batches (weil-model and symsq-zeta) at seeds 1
    and 7919, built by perfbench/worker.py, each call once
  * tests/test_acceptance.py, through pytest

It then compiles every module of the package and prints each function
(module.qualname and first line) whose code object never started, then the
count. Comprehensions are left out: they run whenever their function takes
the branch that holds them. pytest does not collect this file; it is a tool
for finding dead code, not a test. A function listed here may still be
reached by outside input or by a failing check (error and display paths,
`__repr__`), so each name is a candidate to read, not to delete.
"""

import importlib.util
import inspect
import sys
import tempfile
import types
from collections import Counter
from pathlib import Path

import metaplectic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = Path(metaplectic.__file__).resolve().parent
SEEDS = (1, 7919)
COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def _key(code):
    return code.co_filename, code.co_firstlineno, code.co_name


def package_functions():
    """(key, label) for every function code object compiled from the package."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
            # a function body has fresh locals; module and class bodies do not
            is_function = code.co_flags & inspect.CO_NEWLOCALS
            if is_function and code.co_name not in COMPREHENSIONS:
                name = getattr(code, "co_qualname", code.co_name)  # Python 3.11+
                out.append((_key(code), f"{path.stem}.{name}:{code.co_firstlineno}"))
    return out


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_transcript():
    import json

    transcript = _load(HERE / "golden" / "make_cli_transcript.py", "make_cli_transcript")
    recorded = json.loads(transcript.TRANSCRIPT.read_text())
    with tempfile.TemporaryDirectory() as work:
        transcript.write_files(recorded["files"], work)
        for entry in recorded["entries"]:
            transcript.run(entry["argv"], work)


def run_batches() -> Counter:
    """Run each item once; returns how many raised, by exception type."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import worker

    raised = Counter()
    for seed in SEEDS:
        for build in (worker.build_weil_model, worker.build_symsq):
            batch, _ = build(seed)
            for _, _, call in batch:
                try:
                    call()
                except Exception as exc:  # a rejected item still ran; the witness judges it
                    raised[type(exc).__name__] += 1
    return raised


def run_acceptance():
    import pytest

    return pytest.main(["-q", "-p", "no:cacheprovider", str(HERE / "test_acceptance.py")])


def main():
    started = set()

    def profile(frame, event, arg):
        if event == "call":
            started.add(_key(frame.f_code))

    sys.setprofile(profile)
    try:
        run_transcript()
        raised = run_batches()
        code = run_acceptance()
    finally:
        sys.setprofile(None)
    # the package may have been imported by a relative path; compare resolved ones
    resolved = {name: str(Path(name).resolve()) for name, _, _ in started}
    started = {(resolved[name], line, func) for name, line, func in started}
    never = sorted(label for key, label in package_functions() if key not in started)
    print("\n".join(never))
    print(f"batch items that raised: {dict(raised)}; acceptance exit code {code}")
    print(f"{len(never)} package functions never ran")


if __name__ == "__main__":
    main()
