"""Write cli_transcript.json: run each argv below through `metaplectic.cli.main`
in this process and record its exit code, stdout, stderr and JSON report.

    PYTHONPATH=src python tests/golden/make_cli_transcript.py

`tests/test_transcript.py` replays the file with `run` below. The transcript
pins the CLI's behaviour, so regenerate it only on purpose, and say which
entries changed and why. The argvs are:

  * the cli-cold benchmark's argvs at seeds 1 and 7919, copied from
    `perfbench/workloads.py` when the file is written, so the benchmark can
    change without changing what the transcript checks
  * every CLI example in the README, without `--timings`
  * `suite all --seed 5 --json`
  * the argvs that `tests/test_cli.py` expects to exit 2

Every argv runs in one scratch directory that holds the files below, and
"{work}" stands for that directory in the argvs, the output and the reports.
"""

import io
import json
import os
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
TRANSCRIPT = HERE / "cli_transcript.json"
CLI_COLD_SEEDS = (1, 7919)

NINES = "9" * 4000
BIG = "123456789012345678901"
# the files that the argvs below read, by name
FILES = {
    "table.json": json.dumps([{"p": p, "alphas": [1]} for p in (2, 3, 5, 7)]),
    "t.json": json.dumps([{"p": 3, "alphas": ["1/2", 2]}]),
    "big.json": json.dumps([{"p": 7, "alphas": [NINES, NINES]}]),
    "big-int.json": '[{"p": 7, "alphas": [' + "9" * 4400 + "]}]",
    "bad.json": "[{",
    "obj.json": "{}",
    "np.json": '[{"p": 4, "alphas": ["1"]}]',
    "za.json": '[{"p": 3, "alphas": ["1", "0"]}]',
    "dup.json": '[{"p": 3, "alphas": ["1"]}, {"p": 3, "alphas": ["2"]}]',
    "mf.json": '[{"p": 3}]',
    "ea.json": '[{"p": 3, "alphas": []}]',
    "nr.json": '[{"p": 3, "alphas": ["x"]}]',
    "zc.json": '[{"p": 3, "alphas": ["1"], "chi": 0}]',
}

EXIT_TWO = [
    [],
    ["suite", "bogus"],
    ["zeta", "--r", "2", "--alphas", "1,1", "--q", "7", "--deg", "-1"],
    ["zeta", "--r", "1", "--alphas", "2", "--q", "7"],
    ["weil-gamma", "--place", "2"],
    ["cocycle", "central(2,1000000000000)", "central(3,1000000000000)", "--place", "3"],
    ["cocycle", f"sl2({NINES},1,1,{NINES})", "sl2(1,0,0,1)", "--place", "3"],
    ["lfactor", "--r", "12", "--alphas", ",".join([BIG] * 12), "--q", "7"],
    ["suite", "weilrep", "--p", "11", "--N", "2"],
    ["suite", "weilrep", "--p", "5", "--N", "3"],
    ["suite", "all", "--p", "11", "--N", "2", "--json", "{work}/refused.json"],
    ["suite", "weilrep", "--N", "100000000"],
    ["suite", "all", "--N", "100000000"],
    ["suite", "all", "--p", "9", "--N", "1"],
    ["suite", "all", "--p", "3", "--N", "0"],
    ["suite", "all", "--p", "1", "--N", "100000000"],
    *(["euler", "--table", "{work}/t.json", f"--s={s}"] for s in ("1e400", "-1e400", "-1000")),
    ["ingest", "{work}/missing.json"],
    ["ingest", "{work}/big.json", "--json", "{work}/out.json"],
    ["ingest", "{work}/big-int.json"],
    *(["ingest", f"{{work}}/{name}"] for name in
      ("bad.json", "obj.json", "np.json", "za.json", "dup.json", "mf.json", "ea.json",
       "nr.json", "zc.json")),
]


def _report_path(argv):
    for i, arg in enumerate(argv):
        if arg.startswith("--json="):
            return arg[len("--json="):]
        if arg == "--json" and i + 1 < len(argv):
            return argv[i + 1]
    return None


def run(argv, work):
    """One argv run in the directory work, as a transcript entry: the exit
    code, and stdout, stderr and the --json report (None if none was
    written) as lists of lines. The report file is removed afterwards."""
    root = str(work)
    argv = [arg.replace("{work}", root) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    # argparse wraps its usage lines to the terminal width
    os.environ["COLUMNS"] = "80"
    os.chdir(root)
    try:
        from metaplectic.cli import main

        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        path = _report_path(argv)
        report = None
        if path is not None and os.path.exists(path):
            report = Path(path).read_text()
            os.remove(path)
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns

    def lines(text):
        return None if text is None else text.replace(root, "{work}").split("\n")

    return {"code": code, "stdout": lines(out.getvalue()), "stderr": lines(err.getvalue()),
            "report": lines(report)}


def write_files(files, work):
    for name, text in files.items():
        Path(work, name).write_text(text)


def _cli_cold(seed):
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import cli_script

    script, table = cli_script(seed)
    name = f"table-{seed}.json"
    argvs = [[arg.replace("{run}", "0").replace("{work}/table.json", "{work}/" + name)
              for arg in item["argv"]] for item in script]
    return argvs, {name: json.dumps(table)}


def _readme():
    text = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1]
    block = text.split("```\n", 2)[1]
    return [[arg for arg in shlex.split(line, comments=True)[1:] if arg != "--timings"]
            for line in block.splitlines() if line.startswith("metaplectic ")]


def main():
    import tempfile

    files, argvs = dict(FILES), []
    for seed in CLI_COLD_SEEDS:
        more, tables = _cli_cold(seed)
        argvs += more
        files.update(tables)
    argvs += _readme()
    argvs.append(["suite", "all", "--seed", "5", "--json", "{work}/all-5.json"])
    argvs += EXIT_TWO
    with tempfile.TemporaryDirectory() as work:
        write_files(files, work)
        entries = [{"argv": argv, **run(argv, work)} for argv in argvs]
    TRANSCRIPT.write_text(json.dumps({"files": files, "entries": entries}, indent=1) + "\n")
    print(f"{len(entries)} entries written to {TRANSCRIPT}")


if __name__ == "__main__":
    main()
