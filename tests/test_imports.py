"""The package root resolves its names lazily, numpy loads only where it is
used (the finite Weil model and the two brute-force oracles), and each CLI
command loads only the package modules it runs."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import metaplectic
from metaplectic import cocycle, local_arith, symsq, weil_index, weil_rep

# the package's public names, each with the submodule that defines it
# (None for the error classes)
PUBLIC = {
    "AdditiveCharacter": weil_index,
    "ConvergenceDomainError": None,
    "DataError": None,
    "DomainError": None,
    "EighthRoot": weil_index,
    "ModelInconsistencyError": None,
    "OracleConsistencyError": None,
    "Place": local_arith,
    "PreconditionError": None,
    "SatakeData": symsq,
    "StructuredElement": cocycle,
    "UnramifiedCharacter": cocycle,
    "UnsupportedDomainError": None,
    "build_model": weil_rep,
    "gamma": weil_index,
    "hilbert": local_arith,
    "local_factors": symsq,
    "mu": weil_index,
    "pole_report": symsq,
    "projective_multiplier": weil_rep,
    "sigma_eval": cocycle,
    "square_class_rep": local_arith,
    "unramified_zeta_check": symsq,
}

SRC = Path(metaplectic.__file__).resolve().parent.parent


# package root -----------------------------------------------------------------


def test_all_lists_the_public_names():
    assert set(metaplectic.__all__) == set(PUBLIC)


def test_star_import_binds_the_submodule_objects():
    ns = {}
    exec("from metaplectic import *", ns)
    for name, module in PUBLIC.items():
        owner = module if module is not None else metaplectic.errors
        assert ns[name] is getattr(owner, name), name
        assert getattr(metaplectic, name) is ns[name], name


def test_lazy_name_works():
    model = metaplectic.build_model(3, 1)
    assert model.size == 9


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        metaplectic.no_such_name
    assert not hasattr(metaplectic, "no_such_name")


def test_dir_lists_the_lazy_names():
    assert set(PUBLIC) <= set(dir(metaplectic))


# numpy only where it is used ------------------------------------------------------

# Runs the CLI in this process and reports whether numpy was loaded at exit.
PROBE = """\
import sys
from metaplectic.cli import main
code = main(sys.argv[1:]) if sys.argv[1:] else 0
print("numpy loaded:", "numpy" in sys.modules)
sys.exit(code)
"""

TABLE = [{"p": p, "alphas": ["1/2", 2], "chi": 1} for p in (3, 5, 7)]

NUMPY_FREE = {
    "import-only": [],
    "hilbert": ["hilbert", "-a", "3", "-b", "5", "--place", "1000000000000037"],
    "cocycle": ["cocycle", "torus(2,3)", "torus(3,5)", "--place", "3"],
    "weil-gamma": ["weil-gamma", "--place", "23", "--scale", "23"],
    "weil-mu": ["weil-mu", "-a", "2", "--place", "7", "--scale", "3"],
    "lfactor": ["lfactor", "--r", "2", "--alphas", "1/2,3", "--q", "7"],
    "zeta": ["zeta", "--r", "2", "--alphas", "1/2,3", "--q", "7", "--deg", "6"],
    "poles": ["poles", "--r", "2", "--trivial", "true"],
    "suite-cocycles": ["suite", "cocycles"],
    # a filtered `suite all` builds only the suites its prefix can match
    "suite-all-filtered": ["suite", "all", "--suite", "cocycles/normalization"],
    "suite-weil": ["suite", "weil"],
    "suite-symsq": ["suite", "symsq"],
    "ingest": ["ingest", "{table}"],
    "euler": ["euler", "--table", "{table}", "--s", "2"],
}


def _numpy_loaded(argv, tmp_path):
    table = tmp_path / "table.json"
    table.write_text(json.dumps(TABLE))
    argv = [a.replace("{table}", str(table)) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.rstrip().splitlines()[-1]
    assert last.startswith("numpy loaded: "), proc.stdout
    return last == "numpy loaded: True"


@pytest.mark.parametrize("argv", NUMPY_FREE.values(), ids=NUMPY_FREE.keys())
def test_command_does_not_load_numpy(argv, tmp_path):
    assert not _numpy_loaded(argv, tmp_path)


def test_weilrep_suite_loads_numpy(tmp_path):
    assert _numpy_loaded(["suite", "weilrep"], tmp_path)


# each command loads only the library modules it runs ---------------------------------

# Put first on the path of a `python -m metaplectic.cli` process: at exit it
# writes the package modules the process loaded to the file named in
# MODULES_OUT. The -m form runs cli as __main__, so metaplectic.cli must not
# appear: a `from .cli import ...` anywhere would compile cli.py twice.
SITECUSTOMIZE = """\
import atexit
import os
import sys


def _report():
    names = sorted(m for m in sys.modules if m.split(".")[0] == "metaplectic")
    with open(os.environ["MODULES_OUT"], "w") as fh:
        fh.write("\\n".join(names))


atexit.register(_report)
"""

# every command parses a place or a prime
ALWAYS = {"metaplectic", "metaplectic.errors", "metaplectic.local_arith"}

# command -> (argv, the modules it loads besides ALWAYS)
LOADS = {
    "hilbert": (NUMPY_FREE["hilbert"], ()),
    "weil-gamma": (NUMPY_FREE["weil-gamma"], ("weil_index",)),
    "weil-mu": (NUMPY_FREE["weil-mu"], ("weil_index",)),
    "cocycle": (NUMPY_FREE["cocycle"], ("cocycle",)),
    "lfactor": (NUMPY_FREE["lfactor"], ("symsq",)),
    "zeta": (NUMPY_FREE["zeta"], ("symsq",)),
    "poles": (NUMPY_FREE["poles"], ("symsq",)),
    "ingest": (NUMPY_FREE["ingest"], ("symsq",)),
    "euler": (NUMPY_FREE["euler"], ("symsq",)),
    "suite-symbols": (["suite", "symbols"], ("checks",)),
    "suite-weil": (NUMPY_FREE["suite-weil"], ("checks", "weil_index")),
    "suite-cocycles": (NUMPY_FREE["suite-cocycles"], ("checks", "cocycle")),
    "suite-all-filtered": (NUMPY_FREE["suite-all-filtered"], ("checks", "cocycle")),
    "suite-symsq": (NUMPY_FREE["suite-symsq"], ("checks", "symsq")),
}


def _modules_loaded(argv, tmp_path):
    table = tmp_path / "table.json"
    table.write_text(json.dumps(TABLE))
    argv = [a.replace("{table}", str(table)) for a in argv]
    hook = tmp_path / "hook"
    hook.mkdir()
    (hook / "sitecustomize.py").write_text(SITECUSTOMIZE)
    out = tmp_path / "modules.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "metaplectic.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(hook), str(SRC)]),
             "MODULES_OUT": str(out)},
        cwd=tmp_path,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(out.read_text().split("\n"))


@pytest.mark.parametrize("argv, extra", LOADS.values(), ids=LOADS.keys())
def test_command_loads_only_its_modules(argv, extra, tmp_path):
    loaded = _modules_loaded(argv, tmp_path)
    assert "metaplectic.cli" not in loaded
    if argv[0] != "suite":
        assert "metaplectic.checks" not in loaded  # only suites compile the checks
    assert loaded == ALWAYS | {f"metaplectic.{m}" for m in extra}


# the benchmark's traced names ---------------------------------------------------------

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced_layers():
    """LAYERS from the benchmark's span installer, read as a literal so the
    benchmark is neither imported nor run."""
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {SPANS}")


def test_every_traced_name_exists():
    # a traced run fetches each name with getattr; a deleted one breaks it
    layers = _traced_layers()
    assert set(layers) == {"local_arith", "weil_index", "cocycle", "weil_rep", "symsq"}
    for layer, names in layers.items():
        module = importlib.import_module(f"metaplectic.{layer}")
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert not missing, (layer, missing)
