"""The package root resolves its names lazily, and numpy loads only where it
is used: the finite Weil model and the two brute-force oracles."""

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
