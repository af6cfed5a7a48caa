"""Every library name has a library caller: `src/` holds what a suite, the
CLI or the benchmark runs, and a name that only tests reach is flagged."""

import ast
import re
from collections import Counter
from pathlib import Path

import metaplectic

PACKAGE = Path(metaplectic.__file__).resolve().parent
PERFBENCH = PACKAGE.parent.parent / "perfbench"

# names without a library caller yet, each with the ROADMAP item that gives it one
WAITING = {
    "borel_sign": "item 12: a weilrep/kubota-coboundary suite row",
    "shintani_whittaker": "item 10: the zeta check's oracle moves into the tests",
}


def _definitions(tree):
    """(name, node) for each top-level function and class, and each method,
    the method named by its bare name. Dunders are protocol hooks that the
    interpreter calls, so they are left out."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield node.name, node
            yield from _definitions(node)
        elif isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
            yield node.name, node


def _mentions(node) -> Counter:
    """How often each identifier appears under node: as a name, as an
    attribute, or as a whole string constant."""
    seen = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            seen[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            seen[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            seen[sub.value] += 1
    return seen


def _uncalled(package=PACKAGE):
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    everywhere = sum((_mentions(tree) for tree in trees.values()), Counter())
    bench = "\n".join(path.read_text() for path in sorted(PERFBENCH.glob("*.py")))
    flagged = set()
    for tree in trees.values():
        for name, node in _definitions(tree):
            # a mention inside the definition itself (recursion, a docstring) is no caller
            if everywhere[name] > _mentions(node)[name]:
                continue
            if re.search(rf"\b{re.escape(name)}\b", bench):
                continue
            flagged.add(name)
    return flagged


def test_every_library_name_has_a_library_caller():
    assert _uncalled() == set(WAITING)


def test_the_scan_sees_a_name_only_tests_reach(tmp_path):
    # a copy of the package with one more public function that nothing calls
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "cocycle.py", "a") as fh:
        fh.write("\n\ndef orphan(x):\n    return orphan(x - 1) if x else 0\n")
    assert _uncalled(tmp_path) == set(WAITING) | {"orphan"}
