"""The package surface: the names ``gitest`` exports, no module in the
package, ``scripts/`` or ``tests/`` importing a name it never uses, and no
library function or class that only tests read."""

import ast
import pathlib

import pytest

import gitest

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted(p for d in ("src/gitest", "scripts", "tests") for p in (ROOT / d).glob("*.py"))
#: the code that runs: the package, the scripts and the benchmark harness,
#: whose test_*.py and conftest.py are tests
RUNNING = sorted(p for d in ("src/gitest", "scripts", "perfbench") for p in (ROOT / d).glob("*.py")
                 if not p.name.startswith("test_") and p.name != "conftest.py")

#: the entry points the README, the CLI and the scripts call, the types they
#: take or return, and the error classes
PUBLIC = {
    "run_test", "git_test", "permutation_test", "build_scores",
    "null_moments", "diagnostics",
    "pairwise_distances", "knn_graph", "kmst", "robust_graph",
    "generate", "estimate_power",
    "ScoreMatrix", "Digraph", "UndirectedGraph", "ScoreConfig", "QuadrupleInputs",
    "NullMoments", "GitResult", "SettingSpec", "PowerEstimate",
    "GitestError", "StructuralError", "DegenerateDataError",
}


def test_public_names():
    assert len(gitest.__all__) == len(PUBLIC)
    assert set(gitest.__all__) == PUBLIC
    for name in gitest.__all__:
        assert getattr(gitest, name) is not None, name


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; names listed in its
    ``__all__`` count as read."""
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom a import b, c\n__all__ = ['c']\nnp.zeros(1)\n"
    assert unused_imports(source) == ["b", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def top_level_definitions(source: str) -> set[str]:
    """The functions and classes a module defines at its top level."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def names_read(source: str) -> set[str]:
    """Every name a module reads, bare or as an attribute."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_definitions_and_reads_are_found():
    source = "import m\nclass A: pass\ndef f(): return m.g(h)\nx = A\nm.y = 1\n"
    assert top_level_definitions(source) == {"A", "f"}
    assert names_read(source) == {"m", "g", "h", "A"}


def test_no_library_code_only_tests_read():
    """A top-level function or class of the package that no running module
    reads, and that the package does not export, belongs in the tests."""
    defined = set().union(*(top_level_definitions(p.read_text(encoding="utf-8"))
                            for p in (ROOT / "src/gitest").glob("*.py")))
    read = set().union(*(names_read(p.read_text(encoding="utf-8")) for p in RUNNING))
    assert sorted(defined - read - set(gitest.__all__)) == []
