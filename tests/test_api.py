"""The package surface: the names ``gitest`` exports, and no module in the
package, ``scripts/`` or ``tests/`` importing a name it never uses."""

import ast
import pathlib

import pytest

import gitest

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted(p for d in ("src/gitest", "scripts", "tests") for p in (ROOT / d).glob("*.py"))

#: the entry points the README, the CLI and the scripts call, the types they
#: take or return, and the error classes
PUBLIC = {
    "run_test", "git_test", "permutation_test", "build_scores",
    "null_moments", "brute_force_moments", "diagnostics",
    "pairwise_distances", "knn_graph", "kmst", "robust_graph",
    "generate", "estimate_power", "k_sweep", "component_power",
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
