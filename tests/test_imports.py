import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mudet"


def unused_imports(source: str) -> list:
    """Names a module imports but never reads; ``__all__`` counts as a read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_caught():
    source = "from .numkit import as_complex_matrix, cholesky\n\ncholesky(1)\n"
    assert unused_imports(source) == [(1, "as_complex_matrix")]
    assert unused_imports("import numpy as np\n__all__ = ['np']\n") == []


def foreign_imports(source: str) -> list:
    """Top-level packages a module imports that are not numpy, mudet or the
    standard library: CI installs ``mudet`` with numpy alone."""
    allowed = {"numpy", "mudet"} | set(sys.stdlib_module_names)
    tops = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            tops += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:  # relative is mudet
            tops.append((node.lineno, node.module.split(".")[0]))
    return sorted((line, top) for line, top in tops if top not in allowed)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_numpy_and_the_standard_library(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def test_foreign_import_is_caught():
    source = "import math\nimport scipy.linalg\nfrom numpy.linalg import qr\nfrom . import fec\n"
    assert foreign_imports(source) == [(2, "scipy")]
    assert foreign_imports("from scipy import linalg\n") == [(1, "scipy")]


def names_read(source: str) -> set:
    """Every bare name and attribute name a module reads."""
    tree = ast.parse(source)
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }


def test_every_error_class_is_named_by_another_module():
    # an exception class no other module raises, catches or subclasses is dead
    errors = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    classes = [node.name for node in errors.body if isinstance(node, ast.ClassDef)]
    named = set().union(
        *(names_read(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py") if p.name != "errors.py")
    )
    assert classes and [name for name in classes if name not in named] == []
