"""Module hygiene: exported names exist, and imported names are used."""

import ast
import importlib
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import coherentrx

MODULES = ["coherentrx"] + [
    f"coherentrx.{info.name}" for info in pkgutil.iter_modules(coherentrx.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def unused_imports(source: str) -> list[str]:
    """Names a module imports but neither uses nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                # ``import a.b`` binds ``a``
                imported.append(alias.asname or alias.name.split(".")[0])
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return [n for n in imported if n not in used and n not in exported]


def test_unused_import_detector():
    source = "import os\nimport a.b\nfrom x import y, z as w\n__all__ = ['y']\nos.sep\n"
    assert unused_imports(source) == ["a", "w"]


def test_import_starts_no_process_machinery():
    src = str(pathlib.Path(coherentrx.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import coherentrx, coherentrx.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    path = pathlib.Path(importlib.import_module(name).__file__)
    assert unused_imports(path.read_text()) == []


def test_import_loads_no_scipy_and_lazy_scipy_results_match():
    src = str(pathlib.Path(coherentrx.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import coherentrx, coherentrx.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"

    # the routines that import scipy on first use give the bytes they give
    # in a process that has loaded it already
    from coherentrx.baselines import dolinar_tree, heterodyne_sql
    from coherentrx.constellation import bpsk

    code = (
        f"import sys; sys.path.insert(0, {src!r}); import coherentrx; "
        "from coherentrx.baselines import dolinar_tree, heterodyne_sql; "
        "from coherentrx.constellation import bpsk; "
        "print(dolinar_tree(0.5, 2, grid_points=101).nodes.tobytes().hex()); "
        "print(heterodyne_sql(bpsk(0.5)).hex())"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    expected = [
        dolinar_tree(0.5, 2, grid_points=101).nodes.tobytes().hex(),
        heterodyne_sql(bpsk(0.5)).hex(),
    ]
    assert proc.stdout.split() == expected
