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


def exported_names(tree: ast.AST) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


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
    exported = set(exported_names(tree))
    return [n for n in imported if n not in used and n not in exported]


def test_unused_import_detector():
    source = "import os\nimport a.b\nfrom x import y, z as w\n__all__ = ['y']\nos.sep\n"
    assert unused_imports(source) == ["a", "w"]


REPO = pathlib.Path(__file__).resolve().parents[1]
# the files whose use of a public name counts: the package, demos and benchmark
CALLER_FILES = sorted(
    p for d in ("src/coherentrx", "demos", "perfbench") for p in (REPO / d).rglob("*.py")
)


def module_name(path: pathlib.Path) -> str | None:
    """Dotted name of a package file, ``None`` for a demo or benchmark script."""
    if path.parent != REPO / "src" / "coherentrx":
        return None
    return "coherentrx" if path.stem == "__init__" else f"coherentrx.{path.stem}"


def names_used_from(tree: ast.AST, importer: str | None) -> dict[str, set[str]]:
    """Names a file imports or reads as attributes, by the module they come from.

    ``from a.b import c`` uses ``c`` of ``a.b`` and ``b`` of ``a``; when ``c``
    is a module bound by that import, ``c.d`` uses ``d`` of ``a.b.c``.
    """
    used: dict[str, set[str]] = {}
    modules: dict[str, str] = {}  # local name -> what ``from ... import`` bound it to
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            # the package is flat: a relative import names ``coherentrx`` or a module in it
            source = node.module or ""
            if node.level:
                source = "coherentrx" + (f".{source}" if source else "")
            parent, _, last = source.rpartition(".")
            if parent:
                used.setdefault(parent, set()).add(last)
            for alias in node.names:
                used.setdefault(source, set()).add(alias.name)
                modules[alias.asname or alias.name] = f"{source}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                used.setdefault(modules[node.value.id], set()).add(node.attr)
    used.pop(importer, None)
    return used


def names_read_in(tree: ast.AST) -> set[str]:
    """Names a module reads outside their own definition and unshadowed by a parameter."""
    reads = set()

    def visit(node, hidden):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            hidden = hidden | {node.name}
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
            hidden = hidden | {p.arg for p in params if p is not None}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in hidden:
            reads.add(node.id)
        for child in ast.iter_child_nodes(node):
            visit(child, hidden)

    visit(tree, frozenset())
    return reads


def test_caller_detector():
    # f reads itself only inside its own definition, and g only as a parameter
    module = ast.parse("def f(g):\n    return g + f(1)\ndef h():\n    pass\nh()\n")
    assert names_read_in(module) & {"f", "g", "h"} == {"h"}
    script = ast.parse(
        "from coherentrx import simulator as s\nfrom coherentrx.tree import leaf_index\ns.path_probs\n"
    )
    assert names_used_from(script, None) == {
        "coherentrx": {"simulator", "tree"},
        "coherentrx.tree": {"leaf_index"},
        "coherentrx.simulator": {"path_probs"},
    }


def test_public_names_have_a_caller_outside_tests():
    parsed = {path: ast.parse(path.read_text()) for path in CALLER_FILES}
    used: dict[str, set[str]] = {}
    for path, tree in parsed.items():
        for module, names in names_used_from(tree, module_name(path)).items():
            used.setdefault(module, set()).update(names)
    uncalled = []
    for path, tree in parsed.items():
        module = module_name(path)
        if module is None:
            continue
        callers = used.get(module, set()) | names_read_in(tree)
        uncalled += [f"{module}.{n}" for n in exported_names(tree) if n not in callers]
    assert uncalled == []


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


def test_import_loads_no_scipy_and_lazy_scipy_results_match(monkeypatch):
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
        "from coherentrx import baselines; "
        "from coherentrx.baselines import dolinar_tree, heterodyne_sql; "
        "from coherentrx.constellation import bpsk; "
        "baselines._GRID_POINTS = 101; "
        "print(dolinar_tree(0.5, 2).nodes.tobytes().hex()); "
        "print(heterodyne_sql(bpsk(0.5)).hex())"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    monkeypatch.setattr("coherentrx.baselines._GRID_POINTS", 101)
    expected = [
        dolinar_tree(0.5, 2).nodes.tobytes().hex(),
        heterodyne_sql(bpsk(0.5)).hex(),
    ]
    assert proc.stdout.split() == expected


def scipy_imports(tree: ast.AST) -> list[str]:
    """Names of the functions that import scipy, ``<module>`` at top level."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Import):
            found.extend(owner for a in node.names if a.name.split(".")[0] == "scipy")
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return found


def test_scipy_import_detector():
    source = "import scipy.special\ndef f():\n    from scipy import integrate\n    def g():\n        import os, scipy\n"
    assert scipy_imports(ast.parse(source)) == ["<module>", "f", "g"]


def test_only_heterodyne_sql_imports_scipy():
    found = {
        path.name: scipy_imports(ast.parse(path.read_text()))
        for path in sorted((REPO / "src" / "coherentrx").glob("*.py"))
    }
    assert {name: owners for name, owners in found.items() if owners} == {
        "baselines.py": ["heterodyne_sql"]
    }


def test_dolinar_receiver_and_baseline_cli_load_no_scipy(tmp_path):
    src = str(pathlib.Path(coherentrx.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); "
        "from coherentrx import cli; from coherentrx.baselines import dolinar_receiver; "
        "dolinar_receiver(0.5, 4); "
        "code = cli.main(['baseline', '--receivers', 'dolinar', '--rounds', '2', "
        f"'--sweep', '0.5', '--out-dir', {str(tmp_path / 'curves')!r}]); "
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "curves" / "dolinar.csv").exists()
