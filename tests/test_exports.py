"""Module hygiene: exported names exist, and imported names are used."""

import ast
import importlib
import pathlib
import pkgutil
import re
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
        "from coherentrx import simulator as s\nfrom coherentrx.tree import leaf_index\ns.map_table\n"
    )
    assert names_used_from(script, None) == {
        "coherentrx": {"simulator", "tree"},
        "coherentrx.tree": {"leaf_index"},
        "coherentrx.simulator": {"map_table"},
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


# the outcome-probability kernels and the modules that may read them: every
# other outcome probability comes from the simulator's forward recursion
KERNELS = {"outcome_probs", "outcome_prob_derivs"}
KERNEL_READERS = {"coherentrx.photonics", "coherentrx.simulator"}


def test_only_photonics_and_simulator_read_the_outcome_kernels():
    readers = {}
    for path in CALLER_FILES:
        module = module_name(path)
        if module in KERNEL_READERS:
            continue
        used = names_used_from(ast.parse(path.read_text()), module).get("coherentrx.photonics", set())
        if used & KERNELS:
            readers[path.relative_to(REPO).as_posix()] = sorted(used & KERNELS)
    assert readers == {}


# the simulator's forward recursion, its draw chunks and the gradient sweep:
# every other module walks a tree through the simulator's functions
FORWARD_INTERNALS = {"_forward", "_draw_chunks", "_sensitivities"}


def test_only_simulator_reads_the_forward_recursion():
    readers = {}
    for path in CALLER_FILES:
        module = module_name(path)
        if module == "coherentrx.simulator":
            continue
        used = names_used_from(ast.parse(path.read_text()), module).get("coherentrx.simulator", set())
        if used & FORWARD_INTERNALS:
            readers[path.relative_to(REPO).as_posix()] = sorted(used & FORWARD_INTERNALS)
    assert readers == {}


# each half of the detected-mean range rule, stated once on the type that
# holds its values: the spec loader's bound in tree, the amplitude cap in
# constellation
RANGE_CONSTANTS = {"_MAX_MEAN_PHOTONS": "src/coherentrx/tree.py", "_MAX_AMPLITUDE": "src/coherentrx/constellation.py"}


def test_only_the_owning_module_names_each_range_constant():
    namers = {}
    for path in CALLER_FILES:
        for node in ast.walk(ast.parse(path.read_text())):
            # a variable, an attribute or an imported name
            for name in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)):
                if name in RANGE_CONSTANTS:
                    namers.setdefault(name, set()).add(path.relative_to(REPO).as_posix())
    assert namers == {name: {owner} for name, owner in RANGE_CONSTANTS.items()}


def public_methods(tree: ast.AST) -> list[str]:
    """``Class.method`` for each public method or property of an exported class."""
    exported = set(exported_names(tree))
    return [
        f"{node.name}.{item.name}"
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name in exported
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_")
    ]


def test_public_method_detector():
    module = ast.parse(
        "__all__ = ['A']\nclass A:\n    def f(self):\n        pass\n"
        "    def _g(self):\n        pass\n    @property\n    def h(self):\n        pass\n"
        "class B:\n    def k(self):\n        pass\n"
    )
    assert public_methods(module) == ["A.f", "A.h"]


def test_public_methods_have_a_caller_outside_tests():
    # a caller is any file of the package, demos or benchmark that reads the
    # name as an attribute, whatever the object
    parsed = {path: ast.parse(path.read_text()) for path in CALLER_FILES}
    attributes = {
        node.attr for tree in parsed.values() for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }
    uncalled = [
        f"{module_name(path)}.{method}"
        for path, tree in parsed.items()
        if module_name(path) is not None
        for method in public_methods(tree)
        if method.rpartition(".")[2] not in attributes
    ]
    assert uncalled == []


def defaulted_parameters(tree: ast.AST) -> list[tuple[str, str, int | None]]:
    """``(function, parameter, position)`` for each defaulted parameter of an exported function.

    ``position`` is the index among the positional parameters, ``None`` for a
    keyword-only one.
    """
    exported = set(exported_names(tree))
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in exported:
            a = node.args
            positional = a.posonlyargs + a.args
            for i, p in enumerate(positional[len(positional) - len(a.defaults) :]):
                found.append((node.name, p.arg, len(positional) - len(a.defaults) + i))
            found += [(node.name, p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return found


def passes(call: ast.Call, parameter: str, position: int | None) -> bool:
    """Whether a call passes a parameter: by keyword, by position or through a starred argument."""
    if any(k.arg in (parameter, None) for k in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return position is not None and len(call.args) > position


def calls_by_name(trees) -> dict[str, list[ast.Call]]:
    """Every call in some files, by the name called (``f(...)`` and ``x.f(...)`` alike)."""
    found: dict[str, list[ast.Call]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                found.setdefault(name, []).append(node)
    return found


def test_defaulted_parameter_detector():
    module = ast.parse(
        "__all__ = ['f', 'g']\ndef f(a, b=1, *, c=2, d):\n    pass\n"
        "def g(x=0):\n    pass\ndef h(y=0):\n    pass\n"
    )
    assert defaulted_parameters(module) == [("f", "b", 1), ("f", "c", None), ("g", "x", 0)]
    calls = calls_by_name([ast.parse("f(1, 2)\nm.f(1, c=3)\ng(*xs)\nh()\n")])
    assert [passes(call, "b", 1) for call in calls["f"]] == [True, False]
    assert [passes(call, "c", None) for call in calls["f"]] == [False, True]
    assert passes(calls["g"][0], "x", 0)
    assert not passes(calls["h"][0], "y", 0)


def test_public_parameters_are_passed_outside_tests():
    # a parameter with a default that no package, demo or benchmark call
    # passes is an option only tests set
    parsed = {path: ast.parse(path.read_text()) for path in CALLER_FILES}
    calls = calls_by_name(parsed.values())
    unpassed = [
        f"{module_name(path)}.{function}({parameter})"
        for path, tree in parsed.items()
        if module_name(path) is not None
        for function, parameter, position in defaulted_parameters(tree)
        if not any(passes(call, parameter, position) for call in calls.get(function, []))
    ]
    assert unpassed == []


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


def test_import_loads_no_scipy_and_results_match_a_scipy_process(monkeypatch):
    src = str(pathlib.Path(coherentrx.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import coherentrx, coherentrx.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"

    # a process that never loads scipy gives the bytes of this one, which has
    # loaded it for the tests' oracles
    from coherentrx.baselines import dolinar_tree, heterodyne_sql
    from coherentrx.constellation import bpsk, qam6

    code = (
        f"import sys; sys.path.insert(0, {src!r}); import coherentrx; "
        "from coherentrx import baselines; "
        "from coherentrx.baselines import dolinar_tree, heterodyne_sql; "
        "from coherentrx.constellation import bpsk, qam6; "
        "baselines._GRID_POINTS = 101; "
        "print(dolinar_tree(0.5, 2).nodes.tobytes().hex()); "
        "print(heterodyne_sql(bpsk(0.5)).hex()); "
        "print(heterodyne_sql(qam6(7.8)).hex()); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    importlib.import_module("scipy.integrate")
    monkeypatch.setattr("coherentrx.baselines._GRID_POINTS", 101)
    expected = [
        dolinar_tree(0.5, 2).nodes.tobytes().hex(),
        heterodyne_sql(bpsk(0.5)).hex(),
        heterodyne_sql(qam6(7.8)).hex(),
        "[]",
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


def test_no_module_imports_scipy():
    found = {
        path.name: scipy_imports(ast.parse(path.read_text()))
        for path in sorted((REPO / "src" / "coherentrx").glob("*.py"))
    }
    assert {name: owners for name, owners in found.items() if owners} == {}


def runtime_imports(tree: ast.AST) -> list[str]:
    """Top-level names of what a module imports, ``coherentrx`` for a relative import."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append("coherentrx" if node.level else (node.module or "").split(".")[0])
    return found


def test_runtime_dependency_is_numpy_alone():
    allowed = set(sys.stdlib_module_names) | {"numpy", "coherentrx"}
    foreign = {
        path.name: sorted(set(runtime_imports(ast.parse(path.read_text()))) - allowed)
        for path in sorted((REPO / "src" / "coherentrx").glob("*.py"))
    }
    assert {name: mods for name, mods in foreign.items() if mods} == {}
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    with open(REPO / "pyproject.toml", "rb") as f:
        deps = tomllib.load(f)["project"]["dependencies"]
    assert [re.match(r"[A-Za-z0-9_.-]+", d).group() for d in deps] == ["numpy"]


def test_runtime_import_detector():
    source = (
        "from __future__ import annotations\nimport os.path, numpy as np\n"
        "from . import tree\nfrom .tree import x\ndef f():\n    from scipy import integrate\n"
    )
    assert runtime_imports(ast.parse(source)) == [
        "__future__", "os", "numpy", "coherentrx", "coherentrx", "scipy"
    ]


def test_dolinar_receiver_and_baseline_cli_load_no_scipy(tmp_path):
    src = str(pathlib.Path(coherentrx.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); "
        "from coherentrx import cli; from coherentrx.baselines import dolinar_receiver, heterodyne_sql; "
        "from coherentrx.constellation import qam6; "
        "dolinar_receiver(0.5, 4); heterodyne_sql(qam6(2.0)); "
        "code = cli.main(['baseline', '--receivers', 'dolinar', '--rounds', '2', "
        f"'--sweep', '0.5', '--out-dir', {str(tmp_path / 'curves')!r}]); "
        "code += cli.main(['baseline', '--receivers', 'heterodyne', '--encoding', 'qam6', "
        f"'--sweep', '0.5,2.0', '--out-dir', {str(tmp_path / 'sql')!r}]); "
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "curves" / "dolinar.csv").exists()
    assert (tmp_path / "sql" / "heterodyne.csv").exists()


def test_every_cli_subcommand_loads_no_scipy(tmp_path):
    src = str(pathlib.Path(coherentrx.__file__).parents[1])
    spec = str(tmp_path / "rx.json")
    runs = [
        ["optimize", "--encoding", "qam6", "--rounds", "2", "--arity", "2", "--mean-photon", "2.0",
         "--iters", "2", "--batch", "2", "--phase-jitter", "0.02", "--out", spec],
        ["evaluate", "--spec", spec, "--sweep", "1.0,2.0", "--mc-samples", "1000", "--batch", "2",
         "--reoptimize", "--iters", "2", "--out", str(tmp_path / "sweep.csv")],
        ["metrics", "--spec", spec, "--batch", "2", "--out-dir", str(tmp_path / "metrics")],
        ["baseline", "--receivers", "helstrom,homodyne,heterodyne,kennedy,cn,dolinar",
         "--rounds", "2", "--sweep", "0.5", "--out-dir", str(tmp_path / "curves")],
    ]
    code = (
        f"import sys; sys.path.insert(0, {src!r}); from coherentrx import cli; "
        f"codes = [cli.main(argv) for argv in {runs!r}]; "
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0] []"
