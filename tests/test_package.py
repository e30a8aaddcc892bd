import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quonalg

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
MODULES = sorted(Path(quonalg.__file__).resolve().parent.glob("*.py"))

# Exports that no module, demo or benchmark file loads, each with its reason.
UNCALLED_EXPORTS = {}


def test_all_lists_each_name_once_and_every_name_resolves():
    assert len(quonalg.__all__) == len(set(quonalg.__all__))
    for name in quonalg.__all__:
        assert hasattr(quonalg, name), name


def test_all_is_exactly_what_init_imports_from_the_modules():
    tree = ast.parse(Path(quonalg.__file__).read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert sorted(imported) == sorted(quonalg.__all__)


def test_every_export_has_a_caller():
    # a caller loads the name or attribute; imports and docstrings do not count
    callers = [path for path in MODULES if path.name != "__init__.py"] + DEMOS
    callers += [path for path in (ROOT / "bench").glob("*.py") if not path.name.startswith("test_")]
    loaded = set()
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    uncalled = {name for name in quonalg.__all__ if name not in loaded}
    assert uncalled == set(UNCALLED_EXPORTS)


SOURCES = MODULES + sorted((ROOT / "tests").glob("*.py")) + DEMOS


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_imported_name_is_loaded(path):
    # an import that nothing loads is dead, unless its line says it is kept
    # (# noqa: F401); a name listed in __all__ is loaded by its importers
    text = path.read_text()
    lines, tree = text.splitlines(), ast.parse(text)
    loaded, imported = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            loaded |= {e.value for e in node.value.elts}
        elif isinstance(node, ast.Import):
            imported += [(a.asname or a.name.split(".")[0], a.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(a.asname or a.name, a.lineno) for a in node.names]
    unused = [
        f"{name}:{line}"
        for name, line in imported
        if name not in loaded and "# noqa: F401" not in lines[line - 1]
    ]
    assert unused == []


def test_no_module_uses_floats():
    floats = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            literal = isinstance(node, ast.Constant) and isinstance(node.value, float)
            call = (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
            )
            if literal or call:
                floats.append(f"{path.name}:{node.lineno}")
    assert floats == []


@pytest.mark.parametrize("layer", ["group_algebra", "linalg", "gram", "quon_engine", "posdef"])
def test_layer_computes_without_quotients(layer):
    # RationalFunction belongs to the print and parse boundary only
    source = (Path(quonalg.__file__).resolve().parent / f"{layer}.py").read_text()
    assert "RationalFunction" not in source


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_imports_a_private_name_of_another(path):
    # a helper shared between modules is public; a private one has one home
    tree = ast.parse(path.read_text())
    private, sibling_modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("quonalg")):
            for alias in node.names:
                if node.module is None:  # from . import linalg
                    sibling_modules.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    private.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in sibling_modules
            and node.attr.startswith("_")
        ):
            private.append(f"{node.value.id}.{node.attr}")
    assert private == []


def test_demos_are_present():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    src = str(Path(quonalg.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_linear_algebra_oracles_import_nothing_from_linalg():
    # plain_det, fraction_det and fraction_minors check quonalg.linalg; an
    # oracle that imported from it would share the code it checks.
    tree = ast.parse((ROOT / "tests" / "lemmas.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [f"{node.module}.{alias.name}" for alias in node.names]
    assert imported and not [
        name for name in imported if name == "quonalg.linalg" or name.startswith("quonalg.linalg.")
    ]


def test_column_oracles_read_no_symmetry_code():
    # cosym_column_reference and rep_column_reference check the columns
    # that GroupTable.columns transports; an oracle that read the orbit maps
    # would share the code it checks.
    tree = ast.parse((ROOT / "tests" / "lemmas.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    assert {"walk", "group_table"} <= names
    symmetry = {"columns", "_symmetries", "_maps", "build_gram", "cosym_column", "rep_matrix"}
    assert not names & symmetry
