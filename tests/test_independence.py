"""The four counting pipelines stay independent: brute force imports no
generating tree, the closed forms read no count table, the recurrences
never call the simulator or the succession rule, and the simulators run
the rule through the one engine, which names no tree and no recurrence.

Every module of the package is held to a table of the package modules it
may import, so a module added without an entry fails, and imports no
underscore-prefixed name from another package module."""

import ast
import importlib
import inspect
import pathlib

import pytest

import ascentseq
from ascentseq import cli, core, gentree, gentree_0021, gentree_pair, series, verify

# module -> the package modules it imports, exactly
ALLOWED_IMPORTS = {
    "__init__": set(),
    "core": set(),
    "series": set(),
    "gentree": set(),
    "gentree_pair": {"gentree"},
    "gentree_0021": {"gentree"},
    "verify": {"core", "series", "gentree_pair", "gentree_0021"},
    "cli": {"core", "series", "gentree_pair", "gentree_0021", "verify"},
}

MODULES = sorted(p.stem for p in pathlib.Path(ascentseq.__file__).parent.glob("*.py"))


def _tree(module) -> ast.Module:
    return ast.parse(inspect.getsource(module))


def _package_imports(tree: ast.Module) -> set[str]:
    """The package modules an import statement of tree names."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level <= 1, node.module
            path = node.module.split(".") if node.module else []
            if node.level == 0:
                if path[0] != "ascentseq":
                    continue
                path = path[1:]
            found |= {path[0]} if path else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            for alias in node.names:
                path = alias.name.split(".")
                if path[0] == "ascentseq":
                    found.add(path[1] if len(path) > 1 else "__init__")
    return found


def _top_level_imports(tree: ast.AST) -> set[str]:
    """The top-level module each absolute import statement of tree names."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


@pytest.mark.parametrize("module", [core, series, gentree])
def test_pipeline_modules_import_no_package_module(module):
    # stated apart from the table, so that editing the table cannot loosen it
    assert not _package_imports(_tree(module)), module.__name__


def _module_scope(module) -> ast.Module:
    """The statements of module outside its functions, its classes and its
    `if TYPE_CHECKING:` blocks."""
    return ast.Module(
        [node for node in _tree(module).body
         if not isinstance(node, (ast.FunctionDef, ast.ClassDef))
         and not (isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING")],
        [],
    )


def test_front_end_module_scope_imports_no_pipeline():
    # cli.py names the --gf choices itself, so building the parser loads no
    # package module; each command imports its own, held to the table above
    top = _module_scope(cli)
    assert not _package_imports(top)
    imported = _top_level_imports(top)
    assert "fractions" not in imported, imported


@pytest.mark.parametrize("module", [series, verify])
def test_series_and_verify_module_scope_imports_no_fractions(module):
    # fractions loads decimal; the series ring makes a Fraction only when a
    # coefficient is read, and verify only in the 0021 suite or a failure
    imported = _top_level_imports(_module_scope(module))
    assert "fractions" not in imported, imported


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_dataclasses(name):
    # importing dataclasses loads inspect; the records are NamedTuples
    module = importlib.import_module("ascentseq" if name == "__init__" else f"ascentseq.{name}")
    assert "dataclasses" not in _top_level_imports(_tree(module)), name


@pytest.mark.parametrize("name", MODULES)
def test_package_imports_match_the_table(name):
    assert name in ALLOWED_IMPORTS, f"{name}.py has no entry in ALLOWED_IMPORTS"
    module = importlib.import_module("ascentseq" if name == "__init__" else f"ascentseq.{name}")
    assert _package_imports(_tree(module)) == ALLOWED_IMPORTS[name]


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_a_private_name_of_another(name):
    module = importlib.import_module("ascentseq" if name == "__init__" else f"ascentseq.{name}")
    private = [
        f"{node.module or ''}.{alias.name}"
        for node in ast.walk(_tree(module))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "ascentseq")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, private


def _named(module, function=None) -> set[str]:
    """Every name and attribute read in module, or in one function of it."""
    tree = _tree(module)
    if function is not None:
        tree = next(
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == function
        )
    named = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return named | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}


def test_engine_names_no_rule_recurrence_or_tree():
    named = _named(gentree)
    banned = {
        n for n in named
        if n == "_rule" or n.endswith("_recurrence_levels") or n.startswith("gentree_")
    }
    assert not banned, banned


@pytest.mark.parametrize(
    "module, recurrence",
    [(gentree_pair, "pair_recurrence_levels"), (gentree_0021, "triple_recurrence_levels")],
)
def test_recurrences_name_neither_rule_nor_simulator(module, recurrence):
    banned = {
        n for n in _named(module, recurrence)
        if n in ("_rule", "simulate") or n.startswith("simulate_") or n.endswith("_children")
    }
    assert not banned, (recurrence, banned)


@pytest.mark.parametrize(
    "module, simulator",
    [(gentree_pair, "simulate_pair_levels"), (gentree_0021, "simulate_0021_levels")],
)
def test_simulators_name_the_rule_and_no_recurrence(module, simulator):
    named = _named(module, simulator)
    assert {"_rule", "simulate"} <= named, simulator
    banned = {n for n in named if n.endswith("_recurrence_levels")}
    assert not banned, (simulator, banned)
