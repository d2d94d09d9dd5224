"""The four counting pipelines stay independent: brute force imports no
generating tree, the closed forms read no count table, the recurrences
never call the simulator or the succession rule, and the simulators run
the rule and call no recurrence."""

import ast
import inspect

import pytest

from ascentseq import core, gentree_0021, gentree_pair, series


def _tree(module) -> ast.Module:
    return ast.parse(inspect.getsource(module))


@pytest.mark.parametrize("module", [core, series, gentree_pair, gentree_0021])
def test_pipeline_modules_import_no_package_module(module):
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, (module.__name__, node.module)
            names = [node.module or ""]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        assert not any(n.split(".")[0] == "ascentseq" for n in names), module.__name__


@pytest.mark.parametrize(
    "module, recurrence",
    [(gentree_pair, "pair_recurrence_levels"), (gentree_0021, "triple_recurrence_levels")],
)
def test_recurrences_name_neither_rule_nor_simulator(module, recurrence):
    func = next(
        node
        for node in ast.walk(_tree(module))
        if isinstance(node, ast.FunctionDef) and node.name == recurrence
    )
    named = {n.id for n in ast.walk(func) if isinstance(n, ast.Name)}
    named |= {n.attr for n in ast.walk(func) if isinstance(n, ast.Attribute)}
    banned = {
        n for n in named
        if n == "_rule" or n.startswith("simulate_") or n.endswith("_children")
    }
    assert not banned, (recurrence, banned)


@pytest.mark.parametrize(
    "module, simulator",
    [(gentree_pair, "simulate_pair_levels"), (gentree_0021, "simulate_0021_levels")],
)
def test_simulators_name_the_rule_and_no_recurrence(module, simulator):
    func = next(
        node
        for node in ast.walk(_tree(module))
        if isinstance(node, ast.FunctionDef) and node.name == simulator
    )
    named = {n.id for n in ast.walk(func) if isinstance(n, ast.Name)}
    named |= {n.attr for n in ast.walk(func) if isinstance(n, ast.Attribute)}
    assert "_rule" in named, simulator
    banned = {n for n in named if n.endswith("_recurrence_levels")}
    assert not banned, (simulator, banned)
