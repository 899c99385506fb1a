"""The production modules stay independent of the verification oracles, and
the graph representation stays behind ``graphs``."""

import ast
import pathlib

import pytest

import fanwidth

PACKAGE = pathlib.Path(fanwidth.__file__).parent
ORACLES = {"starmetric", "volumes", "oracles"}


def imported_modules(name: str) -> set:
    """The ``fanwidth`` modules that module ``name`` imports anywhere in its
    source, top level or inside a function."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:  # from . import x
                found.update(alias.name for alias in node.names)
            elif node.level == 1:
                found.add(node.module.split(".")[0])
            elif node.module and node.module.startswith("fanwidth."):
                found.add(node.module.split(".")[1])
            elif node.module == "fanwidth":
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("fanwidth."))
    return found


@pytest.mark.parametrize("name", ["graphs", "treedec", "sparsify", "embedding",
                                  "pipeline", "randomness"])
def test_production_module_imports_no_oracle(name):
    assert not imported_modules(name) & ORACLES


def test_the_guard_sees_relative_imports():
    assert {"embedding", "volumes"} <= imported_modules("starmetric")


def adjacency_reads(name: str) -> list:
    """Lines of module ``name`` that read an ``_adj`` attribute."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "_adj"]


@pytest.mark.parametrize("name", sorted(p.stem for p in PACKAGE.glob("*.py")
                                        if p.stem != "graphs"))
def test_only_graphs_reads_the_adjacency(name):
    assert adjacency_reads(name) == []


def test_the_adjacency_guard_sees_graphs():
    assert adjacency_reads("graphs")
