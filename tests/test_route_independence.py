"""Guard the independence of the three product routes.

The rewrite and species routes cross-check the closed formula only because
they share no product code with it: all they take from ``algebra`` is the
``Element`` container and its keys.  These tests read the two modules' source
with ``ast``, so a refactoring that merges the routes fails here.
"""

from __future__ import annotations

import ast
from pathlib import Path

import uhsl2

SRC = Path(uhsl2.__file__).parent


def module_tree(name: str) -> ast.Module:
    return ast.parse((SRC / f"{name}.py").read_text(), filename=f"{name}.py")


def package_imports(tree: ast.Module) -> dict[str, set[str]]:
    """Names imported from inside the package, keyed by source module."""
    out: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = "." * node.level + (node.module or "")
            if node.level or source.split(".")[0] == "uhsl2":
                out.setdefault(source, set()).update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "uhsl2":
                    out.setdefault(alias.name, set())
    return out


def uses_of(node: ast.AST, name: str) -> list[ast.Name]:
    return [n for n in ast.walk(node) if isinstance(n, ast.Name) and n.id == name]


def test_rewrite_takes_only_the_container():
    imports = package_imports(module_tree("rewrite"))
    assert set(imports) <= {".algebra"}
    assert imports.get(".algebra", set()) <= {"Element", "NormalMonomial"}


def test_species_takes_only_the_container_and_star():
    imports = package_imports(module_tree("species"))
    assert set(imports) <= {".algebra"}
    assert imports.get(".algebra", set()) <= {"COLORS", "Element", "NormalMonomial", "star"}


def test_species_counts_blocks_by_enumeration():
    # block multiplicities come from dealing labels, never from a formula
    tree = module_tree("species")
    from_math = {
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "math"
        for alias in node.names
    }
    assert from_math <= {"factorial"}
    assert not [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(a.name == "math" for a in node.names)
    ]
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not names & {"comb", "multinomial"}


def test_species_calls_star_only_in_the_coefficient_check():
    tree = module_tree("species")
    (check,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "species_coefficient_check"
    ]
    assert uses_of(check, "star")
    assert len(uses_of(tree, "star")) == len(uses_of(check, "star"))
