"""The names ``uhsl2`` exports, including those of the rewrite and species
routes, which the package loads on first access."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import uhsl2

# every public name of the package, as `dir(uhsl2)` listed them when all
# routes were imported eagerly, less those since moved to tests/ (README's
# table of removed names)
EXPORTED = (
    "ColoredSizes", "DividedPower", "Element", "EvalError", "Exponential",
    "FunctorSpec", "IntegralityViolation", "NormalMonomial", "ParseError",
    "Singleton", "algebra", "ascending_maps_count", "combinatorics",
    "element_from_json", "element_to_json", "evaluate", "exp_series",
    "expressions", "falling_factorial", "mono_star_mono", "normal_order_yx",
    "normal_order_zx", "normal_order_zy", "normalize", "oracle_star", "parse",
    "pretty", "rewrite", "serialize", "shifted_elem", "species",
    "species_coefficient_check", "species_element", "star", "star_species",
    "structural_coefficient", "to_element", "to_text", "valuation_element",
    "vam3_lhs", "vam3_rhs",
)


@pytest.mark.parametrize("name", EXPORTED)
def test_every_name_is_still_exported(name):
    namespace: dict = {}
    exec(f"from uhsl2 import {name}", namespace)
    assert namespace[name] is getattr(uhsl2, name)
    assert name in dir(uhsl2)


# names that left the package for tests/reference_symbols.py, each with a row
# in README's table of removed names
MOVED_TO_TESTS = ("elementary_symmetric", "pochhammer_k")


@pytest.mark.parametrize("name", MOVED_TO_TESTS)
def test_moved_name_is_gone_and_in_the_readme_table(name):
    with pytest.raises(ImportError):
        exec(f"from uhsl2 import {name}", {})
    assert not hasattr(uhsl2.combinatorics, name)
    readme = Path(__file__).resolve().parent.parent / "README.md"
    assert f"| `combinatorics.{name}(" in readme.read_text()


def test_pyproject_has_no_dependencies_and_the_script():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert project["dependencies"] == []
    assert project["scripts"] == {"uhsl2": "uhsl2.cli:main"}


def test_the_exponent_rule_has_one_copy():
    # NormalMonomial.checked raises both errors; every route calls it
    texts = {path.name: path.read_text()
             for path in Path(uhsl2.__file__).resolve().parent.glob("*.py")}
    for words in ("non-integer exponent", "negative exponent"):
        assert {name: text.count(words) for name, text in texts.items()
                if words in text} == {"algebra.py": 1}


def test_route_names_are_the_routes_own():
    from uhsl2 import rewrite, species

    assert uhsl2.oracle_star is rewrite.oracle_star
    assert uhsl2.DividedPower is species.DividedPower
    assert uhsl2.rewrite is rewrite and uhsl2.species is species


def test_unknown_names_are_still_errors():
    with pytest.raises(AttributeError, match="no_such_name"):
        uhsl2.no_such_name
    with pytest.raises(ImportError):
        exec("from uhsl2 import no_such_name", {})


def test_routes_load_on_first_access():
    code = (
        "import sys, uhsl2\n"
        "print('uhsl2.rewrite' in sys.modules, 'uhsl2.species' in sys.modules)\n"
        "from uhsl2 import oracle_star\n"
        "print('uhsl2.rewrite' in sys.modules, 'uhsl2.species' in sys.modules)\n"
        "uhsl2.star_species\n"
        "print('uhsl2.species' in sys.modules)\n"
    )
    src = Path(uhsl2.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=30)
    assert (proc.stdout, proc.stderr) == ("False False\nTrue False\nTrue\n", "")
