"""Exact arithmetic in the formal homogeneous enveloping algebra of sl2.

Elements live in the divided-power PBW basis x^a y^b z^c h^d / (a!b!c!d!)
over the relations yx = xy + 2xh, zx = xz - yh, zy = yz + 2zh with h central.
The noncommutative product is available through three independent routes that
cross-check each other: the closed coefficient formula (`algebra`), a
term-rewriting normalizer (`rewrite`), and a labelled-set species enumeration
(`species`).

The names of the `rewrite` and `species` routes load on first access, so that
``import uhsl2`` (and a ``uhsl2 star`` process) compiles and runs only the
closed-formula path; ``from uhsl2 import oracle_star`` works as before.
"""

from importlib import import_module

from .algebra import (
    Element,
    IntegralityViolation,
    NormalMonomial,
    exp_series,
    mono_star_mono,
    normal_order_yx,
    normal_order_zx,
    normal_order_zy,
    star,
    structural_coefficient,
)
from .combinatorics import (
    falling_factorial,
    shifted_elem,
    vam3_lhs,
    vam3_rhs,
)
from .expressions import EvalError, ParseError, evaluate, parse, to_text
from .serialize import element_from_json, element_to_json, pretty

# name -> the submodule that defines it; the two submodules map to themselves
_LAZY = {
    "rewrite": "rewrite",
    **dict.fromkeys(("normalize", "oracle_star", "to_element"), "rewrite"),
    "species": "species",
    **dict.fromkeys((
        "ColoredSizes",
        "DividedPower",
        "Exponential",
        "FunctorSpec",
        "Singleton",
        "ascending_maps_count",
        "species_coefficient_check",
        "species_element",
        "star_species",
        "valuation_element",
    ), "species"),
}

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_LAZY[name]}", __name__)
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
