"""Exact cyclotomic arithmetic and dual-graph counting for root gerbes.

Submodules load on first use (PEP 562): ``import gerbecalc`` loads none of
them, ``gerbecalc.count_lifts`` loads ``counting`` and what it imports, and
``gerbecalc.gw`` loads ``gw``.  So a command-line call that only counts
never loads the potential code in ``gw``, and ``gerbecalc.divisors`` loads
only the integer and input helpers in ``_arith``.
"""

import sys

__version__ = "0.1.0"

# The one list of public names, by the submodule that defines each.
_EXPORTS = {
    "_arith": ("divisors", "euler_totient", "format_rational", "parse_rational"),
    "abelian": (
        "Character",
        "FiniteAbelianGroup",
        "GroupElement",
        "enumerate_characters",
        "enumerate_elements",
        "evaluate_character",
        "orthogonality_sum",
    ),
    "admissibility": (
        "AdmissibleVector",
        "ContactType",
        "DegreeData",
        "enumerate_admissible",
        "enumerate_compatible_gerby",
        "is_admissible",
        "separating_node_order",
    ),
    "counting": (
        "LiftCount",
        "count_lifts",
        "fiber_point_count",
        "prestable_picard_torsion",
        "pushforward_degree",
        "stack_degree",
        "twisted_pic_quotient_order",
        "twisted_picard_torsion",
    ),
    "exactnum": (
        "CyclotomicNumber",
        "cyclotomic_polynomial",
        "power_basis_size",
        "root_of_unity",
    ),
    "graphs": (
        "GerbyGraph",
        "ModularGraph",
        "betti1",
        "classify_edges",
        "split_at_edge",
        "total_genus",
    ),
    "gw": (
        "BaseTheoryTable",
        "CoverageError",
        "DecompositionReport",
        "GerbeSpec",
        "PotentialSeries",
        "Truncation",
        "build_potential",
        "character_twist",
        "gerbe_invariant_rho",
        "gerbe_invariant_sector",
        "pairing_value",
        "substitute_novikov",
        "verify_decomposition",
    ),
}
_SUBMODULES = (*_EXPORTS, "cli")
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def _submodule(name: str):
    # __import__ takes the import statement's own path, which -X importtime
    # reports.  The import binds the submodule here as a global, so
    # __getattr__ is asked for each submodule name at most once.
    qualified = f"{__name__}.{name}"
    __import__(qualified)
    return sys.modules[qualified]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _submodule(name)
    if name in _MODULE_OF:
        return getattr(_submodule(_MODULE_OF[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
