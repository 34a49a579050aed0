"""The package's public surface, whose submodules load on first use."""

import os
import subprocess
import sys
from pathlib import Path

import gerbecalc

PUBLIC_NAMES = [
    "AdmissibleVector", "BaseTheoryTable", "Character", "ContactType", "CoverageError",
    "CyclotomicNumber", "DecompositionReport", "DegreeData", "FiniteAbelianGroup", "GerbeSpec",
    "GerbyGraph", "GroupElement", "LiftCount", "ModularGraph", "PotentialSeries", "Truncation",
    "betti1",
    "build_potential", "character_twist", "classify_edges", "count_lifts",
    "cyclotomic_polynomial", "divisors", "enumerate_admissible", "enumerate_characters",
    "enumerate_compatible_gerby", "enumerate_elements", "euler_totient", "evaluate_character",
    "fiber_point_count", "format_rational", "gerbe_invariant_rho", "gerbe_invariant_sector",
    "is_admissible", "orthogonality_sum", "pairing_value", "parse_rational", "power_basis_size",
    "prestable_picard_torsion", "pushforward_degree", "root_of_unity", "separating_node_order",
    "split_at_edge", "stack_degree", "substitute_novikov", "total_genus",
    "twisted_pic_quotient_order", "twisted_picard_torsion", "verify_decomposition",
]


def test_public_names_are_unchanged_and_resolve():
    assert gerbecalc.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        value = getattr(gerbecalc, name)
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("gerbecalc.") and getattr(home, name) is value
    assert set(PUBLIC_NAMES) <= set(dir(gerbecalc))
    from gerbecalc import ModularGraph, verify_decomposition  # noqa: F401


def test_unknown_names_raise_attribute_error():
    assert not hasattr(gerbecalc, "no_such_name")
    assert gerbecalc.__version__ == "0.1.0"


def test_submodules_load_on_first_use():
    # a fresh interpreter, since this one has imported every submodule already
    code = (
        "import sys, gerbecalc\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('gerbecalc.'))\n"
        "assert loaded() == [], loaded()\n"
        "assert gerbecalc.divisors(12) == (1, 2, 3, 4, 6, 12)\n"
        "assert loaded() == ['gerbecalc._arith'], loaded()\n"
        "gerbecalc.count_lifts\n"
        "assert 'gerbecalc.counting' in loaded() and 'gerbecalc.gw' not in loaded(), loaded()\n"
        "assert gerbecalc.gw.Truncation is gerbecalc.Truncation\n"
        "assert gerbecalc.exactnum.divisors is gerbecalc.divisors\n"
        "assert gerbecalc.cli.main\n"
        "namespace = {}\n"
        "exec('from gerbecalc import *', namespace)\n"
        "assert sorted(set(namespace) - {'__builtins__'}) == gerbecalc.__all__\n"
    )
    env = dict(os.environ)
    source = str(Path(gerbecalc.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_private_helpers_are_bound_only_where_they_are_used():
    # exactnum and graphs import from _arith only what they call; the
    # public paths of the totient and divisors are _arith's own objects
    from gerbecalc import _arith, counting, exactnum, graphs

    for module in (exactnum, graphs):
        for name in ("_prime_powers", "_totient", "_DIGIT_BOUND", "_KINDS", "_fit",
                     "Rational", "RationalLike"):
            assert not hasattr(module, name), (module.__name__, name)
    assert exactnum.divisors is _arith.divisors
    assert exactnum.euler_totient is _arith.euler_totient
    assert counting.euler_totient is _arith.euler_totient
