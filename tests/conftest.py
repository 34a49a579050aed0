"""Shared fixtures and builders for the test suite."""

import math

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from gerbecalc.admissibility import ContactType, DegreeData
from gerbecalc.graphs import ModularGraph

settings.register_profile(
    "exact",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")


def graph_of(genera, edges, tails=()) -> ModularGraph:
    """Shorthand for ModularGraph.from_config with bare genus lists."""
    return ModularGraph.from_config(
        {
            "vertices": [{"genus": g} for g in genera],
            "edges": [list(e) for e in edges],
            "tails": list(tails),
        }
    )


def balanced_data(rng, n_vertices: int, n_tails: int, r: int) -> DegreeData:
    """Random degree data that is globally admissible for (r, sum of k_v).

    With tails, the last tail residue absorbs the imbalance; without tails
    the last vertex residue does.
    """
    residues = [rng.randrange(r) for _ in range(n_vertices)]
    if n_tails == 0:
        residues[-1] = (residues[-1] - sum(residues)) % r
        return DegreeData(tuple(residues), ())
    tail_residues = [rng.randrange(r) for _ in range(n_tails - 1)]
    tail_residues.append((sum(residues) - sum(tail_residues)) % r)
    types = tuple(ContactType.from_residue(a, r) for a in tail_residues)
    return DegreeData(tuple(residues), types)


PRIMES_BELOW_1000 = [p for p in range(2, 1000) if all(p % k for k in range(2, math.isqrt(p) + 1))]


@st.composite
def prime_products(draw, limit=None, max_exponent=40):
    """(n, {p: a}): n the product of up to four distinct primes p below
    1,000, each to a drawn exponent a of up to max_exponent, cut short
    where the product would pass limit."""
    primes = draw(st.lists(st.sampled_from(PRIMES_BELOW_1000), max_size=4, unique=True))
    n, exponents = 1, {}
    for p in sorted(primes):
        for _ in range(draw(st.integers(1, max_exponent))):
            if limit is not None and n * p > limit:
                break
            n *= p
            exponents[p] = exponents.get(p, 0) + 1
    return n, exponents
