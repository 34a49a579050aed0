"""Closed-form cardinalities: Picard torsion, lift counts, fiber counts, degrees.

All counts are exact arbitrary-precision integers or rationals.  The genus
appearing in every exponent is the total (arithmetic) genus of the dual
graph, i.e. the vertex genera plus the first Betti number.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .admissibility import DegreeData, enumerate_compatible_gerby
from .exactnum import divisors
from .graphs import (
    GerbyGraph,
    ModularGraph,
    _spanning_forest,
    betti1,
    classify_edges,
    total_genus,
)


def euler_totient(n: int) -> int:
    """Count of integers in [1, n] coprime to n; totient(1) = 1."""
    if n < 1:
        raise ValueError(f"totient needs a positive integer, got {n}")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def prestable_picard_torsion(graph: ModularGraph, r: int) -> int:
    """Order of the r-torsion subgroup of Pic of a prestable curve.

    Returns r^(2g - b1) with g the total genus: r^(2g) on a smooth curve,
    r on a nodal cubic (g = 1, b1 = 1), 1 on any tree of rational curves.
    The quantity 2g - b1 is the exponent, not the cardinality itself; the
    bare-difference reading would contradict the smooth case and the
    twisted-node extension, whose kernel is (Z/r)^(2g - b1).
    """
    if r < 1:
        raise ValueError(f"band order must be positive, got {r}")
    return r ** (2 * total_genus(graph) - betti1(graph))


def twisted_picard_torsion(gerby: GerbyGraph, r: int) -> int:
    """Order of the r-torsion of Pic of a twisted curve.

    The prestable count r^(2g - b1) times gcd(gamma(e), r) for each
    non-separating edge, the cardinality forced by the extension of the
    coarse-curve torsion by the twisted-node contributions.
    """
    if r < 1:
        raise ValueError(f"band order must be positive, got {r}")
    _, nonseparating = classify_edges(gerby.base)
    orders = gerby.edge_orders()
    factor = math.prod(math.gcd(orders[e], r) for e in nonseparating)
    return prestable_picard_torsion(gerby.base, r) * factor


def twisted_pic_quotient_order(gerby: GerbyGraph) -> int:
    """Index of the coarse Picard group inside the twisted one.

    The product of all edge orders times all tail orders.
    """
    return math.prod(gerby.edge_orders()) * math.prod(gerby.tail_orders())


@dataclass(frozen=True)
class LiftCount:
    """An exact lift count together with the product rule that produced it."""

    value: int
    formula_tag: str

    def __post_init__(self) -> None:
        if self.value < 1:
            raise ValueError(f"lift counts are positive, got {self.value}")
        if self.formula_tag not in ("loop-only", "all-edges"):
            raise ValueError(f"unknown formula tag {self.formula_tag!r}")


def count_lifts(gerby: GerbyGraph, r: int, mode: str = "loop-only") -> LiftCount:
    """Number of r-th root lifts over a twisted curve with this gerby graph.

    Both modes start from r^(2g - b1).  Mode "loop-only" multiplies by the
    totient of each non-separating edge order; mode "all-edges" multiplies
    over every edge.  The two agree when every separating edge has order 1
    or 2.  Edge and tail orders must divide r.
    """
    if mode not in ("loop-only", "all-edges"):
        raise ValueError(f"unknown mode {mode!r}")
    if r < 1:
        raise ValueError(f"band order must be positive, got {r}")
    for gamma in gerby.flag_orders:
        if r % gamma != 0:
            raise ValueError(f"isotropy order {gamma} does not divide r={r}")
    _, nonseparating = classify_edges(gerby.base)
    orders = gerby.edge_orders()
    if mode == "loop-only":
        chosen = [orders[e] for e in nonseparating]
    else:
        chosen = list(orders)
    value = prestable_picard_torsion(gerby.base, r)
    value *= math.prod(euler_totient(d) for d in chosen)
    return LiftCount(value, mode)


@lru_cache(maxsize=None)
def _cycle_order_counts(
    endpoints: tuple[tuple[int, int], ...],
    residuals: tuple[int, ...],
    r: int,
) -> dict[tuple[int, ...], int]:
    """Balanced assignments on the cycle edges, counted by their edge orders.

    The cycle edges are the edges between distinct vertices, bridges
    included; a bridge is an edge of every spanning forest, so its value is
    always solved, never free.  Each edge carries x in Z/r, contributing +x
    at its first endpoint and -x at its second; an assignment is balanced
    when the sum at every vertex equals its residual mod r.  The values on
    the edges outside a spanning forest range over (Z/r)^free, and each
    forest edge is then solved by peeling leaves towards its root.

    Balance is decided once per component, before the enumeration.  Every
    edge adds x at one endpoint and -x at the other, both in one component,
    and the peel moves each child's remaining need to its parent, so every
    root is left with its component's residual sum mod r whatever the free
    values are.  When some component's sum is nonzero mod r no assignment
    balances and the table is empty; otherwise every assignment balances.
    Returns, per tuple of additive orders r / gcd(x_e, r), the number of
    balanced assignments with those orders.
    """
    roots, steps = _spanning_forest(len(residuals), endpoints)
    # Steps come in discovery order, so a parent is labelled before its child.
    top = list(range(len(residuals)))
    for _e, child, parent in steps:
        top[child] = top[parent]
    component_sum = [0] * len(residuals)
    for v, k in enumerate(residuals):
        component_sum[top[v]] += k
    if any(component_sum[root] % r for root in roots):
        return {}

    # The forest's edges, (edge, child, parent), reversed: every edge comes
    # after all edges further from its root.  The other edges are free.
    steps.reverse()
    tree = {e for e, _, _ in steps}
    free = [e for e in range(len(endpoints)) if e not in tree]

    # A table of the r element orders pays off only over the r^free
    # assignments; with no free edge the one assignment computes its own.
    order_of = [r // math.gcd(x, r) for x in range(r)] if free else None
    counts: dict[tuple[int, ...], int] = {}
    orders = [1] * len(endpoints)
    for values in itertools.product(range(r), repeat=len(free)):
        need = list(residuals)
        for e, x in zip(free, values):
            a, b = endpoints[e]
            need[a] -= x
            need[b] += x
            orders[e] = order_of[x]
        for e, child, up in steps:
            # x_e is need[child] at a first endpoint and -need[child] at a
            # second; either way the parent's need grows by need[child]
            x = need[child] % r
            need[up] += x
            orders[e] = order_of[x] if free else r // math.gcd(x, r)
        key = tuple(orders)
        counts[key] = counts.get(key, 0) + 1
    return counts


@lru_cache(maxsize=None)
def _cycle_assignment_count(
    endpoints: tuple[tuple[int, int], ...],
    orders: tuple[int, ...],
    residuals: tuple[int, ...],
    r: int,
) -> int:
    """Count faithful age numerators on cycle edges meeting every vertex residual.

    The cycle edges are the edges between distinct vertices, bridges
    included.  Each edge carries an unknown x in Z/r of additive order equal
    to its assigned isotropy order, contributing +x at its first endpoint and
    -x at its second; an assignment counts when the sum at every vertex
    matches the prescribed residual mod r.  The count is read from _cycle_order_counts,
    which enumerates the balanced assignments once per (endpoints,
    residuals, r) and buckets them by their tuple of edge orders.
    """
    if not endpoints:
        return 1
    return _cycle_order_counts(endpoints, residuals, r).get(orders, 0)


def fiber_point_count(graph: ModularGraph, data: DegreeData, r: int) -> int:
    """Total number of root lifts over all compatible gerby decorations.

    Sums, over every gerby graph produced by enumerate_compatible_gerby, the
    number of lifts whose node ages balance the degree residue at every
    vertex: the age numerators on the edges between distinct vertices,
    bridges included, must satisfy the fractional-part balance at each
    vertex, and self-loops contribute a free totient factor.  A bridge is an
    edge of every spanning forest, so the balance solves its age; a
    decoration whose bridge orders disagree with that solution counts 0.  On
    a graph whose cycles are all self-loops each summand equals
    count_lifts(loop-only); in general the constraints couple parallel
    non-separating edges.  The balanced assignments are enumerated once per
    call, over the values of the non-spanning-tree edges, and bucketed by
    their edge orders, so each decoration looks its count up (see
    _cycle_order_counts).  Each decoration's orders are read from its
    flag_orders through the first flags of the self-loops, cycle edges and
    non-separating edges, found once per call.  The result always equals
    r^(2g), independent of the graph; that closed form and the totient
    divisor-sum identity are checked before returning, and a failure
    raises AssertionError.
    """
    data = data.validated_for(graph, r)
    _, nonseparating = classify_edges(graph)

    residual = [k % r for k in data.vertex_residues]
    for f, t in zip(graph.tails(), data.tail_types):
        residual[graph.attachment[f]] -= t.residue(r)
    residuals = tuple(x % r for x in residual)

    pairs = [graph.vertices_of_edge(e) for e in range(graph.num_edges)]
    first_flag = [f1 for f1, _ in graph.edges()]
    cycle_edges = [e for e, (u, v) in enumerate(pairs) if u != v]
    endpoints = tuple(pairs[e] for e in cycle_edges)
    cycle_flags = [first_flag[e] for e in cycle_edges]
    loop_flags = [first_flag[e] for e, (u, v) in enumerate(pairs) if u == v]
    nonseparating_flags = [first_flag[e] for e in nonseparating]

    base = prestable_picard_torsion(graph, r)
    phi = {d: euler_totient(d) for d in divisors(r)}
    total = 0
    totient_sum = 0
    for gerby in enumerate_compatible_gerby(graph, data, r):
        flags = gerby.flag_orders
        loop_factor = 1
        for f in loop_flags:
            loop_factor *= phi[flags[f]]
        matched = _cycle_assignment_count(
            endpoints, tuple([flags[f] for f in cycle_flags]), residuals, r
        )
        total += base * loop_factor * matched
        factor = 1
        for f in nonseparating_flags:
            factor *= phi[flags[f]]
        totient_sum += factor

    if totient_sum != r ** len(nonseparating):
        raise AssertionError("totient divisor-sum identity failed; this indicates a bug")
    expected = r ** (2 * total_genus(graph))
    if total != expected:
        raise AssertionError(
            f"fiber count {total} differs from the closed form {expected}; this indicates a bug"
        )
    return total


def pushforward_degree(genus: int, r: int) -> Fraction:
    """Degree r^(2g - 1) of the coarse pushforward, exact (1/r at genus 0)."""
    if genus < 0:
        raise ValueError(f"genus must be nonnegative, got {genus}")
    if r < 1:
        raise ValueError(f"band order must be positive, got {r}")
    return Fraction(r) ** (2 * genus - 1)


def stack_degree(
    field_degree: Fraction | int, delta_source: int, delta_target: int
) -> Fraction:
    """Degree of a map of stacks from the function-field degree and the two
    generic automorphism-group orders: (delta_target / delta_source) * field_degree."""
    field_degree = Fraction(field_degree)
    if field_degree <= 0:
        raise ValueError(f"field degree must be positive, got {field_degree}")
    if delta_source < 1 or delta_target < 1:
        raise ValueError("automorphism orders must be positive")
    return Fraction(delta_target, delta_source) * field_degree
