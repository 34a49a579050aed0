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
from .exactnum import _prime_powers, divisors
from .graphs import GerbyGraph, ModularGraph, betti1, classify_edges, total_genus


def _totient(d: int, n: int) -> int:
    """phi(d) for a divisor d of n: the product of phi(gcd(d, q)) over the
    cached prime powers q of n, so the divisors of n share one factorisation."""
    return math.prod((g := math.gcd(d, q)) - g // p for p, q in _prime_powers(n))


def euler_totient(n: int) -> int:
    """Count of integers in [1, n] coprime to n; totient(1) = 1."""
    return _totient(n, n)


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
    or 2.  Edge and tail orders must divide r, so each totient is read from
    the prime powers of r, factored once per r.
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
    value *= math.prod(_totient(d, r) for d in chosen)
    return LiftCount(value, mode)


def _peel_counts(
    free: list[tuple[int, int, int]],
    steps: list[tuple[int, int, int]],
    size: int,
    residuals: tuple[int, ...],
    q: int,
) -> dict[tuple[int, ...], int]:
    """The balanced assignments mod q, counted by their tuples of orders.

    free holds (slot, first, second) for each cycle edge outside the
    spanning tree and steps (slot, child, parent) for each tree edge, every
    one after all tree edges further from the root; slot is the edge's
    position in a key of size entries.  Every (Z/q)^free value of the free
    edges is tried, each tree edge is solved by peeling, and the assignment
    is counted under its additive orders q / gcd(x_e, q).  The caller has
    checked that the residuals sum to 0 mod q, so every assignment balances.
    """
    # A table of the q element orders pays off only over the q^free
    # assignments; with no free edge the one assignment computes its own.
    order_of = [q // math.gcd(x, q) for x in range(q)] if free else None
    counts: dict[tuple[int, ...], int] = {}
    orders = [1] * size
    for values in itertools.product(range(q), repeat=len(free)):
        need = list(residuals)
        for (k, a, b), x in zip(free, values):
            need[a] -= x
            need[b] += x
            orders[k] = order_of[x]
        for k, child, up in steps:
            # x_e is need[child] at a first endpoint and -need[child] at a
            # second; either way the parent's need grows by need[child]
            x = need[child] % q
            need[up] += x
            orders[k] = order_of[x] if free else q // math.gcd(x, q)
        key = tuple(orders)
        counts[key] = counts.get(key, 0) + 1
    return counts


@lru_cache(maxsize=None)
def _cycle_order_counts(
    graph: ModularGraph, residuals: tuple[int, ...], r: int
) -> dict[tuple[int, ...], int]:
    """Balanced assignments on the cycle edges, counted by their edge orders.

    The cycle edges are the edges between distinct vertices, bridges
    included; a bridge is an edge of every spanning tree, so its value is
    always solved, never free.  Each edge carries x in Z/r, contributing +x
    at its first endpoint and -x at its second; an assignment is balanced
    when the sum at every vertex equals its residual mod r.  Returns, per
    tuple of additive orders r / gcd(x_e, r) of the cycle edges in edge
    order, the number of balanced assignments with those orders.

    Every edge adds x at one endpoint and -x at the other, and the peel
    moves each child's remaining need to its parent, so vertex 0 is left
    with the residual sum mod r whatever the free values are.  When that sum
    is nonzero no assignment balances and the table is empty; otherwise
    every assignment balances.

    The count is split over the prime powers q of r (Chinese remainder
    theorem): x -> (x mod q)_q is a bijection from Z/r onto the product of
    the Z/q, the system balances mod r exactly when it balances mod every
    q, and r / gcd(x, r) is the product of the q / gcd(x, q).  So
    _peel_counts enumerates (Z/q)^free once per q, for the cycle edges
    outside the graph's spanning tree, and the tables are merged: each key
    is the elementwise product of one key per q, and its count the product
    of their counts.  The parts of the orders of distinct q are coprime, so
    no two merged keys coincide.  The work is the sum of q^free peels, plus
    a merge of at most d(r)^(non-separating edges) keys, since a bridge's
    value is the same in every assignment.
    """
    if sum(residuals) % r:
        return {}
    # Each cycle edge's position in the key, found once for all assignments.
    ends = [graph.vertices_of_edge(e) for e in range(graph.num_edges)]
    slot = {e: k for k, e in enumerate(e for e, (a, b) in enumerate(ends) if a != b)}
    tree = {e for e, _, _ in graph._forest}
    free = [(slot[e], *ends[e]) for e in slot if e not in tree]
    # Reversed, every tree edge comes after all edges further from vertex 0.
    steps = [(slot[e], child, parent) for e, child, parent in reversed(graph._forest)]

    parts = [q for _, q in _prime_powers(r)] or [1]
    counts = _peel_counts(free, steps, len(slot), residuals, parts[0])
    for q in parts[1:]:
        part = _peel_counts(free, steps, len(slot), residuals, q)
        counts = {
            tuple([a * b for a, b in zip(key, other)]): n * m
            for key, n in counts.items()
            for other, m in part.items()
        }
    return counts


@lru_cache(maxsize=None)
def _cycle_assignment_count(
    graph: ModularGraph,
    orders: tuple[int, ...],
    residuals: tuple[int, ...],
    r: int,
) -> int:
    """Count faithful age numerators on cycle edges meeting every vertex residual.

    The cycle edges are the edges between distinct vertices, bridges
    included, and orders holds one additive order per cycle edge, in edge
    order.  Each edge carries an unknown x in Z/r of that order,
    contributing +x at its first endpoint and -x at its second; an
    assignment counts when the sum at every vertex matches the prescribed
    residual mod r.  The count is read from _cycle_order_counts, which
    enumerates the balanced assignments once per (graph, residuals, r) and
    buckets them by their tuple of edge orders.
    """
    return _cycle_order_counts(graph, residuals, r).get(orders, 0)


def fiber_point_count(graph: ModularGraph, data: DegreeData, r: int) -> int:
    """Total number of root lifts over all compatible gerby decorations.

    Sums, over every gerby graph produced by enumerate_compatible_gerby, the
    number of lifts whose node ages balance the degree residue at every
    vertex: the age numerators on the edges between distinct vertices,
    bridges included, must satisfy the fractional-part balance at each
    vertex, and self-loops contribute a free totient factor.  A bridge is an
    edge of every spanning tree, so the balance solves its age rather than
    reading the cut formula; a decoration whose bridge orders disagree with
    that solution counts 0.  On a graph whose cycles are all self-loops each
    summand equals count_lifts(loop-only); in general the constraints couple
    parallel non-separating edges.  The balanced assignments are enumerated
    once per call and prime power q of r, over the values mod q of the cycle
    edges outside the graph's spanning tree, bucketed by their edge orders
    and merged into one table for r, so each decoration looks its count up
    (see _cycle_order_counts).  Each decoration's orders are read from its
    flag_orders through the first flags of the self-loops, cycle edges and
    non-separating edges, found once per call.  The result always equals
    r^(2g), independent of the graph; that closed form and the totient
    divisor-sum identity are checked before returning, and a failure raises
    AssertionError.
    """
    data = data.validated_for(graph, r)
    _, nonseparating = classify_edges(graph)

    residuals = tuple(data._residuals(graph, r))

    pairs = [graph.vertices_of_edge(e) for e in range(graph.num_edges)]
    first_flag = [f1 for f1, _ in graph.edges()]
    cycle_flags = [first_flag[e] for e, (u, v) in enumerate(pairs) if u != v]
    loop_flags = [first_flag[e] for e, (u, v) in enumerate(pairs) if u == v]
    nonseparating_flags = [first_flag[e] for e in nonseparating]

    base = prestable_picard_torsion(graph, r)
    phi = {d: _totient(d, r) for d in divisors(r)}
    total = 0
    totient_sum = 0
    for gerby in enumerate_compatible_gerby(graph, data, r):
        flags = gerby.flag_orders
        loop_factor = 1
        for f in loop_flags:
            loop_factor *= phi[flags[f]]
        matched = _cycle_assignment_count(
            graph, tuple([flags[f] for f in cycle_flags]), residuals, r
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
