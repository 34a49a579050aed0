"""Tests for torsion, lift, fiber, and degree counts."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from conftest import balanced_data, graph_of, prime_products
from gerbecalc import admissibility, counting
from gerbecalc.admissibility import (
    ContactType,
    DegreeData,
    enumerate_compatible_gerby,
    separating_node_order,
)
from gerbecalc.counting import (
    LiftCount,
    _cycle_assignment_count,
    _cycle_order_counts,
    count_lifts,
    euler_totient,
    fiber_point_count,
    prestable_picard_torsion,
    pushforward_degree,
    stack_degree,
    twisted_pic_quotient_order,
    twisted_picard_torsion,
)
from gerbecalc.exactnum import divisors
from gerbecalc.graphs import GerbyGraph, total_genus


def test_totient_examples():
    assert euler_totient(1) == 1
    assert euler_totient(6) == 2
    assert euler_totient(12) == 4
    with pytest.raises(ValueError, match="positive"):
        euler_totient(0)


@given(st.integers(1, 10**4) | prime_products(limit=10**5).map(lambda case: case[0]))
def test_totient_matches_brute_force(n):
    assert euler_totient(n) == oracles.totient_brute(n)


@given(st.integers(1, 10**4) | prime_products(limit=10**4).map(lambda case: case[0]))
def test_totient_of_each_divisor_reads_the_prime_powers_of_n(n):
    for d in divisors(n):
        assert counting._totient(d, n) == oracles.totient_brute(d)


def test_totient_divisor_sum():
    for n in range(1, 201):
        assert sum(euler_totient(d) for d in range(1, n + 1) if n % d == 0) == n


def test_prestable_torsion_examples():
    for g in range(4):
        assert prestable_picard_torsion(graph_of([g], []), 3) == 3 ** (2 * g)
    nodal_cubic = graph_of([0], [(0, 0)])
    assert prestable_picard_torsion(nodal_cubic, 5) == 5
    tree = graph_of([0, 0], [(0, 1)])
    assert prestable_picard_torsion(tree, 7) == 1
    with pytest.raises(ValueError, match="positive"):
        prestable_picard_torsion(tree, 0)


def test_twisted_torsion_examples():
    smooth = GerbyGraph(graph_of([2], []), ())
    assert twisted_picard_torsion(smooth, 3) == 81
    loop = graph_of([0], [(0, 0)])
    assert twisted_picard_torsion(GerbyGraph(loop, (2, 2)), 2) == 4
    genus_one_loop = graph_of([1], [(0, 0)])
    assert twisted_picard_torsion(GerbyGraph(genus_one_loop, (4, 4)), 6) == 432


def test_twisted_reduces_to_prestable_when_untwisted():
    rng = random.Random(5)
    for _ in range(20):
        nv, edges = oracles.random_tree_with_loops(rng, max_vertices=5)
        graph = graph_of([rng.randrange(3) for _ in range(nv)], edges)
        gerby = GerbyGraph(graph, (1,) * graph.num_flags)
        r = rng.randrange(1, 9)
        assert twisted_picard_torsion(gerby, r) == prestable_picard_torsion(graph, r)


def test_quotient_order_examples():
    base = graph_of([0, 1], [(0, 1)], tails=[0, 0])
    assert twisted_pic_quotient_order(GerbyGraph(base, (1, 1, 1, 1))) == 1
    one_tail = graph_of([0], [], tails=[0])
    assert twisted_pic_quotient_order(GerbyGraph(one_tail, (3,))) == 3
    gerby = GerbyGraph.from_orders(base, (2, 2), (4,))
    assert twisted_pic_quotient_order(gerby) == 16


def test_lift_count_validation():
    with pytest.raises(ValueError, match="positive"):
        LiftCount(0, "loop-only")
    with pytest.raises(ValueError, match="formula tag"):
        LiftCount(1, "both")


def test_count_lifts_examples():
    smooth = GerbyGraph(graph_of([1], []), ())
    assert count_lifts(smooth, 2, "loop-only").value == 4
    assert count_lifts(smooth, 2, "all-edges").value == 4

    loop = GerbyGraph(graph_of([0], [(0, 0)]), (3, 3))
    got = count_lifts(loop, 3)
    assert got == LiftCount(6, "loop-only")

    base = graph_of([0, 0], [(0, 1)], tails=[0, 1])
    bridge = GerbyGraph.from_orders(base, (3, 3), (3,))
    assert count_lifts(bridge, 3, "loop-only").value == 1
    assert count_lifts(bridge, 3, "all-edges").value == 2


def test_count_lifts_errors():
    loop = GerbyGraph(graph_of([0], [(0, 0)]), (4, 4))
    with pytest.raises(ValueError, match="unknown mode"):
        count_lifts(loop, 4, "sometimes")
    with pytest.raises(ValueError, match="must be positive"):
        count_lifts(loop, 0)
    with pytest.raises(ValueError, match="does not divide"):
        count_lifts(loop, 6)


def test_count_lifts_multiplicative_in_loop_order():
    rng = random.Random(17)
    r = 12
    for _ in range(20):
        nv, edges = oracles.random_tree_with_loops(rng, max_vertices=4)
        graph = graph_of([rng.randrange(2) for _ in range(nv)], edges)
        loops = [k for k, (u, v) in enumerate(edges) if u == v]
        if not loops:
            continue
        orders = [rng.choice([1, 2, 3, 4, 6, 12]) for _ in range(graph.num_edges)]
        base = count_lifts(GerbyGraph.from_orders(graph, (), orders), r)
        target = loops[rng.randrange(len(loops))]
        d, d_new = orders[target], rng.choice([1, 2, 3, 4, 6, 12])
        orders[target] = d_new
        rescaled = count_lifts(GerbyGraph.from_orders(graph, (), orders), r)
        assert (
            Fraction(rescaled.value, base.value)
            == Fraction(euler_totient(d_new), euler_totient(d))
        )


def test_fiber_count_examples():
    assert fiber_point_count(graph_of([2], []), DegreeData((0,), ()), 3) == 81
    loop = graph_of([0], [(0, 0)])
    assert fiber_point_count(loop, DegreeData((0,), ()), 2) == 4
    two_loops = graph_of([0], [(0, 0), (0, 0)])
    assert fiber_point_count(two_loops, DegreeData((0,), ()), 2) == 16


def test_fiber_count_on_cyclic_graphs():
    # parallel edges and cycles share their numerators across vertices, so
    # the count stays r^(2g) rather than the larger free-loop product
    theta = graph_of([0, 0], [(0, 1), (0, 1), (0, 1)])
    assert fiber_point_count(theta, DegreeData((0, 0), ()), 2) == 16
    square = graph_of([0, 0, 0, 0], [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert fiber_point_count(square, DegreeData((0, 0, 0, 0), ()), 3) == 9


def test_fiber_count_sums_lifts_over_decorations():
    rng = random.Random(31)
    for _ in range(15):
        nv, edges = oracles.random_tree_with_loops(rng, max_vertices=4, max_loops=2)
        r = rng.choice([1, 2, 3, 4])
        n_tails = rng.randrange(3)
        graph = graph_of([rng.randrange(2) for _ in range(nv)], edges,
                         [rng.randrange(nv) for _ in range(n_tails)])
        data = balanced_data(rng, nv, n_tails, r)
        total = sum(
            count_lifts(gerby, r).value
            for gerby in enumerate_compatible_gerby(graph, data, r)
        )
        assert fiber_point_count(graph, data, r) == total
        assert total == r ** (2 * total_genus(graph))


def cycle_endpoints(graph):
    """Endpoints of the edges between distinct vertices, in edge order."""
    pairs = [graph.vertices_of_edge(e) for e in range(graph.num_edges)]
    return tuple((a, b) for a, b in pairs if a != b)


def assert_counts_match_brute_force(graph, residuals, r):
    """Compare with the oracle for every order tuple; return the counts."""
    endpoints = cycle_endpoints(graph)
    counts = {}
    for orders in itertools.product(divisors(r), repeat=len(endpoints)):
        got = _cycle_assignment_count(graph, orders, residuals, r)
        assert got == oracles.cycle_assignment_count_brute(
            endpoints, orders, residuals, r
        ), (endpoints, orders, residuals, r)
        counts[orders] = got
    return counts


def random_connected_graph(rng, nv, n_extra):
    """A random spanning tree on nv vertices plus n_extra edges between
    distinct vertices, each edge in a random orientation, and maybe a loop."""
    edges = [(rng.randrange(v), v) for v in range(1, nv)]
    edges += [tuple(rng.sample(range(nv), 2)) for _ in range(n_extra)]
    edges = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in edges]
    if rng.random() < 0.3:
        w = rng.randrange(nv)
        edges.insert(rng.randrange(len(edges) + 1), (w, w))
    return graph_of([0] * nv, edges)


def test_cycle_assignment_count_matches_brute_force_on_random_graphs():
    rng = random.Random(59)
    for r in range(1, 9):
        for _ in range(6):
            nv = rng.randint(2, 4)
            graph = random_connected_graph(rng, nv, rng.randint(0, 5 - nv))
            if rng.random() < 0.5:
                # residuals of a random assignment, so balanced ones exist
                residuals = [0] * nv
                for a, b in cycle_endpoints(graph):
                    x = rng.randrange(r)
                    residuals[a] = (residuals[a] + x) % r
                    residuals[b] = (residuals[b] - x) % r
            else:
                residuals = [rng.randrange(r) for _ in range(nv)]
            assert_counts_match_brute_force(graph, tuple(residuals), r)


def test_cycle_assignment_count_on_parallel_edges_in_both_orientations():
    graph = graph_of([0, 0], [(0, 1), (1, 0), (0, 1)])
    for r in range(1, 9):
        for k in range(r):
            counts = assert_counts_match_brute_force(graph, (k, -k % r), r)
            # two of the three values are free, the third is forced
            assert sum(counts.values()) == r**2


def test_cycle_assignment_count_on_cycles_joined_by_a_bridge():
    bridged = graph_of([0] * 4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)])
    for r in range(1, 9):
        for residuals in ((0, 0, 0, 0), (1 % r, -1 % r, 2 % r, -2 % r), (1 % r, 0, 0, -1 % r)):
            counts = assert_counts_match_brute_force(bridged, residuals, r)
            assert sum(counts.values()) == r**2


def test_cycle_assignment_count_is_zero_on_unbalanced_residuals():
    cases = [
        (graph_of([0, 0], [(0, 1), (1, 0), (0, 1)]), (1, 0)),
        (graph_of([0] * 4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)]), (0, 1, 0, 0)),
    ]
    loop = graph_of([0], [(0, 0)])
    for r in range(2, 9):
        for graph, residuals in cases:
            residuals = tuple(k % r for k in residuals)
            counts = assert_counts_match_brute_force(graph, residuals, r)
            assert set(counts.values()) == {0}
        # no edge between distinct vertices: one empty assignment, if balanced
        assert _cycle_order_counts(loop, (0,), r) == {(): 1}
        assert _cycle_order_counts(loop, (1,), r) == {}


def test_cycle_assignment_count_by_prime_powers_matches_brute_force():
    # random connected graphs with bridges and maybe a loop, at r with one
    # or several prime powers; r^(cycle edges) stays within reach of the oracle
    rng = random.Random(83)
    for r in (4, 8, 9, 12, 18, 20, 30):
        max_cycle_edges = 4 if r < 10 else 3
        for _ in range(6):
            nv = rng.randint(2, max_cycle_edges + 1)
            graph = random_connected_graph(rng, nv, rng.randint(0, max_cycle_edges + 1 - nv))
            residuals = [0] * nv
            for a, b in cycle_endpoints(graph):
                x = rng.randrange(r)
                residuals[a] = (residuals[a] + x) % r
                residuals[b] = (residuals[b] - x) % r
            counts = assert_counts_match_brute_force(graph, tuple(residuals), r)
            assert sum(counts.values()) == r ** (len(cycle_endpoints(graph)) - nv + 1)
            # a residual sum that is 0 mod one prime power q of r but not
            # mod r balances mod q only, so no assignment balances
            q = max(q for _, q in counting._prime_powers(r))
            if q < r:
                residuals[rng.randrange(nv)] += q
                unbalanced = tuple(x % r for x in residuals)
                assert _cycle_order_counts(graph, unbalanced, r) == {}
                counts = assert_counts_match_brute_force(graph, unbalanced, r)
                assert set(counts.values()) == {0}


@pytest.mark.parametrize("r, n_edges", [(r, n) for r in (30, 60, 210) for n in (2, 3, 4)])
def test_banana_counts_match_ramanujan_sums(r, n_edges):
    # r^(n_edges) assignments are past the brute-force oracle at r = 60 and
    # 210; every residual at r = 30, a few elsewhere
    rng = random.Random(r * 10 + n_edges)
    edges = [(0, 1) if rng.random() < 0.5 else (1, 0) for _ in range(n_edges)]
    banana = graph_of([0, 0], edges)
    for rho in range(r) if r == 30 else (0, 1, r // 2, rng.randrange(r)):
        assert _cycle_order_counts(banana, (rho, -rho % r), r) == (
            oracles.banana_order_counts(n_edges, rho, r)
        ), (edges, rho, r)


def test_cycle_count_enumerates_once_per_prime_power(monkeypatch):
    # a 4-edge banana at r = 30: 2^3 + 3^3 + 5^3 assignments, never 30^3
    seen = []
    peel = counting._peel_counts

    def spy(free, steps, size, residuals, q):
        seen.append(q)
        return peel(free, steps, size, residuals, q)

    monkeypatch.setattr(counting, "_peel_counts", spy)
    banana = graph_of([0, 0], [(0, 1)] * 4)
    counts = _cycle_order_counts.__wrapped__(banana, (0, 0), 30)
    assert seen == [2, 3, 5]
    assert sum(counts.values()) == 30**3


@pytest.mark.parametrize("loops", [0, 1, 2])
def test_loops_only_graphs_match_the_oracle(loops):
    # one vertex and no cycle edge: the empty assignment balances only when
    # the residual is 0 mod r, for the oracle as for the table
    graph = graph_of([1], [(0, 0)] * loops)
    for r in range(1, 7):
        for rho in range(r):
            assert _cycle_order_counts(graph, (rho,), r).get((), 0) == (
                oracles.cycle_assignment_count_brute((), (), (rho,), r)
            )

GRAPH_CLASSES = oracles.connected_multigraph_classes(4, 4)


@st.composite
def cycle_systems(draw):
    """A connected graph of 2 to 4 vertices, its edges in random
    orientations, and residuals that are balanced about half the time."""
    nv, edges = draw(st.sampled_from([c for c in GRAPH_CLASSES if c[0] >= 2]))
    edges = [(b, a) if draw(st.booleans()) else (a, b) for a, b in edges]
    graph = graph_of([0] * nv, edges)
    r = draw(st.integers(1, 8))
    if draw(st.booleans()):
        # the residuals of some assignment, then maybe one vertex moved
        residuals = [0] * nv
        for a, b in cycle_endpoints(graph):
            x = draw(st.integers(0, r - 1))
            residuals[a] += x
            residuals[b] -= x
        residuals[draw(st.integers(0, nv - 1))] += draw(st.sampled_from([0, 0, 1]))
    else:
        residuals = draw(st.lists(st.integers(0, r - 1), min_size=nv, max_size=nv))
    return graph, tuple(x % r for x in residuals), r


@given(cycle_systems())
def test_balance_is_decided_once(system):
    graph, residuals, r = system
    counts = _cycle_order_counts(graph, residuals, r)
    assert (counts == {}) == bool(sum(residuals) % r)
    endpoints = cycle_endpoints(graph)
    for orders in itertools.product(divisors(r), repeat=len(endpoints)):
        assert counts.get(orders, 0) == oracles.cycle_assignment_count_brute(
            endpoints, orders, residuals, r
        ), (endpoints, orders, residuals, r)


def test_fiber_count_detects_a_wrong_cycle_count(monkeypatch):
    # one extra assignment per decoration must break the r^(2g) closed form
    theta = graph_of([0, 0], [(0, 1), (0, 1), (0, 1)])
    exact = counting._cycle_assignment_count
    monkeypatch.setattr(counting, "_cycle_assignment_count", lambda *a: exact(*a) + 1)
    with pytest.raises(AssertionError, match="closed form"):
        fiber_point_count(theta, DegreeData((0, 0), ()), 2)


def test_fiber_count_detects_wrong_bridge_orders(monkeypatch):
    # the balance solves the twisted bridge (0, 1) to age 3/4; decorations
    # that give it order 1 count 0 and break the r^(2g) closed form
    path = graph_of([0, 0, 0], [(0, 1), (1, 2), (1, 2)], tails=[0])
    data = DegreeData((1, 1, 0), (ContactType(1, 2),))
    assert fiber_point_count(path, data, 4) == 16
    monkeypatch.setattr(
        admissibility, "_cut_orders", lambda graph, *a: dict.fromkeys(range(graph.num_edges), 1)
    )
    with pytest.raises(AssertionError, match="closed form"):
        fiber_point_count(path, data, 4)


@given(st.sampled_from(GRAPH_CLASSES), st.integers(1, 8), st.randoms(use_true_random=False))
def test_balance_solves_bridges_to_the_cut_formula(graph_class, r, rng):
    nv, edges = graph_class
    n_tails = rng.randint(0, 3)
    graph = graph_of([0] * nv, edges, [rng.randrange(nv) for _ in range(n_tails)])
    data = balanced_data(rng, nv, n_tails, r)
    residuals = list(data.vertex_residues)
    for f, t in zip(graph.tails(), data.tail_types):
        residuals[graph.attachment[f]] -= t.residue(r)
    pairs = [graph.vertices_of_edge(e) for e in range(graph.num_edges)]
    linked = [e for e, (u, v) in enumerate(pairs) if u != v]
    counts = _cycle_order_counts(graph, tuple(x % r for x in residuals), r)
    assert counts
    for e in oracles.find_bridges(nv, pairs):
        forced = separating_node_order(graph, data, e, r).order
        assert {orders[linked.index(e)] for orders in counts} == {forced}


def test_fiber_count_rejects_unbalanced_data():
    loop = graph_of([0], [(0, 0)])
    with pytest.raises(ValueError, match="inconsistent"):
        fiber_point_count(loop, DegreeData((1,), ()), 2)


def test_fiber_count_with_twisted_tails():
    graph = graph_of([1], [], tails=[0, 0])
    data = DegreeData((1,), (ContactType(1, 4), ContactType(0, 1)))
    assert fiber_point_count(graph, data, 4) == 16


def test_pushforward_degree_examples():
    assert pushforward_degree(0, 3) == Fraction(1, 3)
    assert pushforward_degree(1, 3) == 3
    assert pushforward_degree(2, 2) == 8
    with pytest.raises(ValueError, match="nonnegative"):
        pushforward_degree(-1, 3)
    with pytest.raises(ValueError, match="positive"):
        pushforward_degree(1, 0)


def test_stack_degree_examples():
    for g, r in [(0, 2), (1, 3), (2, 5)]:
        assert stack_degree(r ** (2 * g), r, 1) == Fraction(r) ** (2 * g - 1)
    assert stack_degree(1, 1, 1) == 1
    assert stack_degree(6, 3, 1) == 2
    with pytest.raises(ValueError, match="field degree"):
        stack_degree(0, 1, 1)
    with pytest.raises(ValueError, match="automorphism"):
        stack_degree(1, 0, 1)
    with pytest.raises(ValueError, match="automorphism"):
        stack_degree(1, 1, 0)


def test_pushforward_is_fiber_count_over_r():
    rng = random.Random(47)
    for _ in range(10):
        nv, edges = oracles.random_tree_with_loops(rng, max_vertices=3, max_loops=2)
        r = rng.choice([1, 2, 3])
        graph = graph_of([rng.randrange(2) for _ in range(nv)], edges)
        data = balanced_data(rng, nv, 0, r)
        fiber = fiber_point_count(graph, data, r)
        assert pushforward_degree(total_genus(graph), r) == Fraction(fiber, r)
