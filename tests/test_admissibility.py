"""Tests for contact types, admissible vectors, and compatible decorations."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import balanced_data, graph_of
from gerbecalc.admissibility import (
    AdmissibleVector,
    ContactType,
    DegreeData,
    divisors,
    enumerate_admissible,
    enumerate_compatible_gerby,
    is_admissible,
    separating_node_order,
)
from gerbecalc.graphs import GerbyGraph, classify_edges, split_at_edge


def test_divisors():
    assert divisors(1) == (1,)
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    with pytest.raises(ValueError, match="positive"):
        divisors(0)


def test_contact_type_validation():
    with pytest.raises(ValueError, match="must be positive"):
        ContactType(0, 0)
    with pytest.raises(ValueError, match="out of range"):
        ContactType(3, 2)
    with pytest.raises(ValueError, match="lowest terms"):
        ContactType(2, 4)


def test_contact_type_fraction_and_parse():
    t = ContactType(2, 3)
    assert t.fraction == Fraction(2, 3)
    assert str(t) == "2/3"
    assert ContactType.parse("2/3") == t
    assert ContactType.parse(" 5/3 ") == t
    assert ContactType.parse("0") == ContactType(0, 1)
    assert ContactType.parse("-1/4") == ContactType(3, 4)
    with pytest.raises(ValueError):
        ContactType.parse("junk")
    with pytest.raises(ValueError, match="zero denominator"):
        ContactType.parse("1/0")


def test_from_fraction_takes_fractional_part():
    assert ContactType.from_fraction(Fraction(7, 4)) == ContactType(3, 4)
    assert ContactType.from_fraction(2) == ContactType(0, 1)
    assert ContactType.from_fraction(Fraction(-1, 6)) == ContactType(5, 6)


def test_residue_round_trip():
    for r in range(1, 13):
        for x in range(r):
            assert ContactType.from_residue(x, r).residue(r) == x
    assert ContactType(1, 3).residue(6) == 2
    assert ContactType(1, 3).residue(12) == 4
    with pytest.raises(ValueError, match="does not divide"):
        ContactType(1, 3).residue(4)
    with pytest.raises(ValueError, match="positive"):
        ContactType.from_residue(1, 0)


@st.composite
def contact_types(draw):
    order = draw(st.integers(1, 24))
    return ContactType.from_fraction(Fraction(draw(st.integers(0, order - 1)), order))


@given(st.integers(1, 24), st.lists(contact_types(), max_size=4),
       st.integers(-3, 3), st.integers(0, 2))
def test_admissibility_matches_the_fraction_rule(r, entries, wraps, miss):
    # k is the residue sum of the entries whose order divides r, plus wraps
    # multiples of r (so k may be negative or >= r), plus a miss of 0, 1 or 2
    k = sum(t.numerator * (r // t.order) for t in entries if r % t.order == 0)
    k += wraps * r + miss
    ages = sum((Fraction(t.numerator, t.order) for t in entries), Fraction(0))
    expected = all(r % t.order == 0 for t in entries) and (ages - Fraction(k, r)) % 1 == 0
    assert is_admissible(entries, r, k) == expected


@given(st.integers(-100, 100), st.integers(1, 24))
def test_from_residue_is_the_reduced_fraction(residue, r):
    assert ContactType.from_residue(residue, r) == ContactType.from_fraction(Fraction(residue, r))


def test_inverse_pairs_branches():
    assert ContactType(0, 1).inverse() == ContactType(0, 1)
    assert ContactType(1, 3).inverse() == ContactType(2, 3)
    for r in range(1, 10):
        for x in range(r):
            t = ContactType.from_residue(x, r)
            assert t.inverse().inverse() == t
            assert (t.fraction + t.inverse().fraction) % 1 == 0


def test_ordering_by_age():
    types = [ContactType(1, 2), ContactType(1, 3), ContactType(0, 1), ContactType(2, 3)]
    assert sorted(types) == [
        ContactType(0, 1),
        ContactType(1, 3),
        ContactType(1, 2),
        ContactType(2, 3),
    ]


def test_is_admissible_examples():
    assert is_admissible([], 3, 0)
    assert not is_admissible([], 5, 2)
    assert not is_admissible([ContactType(1, 2), ContactType(1, 2)], 2, 1)
    assert is_admissible([ContactType(1, 3)], 3, 1)
    # order not dividing the ambient order disqualifies outright
    assert not is_admissible([ContactType(1, 3)], 4, 0)
    with pytest.raises(ValueError, match="positive"):
        is_admissible([], 0, 0)


def test_admissible_vector_validation():
    v = AdmissibleVector((ContactType(1, 2), ContactType(1, 2)), 2, 0)
    assert v.residues() == (1, 1)
    with pytest.raises(ValueError, match="not admissible"):
        AdmissibleVector((ContactType(1, 2),), 2, 0)
    with pytest.raises(ValueError, match="out of range"):
        AdmissibleVector((), 3, 3)


def test_enumerate_admissible_examples():
    assert [v.entries for v in enumerate_admissible(2, 2, 0)] == [
        (ContactType(0, 1), ContactType(0, 1)),
        (ContactType(1, 2), ContactType(1, 2)),
    ]
    assert [v.entries for v in enumerate_admissible(1, 2, 1)] == [(ContactType(1, 2),)]
    assert list(enumerate_admissible(0, 5, 2)) == []
    assert len(list(enumerate_admissible(0, 5, 0))) == 1
    with pytest.raises(ValueError, match="nonnegative"):
        list(enumerate_admissible(-1, 2, 0))


@given(st.integers(1, 4), st.integers(1, 6), st.integers(0, 11))
def test_enumerate_admissible_matches_brute_force(n, r, k):
    k %= r
    got = [v.residues() for v in enumerate_admissible(n, r, k)]
    assert set(got) == oracles.admissible_residue_tuples(n, r, k)
    assert got == sorted(got)
    assert len(got) == len(set(got)) == r ** (n - 1)


def test_degree_data_validation():
    bridge = graph_of([0, 0], [(0, 1)], tails=[0])
    data = DegreeData((1, 5), (ContactType(1, 2),))
    checked = data.validated_for(bridge, 2)
    assert checked.vertex_residues == (1, 1)
    assert checked.total_residue(2) == 0
    assert checked.tail_types_at(bridge, 0) == (ContactType(1, 2),)
    assert checked.tail_types_at(bridge, 1) == ()
    with pytest.raises(ValueError, match="vertex residues"):
        DegreeData((1,), (ContactType(1, 2),)).validated_for(bridge, 2)
    with pytest.raises(ValueError, match="tail types"):
        DegreeData((1, 1), ()).validated_for(bridge, 2)
    with pytest.raises(ValueError, match="does not divide"):
        DegreeData((1, 1), (ContactType(1, 3),)).validated_for(bridge, 2)
    with pytest.raises(ValueError, match="positive"):
        data.validated_for(bridge, 0)


def test_node_order_bridge_example():
    bridge = graph_of([0, 0], [(0, 1)])
    t = separating_node_order(bridge, DegreeData((1, 0), ()), 0, 2)
    assert t == ContactType(1, 2)
    # integral cut value means an untwisted node
    assert separating_node_order(bridge, DegreeData((0, 0), ()), 0, 4) == ContactType(0, 1)


def test_node_order_path_example():
    # the cut formula needs no global balance; this data has sum 3 mod 6
    path = graph_of([0, 0, 0], [(0, 1), (1, 2)])
    data = DegreeData((1, 1, 1), ())
    assert separating_node_order(path, data, 0, 6) == ContactType(1, 6)
    assert separating_node_order(path, data, 1, 6) == ContactType(1, 3)
    # unbalanced data is side-dependent: the far side sums to <1/6>
    side_a, side_b = split_at_edge(path, 1)
    assert separating_node_order(path, data, 1, 6, side=side_a) == ContactType(1, 3)
    assert separating_node_order(path, data, 1, 6, side=side_b) == ContactType(1, 6)


def test_node_order_side_errors():
    path = graph_of([0, 0, 0], [(0, 1), (1, 2)])
    data = DegreeData((0, 0, 0), ())
    with pytest.raises(ValueError, match="not a side"):
        separating_node_order(path, data, 1, 6, side=frozenset({0}))
    loop = graph_of([1], [(0, 0)])
    with pytest.raises(ValueError, match="not separating"):
        separating_node_order(loop, DegreeData((0,), ()), 0, 6)


def test_node_order_sides_are_complementary():
    rng = random.Random(11)
    for _ in range(30):
        nv, edges = oracles.random_tree_with_loops(rng, max_vertices=5, max_loops=2)
        r = rng.choice([1, 2, 3, 4, 6, 12])
        n_tails = rng.randrange(3)
        graph = graph_of([rng.randrange(3) for _ in range(nv)], edges,
                         [rng.randrange(nv) for _ in range(n_tails)])
        data = balanced_data(rng, nv, n_tails, r)
        for e in classify_edges(graph)[0]:
            side_a, side_b = split_at_edge(graph, e)
            t_a = separating_node_order(graph, data, e, r, side=side_a)
            t_b = separating_node_order(graph, data, e, r, side=side_b)
            assert t_a.order == t_b.order
            assert t_b == t_a.inverse()


def test_compatible_gerby_examples():
    smooth = graph_of([1], [])
    assert len(list(enumerate_compatible_gerby(smooth, DegreeData((0,), ()), 4))) == 1

    loop = graph_of([0], [(0, 0)])
    decorations = list(enumerate_compatible_gerby(loop, DegreeData((0,), ()), 6))
    assert sorted(g.edge_orders() for g in decorations) == [(1,), (2,), (3,), (6,)]

    # sum of residues must vanish mod 2, so the unstated residue is forced
    two = graph_of([0, 0], [(0, 1), (1, 1)])
    decorations = list(enumerate_compatible_gerby(two, DegreeData((1, 1), ()), 2))
    assert len(decorations) == 2
    assert all(g.edge_orders()[0] == 2 for g in decorations)
    assert sorted(g.edge_orders()[1] for g in decorations) == [1, 2]


def test_compatible_gerby_rejects_unbalanced_data():
    loop = graph_of([0], [(0, 0)])
    with pytest.raises(ValueError, match="inconsistent"):
        list(enumerate_compatible_gerby(loop, DegreeData((1,), ()), 2))


def test_compatible_gerby_count_and_validity():
    rng = random.Random(23)
    for _ in range(10):
        nv, edges = oracles.random_tree_with_loops(rng, max_vertices=4, max_loops=2)
        r = rng.choice([2, 4, 6])
        n_tails = rng.randrange(3)
        graph = graph_of([0] * nv, edges, [rng.randrange(nv) for _ in range(n_tails)])
        data = balanced_data(rng, nv, n_tails, r)
        decorations = list(enumerate_compatible_gerby(graph, data, r))
        n_loops = len(classify_edges(graph)[1])
        assert len(decorations) == len(divisors(r)) ** n_loops
        for gerby in decorations:
            assert gerby.tail_orders() == tuple(t.order for t in data.tail_types)
            assert all(r % gamma == 0 for gamma in gerby.flag_orders)


GRAPH_CLASSES = oracles.connected_multigraph_classes(4, 4)


@given(
    st.sampled_from(GRAPH_CLASSES),
    st.sampled_from([1, 2, 4, 6, 12]),
    st.randoms(use_true_random=False),
)
def test_decorations_equal_their_checked_construction(graph_class, r, rng):
    nv, edges = graph_class
    n_tails = rng.randint(0, 3)
    graph = graph_of([0] * nv, edges, [rng.randrange(nv) for _ in range(n_tails)])
    data = balanced_data(rng, nv, n_tails, r)
    # the decorations in product order over the non-separating edges, each
    # built through the checked constructor
    separating, nonseparating = classify_edges(graph)
    tail_orders = tuple(t.order for t in data.tail_types)
    orders = [0] * graph.num_edges
    for e in separating:
        orders[e] = separating_node_order(graph, data, e, r).order
    expected = []
    for assignment in itertools.product(divisors(r), repeat=len(nonseparating)):
        for e, d in zip(nonseparating, assignment):
            orders[e] = d
        expected.append(GerbyGraph.from_orders(graph, tail_orders, orders))

    decorations = list(enumerate_compatible_gerby(graph, data, r))
    assert decorations == expected
    for gerby in decorations:
        checked = GerbyGraph.from_orders(graph, gerby.tail_orders(), gerby.edge_orders())
        assert gerby == checked
        assert hash(gerby) == hash(checked)
        assert gerby.to_config() == checked.to_config()
        assert type(gerby.flag_orders) is tuple


@given(st.integers(1, 8), st.integers(0, 7), st.integers(0, 7))
def test_residue_product_law(r, x, y):
    x %= r
    y %= r
    combined = (ContactType.from_residue(x, r).fraction
                + ContactType.from_residue(y, r).fraction) % 1
    assert ContactType.from_fraction(combined) == ContactType.from_residue((x + y) % r, r)


def test_admissible_entries_close_under_forced_last():
    # any free prefix extends uniquely, which is where the r^(n-1) count comes from
    for r, k in [(4, 1), (6, 5)]:
        for prefix in itertools.product(range(r), repeat=2):
            matches = [
                v
                for v in enumerate_admissible(3, r, k)
                if v.residues()[:2] == prefix
            ]
            assert len(matches) == 1
