"""Tests for dual graphs and gerby decorations."""

import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import graph_of
from gerbecalc.graphs import (
    GerbyGraph,
    ModularGraph,
    _picker,
    _spanning_forest,
    betti1,
    classify_edges,
    split_at_edge,
    total_genus,
)


@st.composite
def connected_graphs(draw):
    """Random connected multigraph built from a spanning tree plus extras."""
    nv = draw(st.integers(1, 5))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, nv)]
    extras = draw(
        st.lists(
            st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1)), max_size=4
        )
    )
    edges += [tuple(sorted(e)) for e in extras]
    genera = draw(st.lists(st.integers(0, 2), min_size=nv, max_size=nv))
    n_tails = draw(st.integers(0, 3))
    tails = [draw(st.integers(0, nv - 1)) for _ in range(n_tails)]
    return graph_of(genera, edges, tails), edges


@st.composite
def two_component_pairs(draw):
    """A connected graph's edges plus a disjoint second component with
    parallel edges and self-loops, in a shuffled edge order."""
    graph, edges = draw(connected_graphs())
    nv = graph.num_vertices
    m = draw(st.integers(1, 4))
    second = [(nv + draw(st.integers(0, v - 1)), nv + v) for v in range(1, m)]
    loop = nv + draw(st.integers(0, m - 1))
    second.append((loop, loop))
    a, b = sorted(draw(st.lists(st.integers(nv, nv + m - 1), min_size=2, max_size=2)))
    second += [(a, b), (a, b)]
    pairs = draw(st.permutations(edges + second))
    return nv + m, pairs


def _components(n_vertices, pairs):
    """Vertex sets of the connected components, by union-find."""
    parent = list(range(n_vertices))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for a, b in pairs:
        parent[find(a)] = find(b)
    groups = {}
    for v in range(n_vertices):
        groups.setdefault(find(v), set()).add(v)
    return list(groups.values())


def test_construction_validation():
    with pytest.raises(ValueError, match="at least one vertex"):
        ModularGraph((), (), ())
    with pytest.raises(ValueError, match="self-inverse"):
        ModularGraph((1, 2, 0), (0, 0, 0), (0,))
    with pytest.raises(ValueError, match="missing vertex"):
        ModularGraph((1, 0), (0, 5), (0, 0))
    with pytest.raises(ValueError, match="same flags"):
        ModularGraph((0,), (), (0,))
    with pytest.raises(ValueError, match="nonnegative"):
        ModularGraph((), (), (-1,))
    with pytest.raises(ValueError, match="not connected"):
        graph_of([0, 0], [])


def test_flag_layout_from_config():
    # one tail on each vertex, then a bridge: tails take flags 0..T-1
    g = graph_of([1, 2], [(0, 1)], tails=[0, 1])
    assert g.num_flags == 4
    assert g.tails() == (0, 1)
    assert g.edges() == ((2, 3),)
    assert g.attachment == (0, 1, 0, 1)
    assert g.vertices_of_edge(0) == (0, 1)
    assert g.tails_at(1) == (1,)


def test_from_config_validation_messages():
    with pytest.raises(ValueError, match="'vertices'"):
        ModularGraph.from_config({"edges": [], "tails": []})
    with pytest.raises(ValueError, match="vertices\\[0\\]"):
        ModularGraph.from_config({"vertices": [3], "edges": [], "tails": []})
    with pytest.raises(ValueError, match="genus"):
        ModularGraph.from_config(
            {"vertices": [{"genus": -2}], "edges": [], "tails": []}
        )
    with pytest.raises(ValueError, match="edges\\[0\\]"):
        ModularGraph.from_config(
            {"vertices": [{"genus": 0}], "edges": [[0]], "tails": []}
        )
    with pytest.raises(ValueError, match="tails\\[0\\]"):
        ModularGraph.from_config(
            {"vertices": [{"genus": 0}], "edges": [], "tails": [1]}
        )


def test_from_config_names_the_first_misfit():
    with pytest.raises(ValueError, match=r"'edges\[1\]\[0\]' must be an integer, got '0'"):
        ModularGraph.from_config(
            {"vertices": [{"genus": 0}], "edges": [[0, 0], ["0", 0]], "tails": []}
        )
    with pytest.raises(ValueError, match=r"missing the field 'vertices\[0\]\.genus'"):
        ModularGraph.from_config({"vertices": [{}], "edges": [], "tails": []})


@pytest.mark.parametrize(
    "config, message",
    [
        (
            {"vertices": [{"genus": 0}], "edges": [], "tails": [0] * 99_999 + ["0"]},
            "field 'tails[99999]' must be an integer, got '0'",
        ),
        (
            {"vertices": [{"genus": 0}, {"genus": 1}],
             "edges": [[0, 1], [1, 1], [0, 0], [0, True]], "tails": []},
            "field 'edges[3][1]' must be an integer, got True",
        ),
        (
            {"vertices": [{"genus": 0}, {"genus": 1}],
             "edges": [[0, 1], [1, 1], [0, 0], True], "tails": []},
            "field 'edges[3]' must be a list, got True",
        ),
    ],
    ids=["last-of-100000-tails", "true-in-edges-3", "true-as-edges-3"],
)
def test_from_config_names_one_misfit_in_a_long_list(config, message):
    # items of exactly the item kind are passed over in one loop; the misfit
    # alone is checked with its path, and the message is the per-item one
    with pytest.raises(ValueError) as error:
        ModularGraph.from_config(config)
    assert str(error.value) == message


@pytest.mark.parametrize(
    "config, field",
    [
        ({"vertices": [{"genus": True}], "edges": [], "tails": []}, "genus"),
        ({"vertices": [{"genus": 0}, {"genus": 0}], "edges": [[0, 1]], "tails": [True]},
         "tails\\[0\\]"),
        ({"vertices": [{"genus": 0}, {"genus": 0}], "edges": [[False, True]], "tails": []},
         "edges\\[0\\]"),
    ],
    ids=["genus", "tails", "edge-endpoints"],
)
def test_from_config_rejects_booleans(config, field):
    with pytest.raises(ValueError, match=field):
        ModularGraph.from_config(config)


def test_config_round_trip():
    g = graph_of([1, 0], [(0, 1), (1, 1)], tails=[0])
    again = ModularGraph.from_config(g.to_config())
    assert again == g and hash(again) == hash(g)
    assert again.to_config() == g.to_config()


def test_hash_is_the_field_tuples_made_once_per_graph():
    g = graph_of([1, 0], [(0, 1), (1, 1)], tails=[0])
    fields = (g.involution, g.attachment, g.vertex_genus)
    assert hash(g) == hash(fields) == g._hash
    assert "__hash__" in vars(ModularGraph) and "_hash" not in ModularGraph._fields
    # built apart, from lists and from a configuration, they are one key
    apart = ModularGraph(*map(list, fields))
    assert apart is not g and apart == g and hash(apart) == hash(g)
    assert {g: 1}[apart] == 1


def test_picker_gives_a_tuple_for_any_number_of_indices():
    items = (5, 6, 7)
    assert _picker([])(items) == ()
    assert _picker([1])(items) == (6,)
    assert _picker([2, 0, 2])(items) == (7, 5, 7)


def test_edges_are_computed_once_per_graph():
    g = graph_of([0, 0, 0], [(0, 1), (1, 2), (2, 2)], tails=[1])
    assert g.edges() is g.edges()
    assert g.edges() == ((1, 2), (3, 4), (5, 6))
    assert [g.vertices_of_edge(e) for e in range(g.num_edges)] == [(0, 1), (1, 2), (2, 2)]


def test_tails_are_computed_once_per_graph():
    g = graph_of([0, 0], [(0, 1)], tails=[1, 0])
    assert g.tails() is g.tails()
    assert g.tails() == (0, 1)
    assert g.tails_at(0) == (1,)
    assert "_tails" not in ModularGraph._fields
    again = ModularGraph.from_config(g.to_config())
    assert again == g and hash(again) == hash(g)


def test_betti_and_genus():
    assert betti1(graph_of([2], [])) == 0
    assert total_genus(graph_of([2], [])) == 2
    loop = graph_of([0], [(0, 0)])
    assert betti1(loop) == 1 and total_genus(loop) == 1
    theta = graph_of([0, 0], [(0, 1), (0, 1), (0, 1)])
    assert betti1(theta) == 2 and total_genus(theta) == 2
    path = graph_of([1, 0, 1], [(0, 1), (1, 2)])
    assert betti1(path) == 0 and total_genus(path) == 2


def test_edge_classification_examples():
    path = graph_of([0, 0, 0], [(0, 1), (1, 2)])
    assert classify_edges(path) == ((0, 1), ())
    loop = graph_of([0], [(0, 0)])
    assert classify_edges(loop) == ((), (0,))
    theta = graph_of([0, 0], [(0, 1), (0, 1), (0, 1)])
    assert classify_edges(theta) == ((), (0, 1, 2))
    mixed = graph_of([0, 0], [(0, 1), (1, 1)])
    assert classify_edges(mixed) == ((0,), (1,))


@given(connected_graphs())
def test_edge_classification_matches_bridge_oracle(case):
    graph, edges = case
    bridges = oracles.find_bridges(graph.num_vertices, edges)
    separating, nonseparating = classify_edges(graph)
    assert set(separating) == bridges
    assert set(separating) | set(nonseparating) == set(range(len(edges)))
    assert not set(separating) & set(nonseparating)


def test_classifying_a_path_holds_memory_linear_in_its_size():
    # only edges outside the spanning forest take a mark bit, so a path's
    # marks stay 0; a bit per edge would keep about n^2 / 2 bits (25 MB)
    n = 20_000
    path = graph_of([0] * n, [(v, v + 1) for v in range(n - 1)])
    tracemalloc.start()
    try:
        separating, _ = classify_edges(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert separating == tuple(range(n - 1))
    assert peak < 1_000 * n


def test_split_at_edge():
    path = graph_of([0, 0, 0], [(0, 1), (1, 2)])
    side, other = split_at_edge(path, 1)
    assert side == frozenset({0, 1}) and other == frozenset({2})
    with pytest.raises(ValueError, match="not separating"):
        split_at_edge(graph_of([0], [(0, 0)]), 0)


@given(connected_graphs())
def test_split_sides_partition_the_vertices(case):
    graph, edges = case
    separating, _ = classify_edges(graph)
    for e in separating:
        side, other = split_at_edge(graph, e)
        assert side | other == set(range(graph.num_vertices))
        assert not side & other
        f1, _f2 = graph.edges()[e]
        assert graph.attachment[f1] in side
        for k, (a, b) in enumerate(edges):
            if k != e:
                assert (a in side) == (b in side)
        for part in (side, other):
            index = {v: i for i, v in enumerate(sorted(part))}
            inside = [(index[a], index[b]) for a, b in edges if a in part and b in part]
            assert oracles._is_connected(len(part), inside)


@given(two_component_pairs())
def test_spanning_forest_spans_vertex_0_in_step_order(case):
    n_vertices, pairs = case
    steps = _spanning_forest(n_vertices, pairs)
    (first,) = [c for c in _components(n_vertices, pairs) if 0 in c]
    # the steps span vertex 0's component only, so they fall short of
    # n_vertices - 1 on this disconnected input
    assert len(steps) == len(first) - 1 < n_vertices - 1
    reached = {0}
    for e, child, parent in steps:
        assert parent in reached and child not in reached
        assert sorted(pairs[e]) == sorted((child, parent))
        reached.add(child)
    assert reached == first


def test_gerby_validation():
    bridge = graph_of([0, 0], [(0, 1)], tails=[1])
    with pytest.raises(ValueError, match=r"got tail orders \(0,\) and edge orders \(2,\)$"):
        GerbyGraph(bridge, (0,), (2,))
    with pytest.raises(ValueError, match=r"got tail orders \(3,\) and edge orders \(0,\)$"):
        GerbyGraph(bridge, (3,), (0,))
    with pytest.raises(ValueError, match="per tail"):
        GerbyGraph(bridge, (3, 3), (2,))
    with pytest.raises(ValueError, match="per edge"):
        GerbyGraph(bridge, (3,), ())


def test_gerby_order_views():
    g = graph_of([0, 1], [(0, 1), (1, 1)], tails=[0])
    gerby = GerbyGraph(g, [3], [2, 4])
    assert gerby.tail_orders == (3,)
    assert gerby.edge_orders == (2, 4)
    assert gerby.to_config() == {"tail_orders": [3], "edge_orders": [2, 4]}
    with pytest.raises(ValueError, match="per tail"):
        GerbyGraph(g, (), (2, 4))
    with pytest.raises(ValueError, match="per edge"):
        GerbyGraph(g, (3,), (2,))


@pytest.mark.parametrize(
    "tail_orders, edge_orders, message",
    [
        ((3,), (0, 4), "positive"),
        ((-3,), (2, 4), "positive"),
        ((3, 3), (2, 4), "per tail"),
        ((3,), (2, 4, 4), "per edge"),
    ],
)
def test_from_orders_checks_user_orders(tail_orders, edge_orders, message):
    g = graph_of([0, 1], [(0, 1), (1, 1)], tails=[0])
    with pytest.raises(ValueError, match=message):
        GerbyGraph(g, tail_orders, edge_orders)


@given(connected_graphs())
def test_betti_bounds_and_tail_count(case):
    graph, edges = case
    assert 0 <= betti1(graph) <= len(edges)
    assert total_genus(graph) >= betti1(graph)
    assert len(graph.tails()) + 2 * graph.num_edges == graph.num_flags
