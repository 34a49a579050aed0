"""Dual graphs of prestable curves and their gerby (twisted) decorations.

Flags are the primitive objects: a graph is a flag set with an involution,
an attachment map to vertices, and a genus per vertex.  Tails are the fixed
flags of the involution, edges are its 2-orbits.  Vertices and edges are
derived views, so there are no special cases for self-loops, parallel edges,
or marked points.

A gerby graph decorates a graph with an isotropy order per tail and one per
edge, in the order of tails() and edges(): a node of a twisted curve is
balanced, its two branches carrying one order, and the command line reads
and writes decorations in this layout.

Graphs must be connected; disconnected input is a construction error.
A graph derives its layout once, when built, and keeps it: each edge's
endpoints (_ends); the tree of its one search by _spanning_forest (_forest);
in edge order, the edges between distinct vertices, bridges included
(_links), and the edges outside the tree (_chords).  classify_edges,
split_at_edge, admissibility and counting read these; _cycle_order_counts
keys its table by _links, fiber_point_count picks each decoration's cycle
orders from its edge orders by it, and cli's work bound counts it.

from_config reads its fields through _arith._field, the one reader of
configuration fields, which the command line shares without loading this
module; decompose, verify and enumerate-admissible never load it.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Callable, Mapping, Sequence

from ._arith import _band_order, _field, _isotropy_order
from ._record import Record, setfield


class ModularGraph(Record):
    """Connected dual graph: involution and attachment per flag, genus per vertex."""

    _fields = ("involution", "attachment", "vertex_genus")
    involution: tuple[int, ...]
    attachment: tuple[int, ...]
    vertex_genus: tuple[int, ...]

    def __init__(
        self,
        involution: tuple[int, ...],
        attachment: tuple[int, ...],
        vertex_genus: tuple[int, ...],
    ) -> None:
        involution = tuple(involution)
        setfield(self, "involution", involution)
        attachment = tuple(attachment)
        setfield(self, "attachment", attachment)
        vertex_genus = tuple(vertex_genus)
        setfield(self, "vertex_genus", vertex_genus)
        flags = len(involution)
        if len(attachment) != flags:
            raise ValueError("involution and attachment must cover the same flags")
        if not vertex_genus:
            raise ValueError("a graph needs at least one vertex")
        if any(g < 0 for g in vertex_genus):
            raise ValueError(f"vertex genera must be nonnegative, got {vertex_genus}")
        n_vertices = len(vertex_genus)
        for f in range(flags):
            j = involution[f]
            if not 0 <= j < flags or involution[j] != f:
                raise ValueError(f"involution is not self-inverse at flag {f}")
            if not 0 <= attachment[f] < n_vertices:
                raise ValueError(f"flag {f} attached to missing vertex {attachment[f]}")
        # Derived once: not in _fields, so hash and equality ignore them.
        # The hash is the field tuple's, as Record gives, made once here:
        # the fiber count's caches hash the graph once per decoration.
        setfield(self, "_hash", hash((involution, attachment, vertex_genus)))
        edges = tuple((f, j) for f, j in enumerate(involution) if j > f)
        setfield(self, "_edges", edges)
        setfield(self, "_tails", tuple(f for f, j in enumerate(involution) if j == f))
        ends = tuple((attachment[f1], attachment[f2]) for f1, f2 in edges)
        setfield(self, "_ends", ends)
        setfield(self, "_links", tuple(e for e, (a, b) in enumerate(ends) if a != b))
        steps = _spanning_forest(n_vertices, ends)
        if len(steps) != n_vertices - 1:
            raise ValueError("graph is not connected")
        setfield(self, "_forest", tuple(steps))
        tree = {e for e, _, _ in steps}
        setfield(self, "_chords", tuple(e for e in range(len(edges)) if e not in tree))

    def __hash__(self) -> int:
        return self._hash

    @property
    def num_flags(self) -> int:
        return len(self.involution)

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_genus)

    def tails(self) -> tuple[int, ...]:
        """Flags fixed by the involution (marked points), in flag order."""
        return self._tails

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Flag pairs (f, j(f)) with f < j(f) (nodes), ordered by first flag."""
        return self._edges

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def vertices_of_edge(self, edge_index: int) -> tuple[int, int]:
        return self._ends[edge_index]

    def tails_at(self, vertex: int) -> tuple[int, ...]:
        return tuple(f for f in self.tails() if self.attachment[f] == vertex)

    @classmethod
    def from_config(cls, config: Mapping) -> "ModularGraph":
        """Build from {"vertices": [{"genus": g}, ...], "edges": [[a, b], ...],
        "tails": [v, ...]}.

        Flag numbering: tail i is flag i; edge k occupies flags
        (T + 2k, T + 2k + 1) with T the number of tails, attached to the
        listed vertices in order.
        """
        genera = []
        for i, entry in enumerate(_field(config, "vertices", [dict])):
            g = _field(entry, "genus", int, f"vertices[{i}]")
            if g < 0:
                raise ValueError(f"field 'vertices[{i}].genus' must be a nonnegative integer")
            genera.append(g)
        edges = _field(config, "edges", [[int]])
        tails = _field(config, "tails", [int])
        n_tails = len(tails)
        involution = list(range(n_tails))
        attachment = []
        for i, v in enumerate(tails):
            if not 0 <= v < len(genera):
                raise ValueError(f"field 'tails[{i}]' must name a vertex")
            attachment.append(v)
        for k, pair in enumerate(edges):
            if len(pair) != 2 or not all(0 <= v < len(genera) for v in pair):
                raise ValueError(f"field 'edges[{k}]' must be a pair of vertices")
            f = n_tails + 2 * k
            involution += [f + 1, f]
            attachment += [pair[0], pair[1]]
        return cls(tuple(involution), tuple(attachment), tuple(genera))

    def to_config(self) -> dict:
        return {
            "vertices": [{"genus": g} for g in self.vertex_genus],
            "edges": [list(ends) for ends in self._ends],
            "tails": [self.attachment[f] for f in self.tails()],
        }


def _spanning_forest(
    n_vertices: int, pairs: Sequence[tuple[int, int]]
) -> list[tuple[int, int, int]]:
    """The tree edges a depth-first search from vertex 0 discovers in the
    multigraph whose edge e joins pairs[e].

    Each step is (edge, child, parent), in discovery order: every tree edge
    comes after the tree edge above its parent, so reversed, every edge
    comes after all edges further from vertex 0.  The steps span the
    component of vertex 0, so the graph is connected exactly when there are
    n_vertices - 1 of them.
    """
    adjacent: list[list[tuple[int, int]]] = [[] for _ in range(n_vertices)]
    for e, (a, b) in enumerate(pairs):
        adjacent[a].append((e, b))
        adjacent[b].append((e, a))
    steps: list[tuple[int, int, int]] = []
    seen = [False] * n_vertices
    seen[0] = True
    stack = [0]
    while stack:
        v = stack.pop()
        for e, w in adjacent[v]:
            if not seen[w]:
                seen[w] = True
                steps.append((e, w, v))
                stack.append(w)
    return steps


def _picker(indices: Sequence[int]) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """The itemgetter that gives the items of a tuple at indices, as a tuple.

    An itemgetter of several indices gives a tuple, but one of a single
    index gives the bare item and one of none cannot be made; a slice of a
    tuple is a tuple, so those two sizes get one of length 1 or 0.
    """
    if len(indices) > 1:
        return itemgetter(*indices)
    if indices:
        (i,) = indices
        return itemgetter(slice(i, i + 1))
    return itemgetter(slice(0, 0))


def betti1(graph: ModularGraph) -> int:
    """First Betti number 1 - |V| + |E| of the (connected) graph."""
    return 1 - graph.num_vertices + graph.num_edges


def total_genus(graph: ModularGraph) -> int:
    """Arithmetic genus of a curve with this dual graph: sum of genera + betti1."""
    return sum(graph.vertex_genus) + betti1(graph)


@lru_cache(maxsize=None)
def classify_edges(graph: ModularGraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Edge indices split into (separating, non-separating).

    An edge is separating when deleting it disconnects the graph; the
    non-separating ("loop") edges are the ones on a cycle, self-loops included.
    Each edge outside the forest toggles its own bit at both endpoints, so a
    forest edge separates when the marks XOR-summed below it cancel.  The
    marks hold at most V * (E - V + 1) bits, none on a tree.
    """
    marks = [0] * graph.num_vertices
    for bit, e in enumerate(graph._chords):
        for v in graph._ends[e]:
            marks[v] ^= 1 << bit
    for _e, child, parent in reversed(graph._forest):
        marks[parent] ^= marks[child]
    bridges = {e for e, child, _ in graph._forest if not marks[child]}
    return tuple(sorted(bridges)), tuple(sorted(set(range(graph.num_edges)) - bridges))


def split_at_edge(graph: ModularGraph, edge_index: int) -> tuple[frozenset, frozenset]:
    """Vertex sets of the two components after deleting a separating edge.

    The first set contains the vertex carrying the edge's lower flag.
    """
    separating, _ = classify_edges(graph)
    if edge_index not in separating:
        raise ValueError(f"edge {edge_index} is not separating")
    below = [False] * graph.num_vertices
    # One side is the vertices below the edge; steps mark a parent before its child.
    for e, child, parent in graph._forest:
        below[child] = e == edge_index or below[parent]
    lower = below[graph._ends[edge_index][0]]
    side = frozenset(v for v in range(graph.num_vertices) if below[v] == lower)
    return side, frozenset(range(graph.num_vertices)) - side


class GerbyGraph(Record):
    """A dual graph with an isotropy order per tail and one per edge."""

    _fields = ("base", "tail_orders", "edge_orders")
    base: ModularGraph
    tail_orders: tuple[int, ...]
    edge_orders: tuple[int, ...]

    def __init__(self, base: ModularGraph, tail_orders, edge_orders) -> None:
        setfield(self, "base", base)
        tail_orders = tuple(tail_orders)
        setfield(self, "tail_orders", tail_orders)
        edge_orders = tuple(edge_orders)
        setfield(self, "edge_orders", edge_orders)
        if len(tail_orders) != len(base.tails()):
            raise ValueError("need one order per tail")
        if len(edge_orders) != base.num_edges:
            raise ValueError("need one order per edge")
        if any(gamma < 1 for gamma in tail_orders + edge_orders):
            orders = f"tail orders {tail_orders} and edge orders {edge_orders}"
            raise ValueError(f"isotropy orders must be positive, got {orders}")

    def validated_for(self, r: int) -> "GerbyGraph":
        """This decoration, once r is positive and every order divides r."""
        _band_order(r)
        for gamma in self.tail_orders + self.edge_orders:
            _isotropy_order(gamma, r)
        return self

    @classmethod
    def _trusted(cls, base: ModularGraph, tail_orders: tuple, edge_orders: tuple) -> "GerbyGraph":
        """Wrap tuples of orders that are valid by construction, one positive
        order per tail and per edge, skipping the checks of __init__; user
        data goes through the checked constructor."""
        gerby = object.__new__(cls)
        setfield(gerby, "base", base)
        setfield(gerby, "tail_orders", tail_orders)
        setfield(gerby, "edge_orders", edge_orders)
        return gerby

    def to_config(self) -> dict:
        return {"tail_orders": list(self.tail_orders), "edge_orders": list(self.edge_orders)}
