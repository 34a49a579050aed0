"""Dual graphs of prestable curves and their gerby (twisted) decorations.

Flags are the primitive objects: a graph is a flag set with an involution,
an attachment map to vertices, and a genus per vertex.  Tails are the fixed
flags of the involution, edges are its 2-orbits.  Vertices and edges are
derived views, so there are no special cases for self-loops, parallel edges,
or marked points.

Graphs must be connected; disconnected input is a construction error.
Each graph is searched once, by _spanning_forest, when built; classify_edges,
split_at_edge, admissibility._cut_orders and counting._cycle_order_counts
read the spanning tree it keeps.

_field is the one reader of configuration fields, here so that from_config
and the command line share it without an import cycle.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, Sequence

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
        edges = tuple((f, j) for f, j in enumerate(involution) if j > f)
        setfield(self, "_edges", edges)
        setfield(self, "_tails", tuple(f for f, j in enumerate(involution) if j == f))
        pairs = [(attachment[f1], attachment[f2]) for f1, f2 in edges]
        steps = _spanning_forest(n_vertices, pairs)
        if len(steps) != n_vertices - 1:
            raise ValueError("graph is not connected")
        setfield(self, "_forest", tuple(steps))

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
        f1, f2 = self._edges[edge_index]
        return self.attachment[f1], self.attachment[f2]

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
            "edges": [[self.attachment[f1], self.attachment[f2]] for f1, f2 in self.edges()],
            "tails": [self.attachment[f] for f in self.tails()],
        }


_KINDS = {int: "an integer", str: "a string", dict: "an object", list: "a list"}


def _fit(value, shape, path: str, hint: str = ""):
    """value if it fits shape: int, str, dict or list, or [shape] for a list
    of such values; JSON true/false never fit int.  Else ValueError naming
    the path of the first misfit, ending with hint when one is given."""
    kind = list if isinstance(shape, list) else shape
    if not isinstance(value, kind) or isinstance(value, bool):
        note = f" ({hint})" if hint else ""
        raise ValueError(f"field {path!r} must be {_KINDS[kind]}, got {value!r}{note}")
    if isinstance(shape, list):
        # An item of exactly the item kind fits; any other, a bool or a
        # nested list included (a list shape is never a class), is checked
        # on its own, with its path.
        item_shape = shape[0]
        for i, item in enumerate(value):
            if item.__class__ is not item_shape:
                _fit(item, item_shape, f"{path}[{i}]", hint)
    return value


def _field(section: Mapping, key: str, shape, path: str = "", hint: str = ""):
    """section[key] checked by _fit; path locates section in its document."""
    path = f"{path}.{key}" if path else key
    if key not in section:
        raise ValueError(f"the configuration is missing the field {path!r}")
    return _fit(section[key], shape, path, hint)


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
    tree = {e for e, _, _ in graph._forest}
    marks = [0] * graph.num_vertices
    for bit, e in enumerate(e for e in range(graph.num_edges) if e not in tree):
        for v in graph.vertices_of_edge(e):
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
    lower = below[graph.attachment[graph.edges()[edge_index][0]]]
    side = frozenset(v for v in range(graph.num_vertices) if below[v] == lower)
    return side, frozenset(range(graph.num_vertices)) - side


class GerbyGraph(Record):
    """A dual graph with an isotropy order per flag, constant across each edge."""

    _fields = ("base", "flag_orders")
    base: ModularGraph
    flag_orders: tuple[int, ...]

    def __init__(self, base: ModularGraph, flag_orders: tuple[int, ...]) -> None:
        setfield(self, "base", base)
        flag_orders = tuple(flag_orders)
        setfield(self, "flag_orders", flag_orders)
        if len(flag_orders) != base.num_flags:
            raise ValueError("need one isotropy order per flag")
        if any(gamma < 1 for gamma in flag_orders):
            raise ValueError(f"isotropy orders must be positive, got {flag_orders}")
        for f1, f2 in base.edges():
            if flag_orders[f1] != flag_orders[f2]:
                raise ValueError(
                    f"edge flags {f1},{f2} carry different orders "
                    f"{flag_orders[f1]} != {flag_orders[f2]}"
                )

    def tail_orders(self) -> tuple[int, ...]:
        return tuple(self.flag_orders[f] for f in self.base.tails())

    def edge_orders(self) -> tuple[int, ...]:
        return tuple(self.flag_orders[f1] for f1, _ in self.base.edges())

    @classmethod
    def from_orders(
        cls, base: ModularGraph, tail_orders, edge_orders
    ) -> "GerbyGraph":
        """Assemble from order lists parallel to base.tails() and base.edges()."""
        tail_orders = tuple(tail_orders)
        edge_orders = tuple(edge_orders)
        if len(tail_orders) != len(base.tails()):
            raise ValueError("need one order per tail")
        if len(edge_orders) != base.num_edges:
            raise ValueError("need one order per edge")
        orders = [0] * base.num_flags
        for f, gamma in zip(base.tails(), tail_orders):
            orders[f] = gamma
        for (f1, f2), gamma in zip(base.edges(), edge_orders):
            orders[f1] = gamma
            orders[f2] = gamma
        return cls(base, tuple(orders))

    @classmethod
    def _trusted(cls, base: ModularGraph, flag_orders: tuple[int, ...]) -> "GerbyGraph":
        """Wrap orders that are valid by construction, skipping the checks of
        __init__.

        The caller guarantees one positive order per flag, equal on the two
        flags of every edge; user data goes through the checked constructors.
        """
        gerby = object.__new__(cls)
        setfield(gerby, "base", base)
        setfield(gerby, "flag_orders", flag_orders)
        return gerby

    def to_config(self) -> dict:
        return {
            "tail_orders": list(self.tail_orders()),
            "edge_orders": list(self.edge_orders()),
        }
