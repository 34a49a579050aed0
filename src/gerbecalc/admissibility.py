"""Admissible contact-type vectors and node-order determination on dual graphs.

A contact type m/b records how a marked point meets the band mu_r: the
fraction in lowest terms equals the age of the universal root line bundle
there.  An n-tuple is admissible for (r, k) when every b divides r and the
fractional parts sum to k/r mod 1.  On a dual graph, the orders of
separating nodes are forced by a fractional-part formula over either side
of the node, while non-separating node orders stay free.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, Sequence

from ._arith import _band_order, _isotropy_order, divisors, parse_rational
from ._record import Record, setfield

if TYPE_CHECKING:
    from .graphs import GerbyGraph, ModularGraph


def __getattr__(name: str):
    # graphs loads on first use, never with gw; its names still resolve here
    if name in ("GerbyGraph", "ModularGraph", "classify_edges", "split_at_edge"):
        from . import graphs
        return getattr(graphs, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ContactType(Record):
    """A reduced fraction numerator/order with 0 <= numerator < order.

    order = 1 forces numerator = 0 (the untwisted sector); gcd(0, 1) = 1
    makes that the consistent degenerate case of the coprimality rule.
    """

    _fields = ("numerator", "order")
    numerator: int
    order: int

    def __init__(self, numerator: int, order: int) -> None:
        setfield(self, "numerator", numerator)
        setfield(self, "order", order)
        if order < 1:
            raise ValueError(f"contact order must be positive, got {order}")
        if not 0 <= numerator < order:
            raise ValueError(f"numerator {numerator} out of range for order {order}")
        if math.gcd(numerator, order) != 1:
            raise ValueError(f"{numerator}/{order} is not in lowest terms")

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.numerator, self.order)

    @classmethod
    def from_fraction(cls, value: Fraction | int) -> "ContactType":
        """The contact type with age equal to the fractional part of value."""
        value = Fraction(value) % 1
        return cls(value.numerator, value.denominator)

    @classmethod
    def from_residue(cls, residue: int, r: int) -> "ContactType":
        """The element zeta_r^residue of mu_r written in lowest terms."""
        residue %= _band_order(r)
        g = math.gcd(residue, r)
        return cls(residue // g, r // g)

    def residue(self, r: int) -> int:
        """Exponent a with zeta_r^a = this element; requires order | r."""
        return self.numerator * (r // _isotropy_order(self.order, r))

    def inverse(self) -> "ContactType":
        """The complementary type <-m/b>, the opposite branch of a balanced node."""
        return ContactType((-self.numerator) % self.order, self.order)

    def __lt__(self, other: "ContactType") -> bool:
        return self.fraction < other.fraction

    @classmethod
    def parse(cls, text: str) -> "ContactType":
        """Parse "m/b" or "m" by parse_rational; "0" is the untwisted type."""
        return cls.from_fraction(parse_rational(text))

    def __str__(self) -> str:
        return f"{self.numerator}/{self.order}"


class AdmissibleVector(Record):
    """An n-tuple of contact types whose ages sum to k/r mod 1."""

    _fields = ("entries", "ambient_order", "degree_residue")
    entries: tuple[ContactType, ...]
    ambient_order: int
    degree_residue: int

    def __init__(
        self, entries: tuple[ContactType, ...], ambient_order: int, degree_residue: int
    ) -> None:
        entries = tuple(entries)
        setfield(self, "entries", entries)
        setfield(self, "ambient_order", ambient_order)
        setfield(self, "degree_residue", degree_residue)
        r = _band_order(ambient_order)
        if not 0 <= degree_residue < r:
            raise ValueError(f"degree residue {degree_residue} out of range mod {r}")
        if not is_admissible(entries, r, degree_residue):
            raise ValueError(
                f"entries {[str(t) for t in entries]} are not admissible "
                f"for r={r}, k={degree_residue}"
            )

    def residues(self) -> tuple[int, ...]:
        return tuple(t.residue(self.ambient_order) for t in self.entries)


def is_admissible(entries: Sequence[ContactType], r: int, k: int) -> bool:
    """True iff every order divides r and the ages sum to k/r mod 1.

    Once every order divides r, each age is residue/r, so the ages sum to
    k/r mod 1 exactly when the residues sum to k mod r.
    """
    _band_order(r)
    if any(r % t.order != 0 for t in entries):
        return False
    return (sum(t.residue(r) for t in entries) - k) % r == 0


def enumerate_admissible(n: int, r: int, k: int) -> Iterator[AdmissibleVector]:
    """All admissible n-tuples for (r, k), in lexicographic residue order.

    The first n-1 residues range freely over Z/r and the last is determined,
    so there are exactly r^(n-1) vectors for n >= 1.  For n = 0 the empty
    vector appears exactly when k = 0 mod r.
    """
    if n < 0:
        raise ValueError(f"tuple length must be nonnegative, got {n}")
    k = k % _band_order(r)
    if n == 0:
        if k == 0:
            yield AdmissibleVector((), r, k)
        return
    for prefix in itertools.product(range(r), repeat=n - 1):
        last = (k - sum(prefix)) % r
        entries = tuple(ContactType.from_residue(a, r) for a in prefix + (last,))
        yield AdmissibleVector(entries, r, k)


def _counted(n: int, noun: str, plural: str = "") -> str:
    """n and the noun, in the plural unless n is 1: "1 tail", "2 tails"."""
    return f"{n} {noun if n == 1 else plural or noun + 's'}"


class DegreeData(Record):
    """Per-vertex degree residues and the contact types on the tails.

    vertex_residues is parallel to the graph's vertices, tail_types to
    graph.tails().  The global degree residue is the sum of the k_v mod r.
    """

    _fields = ("vertex_residues", "tail_types")
    vertex_residues: tuple[int, ...]
    tail_types: tuple[ContactType, ...]

    def __init__(
        self, vertex_residues: tuple[int, ...], tail_types: tuple[ContactType, ...]
    ) -> None:
        setfield(self, "vertex_residues", tuple(vertex_residues))
        setfield(self, "tail_types", tuple(tail_types))

    def validated_for(self, graph: ModularGraph, r: int) -> "DegreeData":
        _band_order(r)
        if len(self.vertex_residues) != graph.num_vertices:
            raise ValueError(
                f"{_counted(len(self.vertex_residues), 'vertex residue')} for "
                f"{_counted(graph.num_vertices, 'vertex', 'vertices')}"
            )
        if len(self.tail_types) != len(graph.tails()):
            raise ValueError(
                f"{_counted(len(self.tail_types), 'tail type')} for "
                f"{_counted(len(graph.tails()), 'tail')}"
            )
        for t in self.tail_types:
            _isotropy_order(t.order, r)
        reduced = tuple(x % r for x in self.vertex_residues)
        if reduced != self.vertex_residues:
            return DegreeData(reduced, self.tail_types)
        return self

    def total_residue(self, r: int) -> int:
        return sum(self.vertex_residues) % r

    def tail_types_at(self, graph: ModularGraph, vertex: int) -> tuple[ContactType, ...]:
        return tuple(
            t
            for f, t in zip(graph.tails(), self.tail_types)
            if graph.attachment[f] == vertex
        )

    def _residuals(self, graph: ModularGraph, r: int) -> list[int]:
        """Per vertex, k_v minus the residues of the tails at v, mod r."""
        residual = list(self.vertex_residues)
        for f, t in zip(graph.tails(), self.tail_types):
            residual[graph.attachment[f]] -= t.residue(r)
        return [x % r for x in residual]


def separating_node_order(
    graph: ModularGraph,
    data: DegreeData,
    edge_index: int,
    r: int,
    side: frozenset | None = None,
) -> ContactType:
    """The contact type forced at a separating node, computed from one side.

    For the side P the type is the fractional part of
    (sum of k_v over P)/r minus the ages of the tails in P.  Computed from
    the complementary side the numerator is complementary mod the same
    order whenever the data is globally admissible.  By default the side
    containing the edge's lower flag is used.
    """
    from .graphs import split_at_edge
    data = data.validated_for(graph, r)
    side_a, side_b = split_at_edge(graph, edge_index)
    if side is None:
        side = side_a
    else:
        side = frozenset(side)
        if side not in (side_a, side_b):
            raise ValueError(f"side {set(side)} is not a side of edge {edge_index}")
    total = sum(data.vertex_residues[v] for v in side)
    for f, t in zip(graph.tails(), data.tail_types):
        if graph.attachment[f] in side:
            total -= t.residue(r)
    return ContactType.from_residue(total, r)


def _cut_orders(graph: ModularGraph, data: DegreeData, r: int) -> dict[int, int]:
    """Per forest edge, r / gcd(s, r) for s the sum of k_v minus tail residues
    below it: at a bridge, the order separating_node_order gives."""
    total = data._residuals(graph, r)
    for _e, child, parent in reversed(graph._forest):
        total[parent] += total[child]
    return {e: r // math.gcd(total[child], r) for e, child, _ in graph._forest}


def enumerate_compatible_gerby(
    graph: ModularGraph, data: DegreeData, r: int
) -> Iterator[GerbyGraph]:
    """All gerby decorations of the graph compatible with the degree data.

    Tail orders are the contact-type orders, separating-edge orders are the
    ones forced by the cut formula, and every non-separating edge order
    ranges independently over the divisors of r, so the number of
    decorations is d(r)^(number of non-separating edges), in the order of
    itertools.product over the non-separating edges.  The tail data must be
    admissible for (r, sum of k_v).

    The data is validated, the edges classified and the cut formula solved
    once per call, together with the slot of (separating orders,
    non-separating orders) that each edge reads, made into one itemgetter.
    Every decoration shares one tuple of tail orders, and its edge orders
    are one tuple picked in C, wrapped without re-checking, since one
    positive order per tail and per edge holds by construction.
    """
    from .graphs import GerbyGraph, _picker, classify_edges
    data = data.validated_for(graph, r)
    if not is_admissible(data.tail_types, r, data.total_residue(r)):
        raise ValueError(
            "vertex residues are inconsistent with the tail types: "
            f"ages must sum to {data.total_residue(r)}/{r} mod 1"
        )
    separating, nonseparating = classify_edges(graph)
    cut = _cut_orders(graph, data, r)
    tail_orders = tuple(t.order for t in data.tail_types)
    fixed = tuple(cut[e] for e in separating)
    slot = [0] * graph.num_edges
    for i, e in enumerate(separating + nonseparating):
        slot[e] = i
    pick = _picker(slot)
    for assignment in itertools.product(divisors(r), repeat=len(nonseparating)):
        yield GerbyGraph._trusted(graph, tail_orders, pick(fixed + assignment))
