"""Command-line front end with JSON configuration and reporting.

Every subcommand emits a single JSON document of the shape
{"format": 1, "command": ..., "inputs": ..., "result": ...} with keys
sorted, so output is byte-identical across runs.  Exit status is 0 on
success or a passing verification, 1 when a verification fails, 2 on any
input problem (a ValueError, as InputError and gw.CoverageError are) or a
failed write, and 3 on any other exception, such as a failed internal
consistency check (a bug in gerbecalc).  Nothing is written to stdout on
exit 2 or 3 but the part of a document before a failed write, after which
stdout's file descriptor, if it has one, is pointed at the null device.

The document is written by _write_json, only after its command has
returned: the bytes of json.dumps(document, indent=2, sort_keys=True) plus
a newline, in pieces.  A document holds only what json.load returns and
what the handlers build, each of its exact type: dicts, lists, tuples,
strs, ints, floats, bools and None; any other type raises TypeError.  The
column encoder, _texts, encodes the scalars of one type in a list by one
map over a C function, the dicts that share a key tuple by one column per
key, and the items of many lists as one column; a column of mixed shapes
goes one value at a time.
Each handler imports only the modules it runs, as a call compiles each one
when no bytecode is cached: only decompose and verify load gw, and never
graphs; only the commands that count load counting.  No module imports cli.
compatible-graphs and fiber-count check their work bound before they parse
the tail types of the degree data.

Configuration fields are read only through _arith._field, which checks
each against a shape and names the path of the first misfit, such as
edges[0]; JSON true/false never pass as integers.  An optional "format"
must be the integer 1.  Rationals in a document, base values and tail
types, follow the grammar of _arith.parse_rational: a sign, digits and
an optional /digits, with no exponent or decimal point.  A document may
hold other numbers in fields no command reads, which are echoed back, but
NaN, Infinity and -Infinity, which are not JSON, and number literals past
the range of a float exit 2, as does a configuration nested more than
_NESTING_BOUND levels deep, on every Python.

Before enumerating, enumerate-admissible, compatible-graphs, count-lifts,
fiber-count, decompose and verify estimate their work from their inputs,
and exit 2 when an estimate is past _WORK_BOUND steps; the estimates are
listed where _WORK_BOUND is defined.

degree, picard-torsion, count-lifts, fiber-count, decompose and verify
also estimate the digits of their powers of r before computing them, and
picard-torsion --quotient the sum of log10 of its edge and tail orders
before multiplying them; each exits 2 past _arith._DIGIT_BOUND digits,
as does an integer literal in a JSON document or a digit group of a
rational that is longer.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from itertools import chain, islice, repeat
from typing import TYPE_CHECKING, Mapping, Sequence

from ._arith import (
    _DIGIT_BOUND,
    _field,
    _prime_powers,
    divisors,
    euler_totient,
    format_rational,
    parse_rational,
)

if TYPE_CHECKING:
    from . import gw
    from .admissibility import DegreeData
    from .graphs import GerbyGraph, ModularGraph

# The most steps of any one kind a call may enumerate.  Each estimate is
# made before enumerating, and past the bound the call exits 2:
# - the sqrt(r) trial divisions that factor r once (count-lifts factors r
#   only when the graph has an edge, for the totients of its edge orders);
# - on a graph with V vertices, E edges and T tails: for count-lifts and
#   picard-torsion (with a gerby section), the V * (E - V + 1) bits that
#   classify_edges' marks may hold; for compatible-graphs and fiber-count,
#   a cap of (E + min(E, V - 1)) * (V + E) on the graph's size, never less,
#   as each cycle assignment reads the whole graph, and the d(r)^(non-
#   separating edges) gerby decorations, which also bound the merge of the
#   fiber count's tables, each charged 1 + (V + E + 2T) // 48 steps for the
#   graph and tails it reads.  One more decoration costs fiber-count about
#   2 us plus 0.017 us per vertex or edge, and compatible-graphs, which
#   writes each one out, about 3.5 us plus 0.1 us (measured at 12 and 970
#   vertices and edges: 11 and 13 loops at r = 2 on one vertex and on the
#   end of a 480-vertex path, best of 7 cold calls each); a tail costs
#   fiber-count about 0.02 us and compatible-graphs about 0.24 us, one to
#   two and a half times a vertex or edge (measured at 0 and 8,000 tails on
#   a vertex with 8 loops; two runs on a 2-vCPU VM, Python 3.11);
# - fiber-count's peel steps: q^(free edges) assignments mod each prime
#   power q of r, each solving the V - 1 edges of the spanning tree, with a
#   table of q element orders only when some edge is free;
# - enumerate-admissible's n * r^(n-1) contact types;
# - for decompose and verify, the r * phi(r) coefficients of the powers of
#   zeta_r, the b(j+1) base variables, and for each potential key its
#   phi(r) coefficients and the rank entries of its curve class; for
#   decompose also the r * C(b(j+1)+n, n) * classes * (phi(r) + rank)
#   coefficients and class entries of its sector records.
# At the bound a call takes from under a second (trial division) to about
# 5 s and 130 MB (enumerate-admissible --n 2 --r 500000, measured on a
# 2-vCPU VM, Python 3.11).  compatible-graphs, which holds the two order
# tuples of every decoration until it writes, would take about 210 MB on
# one vertex with 19 loops at r = 2 (524,288 decorations charged one step
# each; extrapolated from 41.6 and 65.3 MB at 16 and 17 loops, not run).
# The largest benchmark call peels 4^4 + 3^4 cycle assignments (a 5-edge
# banana at r = 12).
_WORK_BOUND = 10**6
# The most levels a configuration nests, the object itself being level 1
# (RFC 8259 lets a parser limit nesting); the commands read 5 at most.
_NESTING_BOUND = 16


class InputError(ValueError):
    """A flag or configuration problem; reported on stderr with exit 2."""


def _steps(base: int, exponent: int, factor: int = 1) -> int:
    """factor * base^exponent, or a partial product past _WORK_BOUND."""
    work = factor
    for _ in range(exponent if base > 1 else 0):
        if work > _WORK_BOUND:
            break
        work *= base
    return work


def _bound_work(what: str, base: int, exponent: int, factor: int = 1) -> None:
    """Raise InputError when factor * base^exponent is past _WORK_BOUND."""
    if _steps(base, exponent, factor) > _WORK_BOUND:
        raise InputError(f"{what} are past the work bound of {_WORK_BOUND:,} steps")


def _bound_digits(what: str, r: int, exponent: int) -> None:
    """Raise InputError when r^|exponent| has more than about _DIGIT_BOUND digits."""
    # int against float compares exactly, however large the exponent
    if r > 1 and abs(exponent) > _DIGIT_BOUND / math.log10(r):
        raise InputError(f"{what} is past the result bound of {_DIGIT_BOUND:,} digits")


def _bound_mark_work(graph: ModularGraph) -> None:
    """Check the V * (E - V + 1) bits that classify_edges' marks may hold."""
    from .graphs import betti1
    what = "the V * (E - V + 1) mark bits of the edge classification"
    _bound_work(what, graph.num_vertices, 1, betti1(graph))


def _bound_graph_work(graph: ModularGraph, r: int, cycles: bool) -> None:
    """Check the graph size, the decorations with the graph and tails each
    one reads, and with cycles the fiber count's peel steps."""
    from .graphs import classify_edges
    if r < 1:
        return  # the commands themselves reject a non-positive r
    _bound_work("the sqrt(r) trial divisions of r", math.isqrt(r), 1)
    _bound_work(
        "the graph-size steps (E + min(E, V - 1)) * (V + E) that cap the work of "
        "each decoration and cycle assignment",
        graph.num_vertices + graph.num_edges, 1,
        graph.num_edges + min(graph.num_edges, graph.num_vertices - 1),
    )
    _, nonseparating = classify_edges(graph)
    size = graph.num_vertices + graph.num_edges + 2 * len(graph.tails())
    _bound_work(
        "the d(r)^(non-separating edges) decorations, each charged 1 + (V + E + 2T) // 48 "
        "steps for the graph it reads,",
        len(divisors(r)), len(nonseparating), 1 + size // 48,
    )
    if not cycles:
        return
    if graph._links:
        # a spanning tree of a connected graph has |V| - 1 edges, none a
        # loop; each of the q^free assignments mod each prime power q of r
        # peels all of them
        free = len(graph._links) - (graph.num_vertices - 1)
        assignments = sum(_steps(q, free) for _, q in _prime_powers(r))
        _bound_work(
            "the cycle-count steps, q^(free edges) * max(1, V - 1) summed over the "
            "prime powers q of r,",
            assignments, 1, max(1, graph.num_vertices - 1),
        )


def _bound_theory_work(
    r: int, rank: int, basis_size: int, genus: int, truncation: gw.Truncation, sectors: bool
) -> None:
    """Check the work of decompose and verify before the base table is built;
    with sectors (decompose), also the coefficients of the sector records.
    Each key and sector record also carries a curve class of rank entries.

    r >= 1 and the truncation are valid here; the table rejects a basis
    size below 1.
    """
    _bound_work("the sqrt(r) trial divisions of r", math.isqrt(r), 1)
    phi = euler_totient(r)
    # r rows of phi(r) coefficients, one per power of zeta_r; more than the
    # r + 1 coefficients of x^r - 1 that the cyclotomic polynomial comes from
    _bound_work("the r * phi(r) coefficients of the powers of zeta_r", r, 1, phi)
    # the gerbe invariants carry r^(2g-1) and r^(2g-2)
    _bound_digits("the power r^(2g-1) or r^(2g-2)", r, abs(2 * genus - 2) + 1)
    if basis_size < 1:
        return
    variables = basis_size * (truncation.j_max + 1)
    _bound_work("the b(j+1) base variables", variables, 1)
    monomials = 1  # C(b(j+1) + n_max, n_max), built up until past the bound
    for i in range(1, truncation.n_max + 1):
        monomials = monomials * (variables + i) // i
        if monomials > _WORK_BOUND:
            break
    keys = len(truncation.betas) * (r * (monomials - 1) + 1)
    _bound_work(
        "the phi(r) coefficients and rank class entries of the r(C(b(j+1)+n, n) - 1) + 1 "
        "keys per curve class",
        phi + rank, 1, keys,
    )
    if sectors:
        # each of the r sectors repeats every base key with phi(r) strings
        # and its curve class
        _bound_work(
            "the r * C(b(j+1)+n, n) * classes * (phi(r) + rank) coefficients of the "
            "sectors and their curve classes",
            phi + rank, 1, r * monomials * len(truncation.betas),
        )


def _load_json(path: str) -> dict:
    def parse_int(literal: str) -> int:
        if len(literal.lstrip("-")) > _DIGIT_BOUND:
            raise InputError(
                f"{path}: integer literal past the bound of {_DIGIT_BOUND:,} digits"
            )
        return int(literal)

    def parse_float(literal: str) -> float:
        value = float(literal)
        if math.isinf(value):
            raise InputError(f"{path}: number literal past the range of a float")
        return value

    def parse_constant(literal: str):
        raise InputError(f"{path}: {literal} is not a JSON number")

    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(
                fh, parse_int=parse_int, parse_float=parse_float, parse_constant=parse_constant
            )
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        )
    except RecursionError:  # deeper than json itself parses
        raise InputError(f"{path}: JSON nested too deeply")
    if not isinstance(document, dict):
        raise InputError(f"{path}: configuration must be a JSON object")
    level = [document]  # the containers at one level, from level 1 down
    for _ in range(_NESTING_BOUND):
        level = [v for c in level for v in (c.values() if type(c) is dict else c)
                 if type(v) is dict or type(v) is list]
    if level:
        raise InputError(f"{path}: JSON nested too deeply")
    if "format" in document and _field(document, "format", int) != 1:
        raise InputError(f"{path}: unsupported configuration format {document['format']!r}")
    return document


def _graph_common(path: str) -> tuple[dict, ModularGraph, int]:
    from .graphs import ModularGraph
    config = _load_json(path)
    graph = ModularGraph.from_config(_field(config, "graph", dict))
    r = _field(config, "r", int)
    return config, graph, r


def _gerby_from(config: Mapping, graph: ModularGraph) -> GerbyGraph:
    from .graphs import GerbyGraph
    section = _field(config, "gerby", dict)
    tail_orders = _field(section, "tail_orders", [int], "gerby")
    edge_orders = _field(section, "edge_orders", [int], "gerby")
    return GerbyGraph(graph, tail_orders, edge_orders)


def _degree_data_from(config: Mapping) -> DegreeData:
    from .admissibility import ContactType, DegreeData
    section = _field(config, "degree_data", dict)
    residues = _field(section, "vertex_residues", [int], "degree_data")
    hint = 'tail types must be strings like "m/b"'
    types = _field(section, "tail_types", [str], "degree_data", hint)
    return DegreeData(tuple(residues), tuple(ContactType.parse(t) for t in types))


def _gw_common(args) -> tuple[gw.GerbeSpec, gw.BaseTheoryTable, dict]:
    from . import gw

    if args.parallel < 1:
        raise InputError(f"--parallel must be at least 1, got {args.parallel}")
    config = _load_json(args.input)
    r = _field(config, "r", int)
    pairing = _field(config, "pairing", [int])
    if "beta_rank" in config and _field(config, "beta_rank", int) != len(pairing):
        raise InputError(
            f"beta_rank {config['beta_rank']} does not match the pairing length {len(pairing)}"
        )
    spec = gw.GerbeSpec(r, tuple(pairing))
    basis_size = _field(config, "basis_size", int)
    genus = _field(config, "genus", int)
    section = _field(config, "truncation", dict)
    betas = _field(section, "betas", [[int]], "truncation", "curve classes are lists of integers")
    truncation = gw.Truncation(
        _field(section, "n_max", int, "truncation"),
        _field(section, "j_max", int, "truncation"),
        tuple(tuple(b) for b in betas),
    )
    _bound_theory_work(
        r, len(pairing), basis_size, genus, truncation, args.command == "decompose"
    )
    if args.seed is not None:
        if "base_invariants" in config:
            raise InputError("--seed and a base_invariants table are mutually exclusive")
        table = gw.BaseTheoryTable.seeded(basis_size, genus, truncation, args.seed)
    else:
        if "base_invariants" not in config:
            raise InputError("configuration needs base_invariants unless --seed is given")
        records = []
        for i, rec in enumerate(_field(config, "base_invariants", [dict])):
            at = f"base_invariants[{i}]"
            hint = "an insertion must be an object"
            insertions = [
                (
                    _field(ins, "class", int, f"{at}.insertions[{j}]"),
                    _field(ins, "psi", int, f"{at}.insertions[{j}]"),
                )
                for j, ins in enumerate(_field(rec, "insertions", [dict], at, hint))
            ]
            value = _field(rec, "value", str, at)
            records.append(
                (
                    _field(rec, "genus", int, at),
                    tuple(_field(rec, "beta", [int], at)),
                    insertions,
                    parse_rational(value),
                )
            )
        table = gw.BaseTheoryTable.from_records(basis_size, genus, truncation, records)
    return spec, table, config


def _run_enumerate_admissible(args) -> tuple[dict, dict, int]:
    from . import admissibility
    if args.n >= 1 and args.r >= 1:
        _bound_work("the n * r^(n-1) contact types of the vectors", args.r, args.n - 1, args.n)
    # only a tuple of entry strings is kept per vector, which _write_json
    # writes as a list, as json.dumps does
    vectors = [
        tuple(map(str, v.entries))
        for v in admissibility.enumerate_admissible(args.n, args.r, args.k)
    ]
    result = {"count": len(vectors), "vectors": vectors}
    return {"n": args.n, "r": args.r, "k": args.k}, result, 0


def _run_compatible_graphs(args) -> tuple[dict, dict, int]:
    from . import admissibility
    config, graph, r = _graph_common(args.input)
    _bound_graph_work(graph, r, cycles=False)
    data = _degree_data_from(config)
    # only the two order tuples are kept per decoration, which _write_json
    # writes as lists, as GerbyGraph.to_config would give them
    decorations = [
        {"tail_orders": g.tail_orders, "edge_orders": g.edge_orders}
        for g in admissibility.enumerate_compatible_gerby(graph, data, r)
    ]
    result = {"count": len(decorations), "gerby_graphs": decorations}
    return {"input": args.input, "config": config}, result, 0


def _run_count_lifts(args) -> tuple[dict, dict, int]:
    from . import counting
    from .graphs import betti1, total_genus

    config, graph, r = _graph_common(args.input)
    gerby = _gerby_from(config, graph)
    if r >= 1:
        if graph.num_edges:  # the edge orders' totients factor r once
            _bound_work("the sqrt(r) trial divisions of r", math.isqrt(r), 1)
        _bound_mark_work(graph)
    # r^(2g-b1) times a totient below r for each edge at most
    _bound_digits("the lift count", r, 2 * total_genus(graph) - betti1(graph) + graph.num_edges)
    lifts = counting.count_lifts(gerby, r, args.mode)
    formula = {
        "loop-only": "r^(2g-b1) * prod(phi(gamma_e) : e non-separating)",
        "all-edges": "r^(2g-b1) * prod(phi(gamma_e) : e any edge)",
    }[lifts.formula_tag]
    result = {"value": str(lifts.value), "formula": formula}
    return {"input": args.input, "config": config, "mode": args.mode}, result, 0


def _run_picard_torsion(args) -> tuple[dict, dict, int]:
    from . import counting
    from .graphs import total_genus

    config, graph, r = _graph_common(args.input)
    if args.quotient:
        if "gerby" not in config:
            raise InputError("--quotient needs a 'gerby' section in the configuration")
        gerby = _gerby_from(config, graph)
        # the product has about sum(log10(order)) digits
        if sum(map(math.log10, gerby.edge_orders + gerby.tail_orders)) > _DIGIT_BOUND:
            raise InputError(
                f"the product of the orders is past the result bound of {_DIGIT_BOUND:,} digits"
            )
        # the product does not read r, but r and the orders are checked as in the other modes
        value = counting.twisted_pic_quotient_order(gerby.validated_for(r))
        formula = "prod(gamma_e : e any edge) * prod(gamma_t : t any tail)"
    else:
        # r^(2g-b1) times gcd(gamma_e, r) <= r for each of the b1 loop edges
        _bound_digits("the torsion order r^(2g)", r, 2 * total_genus(graph))
        if "gerby" in config:
            gerby = _gerby_from(config, graph)
            _bound_mark_work(graph)
            value = counting.twisted_picard_torsion(gerby, r)
            formula = "r^(2g-b1) * prod(gcd(gamma_e, r) : e non-separating)"
        else:
            value = counting.prestable_picard_torsion(graph, r)
            formula = "r^(2g-b1)"
    result = {"value": str(value), "formula": formula}
    return {"input": args.input, "config": config, "quotient": args.quotient}, result, 0


def _run_fiber_count(args) -> tuple[dict, dict, int]:
    from . import counting
    from .graphs import total_genus

    config, graph, r = _graph_common(args.input)
    _bound_graph_work(graph, r, cycles=True)
    _bound_digits("the fiber count r^(2g)", r, 2 * total_genus(graph))
    data = _degree_data_from(config)
    value = counting.fiber_point_count(graph, data, r)
    result = {"value": str(value), "formula": "r^(2g)"}
    return {"input": args.input, "config": config}, result, 0


def _run_degree(args) -> tuple[dict, dict, int]:
    from . import counting

    push = (args.genus, args.r)
    stack = (args.field_degree, args.delta_source, args.delta_target)
    if all(v is not None for v in push) and all(v is None for v in stack):
        _bound_digits("the degree r^(2g-1)", args.r, 2 * args.genus - 1)
        value = counting.pushforward_degree(args.genus, args.r)
        inputs = {"genus": args.genus, "r": args.r}
        formula = "r^(2g-1)"
    elif all(v is not None for v in stack) and all(v is None for v in push):
        value = counting.stack_degree(*stack)
        inputs = {
            "field_degree": args.field_degree,
            "delta_source": args.delta_source,
            "delta_target": args.delta_target,
        }
        formula = "field_degree * delta_target / delta_source"
    else:
        raise InputError(
            "degree needs either --genus with --r, or --field-degree with "
            "--delta-source and --delta-target"
        )
    return inputs, {"value": format_rational(value), "formula": formula}, 0


def _run_decompose(args) -> tuple[dict, dict, int]:
    from . import gw

    spec, table, config = _gw_common(args)
    lhs = gw.build_potential(spec, table, "gerbe")
    base_series = gw.build_potential(spec, table, "base")
    sectors = [
        {
            "character": rho,
            "records": gw.substitute_novikov(base_series, spec, rho).to_records(),
        }
        for rho in range(spec.band_order)
    ]
    result = {
        "scalar": format_rational(Fraction(spec.band_order) ** (2 * table.genus - 2)),
        "gerbe_potential": lhs.to_records(),
        "base_potential": base_series.to_records(),
        "sectors": sectors,
    }
    inputs = {"input": args.input, "config": config, "seed": args.seed}
    return inputs, result, 0


def _run_verify(args) -> tuple[dict, dict, int]:
    from . import gw

    spec, table, config = _gw_common(args)
    report = gw.verify_decomposition(spec, table)
    inputs = {"input": args.input, "config": config, "seed": args.seed}
    return inputs, report.to_dict(), 0 if report.passed else 1


_HANDLERS = {
    "enumerate-admissible": _run_enumerate_admissible,
    "compatible-graphs": _run_compatible_graphs,
    "count-lifts": _run_count_lifts,
    "picard-torsion": _run_picard_torsion,
    "fiber-count": _run_fiber_count,
    "degree": _run_degree,
    "decompose": _run_decompose,
    "verify": _run_verify,
}


# The text of each type a document holds, by exact type: the C encoders
# that json.dumps uses (ensure_ascii; floats are finite, since _load_json
# rejects the rest), and the literals of bools and None.
_ENCODERS = {
    str: json.encoder.encode_basestring_ascii, int: int.__repr__, float: float.__repr__,
    bool: {True: "true", False: "false"}.__getitem__, type(None): {None: "null"}.__getitem__,
}
_encode_string = _ENCODERS[str]
# The writer encodes a list in pieces of at most _FLUSH_PARTS items.  A
# piece longer than _FLUSH_CHARS, as a full piece always is (an item takes
# a character at least, a separator four), goes to write() by itself, after
# the text held before it; so a document with millions of list items never
# exists in one piece, and a small one takes one write, one system call on
# an unbuffered stdout.
_FLUSH_PARTS = 1024
_FLUSH_CHARS = 4096


def _texts(values: list, indent: str) -> list[str]:
    """The text of each value of a nonempty list, as json.dumps(value,
    indent=2, sort_keys=True) writes it on a line indented by indent.

    A document holds what json.load returns and what the handlers build:
    dicts with str keys, lists, tuples, strs, ints, floats, bools and None,
    each of that exact type; any other type, a subclass of one included,
    raises TypeError.  A column whose values share one shape (one type, and
    for dicts one key tuple) is encoded at once: scalars by one map over
    their C encoder in _ENCODERS, dicts as one column per sorted key, whose
    texts are joined row by row, and lists or tuples as one column of all
    their items, regrouped by length.  A column of mixed shapes is encoded
    one value at a time.  Only the columns of items go a level deeper, so
    the frames taken, and the copies of each text, grow with the nesting
    alone, which _load_json bounds.
    """
    inner = indent + "  "
    shapes = list(map(type, values))
    if shapes.count(dict) == len(shapes):
        shapes = list(map(tuple, values))
    shape = shapes[0]
    if shapes.count(shape) != len(shapes):
        return [_texts([value], indent)[0] for value in values]
    if shape == ():
        return ["{}"] * len(values)
    if type(shape) is tuple:  # dicts with these keys
        parts = []
        opener = "{\n" + inner
        for key in sorted(shape):  # a loop, as a comprehension would add a frame
            cells = _texts(list(map(dict.__getitem__, values, repeat(key))), inner)
            parts += repeat(opener + _encode_string(key) + ": "), cells
            opener = ",\n" + inner
        parts.append(repeat("\n" + indent + "}"))
        return list(map("".join, zip(*parts)))
    if shape is list or shape is tuple:
        lengths = list(map(len, values))
        items = list(chain.from_iterable(values))
        if not items:
            return ["[]"] * len(values)
        rest = iter(_texts(items, inner))
        joined = map((",\n" + inner).join, map(islice, repeat(rest), lengths))
        texts = list(map("".join, zip(repeat("[\n" + inner), joined, repeat("\n" + indent + "]"))))
        if 0 in lengths:
            texts = [text if n else "[]" for text, n in zip(texts, lengths)]
        return texts
    if shape in _ENCODERS:
        return list(map(_ENCODERS[shape], values))
    raise TypeError(f"Object of type {shape.__name__} is not JSON serializable")


def _write_json(document, write) -> None:
    """Write json.dumps(document, indent=2, sort_keys=True) + "\n" through write.

    With an indent the stdlib encodes in pure Python; _texts gives the same
    bytes a column at a time, in C for the most part.  Dicts (str keys, in
    sorted order) are walked a key at a time, and lists in pieces of at
    most _FLUSH_PARTS items, each piece as the texts of its items from
    _texts.  A value of a type outside _ENCODERS, dict, list and tuple
    raises TypeError.
    """
    parts: list[str] = []

    def flush() -> None:
        write("".join(parts))
        parts.clear()

    def put(value, indent: str) -> None:
        inner = indent + "  "
        separator = ",\n" + inner
        if type(value) is dict and value:
            opener = "{\n" + inner
            for key in sorted(value):
                parts.append(opener + _encode_string(key) + ": ")
                put(value[key], inner)
                opener = separator
            parts.append("\n" + indent + "}")
        elif type(value) in (list, tuple) and value:
            opener = "[\n" + inner
            for start in range(0, len(value), _FLUSH_PARTS):
                # the column texts are dropped once joined
                piece = opener + separator.join(_texts(value[start:start + _FLUSH_PARTS], inner))
                if len(piece) <= _FLUSH_CHARS:
                    parts.append(piece)
                else:  # by itself, with no copy of its items held
                    flush()
                    write(piece)
                opener = separator
            parts.append("\n" + indent + "]")
        else:
            parts.append(_texts([value], indent)[0])

    put(document, "")
    parts.append("\n")
    flush()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gerbecalc",
        description="Exact computations for root-gerbe Gromov-Witten decompositions.",
        epilog=(
            "exit status: 0 success, 1 verification failure (verify only), "
            "2 input error, 3 internal consistency check failed (a bug); "
            "nothing is written to stdout on 2 or 3"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name: str, help_text: str, config: str = "") -> argparse.ArgumentParser:
        # a subcommand; one that reads a configuration of this kind takes --input
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--output", metavar="FILE", help="write the report here instead of stdout")
        if config:
            p.add_argument(
                "--input", required=True, metavar="FILE", help=f"{config} configuration (JSON)"
            )
        return p

    p = add("enumerate-admissible", "List the admissible contact-type vectors for (n, r, k).")
    p.add_argument("--n", type=int, required=True, help="number of marked points")
    p.add_argument("--r", type=int, required=True, help="band order")
    p.add_argument("--k", type=int, required=True, help="degree residue mod r")

    add("compatible-graphs", "Enumerate gerby decorations compatible with degree data.", "graph")

    p = add("count-lifts", "Count lifts of a prestable curve along a gerby graph.", "graph")
    p.add_argument(
        "--mode",
        choices=("loop-only", "all-edges"),
        default="loop-only",
        help="which edges contribute totient factors (default: loop-only)",
    )

    p = add(
        "picard-torsion", "Order of the r-torsion of the Picard group of a dual graph.", "graph"
    )
    p.add_argument(
        "--quotient",
        action="store_true",
        help="order of the twisted/coarse torsion quotient instead",
    )

    add("fiber-count", "Count the fiber of the root-gerbe map moduli over a point.", "graph")

    p = add("degree", "Pushforward degree r^(2g-1), or a stack-map degree from deltas.")
    p.add_argument("--genus", type=int, help="genus (with --r)")
    p.add_argument("--r", type=int, help="band order (with --genus)")
    p.add_argument("--field-degree", type=int, dest="field_degree", help="coarse field degree")
    p.add_argument("--delta-source", type=int, dest="delta_source", help="source automorphism order")
    p.add_argument("--delta-target", type=int, dest="delta_target", help="target automorphism order")

    for name, help_text in (
        ("decompose", "Emit the gerbe potential and its character-sector decomposition."),
        ("verify", "Check the decomposition identity termwise; exit 1 on failure."),
    ):
        p = add(name, help_text, "theory")
        p.add_argument(
            "--seed",
            type=int,
            default=None,
            help="fill the base table with seeded pseudo-random rationals",
        )
        p.add_argument(
            "--parallel",
            type=int,
            default=1,
            metavar="N",
            help="accepted for compatibility (N >= 1); all work runs on one thread",
        )

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # Exact results can run past the default 4,300-digit limit on int-to-str
    # conversion.  Lift it for this call only, since callers may run main
    # in-process; Python 3.10 builds before 3.10.7 have no limit.
    if not hasattr(sys, "set_int_max_str_digits"):
        return _main(argv)
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(previous)


def _main(argv: Sequence[str] | None) -> int:
    args = build_parser().parse_args(argv)
    try:
        inputs, result, status = _HANDLERS[args.command](args)
        document = {
            "format": 1,
            "command": args.command,
            "inputs": inputs,
            "result": result,
        }
        try:
            if args.output:
                with open(args.output, "w", encoding="utf-8") as fh:
                    _write_json(document, fh.write)
            else:
                _write_json(document, sys.stdout.write)
                sys.stdout.flush()
        except OSError as exc:
            if not args.output:
                _detach_stdout()  # so the interpreter's exit flush cannot fail again
            print(f"error: {args.output or 'stdout'}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug in gerbecalc
        detail = " ".join(str(exc).split())
        if not isinstance(exc, AssertionError):
            detail = ": ".join(filter(None, (type(exc).__name__, detail)))
        print(f"internal error: {detail or 'a consistency check failed'}", file=sys.stderr)
        return 3
    return status


def _detach_stdout() -> None:
    """Point stdout's file descriptor at the null device, when it has one:
    an in-process caller may have put a stream without one in its place."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, ValueError):  # io.UnsupportedOperation is a ValueError
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


if __name__ == "__main__":
    sys.exit(main())
