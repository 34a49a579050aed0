"""Command-line front end with JSON configuration and reporting.

Every subcommand emits a single JSON document of the shape
{"format": 1, "command": ..., "inputs": ..., "result": ...} with keys
sorted, so output is byte-identical across runs.  Exit status is 0 on
success or a passing verification, 1 when a verification fails, 2 on any
input problem, and 3 when an internal consistency check fails (a bug in
gerbecalc); nothing is written to stdout on exit 2 or 3.

The document is written by _write_json, only after its command has
returned: the bytes of json.dumps(document, indent=2, sort_keys=True) plus
a newline, in pieces, from a walk that encodes strings with the stdlib's C
encoder.  Only decompose and verify import gw (and through it abelian);
the other commands never load it.  Likewise only the commands that count,
picard-torsion, count-lifts, fiber-count and degree, import counting, and
compatible-graphs and fiber-count check their work bound before they parse
the tail types of the degree data.

Configuration fields are read only through graphs._field, which checks
each against a shape and names the path of the first misfit, such as
edges[0]; JSON true/false never pass as integers.  An optional "format"
must be the integer 1.  Rationals in a document, base values and tail
types, follow the grammar of exactnum.parse_rational: a sign, digits and
an optional /digits, with no exponent or decimal point.  A document may
hold other numbers in fields no command reads, which are echoed back, but
NaN, Infinity and -Infinity, which are not JSON, and number literals past
the range of a float exit 2.

Before enumerating, enumerate-admissible, compatible-graphs, count-lifts,
fiber-count, decompose and verify estimate their work from their inputs,
and exit 2 when an estimate is past _WORK_BOUND steps; the estimates are
listed where _WORK_BOUND is defined.

degree, picard-torsion, count-lifts, fiber-count, decompose and verify
also estimate the digits of their powers of r before computing them, and
picard-torsion --quotient the sum of log10 of its edge and tail orders
before multiplying them; each exits 2 past exactnum._DIGIT_BOUND digits,
as does an integer literal in a JSON document or a digit group of a
rational that is longer.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Sequence

from . import admissibility
from .admissibility import ContactType, DegreeData
from .exactnum import (
    _DIGIT_BOUND,
    _prime_powers,
    divisors,
    euler_totient,
    format_rational,
    parse_rational,
)
from .graphs import GerbyGraph, ModularGraph, _field, betti1, classify_edges, total_genus

if TYPE_CHECKING:
    from . import gw

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
#   4 us plus 0.07 us per vertex or edge, and compatible-graphs, which
#   writes each one out, about 14 us plus 0.3 us (measured at 14 and 970
#   vertices and edges); a tail costs fiber-count about 0.1 us and
#   compatible-graphs 0.5 to 0.7 us, about twice a vertex or edge (measured
#   at 0, 2,000 and 8,000 tails on a vertex with 8 loops);
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
# 2-vCPU VM, Python 3.11).  compatible-graphs, which holds every decoration
# until it writes, would take about 480 MB on one vertex with 19 loops at
# r = 2 (524,288 decorations charged one step each; extrapolated from
# 129 MB at 17 loops, not run).  The largest benchmark call peels
# 4^4 + 3^4 cycle assignments (a 5-edge banana at r = 12).
_WORK_BOUND = 10**6


class InputError(Exception):
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
    what = "the V * (E - V + 1) mark bits of the edge classification"
    _bound_work(what, graph.num_vertices, 1, betti1(graph))


def _bound_graph_work(graph: ModularGraph, r: int, cycles: bool) -> None:
    """Check the graph size, the decorations with the graph and tails each
    one reads, and with cycles the fiber count's peel steps."""
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
    pairs = [graph.vertices_of_edge(e) for e in range(graph.num_edges)]
    linking = sum(1 for u, v in pairs if u != v)
    if linking:
        # a spanning tree of a connected graph has |V| - 1 edges, none a
        # loop; each of the q^free assignments mod each prime power q of r
        # peels all of them
        free = linking - (graph.num_vertices - 1)
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
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply")
    if not isinstance(document, dict):
        raise InputError(f"{path}: configuration must be a JSON object")
    if "format" in document and _field(document, "format", int) != 1:
        raise InputError(f"{path}: unsupported configuration format {document['format']!r}")
    return document


def _graph_common(path: str) -> tuple[dict, ModularGraph, int]:
    config = _load_json(path)
    graph = ModularGraph.from_config(_field(config, "graph", dict))
    r = _field(config, "r", int)
    return config, graph, r


def _gerby_from(config: Mapping, graph: ModularGraph) -> GerbyGraph:
    section = _field(config, "gerby", dict)
    tail_orders = _field(section, "tail_orders", [int], "gerby")
    edge_orders = _field(section, "edge_orders", [int], "gerby")
    return GerbyGraph.from_orders(graph, tail_orders, edge_orders)


def _degree_data_from(config: Mapping) -> DegreeData:
    section = _field(config, "degree_data", dict)
    residues = _field(section, "vertex_residues", [int], "degree_data")
    hint = 'tail types must be strings like "m/b"'
    types = _field(section, "tail_types", [str], "degree_data", hint)
    return DegreeData(tuple(residues), tuple(ContactType.parse(t) for t in types))


def _gw_common(args) -> tuple[gw.GerbeSpec, gw.BaseTheoryTable, int, gw.Truncation, dict]:
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
                gw.Insertion(
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
    return spec, table, genus, truncation, config


def _run_enumerate_admissible(args) -> tuple[dict, dict, int]:
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
    config, graph, r = _graph_common(args.input)
    _bound_graph_work(graph, r, cycles=False)
    data = _degree_data_from(config)
    decorated = list(admissibility.enumerate_compatible_gerby(graph, data, r))
    result = {
        "count": len(decorated),
        "gerby_graphs": [g.to_config() for g in decorated],
    }
    return {"input": args.input, "config": config}, result, 0


def _run_count_lifts(args) -> tuple[dict, dict, int]:
    from . import counting

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

    config, graph, r = _graph_common(args.input)
    if not args.quotient:
        # r^(2g-b1) times gcd(gamma_e, r) <= r for each of the b1 loop edges
        _bound_digits("the torsion order r^(2g)", r, 2 * total_genus(graph))
    if args.quotient:
        if "gerby" not in config:
            raise InputError("--quotient needs a 'gerby' section in the configuration")
        gerby = _gerby_from(config, graph)
        # the product has about sum(log10(order)) digits
        if sum(map(math.log10, gerby.edge_orders() + gerby.tail_orders())) > _DIGIT_BOUND:
            raise InputError(
                f"the product of the orders is past the result bound of {_DIGIT_BOUND:,} digits"
            )
        value = counting.twisted_pic_quotient_order(gerby)
        formula = "prod(gamma_e : e any edge) * prod(gamma_t : t any tail)"
    elif "gerby" in config:
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

    spec, table, genus, truncation, config = _gw_common(args)
    lhs = gw.build_potential(spec, table, genus, truncation, "gerbe")
    base_series = gw.build_potential(spec, table, genus, truncation, "base")
    sectors = [
        {
            "character": rho,
            "records": gw.substitute_novikov(base_series, spec, rho).to_records(),
        }
        for rho in range(spec.band_order)
    ]
    result = {
        "scalar": format_rational(Fraction(spec.band_order) ** (2 * genus - 2)),
        "gerbe_potential": lhs.to_records(),
        "base_potential": base_series.to_records(),
        "sectors": sectors,
    }
    inputs = {"input": args.input, "config": config, "seed": args.seed}
    return inputs, result, 0


def _run_verify(args) -> tuple[dict, dict, int]:
    from . import gw

    spec, table, genus, truncation, config = _gw_common(args)
    report = gw.verify_decomposition(spec, table, genus, truncation)
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


# The C string encoder that json.dumps uses by default (ensure_ascii).
_encode_string = json.encoder.encode_basestring_ascii
_CONTAINERS = (dict, list, tuple)
# The writer hands its text to write() whenever it holds more parts than
# this, so a document with millions of list items never exists in one piece.
_FLUSH_PARTS = 4096


def _scalar(value) -> str | None:
    """The JSON text of a str, bool, None, int or finite float, as json.dumps
    writes it; None for anything else."""
    if isinstance(value, str):
        return _encode_string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return float.__repr__(value)
    return None


def _write_json(document, write) -> None:
    """Write json.dumps(document, indent=2, sort_keys=True) + "\n" through write.

    With an indent the stdlib encodes in pure Python; this walk gives the
    same bytes in about half the time.  Dicts (str keys, in sorted order),
    lists and tuples are walked here, and a list of scalars is joined in one
    piece.  Scalars go through _scalar: floats are finite, since _load_json
    rejects the rest, and a value of any other type makes a join raise
    TypeError.  The text reaches write in one piece per _FLUSH_PARTS parts.
    """
    parts: list[str] = []

    def walk(value, indent: str) -> None:
        inner = indent + "  "
        if isinstance(value, dict):
            if not value:
                parts.append("{}")
                return
            opener = "{\n" + inner
            for key in sorted(value):
                parts.append(opener + _encode_string(key) + ": ")
                walk(value[key], inner)
                opener = ",\n" + inner
            parts.append("\n" + indent + "}")
        elif isinstance(value, (list, tuple)):
            if not value:
                parts.append("[]")
                return
            separator = ",\n" + inner
            if not isinstance(value[0], _CONTAINERS):
                texts = [_scalar(item) for item in value]
                if None not in texts:
                    parts.append("[\n" + inner + separator.join(texts) + "\n" + indent + "]")
                    return
            opener = "[\n" + inner
            for item in value:
                parts.append(opener)
                walk(item, inner)
                opener = separator
                if len(parts) > _FLUSH_PARTS:
                    write("".join(parts))
                    parts.clear()
            parts.append("\n" + indent + "]")
        else:
            parts.append(_scalar(value))

    walk(document, "")
    parts.append("\n")
    write("".join(parts))


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

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--output", metavar="FILE", help="write the report here instead of stdout")
        return p

    p = add("enumerate-admissible", "List the admissible contact-type vectors for (n, r, k).")
    p.add_argument("--n", type=int, required=True, help="number of marked points")
    p.add_argument("--r", type=int, required=True, help="band order")
    p.add_argument("--k", type=int, required=True, help="degree residue mod r")

    p = add("compatible-graphs", "Enumerate gerby decorations compatible with degree data.")
    p.add_argument("--input", required=True, metavar="FILE", help="graph configuration (JSON)")

    p = add("count-lifts", "Count lifts of a prestable curve along a gerby graph.")
    p.add_argument("--input", required=True, metavar="FILE", help="graph configuration (JSON)")
    p.add_argument(
        "--mode",
        choices=("loop-only", "all-edges"),
        default="loop-only",
        help="which edges contribute totient factors (default: loop-only)",
    )

    p = add("picard-torsion", "Order of the r-torsion of the Picard group of a dual graph.")
    p.add_argument("--input", required=True, metavar="FILE", help="graph configuration (JSON)")
    p.add_argument(
        "--quotient",
        action="store_true",
        help="order of the twisted/coarse torsion quotient instead",
    )

    p = add("fiber-count", "Count the fiber of the root-gerbe map moduli over a point.")
    p.add_argument("--input", required=True, metavar="FILE", help="graph configuration (JSON)")

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
        p = add(name, help_text)
        p.add_argument("--input", required=True, metavar="FILE", help="theory configuration (JSON)")
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
    input_errors: tuple[type[Exception], ...] = (InputError, ValueError)
    if args.command in ("decompose", "verify"):
        from . import gw  # the only commands that load it

        input_errors += (gw.CoverageError,)
    try:
        inputs, result, status = _HANDLERS[args.command](args)
    except input_errors as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        detail = " ".join(str(exc).split()) or "a consistency check failed"
        print(f"internal error: {detail}", file=sys.stderr)
        return 3
    document = {
        "format": 1,
        "command": args.command,
        "inputs": inputs,
        "result": result,
    }
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                _write_json(document, fh.write)
        except OSError as exc:
            print(f"error: {args.output}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        _write_json(document, sys.stdout.write)
    return status


if __name__ == "__main__":
    sys.exit(main())
