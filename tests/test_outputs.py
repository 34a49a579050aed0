"""Pinned outputs: stdout bytes, stderr text and exit codes of fixed calls.

``CALLS`` is the corpus: the argv of each call and the input it reads.  Its
pins live in ``tests/pins.json``, keyed by the call's id, its argv joined by
spaces: the exit code, the full stderr, and the length and sha256 of stdout.
That file holds one line per call, sorted by id, so a changed pin shows as
a one-line diff.  A call that prints a document must print canonical JSON.

Each call runs ``cli.main`` in-process from a directory that holds its
input under a fixed name, so the echoed input path is part of the pinned
bytes; a call that reads no input file names none.  An input is written by
``json.dumps``, or as it stands when it is a str: text that is not JSON, or
a number that ``json.dumps`` would not write.  A call may also name a
patch of ``gw`` from ``_PATCHES``, in force while it runs: the identity
that ``verify`` checks holds on every valid input, so only a patched call
pins its exit-1 document.  Zero-fill warnings go to stderr through the
logging module's last-resort handler, as in a process of its own; pytest's
capture handlers on the root logger are set aside for the call so that
they do not take its place.

Run as a script, ``PYTHONPATH=src python tests/test_outputs.py`` re-runs
every call and prints each one whose pin differs; ``--rewrite`` also writes
every call's actual values into ``tests/pins.json``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import logging
import os
import pathlib
import sys
import tempfile
from unittest import mock

import pytest

from gerbecalc import cli, gw
from gerbecalc.exactnum import root_of_unity

PINS = pathlib.Path(__file__).with_name("pins.json")

_THEORY = {
    "r": 2,
    "pairing": [1],
    "basis_size": 1,
    "genus": 0,
    "truncation": {"n_max": 1, "j_max": 0, "betas": [[0], [1]]},
}

# verify at r = 8 passes on 82 keys: class [1] has k = 3, so the right
# side's zero-valued empty monomial of that class is counted.
_THEORY8 = {
    "r": 8,
    "pairing": [3],
    "basis_size": 1,
    "genus": 0,
    "truncation": {"n_max": 2, "j_max": 1, "betas": [[0], [1]]},
}

# Orders at which one power of zeta reduces to several power-basis terms:
# zeta^4 = zeta^2 - 1 at r = 12 (phi = 4), and phi = 8 at r = 30.
_THEORY12 = {
    "r": 12,
    "pairing": [5],
    "basis_size": 1,
    "genus": 1,
    "truncation": {"n_max": 2, "j_max": 0, "betas": [[0], [1]]},
}

_THEORY30 = {
    "r": 30,
    "pairing": [7],
    "basis_size": 1,
    "genus": 0,
    "truncation": {"n_max": 2, "j_max": 0, "betas": [[0], [1]]},
}


def _invariant(beta, insertions, value):
    return {
        "genus": 0,
        "beta": beta,
        "insertions": [{"class": i, "psi": j} for i, j in insertions],
        "value": value,
    }


# Five of the twelve base keys; one entry lists its insertions out of order.
_HALF_EMPTY = {
    "r": 3,
    "pairing": [1],
    "basis_size": 2,
    "genus": 0,
    "truncation": {"n_max": 2, "j_max": 0, "betas": [[0], [1]]},
    "base_invariants": [
        _invariant([0], [], "1/2"),
        _invariant([0], [(1, 0), (0, 0)], "-3/4"),
        _invariant([1], [(0, 0)], "5"),
        _invariant([1], [(1, 0), (1, 0)], "2/3"),
        _invariant([1], [], "-7"),
    ],
}


def _table(*invariants, genus=0):
    """_HALF_EMPTY's theory with these (beta, insertions, value) entries."""
    records = [dict(_invariant(*entry), genus=genus) for entry in invariants]
    return {**_HALF_EMPTY, "base_invariants": records}


# Base tables that both commands reject, by input name: a key out of each
# range of the truncation, and a key given two values.
_REJECTED_TABLES = {
    "class-minus1.json": _table(([0], [(-1, 0)], "1")),
    "psi-minus1.json": _table(([0], [(0, -1)], "1")),
    "psi-past-j.json": _table(([0], [(0, 1)], "1")),
    "class-past-b.json": _table(([0], [(2, 0)], "1")),
    "too-many.json": _table(([0], [(0, 0)] * 3, "1")),
    "beta-outside.json": _table(([2], [], "1")),
    "genus-outside.json": _table(([0], [], "1"), genus=1),
    "conflict.json": _table(([1], [(1, 0), (0, 0)], "1/2"), ([1], [(0, 0), (1, 0)], "1/3")),
}


def _theory(**fields):
    """_THEORY with these fields replaced."""
    return {**_THEORY, **fields}


def _truncation(**bounds):
    """_THEORY's truncation with these bounds replaced."""
    return {**_THEORY["truncation"], **bounds}


# Theories that both commands reject before they build a potential, by input
# name, with the arguments after it: one input per guard on the pairing, the
# band order, the genus, the basis size, the truncation, the declared
# beta_rank, the choice of table and --parallel.
_SEED = ["--seed", "7"]
_REJECTED_THEORIES = {
    "pairing-longer.json": (_SEED, _theory(pairing=[1, 1])),
    "classes-longer.json": (_SEED, _theory(truncation=_truncation(betas=[[0, 1]]))),
    "residue-past-r.json": (_SEED, _theory(r=3, pairing=[5])),
    "r-zero.json": (_SEED, _theory(r=0)),
    "genus-minus1.json": (_SEED, _theory(genus=-1)),
    "basis-zero.json": (_SEED, _theory(basis_size=0)),
    "no-classes.json": (_SEED, _theory(truncation=_truncation(betas=[]))),
    "mixed-rank.json": (_SEED, _theory(truncation=_truncation(betas=[[0], [0, 1]]))),
    "class-minus1-entry.json": (_SEED, _theory(truncation=_truncation(betas=[[-1]]))),
    "n-minus1.json": (_SEED, _theory(truncation=_truncation(n_max=-1))),
    "rank-mismatch.json": (_SEED, _theory(beta_rank=2)),
    "seed-and-table.json": (_SEED, _theory(base_invariants=[])),
    "no-table.json": ([], _THEORY),
    "parallel-zero.json": ([*_SEED, "--parallel", "0"], _THEORY),
}

# One key given one value twice, in two orders; every other key is missing.
_DUPLICATE = _table(([1], [(1, 0), (0, 0)], "1/2"), ([1], [(0, 0), (1, 0)], "1/2"))


def _graph(r, vertices, edges, tails=(), **sections):
    graph = {"vertices": [{"genus": g} for g in vertices], "edges": edges, "tails": list(tails)}
    return {"r": r, "graph": graph, **sections}


def _degree(residues, types):
    return {"vertex_residues": residues, "tail_types": types}


def _orders(tails, edges):
    return {"tail_orders": tails, "edge_orders": edges}


# A genus-1 vertex joined to a genus-0 vertex by two edges, a loop on the
# second, and a bridge from it to a third vertex with a tail: the bridge's
# order 3 makes the two count-lifts modes differ.
_GERBY = _graph(
    6, [1, 0, 0], [[0, 1], [0, 1], [1, 1], [1, 2]], [2], gerby=_orders([2], [3, 2, 6, 3])
)
_FIBER = _graph(
    6, [0, 1], [[0, 1], [0, 1], [1, 1]], [0, 1], degree_data=_degree([1, 2], ["1/2", "0"])
)

def _nested(levels):
    """A configuration nested this many levels deep, itself the first."""
    value = []
    for _ in range(levels - 2):
        value = [value]
    return {"r": 2, "note": value}


_LOADER_INPUTS = {
    "list.json": [],
    "nested17.json": _nested(17),
    "format2.json": {"format": 2},
    "digits.json": '{"r": 1' + "0" * 100_000 + "}",
    "float-past-range.json": '{"r": 2, "note": 1e400}',
    "nan.json": '{"r": NaN}',
    "no-graph.json": {"r": 2},
    "bool-r.json": _graph(True, [0], []),
}

_SEEDED = (["verify", *_SEED], ["decompose", *_SEED])
_THEORY_CALLS = (["verify"], ["decompose"])
_PICARD = (["picard-torsion"],)
_PICARD_MODES = (*_PICARD, ["picard-torsion", "--quotient"])
_DEGREE_CALLS = (["fiber-count"], ["compatible-graphs"])
_GERBY_CALLS = (*_PICARD_MODES, ["count-lifts"])

# (input name, input, the calls on it): each call's argv without
# "--input" and the name, which follow its first word.
_ON_INPUTS = [
    ("theory.json", _THEORY, _SEEDED),
    ("theory8.json", _THEORY8, (["verify", *_SEED],)),
    ("theory12.json", _THEORY12, (["decompose", *_SEED],)),
    ("theory30.json", _THEORY30, _SEEDED),
    ("half.json", _HALF_EMPTY, (["decompose"],)),
    *((name, config, _THEORY_CALLS) for name, config in _REJECTED_TABLES.items()),
    *(
        (name, config, [[command, *extra] for command in ("verify", "decompose")])
        for name, (extra, config) in _REJECTED_THEORIES.items()
    ),
    ("duplicate.json", _DUPLICATE, _THEORY_CALLS),
    # picard-torsion --quotient needs a gerby section
    ("plain.json", {"r": 6, "graph": _GERBY["graph"]}, _PICARD_MODES),
    ("gerby.json", _GERBY, (*_GERBY_CALLS, ["count-lifts", "--mode", "all-edges"])),
    ("fiber.json", _FIBER, _DEGREE_CALLS),
    # The fiber count reads its edge, cycle, loop and non-separating orders
    # through picks of 0 or 1 edges on tail.json and loop.json, and on
    # layout.json reads cycles from the edges between distinct vertices and
    # loops from the self-loops: each prints r^(2g), 36, 36 and 6^6 = 46656.
    ("tail.json", _graph(6, [1], [], [0], degree_data=_degree([3], ["1/2"])), (["fiber-count"],)),
    ("loop.json", _graph(6, [0], [[0, 0]], degree_data=_degree([0], [])), (["fiber-count"],)),
    (
        "layout.json",
        _graph(
            6, [0, 0], [[0, 0], [0, 1], [1, 1], [0, 1]], [0], degree_data=_degree([0, 0], ["0"])
        ),
        (["fiber-count"],),
    ),
    # an echoed field of mixed values
    (
        "tails2.json",
        _graph(
            6, [0, 1], [[0, 1], [0, 1], [1, 1]], [0, 1],
            degree_data=_degree([0, 0], ["1/2", "1/2"]),
            note=[1, 2.5, None, True, "x", {"b": [], "a": {}}],
        ),
        (["compatible-graphs"],),
    ),
    # Graphs that the graph commands reject, one input per guard: the graph,
    # then its degree data, then its orders (4 and 5 do not divide r = 6).
    ("disconnected.json", _graph(2, [0, 0], []), _PICARD),
    ("no-vertex.json", _graph(2, [], []), _PICARD),
    ("edge-triple.json", _graph(2, [0], [[0, 0, 0]]), _PICARD),
    ("tail-missing.json", _graph(2, [0], [], [1]), _PICARD),
    ("residues-two.json", _graph(2, [0], [], degree_data=_degree([0, 0], [])), _DEGREE_CALLS),
    ("types-none.json", _graph(2, [0], [], [0], degree_data=_degree([0], [])), _DEGREE_CALLS),
    ("type-order4.json", _graph(6, [0], [], [0], degree_data=_degree([0], ["1/4"])), _DEGREE_CALLS),
    ("inconsistent.json", _graph(2, [0], [[0, 0]], degree_data=_degree([1], [])), _DEGREE_CALLS),
    ("tail4.json", _graph(6, [0], [[0, 0]], [0], gerby=_orders([4], [2])), _GERBY_CALLS),
    ("edge5.json", _graph(6, [0], [[0, 0]], [0], gerby=_orders([2], [5])), _GERBY_CALLS),
    ("order0.json", _graph(2, [0], [[0, 0]], gerby=_orders([], [0])), _GERBY_CALLS),
    ("tail-orders-short.json", _graph(2, [0], [[0, 0]], [0], gerby=_orders([], [1])), _GERBY_CALLS),
    ("edge-orders-short.json", _graph(2, [0], [[0, 0]], gerby=_orders([], [])), _GERBY_CALLS),
    # The loader's guards, one input each, then _field's messages for a
    # missing field and for a value of the wrong kind, with and without a
    # hint.  json's own texts for a syntax error differ across Pythons and
    # are not pinned.
    *((name, config, _PICARD) for name, config in _LOADER_INPUTS.items()),
    ("number-tail-type.json", _graph(2, [0], [], [0], degree_data=_degree([0], [1])),
     (["fiber-count"],)),
    # r = 0 and r = -3 on two vertices joined by two edges: each command
    # rejects r as it reads it, before its work bounds
    *(
        entry
        for r in (0, -3)
        for entry in (
            (f"banana-r{r}.json", _graph(r, [0, 0], [[0, 1], [0, 1]]), _PICARD),
            (
                f"banana-degree-r{r}.json",
                _graph(r, [0, 0], [[0, 1], [0, 1]], degree_data=_degree([0, 0], [])),
                _DEGREE_CALLS,
            ),
            (
                f"banana-gerby-r{r}.json",
                _graph(r, [0, 0], [[0, 1], [0, 1]], gerby=_orders([], [1, 1])),
                _PICARD_MODES,
            ),
        )
    ),
]

# verify fails under each patch of gw in _PATCHES, and prints its exit-1
# document, at r = 3 on the one class beta = (1,), where k(beta) = 1: the
# two sides differ at the key of monomial [[0, 1, 0]].
_THEORY3 = _theory(r=3, truncation=_truncation(betas=[[1]]))


def _conjugated_twist(spec, rho, k):
    """zeta^(+rho*k) instead of zeta^(-rho*k): only the right side of verify twists."""
    return root_of_unity(rho * k, spec.band_order)


_SECTOR_FACTOR = gw._sector_factor


def _shifted_sector_factor(spec, genus, beta, sectors):
    """Admissible for k(beta) + 1 instead of k(beta), by one more sector -1:
    only the left side tests sectors."""
    return _SECTOR_FACTOR(spec, genus, beta, (*sectors, -1))


# Patches of gw by name: (attribute, replacement)
_PATCHES = {
    "conjugated-twist": ("character_twist", _conjugated_twist),
    "shifted-sector": ("_sector_factor", _shifted_sector_factor),
}

# (argv, input name, input, patch name)
CALLS = [
    *(
        ([argv[0], "--input", name, *argv[1:]], name, config, None)
        for name, config, calls in _ON_INPUTS
        for argv in calls
    ),
    # verify's exit-1 document, on an input named after the patch
    *(
        (["verify", "--input", f"{patch}.json", *_SEED], f"{patch}.json", _THEORY3, patch)
        for patch in _PATCHES
    ),
    *(
        (argv, None, None, None)
        for argv in (
            ["enumerate-admissible", "--n", "3", "--r", "4", "--k", "1"],
            ["enumerate-admissible", "--n", "2", "--r", "0", "--k", "0"],
            ["enumerate-admissible", "--n", "-1", "--r", "2", "--k", "0"],
            ["degree", "--genus", "2", "--r", "3"],
            ["degree", "--field-degree", "2", "--delta-source", "3", "--delta-target", "6"],
            ["degree", "--genus", "1", "--r", "2", "--field-degree", "6"],
            # an unreadable input, and a write that fails
            ["picard-torsion", "--input", "missing.json"],
            ["degree", "--genus", "2", "--r", "3", "--output", "."],
        )
    ),
]


def _run(argv, name, config, patch):
    """(exit code, stderr, stdout) of one call."""
    out, err = io.StringIO(), io.StringIO()
    handlers = logging.root.handlers[:]
    cwd = os.getcwd()
    patched = mock.patch.object(gw, *_PATCHES[patch]) if patch else contextlib.nullcontext()
    with tempfile.TemporaryDirectory() as directory:
        if name is not None:
            text = config if isinstance(config, str) else json.dumps(config)
            pathlib.Path(directory, name).write_text(text, encoding="utf-8")
        os.chdir(directory)
        logging.root.handlers.clear()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), patched:
                code = cli.main(argv)
        finally:
            logging.root.handlers[:] = handlers
            os.chdir(cwd)
    return code, err.getvalue(), out.getvalue()


def _pin(code, err, out):
    """[exit code, stderr, stdout length, stdout sha256]"""
    data = out.encode("utf-8")
    return [code, err, len(data), hashlib.sha256(data).hexdigest()]


def _read_pins():
    return json.loads(PINS.read_text(encoding="utf-8"))


def _layout(pins):
    """The text of pins.json: one line per call, sorted by id."""
    lines = (f"{json.dumps(call_id)}: {json.dumps(pins[call_id])}" for call_id in sorted(pins))
    return "{\n" + ",\n".join(lines) + "\n}\n"


@pytest.fixture(scope="module")
def pins():
    return _read_pins()


@pytest.mark.parametrize(
    "argv, name, config, patch", CALLS, ids=[" ".join(call[0]) for call in CALLS]
)
def test_pinned_output(pins, argv, name, config, patch):
    code, err, out = _run(argv, name, config, patch)
    assert _pin(code, err, out) == pins[" ".join(argv)]
    if out:
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_each_call_has_one_pin(pins):
    ids = [" ".join(argv) for argv, *_ in CALLS]
    assert len(set(ids)) == len(ids)
    assert sorted(ids) == sorted(pins)
    assert PINS.read_text(encoding="utf-8") == _layout(pins)


FIELDS = ("exit code", "stderr", "stdout length", "stdout sha256")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Re-run every pinned call and print each whose exit code, stderr, "
        "stdout length or sha256 differs from its pin in tests/pins.json."
    )
    parser.add_argument(
        "--rewrite", action="store_true",
        help="write every call's actual values into tests/pins.json",
    )
    args = parser.parse_args(argv)
    pins = _read_pins()
    actual = {" ".join(call[0]): _pin(*_run(*call)) for call in CALLS}
    changed = [call_id for call_id, pin in actual.items() if pins.get(call_id) != pin]
    for call_id in changed:
        print(call_id)
        for field, old, new in zip(FIELDS, pins.get(call_id, [None] * 4), actual[call_id]):
            if old != new:
                print(f"  {field}: {old!r} -> {new!r}")
    print(f"{len(changed)} of {len(CALLS)} pinned calls differ")
    if args.rewrite:
        PINS.write_text(_layout(actual), encoding="utf-8")
        return 0
    return 1 if changed else 0


def test_script_names_a_changed_pin_and_rewrites_it(tmp_path, monkeypatch, capsys):
    committed = PINS.read_text(encoding="utf-8")
    pins = json.loads(committed)
    call_id = "degree --genus 2 --r 3"
    actual = pins[call_id][3]
    pins[call_id] = [*pins[call_id][:3], "0" * 64]
    copy = tmp_path / "pins.json"
    copy.write_text(_layout(pins), encoding="utf-8")
    monkeypatch.setitem(globals(), "PINS", copy)
    assert main([]) == 1
    assert capsys.readouterr().out == (
        f"{call_id}\n  stdout sha256: {'0' * 64!r} -> {actual!r}\n"
        f"1 of {len(CALLS)} pinned calls differ\n"
    )
    assert main(["--rewrite"]) == 0
    assert copy.read_text(encoding="utf-8") == committed
    capsys.readouterr()
    assert main([]) == 0
    assert capsys.readouterr().out == f"0 of {len(CALLS)} pinned calls differ\n"


if __name__ == "__main__":
    sys.exit(main())
