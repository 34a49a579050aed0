"""Pinned outputs: stdout bytes, stderr text and exit codes of fixed calls.

Each call runs ``cli.main`` in-process from a directory that holds its
input under a fixed name, so the echoed input path is part of the pinned
bytes; a call that reads no input file names none.  stdout is pinned by its
length and sha256, stderr by its full text.  Zero-fill warnings go to
stderr through the logging module's last-resort handler, as in a process of
its own; pytest's capture handlers on the root logger are set aside for the
call so that they do not take its place.

Run as a script, ``PYTHONPATH=src python tests/test_outputs.py`` re-runs
every pinned call and prints each one whose exit code, stderr, stdout
length or sha256 differs from its pin; ``--rewrite`` also writes the new
values into this file, where the pin is a literal of a ``CALLS`` tuple.
"""

import argparse
import ast
import contextlib
import hashlib
import io
import itertools
import json
import logging
import os
import pathlib
import sys
import tempfile

import pytest

from gerbecalc import cli

_THEORY = {
    "r": 2,
    "pairing": [1],
    "basis_size": 1,
    "genus": 0,
    "truncation": {"n_max": 1, "j_max": 0, "betas": [[0], [1]]},
}

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

def _warnings(keys):
    """The zero-fill warnings of these (beta, insertions) keys, in order."""
    return "".join(
        f"base table has no entry for genus=0 beta={beta} insertions={insertions}; using 0\n"
        for beta, insertions in keys
    )


_HALF_EMPTY_WARNINGS = _warnings(
    [
        ("(0,)", "[(0, 0)]"),
        ("(0,)", "[(1, 0)]"),
        ("(0,)", "[(0, 0), (0, 0)]"),
        ("(0,)", "[(1, 0), (1, 0)]"),
        ("(1,)", "[(1, 0)]"),
        ("(1,)", "[(0, 0), (0, 0)]"),
        ("(1,)", "[(0, 0), (1, 0)]"),
    ]
)


def _table(*invariants, genus=0):
    """_HALF_EMPTY's theory with these (beta, insertions, value) entries."""
    records = [dict(_invariant(*entry), genus=genus) for entry in invariants]
    return {**_HALF_EMPTY, "base_invariants": records}


# Base tables that both commands reject, by input name, with their error:
# a key out of each range of the truncation, and a key given two values.
_REJECTED_TABLES = {
    "class-minus1.json": (
        _table(([0], [(-1, 0)], "1")), "class index -1 outside the basis of size 2",
    ),
    "psi-minus1.json": (
        _table(([0], [(0, -1)], "1")), "psi power -1 outside the truncation range [0, 0]",
    ),
    "psi-past-j.json": (
        _table(([0], [(0, 1)], "1")), "psi power 1 outside the truncation range [0, 0]",
    ),
    "class-past-b.json": (
        _table(([0], [(2, 0)], "1")), "class index 2 outside the basis of size 2",
    ),
    "too-many.json": (
        _table(([0], [(0, 0)] * 3, "1")), "3 insertions exceed the truncation bound 2",
    ),
    "beta-outside.json": (_table(([2], [], "1")), "curve class (2,) outside the truncation"),
    "genus-outside.json": (
        _table(([0], [], "1"), genus=1), "genus 1 outside the table's genus 0",
    ),
    "conflict.json": (
        _table(([1], [(1, 0), (0, 0)], "1/2"), ([1], [(0, 0), (1, 0)], "1/3")),
        "conflicting values for beta=(1,) insertions=[(0, 0), (1, 0)]: 1/2 vs 1/3",
    ),
}


def _theory(**fields):
    """_THEORY with these fields replaced."""
    return {**_THEORY, **fields}


def _truncation(**bounds):
    """_THEORY's truncation with these bounds replaced."""
    return {**_THEORY["truncation"], **bounds}


# Theories that both commands reject before they build a potential, by input
# name, with the arguments after it and the error: one input per guard on
# the pairing, the band order, the genus, the basis size, the truncation,
# the declared beta_rank, the choice of table and --parallel.
_SEED = ["--seed", "7"]
_REJECTED_THEORIES = {
    "pairing-longer.json": (
        _SEED, _theory(pairing=[1, 1]), "curve class (0,) has rank 1, expected 2",
    ),
    "classes-longer.json": (
        _SEED, _theory(truncation=_truncation(betas=[[0, 1]])),
        "curve class (0, 1) has rank 2, expected 1",
    ),
    "residue-past-r.json": (
        _SEED, _theory(r=3, pairing=[5]), "pairing residues must lie in [0, 3), got (5,)",
    ),
    "r-zero.json": (_SEED, _theory(r=0), "band order must be positive, got 0"),
    "genus-minus1.json": (_SEED, _theory(genus=-1), "genus must be nonnegative, got -1"),
    "basis-zero.json": (_SEED, _theory(basis_size=0), "basis size must be positive, got 0"),
    "no-classes.json": (
        _SEED, _theory(truncation=_truncation(betas=[])),
        "truncation needs at least one curve class",
    ),
    "mixed-rank.json": (
        _SEED, _theory(truncation=_truncation(betas=[[0], [0, 1]])),
        "curve classes of mixed rank: [1, 2]",
    ),
    "class-minus1-entry.json": (
        _SEED, _theory(truncation=_truncation(betas=[[-1]])),
        "curve classes must be effective (componentwise >= 0)",
    ),
    "n-minus1.json": (
        _SEED, _theory(truncation=_truncation(n_max=-1)), "truncation bounds must be nonnegative",
    ),
    "rank-mismatch.json": (
        _SEED, _theory(beta_rank=2), "beta_rank 2 does not match the pairing length 1",
    ),
    "seed-and-table.json": (
        _SEED, _theory(base_invariants=[]),
        "--seed and a base_invariants table are mutually exclusive",
    ),
    "no-table.json": ([], _THEORY, "configuration needs base_invariants unless --seed is given"),
    "parallel-zero.json": (
        [*_SEED, "--parallel", "0"], _THEORY, "--parallel must be at least 1, got 0",
    ),
}

# One key given one value twice, in two orders; every other key is missing.
_DUPLICATE = _table(([1], [(1, 0), (0, 0)], "1/2"), ([1], [(0, 0), (1, 0)], "1/2"))
_DUPLICATE_WARNINGS = _warnings(
    (beta, insertions)
    for beta in ("(0,)", "(1,)")
    for insertions in (
        "[]", "[(0, 0)]", "[(1, 0)]", "[(0, 0), (0, 0)]", "[(0, 0), (1, 0)]", "[(1, 0), (1, 0)]"
    )
    if (beta, insertions) != ("(1,)", "[(0, 0), (1, 0)]")
)


def _graph(r, vertices, edges, tails=(), **sections):
    graph = {"vertices": [{"genus": g} for g in vertices], "edges": edges, "tails": list(tails)}
    return {"r": r, "graph": graph, **sections}


# A genus-1 vertex joined to a genus-0 vertex by two edges, a loop on the
# second, and a bridge from it to a third vertex with a tail: the bridge's
# order 3 makes the two count-lifts modes differ.
_GERBY = _graph(
    6, [1, 0, 0], [[0, 1], [0, 1], [1, 1], [1, 2]], [2],
    gerby={"tail_orders": [2], "edge_orders": [3, 2, 6, 3]},
)
_PLAIN = {"r": 6, "graph": _GERBY["graph"]}
_FIBER = _graph(
    6, [0, 1], [[0, 1], [0, 1], [1, 1]], [0, 1],
    degree_data={"vertex_residues": [1, 2], "tail_types": ["1/2", "0"]},
)
# Orders that do not divide r = 6: a tail order 4, an edge order 5.
_TAIL4 = _graph(6, [0], [[0, 0]], [0], gerby={"tail_orders": [4], "edge_orders": [2]})
_EDGE5 = _graph(6, [0], [[0, 0]], [0], gerby={"tail_orders": [2], "edge_orders": [5]})

# The length and sha256 of an empty stdout.
_NO_OUTPUT = (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")

# (argv, input name, input, exit code, stderr, stdout length, stdout sha256)
CALLS = [
    (
        ["verify", "--input", "theory.json", "--seed", "7"], "theory.json", _THEORY,
        0, "", 537, "781fb625a8ec11aa19475ca491d55f9852e018d0ff4db8031371d749ee8f4924",
    ),
    (
        ["verify", "--input", "theory8.json", "--seed", "7"], "theory8.json", _THEORY8,
        0, "", 539, "1cea7d0344444ebc4d69ac473e570fa4ebd9817e6f3af1a854960f3f38a5fd62",
    ),
    (
        ["decompose", "--input", "theory.json", "--seed", "7"], "theory.json", _THEORY,
        0, "", 5148, "fb0c15dc58d56b42354963a828941ec8a75ce3d801ad683f84c25064e35c6195",
    ),
    (
        ["decompose", "--input", "theory12.json", "--seed", "7"], "theory12.json", _THEORY12,
        0, "", 49192, "90f06bfb8accf68a94a4c44dbcb6da122e91e3ad784dcb8d517d905676b61f44",
    ),
    (
        ["decompose", "--input", "theory30.json", "--seed", "7"], "theory30.json", _THEORY30,
        0, "", 144125, "a2220eb2142285daaf3605361c73b4ec397e00790662a5b922bfcf7ebd565692",
    ),
    (
        ["verify", "--input", "theory30.json", "--seed", "7"], "theory30.json", _THEORY30,
        0, "", 542, "a161847e506ed92dbe0ccafd5e92428aa44dbe91583971e6ef36cccdfad458f8",
    ),
    (
        ["decompose", "--input", "half.json"], "half.json", _HALF_EMPTY,
        0, _HALF_EMPTY_WARNINGS, 11696,
        "8b69b89ca52b78b4494206a37f2dc746cbdf96f3cdf56452282ce05ede5dfe18",
    ),
    *[
        ([command, "--input", name], name, config, 2, f"error: {error}\n", *_NO_OUTPUT)
        for name, (config, error) in _REJECTED_TABLES.items()
        for command in ("verify", "decompose")
    ],
    *[
        ([command, "--input", name, *extra], name, config, 2, f"error: {error}\n", *_NO_OUTPUT)
        for name, (extra, config, error) in _REJECTED_THEORIES.items()
        for command in ("verify", "decompose")
    ],
    (
        ["verify", "--input", "duplicate.json"], "duplicate.json", _DUPLICATE,
        0, _DUPLICATE_WARNINGS, 1196,
        "59b1b5190866cf0a58cf67dbbe2b199b0de11ca1f43d49402fbfcfcd81a86d3c",
    ),
    (
        ["decompose", "--input", "duplicate.json"], "duplicate.json", _DUPLICATE,
        0, _DUPLICATE_WARNINGS, 4123,
        "9281670ff4023c0005196f42f98f0c57d18f3cc2611fda492e9b6b2dfc08ace4",
    ),
    (
        ["picard-torsion", "--input", "plain.json"], "plain.json", _PLAIN,
        0, "", 708, "822127956edc33d2818500f6e6b99056569291da428b94ffdc7275eaa1119fbc",
    ),
    (
        ["picard-torsion", "--input", "gerby.json"], "gerby.json", _GERBY,
        0, "", 912, "7a278a815eca154da86182fbbccf6225a24e6f26a7028526a6cb73f3d46e3566",
    ),
    (
        ["picard-torsion", "--input", "gerby.json", "--quotient"], "gerby.json", _GERBY,
        0, "", 912, "2e1061e82a6cec7576f074477003d432d081716a227178ff622c23705be90217",
    ),
    (
        ["count-lifts", "--input", "gerby.json"], "gerby.json", _GERBY,
        0, "", 907, "e0eeb26c7537f34df3e02b253742ba6e705ec89b9cf2c263c8280b6941bfd384",
    ),
    (
        ["count-lifts", "--input", "gerby.json", "--mode", "all-edges"], "gerby.json", _GERBY,
        0, "", 902, "dd292dc4371d46622ecb5ebef487c3ae55b7b5b4fbf969ddbda561f526d1eaee",
    ),
    (
        ["fiber-count", "--input", "fiber.json"], "fiber.json", _FIBER,
        0, "", 753, "9e4bcde535d7040cf5c57d8ff7de179a2caf4651973e8d5201636ca11728646e",
    ),
    (
        ["compatible-graphs", "--input", "fiber.json"], "fiber.json", _FIBER,
        0, "", 10421, "1bfcc408f770f9e9fd3f7e8647ed8a3bc5e55cff3d024e7a0e539f09d93d6a0e",
    ),
    (
        ["enumerate-admissible", "--n", "3", "--r", "4", "--k", "1"], None, None,
        0, "", 1143, "8fff11fee963eaf5cc9f457f170d4ef28f1a2c4ce84c44e1001e48bcd30c1305",
    ),
    (
        ["degree", "--genus", "2", "--r", "3"], None, None,
        0, "", 151, "2c811caf475f86ac8988248128d44cc05cb57d34418ce9831e54c924b6bc3831",
    ),
    (
        ["degree", "--field-degree", "2", "--delta-source", "3", "--delta-target", "6"],
        None, None,
        0, "", 225, "c33c9739c9390e15d4bf5d2eefb595e1f176a12162f423dde7f31f5e7a6f5967",
    ),
    (
        ["picard-torsion", "--input", "tail4.json"], "tail4.json", _TAIL4,
        2, "error: isotropy order 4 does not divide r=6\n", *_NO_OUTPUT,
    ),
    (
        ["picard-torsion", "--input", "tail4.json", "--quotient"], "tail4.json", _TAIL4,
        2, "error: isotropy order 4 does not divide r=6\n", *_NO_OUTPUT,
    ),
    (
        ["count-lifts", "--input", "tail4.json"], "tail4.json", _TAIL4,
        2, "error: isotropy order 4 does not divide r=6\n", *_NO_OUTPUT,
    ),
    (
        ["picard-torsion", "--input", "edge5.json"], "edge5.json", _EDGE5,
        2, "error: isotropy order 5 does not divide r=6\n", *_NO_OUTPUT,
    ),
    (
        ["picard-torsion", "--input", "edge5.json", "--quotient"], "edge5.json", _EDGE5,
        2, "error: isotropy order 5 does not divide r=6\n", *_NO_OUTPUT,
    ),
    (
        ["count-lifts", "--input", "edge5.json"], "edge5.json", _EDGE5,
        2, "error: isotropy order 5 does not divide r=6\n", *_NO_OUTPUT,
    ),
]


def _run(argv, name, config):
    """(exit code, stderr, stdout length, stdout sha256) of one call."""
    out, err = io.StringIO(), io.StringIO()
    handlers = logging.root.handlers[:]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        if name is not None:
            pathlib.Path(directory, name).write_text(json.dumps(config), encoding="utf-8")
        os.chdir(directory)
        logging.root.handlers.clear()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            logging.root.handlers[:] = handlers
            os.chdir(cwd)
    data = out.getvalue().encode("utf-8")
    return code, err.getvalue(), len(data), hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "argv, name, config, code, err, length, digest", CALLS, ids=[" ".join(c[0]) for c in CALLS]
)
def test_pinned_output(argv, name, config, code, err, length, digest):
    assert _run(argv, name, config) == (code, err, length, digest)


FIELDS = ("exit code", "stderr", "stdout length", "stdout sha256")


def _pin_nodes(source):
    """The syntax nodes of the four pinned fields of each CALLS tuple, by call
    id, None past a starred name such as *_NO_OUTPUT; a call built by a
    comprehension has none."""
    tree = ast.parse(source)
    calls = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "CALLS"
    )
    nodes = {}
    for entry in calls.elts:
        if isinstance(entry, ast.Tuple):
            fields = itertools.takewhile(lambda e: not isinstance(e, ast.Starred), entry.elts[3:])
            nodes[" ".join(ast.literal_eval(entry.elts[0]))] = [*fields, None, None, None][:4]
    return nodes


def _rewrite(path, changed):
    """Write each changed field of {call id: (pin, new pin)}, a pin being
    (code, stderr, length, sha256), into the literal that holds it in the
    file at path; return the (call id, field) pairs that no literal holds,
    to be edited by hand."""
    source = path.read_text(encoding="utf-8")
    data = source.encode("utf-8")  # node offsets count UTF-8 bytes
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    nodes = _pin_nodes(source)
    edits, by_hand = [], []
    for call_id, (pin, new) in changed.items():
        for field, node, old, value in zip(FIELDS, nodes.get(call_id, [None] * 4), pin, new):
            if old == value:
                continue
            if not isinstance(node, ast.Constant):
                by_hand.append((call_id, field))
                continue
            text = json.dumps(value) if isinstance(value, str) else str(value)
            start = starts[node.lineno - 1] + node.col_offset
            end = starts[node.end_lineno - 1] + node.end_col_offset
            edits.append((start, end, text.encode("utf-8")))
    for start, end, text in sorted(edits, reverse=True):
        data = data[:start] + text + data[end:]
    path.write_bytes(data)
    return by_hand


def test_rewrite_restores_a_changed_pin(tmp_path):
    # pins changed in a copy of this file, a digest and length and a stderr
    # before a starred name, are written back; pins that a comprehension or
    # a starred name holds are left for editing by hand
    source = pathlib.Path(__file__).read_text(encoding="utf-8")
    pins = {" ".join(argv): tuple(pin) for argv, _, _, *pin in CALLS}
    seeded, starred = "verify --input theory.json --seed 7", "picard-torsion --input edge5.json"
    built, empty = "verify --input conflict.json", "count-lifts --input edge5.json"
    length, digest = pins[seeded][2:]
    changed = source.replace(f'{length}, "{digest}"', f'1, "{"0" * 64}"', 1)
    changed = changed.replace(json.dumps(pins[starred][1]), '"error: x\\n"', 1)
    for marker in ('"error: x\\n"', f'1, "{"0" * 64}"'):
        assert changed.count(marker) == source.count(marker) + 1
    copy = tmp_path / "pins.py"
    copy.write_text(changed, encoding="utf-8")
    changes = {
        seeded: (pins[seeded][:2] + (1, "0" * 64), pins[seeded]),
        starred: ((2, "error: x\n") + pins[starred][2:], pins[starred]),
        built: (pins[built], (0,) + pins[built][1:]),
        empty: (pins[empty], pins[empty][:2] + (1, "0" * 64)),
    }
    by_hand = [(built, "exit code"), (empty, "stdout length"), (empty, "stdout sha256")]
    assert _rewrite(copy, changes) == by_hand
    assert copy.read_text(encoding="utf-8") == source


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Re-run every pinned call and print each whose exit code, stderr, "
        "stdout length or sha256 differs from its pin."
    )
    parser.add_argument(
        "--rewrite", action="store_true", help="also write the new values into this file"
    )
    args = parser.parse_args(argv)
    changed = {}
    for call_argv, name, config, *pin in CALLS:
        actual = _run(call_argv, name, config)
        if actual != tuple(pin):
            call_id = " ".join(call_argv)
            changed[call_id] = (tuple(pin), actual)
            print(call_id)
            for field, old, new in zip(FIELDS, pin, actual):
                if old != new:
                    print(f"  {field}: {old!r} -> {new!r}")
    print(f"{len(changed)} of {len(CALLS)} pinned calls differ")
    if not (args.rewrite and changed):
        return 1 if changed else 0
    by_hand = _rewrite(pathlib.Path(__file__), changed)
    for call_id, field in by_hand:
        print(f"not a literal, edit by hand: {call_id}: {field}")
    return 1 if by_hand else 0


if __name__ == "__main__":
    sys.exit(main())
