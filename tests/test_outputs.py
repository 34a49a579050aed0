"""Pinned outputs: stdout bytes, stderr text and exit codes of fixed calls.

Each call runs ``cli.main`` in-process from a directory that holds its
input under a fixed name, so the echoed input path is part of the pinned
bytes; a call that reads no input file names none.  stdout is pinned by its length and sha256, stderr by its full text.
Zero-fill warnings go to stderr through the logging module's last-resort
handler, as in a process of its own; pytest's capture handlers on the root
logger are set aside for the call so that they do not take its place.
"""

import hashlib
import json
import logging

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
        ["decompose", "--input", "half.json"], "half.json", _HALF_EMPTY,
        0, _HALF_EMPTY_WARNINGS, 11696,
        "8b69b89ca52b78b4494206a37f2dc746cbdf96f3cdf56452282ce05ede5dfe18",
    ),
    *[
        ([command, "--input", name], name, config, 2, f"error: {error}\n", *_NO_OUTPUT)
        for name, (config, error) in _REJECTED_TABLES.items()
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


@pytest.mark.parametrize(
    "argv, name, config, code, err, length, digest", CALLS, ids=[" ".join(c[0]) for c in CALLS]
)
def test_pinned_output(
    capsys, tmp_path, monkeypatch, argv, name, config, code, err, length, digest
):
    if name is not None:
        (tmp_path / name).write_text(json.dumps(config), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    handlers = logging.root.handlers[:]
    logging.root.handlers.clear()
    try:
        assert cli.main(argv) == code
    finally:
        logging.root.handlers[:] = handlers
    captured = capsys.readouterr()
    assert captured.err == err
    out = captured.out.encode("utf-8")
    assert (len(out), hashlib.sha256(out).hexdigest()) == (length, digest)
