"""Pinned outputs: stdout bytes, stderr text and exit codes of fixed calls.

Each call runs ``cli.main`` in-process from a directory that holds its
input under a fixed name, so the echoed input path is part of the pinned
bytes.  stdout is pinned by its length and sha256, stderr by its full text.
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

_HALF_EMPTY_WARNINGS = "".join(
    f"base table has no entry for genus=0 beta={beta} insertions={insertions}; using 0\n"
    for beta, insertions in [
        ("(0,)", "[(0, 0)]"),
        ("(0,)", "[(1, 0)]"),
        ("(0,)", "[(0, 0), (0, 0)]"),
        ("(0,)", "[(1, 0), (1, 0)]"),
        ("(1,)", "[(1, 0)]"),
        ("(1,)", "[(0, 0), (0, 0)]"),
        ("(1,)", "[(0, 0), (1, 0)]"),
    ]
)

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
]


@pytest.mark.parametrize(
    "argv, name, config, code, err, length, digest", CALLS, ids=[" ".join(c[0]) for c in CALLS]
)
def test_pinned_output(
    capsys, tmp_path, monkeypatch, argv, name, config, code, err, length, digest
):
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
