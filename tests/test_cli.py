"""End-to-end tests for the command line interface."""

import contextlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph_of
from gerbecalc import admissibility, cli, counting, exactnum, graphs, gw
from gerbecalc.exactnum import CyclotomicNumber, root_of_unity


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def graph_config(tmp_path, *, r, vertices, edges, tails=(), gerby=None,
                 degree_data=None, name="graph.json"):
    payload = {
        "format": 1,
        "r": r,
        "graph": {
            "vertices": [{"genus": g} for g in vertices],
            "edges": [list(e) for e in edges],
            "tails": list(tails),
        },
    }
    if gerby is not None:
        payload["gerby"] = gerby
    if degree_data is not None:
        payload["degree_data"] = degree_data
    return write_json(tmp_path, name, payload)


def gw_config(tmp_path, extra=None, **overrides):
    payload = {
        "r": 2,
        "pairing": [1],
        "basis_size": 1,
        "genus": 0,
        "truncation": {"n_max": 1, "j_max": 0, "betas": [[0], [1]]},
    }
    payload.update(overrides)
    if extra:
        payload.update(extra)
    return write_json(tmp_path, "theory.json", payload)


def test_enumerate_admissible_document(capsys):
    code, out, err = run(capsys, "enumerate-admissible", "--n", "2", "--r", "2", "--k", "0")
    assert code == 0 and err == ""
    document = json.loads(out)
    assert document["format"] == 1
    assert document["command"] == "enumerate-admissible"
    assert document["inputs"] == {"n": 2, "r": 2, "k": 0}
    assert document["result"] == {
        "count": 2,
        "vectors": [["0/1", "0/1"], ["1/2", "1/2"]],
    }
    # canonical form: sorted keys, two-space indent, trailing newline
    assert out == json.dumps(document, indent=2, sort_keys=True) + "\n"


def test_compatible_graphs(capsys, tmp_path):
    path = graph_config(
        tmp_path, r=6, vertices=[0], edges=[(0, 0)],
        degree_data={"vertex_residues": [0], "tail_types": []},
    )
    code, out, _ = run(capsys, "compatible-graphs", "--input", path)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["count"] == 4
    assert sorted(g["edge_orders"][0] for g in result["gerby_graphs"]) == [1, 2, 3, 6]


def test_count_lifts_modes(capsys, tmp_path):
    path = graph_config(
        tmp_path, r=3, vertices=[0, 0], edges=[(0, 1)], tails=[0, 1],
        gerby={"tail_orders": [3, 3], "edge_orders": [3]},
    )
    code, out, _ = run(capsys, "count-lifts", "--input", path)
    assert code == 0
    result = json.loads(out)["result"]
    assert result == {
        "value": "1",
        "formula": "r^(2g-b1) * prod(phi(gamma_e) : e non-separating)",
    }
    code, out, _ = run(capsys, "count-lifts", "--input", path, "--mode", "all-edges")
    assert code == 0
    result = json.loads(out)["result"]
    assert result == {
        "value": "2",
        "formula": "r^(2g-b1) * prod(phi(gamma_e) : e any edge)",
    }


@pytest.mark.parametrize(
    "gerby, message",
    [
        ({"tail_orders": [3, 3], "edge_orders": [0]}, "positive"),
        ({"tail_orders": [3, -3], "edge_orders": [3]}, "positive"),
        ({"tail_orders": [3], "edge_orders": [3]}, "per tail"),
        ({"tail_orders": [3, 3], "edge_orders": [3, 3]}, "per edge"),
    ],
)
def test_count_lifts_rejects_bad_orders(capsys, tmp_path, gerby, message):
    path = graph_config(
        tmp_path, r=3, vertices=[0, 0], edges=[(0, 1)], tails=[0, 1], gerby=gerby,
    )
    code, out, err = run(capsys, "count-lifts", "--input", path)
    assert code == 2 and out == ""
    assert message in err


def test_picard_torsion_variants(capsys, tmp_path):
    plain = graph_config(tmp_path, r=5, vertices=[0], edges=[(0, 0)])
    code, out, _ = run(capsys, "picard-torsion", "--input", plain)
    assert code == 0
    assert json.loads(out)["result"] == {"value": "5", "formula": "r^(2g-b1)"}

    twisted = graph_config(
        tmp_path, r=6, vertices=[1], edges=[(0, 0)],
        gerby={"tail_orders": [], "edge_orders": [4]}, name="twisted.json",
    )
    code, out, _ = run(capsys, "picard-torsion", "--input", twisted)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["value"] == "432"
    assert "gcd" in result["formula"]

    code, out, _ = run(capsys, "picard-torsion", "--input", twisted, "--quotient")
    assert code == 0
    assert json.loads(out)["result"] == {
        "value": "4",
        "formula": "prod(gamma_e : e any edge) * prod(gamma_t : t any tail)",
    }

    code, _, err = run(capsys, "picard-torsion", "--input", plain, "--quotient")
    assert code == 2
    assert "'gerby' section" in err


def test_quotient_past_the_digit_bound_is_an_input_error(capsys, tmp_path):
    # each order 10^4000 adds 4,000 digits to the product
    order = 10**4000
    for edges, code in ((24, 0), (26, 2)):
        path = graph_config(
            tmp_path, r=2, vertices=[0], edges=[(0, 0)] * edges,
            gerby={"tail_orders": [], "edge_orders": [order] * edges},
        )
        status, out, err = run(capsys, "picard-torsion", "--input", path, "--quotient")
        assert status == code
        if code == 0:
            assert json.loads(out)["result"]["value"] == "1" + "0" * (4000 * edges)
        else:
            assert out == "" and "result bound of 100,000 digits" in err


def test_fiber_count(capsys, tmp_path):
    path = graph_config(
        tmp_path, r=2, vertices=[0], edges=[(0, 0)],
        degree_data={"vertex_residues": [0], "tail_types": []},
    )
    code, out, _ = run(capsys, "fiber-count", "--input", path)
    assert code == 0
    assert json.loads(out)["result"] == {"value": "4", "formula": "r^(2g)"}


def test_fiber_count_rejects_unbalanced_residues(capsys, tmp_path):
    path = graph_config(
        tmp_path, r=2, vertices=[0], edges=[(0, 0)],
        degree_data={"vertex_residues": [1], "tail_types": []},
    )
    code, out, err = run(capsys, "fiber-count", "--input", path)
    assert code == 2 and out == ""
    assert "inconsistent" in err


@pytest.mark.parametrize("command", ["fiber-count", "compatible-graphs"])
def test_zero_denominator_tail_type_is_an_input_error(capsys, tmp_path, command):
    path = graph_config(
        tmp_path, r=2, vertices=[0], edges=[], tails=[0],
        degree_data={"vertex_residues": [0], "tail_types": ["1/0"]},
    )
    code, out, err = run(capsys, command, "--input", path)
    assert code == 2 and out == ""
    assert "zero denominator" in err


@pytest.mark.parametrize(
    "command, r, vertices, edges, what",
    [
        # sqrt(10^30) trial divisions of r
        ("fiber-count", 10**30, [1], [(0, 0)], "trial divisions"),
        ("compatible-graphs", 10**30, [1], [(0, 0)], "trial divisions"),
        # d(12)^8 = 1,679,616 decorations (fiber-count streams them, so a
        # missing bound costs time here, not the memory of a listing)
        ("fiber-count", 12, [0], [(0, 0)] * 8, "decorations"),
        # a prime r = 1,000,003 is its own only prime power: as many
        # assignments of the one free edge
        ("fiber-count", 1_000_003, [0, 0], [(0, 1), (0, 1)], "cycle-count steps"),
    ],
)
def test_work_past_the_bound_is_an_input_error(capsys, tmp_path, command, r, vertices, edges, what):
    path = graph_config(
        tmp_path, r=r, vertices=vertices, edges=edges,
        degree_data={"vertex_residues": [0] * len(vertices), "tail_types": []},
    )
    code, out, err = run(capsys, command, "--input", path)
    assert code == 2 and out == ""
    assert what in err and "work bound of 1,000,000 steps" in err


def test_fiber_count_on_a_forest_has_no_free_edge_to_bound(capsys, tmp_path):
    # a three-vertex path: both edges are solved, so each prime power of r
    # peels one assignment, with no table of element orders
    r = 2 * 10**6
    path = graph_config(
        tmp_path, r=r, vertices=[0, 1, 0], edges=[(0, 1), (1, 2)],
        degree_data={"vertex_residues": [0, 0, 0], "tail_types": []},
    )
    code, out, _ = run(capsys, "fiber-count", "--input", path)
    assert code == 0
    assert json.loads(out)["result"] == {"value": str(r**2), "formula": "r^(2g)"}


@pytest.mark.parametrize(
    "r, n_edges",
    [
        # 2 * 10**6 = 2^7 * 5^6: 128 + 15,625 assignments of the one free edge
        (2 * 10**6, 2),
        # 2310 = 2 * 3 * 5 * 7 * 11: 4 + 9 + 25 + 49 + 121 assignments of the
        # two free edges, where r^2 = 5,336,100 would pass the bound
        (2310, 3),
    ],
)
def test_fiber_count_bound_sums_the_prime_power_steps(capsys, tmp_path, r, n_edges):
    path = graph_config(
        tmp_path, r=r, vertices=[0, 0], edges=[(0, 1)] * n_edges,
        degree_data={"vertex_residues": [0, 0], "tail_types": []},
    )
    code, out, _ = run(capsys, "fiber-count", "--input", path)
    assert code == 0
    assert json.loads(out)["result"] == {"value": str(r ** (2 * (n_edges - 1))), "formula": "r^(2g)"}


def test_fiber_count_bound_counts_every_peeled_edge(capsys, tmp_path, monkeypatch):
    # a 480-vertex path plus one doubled edge at r = 10^6 = 2^6 * 5^6: only
    # 64 + 15,625 assignments of the one free edge, but each peels 479 tree
    # edges, 7,515,031 steps in all
    def never(*args):
        raise AssertionError("the cycle assignments were enumerated past the bound")

    monkeypatch.setattr(counting, "_peel_counts", never)
    path = graph_config(
        tmp_path, r=10**6, vertices=[0] * 480, edges=[(v, v + 1) for v in range(479)] + [(0, 1)],
        degree_data={"vertex_residues": [0] * 480, "tail_types": []},
    )
    code, out, err = run(capsys, "fiber-count", "--input", path)
    assert code == 2 and out == ""
    assert "cycle-count steps" in err and "work bound of 1,000,000 steps" in err


def path_config(tmp_path, n):
    return graph_config(
        tmp_path, r=2, vertices=[0] * n, edges=[(v, v + 1) for v in range(n - 1)],
        gerby={"tail_orders": [], "edge_orders": [1] * (n - 1)},
        degree_data={"vertex_residues": [0] * n, "tail_types": []}, name=f"path{n}.json",
    )


def hub_config(tmp_path, n):
    # a path of n vertices plus a hub joined to each: n - 1 edges outside
    # any spanning forest, so V * (E - V + 1) = (n + 1) * (n - 1) mark bits
    return graph_config(
        tmp_path, r=2, vertices=[0] * (n + 1),
        edges=[(v, v + 1) for v in range(n - 1)] + [(n, v) for v in range(n)],
        gerby={"tail_orders": [], "edge_orders": [1] * (2 * n - 1)},
        degree_data={"vertex_residues": [0] * (n + 1), "tail_types": []}, name=f"hub{n}.json",
    )


@pytest.mark.parametrize("command", ["compatible-graphs", "count-lifts", "fiber-count", "picard-torsion"])
def test_graph_searches_past_the_bound_are_input_errors(capsys, tmp_path, monkeypatch, command):
    # a 2,000-vertex path and its hub: 2,001 * 1,999 mark bits, and
    # (3,999 + 2,000) * 6,000 graph-size steps
    def never(*args):
        raise AssertionError("the edges were classified before the bound was checked")

    for module in (cli, counting, admissibility):
        monkeypatch.setattr(module, "classify_edges", never)
    code, out, err = run(capsys, command, "--input", hub_config(tmp_path, 2000))
    assert code == 2 and out == ""
    what = {"count-lifts": "mark bits", "picard-torsion": "mark bits"}.get(command, "graph-size steps")
    assert what in err and "work bound of 1,000,000 steps" in err
    if what == "graph-size steps":
        # a 2,000-vertex path alone: (1,999 + 1,999) * 3,999 graph-size steps
        code, out, err = run(capsys, command, "--input", path_config(tmp_path, 2000))
        assert code == 2 and out == "" and what in err


@pytest.mark.parametrize("command", ["picard-torsion", "count-lifts"])
def test_trees_classify_without_mark_bits(capsys, tmp_path, command):
    # no edge of a path lies outside its spanning forest, so its marks hold
    # no bits; a search per edge would take 20,000 searches of 40,000 steps
    for n in (2000, 20000):
        code, out, _ = run(capsys, command, "--input", path_config(tmp_path, n))
        assert code == 0 and json.loads(out)["result"]["value"] == "1"


def test_each_graph_is_searched_once(capsys, tmp_path, monkeypatch):
    # the benchmark's graph-trees tree: 150 vertices, 2 loops, 2 cycles
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", Path(__file__).parents[1] / "perfbench" / "inputs.py"
    )
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    path = write_json(tmp_path, "tree.json", inputs.tree_with_cycles(Random(201), 3, 150, 2, [2, 3]))
    seen = {"graphs": 0, "searches": 0}
    search, init = graphs._spanning_forest, graphs.ModularGraph.__init__

    def counted_search(*args):
        seen["searches"] += 1
        return search(*args)

    def counted_init(graph, *args):
        seen["graphs"] += 1
        init(graph, *args)

    # every module that binds the search, under any name, calls the counted one
    for name, module in list(sys.modules.items()):
        if name == "gerbecalc" or name.startswith("gerbecalc."):
            for attr, value in list(vars(module).items()):
                if value is search:
                    monkeypatch.setattr(module, attr, counted_search)
    monkeypatch.setattr(graphs.ModularGraph, "__init__", counted_init)
    for command in ("picard-torsion", "count-lifts", "compatible-graphs", "fiber-count"):
        seen.update(graphs=0, searches=0)
        code, _, _ = run(capsys, command, "--input", path)
        assert code == 0
        assert seen["graphs"] == seen["searches"] == 1


def test_output_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    # each command in its own interpreter, so string hashing differs by seed
    graph = graph_config(
        tmp_path, r=4, vertices=[0, 1, 0], edges=[(0, 1), (1, 0), (1, 2), (2, 2)],
        tails=[0, 2], degree_data={"vertex_residues": [1, 2, 3], "tail_types": ["1/2", "0"]},
    )
    calls = [
        ["verify", "--input", gw_config(tmp_path), "--seed", "7"],
        ["compatible-graphs", "--input", graph],
        ["fiber-count", "--input", graph],
        ["enumerate-admissible", "--n", "3", "--r", "4", "--k", "1"],
    ]
    source = str(Path(cli.__file__).parents[1])
    outputs = {}
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
        outputs[seed] = [
            subprocess.run(
                [sys.executable, "-m", "gerbecalc.cli", *argv],
                env=env, capture_output=True, check=True,
            ).stdout
            for argv in calls
        ]
    assert all(outputs["0"])
    assert outputs["0"] == outputs["1"]


# The module named on each line of `python -X importtime` (stderr).
_IMPORTED = re.compile(r"\|\s*([\w.]+)\s*$", re.M)
# What @dataclass would load (inspect, through dataclasses) on every call.
_RECORD_MACHINERY = {"dataclasses", "inspect"}


def imported_modules(*argv):
    """The modules one `python -m gerbecalc.cli` call imports."""
    env = dict(os.environ)
    source = str(Path(cli.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "gerbecalc.cli", *argv],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return set(_IMPORTED.findall(proc.stderr))


def test_only_decompose_and_verify_load_gw(tmp_path):
    graph = graph_config(
        tmp_path, r=4, vertices=[0, 1], edges=[(0, 1), (1, 1)], tails=[0, 1],
        gerby={"tail_orders": [4, 4], "edge_orders": [1, 4]},
        degree_data={"vertex_residues": [1, 1], "tail_types": ["1/4", "1/4"]},
    )
    counting_calls = [
        ["picard-torsion", "--input", graph],
        ["count-lifts", "--input", graph],
        ["fiber-count", "--input", graph],
        ["degree", "--genus", "1", "--r", "2"],
    ]
    other_calls = [
        ["compatible-graphs", "--input", graph],
        ["enumerate-admissible", "--n", "2", "--r", "4", "--k", "2"],
    ]
    for argv in counting_calls + other_calls:
        loaded = imported_modules(*argv)
        assert {"gerbecalc", "gerbecalc.graphs"} <= loaded, argv
        # only the commands that count load counting
        assert ("gerbecalc.counting" in loaded) == (argv in counting_calls), argv
        assert not loaded & {"gerbecalc.gw", "gerbecalc.abelian", "logging"}, argv
        assert not loaded & _RECORD_MACHINERY, argv
    # verify on a full table never warns, so it loads neither logging nor counting
    loaded = imported_modules("verify", "--input", gw_config(tmp_path), "--seed", "7")
    assert {"gerbecalc.gw", "gerbecalc.abelian"} <= loaded
    assert not loaded & {"logging", "gerbecalc.counting"}
    assert not loaded & _RECORD_MACHINERY
    # one entry of six: the first zero-fill warning loads logging
    record = {"genus": 0, "beta": [0], "insertions": [], "value": "1"}
    path = gw_config(tmp_path, base_invariants=[record])
    loaded = imported_modules("decompose", "--input", path)
    assert {"gerbecalc.gw", "logging"} <= loaded
    assert "gerbecalc.counting" not in loaded
    assert not loaded & _RECORD_MACHINERY


@pytest.mark.parametrize("command", ["verify", "decompose"])
def test_coverage_errors_are_input_errors(capsys, tmp_path, command):
    record = {"genus": 0, "beta": [1], "insertions": [{"class": 3, "psi": 0}], "value": "1"}
    path = gw_config(tmp_path, base_invariants=[record])
    code, out, err = run(capsys, command, "--input", path)
    assert (code, out, err) == (2, "", "error: class index 3 outside the basis of size 1\n")


@pytest.mark.parametrize(
    "note", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "[NaN, 1e400, -Infinity, 0.1]"]
)
def test_non_finite_numbers_are_input_errors(capsys, tmp_path, note):
    # an unread field still reaches stdout in the echoed configuration
    path = tmp_path / "graph.json"
    path.write_text(
        '{"r": 2, "note": %s, "graph": {"vertices": [{"genus": 1}], "edges": [], "tails": []}}'
        % note,
        encoding="utf-8",
    )
    code, out, err = run(capsys, "picard-torsion", "--input", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


def test_finite_floats_echo_as_written(capsys, tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(
        '{"r": 2, "note": [0.1, -2.5e-07, 1e300, 1e-400], '
        '"graph": {"vertices": [{"genus": 1}], "edges": [], "tails": []}}',
        encoding="utf-8",
    )
    code, out, err = run(capsys, "picard-torsion", "--input", str(path))
    assert code == 0 and err == ""
    assert '"note": [\n        0.1,\n        -2.5e-07,\n        1e+300,\n        0.0\n      ]' in out
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


@contextlib.contextmanager
def no_int_digit_limit():
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


_JSON_TEXT = st.text(st.characters(exclude_categories=())) | st.sampled_from(
    ['"', "\\", "\x00\x1f\x7f", "\u00e9\u2028", "\ud800", "\U0001f600", ""]
)
_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    # past the 4,300 digits that int-to-str converts by default
    | st.builds(lambda n, sign: sign * 10**4300 + n, st.integers(), st.sampled_from([1, -1]))
    | st.floats(allow_nan=False, allow_infinity=False)
    | _JSON_TEXT
)
_JSON_TREES = st.recursive(
    _JSON_SCALARS,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(_JSON_TEXT, children, max_size=5)
    ),
    max_leaves=40,
)


@given(_JSON_TREES)
def test_writer_matches_the_stdlib_encoder(document):
    pieces = []
    with no_int_digit_limit():
        expected = json.dumps(document, indent=2, sort_keys=True) + "\n"
        cli._write_json(document, pieces.append)
    assert "".join(pieces) == expected


def test_writer_hands_long_lists_over_in_pieces():
    document = {"vectors": [("1/2", "1/3")] * 10_000, "count": 10_000}
    pieces = []
    cli._write_json(document, pieces.append)
    assert len(pieces) > 2
    assert "".join(pieces) == json.dumps(document, indent=2, sort_keys=True) + "\n"



@pytest.mark.parametrize("n, r", [(2, 10**12), (1_000_001, 1)])
def test_admissible_vectors_past_the_bound_are_an_input_error(capsys, n, r):
    code, out, err = run(capsys, "enumerate-admissible", "--n", str(n), "--r", str(r), "--k", "0")
    assert code == 2 and out == ""
    assert "contact types" in err and "work bound of 1,000,000 steps" in err


def path_with_loops(n, loops):
    # a path of n vertices with the given number of self-loops at vertex 0
    return graph_of([0] * n, [(v, v + 1) for v in range(n - 1)] + [(0, 0)] * loops)


def test_each_decoration_is_charged_for_the_graph_it_reads():
    # 2^16 decorations at r = 2: on a 352-vertex path with 16 loops
    # (V + E = 719) each is charged 1 + 719 // 48 = 15 steps, 983,040 in all;
    # at 353 vertices 16 steps, 1,048,576.  Both pass the graph-size cap.
    for cycles in (False, True):
        cli._bound_graph_work(path_with_loops(352, 16), 2, cycles)
        with pytest.raises(cli.InputError, match="decorations, each charged"):
            cli._bound_graph_work(path_with_loops(353, 16), 2, cycles)


def test_each_decoration_is_charged_for_the_tails_it_reads():
    # 2^16 decorations of one vertex with 16 loops at r = 2: with 351 tails
    # (V + E + 2T = 719) each is charged 15 steps, 983,040 in all; with 352
    # tails 16 steps, 1,048,576.  Tails do not enter the graph-size cap.
    for cycles in (False, True):
        cli._bound_graph_work(graph_of([0], [(0, 0)] * 16, [0] * 351), 2, cycles)
        with pytest.raises(cli.InputError, match="decorations, each charged"):
            cli._bound_graph_work(graph_of([0], [(0, 0)] * 16, [0] * 352), 2, cycles)


def never_enumerate(monkeypatch):
    def never(*args):
        raise AssertionError("the decorations were enumerated past the bound")

    for module in (admissibility, counting):
        monkeypatch.setattr(module, "enumerate_compatible_gerby", never)


@pytest.mark.parametrize("command", ["fiber-count", "compatible-graphs"])
def test_many_decorations_with_many_tails_are_an_input_error(capsys, tmp_path, monkeypatch, command):
    # one vertex with 12 loops and 100,000 tails at r = 2: 4,096 decorations,
    # each charged 1 + 200,013 // 48 = 4,167 steps (fiber-count ran 16.5 s
    # when each was charged one); the bound reads only the graph and r, so
    # it is checked before the 100,000 tail types are parsed
    never_enumerate(monkeypatch)

    def never_parse(text):
        raise AssertionError("the tail types were parsed past the bound")

    monkeypatch.setattr(admissibility.ContactType, "parse", staticmethod(never_parse))
    path = graph_config(
        tmp_path, r=2, vertices=[0], edges=[(0, 0)] * 12, tails=[0] * 100_000,
        degree_data={"vertex_residues": [0], "tail_types": ["0"] * 100_000},
    )
    code, out, err = run(capsys, command, "--input", path)
    assert code == 2 and out == ""
    assert "decorations, each charged" in err and "work bound of 1,000,000 steps" in err


@pytest.mark.parametrize("command", ["fiber-count", "compatible-graphs"])
def test_many_decorations_of_a_large_graph_are_an_input_error(capsys, tmp_path, monkeypatch, command):
    # a 480-vertex path with 19 loops at r = 2: 2^19 = 524,288 decorations
    # and 955,506 graph-size steps are each within the bound, but every
    # decoration reads 978 vertices and edges (fiber-count took 35 s)
    never_enumerate(monkeypatch)
    path = graph_config(
        tmp_path, r=2, vertices=[0] * 480, edges=[(v, v + 1) for v in range(479)] + [(0, 0)] * 19,
        degree_data={"vertex_residues": [0] * 480, "tail_types": []},
    )
    code, out, err = run(capsys, command, "--input", path)
    assert code == 2 and out == ""
    assert "decorations, each charged" in err and "work bound of 1,000,000 steps" in err


def necklace(multiplicities):
    # a cycle of vertices, consecutive ones joined by so many parallel edges
    n = len(multiplicities)
    return graph_of([0] * n, [(i, (i + 1) % n) for i in range(n) for _ in range(multiplicities[i])])


@pytest.mark.parametrize(
    "graph, r",
    [
        (necklace([2, 2, 2]), 24),
        (necklace([2, 2, 2]), 30),
        (necklace([3, 2, 2]), 12),
        (graph_of([0, 0], [(0, 1)] * 5), 30),
        (graph_of([0, 0], [(0, 1)] * 6), 30),
    ],
)
def test_fiber_wide_calls_pass_the_bound(graph, r):
    # up to 6^7 = 279,936 decorations of graphs of at most 10 vertices and
    # edges, charged one step each
    cli._bound_graph_work(graph, r, True)


@pytest.mark.parametrize(
    "command, edges",
    [
        ("fiber-count", [(0, 1), (0, 1), (0, 1)]),
        ("compatible-graphs", [(0, 1), (0, 1), (1, 1)]),
        ("count-lifts", [(0, 1), (0, 1), (0, 1)]),
    ],
)
def test_each_call_factors_r_once(capsys, tmp_path, command, edges):
    # the bound's sqrt(r) and d(r), the decorations' divisors, the peel's
    # prime powers and the totients of the divisors of r = 60 all read one
    # factorisation; count-lifts takes the totients of its edge orders 60,
    # 4 and 6 from it too
    exactnum._prime_powers.cache_clear()
    gerby = {"tail_orders": [], "edge_orders": [60, 4, 6]} if command == "count-lifts" else None
    path = graph_config(
        tmp_path, r=60, vertices=[0, 0], edges=edges, gerby=gerby,
        degree_data={"vertex_residues": [0, 0], "tail_types": []},
    )
    code, _, _ = run(capsys, command, "--input", path)
    assert code == 0
    info = exactnum._prime_powers.cache_info()
    assert info.misses == 1 and info.hits >= 1


def test_work_at_the_bound_still_runs(capsys, tmp_path):
    cli._bound_work("steps", 10, 6)
    cli._bound_work("steps", 1, 10**18, 10**6)
    with pytest.raises(cli.InputError, match="work bound"):
        cli._bound_work("steps", 10, 6, 2)
    # the graph size of paths: (499 + 499) * 999 = 997,002 steps at 500
    # vertices, (500 + 500) * 1,001 at 501
    cli._bound_graph_work(graph_of([0] * 500, [(v, v + 1) for v in range(499)]), 2, True)
    longer = graph_of([0] * 501, [(v, v + 1) for v in range(500)])
    with pytest.raises(cli.InputError, match="graph-size steps"):
        cli._bound_graph_work(longer, 2, True)
    # the mark bits of a path and its hub: 1,001 * 999 = 999,999 at 1,000
    # path vertices, 1,002 * 1,000 at 1,001
    code, out, _ = run(capsys, "count-lifts", "--input", hub_config(tmp_path, 1000))
    assert code == 0 and json.loads(out)["result"]["value"] == str(2**999)
    code, out, err = run(capsys, "picard-torsion", "--input", hub_config(tmp_path, 1001))
    assert code == 2 and out == "" and "mark bits" in err
    # sqrt(10^12) = 10^6 trial divisions of r, exactly at the bound
    path = graph_config(
        tmp_path, r=10**12, vertices=[1], edges=[],
        degree_data={"vertex_residues": [0], "tail_types": []},
    )
    code, out, _ = run(capsys, "fiber-count", "--input", path)
    assert code == 0 and json.loads(out)["result"]["value"] == str(10**24)


def test_overlong_integer_literals_are_an_input_error(capsys, tmp_path):
    # a digit group past the bound is rejected before int() converts it,
    # which takes seconds at 10^6 digits once the digit limit is lifted
    bound = exactnum._DIGIT_BOUND

    def picard_config(digits):
        path = tmp_path / "picard.json"
        graph = '{"vertices": [{"genus": 0}], "edges": [], "tails": []}'
        path.write_text(f'{{"graph": {graph}, "r": 1{"0" * (digits - 1)}}}', encoding="utf-8")
        return str(path)

    for digits in (bound + 1, 10**6):
        code, out, err = run(capsys, "picard-torsion", "--input", picard_config(digits))
        assert code == 2 and out == ""
        assert f"integer literal past the bound of {bound:,} digits" in err
    code, out, _ = run(capsys, "picard-torsion", "--input", picard_config(bound))
    # the output echoes r, past the test process's own digit limit
    assert code == 0 and '"value": "1"' in out

    def base_value(value):
        return gw_config(tmp_path, extra={"base_invariants": [
            {"genus": 0, "beta": [0], "insertions": [], "value": value},
        ]})

    for value in ("1" * (bound + 1), "-" + "1" * 10**6, "1/" + "1" * 10**6):
        code, out, err = run(capsys, "verify", "--input", base_value(value))
        assert code == 2 and out == ""
        assert f"rational literal past the bound of {bound:,} digits" in err
    code, out, _ = run(capsys, "verify", "--input", base_value("-" + "1" * bound))
    assert code == 0 and json.loads(out)["result"]["status"] == "pass"


def test_internal_check_failure_exits_three(capsys, tmp_path, monkeypatch):
    exact = counting._cycle_assignment_count
    monkeypatch.setattr(counting, "_cycle_assignment_count", lambda *a: exact(*a) + 1)
    path = graph_config(
        tmp_path, r=2, vertices=[0, 0], edges=[(0, 1), (0, 1), (0, 1)],
        degree_data={"vertex_residues": [0, 0], "tail_types": []},
    )
    code, out, err = run(capsys, "fiber-count", "--input", path)
    assert code == 3 and out == ""
    assert err.startswith("internal error: ") and err.count("\n") == 1
    assert "closed form" in err


def test_wrong_bridge_order_exits_three(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(
        admissibility, "_cut_orders", lambda graph, *a: dict.fromkeys(range(graph.num_edges), 1)
    )
    path = graph_config(
        tmp_path, r=4, vertices=[0, 0, 0], edges=[(0, 1), (1, 2), (1, 2)], tails=[0],
        degree_data={"vertex_residues": [1, 1, 0], "tail_types": ["1/2"]},
    )
    code, out, err = run(capsys, "fiber-count", "--input", path)
    assert code == 3 and out == ""
    assert err.startswith("internal error: ") and "closed form" in err


def test_help_lists_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "3 internal consistency check failed" in " ".join(capsys.readouterr().out.split())


def test_degree_modes(capsys):
    code, out, _ = run(capsys, "degree", "--genus", "1", "--r", "3")
    assert code == 0
    assert json.loads(out)["result"] == {"value": "3", "formula": "r^(2g-1)"}

    code, out, _ = run(capsys, "degree", "--genus", "0", "--r", "3")
    assert json.loads(out)["result"]["value"] == "1/3"

    code, out, _ = run(
        capsys, "degree",
        "--field-degree", "6", "--delta-source", "3", "--delta-target", "1",
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result == {"value": "2", "formula": "field_degree * delta_target / delta_source"}

    code, _, err = run(capsys, "degree", "--genus", "1")
    assert code == 2 and "degree needs either" in err
    code, _, err = run(capsys, "degree", "--genus", "1", "--r", "2", "--field-degree", "6")
    assert code == 2


def test_verify_seeded_pass(capsys, tmp_path):
    path = gw_config(tmp_path)
    code, out, err = run(capsys, "verify", "--input", path, "--seed", "7")
    assert code == 0 and err == ""
    document = json.loads(out)
    assert document["result"]["status"] == "pass"
    assert document["result"]["keys_compared"] > 0
    assert document["inputs"]["seed"] == 7


def test_verify_exit_one_on_failure(capsys, tmp_path, monkeypatch):
    failing = gw.DecompositionReport(
        False, 3, ((0,), ()),
        CyclotomicNumber.from_rational(Fraction(1), 2), CyclotomicNumber.zero(2),
    )
    monkeypatch.setattr(gw, "verify_decomposition", lambda *a, **kw: failing)
    path = gw_config(tmp_path)
    code, out, _ = run(capsys, "verify", "--input", path, "--seed", "7")
    assert code == 1
    result = json.loads(out)["result"]
    assert result["status"] == "fail"
    assert result["first_differing_key"] == {"beta": [0], "monomial": []}


def assert_verify_fails(capsys, tmp_path):
    """Both the in-process check and the verify command catch a broken gerbe
    layer at r = 3 on the one class beta = (1,), where k(beta) = 1."""
    spec = gw.GerbeSpec(3, (1,))
    truncation = gw.Truncation(1, 0, [(1,)])
    table = gw.BaseTheoryTable.seeded(1, 0, truncation, 7)
    report = gw.verify_decomposition(spec, table, 0, truncation)
    assert not report.passed
    assert report.first_differing_key == ((1,), ((0, 1, 0),))
    assert report.lhs_value != report.rhs_value
    path = gw_config(tmp_path, r=3, truncation={"n_max": 1, "j_max": 0, "betas": [[1]]})
    code, out, _ = run(capsys, "verify", "--input", path, "--seed", "7")
    assert code == 1
    result = json.loads(out)["result"]
    assert result["status"] == "fail"
    assert result["first_differing_key"] == {"beta": [1], "monomial": [[0, 1, 0]]}


def test_verify_fails_on_a_conjugated_novikov_twist(capsys, tmp_path, monkeypatch):
    # zeta^(+rho*k) instead of zeta^(-rho*k): only the right side of verify twists
    monkeypatch.setattr(
        gw, "character_twist", lambda spec, rho, k: root_of_unity(rho * k, spec.band_order)
    )
    assert_verify_fails(capsys, tmp_path)


def test_verify_fails_on_a_shifted_sector_rule(capsys, tmp_path, monkeypatch):
    # admissible for k(beta) + 1 instead of k(beta): only the left side tests sectors
    admissible = gw.is_admissible
    monkeypatch.setattr(gw, "is_admissible", lambda types, r, k: admissible(types, r, k + 1))
    assert_verify_fails(capsys, tmp_path)


def test_verify_with_explicit_table(capsys, tmp_path):
    path = gw_config(tmp_path, extra={
        "base_invariants": [
            {"genus": 0, "beta": [0], "insertions": [], "value": "1/2"},
            {"genus": 0, "beta": [1], "insertions": [{"class": 0, "psi": 0}],
             "value": "-3"},
        ],
    })
    code, out, _ = run(capsys, "verify", "--input", path)
    assert code == 0
    assert json.loads(out)["result"]["status"] == "pass"


def test_decompose_document(capsys, tmp_path):
    path = gw_config(tmp_path)
    code, out, _ = run(capsys, "decompose", "--input", path, "--seed", "3")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["scalar"] == "1/4"
    assert [s["character"] for s in result["sectors"]] == [0, 1]
    assert result["gerbe_potential"] and result["base_potential"]
    record = result["base_potential"][0]
    assert set(record) == {"beta", "monomial", "coefficient"}


def test_parallel_flag_never_changes_output(capsys, tmp_path):
    path = gw_config(tmp_path)
    outputs = []
    for workers in ("1", "4"):
        for command in ("verify", "decompose"):
            code, out, _ = run(
                capsys, command, "--input", path, "--seed", "11",
                "--parallel", workers,
            )
            assert code == 0
            outputs.append((command, out))
    by_command = {}
    for command, out in outputs:
        by_command.setdefault(command, set()).add(out)
    assert all(len(variants) == 1 for variants in by_command.values())


@pytest.mark.parametrize("command", ["verify", "decompose"])
def test_parallel_below_one_is_an_input_error(capsys, tmp_path, command):
    path = gw_config(tmp_path)
    code, out, err = run(capsys, command, "--input", path, "--seed", "11", "--parallel", "0")
    assert code == 2 and out == ""
    assert "--parallel" in err


@pytest.mark.parametrize("betas", [[3], [["a"]], [[True, 0]]], ids=["int", "str", "bool"])
def test_malformed_curve_classes_are_input_errors(capsys, tmp_path, betas):
    path = gw_config(tmp_path, truncation={"n_max": 1, "j_max": 0, "betas": betas})
    code, out, err = run(capsys, "verify", "--input", path, "--seed", "1")
    assert code == 2 and out == ""
    assert "curve classes" in err


def test_non_object_insertion_is_an_input_error(capsys, tmp_path):
    path = gw_config(tmp_path, extra={"base_invariants": [
        {"genus": 0, "beta": [0], "insertions": [3], "value": "1"},
    ]})
    code, out, err = run(capsys, "verify", "--input", path)
    assert code == 2 and out == ""
    assert "an insertion must be an object" in err


def test_boolean_genus_is_an_input_error(capsys, tmp_path):
    path = write_json(tmp_path, "bool.json", {"r": 2, "graph": {
        "vertices": [{"genus": True}], "edges": [], "tails": []}})
    code, out, err = run(capsys, "picard-torsion", "--input", path)
    assert code == 2 and out == ""
    assert "genus" in err


def test_output_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "enumerate-admissible", "--n", "1", "--r", "3", "--k", "2",
        "--output", str(target),
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["result"]["vectors"] == [["2/3"]]

    code, _, err = run(
        capsys, "enumerate-admissible", "--n", "1", "--r", "3", "--k", "2",
        "--output", str(tmp_path / "missing" / "report.json"),
    )
    assert code == 2 and "error:" in err


def test_invalid_json_reports_position(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"r": 2, oops', encoding="utf-8")
    code, out, err = run(capsys, "fiber-count", "--input", str(path))
    assert code == 2 and out == ""
    assert "invalid JSON at line 1 column" in err

    path.write_text("[1, 2]", encoding="utf-8")
    code, _, err = run(capsys, "fiber-count", "--input", str(path))
    assert code == 2 and "must be a JSON object" in err

    code, _, err = run(capsys, "fiber-count", "--input", str(tmp_path / "nope.json"))
    assert code == 2 and "error:" in err


def test_deeply_nested_json_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    code, out, err = run(capsys, "fiber-count", "--input", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "nested too deeply" in err


@pytest.mark.parametrize("command", ["degree", "fiber-count", "picard-torsion"])
def test_results_past_the_int_string_limit(capsys, tmp_path, command):
    # 30^n is 3^n followed by n zeros; 3^3000 has 1,432 digits, so the
    # expected strings are built within the default limit
    if command == "degree":
        argv = ["--genus", "1500", "--r", "30"]
        expected = str(3**2999) + "0" * 2999
    else:
        path = graph_config(
            tmp_path, r=30, vertices=[1500], edges=[],
            degree_data={"vertex_residues": [0], "tail_types": []},
        )
        argv = ["--input", path]
        expected = str(3**3000) + "0" * 3000
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        assert 0 < limit < len(expected)
    code, out, err = run(capsys, command, *argv)
    assert code == 0 and err == ""
    assert json.loads(out)["result"]["value"] == expected
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_unsupported_format_version(capsys, tmp_path):
    path = graph_config(tmp_path, r=2, vertices=[0], edges=[])
    payload = json.loads(open(path).read())
    payload["format"] = 2
    path = write_json(tmp_path, "v2.json", payload)
    code, _, err = run(capsys, "picard-torsion", "--input", path)
    assert code == 2 and "unsupported configuration format" in err


def test_missing_fields_are_named(capsys, tmp_path):
    path = write_json(tmp_path, "bare.json", {"graph": {
        "vertices": [{"genus": 0}], "edges": [], "tails": []}})
    code, _, err = run(capsys, "picard-torsion", "--input", path)
    assert code == 2 and "missing the field 'r'" in err

    path = graph_config(tmp_path, r=2, vertices=[0], edges=[])
    code, _, err = run(capsys, "fiber-count", "--input", path)
    assert code == 2 and "missing the field 'degree_data'" in err


def test_seed_and_table_are_mutually_exclusive(capsys, tmp_path):
    path = gw_config(tmp_path, extra={"base_invariants": []})
    code, _, err = run(capsys, "verify", "--input", path, "--seed", "1")
    assert code == 2 and "mutually exclusive" in err

    path = gw_config(tmp_path)
    code, _, err = run(capsys, "verify", "--input", path)
    assert code == 2 and "base_invariants" in err


def test_beta_rank_mismatch(capsys, tmp_path):
    path = gw_config(tmp_path, extra={"beta_rank": 2})
    code, _, err = run(capsys, "verify", "--input", path, "--seed", "1")
    assert code == 2 and "beta_rank" in err


def test_tail_types_must_be_strings(capsys, tmp_path):
    path = graph_config(
        tmp_path, r=4, vertices=[0], edges=[], tails=[0],
        degree_data={"vertex_residues": [1], "tail_types": [0.25]},
    )
    code, _, err = run(capsys, "fiber-count", "--input", path)
    assert code == 2 and "tail types must be strings" in err


def test_count_lifts_with_a_huge_prime_edge_order_is_bounded(capsys, tmp_path):
    # 10^18 + 3 is prime: its totient would take 10^9 trial divisions
    prime = 10**18 + 3
    path = graph_config(
        tmp_path, r=prime, vertices=[0], edges=[(0, 0)],
        gerby={"tail_orders": [], "edge_orders": [prime]},
    )
    code, out, err = run(capsys, "count-lifts", "--input", path)
    assert code == 2 and out == ""
    assert "trial divisions" in err and "work bound of 1,000,000 steps" in err


@pytest.mark.parametrize("mode", ["loop-only", "all-edges"])
def test_count_lifts_at_a_huge_prime_r_factors_it_once(capsys, tmp_path, mode):
    # r = 999,999,999,989 is prime: its sqrt(r) trial divisions are within
    # the bound once, though not once per edge; every edge is non-separating
    prime = 999_999_999_989
    path = graph_config(
        tmp_path, r=prime, vertices=[0, 0], edges=[(0, 1)] * 3,
        gerby={"tail_orders": [], "edge_orders": [prime, prime, 1]},
    )
    code, out, err = run(capsys, "count-lifts", "--input", path, "--mode", mode)
    assert code == 0 and err == ""
    value = "999999999954000000000792999999993928000000017424"
    assert value == str(prime**2 * (prime - 1) ** 2)
    assert json.loads(out)["result"]["value"] == value


def test_theory_keys_are_charged_for_their_curve_classes():
    # r = 1000, one base variable, n_max 1: 1,001 keys per class, each
    # charged phi(1000) = 400 coefficients plus rank class entries, and
    # 1000 * 2 sectors of the same; verify builds no sectors
    def bound(rank, sectors):
        truncation = gw.Truncation(1, 0, ((0,) * rank,))
        cli._bound_theory_work(1000, rank, 1, 0, truncation, sectors)

    bound(599, False)  # 1,001 * 999 = 999,999
    with pytest.raises(cli.InputError, match="rank class entries of the"):
        bound(600, False)  # 1,001,000
    bound(100, True)  # 2,000 * 500 = 1,000,000
    with pytest.raises(cli.InputError, match="coefficients of the sectors"):
        bound(101, True)


@pytest.mark.parametrize(
    "command, overrides, what",
    [
        pytest.param(command, overrides, what, id=f"{command}-{name}")
        for command in ("verify", "decompose")
        for name, overrides, what in [
            ("r-1e30", {"r": 10**30, "pairing": [0]}, "trial divisions"),
            # 10^5 rows of phi(10^5) = 40,000 coefficients for the powers of zeta_r
            ("r-1e5", {"r": 10**5, "pairing": [0]}, "powers of zeta_r"),
            ("basis-1e30", {"basis_size": 10**30}, "base variables"),
            ("basis-1e30-n0",
             {"basis_size": 10**30, "truncation": {"n_max": 0, "j_max": 0, "betas": [[0]]}},
             "base variables"),
            ("n-1e30", {"truncation": {"n_max": 10**30, "j_max": 0, "betas": [[0]]}}, "keys"),
            # 2 * (C(1000 + 2, 2) - 1) + 1 = 1,002,001 keys
            ("keys",
             {"basis_size": 1000, "truncation": {"n_max": 2, "j_max": 0, "betas": [[0]]}},
             "keys"),
            # 1,001 keys at r = 1000, each charged phi(1000) = 400 coefficients
            # and the 10,000 entries of its curve class: about 10.4 M steps
            ("rank-1e4",
             {"r": 1000, "pairing": [1] * 10_000,
              "truncation": {"n_max": 1, "j_max": 0, "betas": [[1] * 10_000]}},
             "rank class entries"),
        ]
    ]
    + [
        # 997 sectors * C(1 + 1, 1) base keys * (phi(997) + rank 1) =
        # 1,988,018 strings; verify writes no sector records and takes this
        # input
        pytest.param(
            "decompose",
            {"r": 997, "truncation": {"n_max": 1, "j_max": 0, "betas": [[0]]}},
            "coefficients of the sectors",
            id="decompose-sectors",
        ),
    ],
)
def test_theory_work_past_the_bound_is_an_input_error(capsys, tmp_path, command, overrides, what):
    path = gw_config(tmp_path, **overrides)
    code, out, err = run(capsys, command, "--input", path, "--seed", "1")
    assert code == 2 and out == ""
    assert what in err and "work bound of 1,000,000 steps" in err


@pytest.mark.parametrize(
    "command",
    ["degree", "fiber-count", "picard-torsion", "count-lifts", "verify", "decompose"],
)
def test_results_past_the_digit_bound_are_input_errors(capsys, tmp_path, command):
    # 30^(2 * 10^6) would have about 2.95 million digits
    genus = 10**6
    if command == "degree":
        argv = ["--genus", str(genus), "--r", "30"]
    elif command in ("verify", "decompose"):
        argv = ["--input", gw_config(tmp_path, r=30, pairing=[0], genus=genus), "--seed", "1"]
    else:
        argv = ["--input", graph_config(
            tmp_path, r=30, vertices=[genus], edges=[],
            gerby={"tail_orders": [], "edge_orders": []},
            degree_data={"vertex_residues": [0], "tail_types": []},
        )]
    code, out, err = run(capsys, command, *argv)
    assert code == 2 and out == ""
    assert "result bound of 100,000 digits" in err


def test_results_at_the_digit_bound_still_print(capsys):
    # 10^99999 has exactly 100,000 digits
    code, out, _ = run(capsys, "degree", "--genus", "50000", "--r", "10")
    assert code == 0 and json.loads(out)["result"]["value"] == "1" + "0" * 99_999
    code, out, err = run(capsys, "degree", "--genus", "50001", "--r", "10")
    assert code == 2 and out == "" and "result bound" in err


def test_boolean_format_is_an_input_error(capsys, tmp_path):
    path = write_json(tmp_path, "format.json", {"format": True, "r": 2, "graph": {
        "vertices": [{"genus": 0}], "edges": [], "tails": []}})
    code, out, err = run(capsys, "picard-torsion", "--input", path)
    assert code == 2 and out == ""
    assert "'format'" in err


@pytest.mark.parametrize("value", ["1e3", "1e100000000", "0.5", "1_000"])
def test_base_values_outside_the_rational_grammar_are_input_errors(capsys, tmp_path, value):
    path = gw_config(tmp_path, extra={"base_invariants": [
        {"genus": 0, "beta": [0], "insertions": [], "value": value},
    ]})
    code, out, err = run(capsys, "verify", "--input", path)
    assert code == 2 and out == ""
    assert "not a rational literal" in err


@pytest.mark.parametrize("command", ["fiber-count", "compatible-graphs"])
def test_exponent_tail_type_is_an_input_error(capsys, tmp_path, command):
    path = graph_config(
        tmp_path, r=2, vertices=[0], edges=[], tails=[0],
        degree_data={"vertex_residues": [0], "tail_types": ["1e-100000000"]},
    )
    code, out, err = run(capsys, command, "--input", path)
    assert code == 2 and out == ""
    assert "not a rational literal" in err


# Small valid documents for the boundary fuzz below, and the commands that
# read each; every command exits 0 on the document as it stands.
_GRAPH_DOCUMENT = {
    "format": 1,
    "r": 4,
    "graph": {
        "vertices": [{"genus": 0}, {"genus": 1}],
        "edges": [[0, 1], [1, 1]],
        "tails": [0, 1],
    },
    "gerby": {"tail_orders": [4, 4], "edge_orders": [1, 4]},
    "degree_data": {"vertex_residues": [1, 1], "tail_types": ["1/4", "1/4"]},
}
_THEORY_DOCUMENT = {
    "format": 1,
    "r": 2,
    "pairing": [1],
    "beta_rank": 1,
    "basis_size": 1,
    "genus": 0,
    "truncation": {"n_max": 1, "j_max": 0, "betas": [[0], [1]]},
    "base_invariants": [
        {"genus": 0, "beta": [1], "insertions": [{"class": 0, "psi": 0}], "value": "-3/2"},
    ],
}
_COMMANDS = {
    "graph": (
        ["compatible-graphs"], ["count-lifts"], ["count-lifts", "--mode", "all-edges"],
        ["picard-torsion"], ["picard-torsion", "--quotient"], ["fiber-count"],
    ),
    "theory": (["verify"], ["decompose"]),
}
_DELETE = object()
_REPLACEMENTS = (True, 1.5, "x", "1e-100000000", None, [], {}, _DELETE)


def _paths(node, prefix=()):
    """The path of every field and list item below node."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


def _mutated(document, path, replacement):
    copy = json.loads(json.dumps(document))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    if replacement is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return copy


_MUTATIONS = [
    (kind, path, replacement)
    for kind, document in (("graph", _GRAPH_DOCUMENT), ("theory", _THEORY_DOCUMENT))
    for path in _paths(document)
    for replacement in _REPLACEMENTS
]


@pytest.mark.parametrize("kind", ["graph", "theory"])
def test_fuzz_documents_are_valid(capsys, tmp_path, kind):
    document = _GRAPH_DOCUMENT if kind == "graph" else _THEORY_DOCUMENT
    path = write_json(tmp_path, "valid.json", document)
    for argv in _COMMANDS[kind]:
        code, out, err = run(capsys, *argv, "--input", path)
        assert code == 0 and out and err == "", argv


@settings(max_examples=len(_MUTATIONS))
@given(st.sampled_from(_MUTATIONS))
def test_one_mutated_field_exits_zero_or_two(tmp_path_factory, mutation):
    kind, path, replacement = mutation
    document = _GRAPH_DOCUMENT if kind == "graph" else _THEORY_DOCUMENT
    target = tmp_path_factory.mktemp("fuzz") / "config.json"
    target.write_text(json.dumps(_mutated(document, path, replacement)), encoding="utf-8")
    for argv in _COMMANDS[kind]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*argv, "--input", str(target)])
        allowed = (0, 1, 2) if argv[0] == "verify" else (0, 2)
        assert code in allowed, (argv, path, replacement, err.getvalue())
        if code == 2:
            assert out.getvalue() == "", (argv, path, replacement)
