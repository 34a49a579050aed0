"""End-to-end tests for the command line interface."""

import contextlib
import io
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph_of
from gerbecalc import admissibility, cli, counting, gw
from gerbecalc.admissibility import ContactType
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
        # 2,000,000^1 cycle assignments and as many element orders
        ("fiber-count", 2 * 10**6, [0, 0], [(0, 1), (0, 1)], "cycle-count steps"),
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
    # a three-vertex path: both edges are solved, so the one assignment
    # costs no r^(free edges) steps and no table of r element orders
    r = 2 * 10**6
    path = graph_config(
        tmp_path, r=r, vertices=[0, 1, 0], edges=[(0, 1), (1, 2)],
        degree_data={"vertex_residues": [0, 0, 0], "tail_types": []},
    )
    code, out, _ = run(capsys, "fiber-count", "--input", path)
    assert code == 0
    assert json.loads(out)["result"] == {"value": str(r**2), "formula": "r^(2g)"}


@pytest.mark.parametrize("command", ["picard-torsion", "count-lifts", "compatible-graphs", "fiber-count"])
def test_graph_searches_past_the_bound_are_input_errors(capsys, tmp_path, monkeypatch, command):
    # a 2,000-vertex path: 1,999 classification searches of 3,999 steps each
    def never(*args):
        raise AssertionError("the edges were classified before the bound was checked")

    for module in (cli, counting, admissibility):
        monkeypatch.setattr(module, "classify_edges", never)
    n = 2000
    path = graph_config(
        tmp_path, r=2, vertices=[0] * n, edges=[(v, v + 1) for v in range(n - 1)],
        gerby={"tail_orders": [], "edge_orders": [1] * (n - 1)},
        degree_data={"vertex_residues": [0] * n, "tail_types": []},
    )
    code, out, err = run(capsys, command, "--input", path)
    assert code == 2 and out == ""
    assert "edge classification" in err and "work bound of 1,000,000 steps" in err


@pytest.mark.parametrize("n, r", [(2, 10**12), (1_000_001, 1)])
def test_admissible_vectors_past_the_bound_are_an_input_error(capsys, n, r):
    code, out, err = run(capsys, "enumerate-admissible", "--n", str(n), "--r", str(r), "--k", "0")
    assert code == 2 and out == ""
    assert "contact types" in err and "work bound of 1,000,000 steps" in err


def test_work_at_the_bound_still_runs(capsys, tmp_path):
    cli._bound_work("steps", 10, 6)
    cli._bound_work("steps", 1, 10**18, 10**6)
    with pytest.raises(cli.InputError, match="work bound"):
        cli._bound_work("steps", 10, 6, 2)
    # graph searches on paths: 499 classification and 499 split searches of
    # 999 steps (997,002), or without splits 706 searches of 1,413 (997,578)
    for n, splits in ((500, True), (707, False)):
        cli._bound_search_work(graph_of([0] * n, [(v, v + 1) for v in range(n - 1)]), splits)
        longer = graph_of([0] * (n + 1), [(v, v + 1) for v in range(n)])
        with pytest.raises(cli.InputError, match="edge classification"):
            cli._bound_search_work(longer, splits)
    # sqrt(10^12) = 10^6 trial divisions of r, exactly at the bound
    path = graph_config(
        tmp_path, r=10**12, vertices=[1], edges=[],
        degree_data={"vertex_residues": [0], "tail_types": []},
    )
    code, out, _ = run(capsys, "fiber-count", "--input", path)
    assert code == 0 and json.loads(out)["result"]["value"] == str(10**24)


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
    monkeypatch.setattr(admissibility, "separating_node_order", lambda *a: ContactType(0, 1))
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
        ]
    ]
    + [
        # 997 sectors * C(1 + 1, 1) base keys * phi(997) = 1,986,024 strings;
        # verify writes no sector records and takes this input
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
