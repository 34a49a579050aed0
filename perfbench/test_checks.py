"""Each output check accepts the program's real document and rejects a
corrupted copy of it.

Run from the repository root:

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import copy
import io
import itertools
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from gerbecalc import cli  # noqa: E402


def document(tmp_path, config: dict, *argv: str) -> dict:
    path = tmp_path / "input.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert cli.main([*argv, "--input", str(path)]) == 0
    return json.loads(out.getvalue())


def rejects(check, config: dict, doc: dict, **kwargs) -> None:
    with pytest.raises(checks.CheckError):
        check(config, doc, **kwargs)


# ---------------------------------------------------------------- gw


@pytest.fixture(scope="module")
def verify_case(tmp_path_factory):
    config = inputs.gw_theory(Random(5), 3, 2, Fraction(1))
    return config, document(tmp_path_factory.mktemp("verify"), config, "verify")


@pytest.fixture(scope="module")
def decompose_case(tmp_path_factory):
    config = inputs.gw_theory(Random(6), 3, 2, Fraction(1, 2))
    return config, document(tmp_path_factory.mktemp("decompose"), config, "decompose")


def test_verify_check(verify_case):
    config, doc = verify_case
    checks.check_verify(config, doc)
    accepted = checks.expected_keys_compared(config)

    wrong_count = copy.deepcopy(doc)
    wrong_count["result"]["keys_compared"] = max(accepted) + 1
    rejects(checks.check_verify, config, wrong_count)

    failing = copy.deepcopy(doc)
    failing["result"]["status"] = "fail"
    rejects(checks.check_verify, config, failing)

    other_input = copy.deepcopy(doc)
    other_input["inputs"]["config"]["r"] = 5
    rejects(checks.check_verify, config, other_input)


def test_keys_compared_accepts_both_counts():
    config = inputs.gw_theory(Random(1), 6, 3, Fraction(1))
    config["pairing"] = [1, 0]
    config["truncation"]["betas"] = [[0, 0], [1, 2], [3, 1]]
    # k(beta) = 0, 1, 3: six copies of the 6 + 21 + 56 nonempty base
    # monomials per class, one empty key, and two twisted empty keys
    assert checks.expected_keys_compared(config) == {1495, 1497}


def _first_gerbe_record(doc: dict) -> dict:
    return next(r for r in doc["result"]["gerbe_potential"] if len(r["monomial"]) >= 2)


def test_decompose_check_accepts(decompose_case):
    config, doc = decompose_case
    checks.check_decompose(config, doc, sample_seed=1)
    checks.check_decompose(config, doc, sample_seed=2, sample_size=10**6)


def test_decompose_rejects_a_wrong_gerbe_coefficient(decompose_case):
    config, doc = decompose_case
    bad = copy.deepcopy(doc)
    record = _first_gerbe_record(bad)
    first = Fraction(record["coefficient"]["coeffs"][0])
    record["coefficient"]["coeffs"][0] = str(first + 1)
    rejects(checks.check_decompose, config, bad, sample_seed=1, sample_size=10**6)

    everywhere = copy.deepcopy(doc)
    for record in everywhere["result"]["gerbe_potential"]:
        record["coefficient"]["coeffs"][-1] = str(Fraction(record["coefficient"]["coeffs"][-1]) + 1)
    rejects(checks.check_decompose, config, everywhere, sample_seed=1)


def test_decompose_rejects_a_mixed_character_key(decompose_case):
    config, doc = decompose_case
    bad = copy.deepcopy(doc)
    record = copy.deepcopy(_first_gerbe_record(bad))
    record["monomial"][0][1] = (record["monomial"][0][1] + 1) % config["r"]
    bad["result"]["gerbe_potential"].append(record)
    with pytest.raises(checks.CheckError, match="mixed-character"):
        checks.check_decompose(config, bad, sample_seed=1)


def test_decompose_rejects_a_missing_gerbe_key(decompose_case):
    config, doc = decompose_case
    bad = copy.deepcopy(doc)
    bad["result"]["gerbe_potential"].pop()
    rejects(checks.check_decompose, config, bad, sample_seed=1)


def test_decompose_rejects_wrong_base_sector_and_scalar(decompose_case):
    config, doc = decompose_case
    base = copy.deepcopy(doc)
    coeffs = base["result"]["base_potential"][-1]["coefficient"]["coeffs"]
    coeffs[0] = str(2 * Fraction(coeffs[0]))
    rejects(checks.check_decompose, config, base, sample_seed=1)

    sector = copy.deepcopy(doc)
    coeffs = sector["result"]["sectors"][1]["records"][-1]["coefficient"]["coeffs"]
    coeffs[0] = str(Fraction(coeffs[0]) + 1)
    rejects(checks.check_decompose, config, sector, sample_seed=1)

    scalar = copy.deepcopy(doc)
    scalar["result"]["scalar"] = str(2 * Fraction(doc["result"]["scalar"]))
    rejects(checks.check_decompose, config, scalar, sample_seed=1)


# ------------------------------------------------------------ graphs


GRAPHS = {
    "banana": lambda rng: inputs.banana(rng, 6, 3),
    "necklace": lambda rng: inputs.necklace(rng, 6, [2, 1, 1]),
    "tree": lambda rng: inputs.tree_with_cycles(rng, 3, 12, 2, [2, 3]),
}


@pytest.mark.parametrize("shape", sorted(GRAPHS))
def test_graph_checks(tmp_path, shape):
    config = GRAPHS[shape](Random(3))
    cases = [
        (("picard-torsion",), checks.check_picard_torsion, {}),
        (("count-lifts", "--mode", "loop-only"), checks.check_count_lifts, {"mode": "loop-only"}),
        (("count-lifts", "--mode", "all-edges"), checks.check_count_lifts, {"mode": "all-edges"}),
        (("fiber-count",), checks.check_fiber_count, {}),
    ]
    for argv, check, kwargs in cases:
        doc = document(tmp_path, config, *argv)
        check(config, doc, **kwargs)
        bad = copy.deepcopy(doc)
        bad["result"]["value"] = str(int(doc["result"]["value"]) * config["r"])
        rejects(check, config, bad, **kwargs)


def test_lift_modes_are_told_apart():
    # a bridge of order 3 contributes phi(3) = 2 only in all-edges mode
    config = inputs.graph_config(Random(1), 6, [0, 0], [(0, 1), (1, 1)], [])
    config["gerby"]["edge_orders"] = [3, 6]
    loop_only = checks.expected_lifts(config, "loop-only")
    assert checks.expected_lifts(config, "all-edges") == 2 * loop_only
    doc = {
        "format": 1,
        "command": "count-lifts",
        "inputs": {"config": config},
        "result": {"value": str(2 * loop_only)},
    }
    checks.check_count_lifts(config, doc, mode="all-edges")
    rejects(checks.check_count_lifts, config, doc, mode="loop-only")


def _disconnects(n_vertices, edges, removed) -> bool:
    adjacency = {v: set() for v in range(n_vertices)}
    for idx, (u, v) in enumerate(edges):
        if idx != removed:
            adjacency[u].add(v)
            adjacency[v].add(u)
    seen, stack = {0}, [0]
    while stack:
        for w in adjacency[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    return len(seen) < n_vertices


def test_bridges_match_edge_deletion():
    rng = Random(11)
    for _ in range(300):
        n = rng.randint(1, 7)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 4))]
        rng.shuffle(edges)
        expected = {e for e in range(len(edges)) if _disconnects(n, edges, e)}
        assert checks.bridges(n, edges) == expected


# ------------------------------------------------------- cyclotomic


def test_cyclotomic_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for n in range(1, 61):
        expected = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        assert list(checks.cyclotomic(n)) == [int(c) for c in expected]


def test_reduction_of_known_sums():
    for n in range(2, 31):
        assert not any(checks.reduce_mod_cyclotomic({e: 1 for e in range(n)}, n))
        # zeta^n = 1 and zeta^(n/2) = -1 for even n
        assert checks.reduce_mod_cyclotomic({n: 3}, n)[0] == 3
        if n % 2 == 0:
            assert checks.reduce_mod_cyclotomic({n // 2: 1}, n)[0] == -1


def test_double_sum_of_equal_characters_is_the_closed_form():
    config = {"r": 6, "pairing": [1, 2], "genus": 1}
    for beta, rho in itertools.product([(0, 0), (1, 1), (2, 3)], range(6)):
        exact = checks.character_double_sum(config, beta, [rho, rho, rho], Fraction(5, 7))
        k = checks._k(config, beta)
        closed = {(-rho * k) % 6: Fraction(5, 7)}  # r^(2g-2) = 1 at genus 1
        assert checks.reduce_mod_cyclotomic(exact, 6) == checks.reduce_mod_cyclotomic(closed, 6)


# ----------------------------------------------------------- runner


def test_ledger_counts_failures_and_nondeterminism(verify_case):
    config, doc = verify_case
    op = run.Op("verify", ("verify",), config, checks.check_verify)
    good = json.dumps(doc).encode()

    ledger = run.Ledger([op])
    ledger.record(0, good)
    ledger.record(0, None)  # a nonzero exit or a timeout
    ledger.record(0, good)
    assert ledger.settle()[:3] == (3, 1, True)

    ledger = run.Ledger([op])
    ledger.record(0, good)
    ledger.record(0, good.replace(b'"format": 1', b'"format":  1'))
    attempted, failed, correct, problems = ledger.settle()
    assert (attempted, failed, correct) == (2, 1, False)
    assert "differs" in problems[0]

    bad = copy.deepcopy(doc)
    bad["result"]["status"] = "fail"
    ledger = run.Ledger([op])
    ledger.record(0, json.dumps(bad).encode())
    assert ledger.settle()[:3] == (1, 1, False)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gw-verify", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
