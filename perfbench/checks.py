"""Checks of gerbecalc's output documents, computed apart from the program.

Nothing here imports gerbecalc.  Expected values come from the input
document the benchmark wrote and from mathematics done here: an own
bridge search, an own totient, closed-form key counts, and cyclotomic
values reduced modulo a cyclotomic polynomial that this module builds by
the Moebius product rather than by the program's recursive division.
Each check raises CheckError on the first discrepancy it finds.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from random import Random


class CheckError(AssertionError):
    """An output document disagrees with the independent computation."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def check_envelope(document: dict, command: str, config: dict) -> dict:
    """The common document shape; returns its result section."""
    _require(isinstance(document, dict), "document is not a JSON object")
    _require(document.get("format") == 1, f"format is {document.get('format')!r}, not 1")
    _require(document.get("command") == command, f"command is {document.get('command')!r}")
    inputs = document.get("inputs")
    _require(isinstance(inputs, dict), "inputs section missing")
    _require(inputs.get("config") == config, "inputs.config does not echo the input file")
    result = document.get("result")
    _require(isinstance(result, dict), "result section missing")
    return result


# ---------------------------------------------------------------- integers


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def _mobius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


# ------------------------------------------------------ cyclotomic fields


def _poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, constant term first, as prod (x^d - 1)^mu(n/d)."""
    num, den = [1], [1]
    for d in divisors(n):
        factor = [-1] + [0] * (d - 1) + [1]
        mu = _mobius(n // d)
        if mu == 1:
            num = _poly_mul(num, factor)
        elif mu == -1:
            den = _poly_mul(den, factor)
    quotient = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    for k in range(len(quotient) - 1, -1, -1):
        c = num[k + len(den) - 1] // lead
        quotient[k] = c
        for j, dj in enumerate(den):
            num[k + j] -= c * dj
    _require(not any(num), f"Moebius product for Phi_{n} left a remainder")
    return tuple(quotient)


def reduce_mod_cyclotomic(exponent_coeffs: dict, order: int) -> tuple[Fraction, ...]:
    """Power-basis coordinates in Q(zeta_order) of sum c_e zeta^e."""
    phi = cyclotomic(order)
    degree = len(phi) - 1
    poly = [Fraction(0)] * max(order, degree)
    for e, c in exponent_coeffs.items():
        poly[e % order] += Fraction(c)
    for k in range(len(poly) - 1, degree - 1, -1):
        c = poly[k]
        if c:
            for j in range(degree + 1):
                poly[k - degree + j] -= c * phi[j]
    return tuple(poly[:degree])


def parse_cyclotomic(value: dict) -> tuple[int, list[Fraction]]:
    _require(
        isinstance(value, dict) and set(value) == {"order", "coeffs"},
        f"malformed coefficient {value!r}",
    )
    order, coeffs = value["order"], value["coeffs"]
    _require(isinstance(order, int) and order >= 1, f"bad order {order!r}")
    _require(
        isinstance(coeffs, list) and len(coeffs) == len(cyclotomic(order)) - 1,
        f"order {order} needs phi({order}) coefficients, got {coeffs!r}",
    )
    return order, [Fraction(c) for c in coeffs]


def same_value(program_value: dict, expected: dict, expected_order: int) -> bool:
    """Compare a program coefficient with sum c_e zeta_{expected_order}^e.

    Both sides are re-expressed in Q(zeta_L) for L the lcm of the two
    orders, so the program may state its value in any field containing it.
    """
    order, coeffs = parse_cyclotomic(program_value)
    common = math.lcm(order, expected_order)
    step_p, step_e = common // order, common // expected_order
    lhs = reduce_mod_cyclotomic({i * step_p: c for i, c in enumerate(coeffs) if c}, common)
    rhs = reduce_mod_cyclotomic({e * step_e: c for e, c in expected.items() if c}, common)
    return lhs == rhs


# ------------------------------------------------------------------ graphs


def _graph_shape(config: dict) -> tuple[int, list[tuple[int, int]], int, int]:
    graph = config["graph"]
    n_vertices = len(graph["vertices"])
    edges = [tuple(e) for e in graph["edges"]]
    b1 = len(edges) - n_vertices + 1
    genus = sum(v["genus"] for v in graph["vertices"]) + b1
    return n_vertices, edges, b1, genus


def bridges(n_vertices: int, edges: list[tuple[int, int]]) -> set[int]:
    """Indices of separating edges of a connected multigraph.

    A spanning tree is grown by union-find; every edge outside it closes a
    cycle and marks the tree path between its ends as non-separating.
    The tree edges left unmarked are the bridges.
    """
    root = list(range(n_vertices))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    tree_adj: list[list[tuple[int, int]]] = [[] for _ in range(n_vertices)]
    extra = []
    for idx, (u, v) in enumerate(edges):
        ru, rv = find(u), find(v)
        if ru == rv:
            extra.append(idx)
        else:
            root[ru] = rv
            tree_adj[u].append((v, idx))
            tree_adj[v].append((u, idx))
    parent = [-1] * n_vertices
    parent_edge = [-1] * n_vertices
    depth = [0] * n_vertices
    seen = [False] * n_vertices
    seen[0] = True
    order = [0]
    for v in order:
        for w, idx in tree_adj[v]:
            if not seen[w]:
                seen[w] = True
                parent[w], parent_edge[w], depth[w] = v, idx, depth[v] + 1
                order.append(w)
    _require(all(seen), "graph is not connected")
    covered = set()
    for idx in extra:
        u, v = edges[idx]
        while u != v:
            if depth[u] < depth[v]:
                u, v = v, u
            covered.add(parent_edge[u])
            u = parent[u]
    tree_edges = {parent_edge[v] for v in range(1, n_vertices)}
    return tree_edges - covered


def _result_value(result: dict) -> int:
    text = result.get("value")
    _require(isinstance(text, str) and text.lstrip("-").isdigit(), f"value {text!r} is not an integer")
    return int(text)


def expected_picard_torsion(config: dict) -> int:
    n_vertices, edges, b1, genus = _graph_shape(config)
    r = config["r"]
    value = r ** (2 * genus - b1)
    if "gerby" in config:
        orders = config["gerby"]["edge_orders"]
        separating = bridges(n_vertices, edges)
        for e in range(len(edges)):
            if e not in separating:
                value *= math.gcd(orders[e], r)
    return value


def expected_lifts(config: dict, mode: str) -> int:
    n_vertices, edges, b1, genus = _graph_shape(config)
    r = config["r"]
    orders = config["gerby"]["edge_orders"]
    separating = bridges(n_vertices, edges) if mode == "loop-only" else set()
    value = r ** (2 * genus - b1)
    for e, gamma in enumerate(orders):
        if e not in separating:
            value *= totient(gamma)
    return value


def check_picard_torsion(config: dict, document: dict) -> None:
    result = check_envelope(document, "picard-torsion", config)
    expected = expected_picard_torsion(config)
    _require(_result_value(result) == expected, f"picard-torsion {result.get('value')} != {expected}")


def check_count_lifts(config: dict, document: dict, mode: str) -> None:
    result = check_envelope(document, "count-lifts", config)
    expected = expected_lifts(config, mode)
    _require(
        _result_value(result) == expected,
        f"count-lifts {mode} {result.get('value')} != {expected}",
    )


def check_fiber_count(config: dict, document: dict) -> None:
    result = check_envelope(document, "fiber-count", config)
    _, _, _, genus = _graph_shape(config)
    expected = config["r"] ** (2 * genus)
    _require(_result_value(result) == expected, f"fiber-count {result.get('value')} != r^(2g) = {expected}")


# ---------------------------------------------------------------------- gw


def _k(config: dict, beta) -> int:
    return sum(a * b for a, b in zip(config["pairing"], beta)) % config["r"]


def _multiplicity_weight(monomial) -> Fraction:
    weight = 1
    for _, group in itertools.groupby(sorted(monomial)):
        weight *= math.factorial(len(list(group)))
    return Fraction(1, weight)


def base_table(config: dict) -> dict:
    """(beta, sorted (class, psi) tuple) -> nonzero rational value."""
    table = {}
    for rec in config["base_invariants"]:
        key = (
            tuple(rec["beta"]),
            tuple(sorted((ins["class"], ins["psi"]) for ins in rec["insertions"])),
        )
        value = Fraction(rec["value"])
        if value:
            table[key] = value
    return table


def expected_keys_compared(config: dict) -> set[int]:
    """The two accepted key counts of verify on a table with no zero value.

    N counts the nonzero gerbe coefficients: the empty monomial when
    k(beta) = 0, and r single-character copies of every nonempty base
    monomial.  The right side may also keep, for each beta with
    k(beta) != 0, an empty-monomial key whose character sum is exactly 0.
    """
    r = config["r"]
    tr = config["truncation"]
    variables = config["basis_size"] * (tr["j_max"] + 1)
    per_beta = r * sum(math.comb(variables + n - 1, n) for n in range(1, tr["n_max"] + 1))
    twisted = sum(1 for beta in tr["betas"] if _k(config, beta) != 0)
    n = sum(per_beta + (1 if _k(config, beta) == 0 else 0) for beta in tr["betas"])
    return {n, n + twisted}


def check_verify(config: dict, document: dict) -> None:
    result = check_envelope(document, "verify", config)
    _require(result.get("status") == "pass", f"verify status {result.get('status')!r}")
    _require(result.get("first_differing_key") is None, "a passing verify names a differing key")
    accepted = expected_keys_compared(config)
    _require(
        result.get("keys_compared") in accepted,
        f"keys_compared {result.get('keys_compared')!r} not in {sorted(accepted)}",
    )


def character_double_sum(config: dict, beta, characters, base_value: Fraction) -> dict:
    """The character-basis invariant as the literal double sum over sectors.

    (1/r)^n sum over (g_1..g_n) in (Z/r)^n of prod chi_rho_i(g_i^-1) times
    the sector invariant r^(2g-1) * base_value, which vanishes unless the
    ages g_i/r sum to k(beta)/r mod 1.  Returned as exponent -> coefficient
    of zeta_r.
    """
    r = config["r"]
    k = _k(config, beta)
    counts = [0] * r
    for sectors in itertools.product(range(r), repeat=len(characters)):
        if sum(sectors) % r != k:
            continue
        counts[-sum(rho * g for rho, g in zip(characters, sectors)) % r] += 1
    scale = Fraction(r) ** (2 * config["genus"] - 1) * base_value / r ** len(characters)
    return {e: scale * c for e, c in enumerate(counts) if c}


def _records(records, what: str, width: int) -> dict:
    _require(isinstance(records, list), f"{what} is not a list")
    out = {}
    for rec in records:
        key = (
            tuple(rec["beta"]),
            tuple(tuple(v) for v in rec["monomial"]),
        )
        _require(all(len(v) == width for v in key[1]), f"{what} variable of wrong width in {key}")
        _require(key not in out, f"{what} repeats key {key}")
        out[key] = rec["coefficient"]
    return out


def check_decompose(config: dict, document: dict, sample_seed: int, sample_size: int = 24) -> None:
    result = check_envelope(document, "decompose", config)
    r = config["r"]
    table = base_table(config)

    scalar = Fraction(r) ** (2 * config["genus"] - 2)
    _require(Fraction(result.get("scalar", "nan")) == scalar, f"scalar {result.get('scalar')!r} != {scalar}")

    base = _records(result.get("base_potential"), "base_potential", 2)
    _require(set(base) == set(table), "base_potential keys differ from the nonzero table entries")
    for key, value in base.items():
        expected = table[key] * _multiplicity_weight(key[1])
        _require(same_value(value, {0: expected}, 1), f"base coefficient {key} is not value/multiplicities!")

    sectors = result.get("sectors")
    _require(
        isinstance(sectors, list) and [s.get("character") for s in sectors] == list(range(r)),
        "sectors do not list characters 0..r-1 in order",
    )
    for sector in sectors:
        rho = sector["character"]
        records = _records(sector["records"], f"sector {rho}", 3)
        expected_keys = {(b, tuple((i, rho, j) for i, j in m)) for b, m in table}
        _require(set(records) == expected_keys, f"sector {rho} keys are not the relabelled base keys")
        for (beta, monomial), value in records.items():
            plain = tuple((i, j) for i, _, j in monomial)
            twisted = {(-rho * _k(config, beta)) % r: table[(beta, plain)] * _multiplicity_weight(plain)}
            _require(same_value(value, twisted, r), f"sector {rho} coefficient {beta, monomial} is not twisted by chi_rho")

    gerbe = _records(result.get("gerbe_potential"), "gerbe_potential", 3)
    for beta, monomial in gerbe:
        _require(
            len({rho for _, rho, _ in monomial}) <= 1,
            f"gerbe_potential has the mixed-character key {beta, monomial}",
        )
    expected_keys = set()
    for beta, plain in table:
        if plain:
            expected_keys |= {(beta, tuple((i, rho, j) for i, j in plain)) for rho in range(r)}
        elif _k(config, beta) == 0:
            expected_keys.add((beta, ()))
    _require(set(gerbe) == expected_keys, "gerbe_potential keys are not the nonzero single-character keys")

    rng = Random(sample_seed)
    for beta, monomial in rng.sample(sorted(gerbe), min(sample_size, len(gerbe))):
        plain = tuple((i, j) for i, _, j in monomial)
        exact = character_double_sum(config, beta, [rho for _, rho, _ in monomial], table[(beta, plain)])
        weighted = {e: c * _multiplicity_weight(monomial) for e, c in exact.items()}
        _require(
            same_value(gerbe[(beta, monomial)], weighted, r),
            f"gerbe coefficient {beta, monomial} differs from the character double sum",
        )
    # Absent keys must be zero too: mixed characters sum to nothing.
    wide = sorted(key for key in table if len(key[1]) >= 2)
    for beta, plain in rng.sample(wide, min(sample_size // 4, len(wide))):
        characters = [rng.randrange(r) for _ in plain]
        characters[-1] = (characters[0] + 1 + rng.randrange(r - 1)) % r if r > 1 else 0
        exact = character_double_sum(config, beta, characters, table[(beta, plain)])
        reduced = reduce_mod_cyclotomic(exact, r)
        _require(not any(reduced), f"double sum of mixed characters {characters} at {beta, plain} is not 0")
