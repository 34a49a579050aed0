"""Seeded input documents for the four workloads.

Every generator takes a ``random.Random`` and returns plain JSON-ready
dictionaries, so the program under test only ever sees the files written
from them.  The seed varies values, residues and shapes, never the sizes
that set the cost of a call (band order, basis, truncation, vertex and
edge counts), so that runs with different seeds measure the same work.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from random import Random

# gw workloads: basis 2, descendants up to psi^2, at most three insertions.
BASIS_SIZE = 2
N_MAX = 3
J_MAX = 2
BETA_RANK = 2


def _nonzero_rational(rng: Random) -> str:
    value = Fraction(rng.choice([-1, 1]) * rng.randint(1, 99), rng.randint(1, 12))
    return str(value)


def _curve_classes(rng: Random, count: int) -> list[list[int]]:
    pool = [list(b) for b in itertools.product(range(4), repeat=BETA_RANK)]
    return sorted(rng.sample(pool, count))


def _base_keys(betas) -> list[tuple[tuple[int, ...], tuple[tuple[int, int], ...]]]:
    """Every (beta, sorted insertion multiset) inside the truncation."""
    variables = [(i, j) for i in range(BASIS_SIZE) for j in range(J_MAX + 1)]
    return [
        (tuple(beta), combo)
        for beta in betas
        for n in range(N_MAX + 1)
        for combo in itertools.combinations_with_replacement(variables, n)
    ]


def gw_theory(rng: Random, r: int, n_classes: int, keep_fraction: Fraction) -> dict:
    """A theory configuration with an explicit base table.

    Of the base keys of each curve class and insertion count, the share
    ``keep_fraction`` (rounded up) carry a nonzero value; the rest are left
    out of the table and read as zero.  Rounding per group keeps the amount
    of work the same for every seed.
    """
    betas = _curve_classes(rng, n_classes)
    keys = _base_keys(betas)
    chosen = []
    for _, group in itertools.groupby(range(len(keys)), key=lambda k: (keys[k][0], len(keys[k][1]))):
        group = list(group)
        kept = -(-len(group) * keep_fraction.numerator // keep_fraction.denominator)
        chosen += sorted(rng.sample(group, kept))
    genus = rng.randint(0, 1)
    records = [
        {
            "genus": genus,
            "beta": list(keys[k][0]),
            "insertions": [{"class": i, "psi": j} for i, j in keys[k][1]],
            "value": _nonzero_rational(rng),
        }
        for k in chosen
    ]
    return {
        "format": 1,
        "r": r,
        "pairing": [rng.randrange(r) for _ in range(BETA_RANK)],
        "basis_size": BASIS_SIZE,
        "genus": genus,
        "truncation": {"n_max": N_MAX, "j_max": J_MAX, "betas": betas},
        "base_invariants": records,
    }


def _contact_type(residue: int, r: int) -> str:
    age = Fraction(residue % r, r)
    return f"{age.numerator}/{age.denominator}"


def _balanced_degree_data(rng: Random, n_vertices: int, tails: list[int], r: int) -> dict:
    """Vertex residues and tail types whose ages sum to (sum of k_v)/r mod 1."""
    residues = [rng.randrange(r) for _ in range(n_vertices)]
    if not tails:
        residues[-1] = (residues[-1] - sum(residues)) % r
        return {"vertex_residues": residues, "tail_types": []}
    tail_residues = [rng.randrange(r) for _ in tails[:-1]]
    tail_residues.append((sum(residues) - sum(tail_residues)) % r)
    return {
        "vertex_residues": residues,
        "tail_types": [_contact_type(a, r) for a in tail_residues],
    }


def graph_config(rng: Random, r: int, genera: list[int], edges: list, tails: list[int]) -> dict:
    """A graph configuration with seeded gerby orders and balanced degree data."""
    degree_data = _balanced_degree_data(rng, len(genera), tails, r)
    tail_orders = [Fraction(t).denominator for t in degree_data["tail_types"]]
    divisors = [d for d in range(1, r + 1) if r % d == 0]
    return {
        "format": 1,
        "r": r,
        "graph": {
            "vertices": [{"genus": g} for g in genera],
            "edges": [list(e) for e in edges],
            "tails": tails,
        },
        "gerby": {
            "tail_orders": tail_orders,
            "edge_orders": [rng.choice(divisors) for _ in edges],
        },
        "degree_data": degree_data,
    }


def banana(rng: Random, r: int, n_edges: int) -> dict:
    """Two vertices joined by n_edges parallel edges."""
    genera = [rng.randint(0, 2) for _ in range(2)]
    tails = [v for v in range(2) for _ in range(rng.randint(0, 1))]
    return graph_config(rng, r, genera, [(0, 1)] * n_edges, tails)


def necklace(rng: Random, r: int, multiplicities: list[int]) -> dict:
    """A cycle of len(multiplicities) vertices; consecutive vertices are
    joined by the given numbers of parallel edges, in a seeded rotation."""
    n = len(multiplicities)
    shift = rng.randrange(n)
    edges = []
    for i in range(n):
        edges += [(i, (i + 1) % n)] * multiplicities[(i + shift) % n]
    genera = [rng.randint(0, 2) for _ in range(n)]
    tails = [v for v in range(n) for _ in range(rng.randint(0, 1))]
    return graph_config(rng, r, genera, edges, tails)


def tree_with_cycles(
    rng: Random, r: int, n_vertices: int, n_loops: int, cycle_lengths: list[int]
) -> dict:
    """A random recursive tree with one tail per vertex, n_loops self-loops,
    and one extra edge per entry of cycle_lengths closing a cycle of that
    many edges along the tree.  The cycles share no edge, so exactly
    n_loops + sum(cycle_lengths) edges are non-separating."""
    parent = [-1] + [rng.randrange(v) for v in range(1, n_vertices)]
    edges = [(parent[v], v) for v in range(1, n_vertices)]
    on_cycle: set[int] = set()  # tree edges by their child vertex
    for length in cycle_lengths:
        while True:
            path = [rng.randrange(1, n_vertices)]
            while len(path) < length and parent[path[-1]] >= 0:
                path.append(parent[path[-1]])
            if len(path) == length and on_cycle.isdisjoint(path[:-1]):
                break
        # the tree edges above path[0..-2] and the new edge form the cycle
        on_cycle.update(path[:-1])
        edges.append((path[-1], path[0]))
    for _ in range(n_loops):
        w = rng.randrange(n_vertices)
        edges.append((w, w))
    rng.shuffle(edges)
    genera = [rng.choice([0, 0, 0, 1]) for _ in range(n_vertices)]
    return graph_config(rng, r, genera, edges, list(range(n_vertices)))
