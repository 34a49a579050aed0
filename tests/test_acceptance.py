"""Acceptance suite: the package's headline identities, checked exactly.

One test per criterion; each prints a single PASS line with the number of
instances it verified, and any failure surfaces as an ordinary assertion.
Everything is exact rational or cyclotomic arithmetic, no tolerances.
"""

import itertools
import math
import random
from fractions import Fraction
from functools import reduce

import pytest

import oracles
from conftest import balanced_data, graph_of
from gerbecalc.abelian import (
    FiniteAbelianGroup,
    enumerate_characters,
    enumerate_elements,
    evaluate_character,
    orthogonality_sum,
)
from gerbecalc.admissibility import (
    ContactType,
    DegreeData,
    enumerate_admissible,
    separating_node_order,
)
from gerbecalc.counting import (
    fiber_point_count,
    prestable_picard_torsion,
    pushforward_degree,
    twisted_picard_torsion,
)
from gerbecalc.exactnum import CyclotomicNumber, cyclotomic_polynomial, power_basis_size
from gerbecalc.graphs import GerbyGraph, classify_edges, split_at_edge, total_genus
from gerbecalc.gw import (
    BaseTheoryTable,
    GerbeSpec,
    Truncation,
    gerbe_invariant_rho,
    verify_decomposition,
)


def _tail_decorations(r, k, n_tails):
    """All admissible tail-type tuples: free prefix, forced last entry."""
    if n_tails == 0:
        yield ()
        return
    for prefix in itertools.product(range(r), repeat=n_tails - 1):
        last = (k - sum(prefix)) % r
        yield tuple(ContactType.from_residue(a, r) for a in (*prefix, last))


def _sweep_instances():
    """The criterion-1 sweep: an exhaustive small slice plus a seeded wide one.

    The exhaustive part covers every graph class with <= 2 vertices and
    <= 2 edges at r <= 3 with every residue assignment and every admissible
    tail decoration with n <= 2.  The seeded part covers every class with
    <= 4 vertices and <= 4 edges for each r <= 8 under randomized genera,
    tails, and balanced degree data.
    """
    for nv, edges in oracles.connected_multigraph_classes(2, 2):
        for r in (1, 2, 3):
            for genera in itertools.product((0, 1), repeat=nv):
                for n_tails in range(3):
                    for tails in itertools.product(range(nv), repeat=n_tails):
                        graph = graph_of(genera, edges, tails)
                        for residues in itertools.product(range(r), repeat=nv):
                            k = sum(residues) % r
                            if n_tails == 0 and k != 0:
                                continue
                            for types in _tail_decorations(r, k, n_tails):
                                yield graph, DegreeData(residues, types), r

    rng = random.Random(2024)
    for nv, edges in oracles.connected_multigraph_classes(4, 4):
        for r in range(1, 9):
            genera = [rng.randrange(3) for _ in range(nv)]
            n_tails = rng.randint(0, 3)
            tails = [rng.randrange(nv) for _ in range(n_tails)]
            graph = graph_of(genera, edges, tails)
            yield graph, balanced_data(rng, nv, n_tails, r), r


@pytest.fixture(scope="module")
def fiber_sweep():
    instances = []
    for graph, data, r in _sweep_instances():
        instances.append((graph, data, r, fiber_point_count(graph, data, r)))
    return instances


def test_criterion_01_fiber_counts(fiber_sweep):
    by_shape = {}
    for graph, _data, r, fiber in fiber_sweep:
        g = total_genus(graph)
        assert fiber == r ** (2 * g), (graph, r)
        by_shape.setdefault((r, g), set()).add(fiber)
    # graph independence: one value per (r, total genus) across the sweep
    assert all(len(values) == 1 for values in by_shape.values())
    print(
        f"PASS criterion 1: fiber count equals r^(2g) on {len(fiber_sweep)} "
        f"instances across {len(by_shape)} (r, genus) shapes"
    )


def test_criterion_02_pushforward_scalar(fiber_sweep):
    for graph, _data, r, fiber in fiber_sweep:
        g = total_genus(graph)
        degree = pushforward_degree(g, r)
        assert degree * r == fiber
        assert degree == Fraction(r) ** (2 * g - 1)
    print(
        f"PASS criterion 2: pushforward degree times r matches the fiber "
        f"count on all {len(fiber_sweep)} instances"
    )


def test_criterion_03_admissible_cardinality():
    checked = 0
    for n in range(1, 5):
        for r in range(1, 13):
            buckets = {k: set() for k in range(r)}
            for residues in itertools.product(range(r), repeat=n):
                buckets[sum(residues) % r].add(residues)
            for k in range(r):
                vectors = list(enumerate_admissible(n, r, k))
                assert len(vectors) == r ** (n - 1)
                assert {v.residues() for v in vectors} == buckets[k]
                checked += 1
    print(f"PASS criterion 3: |admissible vectors| = r^(n-1) on {checked} (n, r, k) triples")


def test_criterion_04_separating_node_orders():
    rng = random.Random(404)
    edges_checked = 0
    for _ in range(200):
        nv, edges = oracles.random_tree_with_loops(rng, max_vertices=6, max_loops=3)
        r = rng.randint(1, 12)
        n_tails = rng.randint(0, 3)
        tail_vertices = [rng.randrange(nv) for _ in range(n_tails)]
        graph = graph_of([rng.randrange(3) for _ in range(nv)], edges, tail_vertices)
        data = balanced_data(rng, nv, n_tails, r)
        ages = oracles.leaf_peel_node_ages(
            nv, edges, data.vertex_residues, tail_vertices,
            [t.fraction for t in data.tail_types], r,
        )
        separating, _ = classify_edges(graph)
        assert set(ages) == set(separating)
        for e, (peeled, age) in ages.items():
            side_a, side_b = split_at_edge(graph, e)
            assert peeled in (side_a, side_b)
            t_peeled = separating_node_order(graph, data, e, r, side=peeled)
            assert t_peeled == ContactType.from_fraction(age)
            other = side_b if peeled == side_a else side_a
            t_other = separating_node_order(graph, data, e, r, side=other)
            assert t_other.order == t_peeled.order
            assert (t_other.numerator + t_peeled.numerator) % t_peeled.order == 0
            edges_checked += 1
    assert edges_checked > 200
    print(
        f"PASS criterion 4: cut formula matches the leaf-peeling oracle on "
        f"{edges_checked} separating edges over 200 graphs"
    )


def _cyclic_presentations(bound):
    presentations = [(1,)]

    def extend(prefix, min_factor, product):
        for d in range(min_factor, bound // product + 1):
            presentations.append((*prefix, d))
            extend((*prefix, d), d, product * d)

    extend((), 2, 1)
    return presentations


def test_criterion_05_character_orthogonality():
    row_pairs = column_pairs = 0
    for orders in _cyclic_presentations(24):
        group = FiniteAbelianGroup(orders)
        L = group.exponent
        one = CyclotomicNumber.one(L)
        zero = CyclotomicNumber.zero(L)
        characters = enumerate_characters(group)
        elements = enumerate_elements(group)
        for rho, rho2 in itertools.product(characters, repeat=2):
            expected = one if rho == rho2 else zero
            assert orthogonality_sum(group, rho, rho2) == expected
            row_pairs += 1
        table = [
            [evaluate_character(group, rho, g) for g in elements]
            for rho in characters
        ]
        inverse_index = {g: elements.index(group.inverse(g)) for g in elements}
        order = CyclotomicNumber.from_rational(group.order, L)
        for i, g in enumerate(elements):
            for h in elements:
                total = zero
                for row in table:
                    total = total + row[i] * row[inverse_index[h]]
                assert total == (order if g == h else zero)
                column_pairs += 1
    print(
        f"PASS criterion 5: row orthogonality on {row_pairs} character pairs "
        f"and column orthogonality on {column_pairs} element pairs, groups of order <= 24"
    )


def _decomposition_case(index):
    rng = random.Random(1000 + index)
    r = (1, 2, 3, 4, 6)[index % 5]
    genus = index % 4
    basis_size = 1 + (index % 2)
    if index == 49:
        n_max, j_max, n_betas = 3, 2, 6
    else:
        n_max = rng.randint(0, 3)
        j_max = rng.randint(0, 2)
        n_betas = rng.randint(1, 6)
        # keep the gerbe-side key count at desk scale
        while True:
            variables = basis_size * r * (j_max + 1)
            keys = n_betas * sum(
                math.comb(variables + n - 1, n) for n in range(n_max + 1)
            )
            if keys <= 20000:
                break
            if n_max > 1:
                n_max -= 1
            elif j_max > 0:
                j_max -= 1
            else:
                n_betas = 1
                break
    rank = rng.randint(1, 2)
    pairing = tuple(rng.randrange(r) for _ in range(rank))
    betas = set()
    while len(betas) < n_betas:
        betas.add(tuple(rng.randrange(8) for _ in range(rank)))
    spec = GerbeSpec(r, pairing)
    truncation = Truncation(n_max, j_max, tuple(betas))
    return spec, BaseTheoryTable.seeded(basis_size, genus, truncation, 5000 + index)


def test_criterion_06_decomposition_identity():
    seen_r, seen_genus, seen_m = set(), set(), set()
    keys_total = 0
    for index in range(50):
        spec, table = _decomposition_case(index)
        report = verify_decomposition(spec, table)
        assert report.passed, (
            f"case {index}: r={spec.band_order} genus={table.genus} differs first "
            f"at {report.first_differing_key}"
        )
        keys_total += report.keys_compared
        seen_r.add(spec.band_order)
        seen_genus.add(table.genus)
        seen_m.add(table.basis_size)
    assert seen_r == {1, 2, 3, 4, 6}
    assert seen_genus == {0, 1, 2, 3}
    assert seen_m == {1, 2}
    print(
        f"PASS criterion 6: decomposition identity holds termwise on 50 seeded "
        f"tables ({keys_total} coefficients compared)"
    )


def test_criterion_07_twisted_sector_scaling():
    genus = 2
    slots = [(0, 0), (1, 1), (0, 1)]
    tuples_checked = mixed_checked = 0
    for r in range(1, 5):
        spec = GerbeSpec(r, (1 % r,))
        beta = (1,)
        k = 1 % r
        truncation = Truncation(3, 1, (beta,))
        value = Fraction(3, 5)
        records = [
            (genus, beta, slots[:n], value)
            for n in range(4)
        ]
        table = BaseTheoryTable.from_records(2, genus, truncation, records)
        for n in range(4):
            for rhos in itertools.product(range(r), repeat=n):
                insertions = [(i, rho, j) for rho, (i, j) in zip(rhos, slots[:n])]
                got = gerbe_invariant_rho(spec, table, beta, insertions)
                assert got == oracles.character_double_sum(r, rhos, genus, k, value)
                if len(set(rhos)) > 1:
                    assert got.is_zero()
                    mixed_checked += 1
                tuples_checked += 1
    assert mixed_checked > 0
    print(
        f"PASS criterion 7: character-basis invariants match the double-sum "
        f"oracle on {tuples_checked} tuples ({mixed_checked} mixed, all zero)"
    )


def test_criterion_08_picard_torsion():
    for r in (2, 3, 5):
        for g in range(3):
            assert prestable_picard_torsion(graph_of([g], []), r) == r ** (2 * g)
        assert prestable_picard_torsion(graph_of([0], [(0, 0)]), r) == r
        assert prestable_picard_torsion(graph_of([0, 0], [(0, 1)]), r) == 1

    rng = random.Random(808)
    for _ in range(100):
        nv = rng.randint(1, 5)
        edges = [(rng.randrange(v), v) for v in range(1, nv)]
        for _ in range(rng.randint(0, 3)):
            u, v = rng.randrange(nv), rng.randrange(nv)
            edges.append((min(u, v), max(u, v)))
        graph = graph_of([rng.randrange(3) for _ in range(nv)], edges)
        r = rng.randint(1, 8)
        orders = [rng.randint(1, 8) for _ in range(len(edges))]
        gerby = GerbyGraph(graph, (), orders)

        bridges = oracles.find_bridges(nv, edges)
        g = total_genus(graph)
        b1 = g - sum(graph.vertex_genus)
        expected = r ** (2 * g - b1) * math.prod(
            math.gcd(orders[e], r) for e in range(len(edges)) if e not in bridges
        )
        if all(r % gamma == 0 for gamma in orders):
            assert twisted_picard_torsion(gerby, r) == expected
        else:
            with pytest.raises(ValueError, match="does not divide"):
                twisted_picard_torsion(gerby, r)
        # each order's gcd with r divides r, and keeps every gcd factor
        divided = GerbyGraph(graph, (), [math.gcd(gamma, r) for gamma in orders])
        assert twisted_picard_torsion(divided, r) == expected

        untwisted = GerbyGraph(graph, (), [1] * len(edges))
        assert twisted_picard_torsion(untwisted, r) == prestable_picard_torsion(graph, r)
    print(
        "PASS criterion 8: torsion anchors, untwisted degeneration, and gcd "
        "factors verified on 100 random gerby graphs"
    )


def test_criterion_09_cyclotomic_substrate():
    for n in range(1, 61):
        product = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                product = oracles.poly_mul_int(product, cyclotomic_polynomial(d))
        assert product == [-1] + [0] * (n - 1) + [1]

    rng = random.Random(909)
    orders = [1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 16, 20, 24, 30, 36, 48, 60]
    for _ in range(1000):
        order = rng.choice(orders)
        nums = tuple(rng.randint(-99, 99) for _ in range(power_basis_size(order)))
        value = CyclotomicNumber(order, nums, rng.randint(1, 40))
        assert CyclotomicNumber.from_dict(value.to_dict()) == value
    print(
        "PASS criterion 9: cyclotomic product identity for N <= 60 and 1000 "
        "serialization round trips"
    )
