"""Independent reference implementations the tests cross-check against.

Everything here is deliberately written with different algorithms than the
package: brute force where the library has a closed form, long division
by the cyclotomic polynomial where it reads reduced powers of zeta from a
table, DFS lowlinks where it sums the marks of the edges outside a
spanning forest up that forest (the package keeps no lowlink pass, so
this check stays independent),
leaf peeling where it splits at a single edge, a literal character double
sum over every sector tuple where it tests one tuple per sum of the
sectors, every multiset of gerbe
variables where the gerbe potential enumerates single-character monomials
only, one gerbe_invariant_rho call per key where the gerbe potential looks
each base monomial up once for all its character copies, the sorted
union of both sides' keys, scaled after the sum over rho, where verify
scales the base series and takes the smallest differing key unsorted, every
assignment of each prescribed edge order where the fiber count solves
spanning-tree edges, and Ramanujan sums over the divisors of r where it
splits a banana graph's count over the prime powers of r.
"""

import itertools
import math
from fractions import Fraction

from gerbecalc.exactnum import CyclotomicNumber, cyclotomic_polynomial, root_of_unity
from gerbecalc.gw import build_potential, gerbe_invariant_rho, substitute_novikov


def totient_brute(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def cycle_assignment_count_brute(endpoints, orders, residuals, r: int) -> int:
    """Assignments x_e in Z/r of additive order orders[e] balancing every vertex.

    Edge (a, b) adds x_e at a and subtracts it at b; the sum at vertex v
    must equal residuals[v] mod r.  Tries every element of each order.
    """
    pools = [[x for x in range(r) if r // math.gcd(x, r) == d] for d in orders]
    count = 0
    for choice in itertools.product(*pools):
        sums = [0] * len(residuals)
        for (a, b), x in zip(endpoints, choice):
            sums[a] += x
            sums[b] -= x
        if all((s - t) % r == 0 for s, t in zip(sums, residuals)):
            count += 1
    return count


def mobius_brute(n: int) -> int:
    """The Moebius function: 0 when a square divides n, else (-1)^(primes)."""
    sign = 1
    for p in range(2, n + 1):
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
    return sign


def ramanujan_sum(q: int, n: int) -> int:
    """c_q(n), the sum of the n-th powers of the primitive q-th roots of
    unity, by von Sterneck's closed form mu(q/g) phi(q) / phi(q/g), g = (q, n)."""
    m = q // math.gcd(q, n)
    return mobius_brute(m) * totient_brute(q) // totient_brute(m)


def banana_order_counts(n_edges: int, rho: int, r: int) -> dict:
    """Per tuple d of additive orders, the x in (Z/r)^n_edges of orders d
    summing to rho mod r: on a two-vertex banana, the balanced assignments
    for residuals (rho, -rho) whatever the edges' orientations, as negating
    a value keeps its order.  Counted by characters instead of assignments:
    (1/r) * sum over g | r of c_{r/g}(rho) * prod_e c_{d_e}(g).  Tuples with
    no such assignment are left out.
    """
    divs = [d for d in range(1, r + 1) if r % d == 0]
    # one term per g, for all tuples at once, in itertools.product's order
    totals = [0] * len(divs) ** n_edges
    for g in divs:
        terms = [ramanujan_sum(r // g, rho)]
        sums = [ramanujan_sum(d, g) for d in divs]
        for _ in range(n_edges):
            terms = [t * c for t in terms for c in sums]
        totals = [a + b for a, b in zip(totals, terms)]
    counts = {}
    for orders, total in zip(itertools.product(divs, repeat=n_edges), totals):
        assert total % r == 0, (orders, rho, r)
        if total:
            counts[orders] = total // r
    return counts


def admissible_residue_tuples(n: int, r: int, k: int) -> set:
    """All tuples in (Z/r)^n whose entries sum to k mod r."""
    return {
        t for t in itertools.product(range(r), repeat=n) if sum(t) % r == k % r
    }


def poly_mul_int(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_mod_cyclotomic(poly, order: int) -> list:
    """Integer polynomial poly (constant term first) reduced mod Phi_order.

    Long division by the monic cyclotomic_polynomial(order), from the top
    degree down; returns the phi(order) coefficients of the remainder.
    Never reads the package's table of reduced powers of zeta.
    """
    divisor = cyclotomic_polynomial(order)
    degree = len(divisor) - 1
    rest = list(poly) + [0] * max(0, degree - len(poly))
    for top in range(len(rest) - 1, degree - 1, -1):
        c = rest[top]
        if c:
            for i, d in enumerate(divisor):
                rest[top - degree + i] -= c * d
    return rest[:degree]


def find_bridges(n_vertices: int, edge_list) -> set:
    """Indices of bridge edges via DFS lowlinks.

    Parallel edges and self-loops are never bridges; only the one edge used
    to enter a vertex is skipped, by index, so a parallel copy counts as a
    genuine back edge.
    """
    adjacency = [[] for _ in range(n_vertices)]
    for idx, (u, v) in enumerate(edge_list):
        adjacency[u].append((v, idx))
        adjacency[v].append((u, idx))
    disc = [-1] * n_vertices
    low = [0] * n_vertices
    bridges = set()
    clock = itertools.count()
    for root in range(n_vertices):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = next(clock)
        frames = [(root, -1, -1, 0)]
        while frames:
            v, parent, in_edge, cursor = frames.pop()
            if cursor == len(adjacency[v]):
                if parent != -1:
                    low[parent] = min(low[parent], low[v])
                    if low[v] > disc[parent]:
                        bridges.add(in_edge)
                continue
            frames.append((v, parent, in_edge, cursor + 1))
            w, idx = adjacency[v][cursor]
            if idx == in_edge:
                continue
            if disc[w] == -1:
                disc[w] = low[w] = next(clock)
                frames.append((w, v, idx, 0))
            else:
                low[v] = min(low[v], disc[w])
    return bridges


def leaf_peel_node_ages(
    n_vertices: int,
    edge_list,
    vertex_residues,
    tail_vertices,
    tail_fractions,
    r: int,
) -> dict:
    """Bridge ages by peeling leaves off the bridge tree, for trees with loops.

    Every non-bridge edge must be a self-loop.  Returns, per bridge index,
    the set of original vertices peeled away and the fractional age computed
    from that side's accumulated residues and tail ages.
    """
    bridges = find_bridges(n_vertices, edge_list)
    for idx, (u, v) in enumerate(edge_list):
        if idx not in bridges and u != v:
            raise ValueError("the peeling oracle only handles trees with loops")
    merged = {v: {v} for v in range(n_vertices)}
    weight = {v: Fraction(vertex_residues[v], r) for v in range(n_vertices)}
    for tv, tf in zip(tail_vertices, tail_fractions):
        weight[tv] -= tf
    live = {idx: edge_list[idx] for idx in bridges}
    incident = {
        v: {idx for idx, (a, b) in live.items() if v in (a, b)} for v in merged
    }
    ages = {}
    while live:
        leaf = min(v for v in merged if len(incident[v]) == 1)
        idx = next(iter(incident[leaf]))
        a, b = live[idx]
        other = b if a == leaf else a
        ages[idx] = (frozenset(merged[leaf]), weight[leaf] % 1)
        merged[other] |= merged[leaf]
        weight[other] += weight[leaf]
        del merged[leaf], weight[leaf]
        incident[other].discard(idx)
        del incident[leaf], live[idx]
    return ages


def character_double_sum(r: int, rhos, genus: int, k: int, base_value) -> CyclotomicNumber:
    """Literal (1/r)^n sum over group tuples of the transformed sector values.

    Each tuple (g_1, ..., g_n) contributes prod_i chi_rho_i(g_i^{-1}) times
    the sector invariant, which is r^(2g-1) * base_value when the g_i sum to
    k mod r and zero otherwise.
    """
    n = len(rhos)
    scale = Fraction(r) ** (2 * genus - 1) * Fraction(base_value)
    total = CyclotomicNumber.zero(r)
    for g_tuple in itertools.product(range(r), repeat=n):
        if sum(g_tuple) % r != k % r:
            continue
        term = CyclotomicNumber.from_rational(scale, r)
        for rho, g in zip(rhos, g_tuple):
            term = term * root_of_unity((-rho * g) % r, r)
        total = total + term
    return total * Fraction(1, r**n)


def exhaustive_gerbe_potential(spec, base, genus: int, truncation) -> dict:
    """Gerbe-basis potential over every multiset of gerbe variables.

    Walks all monomials in the b*r*(j+1) variables (class, character, psi),
    mixed characters included, evaluates each through gerbe_invariant_rho,
    divides by the multiplicities' factorials and keeps the nonzero
    coefficients, keyed by (curve class, sorted monomial).
    """
    variables = [
        (i, rho, j)
        for i in range(base.basis_size)
        for rho in range(spec.band_order)
        for j in range(truncation.j_max + 1)
    ]
    coefficients = {}
    for beta in truncation.betas:
        for n in range(truncation.n_max + 1):
            for monomial in itertools.combinations_with_replacement(variables, n):
                value = gerbe_invariant_rho(spec, base, genus, beta, monomial)
                value = value * Fraction(1, _multiplicity_factorials(monomial))
                if not value.is_zero():
                    coefficients[(beta, monomial)] = value
    return coefficients


def per_key_gerbe_potential(spec, base, genus: int, truncation) -> dict:
    """Gerbe-basis potential built key by key over single-character monomials.

    Per curve class: the empty monomial, then for each rho the rho-copy of
    every nonempty base monomial, each evaluated on its own through
    gerbe_invariant_rho, which looks the base table up once per key, so the
    zero-fill warnings and any CoverageError come in key order.  Returns
    the nonzero coefficients in that order.
    """
    r = spec.band_order
    variables = [(i, j) for i in range(base.basis_size) for j in range(truncation.j_max + 1)]
    monomials = [
        combo
        for n in range(1, truncation.n_max + 1)
        for combo in itertools.combinations_with_replacement(variables, n)
    ]
    coefficients = {}
    for beta in truncation.betas:
        keys = [()] + [tuple((i, rho, j) for (i, j) in m) for rho in range(r) for m in monomials]
        for monomial in keys:
            value = gerbe_invariant_rho(spec, base, genus, beta, monomial)
            value = value * Fraction(1, _multiplicity_factorials(monomial))
            if not value.is_zero():
                coefficients[(beta, monomial)] = value
    return coefficients


def sorted_union_decomposition(spec, base, genus: int, truncation) -> tuple:
    """The comparison of verify_decomposition done the long way.

    The right side sums the twisted base series over every rho and then
    scales each sum by r^(2g-2); the sorted union of both sides' keys is
    compared by CyclotomicNumber equality, a missing key reading as zero.
    Returns (passed, keys compared, first differing key, its left value,
    its right value), the last three None on a pass.
    """
    r = spec.band_order
    lhs = build_potential(spec, base, genus, truncation, "gerbe").coefficients
    base_series = build_potential(spec, base, genus, truncation, "base")
    rhs = {}
    for rho in range(r):
        for key, value in substitute_novikov(base_series, spec, rho).coefficients.items():
            rhs[key] = rhs[key] + value if key in rhs else value
    scalar = Fraction(r) ** (2 * genus - 2)
    rhs = {key: value * scalar for key, value in rhs.items()}
    keys = sorted(set(lhs) | set(rhs))
    zero = CyclotomicNumber.zero(r)
    for key in keys:
        left, right = lhs.get(key, zero), rhs.get(key, zero)
        if left != right:
            return False, len(keys), key, left, right
    return True, len(keys), None, None, None


def _multiplicity_factorials(monomial) -> int:
    return math.prod(math.factorial(len(list(g))) for _, g in itertools.groupby(monomial))


def _is_connected(n_vertices: int, edges) -> bool:
    adjacency = [[] for _ in range(n_vertices)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adjacency[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n_vertices


def connected_multigraph_classes(max_vertices: int, max_edges: int) -> list:
    """Connected multigraph isomorphism classes as (n_vertices, edge tuple).

    Edges are unordered pairs with multiplicity, self-loops included; the
    canonical form minimizes the sorted edge tuple over vertex permutations.
    """
    classes = set()
    for nv in range(1, max_vertices + 1):
        pairs = [(i, j) for i in range(nv) for j in range(i, nv)]
        perms = list(itertools.permutations(range(nv)))
        for ne in range(max_edges + 1):
            if ne < nv - 1:
                continue
            for combo in itertools.combinations_with_replacement(pairs, ne):
                if not _is_connected(nv, combo):
                    continue
                canon = min(
                    tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in combo))
                    for p in perms
                )
                classes.add((nv, canon))
    return sorted(classes)


def random_tree_with_loops(rng, max_vertices: int = 6, max_loops: int = 3):
    """A random connected graph whose only cycles are self-loops.

    Returns (n_vertices, edge list); tree edges first, then loops.
    """
    nv = rng.randint(1, max_vertices)
    edges = [(rng.randrange(v), v) for v in range(1, nv)]
    for _ in range(rng.randint(0, max_loops)):
        w = rng.randrange(nv)
        edges.append((w, w))
    return nv, edges
