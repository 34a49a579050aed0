"""Gerbe Gromov-Witten bookkeeping over an abstract base theory.

Base invariants are external data (a user table or seeded pseudo-random
rationals); nothing here computes invariants of the base from geometry.
The module scales and twists them into gerbe invariants, assembles
truncated descendant potentials as exponential generating functions, and
verifies exactly, coefficient by coefficient, that the gerbe potential
equals the character-summed, Novikov-twisted base potentials.

Curve classes live in the free monoid Z^m >= 0 and enter only through the
Novikov exponent and a mod-r pairing residue.  Cohomology of the base is an
abstract indexed basis with no grading or products.

Each invariant has one formula.  A sector-basis invariant is the base value
times r^(2g-1) when its sector tuple is admissible for k(beta), and 0
otherwise (_sector_factor).  A sector s is zeta_r^s, whose order divides r,
so the tuple is admissible exactly when its sectors sum to k(beta) mod r;
the rule tests that sum and needs no contact types.  A character-basis
invariant is by definition the character transform of the sector
invariants, (1/r)^n times the sum over sector tuples g of prod
chi_rho(g_i^-1) times the sector invariant, with the characters evaluated
by abelian.evaluate_character (_character_factors).  It vanishes by
definition unless all of its insertions carry one character, so the gerbe
potential never enumerates a monomial that mixes characters: per curve
class it holds the r single-character copies of each base monomial, the
empty monomial included, instead of every multiset of the b*r*(j+1) gerbe
variables.  gerbe_invariant_rho and the gerbe-basis build both read the
transform, which is never written in closed form here; the Novikov twist
character_twist is used only by _twisted, on the right side of
verify_decomposition, so that check compares two independent computations.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from random import Random
from typing import Iterable, Mapping, Sequence

from ._record import Record, setfield
from .abelian import FiniteAbelianGroup, evaluate_character
from .exactnum import CyclotomicNumber, _scaled, root_of_unity

CurveClass = tuple[int, ...]


class CoverageError(LookupError, ValueError):
    """A base-table key outside the declared truncation was requested; a
    ValueError too, so the command line reports it as an input problem."""


class GerbeSpec(Record):
    """The band order r and the linear pairing residues defining k(beta)."""

    _fields = ("band_order", "pairing")
    band_order: int
    pairing: tuple[int, ...]

    def __init__(self, band_order: int, pairing: tuple[int, ...]) -> None:
        setfield(self, "band_order", band_order)
        pairing = tuple(pairing)
        setfield(self, "pairing", pairing)
        if band_order < 1:
            raise ValueError(f"band order must be positive, got {band_order}")
        if any(not 0 <= a < band_order for a in pairing):
            raise ValueError(
                f"pairing residues must lie in [0, {band_order}), got {pairing}"
            )

    @property
    def beta_rank(self) -> int:
        return len(self.pairing)

    def group(self) -> FiniteAbelianGroup:
        return FiniteAbelianGroup((self.band_order,))


def _check_curve_class(beta, rank: int) -> CurveClass:
    beta = tuple(beta)
    if len(beta) != rank:
        raise ValueError(f"curve class {beta} has rank {len(beta)}, expected {rank}")
    if any(not isinstance(x, int) or x < 0 for x in beta):
        raise ValueError(f"curve class {beta} must have nonnegative integer entries")
    return beta


def pairing_value(spec: GerbeSpec, beta) -> int:
    """The residue k(beta) = sum a_i beta_i mod r; additive in beta."""
    beta = _check_curve_class(beta, spec.beta_rank)
    return sum(a * b for a, b in zip(spec.pairing, beta)) % spec.band_order


class Truncation(Record):
    """Finite truncation bounds: insertion count, psi power, curve classes."""

    _fields = ("n_max", "j_max", "betas")
    n_max: int
    j_max: int
    betas: tuple[CurveClass, ...]

    def __init__(self, n_max: int, j_max: int, betas: tuple[CurveClass, ...]) -> None:
        if n_max < 0 or j_max < 0:
            raise ValueError("truncation bounds must be nonnegative")
        betas = tuple(sorted({tuple(b) for b in betas}))
        if not betas:
            raise ValueError("truncation needs at least one curve class")
        ranks = {len(b) for b in betas}
        if len(ranks) != 1:
            raise ValueError(f"curve classes of mixed rank: {sorted(ranks)}")
        if any(x < 0 for b in betas for x in b):
            raise ValueError("curve classes must be effective (componentwise >= 0)")
        setfield(self, "n_max", n_max)
        setfield(self, "j_max", j_max)
        setfield(self, "betas", betas)

    @property
    def rank(self) -> int:
        return len(self.betas[0])


def _monomials(basis_size: int, truncation: Truncation) -> list[tuple]:
    """The base monomials of a truncation, as sorted tuples of (class_index,
    psi_power) variables: by size n = 0, ..., n_max, then in the order of
    itertools.combinations_with_replacement.  The keys of the potentials and
    the draws of a seeded table, per curve class, follow this order."""
    variables = [(i, j) for i in range(basis_size) for j in range(truncation.j_max + 1)]
    sizes = range(truncation.n_max + 1)
    return [m for n in sizes for m in itertools.combinations_with_replacement(variables, n)]


def _key_record(key: tuple, **fields) -> dict:
    """A potential key (curve class, monomial) as a record of lists, plus fields."""
    beta, monomial = key
    return {"beta": list(beta), "monomial": [list(v) for v in monomial], **fields}


class BaseTheoryTable:
    """Finite table of base-theory descendant invariants at a fixed genus.

    The one owner of the genus and the truncation, which the potentials,
    the gerbe invariants and the decomposition check read here.  Keys are
    (curve class, monomial), as in a base-basis potential: the sorted tuple
    of the insertions' (class_index, psi_power) int pairs.  Values are
    exact rationals.  from_records and lookup, the readers of keys from
    outside, check them: from_records each record's genus, and both, through
    _require_inside, each range of a key, 0 <= class_index < basis_size and
    0 <= psi_power <= j_max among them, raising CoverageError outside the
    truncation.  _read reads keys inside it, as build_potential lists them:
    a missing key reads as 0 and is reported once on the warning channel, so
    "the invariant is zero" and "no data was supplied" stay distinguishable.
    """

    def __init__(
        self,
        basis_size: int,
        genus: int,
        truncation: Truncation,
        entries: Mapping[tuple[CurveClass, tuple[tuple[int, int], ...]], Fraction],
    ) -> None:
        if basis_size < 1:
            raise ValueError(f"basis size must be positive, got {basis_size}")
        if genus < 0:
            raise ValueError(f"genus must be nonnegative, got {genus}")
        self.basis_size = basis_size
        self.genus = genus
        self.truncation = truncation
        self._entries = dict(entries)
        self._warned: set = set()

    @classmethod
    def from_records(
        cls,
        basis_size: int,
        genus: int,
        truncation: Truncation,
        records: Iterable[tuple[int, CurveClass, Sequence[tuple[int, int]], Fraction]],
    ) -> "BaseTheoryTable":
        """A table of (genus, beta, insertions, value) records, whose
        insertions are (class_index, psi_power) pairs in any order."""
        table = cls(basis_size, genus, truncation, {})
        for g, beta, insertions, value in records:
            beta = _check_curve_class(beta, truncation.rank)
            if g != genus:
                raise CoverageError(f"genus {g} outside the table's genus {genus}")
            key = (beta, tuple(sorted(insertions)))
            table._require_inside(*key)
            value = Fraction(value)
            if key in table._entries and table._entries[key] != value:
                raise ValueError(
                    f"conflicting values for beta={beta} insertions={list(key[1])}: "
                    f"{table._entries[key]} vs {value}"
                )
            table._entries[key] = value
        return table

    @classmethod
    def seeded(
        cls, basis_size: int, genus: int, truncation: Truncation, seed: int
    ) -> "BaseTheoryTable":
        """Deterministic pseudo-random table covering the whole truncation."""
        rng = Random(seed)
        monomials = _monomials(basis_size, truncation)
        entries = {}
        for beta in truncation.betas:
            for monomial in monomials:
                entries[(beta, monomial)] = Fraction(rng.randint(-99, 99), rng.randint(1, 12))
        return cls(basis_size, genus, truncation, entries)

    def _require_inside(self, beta: CurveClass, monomial: tuple) -> None:
        tr = self.truncation
        if beta not in tr.betas:
            raise CoverageError(f"curve class {beta} outside the truncation")
        if len(monomial) > tr.n_max:
            raise CoverageError(
                f"{len(monomial)} insertions exceed the truncation bound {tr.n_max}"
            )
        for class_index, psi_power in monomial:
            if not 0 <= class_index < self.basis_size:
                raise CoverageError(
                    f"class index {class_index} outside the basis of size {self.basis_size}"
                )
            if not 0 <= psi_power <= tr.j_max:
                raise CoverageError(
                    f"psi power {psi_power} outside the truncation range [0, {tr.j_max}]"
                )

    def lookup(self, beta, insertions: Sequence[tuple[int, int]]) -> Fraction:
        """The value at beta of these (class_index, psi_power) pairs, in any order."""
        beta = _check_curve_class(beta, self.truncation.rank)
        monomial = tuple(sorted(insertions))
        self._require_inside(beta, monomial)
        return self._read(beta, (monomial,))[0]

    def _read(self, beta: CurveClass, monomials: Iterable[tuple]) -> list[Fraction]:
        """The value of each key (beta, monomial), in the order given, each
        inside the truncation: a missing key reads as 0 with one warning."""
        values = []
        for monomial in monomials:
            key = (beta, monomial)
            value = self._entries.get(key)
            if value is None:
                value = Fraction(0)
                if key not in self._warned:
                    self._warned.add(key)
                    import logging  # loaded by the first warning only

                    logging.getLogger(__name__).warning(
                        "base table has no entry for genus=%s beta=%s insertions=%s; using 0",
                        self.genus, beta, list(monomial),
                    )
            values.append(value)
        return values


def character_twist(spec: GerbeSpec, rho: int, k: int) -> CyclotomicNumber:
    """chi_rho evaluated at zeta_r^(-k), the Novikov twist of a curve class:
    the root of unity zeta_r^(-rho*k), as abelian.evaluate_character gives it."""
    return root_of_unity(-rho * k, spec.band_order)


def _sector_factor(spec: GerbeSpec, genus: int, beta, sectors: Sequence[int]) -> Fraction:
    # The one sector rule: r^(2g-1) when the tuple is admissible for k(beta),
    # that is when the sectors sum to k(beta) mod r, else 0.
    r = spec.band_order
    if (sum(sectors) - pairing_value(spec, beta)) % r:
        return Fraction(0)
    return Fraction(r) ** (2 * genus - 1)


def _character_factors(spec: GerbeSpec, genus: int, beta, n: int, rhos) -> list[CyclotomicNumber]:
    """For each rho in rhos, (1/r)^n * sum over sector n-tuples g of
    chi_rho(g^-1) times _sector_factor(g): the factor that turns the base
    value of an n-point invariant into its single-character gerbe invariant.

    The empty tuple stands alone, with the empty product 1 as its character
    value.  Otherwise chi_rho sees g only through its sum s, and r^(n-1)
    tuples share each s, so admissibility is tested once per s, on
    (s, 0, ..., 0), and each sum weighs (1/r)^n * r^(n-1) = 1/r.
    """
    r = spec.band_order
    if n == 0:
        factor = CyclotomicNumber.from_rational(_sector_factor(spec, genus, beta, ()), r)
        return [factor] * len(rhos)
    group = spec.group()
    weights = [(s, _sector_factor(spec, genus, beta, (s,) + (0,) * (n - 1)) / r) for s in range(r)]
    weights = [(s, w) for s, w in weights if w]
    zero = CyclotomicNumber.zero(r)
    factors = []
    for rho in rhos:
        chi = group.character((rho,))
        terms = [evaluate_character(group, chi, group.element((-s,))) * w for s, w in weights]
        factors.append(sum(terms[1:], terms[0]) if terms else zero)
    return factors


def gerbe_invariant_sector(
    spec: GerbeSpec,
    base: BaseTheoryTable,
    beta,
    insertions: Sequence[tuple[int, int, int]],
) -> Fraction:
    """Gerbe invariant of sector-basis (class_index, sector, psi_power) triples.

    r^(2g-1) times the base invariant of their (class_index, psi_power)
    pairs when the sector tuple is admissible for k(beta), and exactly 0
    otherwise.  The base table must cover that key either way.
    """
    beta = _check_curve_class(beta, spec.beta_rank)
    value = base.lookup(beta, [(i, j) for i, _, j in insertions])
    return _sector_factor(spec, base.genus, beta, [s for _, s, _ in insertions]) * value


def gerbe_invariant_rho(
    spec: GerbeSpec,
    base: BaseTheoryTable,
    beta,
    insertions: Sequence[tuple[int, int, int]],
) -> CyclotomicNumber:
    """Gerbe invariant in Q(zeta_r) of the potential's own variables, the
    character-basis (class_index, character, psi_power) triples.

    The character transform of the sector invariants: zero by definition
    unless all characters agree on a common rho, and then the base value
    times _character_factors for that rho alone.  The empty tuple takes the
    one factor that all rho share.
    """
    beta = _check_curve_class(beta, spec.beta_rank)
    value = base.lookup(beta, [(i, j) for i, _, j in insertions])
    r = spec.band_order
    characters = {rho % r for _, rho, _ in insertions}
    if len(characters) > 1:
        return CyclotomicNumber.zero(r)
    rho = characters.pop() if characters else 0
    return _character_factors(spec, base.genus, beta, len(insertions), (rho,))[0] * value


class PotentialSeries(Record, eq=False):
    """A truncated descendant potential with exact cyclotomic coefficients.

    Keys are (curve class, sorted variable monomial); variables are
    (class_index, psi_power) pairs in the base basis and
    (class_index, character, psi_power) triples in the gerbe basis.  Only
    nonzero coefficients are stored.
    """

    _fields = ("basis", "coefficients")
    basis: str
    coefficients: dict

    def __init__(self, basis: str, coefficients: dict) -> None:
        setfield(self, "basis", basis)
        setfield(self, "coefficients", coefficients)

    def sorted_items(self) -> list:
        return sorted(self.coefficients.items())

    def to_records(self) -> list[dict]:
        return [_key_record(key, coefficient=c.to_dict()) for key, c in self.sorted_items()]


def _monomial_weight(monomial: tuple) -> int:
    # EGF bookkeeping: coefficient = invariant / product of multiplicities!
    weight = 1
    for _, group in itertools.groupby(monomial):
        weight *= math.factorial(sum(1 for _ in group))
    return weight


def build_potential(
    spec: GerbeSpec, base: BaseTheoryTable, basis: str = "gerbe"
) -> PotentialSeries:
    """Assemble the table's truncated genus-g potential in the requested basis.

    The coefficient of Q^beta on a variable multiset is the corresponding
    invariant divided by the product of the multiplicities' factorials, so
    the series is the usual exponential generating function written on
    monomial keys.  Basis "gerbe" uses (class_index, character, psi_power)
    variables and the character-basis gerbe invariants; basis "base" uses
    (class_index, psi_power) variables and the raw base table.

    Both bases list the base monomials with n = 0, ..., n_max insertions,
    the table's own keys, and read each once per curve class, in key order,
    through BaseTheoryTable._read; each key is inside the truncation by
    construction, so none is checked again.  The gerbe basis holds the r
    single-character copies of each: the rho-copy of an n-point monomial is
    its value / weight times the rho entry of _character_factors for n,
    computed once per (curve class, n); each row (curve class, n, rho) is
    one exactnum._scaled call over its values.  The empty monomial is one
    key for every rho.  A monomial mixing two
    characters is never enumerated: its invariant is zero by definition, so
    it could never contribute a coefficient, and the copies already look up
    every base key such a monomial would.  The coefficients, the zero-fill
    warnings and their order are those of gerbe_invariant_rho applied key
    by key.
    """
    if basis not in ("gerbe", "base"):
        raise ValueError(f"unknown basis {basis!r}")
    r = spec.band_order
    genus, truncation = base.genus, base.truncation
    monomials = _monomials(base.basis_size, truncation)
    weights = [_monomial_weight(monomial) for monomial in monomials]
    if basis == "gerbe":  # the rho-copies of the monomials' variables
        relabeled = [[tuple((i, rho, j) for i, j in m) for m in monomials] for rho in range(r)]
    coefficients = {}
    for beta in truncation.betas:
        if basis == "gerbe":
            factors = [
                _character_factors(spec, genus, beta, n, range(r))
                for n in range(truncation.n_max + 1)
            ]
        # one read per base monomial, in the order the keys list them
        values = base._read(beta, monomials)
        nonzero = [
            (k, v / w if w > 1 else v) for k, (v, w) in enumerate(zip(values, weights)) if v
        ]
        if basis == "base":
            for k, value in nonzero:
                coefficients[(beta, monomials[k])] = CyclotomicNumber.from_rational(value)
            continue
        pairs = [(k, (v.numerator, v.denominator)) for k, v in nonzero]
        groups = itertools.groupby(pairs, lambda kp: len(monomials[kp[0]]))
        rows = [(n, *zip(*row)) for n, row in groups]  # n, key indices, (p, q) pairs
        for rho, names in enumerate(relabeled):
            for n, indices, rationals in rows:
                factor = factors[n][rho]
                # the empty monomial is one key for every rho; rho = 0 writes it
                if (n or not rho) and not factor.is_zero():
                    for k, product in zip(indices, _scaled(factor, rationals)):
                        coefficients[(beta, names[k])] = product
    return PotentialSeries(basis, coefficients)


def substitute_novikov(
    series: PotentialSeries, spec: GerbeSpec, rho: int
) -> PotentialSeries:
    """Twist Novikov variables by chi_rho and relabel variables into sector rho.

    Each Q^beta coefficient picks up chi_rho(zeta_r^(-k(beta))) and every
    base variable (i, j) becomes the gerbe variable (i, rho, j).  Acts on
    coefficients: the twisted values already live in Q(zeta_r).
    """
    if series.basis != "base":
        raise ValueError("substitution needs a base-basis series")
    coefficients = dict(_twisted(series.coefficients, spec, (rho % spec.band_order,), 1))
    return PotentialSeries("gerbe", coefficients)


def _twisted(coefficients: dict, spec: GerbeSpec, rhos, scalar):
    """Yield each base key relabeled into sector rho, for each rho in rhos (each
    in 0..r-1), with its coefficient times scalar * chi_rho(zeta_r^(-k(beta)))
    if nonzero: one _scaled call per (class, rho) over the class's rationals."""
    classes: dict = {}  # beta: its rational monomials, their (p, q), the other items
    for (beta, monomial), c in coefficients.items():
        monomials, pairs, others = classes.setdefault(beta, ([], [], []))
        if c.order != 1:
            others.append((monomial, c))
        elif c.numerators[0]:
            monomials.append(monomial)
            pairs.append((c.numerators[0], c.denominator))
    unique = {monomial for _, monomial in coefficients}
    for rho in rhos:
        relabeled = {m: tuple((i, rho, j) for i, j in m) for m in unique}
        for beta, (monomials, pairs, others) in classes.items():
            twist = character_twist(spec, rho, pairing_value(spec, beta)) * scalar
            for monomial, value in zip(monomials, _scaled(twist, pairs)):
                yield (beta, relabeled[monomial]), value
            for monomial, c in others:
                value = c * twist
                if not value.is_zero():
                    yield (beta, relabeled[monomial]), value


class DecompositionReport(Record, eq=False):
    """Outcome of the exact termwise comparison of the two potentials."""

    _fields = ("passed", "keys_compared", "first_differing_key", "lhs_value", "rhs_value")
    passed: bool
    keys_compared: int
    first_differing_key: tuple | None
    lhs_value: CyclotomicNumber | None
    rhs_value: CyclotomicNumber | None

    def __init__(
        self,
        passed: bool,
        keys_compared: int,
        first_differing_key: tuple | None = None,
        lhs_value: CyclotomicNumber | None = None,
        rhs_value: CyclotomicNumber | None = None,
    ) -> None:
        setfield(self, "passed", passed)
        setfield(self, "keys_compared", keys_compared)
        setfield(self, "first_differing_key", first_differing_key)
        setfield(self, "lhs_value", lhs_value)
        setfield(self, "rhs_value", rhs_value)

    def to_dict(self) -> dict:
        out = {
            "status": "pass" if self.passed else "fail",
            "keys_compared": self.keys_compared,
            "first_differing_key": None,
            "lhs_value": None,
            "rhs_value": None,
        }
        if not self.passed and self.first_differing_key is not None:
            out["first_differing_key"] = _key_record(self.first_differing_key)
            out["lhs_value"] = self.lhs_value.to_dict()
            out["rhs_value"] = self.rhs_value.to_dict()
        return out


def verify_decomposition(spec: GerbeSpec, base: BaseTheoryTable) -> DecompositionReport:
    """Exact check that the table's gerbe potential decomposes over the
    characters, at the table's genus g and truncation.

    The left side is the gerbe-basis potential built from character-basis
    invariants.  The right side sums, over every character rho of mu_r, the
    base potential with Novikov variables twisted by r^(2g-2) * chi_rho, the
    scalar folded into each (beta, rho) twist, and relabeled into sector rho.
    Both sides are compared coefficient by coefficient with
    CyclotomicNumber equality, which crosses fields, over the union of
    their keys, a missing key reading as zero.  The keys are not sorted:
    the first difference reported, if any, is the smallest differing key.
    """
    r = spec.band_order
    lhs = build_potential(spec, base, "gerbe").coefficients
    base_series = build_potential(spec, base, "base").coefficients
    scalar = Fraction(r) ** (2 * base.genus - 2)
    rhs: dict = {}
    for key, value in _twisted(base_series, spec, range(r), scalar):
        rhs[key] = rhs[key] + value if key in rhs else value

    # The right side's keys, then those only the left side holds.
    zero = CyclotomicNumber.zero(r)
    keys_compared = len(rhs)
    first = None
    for key, right in rhs.items():
        if lhs.get(key, zero) != right and (first is None or key < first):
            first = key
    for key, left in lhs.items():
        if key not in rhs:
            keys_compared += 1
            if left != zero and (first is None or key < first):
                first = key
    if first is None:
        return DecompositionReport(True, keys_compared)
    return DecompositionReport(
        False, keys_compared, first, lhs.get(first, zero), rhs.get(first, zero)
    )
