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

Each invariant has one formula.  A sector-basis invariant is the base
value times r^(2g-1) when its sector tuple is admissible for k(beta), and 0
otherwise (_sector_factor).  A character-basis invariant is by definition
the character transform of the sector invariants, (1/r)^n times the sum
over sector tuples g of prod chi_rho(g_i^-1) times the sector invariant,
with the characters evaluated by abelian.evaluate_character
(_character_factors).  It vanishes by definition unless all of its
insertions carry one character, so the gerbe potential never enumerates a
monomial that mixes characters: per curve class it holds the r
single-character copies of each base monomial, the empty monomial
included, instead of every multiset of the b*r*(j+1) gerbe variables.
gerbe_invariant_rho and the gerbe-basis build both read the transform,
which is never written in closed form here; the Novikov twist
character_twist is used only by substitute_novikov, on the right side of
verify_decomposition, so that check compares two independent
computations.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Iterable, Mapping, Sequence

from .abelian import FiniteAbelianGroup, evaluate_character
from .admissibility import ContactType, is_admissible
from .exactnum import CyclotomicNumber, Rational, root_of_unity

logger = logging.getLogger(__name__)

CurveClass = tuple[int, ...]


class CoverageError(LookupError):
    """A base-table key outside the declared truncation was requested."""


@dataclass(frozen=True)
class GerbeSpec:
    """The band order r and the linear pairing residues defining k(beta)."""

    band_order: int
    pairing: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairing", tuple(self.pairing))
        if self.band_order < 1:
            raise ValueError(f"band order must be positive, got {self.band_order}")
        if any(not 0 <= a < self.band_order for a in self.pairing):
            raise ValueError(
                f"pairing residues must lie in [0, {self.band_order}), got {self.pairing}"
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


@dataclass(frozen=True, order=True)
class Insertion:
    """A base cohomology class index with a descendant power."""

    class_index: int
    psi_power: int

    def __post_init__(self) -> None:
        if self.class_index < 0 or self.psi_power < 0:
            raise ValueError(f"insertion indices must be nonnegative, got {self}")


@dataclass(frozen=True, order=True)
class SectorInsertion:
    """An insertion decorated with a group element of mu_r (sector basis)."""

    sector: int
    class_index: int
    psi_power: int

    def underlying(self) -> Insertion:
        return Insertion(self.class_index, self.psi_power)


@dataclass(frozen=True, order=True)
class CharacterInsertion:
    """An insertion decorated with a character of mu_r (rho basis)."""

    character: int
    class_index: int
    psi_power: int

    def underlying(self) -> Insertion:
        return Insertion(self.class_index, self.psi_power)


@dataclass(frozen=True)
class Truncation:
    """Finite truncation bounds: insertion count, psi power, curve classes."""

    n_max: int
    j_max: int
    betas: tuple[CurveClass, ...]

    def __post_init__(self) -> None:
        if self.n_max < 0 or self.j_max < 0:
            raise ValueError("truncation bounds must be nonnegative")
        betas = tuple(sorted({tuple(b) for b in self.betas}))
        if not betas:
            raise ValueError("truncation needs at least one curve class")
        ranks = {len(b) for b in betas}
        if len(ranks) != 1:
            raise ValueError(f"curve classes of mixed rank: {sorted(ranks)}")
        if any(x < 0 for b in betas for x in b):
            raise ValueError("curve classes must be effective (componentwise >= 0)")
        object.__setattr__(self, "betas", betas)

    @property
    def rank(self) -> int:
        return len(self.betas[0])


def _canonical_insertions(insertions: Iterable[Insertion]) -> tuple[Insertion, ...]:
    return tuple(sorted(insertions))


class BaseTheoryTable:
    """Finite table of base-theory descendant invariants at a fixed genus.

    Keys are (curve class, canonically sorted insertions); values are exact
    rationals.  Inside the declared truncation a missing key reads as 0 and
    is reported once on the warning channel; outside it the lookup raises
    CoverageError, so "the invariant is zero" and "no data was supplied"
    stay distinguishable.
    """

    def __init__(
        self,
        basis_size: int,
        genus: int,
        truncation: Truncation,
        entries: Mapping[tuple[CurveClass, tuple[Insertion, ...]], Fraction],
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
        records: Iterable[tuple[int, CurveClass, Sequence[Insertion], Fraction]],
    ) -> "BaseTheoryTable":
        table = cls(basis_size, genus, truncation, {})
        for g, beta, insertions, value in records:
            beta = _check_curve_class(beta, truncation.rank)
            key = (beta, _canonical_insertions(insertions))
            table._require_inside(g, key[0], key[1])
            value = Fraction(value)
            if key in table._entries and table._entries[key] != value:
                raise ValueError(
                    f"conflicting values for {key}: {table._entries[key]} vs {value}"
                )
            table._entries[key] = value
        return table

    @classmethod
    def seeded(
        cls, basis_size: int, genus: int, truncation: Truncation, seed: int
    ) -> "BaseTheoryTable":
        """Deterministic pseudo-random table covering the whole truncation."""
        rng = Random(seed)
        variables = [
            Insertion(i, j)
            for i in range(basis_size)
            for j in range(truncation.j_max + 1)
        ]
        entries = {}
        for beta in truncation.betas:
            for n in range(truncation.n_max + 1):
                for combo in itertools.combinations_with_replacement(variables, n):
                    entries[(beta, combo)] = Fraction(
                        rng.randint(-99, 99), rng.randint(1, 12)
                    )
        return cls(basis_size, genus, truncation, entries)

    def _require_inside(
        self, genus: int, beta: CurveClass, insertions: tuple[Insertion, ...]
    ) -> None:
        tr = self.truncation
        if genus != self.genus:
            raise CoverageError(f"genus {genus} outside the table's genus {self.genus}")
        if beta not in tr.betas:
            raise CoverageError(f"curve class {beta} outside the truncation")
        if len(insertions) > tr.n_max:
            raise CoverageError(
                f"{len(insertions)} insertions exceed the truncation bound {tr.n_max}"
            )
        for ins in insertions:
            if ins.class_index >= self.basis_size:
                raise CoverageError(
                    f"class index {ins.class_index} outside the basis of size {self.basis_size}"
                )
            if ins.psi_power > tr.j_max:
                raise CoverageError(
                    f"psi power {ins.psi_power} exceeds the truncation bound {tr.j_max}"
                )

    def lookup(
        self, genus: int, beta, insertions: Sequence[Insertion]
    ) -> Fraction:
        beta = _check_curve_class(beta, self.truncation.rank)
        key = (beta, _canonical_insertions(insertions))
        self._require_inside(genus, key[0], key[1])
        try:
            return self._entries[key]
        except KeyError:
            if key not in self._warned:
                self._warned.add(key)
                logger.warning(
                    "base table has no entry for genus=%s beta=%s insertions=%s; using 0",
                    genus,
                    beta,
                    [(i.class_index, i.psi_power) for i in key[1]],
                )
            return Fraction(0)


def character_twist(spec: GerbeSpec, rho: int, k: int) -> CyclotomicNumber:
    """chi_rho evaluated at zeta_r^(-k), the Novikov twist of a curve class:
    the root of unity zeta_r^(-rho*k), as abelian.evaluate_character gives it."""
    return root_of_unity(-rho * k, spec.band_order)


def _sector_factor(spec: GerbeSpec, genus: int, beta, sectors: Sequence[int]) -> Fraction:
    # The one sector rule: r^(2g-1) when the tuple is admissible for k(beta), else 0.
    r = spec.band_order
    types = [ContactType.from_residue(s, r) for s in sectors]
    if not is_admissible(types, r, pairing_value(spec, beta)):
        return Fraction(0)
    return Fraction(r) ** (2 * genus - 1)


def _character_factors(spec: GerbeSpec, genus: int, beta, n: int) -> list[CyclotomicNumber]:
    """For each rho, (1/r)^n * sum over sector n-tuples g of chi_rho(g^-1) times
    _sector_factor(g): the factor that turns the base value of an n-point
    invariant into its single-character gerbe invariant.

    The empty tuple stands alone, with the empty product 1 as its character
    value.  Otherwise chi_rho sees g only through its sum s, and r^(n-1)
    tuples share each s, so admissibility is tested once per s, on
    (s, 0, ..., 0), and each sum weighs (1/r)^n * r^(n-1) = 1/r.
    """
    r = spec.band_order
    if n == 0:
        return [CyclotomicNumber.from_rational(_sector_factor(spec, genus, beta, ()), r)] * r
    group = spec.group()
    weights = [(s, _sector_factor(spec, genus, beta, (s,) + (0,) * (n - 1)) / r) for s in range(r)]
    weights = [(s, w) for s, w in weights if w]
    zero = CyclotomicNumber.zero(r)
    factors = []
    for rho in range(r):
        chi = group.character((rho,))
        terms = [evaluate_character(group, chi, group.element((-s,))) * w for s, w in weights]
        factors.append(sum(terms[1:], terms[0]) if terms else zero)
    return factors


def gerbe_invariant_sector(
    spec: GerbeSpec,
    base: BaseTheoryTable,
    genus: int,
    beta,
    insertions: Sequence[SectorInsertion],
) -> Rational:
    """Gerbe invariant with sector-basis insertions.

    r^(2g-1) times the underlying base invariant when the sector tuple is
    admissible for k(beta), and exactly 0 otherwise.  The base table must
    cover the underlying key either way.
    """
    beta = _check_curve_class(beta, spec.beta_rank)
    value = base.lookup(genus, beta, [s.underlying() for s in insertions])
    return _sector_factor(spec, genus, beta, [s.sector for s in insertions]) * value


def gerbe_invariant_rho(
    spec: GerbeSpec,
    base: BaseTheoryTable,
    genus: int,
    beta,
    insertions: Sequence[CharacterInsertion],
) -> CyclotomicNumber:
    """Gerbe invariant with character-basis insertions, in Q(zeta_r).

    The character transform of the sector invariants: zero by definition
    unless all characters agree on a common rho, and then the base value
    times the rho entry of _character_factors.  The empty tuple takes the
    one factor that all rho share.
    """
    beta = _check_curve_class(beta, spec.beta_rank)
    value = base.lookup(genus, beta, [s.underlying() for s in insertions])
    r = spec.band_order
    characters = {s.character % r for s in insertions}
    if len(characters) > 1:
        return CyclotomicNumber.zero(r)
    rho = characters.pop() if characters else 0
    return _character_factors(spec, genus, beta, len(insertions))[rho] * value


@dataclass(frozen=True, eq=False)
class PotentialSeries:
    """A truncated descendant potential with exact cyclotomic coefficients.

    Keys are (curve class, sorted variable monomial); variables are
    (class_index, psi_power) pairs in the base basis and
    (class_index, character, psi_power) triples in the gerbe basis.  Only
    nonzero coefficients are stored.
    """

    basis: str
    genus: int
    truncation: Truncation
    coefficients: dict

    def sorted_items(self) -> list:
        return sorted(self.coefficients.items())

    def to_records(self) -> list[dict]:
        records = []
        for (beta, monomial), coeff in self.sorted_items():
            records.append(
                {
                    "beta": list(beta),
                    "monomial": [list(v) for v in monomial],
                    "coefficient": coeff.to_dict(),
                }
            )
        return records


def _monomial_weight(monomial: tuple) -> Fraction:
    # EGF bookkeeping: coefficient = invariant / product of multiplicities!
    weight = 1
    for _, group in itertools.groupby(monomial):
        weight *= math.factorial(sum(1 for _ in group))
    return Fraction(1, weight)


def build_potential(
    spec: GerbeSpec,
    base: BaseTheoryTable,
    genus: int,
    truncation: Truncation,
    basis: str = "gerbe",
) -> PotentialSeries:
    """Assemble the truncated genus-g potential in the requested basis.

    The coefficient of Q^beta on a variable multiset is the corresponding
    invariant divided by the product of the multiplicities' factorials, so
    the series is the usual exponential generating function written on
    monomial keys.  Basis "gerbe" uses (class_index, character, psi_power)
    variables and the character-basis gerbe invariants; basis "base" uses
    (class_index, psi_power) variables and the raw base table.

    Both bases list the base monomials with n = 0, ..., n_max insertions
    and look each up once per curve class, in key order.  The gerbe basis
    holds the r single-character copies of each: the rho-copy of an
    n-point monomial is its value / weight times the rho entry of
    _character_factors for n, computed once per (curve class, n).  The
    empty monomial is one key for every rho.  A monomial mixing two
    characters is never enumerated: its invariant is zero by definition, so
    it could never contribute a coefficient, and the copies already look up
    every base key such a monomial would.  The coefficients, the zero-fill
    warnings and their order and any CoverageError are those of
    gerbe_invariant_rho applied key by key.
    """
    if basis not in ("gerbe", "base"):
        raise ValueError(f"unknown basis {basis!r}")
    variables = [
        (i, j) for i in range(base.basis_size) for j in range(truncation.j_max + 1)
    ]
    monomials = [
        combo
        for n in range(truncation.n_max + 1)
        for combo in itertools.combinations_with_replacement(variables, n)
    ]
    coefficients = {}
    for beta in truncation.betas:
        if basis == "gerbe":
            factors = [_character_factors(spec, genus, beta, n) for n in range(truncation.n_max + 1)]
        # one lookup per base monomial, in the order the keys list them
        values = [
            base.lookup(genus, beta, [Insertion(i, j) for (i, j) in monomial])
            * _monomial_weight(monomial)
            for monomial in monomials
        ]
        nonzero = [(monomial, value) for monomial, value in zip(monomials, values) if value]
        if basis == "base":
            for monomial, value in nonzero:
                coefficients[(beta, monomial)] = CyclotomicNumber.from_rational(value)
            continue
        rows = [(n, list(row)) for n, row in itertools.groupby(nonzero, lambda mv: len(mv[0]))]
        for rho in range(spec.band_order):
            for n, row in rows:
                factor = factors[n][rho]
                # the empty monomial is one key for every rho; rho = 0 writes it
                if (n or not rho) and not factor.is_zero():
                    for monomial, value in row:
                        key = (beta, tuple((i, rho, j) for (i, j) in monomial))
                        coefficients[key] = factor * value
    return PotentialSeries(basis, genus, truncation, coefficients)


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
    rho = rho % spec.band_order
    twists = {
        beta: character_twist(spec, rho, pairing_value(spec, beta))
        for beta in series.truncation.betas
    }
    coefficients = {}
    for (beta, monomial), coeff in series.coefficients.items():
        relabeled = tuple((i, rho, j) for (i, j) in monomial)
        value = coeff * twists[beta]
        if not value.is_zero():
            coefficients[(beta, relabeled)] = value
    return PotentialSeries("gerbe", series.genus, series.truncation, coefficients)


@dataclass(frozen=True, eq=False)
class DecompositionReport:
    """Outcome of the exact termwise comparison of the two potentials."""

    passed: bool
    keys_compared: int
    first_differing_key: tuple | None = None
    lhs_value: CyclotomicNumber | None = None
    rhs_value: CyclotomicNumber | None = None

    @staticmethod
    def _encode_key(key: tuple) -> dict:
        beta, monomial = key
        return {"beta": list(beta), "monomial": [list(v) for v in monomial]}

    def to_dict(self) -> dict:
        out = {
            "status": "pass" if self.passed else "fail",
            "keys_compared": self.keys_compared,
            "first_differing_key": None,
            "lhs_value": None,
            "rhs_value": None,
        }
        if not self.passed and self.first_differing_key is not None:
            out["first_differing_key"] = self._encode_key(self.first_differing_key)
            out["lhs_value"] = self.lhs_value.to_dict()
            out["rhs_value"] = self.rhs_value.to_dict()
        return out


def verify_decomposition(
    spec: GerbeSpec,
    base: BaseTheoryTable,
    genus: int,
    truncation: Truncation,
) -> DecompositionReport:
    """Exact check that the gerbe potential decomposes over the characters.

    The left side is the gerbe-basis potential built from character-basis
    invariants.  The right side sums, over every character rho of mu_r, the
    base potential with Novikov variables twisted by chi_rho and variables
    relabeled into sector rho, then scales by r^(2g-2).  Both sides are
    compared coefficient by coefficient over the union of their keys in
    total key order; the first difference, if any, is reported.
    """
    r = spec.band_order
    lhs = build_potential(spec, base, genus, truncation, "gerbe")
    base_series = build_potential(spec, base, genus, truncation, "base")
    scalar = Fraction(r) ** (2 * genus - 2)
    rhs: dict = {}
    for rho in range(r):
        for key, value in substitute_novikov(base_series, spec, rho).coefficients.items():
            if key in rhs:
                rhs[key] = rhs[key] + value
            else:
                rhs[key] = value
    rhs = {key: value * scalar for key, value in rhs.items()}

    all_keys = sorted(set(lhs.coefficients) | set(rhs))
    zero = CyclotomicNumber.zero(r)
    for key in all_keys:
        left = lhs.coefficients.get(key, zero)
        right = rhs.get(key, zero)
        if left != right:
            return DecompositionReport(False, len(all_keys), key, left, right)
    return DecompositionReport(True, len(all_keys))
