"""Tests for the gerbe potential layer over an abstract base theory."""

import itertools
import logging
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from gerbecalc import gw
from gerbecalc.abelian import FiniteAbelianGroup, evaluate_character
from gerbecalc.admissibility import ContactType, is_admissible
from gerbecalc.exactnum import CyclotomicNumber, root_of_unity
from gerbecalc.gw import (
    BaseTheoryTable,
    CoverageError,
    DecompositionReport,
    GerbeSpec,
    PotentialSeries,
    Truncation,
    build_potential,
    character_twist,
    gerbe_invariant_rho,
    gerbe_invariant_sector,
    pairing_value,
    substitute_novikov,
    verify_decomposition,
)


def small_table(values=None, r_betas=((0,), (1,)), n_max=2, j_max=1, genus=0):
    truncation = Truncation(n_max, j_max, r_betas)
    if values is None:
        return BaseTheoryTable.seeded(2, genus, truncation, 7)
    records = [(genus, beta, ins, v) for beta, ins, v in values]
    return BaseTheoryTable.from_records(2, genus, truncation, records)


def test_spec_validation():
    spec = GerbeSpec(4, (1, 3))
    assert spec.beta_rank == 2
    assert spec.group().order == 4
    with pytest.raises(ValueError, match="band order"):
        GerbeSpec(0, ())
    with pytest.raises(ValueError, match="pairing residues"):
        GerbeSpec(3, (3,))


def test_pairing_value():
    spec = GerbeSpec(4, (1, 3))
    assert pairing_value(spec, (1, 0)) == 1
    assert pairing_value(spec, (1, 1)) == 0
    assert pairing_value(spec, (2, 3)) == 3
    with pytest.raises(ValueError, match="rank"):
        pairing_value(spec, (1,))
    with pytest.raises(ValueError, match="nonnegative"):
        pairing_value(spec, (-1, 0))


@given(st.tuples(st.integers(0, 9), st.integers(0, 9)),
       st.tuples(st.integers(0, 9), st.integers(0, 9)))
def test_pairing_is_additive(beta1, beta2):
    spec = GerbeSpec(6, (2, 5))
    total = tuple(a + b for a, b in zip(beta1, beta2))
    assert pairing_value(spec, total) == (
        pairing_value(spec, beta1) + pairing_value(spec, beta2)
    ) % 6


def test_truncation_normalizes_betas():
    tr = Truncation(1, 0, [(1,), (0,), (1,)])
    assert tr.betas == ((0,), (1,))
    assert tr.rank == 1
    with pytest.raises(ValueError, match="mixed rank"):
        Truncation(1, 0, [(0,), (0, 0)])
    with pytest.raises(ValueError, match="at least one"):
        Truncation(1, 0, [])
    with pytest.raises(ValueError, match="effective"):
        Truncation(1, 0, [(-1,)])
    with pytest.raises(ValueError, match="nonnegative"):
        Truncation(-1, 0, [(0,)])


def test_seeded_table_is_deterministic_and_total():
    truncation = Truncation(2, 1, [(0,), (1,)])
    one = BaseTheoryTable.seeded(2, 1, truncation, 42)
    two = BaseTheoryTable.seeded(2, 1, truncation, 42)
    assert one._entries == two._entries
    assert one._entries != BaseTheoryTable.seeded(2, 1, truncation, 43)._entries
    # 4 variables, n in {0,1,2}: 1 + 4 + 10 keys per curve class
    assert len(one._entries) == 2 * 15
    assert one.lookup((0,), []) == one._entries[((0,), ())]


def test_from_records_conflicts_and_duplicates():
    table = small_table([
        ((0,), ((0, 0),), Fraction(1, 2)),
        ((0,), ((0, 0),), Fraction(1, 2)),
    ])
    assert table.lookup((0,), [(0, 0)]) == Fraction(1, 2)
    with pytest.raises(ValueError, match="conflicting"):
        small_table([
            ((0,), ((0, 0),), Fraction(1, 2)),
            ((0,), ((0, 0),), Fraction(1, 3)),
        ])


def test_lookup_sorts_insertions():
    table = small_table([
        ((1,), ((0, 1), (1, 0)), Fraction(3)),
    ])
    assert table.lookup((1,), [(1, 0), (0, 1)]) == 3


def test_lookup_coverage_errors():
    table = small_table()
    with pytest.raises(CoverageError, match="outside the truncation"):
        table.lookup((2,), [])
    with pytest.raises(CoverageError, match="insertions exceed"):
        table.lookup((0,), [(0, 0)] * 3)
    with pytest.raises(CoverageError, match="class index"):
        table.lookup((0,), [(2, 0)])
    with pytest.raises(CoverageError, match="psi power"):
        table.lookup((0,), [(0, 2)])


# One insertion past each end of each range of a key, on a table of basis
# size 2 and j_max 1; _require_inside checks all four, for both readers.
OUT_OF_RANGE = {
    "class -1": ((-1, 0), "class index -1 outside the basis of size 2"),
    "class b": ((2, 0), "class index 2 outside the basis of size 2"),
    "psi -1": ((0, -1), r"psi power -1 outside the truncation range \[0, 1\]$"),
    "psi j+1": ((0, 2), r"psi power 2 outside the truncation range \[0, 1\]$"),
}


@pytest.mark.parametrize("pair, message", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE)
def test_the_table_owns_each_key_range(pair, message):
    table = small_table()
    truncation = table.truncation
    assert table.lookup((0,), [(1, 1), (0, 0)]) == table._entries[((0,), ((0, 0), (1, 1)))]
    with pytest.raises(CoverageError, match=message):
        table.lookup((0,), [(0, 0), pair])
    with pytest.raises(CoverageError, match=message):
        BaseTheoryTable.from_records(2, 0, truncation, [(0, (0,), [(1, 1), pair], Fraction(1))])


def test_from_records_rejects_a_record_at_another_genus():
    # the table owns its genus: a record at another one is outside it,
    # reported after its curve class is checked and before its key's ranges
    truncation = Truncation(2, 1, [(0,), (1,)])
    record = (1, (0,), [(0, 0)], Fraction(1))
    with pytest.raises(CoverageError) as error:
        BaseTheoryTable.from_records(2, 0, truncation, [record])
    assert str(error.value) == "genus 1 outside the table's genus 0"
    with pytest.raises(ValueError, match="has rank 2, expected 1"):
        BaseTheoryTable.from_records(2, 0, truncation, [(1, (0, 0), [], Fraction(1))])
    with pytest.raises(CoverageError, match="genus 1 outside"):
        BaseTheoryTable.from_records(2, 0, truncation, [(1, (0,), [(2, 0)], Fraction(1))])


def test_missing_inside_reads_zero_and_warns_once(caplog):
    table = small_table([((0,), (), Fraction(1))])
    with caplog.at_level(logging.WARNING, logger="gerbecalc.gw"):
        assert table.lookup((1,), []) == 0
        assert table.lookup((1,), []) == 0
    assert len(caplog.records) == 1
    assert "using 0" in caplog.records[0].getMessage()


def test_character_twist_values():
    spec = GerbeSpec(4, (1,))
    assert character_twist(spec, 0, 3) == root_of_unity(0, 4)
    assert character_twist(spec, 1, 1) == root_of_unity(3, 4)
    assert character_twist(spec, 2, 3) == root_of_unity(2, 4)


def test_character_twist_is_the_character_value():
    # abelian's character evaluation on mu_r is the reference for the twist
    for r in range(1, 13):
        spec = GerbeSpec(r, (0,))
        group = FiniteAbelianGroup((r,))
        for rho in range(r):
            for k in range(-r, 2 * r):
                expected = evaluate_character(
                    group, group.character((rho,)), group.element((-k,))
                )
                twist = character_twist(spec, rho, k)
                assert (twist.order, twist.numerators, twist.denominator) == (
                    expected.order, expected.numerators, expected.denominator
                )


def test_sector_invariant_scales_or_vanishes():
    spec = GerbeSpec(3, (1,))
    table = small_table([((1,), ((0, 0), (0, 0)), Fraction(5))],
                        genus=1)
    admissible = [(0, 2, 0), (0, 2, 0)]
    got = gerbe_invariant_sector(spec, table, (1,), admissible)
    assert got == Fraction(5) * 3  # r^(2g-1) at genus 1
    off = [(0, 1, 0), (0, 2, 0)]
    assert gerbe_invariant_sector(spec, table, (1,), off) == 0


@given(
    st.integers(1, 12),
    st.integers(-1, 2),
    st.lists(st.integers(-30, 30), max_size=5),
    st.lists(st.tuples(st.integers(0, 11), st.integers(0, 5)), min_size=1, max_size=2),
)
def test_sector_rule_is_admissibility_of_the_sector_types(r, genus, sectors, pairs):
    # admissibility, through contact types, is the reference for the
    # residue-sum rule; sectors may be negative or at least r
    spec = GerbeSpec(r, tuple(a % r for a, _ in pairs))
    beta = tuple(b for _, b in pairs)
    types = [ContactType.from_residue(s, r) for s in sectors]
    admissible = is_admissible(types, r, pairing_value(spec, beta))
    factor = gw._sector_factor(spec, genus, beta, sectors)
    assert factor == (Fraction(r) ** (2 * genus - 1) if admissible else 0)


def test_sector_invariant_demands_coverage_even_when_zero():
    spec = GerbeSpec(3, (1,))
    table = small_table()
    bad = [(0, 0, 0)] * 3
    with pytest.raises(CoverageError):
        gerbe_invariant_sector(spec, table, (1,), bad)


def test_nonzero_sector_tuples_number_r_to_n_minus_1():
    r, n = 3, 2
    spec = GerbeSpec(r, (1,))
    table = small_table([((2,), ((0, 0),) * n, Fraction(1))],
                        r_betas=((2,),))
    nonzero = [
        (x1, x2)
        for x1 in range(r)
        for x2 in range(r)
        if gerbe_invariant_sector(
            spec, table, (2,),
            [(0, x1, 0), (0, x2, 0)],
        ) != 0
    ]
    assert len(nonzero) == r ** (n - 1)
    assert all((x1 + x2) % r == 2 for x1, x2 in nonzero)


def test_rho_invariant_empty_tuple():
    spec = GerbeSpec(3, (1,))
    table = small_table([((0,), (), Fraction(7)), ((1,), (), Fraction(7))],
                        genus=2)
    got = gerbe_invariant_rho(spec, table, (0,), [])
    assert got == CyclotomicNumber.from_rational(Fraction(7) * 27, 3)
    assert gerbe_invariant_rho(spec, table, (1,), []).is_zero()


def test_rho_invariant_mixed_characters_vanish():
    spec = GerbeSpec(4, (1,))
    table = small_table()
    mixed = [(0, 0, 0), (0, 1, 0)]
    assert gerbe_invariant_rho(spec, table, (1,), mixed).is_zero()


def test_rho_invariant_evaluates_only_its_own_character(monkeypatch):
    spec = GerbeSpec(12, (5,))
    table = small_table(r_betas=((1,),), genus=1)
    calls = []

    def counted(*args):
        calls.append(args)
        return evaluate_character(*args)

    monkeypatch.setattr(gw, "evaluate_character", counted)
    insertions = [(0, 7, 0), (1, 7, 1)]
    got = gerbe_invariant_rho(spec, table, (1,), insertions)
    assert len(calls) == 1
    built = build_potential(spec, table, "gerbe")
    assert got == built.coefficients[((1,), ((0, 7, 0), (1, 7, 1)))]


def test_rho_invariant_matches_double_sum_oracle():
    spec = GerbeSpec(3, (1,))
    value = Fraction(5, 7)
    table = small_table([((1,), ((0, 0), (1, 1)), value)],
                        genus=1)
    for rhos in [(0, 0), (1, 1), (2, 2), (0, 1), (2, 1)]:
        got = gerbe_invariant_rho(
            spec, table, (1,),
            [(0, rhos[0], 0), (1, rhos[1], 1)],
        )
        assert got == oracles.character_double_sum(3, rhos, 1, 1, value)
    # every r <= 6, every k in Z/r (the class (k,) under the pairing 1),
    # genus 0-2 and every single-character tuple of up to three insertions
    slots = [(0, 0), (1, 1), (0, 1)]
    for r, genus in itertools.product(range(1, 7), range(3)):
        spec = GerbeSpec(r, (1 % r,))
        truncation = Truncation(3, 1, [(k,) for k in range(r)])
        records = [
            (genus, (k,), slots[:n], Fraction(3 + n + k, 5 + genus))
            for k in range(r)
            for n in range(4)
        ]
        table = BaseTheoryTable.from_records(2, genus, truncation, records)
        for _, (k,), insertions, value in records:
            for rho in range(r) if insertions else [0]:
                got = gerbe_invariant_rho(
                    spec, table, (k,),
                    [(i, rho, j) for i, j in insertions],
                )
                rhos = (rho,) * len(insertions)
                assert got == oracles.character_double_sum(r, rhos, genus, k, value)


def test_potential_divides_by_multiplicities():
    table = small_table([
        ((0,), ((0, 0), (0, 0)), Fraction(10)),
        ((0,), ((0, 0), (1, 0)), Fraction(10)),
    ])
    series = build_potential(GerbeSpec(1, (0,)), table, basis="base")
    repeated = series.coefficients[((0,), ((0, 0), (0, 0)))]
    distinct = series.coefficients[((0,), ((0, 0), (1, 0)))]
    assert repeated == CyclotomicNumber.from_rational(Fraction(5))
    assert distinct == CyclotomicNumber.from_rational(Fraction(10))


def test_potential_drops_zero_coefficients():
    table = small_table([((0,), (), Fraction(0)),
                         ((1,), (), Fraction(2))])
    series = build_potential(GerbeSpec(1, (0,)), table, basis="base")
    assert ((0,), ()) not in series.coefficients
    assert ((1,), ()) in series.coefficients
    with pytest.raises(ValueError, match="unknown basis"):
        build_potential(GerbeSpec(1, (0,)), table, basis="mixed")


@pytest.mark.parametrize("r", [1, 2, 3, 4, 6])
@pytest.mark.parametrize("genus", [0, 1, 2])
@pytest.mark.parametrize("basis_size", [1, 2])
def test_gerbe_potential_matches_exhaustive_enumeration(r, genus, basis_size):
    spec = GerbeSpec(r, (1 % r, (r - 1) % r))
    truncation = Truncation(2, 1, [(0, 0), (1, 0), (1, 1), (0, 2)])
    seed = 100 * r + 10 * genus + basis_size
    table = BaseTheoryTable.seeded(basis_size, genus, truncation, seed)
    series = build_potential(spec, table, "gerbe")
    expected = oracles.exhaustive_gerbe_potential(spec, table)
    assert expected
    assert series.coefficients == expected


def test_gerbe_potential_matches_exhaustive_enumeration_on_half_empty_table(caplog):
    spec = GerbeSpec(3, (1,))
    table = small_table([
        ((0,), (), Fraction(4)),
        ((1,), (), Fraction(-2)),
        ((0,), ((1, 1),), Fraction(1, 3)),
        ((1,), ((0, 0), (0, 0)), Fraction(5)),
        ((1,), ((0, 1), (1, 0)), Fraction(-7, 2)),
    ], genus=1)
    with caplog.at_level(logging.WARNING, logger="gerbecalc.gw"):
        series = build_potential(spec, table, "gerbe")
    warned = {record.getMessage() for record in caplog.records}
    expected = oracles.exhaustive_gerbe_potential(spec, table)
    assert len(expected) == 1 + 3 * 3
    assert series.coefficients == expected
    # every missing base key is still looked up, and warned about once
    assert len(warned) == len(caplog.records) == 2 * 15 - 5


def half_empty_records(rng, basis_size, genus, truncation):
    """Records for about half of the base keys, some of them zero."""
    variables = [(i, j) for i in range(basis_size) for j in range(truncation.j_max + 1)]
    return [
        (genus, beta, combo, Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
        for beta in truncation.betas
        for n in range(truncation.n_max + 1)
        for combo in itertools.combinations_with_replacement(variables, n)
        if rng.random() < 0.5
    ]


def build_and_warnings(caplog, build, *args):
    """build(*args) and the warning lines it logs, in order."""
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="gerbecalc.gw"):
        result = build(*args)
    return result, [record.getMessage() for record in caplog.records]


def per_key_build(spec, table):
    return oracles.per_key_gerbe_potential(spec, table)


def regrouped_build(spec, table):
    return build_potential(spec, table, "gerbe").coefficients


@pytest.mark.parametrize("r", [1, 2, 3, 4, 6, 8])
@pytest.mark.parametrize("genus", [0, 1, 2])
def test_regrouped_gerbe_build_matches_the_per_key_build(caplog, r, genus):
    spec = GerbeSpec(r, (1 % r, (r // 2 + 1) % r))
    truncation = Truncation(2, 1, [(0, 0), (1, 0), (1, 1), (0, 2)])
    records = half_empty_records(Random(10 * r + genus), 2, genus, truncation)

    def table():
        # a fresh table each time: a table warns once per missing key
        return BaseTheoryTable.from_records(2, genus, truncation, records)

    built, warnings = build_and_warnings(caplog, regrouped_build, spec, table())
    per_key, per_key_warnings = build_and_warnings(caplog, per_key_build, spec, table())
    assert warnings and warnings == per_key_warnings
    # every coefficient is gerbe_invariant_rho(...) * weight of its key, in key order
    assert list(built.items()) == list(per_key.items())
    assert built == oracles.exhaustive_gerbe_potential(spec, table())


def test_potential_records_shape():
    table = small_table([((1,), ((0, 0),), Fraction(1, 3))])
    series = build_potential(GerbeSpec(1, (0,)), table, basis="base")
    records = series.to_records()
    assert {"beta": [1], "monomial": [[0, 0]],
            "coefficient": {"order": 1, "coeffs": ["1/3"]}} in records


def test_substitution_twists_and_relabels():
    spec = GerbeSpec(4, (1,))
    table = small_table([((1,), ((0, 0),), Fraction(2))],
                        r_betas=((1,),), n_max=1, j_max=0)
    series = build_potential(spec, table, basis="base")
    twisted = substitute_novikov(series, spec, 1)
    assert twisted.basis == "gerbe"
    key = ((1,), ((0, 1, 0),))
    assert twisted.coefficients[key] == (
        CyclotomicNumber.from_rational(Fraction(2)) * root_of_unity(3, 4)
    )
    with pytest.raises(ValueError, match="base-basis"):
        substitute_novikov(twisted, spec, 1)


def test_substitution_multiplies_a_coefficient_that_is_not_rational():
    # a hand-built series may hold a coefficient outside Q: it is multiplied
    # by its class's twist, beside the rational coefficient that is scaled;
    # a zero coefficient, rational or not, gives no key
    spec = GerbeSpec(4, (1,))
    coefficients = {
        ((1,), ((0, 0),)): root_of_unity(3, 8) + Fraction(1, 2),
        ((1,), ()): CyclotomicNumber.from_rational(Fraction(-2, 3)),
        ((1,), ((0, 0), (0, 0))): CyclotomicNumber.zero(),
        ((1,), ((1, 0),)): CyclotomicNumber.zero(8),
    }
    series = PotentialSeries("base", coefficients)
    for rho in range(4):
        twist = character_twist(spec, rho, pairing_value(spec, (1,)))
        expected = {
            (beta, tuple((i, rho, j) for i, j in monomial)): _data(coeff * twist)
            for (beta, monomial), coeff in coefficients.items()
            if not coeff.is_zero()
        }
        twisted = substitute_novikov(series, spec, rho).coefficients
        assert {key: _data(value) for key, value in twisted.items()} == expected
    assert _data(twisted[((1,), ((0, 3, 0),))])[0] == 8


def test_trivial_pairing_substitution_only_relabels():
    spec = GerbeSpec(3, (0,))
    table = small_table()
    series = build_potential(spec, table, basis="base")
    for rho in range(3):
        twisted = substitute_novikov(series, spec, rho)
        assert len(twisted.coefficients) == len(series.coefficients)
        for (beta, monomial), coeff in series.coefficients.items():
            relabeled = tuple((i, rho, j) for (i, j) in monomial)
            assert twisted.coefficients[(beta, relabeled)] == coeff


def test_verify_decomposition_passes_on_seeded_table():
    spec = GerbeSpec(2, (1,))
    table = small_table()
    report = verify_decomposition(spec, table)
    assert report.passed
    assert report.keys_compared > 0
    doc = report.to_dict()
    assert doc["status"] == "pass"
    assert doc["first_differing_key"] is None


def test_decomposition_report_failure_shape():
    lhs = CyclotomicNumber.from_rational(Fraction(1), 2)
    rhs = CyclotomicNumber.zero(2)
    report = DecompositionReport(False, 5, ((1,), ((0, 0, 0),)), lhs, rhs)
    doc = report.to_dict()
    assert doc["status"] == "fail"
    assert doc["keys_compared"] == 5
    assert doc["first_differing_key"] == {"beta": [1], "monomial": [[0, 0, 0]]}
    assert doc["lhs_value"] == lhs.to_dict()
    assert doc["rhs_value"] == rhs.to_dict()


def _data(x):
    return x.order, x.numerators, x.denominator


def _left_side_with(changes):
    """build_potential, with the gerbe-basis coefficient at each key of
    changes set to its value, or removed where the value is None."""
    build = gw.build_potential

    def patched(spec, base, basis="gerbe"):
        series = build(spec, base, basis)
        if basis == "gerbe":
            for key, value in changes.items():
                if value is None:
                    del series.coefficients[key]
                else:
                    series.coefficients[key] = value
        return series

    return patched


@pytest.mark.parametrize("r", range(1, 9))
@pytest.mark.parametrize("genus", [0, 1, 2])
@pytest.mark.parametrize("full", [True, False], ids=["seeded", "half-empty"])
def test_verify_decides_and_counts_as_the_sorted_union(caplog, r, genus, full):
    spec = GerbeSpec(r, (1 % r, (r // 2 + 1) % r))
    truncation = Truncation(2, 1, [(0, 0), (1, 0), (1, 1), (0, 2)])
    if full:
        table = BaseTheoryTable.seeded(2, genus, truncation, 10 * r + genus)
    else:
        records = half_empty_records(Random(10 * r + genus), 2, genus, truncation)
        table = BaseTheoryTable.from_records(2, genus, truncation, records)
    with caplog.at_level(logging.ERROR, logger="gerbecalc.gw"):
        report = verify_decomposition(spec, table)
        expected = oracles.sorted_union_decomposition(spec, table)
    assert expected[0]
    assert (report.passed, report.keys_compared) == expected[:2]


@given(st.data())
def test_verify_names_the_first_changed_left_coefficient(data):
    r = data.draw(st.integers(1, 8), label="r")
    genus = data.draw(st.integers(0, 2), label="genus")
    spec = GerbeSpec(r, (1 % r, (r - 1) % r))
    truncation = Truncation(2, 1, [(0, 0), (1, 0), (1, 1)])
    table = BaseTheoryTable.seeded(2, genus, truncation, r + genus)
    lhs = build_potential(spec, table, "gerbe").coefficients
    keys = data.draw(st.lists(st.sampled_from(sorted(lhs)), min_size=1, max_size=2, unique=True))
    changes = {key: lhs[key] + 1 for key in keys}
    unchanged = verify_decomposition(spec, table)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gw, "build_potential", _left_side_with(changes))
        report = verify_decomposition(spec, table)
    first = min(keys)
    assert unchanged.passed and not report.passed
    assert report.keys_compared == unchanged.keys_compared
    assert report.first_differing_key == first
    assert _data(report.lhs_value) == _data(lhs[first] + 1)
    assert _data(report.rhs_value) == _data(lhs[first])


def ci_theory():
    # the console-script check of the CI: r = 8, k((1,)) = 3, basis 1, seed 7
    truncation = Truncation(2, 1, [(0,), (1,)])
    return GerbeSpec(8, (3,)), BaseTheoryTable.seeded(1, 0, truncation, 7)


def test_verify_counts_a_zero_key_of_the_right_side_only():
    # the empty monomial of a class with k(beta) != 0 sums to zero over rho
    # on the right side, and the left side never stores it
    spec, table = ci_theory()
    lhs = build_potential(spec, table, "gerbe").coefficients
    assert ((1,), ()) not in lhs and ((0,), ()) in lhs
    report = verify_decomposition(spec, table)
    assert report.passed
    assert report.keys_compared == len(lhs) + 1 == 82


def test_verify_fails_on_a_nonzero_key_of_the_left_side_only(monkeypatch):
    spec, table = ci_theory()
    mixed = ((1,), ((0, 1, 0), (0, 2, 0)))  # mixes two characters: no side holds it
    unchanged = verify_decomposition(spec, table)
    monkeypatch.setattr(gw, "build_potential", _left_side_with({mixed: root_of_unity(1, 8)}))
    report = verify_decomposition(spec, table)
    assert not report.passed
    assert report.keys_compared == unchanged.keys_compared + 1
    assert report.first_differing_key == mixed
    assert _data(report.lhs_value) == _data(root_of_unity(1, 8))
    assert _data(report.rhs_value) == _data(CyclotomicNumber.zero(8))


def test_verify_fails_on_a_nonzero_key_of_the_right_side_only(monkeypatch):
    spec, table = ci_theory()
    lhs = build_potential(spec, table, "gerbe").coefficients
    key = sorted(lhs)[-1]
    monkeypatch.setattr(gw, "build_potential", _left_side_with({key: None}))
    report = verify_decomposition(spec, table)
    assert not report.passed and report.keys_compared == 82
    assert report.first_differing_key == key
    assert _data(report.lhs_value) == _data(CyclotomicNumber.zero(8))
    assert _data(report.rhs_value) == _data(lhs[key])


def test_verify_passes_on_an_equal_value_held_at_twice_the_order(monkeypatch):
    spec, table = ci_theory()
    lhs = build_potential(spec, table, "gerbe").coefficients
    key = sorted(lhs)[len(lhs) // 2]
    monkeypatch.setattr(gw, "build_potential", _left_side_with({key: lhs[key].embedded(16)}))
    report = verify_decomposition(spec, table)
    assert report.passed and report.keys_compared == 82


def test_verify_fails_on_the_same_fields_held_in_another_field(monkeypatch):
    # phi(12) = phi(8) = 4: the same coordinates at order 12 are another number
    spec, table = ci_theory()
    lhs = build_potential(spec, table, "gerbe").coefficients
    key = next(key for key in sorted(lhs) if not lhs[key].is_rational())
    moved = CyclotomicNumber(12, lhs[key].numerators, lhs[key].denominator)
    monkeypatch.setattr(gw, "build_potential", _left_side_with({key: moved}))
    report = verify_decomposition(spec, table)
    assert not report.passed and report.first_differing_key == key
    assert _data(report.lhs_value) == _data(moved)
