"""The frozen records of every module, built on one private base."""

import pytest

from gerbecalc import _record
from gerbecalc.abelian import Character, FiniteAbelianGroup, GroupElement
from gerbecalc.admissibility import AdmissibleVector, ContactType, DegreeData
from gerbecalc.counting import LiftCount
from gerbecalc.exactnum import CyclotomicNumber
from gerbecalc.graphs import GerbyGraph, ModularGraph
from gerbecalc.gw import DecompositionReport, GerbeSpec, PotentialSeries, Truncation

# One loop at a genus-0 vertex with one tail: flags 0 (the tail), 1 and 2.
LOOP = ((0, 2, 1), (0, 0, 0), (0,))
TRUNCATION = (1, 0, ((0,), (1,)))

# Each record class with the field values of one instance, in field order.
RECORDS = {
    GroupElement: ((1, 2),),
    Character: ((0, 3),),
    FiniteAbelianGroup: ((2, 3),),
    ContactType: (1, 4),
    AdmissibleVector: ((ContactType(1, 2), ContactType(1, 2)), 2, 0),
    DegreeData: ((1,), (ContactType(1, 4),)),
    LiftCount: (4, "loop-only"),
    CyclotomicNumber: (3, (1, 2), 1),
    ModularGraph: LOOP,
    GerbyGraph: (ModularGraph(*LOOP), (2,), (4,)),
    GerbeSpec: (4, (1, 3)),
    Truncation: TRUNCATION,
    PotentialSeries: ("base", 0, Truncation(*TRUNCATION), {}),
    DecompositionReport: (False, 6, ((0,), ()), None, None),
}
# eq=False: equality is identity, and hashes are by identity too.
IDENTITY = {PotentialSeries, DecompositionReport}

classes = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)


@classes
def test_records_compare_and_hash_by_their_fields(cls):
    args = RECORDS[cls]
    a, b = cls(*args), cls(*args)
    assert issubclass(cls, _record.Record)
    assert tuple(getattr(a, name) for name in cls._fields) == args
    if cls in IDENTITY:
        assert a == a and a != b and hash(a) != hash(b)
    elif cls is CyclotomicNumber:
        assert a == b
        with pytest.raises(TypeError):
            hash(a)
    else:
        # the hash of the tuple of field values, as @dataclass(frozen=True) made it
        assert a == b and hash(a) == hash(b) == hash(args)
    assert a != object() and a != args
    if "__lt__" not in vars(cls):  # Record adds no ordering; ContactType defines its own
        with pytest.raises(TypeError):
            a < b  # noqa: B015


@classes
def test_records_are_frozen(cls):
    record = cls(*RECORDS[cls])
    for name in cls._fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.new_attribute = 1
    assert tuple(getattr(record, name) for name in cls._fields) == RECORDS[cls]


@classes
def test_records_repr_their_fields(cls):
    record = cls(*RECORDS[cls])
    if "__repr__" in vars(cls):
        return  # a class's own repr wins
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(cls._fields, RECORDS[cls]))
    assert repr(record) == f"{cls.__name__}({fields})"


@classes
def test_records_take_their_fields_by_position_and_keyword(cls):
    args = RECORDS[cls]
    init = cls.__init__.__code__
    assert init.co_varnames[1 : init.co_argcount] == cls._fields == cls.__match_args__
    by_keyword = cls(**dict(zip(cls._fields, args)))
    assert tuple(getattr(by_keyword, name) for name in cls._fields) == args
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*args, None)
    with pytest.raises(TypeError):
        cls(*args, no_such_field=None)


def test_a_class_keeps_the_hash_it_defines():
    class Kept(_record.Record):
        _fields = ("x",)

        def __init__(self, x):
            _record.setfield(self, "x", x)

        def __hash__(self):
            return 7

    class Given(_record.Record):
        _fields = ("x",)

        def __init__(self, x):
            _record.setfield(self, "x", x)

        def __eq__(self, other):  # replaced; its __hash__ = None is not kept
            return NotImplemented

    assert hash(Kept(1)) == 7 and Kept(1) == Kept(1) != Kept(2)
    assert hash(Given(1)) == hash((1,)) and Given(1) == Given(1) != Given(2)


def test_records_of_different_classes_are_never_equal():
    assert GroupElement((1, 2)) != Character((1, 2))
    assert ContactType(1, 2) != (1, 2)
    with pytest.raises(TypeError):
        GroupElement((1, 2)) < Character((1, 2))  # noqa: B015


def test_defaults_and_checks_run_in_the_constructor():
    assert CyclotomicNumber(3, (2, 4)) == CyclotomicNumber(3, (1, 2), denominator=1) * 2
    assert CyclotomicNumber(3, (2, 4), 2).numerators == (1, 2)
    assert CyclotomicNumber(3, (1, 2)).denominator == 1
    report = DecompositionReport(True, 6)
    assert (report.first_differing_key, report.lhs_value, report.rhs_value) == (None, None, None)
    with pytest.raises(ValueError, match=r"pairing residues must lie in \[0, 4\), got \(4,\)$"):
        GerbeSpec(4, (4,))
    with pytest.raises(ValueError, match="not in lowest terms"):
        ContactType(2, 4)
    # list fields are stored as tuples, as the checks already did
    assert ModularGraph(*map(list, LOOP)) == ModularGraph(*LOOP)
    assert FiniteAbelianGroup([2, 3]).cyclic_orders == (2, 3)


def test_private_constructors_fill_the_same_fields():
    base = ModularGraph(*LOOP)
    assert GerbyGraph._trusted(base, (2,), (4,)) == GerbyGraph(base, (2,), (4,))
    assert CyclotomicNumber(3, (2, 4), 2) == CyclotomicNumber(3, (1, 2))
    # derived graph data is not a field, so equal graphs stay equal
    assert base._edges == ((1, 2),) and "_edges" not in ModularGraph._fields
