"""Frozen value records without the ``dataclasses`` machinery.

A record class lists its fields in ``_fields`` and writes its own
``__init__``, which stores each field through ``setfield`` and runs the
class's checks.  Subclassing ``Record`` adds, from ``_fields``:

- ``__eq__`` and ``__hash__`` on the tuple of field values, unless the class
  is declared with ``eq=False``, as a class that defines its own equality
  must be (it keeps what it defines, or the identity comparison of
  ``object``); records of different classes never compare equal;
- with ``order=True``, ``<``, ``<=``, ``>`` and ``>=`` on that tuple;
- ``__repr__`` as ``Name(field=value, ...)``, unless the class defines one;
- ``__setattr__`` and ``__delattr__`` that raise AttributeError.

These are what ``@dataclass(frozen=True, ...)`` generated for these
classes, with the same values, hashes and texts, but they are plain
closures over an ``operator.attrgetter``: nothing is compiled when a class
is defined, and ``inspect`` is never imported.
"""

from __future__ import annotations

import operator

# Stores a field past the frozen __setattr__.  Unlike a write through
# __dict__, it keeps the instance's attributes in CPython's compact
# per-instance layout (3.11+), which takes less memory and reads faster.
setfield = object.__setattr__


def _values_of(fields: tuple[str, ...]):
    """The function that gives a record's field values as a tuple."""
    getter = operator.attrgetter(*fields)
    if len(fields) > 1:
        return getter
    return lambda record: (getter(record),)


def _comparison(values, compare):
    """A method comparing the field values of two records of one class."""

    def method(self, other):
        if other.__class__ is self.__class__:
            return compare(values(self), values(other))
        return NotImplemented

    return method


class Record:
    """Base of the package's frozen records; see the module docstring."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, *, eq: bool = True, order: bool = False, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        values = _values_of(cls._fields)
        names = ("__eq__",) * eq + ("__lt__", "__le__", "__gt__", "__ge__") * order
        for name in names:
            method = _comparison(values, getattr(operator, name))
            method.__name__, method.__qualname__ = name, f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)
        if eq:
            cls.__hash__ = lambda self: hash(values(self))
        cls.__match_args__ = cls._fields

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
