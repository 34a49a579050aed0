"""Finite abelian groups, their characters, and exact orthogonality sums.

A group is presented as an explicit list of cyclic orders (no normal-form
canonicalization across presentations).  Character values live in the one
field Q(zeta_L) with L the exponent of the group, so values of different
characters of the same group compare without re-embedding.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce

from ._record import Record, setfield
from .exactnum import CyclotomicNumber, root_of_unity


class GroupElement(Record):
    _fields = ("residues",)
    residues: tuple[int, ...]

    def __init__(self, residues: tuple[int, ...]) -> None:
        setfield(self, "residues", residues)


class Character(Record):
    """An element of the dual group, stored by its residue tuple."""

    _fields = ("residues",)
    residues: tuple[int, ...]

    def __init__(self, residues: tuple[int, ...]) -> None:
        setfield(self, "residues", residues)


class FiniteAbelianGroup(Record):
    """The product of cyclic groups Z/n_1 x ... x Z/n_t (empty product = trivial)."""

    _fields = ("cyclic_orders",)
    cyclic_orders: tuple[int, ...]

    def __init__(self, cyclic_orders: tuple[int, ...]) -> None:
        if any(n < 1 for n in cyclic_orders):
            raise ValueError(f"cyclic orders must be positive, got {cyclic_orders}")
        setfield(self, "cyclic_orders", tuple(cyclic_orders))

    @property
    def order(self) -> int:
        return math.prod(self.cyclic_orders)

    @property
    def exponent(self) -> int:
        # lcm of the cyclic orders; 1 for the trivial group
        return reduce(math.lcm, self.cyclic_orders, 1)

    def _check_shape(self, residues: tuple[int, ...], what: str) -> None:
        if len(residues) != len(self.cyclic_orders):
            raise ValueError(
                f"{what} has {len(residues)} residues, group has rank {len(self.cyclic_orders)}"
            )

    def element(self, residues) -> GroupElement:
        residues = tuple(residues)
        self._check_shape(residues, "element")
        return GroupElement(tuple(x % n for x, n in zip(residues, self.cyclic_orders)))

    def character(self, residues) -> Character:
        residues = tuple(residues)
        self._check_shape(residues, "character")
        return Character(tuple(x % n for x, n in zip(residues, self.cyclic_orders)))

    def identity(self) -> GroupElement:
        return GroupElement((0,) * len(self.cyclic_orders))

    def compose(self, a: GroupElement, b: GroupElement) -> GroupElement:
        self._check_shape(a.residues, "element")
        self._check_shape(b.residues, "element")
        return GroupElement(
            tuple((x + y) % n for x, y, n in zip(a.residues, b.residues, self.cyclic_orders))
        )

    def inverse(self, a: GroupElement) -> GroupElement:
        self._check_shape(a.residues, "element")
        return GroupElement(tuple((-x) % n for x, n in zip(a.residues, self.cyclic_orders)))


def enumerate_elements(group: FiniteAbelianGroup) -> list[GroupElement]:
    """All group elements, lexicographically ordered by residue tuple."""
    return [
        GroupElement(t)
        for t in itertools.product(*(range(n) for n in group.cyclic_orders))
    ]


def enumerate_characters(group: FiniteAbelianGroup) -> list[Character]:
    """All characters, lexicographically ordered by residue tuple."""
    return [
        Character(t)
        for t in itertools.product(*(range(n) for n in group.cyclic_orders))
    ]


def evaluate_character(
    group: FiniteAbelianGroup, rho: Character, g: GroupElement
) -> CyclotomicNumber:
    """The character value prod_i zeta_{n_i}^(rho_i * g_i) in Q(zeta_exponent)."""
    group._check_shape(rho.residues, "character")
    group._check_shape(g.residues, "element")
    ell = group.exponent
    exponent = 0
    for n, r_i, g_i in zip(group.cyclic_orders, rho.residues, g.residues):
        exponent += (ell // n) * r_i * g_i
    return root_of_unity(exponent % ell, ell)


def orthogonality_sum(
    group: FiniteAbelianGroup, rho: Character, rho2: Character
) -> CyclotomicNumber:
    """(1/|G|) sum over g of chi_rho(g^-1) chi_rho2(g); 1 when rho = rho2, else 0."""
    total = CyclotomicNumber.zero(group.exponent)
    for g in enumerate_elements(group):
        total = total + evaluate_character(group, rho, group.inverse(g)) * evaluate_character(
            group, rho2, g
        )
    return total / group.order
