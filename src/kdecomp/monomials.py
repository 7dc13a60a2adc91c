"""Variable contexts, monomials and minimally generated monomial ideals.

All values are immutable and hashable; every operation is pure.  Vertex
sets are frozensets of variable indices into a shared
:class:`VariableContext` at the API, and int masks (bit v for vertex v)
below it, in complexes, clutters, the searches and homology;
:func:`mask_of` and :func:`bits` convert, and
:meth:`MonomialIdeal.from_masks` builds squarefree ideals.

A :class:`MonomialIdeal` keeps its minimal generators as exponent tuples;
``gens`` views them as monomials.  Its checked constructors refuse 1 and
minimalize with one of two kernels: ``from_exponents``, which documents
read into and ``from_monomials`` goes through, with
:func:`minimal_exponents`, and ``from_masks`` with :func:`antichain`,
which complexes and clutters share.  Both kernels take their items by
degree and compare each only with the items kept from smaller degrees.
Direct construction checks nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count
from operator import le
from typing import Iterable

from .errors import ContextMismatchError, ImproperIdealError


@dataclass(frozen=True)
class VariableContext:
    """An ordered tuple of distinct variable names.

    The order is part of the contract: it fixes the lexicographic
    tie-breaking used by every deterministic search in the package.
    """

    names: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"variable names must be distinct: {self.names}")

    @classmethod
    def of(cls, *names: str) -> "VariableContext":
        return cls(tuple(names))

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    def monomial(self, exponents: Iterable[int]) -> "Monomial":
        return Monomial(self, tuple(exponents))

    def monomial_of_set(self, vertices: Iterable[int]) -> "Monomial":
        """The squarefree monomial whose support is exactly `vertices`."""
        exps = [0] * self.n
        for v in vertices:
            exps[v] = 1
        return Monomial(self, tuple(exps))

    def set_names(self, vertices: Iterable[int]) -> list[str]:
        return [self.names[v] for v in sorted(vertices)]


@dataclass(frozen=True)
class Monomial:
    """A monomial as a dense exponent vector; the zero vector is 1."""

    ctx: VariableContext
    exponents: tuple[int, ...]

    def __post_init__(self):
        if len(self.exponents) != self.ctx.n:
            raise ValueError("exponent vector length does not match context")
        if any(e < 0 for e in self.exponents):
            raise ValueError(f"negative exponent in {self.exponents}")

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    @property
    def is_one(self) -> bool:
        return all(e == 0 for e in self.exponents)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(i for i, e in enumerate(self.exponents) if e)

    def colon(self, other: "Monomial") -> "Monomial":
        """self : other, i.e. self / gcd(self, other), componentwise max(a-b, 0)."""
        self._check(other)
        return Monomial(
            self.ctx,
            tuple(max(a - b, 0) for a, b in zip(self.exponents, other.exponents)),
        )

    def _check(self, other: "Monomial") -> None:
        if self.ctx != other.ctx:
            raise ContextMismatchError("monomials live in different contexts")

    def __str__(self) -> str:
        if self.is_one:
            return "1"
        parts = []
        for i, e in enumerate(self.exponents):
            if e == 1:
                parts.append(self.ctx.names[i])
            elif e > 1:
                parts.append(f"{self.ctx.names[i]}^{e}")
        return "*".join(parts)


def mask_of(vertices: Iterable[int]) -> int:
    """The int mask of a vertex set: bit v is set for each vertex v."""
    return sum({1 << v for v in vertices})


def bits(mask: int) -> list[int]:
    """The vertices of an int mask, in increasing order."""
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def antichain(masks: Iterable[int], minimal: bool = False) -> tuple[int, ...]:
    """The inclusion-maximal int masks of `masks`, or the inclusion-minimal
    ones when `minimal` is set, sorted ascending; duplicates count once.
    Masks are taken largest (smallest) first, and each is compared only with
    the masks kept from earlier sizes: two distinct masks of one size never
    contain each other, so a size's survivors join `kept` when it ends."""
    kept: list[int] = []
    level: list[int] = []
    for m in sorted(set(masks), key=int.bit_count, reverse=not minimal):
        if level and level[0].bit_count() != m.bit_count():
            kept += level
            level = []
        if not any((k & m == k) if minimal else (k & m == m) for k in kept):
            level.append(m)
    kept += level
    kept.sort()
    return tuple(kept)


def _exponent_tuples(masks: Iterable[int], n: int) -> list[tuple[int, ...]]:
    # tuple([...]), not tuple(genexpr): the latter measurably raised peak memory
    return [tuple([m >> v & 1 for v in range(n)]) for m in masks]


def minimal_exponents(exps: Iterable[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """Drop every exponent tuple that another one divides; canonical order.

    The canonical listing order used everywhere in the package is
    decreasing lexicographic order on exponent vectors (x before y, so
    e.g. x*y < x*z < y*z as a listing).  Tuples are taken by increasing
    total degree, and each is compared only with the tuples kept from
    smaller degrees: a proper divisor has a smaller degree, and two
    distinct tuples of one degree never divide each other, so a degree's
    survivors join `kept` when it ends, as in :func:`antichain`.  A kept
    tuple whose support is not inside the candidate's cannot divide it,
    so its exponents are compared only when its support mask fits.
    """
    kept: list[tuple[int, tuple[int, ...]]] = []
    level: list[tuple[int, tuple[int, ...]]] = []
    last = -1
    for degree, e in sorted([(sum(e), e) for e in set(exps)]):
        if degree != last:
            kept += level
            level, last = [], degree
        support = mask_of(compress(count(), e))
        for s, k in kept:
            if s & support == s and all(map(le, k, e)):
                break
        else:
            level.append((support, e))
    kept += level
    return tuple(sorted([e for _, e in kept], reverse=True))


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by its minimal generating set.

    `exps` holds the minimal generators as exponent tuples, pairwise
    incomparable under divisibility and in the canonical order of
    :func:`minimal_exponents`.  The empty tuple is the zero ideal; the
    unit ideal is not representable.  Direct construction does not check
    any of that; `from_exponents`, `from_monomials` and `from_masks` do.
    """

    ctx: VariableContext
    exps: tuple[tuple[int, ...], ...]

    @classmethod
    def from_exponents(
        cls, ctx: VariableContext, exps: Iterable[tuple[int, ...]]
    ) -> "MonomialIdeal":
        """Minimalize a generating set of exponent tuples; raises if 1
        occurs.  Each tuple must fit `ctx`, which is not checked."""
        exps = list(exps)
        if not all(map(any, exps)):
            raise ImproperIdealError("generators contain 1 (unit ideal)")
        return cls(ctx, minimal_exponents(exps))

    @classmethod
    def from_monomials(
        cls, ctx: VariableContext, monomials: Iterable[Monomial]
    ) -> "MonomialIdeal":
        """Minimalize a generating set; raises if 1 occurs, then if a
        generator lives in another context."""
        monomials = list(monomials)
        ideal = cls.from_exponents(ctx, [m.exponents for m in monomials])
        if any(m.ctx != ctx for m in monomials):
            raise ContextMismatchError("generator from a different context")
        return ideal

    @classmethod
    def from_masks(cls, ctx: VariableContext, masks: Iterable[int]) -> "MonomialIdeal":
        """Minimalize the squarefree monomials with the given support masks;
        raises if 1 (the empty mask) occurs."""
        masks, n = list(masks), ctx.n
        if any(m >> n for m in masks):
            raise ValueError("vertex index outside the context")
        minimal = antichain(masks, minimal=True)
        if minimal[:1] == (0,):
            raise ImproperIdealError("generators contain 1 (unit ideal)")
        return cls(ctx, tuple(sorted(_exponent_tuples(minimal, n), reverse=True)))

    @cached_property
    def gens(self) -> tuple[Monomial, ...]:
        """The minimal generators as monomials, in canonical order."""
        return tuple(Monomial(self.ctx, e) for e in self.exps)

    @property
    def is_zero(self) -> bool:
        return not self.exps

    @property
    def is_squarefree(self) -> bool:
        return all(max(e) <= 1 for e in self.exps)

    def __str__(self) -> str:
        if self.is_zero:
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.gens) + ")"
