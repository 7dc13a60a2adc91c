"""Sparse graded Betti tables and exact binomial coefficients."""

from __future__ import annotations

from math import comb


def binom(n: int, k: int) -> int:
    """C(n, k), zero outside 0 <= k <= n.  Exact arbitrary precision."""
    if k < 0 or k > n or n < 0:
        return 0
    return comb(n, k)


class BettiTable:
    """Finite mapping (i, j) -> positive count of graded Betti numbers."""

    __slots__ = ("_entries",)

    def __init__(self, entries):
        cleaned: dict[tuple[int, int], int] = {}
        for (i, j), count in dict(entries).items():
            if count < 0:
                raise ValueError(f"negative Betti count at {(i, j)}")
            if count:
                cleaned[(int(i), int(j))] = int(count)
        self._entries = cleaned

    def __getitem__(self, key: tuple[int, int]) -> int:
        return self._entries.get(key, 0)

    def items(self):
        return sorted(self._entries.items())

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BettiTable):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self):
        return hash(tuple(self.items()))

    @property
    def pd(self) -> int:
        if not self._entries:
            raise ValueError("empty Betti table")
        return max(i for i, _ in self._entries)

    @property
    def reg(self) -> int:
        if not self._entries:
            raise ValueError("empty Betti table")
        return max(j - i for i, j in self._entries)

    def total(self, i: int) -> int:
        return sum(c for (ii, _), c in self._entries.items() if ii == i)

    def render(self) -> str:
        """Fixed text layout: columns by homological index i, rows by j - i,
        a total row, '.' for absent entries."""
        if not self._entries:
            return "(empty table)"
        cols = range(self.pd + 1)
        shifts = [j - i for i, j in self._entries]
        rows = [("", [str(i) for i in cols]), ("total:", [str(self.total(i)) for i in cols])]
        rows += [
            (f"{r}:", [str(self[(i, i + r)] or ".") for i in cols])
            for r in range(min(shifts), max(shifts) + 1)
        ]
        width = max(len(cell) for _, cells in rows for cell in cells)
        label_width = max(len(label) for label, _ in rows)
        return "\n".join(
            f"{label:>{label_width}}  " + "  ".join(f"{cell:>{width}}" for cell in cells)
            for label, cells in rows
        )

    def __repr__(self) -> str:
        return f"BettiTable({dict(self.items())!r})"
