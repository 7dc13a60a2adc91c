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
        rows = range(
            min(j - i for i, j in self._entries),
            max(j - i for i, j in self._entries) + 1,
        )
        grid = {
            (r, i): str(self[(i, i + r)]) if self[(i, i + r)] else "."
            for r in rows
            for i in cols
        }
        totals = {i: str(self.total(i)) for i in cols}
        width = max(
            max(len(v) for v in grid.values()),
            max(len(t) for t in totals.values()),
            max(len(str(i)) for i in cols),
        )
        label_width = max(len("total:"), *(len(f"{r}:") for r in rows))
        lines = [
            " " * label_width
            + "  "
            + "  ".join(f"{i:>{width}}" for i in cols)
        ]
        lines.append(
            f"{'total:':>{label_width}}"
            + "  "
            + "  ".join(f"{totals[i]:>{width}}" for i in cols)
        )
        for r in rows:
            lines.append(
                f"{f'{r}:':>{label_width}}"
                + "  "
                + "  ".join(f"{grid[(r, i)]:>{width}}" for i in cols)
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"BettiTable({dict(self.items())!r})"
