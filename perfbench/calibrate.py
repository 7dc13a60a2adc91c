"""A fixed reference computation that measures how fast the host runs now.

The benchmark shares its machine with other work, and the speed it gets
drifts by a third within minutes, moving all workloads together.  The
benchmark times this reference next to the work it measures and rescales
each time to the speed at which the reference takes REFERENCE_NS.  The reference uses no kdecomp
code, only the operations kdecomp's inner loops are made of: small
frozen objects, exponent tuples, frozensets, memo dicts and sorting.
A change to kdecomp therefore cannot move it.
"""

from __future__ import annotations

from time import perf_counter_ns

# About the median time of one reference() call on a 2-vCPU x86-64 VM
# shared with other tenants, Python 3.11.7 (1.3-2.5 ms as the host's load
# changes).  It only fixes the scale of the reported figures.
REFERENCE_NS = 2_000_000

# Cold starts gain less from a faster CPU than the reference does (part of
# them is the kernel starting a process), so they are rescaled by the start
# of a bare interpreter instead, which no kdecomp code takes part in.
# About its median on the same VM (40-60 ms); it fixes the scale of setup_s.
INTERPRETER_START_S = 0.05


class _Mono:
    __slots__ = ("exps",)

    def __init__(self, exps):
        self.exps = exps

    def lcm(self, other):
        return _Mono(tuple(max(a, b) for a, b in zip(self.exps, other.exps)))

    def divides(self, other):
        return all(a <= b for a, b in zip(self.exps, other.exps))

    def support(self):
        return frozenset(i for i, a in enumerate(self.exps) if a)


_GENS = [
    _Mono(tuple((7 * i + 3 * j * j) % 4 for j in range(6))) for i in range(8)
]


def reference() -> int:
    """Deterministic pure-Python work of about REFERENCE_NS; returns a checksum."""
    total = 0
    for r in range(2):
        memo: dict = {}
        for a in _GENS:
            for b in _GENS:
                m = a.lcm(b)
                key = m.support() | {r}
                if key not in memo:
                    memo[key] = sorted(key)
                total += len(memo[key]) + sum(1 for g in _GENS if g.divides(m))
    return total


def timed_reference() -> int:
    """Nanoseconds one reference() call takes now."""
    start = perf_counter_ns()
    reference()
    return perf_counter_ns() - start
