"""`linear_quotients_order` against a reference copy of its search.

The reference keys its failed prefixes by the frozenset of placed
generators, as the search once did; the search keys them by an int mask
of generator indices.  Both try generators in canonical order, so they
must return the same order and colon sets, or both None.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from kdecomp import (
    MonomialIdeal,
    QuotientOrder,
    VariableContext,
    colon_is_variable_generated,
    linear_quotients_order,
)


def reference_order(ideal: MonomialIdeal) -> QuotientOrder | None:
    gens = list(ideal.gens)
    dead = set()

    def extend(prefix, sets):
        if len(prefix) == len(gens):
            return QuotientOrder(tuple(prefix), tuple(sets))
        placed = frozenset(prefix)
        if placed in dead:
            return None
        for g in gens:
            if g in placed:
                continue
            s = colon_is_variable_generated(prefix, g)
            if s is None:
                continue
            prefix.append(g)
            sets.append(s)
            found = extend(prefix, sets)
            if found is not None:
                return found
            prefix.pop()
            sets.pop()
        dead.add(placed)
        return None

    return extend([], [])


def ideal_of(n, *vectors):
    ctx = VariableContext(tuple(f"x{i}" for i in range(n)))
    return MonomialIdeal.from_monomials(ctx, [ctx.monomial(v) for v in vectors])


@st.composite
def ideals(draw):
    """Nonzero ideals on 2-4 variables, squarefree a third of the time."""
    n = draw(st.integers(2, 4))
    top = draw(st.sampled_from([1, 2, 3]))
    vectors = draw(
        st.lists(st.tuples(*[st.integers(0, top)] * n).filter(any), min_size=1, max_size=7)
    )
    return ideal_of(n, *vectors)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(ideals())
# a memo that took a placed set for the same set plus gens[0] answers
# these two differently; random ideals rarely show that
@example(ideal_of(4, [2, 0, 2, 0], [1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 0, 1]))
@example(ideal_of(5, [2, 0, 0, 1, 0], [0, 1, 0, 1, 0], [0, 1, 0, 0, 1], [0, 0, 1, 1, 0]))
def test_linear_quotients_order_matches_reference(ideal):
    assert linear_quotients_order(ideal) == reference_order(ideal)
