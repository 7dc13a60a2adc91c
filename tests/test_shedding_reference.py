"""The shedding test against a reference written from the definition.

For u != 1 the predicate [u, M] = 1 says that no x_i^{u_i} with u_i > 0
divides M; it splits G(I) into I^u (the predicate fails) and I_u (it
holds).  u sheds I when I_u != 0 and, for every m in G(I_u) and every
i in supp(u), some g in G(I^u) has g : m = x_i.  The reference below
spells this out with Monomial.divides and Monomial.colon, so it shares
no code with the exponent-vector routine behind `split`, `matches` and
`is_shedding_monomial`.
"""

from __future__ import annotations

from itertools import combinations, product

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from kdecomp import (
    MonomialIdeal,
    VariableContext,
    is_shedding_monomial,
    matches,
    split,
)


def matches_by_definition(u, m) -> bool:
    ctx = u.ctx
    return not any(
        ctx.monomial(a if j == i else 0 for j in range(ctx.n)).divides(m)
        for i, a in enumerate(u.exponents)
        if a
    )


def sheds_by_definition(ideal, u) -> bool:
    upper = [g for g in ideal.gens if not matches_by_definition(u, g)]
    lower = [g for g in ideal.gens if matches_by_definition(u, g)]
    return bool(lower) and all(
        any(g.colon(m) == ideal.ctx.variable(i) for g in upper)
        for m in lower
        for i in u.support
    )


def candidates(ideal):
    """Every u with a support of size at most 3 whose exponents occur in
    the generators (or are 1)."""
    ctx = ideal.ctx
    exps = [
        sorted({1} | {g.exponents[i] for g in ideal.gens if g.exponents[i]})
        for i in range(ctx.n)
    ]
    for r in range(1, min(3, ctx.n) + 1):
        for supp in combinations(range(ctx.n), r):
            for choice in product(*(exps[i] for i in supp)):
                vec = [0] * ctx.n
                for i, e in zip(supp, choice):
                    vec[i] = e
                yield ctx.monomial(vec)


@st.composite
def ideals(draw):
    """Nonzero ideals on 2-4 variables; a top exponent of 1 makes them
    squarefree."""
    n = draw(st.integers(2, 4))
    top = draw(st.integers(1, 3))
    vectors = draw(
        st.lists(
            st.tuples(*[st.integers(0, top)] * n).filter(any),
            min_size=1,
            max_size=7,
        )
    )
    ctx = VariableContext(tuple("xyzw"[:n]))
    return MonomialIdeal.from_monomials(ctx, [ctx.monomial(v) for v in vectors])


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(ideals())
def test_shedding_test_matches_definition(ideal):
    for u in candidates(ideal):
        upper, lower = split(ideal, u)
        assert upper.gens == tuple(
            g for g in ideal.gens if not matches_by_definition(u, g)
        )
        assert lower.gens == tuple(g for g in ideal.gens if matches_by_definition(u, g))
        assert all(matches(u, g) == matches_by_definition(u, g) for g in ideal.gens)
        assert is_shedding_monomial(ideal, u) == sheds_by_definition(ideal, u), str(u)
