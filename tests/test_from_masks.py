"""`MonomialIdeal.from_masks` against `from_monomials`.

The two checked constructors minimalize with different kernels,
`antichain` on support masks and `minimal_exponents` on exponent tuples,
so on squarefree input they must give the same generators in the same
canonical order, and reject 1 alike.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from kdecomp import ImproperIdealError, MonomialIdeal, VariableContext
from kdecomp.monomials import bits


@st.composite
def mask_lists(draw):
    """Support masks over 1-6 variables, with duplicates and nested masks,
    sometimes the empty mask and sometimes a bit past the context."""
    n = draw(st.integers(1, 6))
    pool = draw(st.lists(st.integers(1, 2**n - 1), min_size=1, max_size=6))
    masks = draw(st.lists(st.sampled_from(pool), max_size=10))
    masks += [m & draw(st.integers(0, 2**n - 1)) or m for m in pool[:2]]
    if draw(st.integers(0, 5)) == 0:
        masks.append(0)
    if draw(st.integers(0, 5)) == 0:
        masks.append(1 << n | draw(st.integers(0, 2**n - 1)))
    return n, draw(st.permutations(masks))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(mask_lists())
def test_from_masks_matches_from_monomials(case):
    n, masks = case
    ctx = VariableContext(tuple(f"x{i}" for i in range(n)))
    if any(m >> n for m in masks):
        with pytest.raises(ValueError, match="outside the context"):
            MonomialIdeal.from_masks(ctx, masks)
    elif 0 in masks:
        with pytest.raises(ImproperIdealError, match="generators contain 1"):
            MonomialIdeal.from_masks(ctx, masks)
    else:
        got = MonomialIdeal.from_masks(ctx, masks)
        monomials = [ctx.monomial_of_set(bits(m)) for m in masks]
        assert got.exps == MonomialIdeal.from_monomials(ctx, monomials).exps
