from __future__ import annotations

import pytest

from kdecomp import VariableContext


@pytest.fixture
def ctx3():
    return VariableContext.of("x", "y", "z")


@pytest.fixture
def ctx4():
    return VariableContext.of("x", "y", "z", "w")


def mono(ctx, text: str):
    """Build a monomial from a compact string like 'x^2*y' (test helper)."""
    from kdecomp.documents import exponents_from_string

    return ctx.monomial(exponents_from_string(text, ctx))


def dim(delta) -> int:
    """Dimension of a non-void complex: its largest facet size minus one."""
    return max(f.bit_count() for f in delta.facet_masks) - 1


def ideal(ctx, *texts: str):
    from kdecomp import MonomialIdeal

    return MonomialIdeal.from_monomials(ctx, [mono(ctx, t) for t in texts])
