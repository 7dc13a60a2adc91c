from __future__ import annotations

from operator import le
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from kdecomp import (
    ContextMismatchError,
    ImproperIdealError,
    MonomialIdeal,
    VariableContext,
)
from kdecomp.documents import parse_object
from kdecomp.generators import random_monomial
from kdecomp.monomials import minimal_exponents

from conftest import ideal, mono


def test_context_rejects_duplicate_names():
    with pytest.raises(ValueError):
        VariableContext.of("x", "x")


def test_colon_componentwise(ctx3):
    # oracle: componentwise max(a - b, 0)
    f, g = mono(ctx3, "x*y"), mono(ctx3, "y*z")
    assert f.colon(g) == mono(ctx3, "x")
    assert f.colon(f).is_one
    assert mono(ctx3, "x^2").colon(mono(ctx3, "y^2")) == mono(ctx3, "x^2")


def test_colon_random_matches_componentwise_oracle(ctx4):
    rng = Random(11)
    for _ in range(200):
        f = random_monomial(rng, ctx4, 4)
        g = random_monomial(rng, ctx4, 4)
        expect = tuple(max(a - b, 0) for a, b in zip(f.exponents, g.exponents))
        assert f.colon(g).exponents == expect


def test_colon_context_mismatch(ctx3, ctx4):
    with pytest.raises(ContextMismatchError):
        mono(ctx3, "x").colon(mono(ctx4, "x"))


def test_support(ctx3):
    assert mono(ctx3, "x^2*y").support == frozenset({0, 1})
    assert mono(ctx3, "1").support == frozenset()
    assert mono(ctx3, "x*y*z").support == frozenset({0, 1, 2})


def test_monomial_of_set(ctx3):
    assert ctx3.monomial_of_set([]).is_one
    assert ctx3.monomial_of_set([0, 2]) == mono(ctx3, "x*z")
    assert ctx3.monomial_of_set([1]) == mono(ctx3, "y")


def test_minimalize(ctx3):
    assert MonomialIdeal.from_monomials(
        ctx3, [mono(ctx3, "x*y"), mono(ctx3, "x*y*z")]
    ) == ideal(ctx3, "x*y")
    assert MonomialIdeal.from_monomials(
        ctx3, [mono(ctx3, t) for t in ("x*y", "x*z", "y*z")]
    ) == ideal(ctx3, "x*y", "x*z", "y*z")
    assert MonomialIdeal.from_monomials(
        ctx3, [mono(ctx3, t) for t in ("x^2", "x^3", "y")]
    ) == ideal(ctx3, "x^2", "y")


def test_minimalize_rejects_unit(ctx3, ctx4):
    with pytest.raises(ImproperIdealError):
        MonomialIdeal.from_monomials(ctx3, [mono(ctx3, "1"), mono(ctx3, "x")])
    with pytest.raises(ContextMismatchError):
        MonomialIdeal.from_monomials(ctx3, [mono(ctx3, "x"), mono(ctx4, "x")])
    with pytest.raises(ContextMismatchError):
        MonomialIdeal.from_monomials(ctx3, [mono(ctx4, "x")])
    # the unit check runs first, over the whole set
    for gens in ([mono(ctx3, "1"), mono(ctx4, "x")], [mono(ctx4, "x"), mono(ctx3, "1")]):
        with pytest.raises(ImproperIdealError):
            MonomialIdeal.from_monomials(ctx3, gens)
    # direct construction checks nothing, so the checked constructors reject
    # 1; an exponent vector that does not fit the context is no monomial
    with pytest.raises(ImproperIdealError, match="generators contain 1"):
        MonomialIdeal.from_monomials(ctx3, [mono(ctx3, "x"), ctx3.monomial((0, 0, 0))])
    for bad in ((1, 0), (1, 0, 0, 0), (1, -1, 0)):
        with pytest.raises(ValueError):
            MonomialIdeal.from_monomials(ctx3, [ctx3.monomial(bad)])
    # support masks: the empty one is 1, and a bit past the context is no vertex
    assert MonomialIdeal.from_masks(ctx3, [0b011, 0b111, 0b100]) == ideal(ctx3, "x*y", "z")
    with pytest.raises(ImproperIdealError):
        MonomialIdeal.from_masks(ctx3, [0b001, 0])
    with pytest.raises(ValueError, match="outside the context"):
        MonomialIdeal.from_masks(ctx3, [0b001, 0b1000])


def minimal_by_all_pairs(exps):
    """Drop every tuple that another distinct tuple divides; decreasing lex order."""
    distinct = set(exps)
    kept = [
        e for e in distinct
        if not any(o != e and all(a <= b for a, b in zip(o, e)) for o in distinct)
    ]
    return tuple(sorted(kept, reverse=True))


def test_minimalize_idempotent_and_order_insensitive(ctx4):
    rng = Random(5)
    for _ in range(100):
        monomials = [random_monomial(rng, ctx4, 3) for _ in range(rng.randint(1, 8))]
        first = MonomialIdeal.from_monomials(ctx4, monomials)
        assert first.exps == minimal_by_all_pairs(m.exponents for m in monomials)
        rng.shuffle(monomials)
        assert MonomialIdeal.from_monomials(ctx4, monomials) == first
        assert MonomialIdeal.from_monomials(ctx4, first.gens) == first


@st.composite
def tuple_multisets(draw):
    """Exponent tuples of one length from 1 to 8, with duplicates and with
    permuted copies, which have the same degree and are often distinct."""
    n = draw(st.integers(1, 8))
    base = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=12))
    permuted = [tuple(draw(st.permutations(e))) for e in base[:4]]
    return draw(st.permutations(base + permuted + base[:3]))


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(tuple_multisets())
def test_minimal_exponents_matches_all_pairs(exps):
    assert minimal_exponents(exps) == minimal_by_all_pairs(exps)


def test_parse_forms_give_one_ideal():
    # strings, exponent lists, and exponent lists shuffled and repeated: one
    # ideal and one warning, as each holds the multiple x^3*y^2*z of x^2*y
    rng = Random(17)
    names = ["x", "y", "z", "w"]
    for _ in range(50):
        rows = [[rng.randint(0, 3) for _ in names] for _ in range(rng.randint(1, 7))]
        rows = [r for r in rows if any(r)] + [[2, 1, 0, 0], [3, 2, 1, 0]]
        texts = [
            "*".join(f"{v}^{e}" for v, e in zip(names, r) if e) for r in rows
        ]
        shuffled = rows + rows[: rng.randint(1, len(rows))]
        rng.shuffle(shuffled)
        parsed = [
            parse_object({"kind": "ideal", "vars": names, "gens": gens})
            for gens in (texts, rows, shuffled)
        ]
        assert parsed[0].value == parsed[1].value == parsed[2].value
        assert parsed[0].value.exps == minimal_by_all_pairs(map(tuple, rows))
        for p in parsed:
            assert p.warnings == ["duplicate or non-minimal generators were minimalized"]


def test_parse_refuses_a_unit_generator_in_either_form():
    for gens in (["x", "1"], ["x^0*y^0"], [[1, 0], [0, 0]], [[0, 0], "y"]):
        with pytest.raises(ImproperIdealError, match="generators contain 1"):
            parse_object({"kind": "ideal", "vars": ["x", "y"], "gens": gens})


def test_canonical_generator_order(ctx3):
    # generators list in decreasing lexicographic order of exponent vectors
    i = ideal(ctx3, "y*z", "x*y", "x*z")
    assert [str(g) for g in i.gens] == ["x*y", "x*z", "y*z"]


def contains(ideal, m) -> bool:
    """Monomial membership: some minimal generator divides m."""
    return any(all(map(le, g.exponents, m.exponents)) for g in ideal.gens)


def test_zero_ideal_and_membership(ctx3):
    zero = MonomialIdeal.from_monomials(ctx3, [])
    assert zero.is_zero
    i = ideal(ctx3, "x*y", "y*z")
    assert contains(i, mono(ctx3, "x*y*z"))
    assert not contains(i, mono(ctx3, "x*z"))
