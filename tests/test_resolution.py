from __future__ import annotations

from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

from kdecomp import (
    MonomialIdeal,
    QuotientOrder,
    SimplicialComplex,
    VariableContext,
    ZeroIdealError,
    betti_from_order,
    betti_hochster,
    betti_koszul,
    betti_recursive,
    bight,
    binom,
    colon_is_variable_generated,
    delete_face,
    k_decomposable_complex,
    k_decomposable_ideal,
    linear_quotients_order,
    link,
    order_from_certificate,
    pd_reg_from_certificate,
    reg_pd_complex,
    stanley_reisner_ideal,
    terao_check,
)
from kdecomp.homology import oracle_complex_reg_pd, oracle_quotient_reg_pd
from kdecomp.generators import (
    random_complex,
    random_monomial_ideal,
)

from conftest import ideal, mono


def names(ctx, s):
    return sorted(ctx.names[i] for i in s)


def test_vandermonde_identity():
    for k in range(13):
        for m in range(13):
            for i in range(13):
                assert binom(k + m, i) == sum(
                    binom(m, l) * binom(k, i - l) for l in range(m + 1)
                )


def test_colon_is_variable_generated(ctx3):
    ctx4 = VariableContext.of("x", "y", "z", "w")
    assert colon_is_variable_generated(
        [mono(ctx3, "x*y")], mono(ctx3, "x*z")
    ) == frozenset({1})
    ctx2 = VariableContext.of("x", "y")
    assert colon_is_variable_generated(
        [mono(ctx2, "x^2"), mono(ctx2, "x*y")], mono(ctx2, "y^2")
    ) == frozenset({0})
    assert (
        colon_is_variable_generated([mono(ctx4, "x*y")], mono(ctx4, "z*w")) is None
    )
    assert colon_is_variable_generated([], mono(ctx3, "x")) == frozenset()


def test_linear_quotients_order_goldens(ctx3):
    ctx2 = VariableContext.of("x", "y")
    q = linear_quotients_order(ideal(ctx2, "x^2", "x*y", "y^2"))
    assert [str(m) for m in q.order] == ["x^2", "x*y", "y^2"]
    assert [names(ctx2, s) for s in q.sets] == [[], ["x"], ["x"]]

    q = linear_quotients_order(ideal(ctx3, "x*y", "x*z", "y*z"))
    assert [str(m) for m in q.order] == ["x*y", "x*z", "y*z"]
    assert [names(ctx3, s) for s in q.sets] == [[], ["y"], ["x"]]

    ctx4 = VariableContext.of("x", "y", "z", "w")
    assert linear_quotients_order(ideal(ctx4, "x*y", "z*w")) is None

    with pytest.raises(ZeroIdealError):
        from kdecomp import MonomialIdeal

        linear_quotients_order(MonomialIdeal.from_monomials(ctx3, []))


def test_order_from_certificate(ctx3):
    cert = k_decomposable_ideal(ideal(ctx3, "x*y", "x*z", "y*z"), 0)
    q = order_from_certificate(cert)
    assert [str(m) for m in q.order] == ["x*y", "x*z", "y*z"]
    assert names(ctx3, q.sets[2]) == ["x"]
    q.verify()

    ctx2 = VariableContext.of("x", "y")
    cert = k_decomposable_ideal(ideal(ctx2, "x^2", "x*y", "y^2"), 0)
    q = order_from_certificate(cert)
    assert [str(m) for m in q.order] == ["x^2", "x*y", "y^2"]

    leaf = k_decomposable_ideal(ideal(ctx3, "x*y"), -1)
    q = order_from_certificate(leaf)
    assert len(q.order) == 1 and q.sets == (frozenset(),)


def test_set_disjointness_from_shedding_support(ctx4):
    # on the link part the recorded set never meets the shedding support
    rng = Random(53)
    found = 0
    while found < 40:
        i = random_monomial_ideal(rng, ctx4, 7, 2)
        cert = k_decomposable_ideal(i, 2)
        if cert is None:
            continue
        order_from_certificate(cert)  # raises if the disjoint union fails
        found += 1


def test_betti_from_order_goldens(ctx3):
    i = ideal(ctx3, "x*y", "x*z", "y*z")
    t = betti_from_order(i, linear_quotients_order(i))
    assert dict(t.items()) == {(0, 2): 3, (1, 3): 2}
    assert t == betti_hochster(i)

    ctx2 = VariableContext.of("x", "y")
    i2 = ideal(ctx2, "x^2", "x*y", "y^2")
    t2 = betti_from_order(i2, linear_quotients_order(i2))
    assert t2 == betti_koszul(i2)

    principal = ideal(ctx3, "x*y*z")
    t3 = betti_from_order(principal, linear_quotients_order(principal))
    assert dict(t3.items()) == {(0, 3): 1}


def test_betti_from_order_reads_its_ideal(ctx3):
    tri = ideal(ctx3, "x*y", "x*z", "y*z")
    other = ideal(ctx3, "x^2", "x*y")
    with pytest.raises(ValueError, match="does not list the generators"):
        betti_from_order(tri, linear_quotients_order(other))
    # a proper part of the generators is refused too
    order = linear_quotients_order(tri)
    part = QuotientOrder(order.order[:2], order.sets[:2])
    with pytest.raises(ValueError, match="does not list the generators"):
        betti_from_order(tri, part)


def test_betti_recursive_goldens(ctx3):
    cert = k_decomposable_ideal(ideal(ctx3, "x*y", "x*z", "y*z"), 0)
    t = betti_recursive(cert)
    assert t[(1, 3)] == 2 and t[(0, 2)] == 3

    leaf = k_decomposable_ideal(ideal(ctx3, "x*y"), -1)
    assert dict(betti_recursive(leaf).items()) == {(0, 2): 1}


def test_three_way_agreement_random(ctx4):
    rng = Random(101)
    found = 0
    while found < 50:
        i = random_monomial_ideal(rng, ctx4, 8, 3)
        cert = k_decomposable_ideal(i, 2)
        if cert is None:
            continue
        t_rec = betti_recursive(cert)
        t_ord = betti_from_order(i, order_from_certificate(cert))
        t_oracle = betti_koszul(i)
        assert t_rec == t_ord == t_oracle
        found += 1


@st.composite
def small_ideals(draw):
    """Nonzero ideals on 1-6 variables from 2-6 distinct words in the
    variables, each of length d or d + 1 for some d <= 3.  Distinct words
    of one length never divide each other, so few generators are lost to
    minimalization, and most of these ideals decompose."""
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, 3))
    word = st.lists(st.integers(0, n - 1), min_size=d, max_size=d + 1).map(sorted).map(tuple)
    words = draw(st.lists(word, min_size=2, max_size=6, unique=True))
    ctx = VariableContext(tuple(f"x{i}" for i in range(n)))
    return MonomialIdeal.from_monomials(ctx, [ctx.monomial(map(w.count, range(n))) for w in words])


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(small_ideals())
def test_three_way_betti_agreement(i):
    cert = k_decomposable_ideal(i, -1)
    assume(cert is not None)
    oracle = betti_koszul(i)
    assert betti_recursive(cert) == oracle
    assert betti_from_order(i, order_from_certificate(cert)) == oracle
    assert pd_reg_from_certificate(cert) == (oracle.pd, oracle.reg)


def test_pd_reg_from_certificate(ctx3):
    cert = k_decomposable_ideal(ideal(ctx3, "x*y", "x*z", "y*z"), 0)
    assert pd_reg_from_certificate(cert) == (1, 2)
    leaf = k_decomposable_ideal(ideal(ctx3, "x*y*z"), -1)
    assert pd_reg_from_certificate(leaf) == (0, 3)
    ctx2 = VariableContext.of("x", "y")
    cert2 = k_decomposable_ideal(ideal(ctx2, "x^2", "x*y", "y^2"), 0)
    assert pd_reg_from_certificate(cert2) == (1, 2)


def test_invariants_from_betti(ctx3):
    def pd_reg(table):
        return table.pd, table.reg

    assert pd_reg(betti_hochster(ideal(ctx3, "x*y", "x*z", "y*z"))) == (1, 2)
    assert pd_reg(betti_hochster(ideal(ctx3, "x*y*z"))) == (0, 3)
    assert pd_reg(betti_hochster(ideal(ctx3, "x", "y", "z"))) == (2, 1)
    from kdecomp import BettiTable

    empty = BettiTable({})
    with pytest.raises(ValueError, match="empty Betti table"):
        empty.pd
    with pytest.raises(ValueError, match="empty Betti table"):
        empty.reg


def test_reg_pd_complex_golden(ctx3):
    tri = SimplicialComplex.from_facets(ctx3, [[0, 1], [0, 2], [1, 2]])
    cert = k_decomposable_complex(tri, 0)
    assert reg_pd_complex(tri, cert) == (2, 1)
    full = SimplicialComplex.from_facets(ctx3, [[0, 1, 2]])
    assert reg_pd_complex(full, k_decomposable_complex(full, 0)) == (0, 0)


def test_reg_pd_complex_vs_oracle_random(ctx4):
    rng = Random(71)
    memo: dict = {}
    found = 0
    while found < 35:
        delta = random_complex(rng, ctx4, 4)
        cert = k_decomposable_complex(delta, 1, memo=memo)
        if cert is None:
            continue
        assert reg_pd_complex(delta, cert) == oracle_complex_reg_pd(delta)
        found += 1


def test_ha_inequality_arbitrary_faces(ctx4):
    from kdecomp.generators import random_face

    rng = Random(83)
    for _ in range(60):
        delta = random_complex(rng, ctx4, 4)
        sigma = random_face(rng, delta)
        reg = oracle_complex_reg_pd(delta)[0]
        reg_del = oracle_complex_reg_pd(delete_face(delta, sigma), ambient=delta.vertices)[0]
        reg_link = oracle_complex_reg_pd(link(delta, sigma), ambient=delta.vertices - sigma)[0]
        assert reg <= max(reg_del, reg_link + len(sigma))


def test_shedding_vertex_pd_identity(ctx4):
    # for a shedding vertex the deletion on the smaller ambient accounts
    # for exactly one extra step of projective dimension
    from kdecomp import ComplexNode

    rng = Random(89)
    memo: dict = {}
    found = 0
    while found < 25:
        delta = random_complex(rng, ctx4, 4)
        cert = k_decomposable_complex(delta, 0, memo=memo)
        if not isinstance(cert, ComplexNode):
            continue
        (x,) = cert.sigma
        deleted = delete_face(delta, {x})
        pd_total = oracle_complex_reg_pd(delta)[1]
        pd_small = oracle_complex_reg_pd(deleted, ambient=delta.vertices - {x})[1]
        pd_link = oracle_complex_reg_pd(link(delta, {x}), ambient=delta.vertices - {x})[1]
        assert pd_total == max(pd_small + 1, pd_link)
        found += 1


def test_terao_goldens(ctx3):
    assert terao_check(ideal(ctx3, "x*y", "y*z"))
    assert terao_check(ideal(ctx3, "x"))
    assert terao_check(ideal(ctx3, "x*y", "x*z", "y*z"))


def test_terao_random(ctx4):
    rng = Random(97)
    for _ in range(60):
        assert terao_check(random_monomial_ideal(rng, ctx4, 6, 1))


def test_bight_goldens(ctx3):
    assert bight(ideal(ctx3, "x*y*z")) == 1
    ctx2 = VariableContext.of("x", "y")
    assert bight(ideal(ctx2, "x", "y")) == 2
    assert bight(ideal(ctx3, "x*y", "x*z", "y*z")) == 2


def test_bight_equals_pd_for_decomposable(ctx4):
    rng = Random(103)
    memo: dict = {}
    found = 0
    while found < 30:
        delta = random_complex(rng, ctx4, 4)
        cert = k_decomposable_complex(delta, 2, memo=memo)
        if cert is None:
            continue
        i = stanley_reisner_ideal(delta)
        if i.is_zero:
            found += 1
            continue
        assert bight(i) == oracle_quotient_reg_pd(i)[1]
        found += 1


def test_decomposable_implies_linear_quotients(ctx4):
    rng = Random(107)
    found = 0
    while found < 30:
        i = random_monomial_ideal(rng, ctx4, 6, 2)
        cert = k_decomposable_ideal(i, -1)
        if cert is None:
            continue
        order = linear_quotients_order(i)
        assert order is not None
        assert len(order.order) == len(i.gens)
        assert set(order.order) == set(i.gens)
        for j, g in enumerate(order.order):
            assert colon_is_variable_generated(order.order[:j], g) == order.sets[j]
        found += 1


def test_betti_table_render(ctx3):
    table = betti_hochster(ideal(ctx3, "x*y", "x*z", "y*z"))
    assert table.render() == "        0  1\ntotal:  3  2\n    2:  3  2"
