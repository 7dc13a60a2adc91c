from __future__ import annotations

from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from kdecomp import (
    BudgetExceededError,
    ContextMismatchError,
    ImproperIdealError,
    IdealLeaf,
    IdealNode,
    ComplexLeaf,
    ComplexNode,
    InvalidCertificateError,
    MonomialIdeal,
    NotAFaceError,
    QuotientOrder,
    SimplicialComplex,
    VariableContext,
    ZeroIdealError,
    facet_complement_ideal,
    is_shedding_face,
    is_shedding_monomial,
    k_decomposable_complex,
    k_decomposable_ideal,
    split,
    verify_complex_certificate,
    verify_ideal_certificate,
)
from kdecomp.generators import random_complex, random_monomial_ideal
from kdecomp.monomials import bits

from conftest import ideal, mono


def test_matches(ctx3):
    """[u, M] = 1 exactly when split puts M in I_u."""
    assert split(ideal(ctx3, "y*z"), mono(ctx3, "x"))[1] == ideal(ctx3, "y*z")
    assert split(ideal(ctx3, "x*y"), mono(ctx3, "x"))[1].is_zero
    assert split(ideal(ctx3, "x*y"), mono(ctx3, "x^2"))[1] == ideal(ctx3, "x*y")
    with pytest.raises(ValueError):
        split(ideal(ctx3, "x"), mono(ctx3, "1"))


def test_split(ctx3):
    i = ideal(ctx3, "x*y", "x*z", "y*z")
    upper, lower = split(i, mono(ctx3, "x"))
    assert upper == ideal(ctx3, "x*y", "x*z")
    assert lower == ideal(ctx3, "y*z")

    ctx2 = VariableContext.of("x", "y")
    i2 = ideal(ctx2, "x^2", "x*y", "y^2")
    upper, lower = split(i2, mono(ctx2, "x"))
    assert upper == ideal(ctx2, "x^2", "x*y")
    assert lower == ideal(ctx2, "y^2")

    upper, lower = split(ideal(ctx3, "x*y"), mono(ctx3, "z"))
    assert upper.is_zero and lower == ideal(ctx3, "x*y")


def test_split_partitions_generators(ctx4):
    rng = Random(7)
    from kdecomp.generators import random_monomial

    for _ in range(100):
        i = random_monomial_ideal(rng, ctx4, 6, 3)
        u = random_monomial(rng, ctx4, 3)
        upper, lower = split(i, u)
        assert set(upper.gens) | set(lower.gens) == set(i.gens)
        assert not (set(upper.gens) & set(lower.gens))


def test_is_shedding_monomial(ctx3):
    assert is_shedding_monomial(ideal(ctx3, "x*y", "x*z", "y*z"), mono(ctx3, "x"))
    ctx2 = VariableContext.of("x", "y")
    assert is_shedding_monomial(ideal(ctx2, "x^2", "x*y", "y^2"), mono(ctx2, "x"))
    assert not is_shedding_monomial(ideal(ctx3, "x*y"), mono(ctx3, "x"))


def test_shedding_skips_empty_upper_part(ctx3):
    # u divides no generator: I^u = 0 and the witness condition must fail
    assert not is_shedding_monomial(ideal(ctx3, "x*y"), mono(ctx3, "z"))


def test_k_decomposable_ideal_goldens(ctx3):
    ctx2 = VariableContext.of("x", "y")
    cert = k_decomposable_ideal(ideal(ctx2, "x^2", "x*y", "y^2"), 0)
    assert isinstance(cert, IdealNode) and str(cert.u) == "x"
    verify_ideal_certificate(cert, 0)

    cert = k_decomposable_ideal(ideal(ctx3, "x*y"), -1)
    assert isinstance(cert, IdealLeaf)

    cert = k_decomposable_ideal(ideal(ctx3, "x*y", "x*z", "y*z"), 0)
    assert isinstance(cert, IdealNode) and str(cert.u) == "x"


def test_k_decomposable_rejects_zero(ctx3):
    from kdecomp import MonomialIdeal

    with pytest.raises(ZeroIdealError):
        k_decomposable_ideal(MonomialIdeal.from_monomials(ctx3, []), 0)


def test_certificate_soundness_random(ctx4):
    rng = Random(19)
    found = 0
    while found < 60:
        i = random_monomial_ideal(rng, ctx4, 8, 3)
        cert = k_decomposable_ideal(i, 2)
        if cert is None:
            continue
        assert verify_ideal_certificate(cert, 2, i) == i
        found += 1


@st.composite
def ideals(draw):
    """Ideals on 2-4 variables from 2-7 nonunit exponent vectors, each
    exponent at most 3."""
    n = draw(st.integers(2, 4))
    vectors = st.tuples(*[st.integers(0, 3)] * n).filter(any)
    ctx = VariableContext(tuple("xyzw"[:n]))
    gens = draw(st.lists(vectors, min_size=2, max_size=7))
    return MonomialIdeal.from_monomials(ctx, [ctx.monomial(g) for g in gens])


@st.composite
def complexes(draw):
    """Complexes on the first 2-6 vertices from 2-8 faces, none of them
    all n vertices (the empty face can be one)."""
    n = draw(st.integers(2, 6))
    faces = draw(st.lists(st.integers(0, 2**n - 2), min_size=2, max_size=8))
    ctx = VariableContext(tuple("abcdef"[:n]))
    return SimplicialComplex.from_facets(ctx, map(bits, faces))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(ideals(), complexes())
def test_certificate_soundness(i, delta):
    for k in (-1, 0, 1, 2):
        cert = k_decomposable_ideal(i, k)
        if cert is not None:
            assert verify_ideal_certificate(cert, k, i) == i
        for mode in ("direct", "dual"):
            cert = k_decomposable_complex(delta, k, mode=mode)
            if cert is not None:
                verify_complex_certificate(delta, cert, k)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(complexes())
@example(SimplicialComplex.from_facets(VariableContext(("a", "b")), [], [0, 1]))
@example(SimplicialComplex.from_facets(VariableContext(("a", "b")), [()], [0, 1]))
def test_direct_and_dual_search_agree(delta):
    for k in (-1, 0, 1, 2):
        direct = k_decomposable_complex(delta, k, mode="direct")
        dual = k_decomposable_complex(delta, k, mode="dual")
        assert (direct is None) == (dual is None)
        if direct is None:
            continue
        assert type(direct) is type(dual)
        if isinstance(direct, ComplexNode):
            assert direct.sigma == dual.sigma  # the same root face
        else:
            assert direct == dual
        verify_complex_certificate(delta, direct, k)
        verify_complex_certificate(delta, dual, k)


def test_monotonicity_in_k(ctx4):
    rng = Random(43)
    for _ in range(60):
        i = random_monomial_ideal(rng, ctx4, 6, 2)
        results = [k_decomposable_ideal(i, k) is not None for k in (0, 1, 2, 3, -1)]
        # once decomposable, decomposable for every larger bound
        assert results == sorted(results) or results[-1]
        for smaller, larger in zip(results, results[1:]):
            assert not smaller or larger


def test_is_shedding_face_goldens(ctx3):
    tri = SimplicialComplex.from_facets(ctx3, [[0, 1], [0, 2], [1, 2]])
    assert is_shedding_face(tri, [0])
    simplex = SimplicialComplex.from_facets(ctx3, [[0, 1]])
    assert not is_shedding_face(simplex, [0])
    two = SimplicialComplex.from_facets(ctx3, [[0], [1]])
    assert is_shedding_face(two, [0])
    with pytest.raises(NotAFaceError):
        is_shedding_face(tri, [0, 1, 2])
    with pytest.raises(ValueError):
        is_shedding_face(tri, [])


def test_k_decomposable_complex_goldens(ctx3):
    tri = SimplicialComplex.from_facets(ctx3, [[0, 1], [0, 2], [1, 2]])
    cert = k_decomposable_complex(tri, 0)
    assert isinstance(cert, ComplexNode) and cert.sigma == frozenset({0})
    verify_complex_certificate(tri, cert, 0)

    for simplex in (
        SimplicialComplex.from_facets(ctx3, [[0, 1, 2]]),
        SimplicialComplex.from_facets(ctx3, [()]),
        SimplicialComplex.from_facets(ctx3, []),
    ):
        leaf = k_decomposable_complex(simplex, 0)
        assert isinstance(leaf, ComplexLeaf)
        verify_complex_certificate(simplex, leaf, 0)


def test_k_below_minus_one_is_rejected(ctx3):
    # -1 is the only "no bound"; a smaller k used to search and store memo
    # keys of its own
    i = ideal(ctx3, "x*y", "x*z", "y*z")
    tri = SimplicialComplex.from_facets(ctx3, [[0, 1], [0, 2], [1, 2]])
    ideal_cert = k_decomposable_ideal(i, -1)
    complex_cert = k_decomposable_complex(tri, -1)
    memo: dict = {}
    with pytest.raises(ValueError, match="-2"):
        k_decomposable_ideal(i, -2, memo)
    assert memo == {}
    for mode in ("direct", "dual"):
        with pytest.raises(ValueError, match="-2"):
            k_decomposable_complex(tri, -2, mode=mode)
    with pytest.raises(ValueError, match="-2"):
        verify_ideal_certificate(ideal_cert, -2)
    with pytest.raises(ValueError, match="-2"):
        verify_complex_certificate(tri, complex_cert, -2)


def test_dual_mode_transports_certificates(ctx3):
    tri = SimplicialComplex.from_facets(ctx3, [[0, 1], [0, 2], [1, 2]])
    direct = k_decomposable_complex(tri, 0, mode="direct")
    dual = k_decomposable_complex(tri, 0, mode="dual")
    assert direct.sigma == dual.sigma == frozenset({0})
    verify_complex_certificate(tri, dual, 0)


def test_cross_mode_agreement_random(ctx4):
    rng = Random(3)
    direct_memo: dict = {}
    dual_memo: dict = {}
    for _ in range(120):
        delta = random_complex(rng, ctx4, 4)
        for k in (0, 1):
            direct = k_decomposable_complex(delta, k, mode="direct", memo=direct_memo)
            dual = k_decomposable_complex(delta, k, mode="dual", memo=dual_memo)
            assert (direct is None) == (dual is None)
            if direct is not None and isinstance(direct, ComplexNode):
                assert direct.sigma == dual.sigma  # roots agree
                verify_complex_certificate(delta, dual, k)


def test_facet_complement_ideal_rejects_a_facet_on_every_vertex(ctx3):
    # the complement of such a facet is empty, so the ideal would hold 1
    simplex = SimplicialComplex.from_facets(ctx3, [{0, 1, 2}])
    for delta in (simplex, SimplicialComplex.from_facets(ctx3, [()])):
        with pytest.raises(ImproperIdealError):
            facet_complement_ideal(delta)
    # with a vertex outside its facet, {{}} has the ideal of that vertex
    lone = SimplicialComplex.from_facets(ctx3, [()], [2])
    assert facet_complement_ideal(lone) == ideal(ctx3, "z")


def test_facet_complement_ideal_refuses_the_void_complex(ctx3):
    with pytest.raises(ZeroIdealError, match="^the void complex has no facet-complement ideal$"):
        facet_complement_ideal(SimplicialComplex.from_facets(ctx3, []))


def test_complex_search_refuses_an_unknown_mode(ctx3):
    tri = SimplicialComplex.from_facets(ctx3, [[0, 1], [0, 2], [1, 2]])
    with pytest.raises(ValueError, match="^unknown mode 'bogus'$"):
        k_decomposable_complex(tri, 0, mode="bogus")


def test_pointwise_shedding_transport(ctx4):
    # sigma sheds the complex iff the support monomial sheds the
    # facet-complement ideal
    rng = Random(59)
    for _ in range(80):
        delta = random_complex(rng, ctx4, 4)
        if delta.is_simplex:
            continue
        dual_ideal = facet_complement_ideal(delta)
        faces = sorted(
            (f for f in delta.faces() if f), key=lambda f: (len(f), sorted(f))
        )
        for sigma in faces:
            u = delta.ctx.monomial_of_set(sigma)
            assert is_shedding_face(delta, sigma) == is_shedding_monomial(
                dual_ideal, u
            )


def test_invalid_certificate_rejected(ctx3):
    from kdecomp import betti_recursive, order_from_certificate, pd_reg_from_certificate

    i = ideal(ctx3, "x*y", "x*z", "y*z")
    other = VariableContext.of("a", "b", "c")
    xy, xz, yz = (IdealLeaf(mono(ctx3, t)) for t in ("x*y", "x*z", "y*z"))
    deletion = IdealNode(mono(ctx3, "y"), xy, xz)
    assert verify_ideal_certificate(IdealNode(mono(ctx3, "x"), deletion, yz), -1, i) == i
    bogus = [
        # z sheds i, but the subtrees are not the halves of its split
        IdealNode(mono(ctx3, "z"), xy, IdealNode(mono(ctx3, "y"), xz, yz)),
        # the valid certificate with two leaves swapped
        IdealNode(mono(ctx3, "x"), IdealNode(mono(ctx3, "y"), xz, xy), yz),
        # u = 1, and u = a from another context with the exponents of x
        IdealNode(mono(ctx3, "1"), deletion, yz),
        IdealNode(mono(other, "a"), deletion, yz),
        # a leaf that is 1, and a leaf b*c from another context
        IdealNode(mono(ctx3, "x"), deletion, IdealLeaf(mono(ctx3, "1"))),
        IdealNode(mono(ctx3, "x"), deletion, IdealLeaf(mono(other, "b*c"))),
        # hand-built trees with parts that are not monomials or certificates
        None,
        IdealNode(None, None, None),
        IdealNode(mono(ctx3, "x"), deletion, None),
        IdealNode("x", deletion, yz),
        IdealNode(mono(ctx3, "x"), deletion, IdealLeaf("y*z")),
    ]
    # each derivation verifies in the walk that derives, and must fail with
    # the verifier's own message: the walk visits nodes in the same order
    for cert in bogus:
        with pytest.raises(InvalidCertificateError):
            verify_ideal_certificate(cert, -1, i)
        with pytest.raises(InvalidCertificateError) as verified:
            verify_ideal_certificate(cert)
        for derive in (order_from_certificate, betti_recursive, pd_reg_from_certificate):
            with pytest.raises(InvalidCertificateError) as derived:
                derive(cert)
            assert str(derived.value) == str(verified.value)
    # u = 1 leaves I^u empty: the shedding check rejects it, not a leaf below
    with pytest.raises(InvalidCertificateError, match="^1 is not a shedding monomial here$"):
        verify_ideal_certificate(IdealNode(mono(ctx3, "1"), deletion, yz))
    # leaves x*y and x: the leaves must be the minimal generators
    x_below_xy = IdealNode(
        mono(ctx3, "y"), IdealLeaf(mono(ctx3, "x*y")), IdealLeaf(mono(ctx3, "x"))
    )
    not_minimal = "^certificate leaves are not a minimal set$"
    for check in (verify_ideal_certificate, order_from_certificate, betti_recursive,
                  pd_reg_from_certificate):
        with pytest.raises(InvalidCertificateError, match=not_minimal):
            check(x_below_xy)
    valid = IdealNode(mono(ctx3, "x"), deletion, yz)
    other_ideal = "^certificate does not describe this ideal$"
    with pytest.raises(InvalidCertificateError, match=other_ideal):
        verify_ideal_certificate(valid, -1, ideal(ctx3, "x*y", "x*z"))
    # x*y sheds (x*z, y, z^2): valid at k = 1, its support too large at k = 0
    wide = k_decomposable_ideal(ideal(ctx3, "x*z", "y", "z^2"), 1)
    assert wide.u == mono(ctx3, "x*y") and verify_ideal_certificate(wide, 1)
    with pytest.raises(InvalidCertificateError, match=r"^\|supp\(u\)\| = 2 exceeds k \+ 1 = 1$"):
        verify_ideal_certificate(wide, 0)
    with pytest.raises(ContextMismatchError, match="^u lives in a different context$"):
        split(i, mono(other, "a"))
    order = order_from_certificate(valid)
    forged = QuotientOrder(order.order, (order.sets[0], order.sets[2], order.sets[2]))
    with pytest.raises(InvalidCertificateError, match="^colon ideal at position 1 is not the"):
        forged.verify()

    from kdecomp import reg_pd_complex

    tri = SimplicialComplex.from_facets(ctx3, [[0, 1], [0, 2], [1, 2]])
    good = k_decomposable_complex(tri, 0)
    verify_complex_certificate(tri, good, 0)
    bogus_complex = [
        ComplexNode(good.sigma, good.link, good.deletion),  # swapped subtrees
        ComplexNode(frozenset({0, 1}), good.deletion, good.link),  # dim 1 at k = 0
        ComplexNode(frozenset({0, 1, 2}), good.deletion, good.link),  # not a face
        ComplexNode(frozenset(), good.deletion, good.link),  # empty sigma
        ComplexLeaf(None),  # void leaf
        ComplexLeaf(frozenset({0, 1})),  # wrong leaf facet
        # hand-built trees with parts that are not vertex sets or certificates
        None,
        ComplexNode([0], good.deletion, good.link),
        ComplexNode(frozenset({0}), None, good.link),
        ComplexNode(frozenset({0}), good.deletion, None),
        ComplexNode(frozenset({"x"}), good.deletion, good.link),
        ComplexNode(frozenset({-1}), good.deletion, good.link),
        ComplexNode(frozenset({10**9}), good.deletion, good.link),
        ComplexNode(frozenset({0}), ComplexLeaf([1, 2]), good.link),
    ]
    for cert in bogus_complex:
        with pytest.raises(InvalidCertificateError):
            verify_complex_certificate(tri, cert, 0)
        with pytest.raises(InvalidCertificateError) as verified:
            verify_complex_certificate(tri, cert)
        with pytest.raises(InvalidCertificateError) as derived:
            reg_pd_complex(tri, cert)
        assert str(derived.value) == str(verified.value)
    # faults on both sides of the root: the deletion side is checked first
    link = ComplexNode(frozenset(), good.link.deletion, good.link.link)
    both = ComplexNode(good.sigma, ComplexLeaf(frozenset({0, 1, 2})), link)
    for check in (verify_complex_certificate, reg_pd_complex):
        with pytest.raises(InvalidCertificateError, match="^leaf facet does not match"):
            check(tri, both)


def test_budget_raises(ctx4):
    rng = Random(61)
    i = random_monomial_ideal(rng, ctx4, 8, 3)
    with pytest.raises(BudgetExceededError):
        k_decomposable_ideal(i, 2, node_budget=0)


def test_budget_counts_every_visit():
    # (a1, ..., a10, b1*c1, b2*c2) has no certificate: every set of the a's
    # sheds, so the search fills 2,037 memo entries but visits them 111,899
    # times, and a memo hit spends like any other visit
    names = [f"a{j}" for j in range(1, 11)]
    ctx = VariableContext.of(*names, "b1", "c1", "b2", "c2")
    i = ideal(ctx, *names, "b1*c1", "b2*c2")
    with pytest.raises(BudgetExceededError, match="search budget exhausted"):
        k_decomposable_ideal(i, -1, node_budget=20_000)


def test_shared_memo_keeps_contexts_apart():
    # The same exponents in two contexts, searched with one memo: the
    # second search must not return the first context's certificate.
    exponents = [(1, 1, 0), (1, 0, 1), (0, 1, 1)]
    memo: dict = {}
    for names in (("x", "y", "z"), ("a", "b", "c")):
        ctx = VariableContext.of(*names)
        j = MonomialIdeal.from_monomials(ctx, [ctx.monomial(e) for e in exponents])
        cert = k_decomposable_ideal(j, 0, memo)
        assert verify_ideal_certificate(cert, 0, j) == j
    assert len(memo) == 4  # one entry per searched node in each context


def test_certificates_of_any_depth():
    """Every certificate function walks a 400-level certificate under a
    recursion limit of 150: no walker recurses once per level."""
    import sys

    from kdecomp import (
        BettiTable,
        betti_recursive,
        order_from_certificate,
        pd_reg_from_certificate,
        reg_pd_complex,
        transport_certificate,
    )
    from kdecomp.documents import ideal_certificate_object

    n = 400
    ctx = VariableContext.of("x", "y")
    # (x, y)^400: x^a sheds x^a, ..., x^400 from x^(a-1) * y^(401-a)
    cert = IdealLeaf(ctx.monomial((n, 0)))
    for a in range(n, 0, -1):
        cert = IdealNode(ctx.monomial((a, 0)), cert, IdealLeaf(ctx.monomial((a - 1, n + 1 - a))))
    power = MonomialIdeal.from_monomials(ctx, [ctx.monomial((a, n - a)) for a in range(n + 1)])
    # n + 1 isolated points: each {v} sheds, leaving the rest and {{}}
    points = VariableContext(tuple(f"v{i}" for i in range(n + 1)))
    delta = SimplicialComplex.from_facets(points, [[v] for v in range(n + 1)])
    chain = ComplexLeaf(frozenset({n}))
    for v in range(n - 1, -1, -1):
        chain = ComplexNode(frozenset({v}), chain, ComplexLeaf(frozenset()))

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        assert verify_ideal_certificate(cert, 0, power) == power
        assert pd_reg_from_certificate(cert) == (1, n)
        assert betti_recursive(cert) == BettiTable({(0, n): n + 1, (1, n + 1): n})
        assert len(order_from_certificate(cert).order) == n + 1
        verify_complex_certificate(delta, chain, 0)
        assert reg_pd_complex(delta, chain) == (1, n)
        assert isinstance(transport_certificate(cert, range(2)), ComplexNode)
        assert ideal_certificate_object(cert)["u"] == "x"
    finally:
        sys.setrecursionlimit(limit)
