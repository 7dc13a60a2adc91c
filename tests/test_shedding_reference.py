"""The shedding test against a reference written from the definition.

For u != 1 the predicate [u, M] = 1 says that no x_i^{u_i} with u_i > 0
divides M; it splits G(I) into I^u (the predicate fails) and I_u (it
holds).  u sheds I when I_u != 0 and, for every m in G(I_u) and every
i in supp(u), some g in G(I^u) has g : m = x_i.  The reference below
spells this out with exponent comparisons and Monomial.colon, so it shares
no code with the generator-mask routine behind `split`,
`is_shedding_monomial` and the search.

`reference_search` is the ideal search written on that reference: the
same candidate order, memo keys and node budget (one unit for each visit
to a node that is not a leaf, a memo hit too), but every candidate is
tested, with no masks and no skipping of repeated splits.

`product_order_candidates` is the candidate enumeration that the prefix
walk of `_shedding_candidates` replaced: every support in lex order,
every exponent choice in product order, each I_u mask once per support,
with I_u computed from its definition.  The walk must yield exactly the
candidates of that sequence that shed by the definition, in the same
order, and compute nothing ahead of need.

For complexes, `sheds_by_exchange` is the exchange test over all faces
as frozensets: every face tau containing sigma can trade any v in sigma
for some w outside tau and stay a face.  `reference_search_complex`
recurses on `delete_face` and `link`, tries every face in lexicographic
order of its sorted vertex tuple and memoizes by the sorted facet tuples,
so it shares no code with the facet-mask search.  The face walk of that
search must yield exactly the faces that shed by the exchange test, in
lexicographic order, each with the facets holding it.
"""

from __future__ import annotations

from itertools import combinations, product

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from kdecomp import (
    BudgetExceededError,
    ComplexLeaf,
    ComplexNode,
    IdealLeaf,
    IdealNode,
    MonomialIdeal,
    SimplicialComplex,
    VariableContext,
    delete_face,
    is_shedding_face,
    is_shedding_monomial,
    k_decomposable_complex,
    k_decomposable_ideal,
    link,
    split,
    verify_complex_certificate,
    verify_ideal_certificate,
)
from kdecomp.decomposition import (
    _exchange_masks, _faces_in_order, _Node, _shedding_candidates
)


def matches_by_definition(u, m) -> bool:
    return not any(0 < a <= b for a, b in zip(u.exponents, m.exponents))


def sheds_by_definition(ideal, u) -> bool:
    upper = [g for g in ideal.gens if not matches_by_definition(u, g)]
    lower = [g for g in ideal.gens if matches_by_definition(u, g)]
    return bool(lower) and all(
        any(g.colon(m) == ideal.ctx.monomial_of_set([i]) for g in upper)
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
    """Nonzero ideals on 2-5 variables with at most 8 generators; a top
    exponent of 1 makes them squarefree."""
    n = draw(st.integers(2, 5))
    top = draw(st.integers(1, 3))
    vectors = draw(
        st.lists(
            st.tuples(*[st.integers(0, top)] * n).filter(any),
            min_size=1,
            max_size=8,
        )
    )
    ctx = VariableContext(tuple("xyzwv"[:n]))
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
        assert is_shedding_monomial(ideal, u) == sheds_by_definition(ideal, u), str(u)


def product_order_candidates(gens, cap):
    """(support, bounds, I_u mask) over all supports of at most cap
    variables in lex order and all exponent choices in product order,
    skipping a mask already seen for the same support."""
    n = len(gens[0])
    bounds = [[(i, e) for e in sorted({g[i] for g in gens} - {0})] for i in range(n)]
    variables = [i for i in range(n) if bounds[i]]
    supports = []
    for r in range(1, min(cap, len(variables)) + 1):
        supports.extend(combinations(variables, r))
    supports.sort()
    for supp in supports:
        tried = set()
        for choice in product(*(bounds[i] for i in supp)):
            lower = sum(
                1 << j for j, g in enumerate(gens) if all(g[i] < e for i, e in choice)
            )
            if lower not in tried:
                tried.add(lower)
                yield supp, choice, lower


def monomial_of_bounds(ctx, bounds):
    vec = [0] * ctx.n
    for i, e in bounds:
        vec[i] = e
    return ctx.monomial(vec)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(ideals())
def test_prefix_walk_matches_product_order(ideal):
    gens = ideal.exps
    for cap in range(1, ideal.ctx.n + 1):
        expected = [
            c for c in product_order_candidates(gens, cap)
            if c[2] and sheds_by_definition(ideal, monomial_of_bounds(ideal.ctx, c[1]))
        ]
        assert list(_shedding_candidates(_Node(gens), cap)) == expected, cap


def test_prefix_walk_is_lazy():
    """The first candidate of (x, y)^300 is u = x, whose I_u is (y^300):
    one `below` mask is computed for it, not the 600 of both variables."""
    ctx = VariableContext(("x", "y"))
    power = MonomialIdeal.from_monomials(ctx, [ctx.monomial((a, 300 - a)) for a in range(301)])
    for cap in (1, 2):
        node = _Node(power.exps)
        first = next(_shedding_candidates(node, cap))
        assert first == ((0,), ((0, 1),), 1 << power.exps.index((0, 300)))
        assert list(node.below) == [(0, 1)]


def reference_candidates(gens, cap):
    """Exponent vectors in the search order: supports in lex order of their
    sorted index tuple, then each exponent choice among the positive
    exponents occurring in gens, in ascending product order."""
    n = len(gens[0])
    exps = {i: sorted({g[i] for g in gens} - {0}) for i in range(n)}
    variables = [i for i in range(n) if exps[i]]
    supports = sorted(
        s for r in range(1, min(cap, len(variables)) + 1)
        for s in combinations(variables, r)
    )
    for supp in supports:
        for choice in product(*(exps[i] for i in supp)):
            vec = [0] * n
            for i, e in zip(supp, choice):
                vec[i] = e
            yield tuple(vec)


def reference_search(ideal, k, memo, budget):
    """(certificate or None, visits spent); memo keys are (ctx, gens, k)."""
    ctx = ideal.ctx
    spent = 0

    def search(gens):
        nonlocal spent
        if len(gens) == 1:
            return IdealLeaf(ctx.monomial(gens[0]))
        spent += 1  # every visit, a memo hit too
        if spent > budget:
            raise BudgetExceededError("reference budget exhausted")
        key = (ctx, gens, k)
        if key in memo:
            return memo[key]
        sub = MonomialIdeal(ctx, gens)
        result = None
        for vec in reference_candidates(gens, ctx.n if k < 0 else k + 1):
            u = ctx.monomial(vec)
            if not sheds_by_definition(sub, u):
                continue
            upper = tuple(g.exponents for g in sub.gens if not matches_by_definition(u, g))
            lower = tuple(g.exponents for g in sub.gens if matches_by_definition(u, g))
            left = search(upper)
            right = search(lower) if left is not None else None
            if right is not None:
                result = IdealNode(u, left, right)
                break
        memo[key] = result
        return result

    return search(ideal.exps), spent


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(ideals())
def test_search_matches_reference(ideal):
    for k in (-1, 0, 1, 2):
        ref_memo: dict = {}
        ref_cert, nodes = reference_search(ideal, k, ref_memo, 10**9)
        memo: dict = {}
        cert = k_decomposable_ideal(ideal, k, memo)
        assert cert == ref_cert, k
        assert memo.keys() == ref_memo.keys(), k
        assert memo == ref_memo, k
        if cert is not None:
            assert verify_ideal_certificate(cert, k) == ideal
        if nodes:
            with pytest.raises(BudgetExceededError):
                reference_search(ideal, k, {}, nodes // 2)
            with pytest.raises(BudgetExceededError):
                k_decomposable_ideal(ideal, k, {}, node_budget=nodes // 2)
            # the same budget: every visit spends, a memo hit too
            assert k_decomposable_ideal(ideal, k, {}, node_budget=nodes) == cert
            with pytest.raises(BudgetExceededError):
                k_decomposable_ideal(ideal, k, {}, node_budget=nodes - 1)


def sheds_by_exchange(delta, sigma, faces) -> bool:
    for tau in faces:
        if sigma <= tau:
            outside = delta.vertices - tau
            for v in sigma:
                base = tau - {v}
                if not any(base | {w} in faces for w in outside):
                    return False
    return True


def reference_search_complex(delta, k, memo, budget):
    """(certificate or None, visits spent); memo keys are the sorted facet
    tuples with k."""
    spent = 0

    def search(delta):
        nonlocal spent
        if delta.is_simplex:
            (facet,) = delta.facets or [None]
            return ComplexLeaf(facet)
        spent += 1  # every visit, a memo hit too
        if spent > budget:
            raise BudgetExceededError("reference budget exhausted")
        key = (tuple(sorted(tuple(sorted(f)) for f in delta.facets)), k)
        if key in memo:
            return memo[key]
        cap = len(delta.vertices) if k < 0 else k + 1
        faces = delta.faces()
        result = None
        for face in sorted(tuple(sorted(f)) for f in faces if 0 < len(f) <= cap):
            sigma = frozenset(face)
            if not sheds_by_exchange(delta, sigma, faces):
                continue
            left = search(delete_face(delta, sigma))
            right = search(link(delta, sigma)) if left is not None else None
            if right is not None:
                result = ComplexNode(sigma, left, right)
                break
        memo[key] = result
        return result

    return search(delta), spent


@st.composite
def complexes(draw):
    """Complexes on 2-6 vertices from 3-10 distinct nonempty faces, each
    drawn as the bits of a mask."""
    n = draw(st.integers(2, 6))
    masks = draw(st.lists(st.integers(1, 2**n - 1), min_size=3, max_size=10, unique=True))
    faces = [[v for v in range(n) if m >> v & 1] for m in masks]
    return SimplicialComplex.from_facets(VariableContext(tuple("abcdef"[:n])), faces)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(complexes())
def test_face_walk_yields_the_shedding_faces(delta):
    faces = delta.faces()
    facets = delta.facet_masks
    vertices = sorted(delta.vertices)
    ex = _exchange_masks(facets, facets)
    shedding = sorted(
        tuple(sorted(f)) for f in faces if f and sheds_by_exchange(delta, f, faces)
    )
    for cap in range(1, len(vertices) + 1):
        expected = []
        for face in shedding:
            if len(face) <= cap:
                sigma = sum(1 << v for v in face)
                expected.append((sigma, [f for f in facets if f & sigma == sigma]))
        assert list(_faces_in_order(facets, ex, vertices, cap)) == expected, cap


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(complexes())
def test_complex_search_matches_reference(delta):
    faces = delta.faces()
    for sigma in faces - {frozenset()}:
        assert is_shedding_face(delta, sigma) == sheds_by_exchange(delta, sigma, faces)
    for k in (-1, 0, 1, 2):
        ref_memo: dict = {}
        ref_cert, nodes = reference_search_complex(delta, k, ref_memo, 10**9)
        memo: dict = {}
        cert = k_decomposable_complex(delta, k, memo=memo)
        assert cert == ref_cert, k
        assert len(memo) == len(ref_memo), k
        for (masks, _), value in memo.items():  # keys are (facet masks, k)
            facets = sorted(tuple(v for v in range(6) if m >> v & 1) for m in masks)
            assert ref_memo[tuple(facets), k] == value, k
        if cert is not None:
            verify_complex_certificate(delta, cert, k)
        if nodes:
            with pytest.raises(BudgetExceededError):
                reference_search_complex(delta, k, {}, nodes // 2)
            with pytest.raises(BudgetExceededError):
                k_decomposable_complex(delta, k, node_budget=nodes // 2)
            assert k_decomposable_complex(delta, k, node_budget=nodes) == cert
            with pytest.raises(BudgetExceededError):
                k_decomposable_complex(delta, k, node_budget=nodes - 1)
