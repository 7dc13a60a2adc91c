from __future__ import annotations

from functools import reduce
from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

from kdecomp import (
    BudgetExceededError,
    Clutter,
    ImproperContractionError,
    apply_trace,
    chordal_reg_bound,
    contraction,
    deletion,
    edge_ideal,
    graph_is_chordal_bruteforce,
    is_chordal,
    is_simplicial_vertex,
    lemma_h_ideals,
)
from kdecomp import homology
from kdecomp.generators import random_clutter
from kdecomp.monomials import MonomialIdeal, VariableContext, bits, mask_of

from conftest import ideal
from exhaustive import all_graphs


def triangle(ctx):
    return Clutter.from_edges(ctx, [[0, 1], [0, 2], [1, 2]])


def test_user_edges_need_two_vertices(ctx3):
    with pytest.raises(ValueError):
        Clutter.from_edges(ctx3, [[0]])


def test_from_edges_rejects_vertices_outside_the_context(ctx3):
    for edges, vertices in (([[0, -1]], None), ([[0, 5]], None), ([[0, 1]], [7])):
        with pytest.raises(ValueError, match="outside the context"):
            Clutter.from_edges(ctx3, edges, vertices=vertices)


def test_deletion(ctx3, ctx4):
    tri = triangle(ctx3)
    assert deletion(tri, 0).edges == frozenset({frozenset({1, 2})})
    path = Clutter.from_edges(ctx3, [[0, 1], [1, 2]])
    gone = deletion(path, 1)
    assert gone.is_edgeless and gone.vertices == frozenset({0, 2})
    pair = Clutter.from_edges(ctx4, [[0, 1, 2], [0, 1, 3]])
    assert deletion(pair, 3).edges == frozenset({frozenset({0, 1, 2})})
    with pytest.raises(KeyError):
        deletion(deletion(tri, 0), 0)


def test_contraction(ctx3, ctx4):
    tri = triangle(ctx3)
    assert contraction(tri, 0).edges == frozenset({frozenset({1}), frozenset({2})})
    pair = Clutter.from_edges(ctx4, [[0, 1, 2], [0, 1, 3]])
    assert contraction(pair, 0).edges == frozenset(
        {frozenset({1, 2}), frozenset({1, 3})}
    )
    edgeless = Clutter.from_edges(ctx3, [], vertices=[0, 1])
    assert contraction(edgeless, 0).is_edgeless
    singletons = contraction(tri, 0)  # edges {y}, {z}
    with pytest.raises(ImproperContractionError):
        contraction(singletons, 1)


def test_contraction_set(ctx3, ctx4):
    """Contracting a vertex set one vertex at a time."""
    pair = Clutter.from_edges(ctx4, [[0, 1, 2], [0, 1, 3]])
    out = reduce(contraction, [0, 1], pair)
    assert out.edges == frozenset({frozenset({2}), frozenset({3})})
    tri = triangle(ctx3)
    assert reduce(contraction, [], tri) == tri
    assert reduce(contraction, [1], tri).edges == frozenset(
        {frozenset({0}), frozenset({2})}
    )
    with pytest.raises(ImproperContractionError):
        reduce(contraction, [0, 1], tri)


def test_lemma_minors_refuse_in_order(ctx4):
    path = Clutter.from_edges(ctx4, [[0, 1], [1, 2]])
    singleton = contraction(path, 0)  # the one edge {1}
    outside = "^need a vertex contained in an edge of the clutter$"
    for clutter, e, x in (
        (path, [0, 2], 0), (path, [0, 1], 2), (path, [0, -1], 0), (path, [0, 1], -1),
        (singleton, [1], 2),
    ):
        with pytest.raises(ValueError, match=outside):
            lemma_h_ideals(clutter, frozenset(e), x)
    lone = "^the edge must have another vertex besides x$"
    with pytest.raises(ValueError, match=lone):
        lemma_h_ideals(singleton, frozenset([1]), 1)
    with pytest.raises(ValueError, match=lone):
        chordal_reg_bound(singleton, 1, [1])


def test_contraction_set_order_independent(ctx4):
    """Sequential contraction does not depend on the order; the lemma's
    minors contract sigma in ascending order."""
    rng = Random(3)
    for _ in range(80):
        clutter = random_clutter(rng, ctx4, 4)
        verts = sorted(clutter.vertices)
        rng.shuffle(verts)
        subset = [v for v in verts[: rng.randint(0, len(verts))]]
        if any(e <= frozenset(subset) for e in clutter.edges):
            continue
        sequential = clutter
        try:
            for v in subset:
                sequential = contraction(sequential, v)
        except ImproperContractionError:
            continue
        assert reduce(contraction, sorted(subset), clutter) == sequential


def test_is_simplicial_vertex(ctx3, ctx4):
    tri = triangle(ctx3)
    assert is_simplicial_vertex(tri, 0)
    pair = Clutter.from_edges(ctx4, [[0, 1, 2], [0, 1, 3]])
    assert not is_simplicial_vertex(pair, 0)
    assert is_simplicial_vertex(pair, 2)  # one incident edge: vacuous


def is_containment_pair(clutter, v, e) -> bool:
    """For every other edge e2 through v, some edge lies inside (e | e2) - {v}."""
    e = frozenset(e)
    return all(
        any(f <= (e | e2) - {v} for f in clutter.edges)
        for e2 in clutter.edges
        if e2 != e and v in e2
    )


def test_is_containment_pair(ctx3, ctx4):
    tri = triangle(ctx3)
    assert is_containment_pair(tri, 0, frozenset({0, 1}))
    pair = Clutter.from_edges(ctx4, [[0, 1, 2], [0, 1, 3]])
    assert is_containment_pair(pair, 2, frozenset({0, 1, 2}))
    assert not is_containment_pair(pair, 0, frozenset({0, 1, 2}))


def test_simplicial_vertex_gives_containment_pairs(ctx4):
    rng = Random(29)
    for _ in range(120):
        clutter = random_clutter(rng, ctx4, 4)
        for v in sorted(clutter.vertices):
            if not is_simplicial_vertex(clutter, v):
                continue
            for e in sorted(clutter.edges, key=sorted):
                if v in e:
                    assert is_containment_pair(clutter, v, e)


def test_is_chordal_goldens(ctx3, ctx4):
    assert is_chordal(triangle(ctx3)) == (True, None)
    c4 = Clutter.from_edges(ctx4, [[0, 1], [1, 2], [2, 3], [3, 0]])
    chordal, witness = is_chordal(c4)
    assert not chordal
    assert witness == ()  # the clutter itself has no simplicial vertex
    assert apply_trace(c4, witness) == c4
    edgeless = Clutter.from_edges(ctx3, [], vertices=[0, 1, 2])
    assert is_chordal(edgeless) == (True, None)


def test_is_chordal_budget(ctx3, monkeypatch):
    from kdecomp import clutters

    monkeypatch.setattr(clutters, "CHORDALITY_VERTEX_BUDGET", 2)
    with pytest.raises(BudgetExceededError, match="budget is 2 vertices, got 3"):
        is_chordal(triangle(ctx3))


def test_witness_replays_to_bad_minor():
    from kdecomp import VariableContext

    ctx = VariableContext.of(*"abcde")
    # 4-cycle plus an apex vertex joined by an edge: the bad minor is inside
    h = Clutter.from_edges(ctx, [[0, 1], [1, 2], [2, 3], [3, 0], [0, 4]])
    chordal, witness = is_chordal(h)
    assert not chordal
    minor = apply_trace(h, witness)
    assert not any(is_simplicial_vertex(minor, v) for v in sorted(minor.vertices))


def test_minor_closure_of_chordal(ctx4):
    rng = Random(37)
    memo: dict = {}
    for _ in range(60):
        clutter = random_clutter(rng, ctx4, 4)
        chordal, _ = is_chordal(clutter, memo=memo)
        if not chordal:
            continue
        for v in sorted(clutter.vertices):
            assert is_chordal(deletion(clutter, v), memo=memo)[0]
            if frozenset({v}) not in clutter.edges:
                assert is_chordal(contraction(clutter, v), memo=memo)[0]


def test_edge_ideal(ctx3):
    assert edge_ideal(triangle(ctx3)) == ideal(ctx3, "x*y", "x*z", "y*z")
    assert edge_ideal(Clutter.from_edges(ctx3, [], vertices=[0, 1])).is_zero
    minor = contraction(Clutter.from_edges(ctx3, [[0, 1], [0, 2]]), 0)
    assert edge_ideal(minor) == ideal(ctx3, "y", "z")


def test_lemma_h_goldens(ctx3, ctx4):
    tri = triangle(ctx3)
    del_ideal, link_ideal = lemma_h_ideals(tri, frozenset({0, 1}), 0)
    assert del_ideal == ideal(ctx3, "y", "x*z")
    assert link_ideal == ideal(ctx3, "x", "z")

    pair = Clutter.from_edges(ctx4, [[0, 1, 2], [0, 1, 3]])
    del_ideal, link_ideal = lemma_h_ideals(pair, frozenset({0, 1, 2}), 2)
    assert del_ideal == ideal(ctx4, "x*y")
    assert link_ideal == ideal(ctx4, "z", "w")

    path = Clutter.from_edges(ctx3, [[0, 1], [1, 2]])
    del_ideal, link_ideal = lemma_h_ideals(path, frozenset({0, 1}), 0)
    assert del_ideal == ideal(ctx3, "y")
    assert link_ideal == ideal(ctx3, "x", "z")


def test_lemma_h_both_sides_random(ctx4):
    # the operation itself raises when the minor route and the complex
    # route disagree
    rng = Random(41)
    checked = 0
    while checked < 60:
        clutter = random_clutter(rng, ctx4, 4)
        if clutter.is_edgeless:
            continue
        for e in sorted(clutter.edges, key=sorted):
            for x in sorted(e):
                lemma_h_ideals(clutter, e, x)
        checked += 1


def test_lemma_minors_build_no_frozenset_view(ctx4):
    """`lemma_h_ideals` and `chordal_reg_bound` read only the masks: the
    cached views `vertices` and `edges` of a fresh clutter stay unbuilt."""
    path, pair = [[0, 1], [1, 2], [2, 3]], [[0, 1, 2], [0, 1, 3]]
    for edges, x, e in ((path, 0, {0, 1}), (pair, 2, {0, 1, 2})):
        clutter = Clutter.from_edges(ctx4, edges)
        lemma_h_ideals(clutter, frozenset(e), x)
        chordal_reg_bound(clutter, x, e)
        assert "vertices" not in vars(clutter) and "edges" not in vars(clutter)


def test_chordal_reg_bound_goldens(ctx3, ctx4):
    report = chordal_reg_bound(triangle(ctx3), 0, frozenset({0, 1}))
    assert (report.reg, report.identity_rhs, report.bound_rhs) == (1, 1, 1)

    pair = Clutter.from_edges(ctx4, [[0, 1, 2], [0, 1, 3]])
    report = chordal_reg_bound(pair, 2, frozenset({0, 1, 2}))
    assert report.reg == 2
    assert (report.identity_deletion, report.identity_link) == (1, 2)
    assert (report.bound_deletion, report.identity_link) == (1, 2)

    single = Clutter.from_edges(ctx3, [[0, 1]])
    report = chordal_reg_bound(single, 0, frozenset({0, 1}))
    assert (report.reg, report.identity_rhs) == (1, 1)


@st.composite
def small_clutters(draw):
    """Clutters on 2 to 6 vertices, from up to 7 edges of size >= 2."""
    n = draw(st.integers(2, 6))
    edge = st.integers(3, 2**n - 1).filter(lambda m: m.bit_count() >= 2)
    masks = draw(st.lists(edge, min_size=1, max_size=7))
    ctx = VariableContext(tuple(f"x{v}" for v in range(n)))
    return Clutter.from_edges(ctx, [bits(m) for m in masks], vertices=range(n))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(small_clutters())
def test_chordal_reg_bound_masks_match_the_ideal_route(clutter):
    """The mask route of `chordal_reg_bound` against regularities of the
    same minors' ideals, built by `from_masks` and read by
    `oracle_quotient_reg_pd`."""

    def quotient_reg(masks, field):
        ideal = MonomialIdeal.from_masks(clutter.ctx, masks)
        return homology.oracle_quotient_reg_pd(ideal, field)[0]

    for field in (None, 2):
        for x in sorted(clutter.vertices):
            if not is_simplicial_vertex(clutter, x):
                continue
            for e in sorted((e for e in clutter.edges if x in e), key=sorted):
                report = chordal_reg_bound(clutter, x, e, field)
                sigma = e - {x}
                d = len(sigma)
                contracted = reduce(contraction, sorted(sigma), clutter)
                link = quotient_reg(contracted.edge_masks, field) + d
                expected = dict(
                    d=d,
                    reg=quotient_reg(clutter.edge_masks, field),
                    identity_deletion=quotient_reg([mask_of(sigma), *clutter.edge_masks], field),
                    identity_link=link,
                    bound_deletion=sum(
                        quotient_reg(deletion(clutter, v).edge_masks, field) for v in sigma
                    )
                    + d
                    - 1,
                )
                assert {k: getattr(report, k) for k in expected} == expected

    # the ideal entry and the mask entry share one cache entry, keyed by
    # the renumbered masks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "_oracle_cache", {})
        table = homology.betti_hochster(edge_ideal(clutter))
        assert homology.hochster_from_masks(clutter.edge_masks) is table
        key = ("hochster", homology._relabelled(clutter.edge_masks), None)
        assert list(homology._oracle_cache) == [key]


@st.composite
def mixed_clutters(draw):
    """Clutters on 3 to 7 vertices from 2 to 8 edges, each of any size from
    2 to the number of vertices."""
    n = draw(st.integers(3, 7))
    edge = st.sets(st.integers(0, n - 1), min_size=2, max_size=n)
    edges = draw(st.lists(edge, min_size=2, max_size=8))
    ctx = VariableContext(tuple(f"x{v}" for v in range(n)))
    return Clutter.from_edges(ctx, edges, vertices=range(n))


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(mixed_clutters())
def test_chordal_reg_bound_holds_on_random_chordal_clutters(clutter):
    """The chordal-clutter theorem on random chordal clutters with edges of
    mixed sizes: at every simplicial vertex x and every edge e through x,
    reg R/I(H) equals the identity's right side and is at most the bound's.
    A chordal clutter with an edge has a simplicial vertex, so each example
    checks at least one pair."""
    assume(is_chordal(clutter)[0])
    checks = 0
    for x in sorted(clutter.vertices):
        if not is_simplicial_vertex(clutter, x):
            continue
        for e in sorted((e for e in clutter.edges if x in e), key=sorted):
            report = chordal_reg_bound(clutter, x, e)  # raises if either fails
            assert report.identity_holds and report.bound_holds
            checks += 1
    assert checks


def test_chordal_reg_bound_preconditions(ctx4):
    pair = Clutter.from_edges(ctx4, [[0, 1, 2], [0, 1, 3]])
    with pytest.raises(ValueError):
        chordal_reg_bound(pair, 0, frozenset({0, 1, 2}))  # x not simplicial


def test_graph_chordality_agreement_small():
    from kdecomp import VariableContext

    ctx = VariableContext.of(*"abcde")
    memo: dict = {}
    for graph in all_graphs(ctx, 5):
        assert is_chordal(graph, memo=memo)[0] == graph_is_chordal_bruteforce(graph)
