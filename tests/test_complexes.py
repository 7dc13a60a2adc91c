from __future__ import annotations

from itertools import chain, combinations
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from kdecomp import (
    BudgetExceededError,
    Clutter,
    ComplexLeaf,
    ImproperIdealError,
    MonomialIdeal,
    NotAFaceError,
    SimplicialComplex,
    VariableContext,
    VoidComplexError,
    alexander_dual_complex,
    alexander_dual_ideal,
    delete_face,
    independence_complex,
    k_decomposable_complex,
    link,
    minimal_nonfaces,
    stanley_reisner_ideal,
)
from kdecomp import complexes
from kdecomp.complexes import _minimal_transversals
from kdecomp.generators import (
    random_clutter,
    random_complex,
    random_monomial_ideal,
)
from kdecomp.monomials import bits, mask_of

from conftest import dim, ideal
from exhaustive import all_complexes


def powerset(items):
    items = list(items)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def brute_faces(delta):
    """Independent face oracle: subsets of some facet."""
    return {
        frozenset(s)
        for facet in delta.facets
        for s in powerset(facet)
    }


def triangle(ctx):
    return SimplicialComplex.from_facets(ctx, [[0, 1], [0, 2], [1, 2]])


def brute_minimal_nonfaces(delta):
    """Subsets of the vertex set that are not faces but whose every
    one-smaller subset is."""
    faces = brute_faces(delta)
    return {
        frozenset(s)
        for s in powerset(delta.vertices)
        if frozenset(s) not in faces
        and all(frozenset(s) - {v} in faces for v in s)
    }


def test_minimal_nonfaces_by_enumeration(ctx3, ctx4):
    tri = triangle(ctx3)
    assert minimal_nonfaces(tri) == brute_minimal_nonfaces(tri) == {frozenset({0, 1, 2})}

    full = SimplicialComplex.from_facets(ctx3, [[0, 1, 2]])
    assert minimal_nonfaces(full) == frozenset()

    two = SimplicialComplex.from_facets(ctx3, [[0], [1]])
    assert minimal_nonfaces(two) == {frozenset({0, 1})}

    samples = [d for d in all_complexes(ctx4, 4) if not d.is_void]
    samples += [
        # declared vertices that are not faces
        SimplicialComplex.from_facets(ctx4, [[0, 1]], vertices=[2, 3]),
        SimplicialComplex.from_facets(ctx4, [[0], [1]], vertices=[3]),
        # {{}} without and with declared vertices
        SimplicialComplex.from_facets(ctx4, [()]),
        SimplicialComplex.from_facets(ctx4, [()], [0, 2, 3]),
    ]
    for delta in samples:
        assert minimal_nonfaces(delta) == brute_minimal_nonfaces(delta), delta
    assert minimal_nonfaces(SimplicialComplex.from_facets(ctx4, [()])) == frozenset()
    assert minimal_nonfaces(SimplicialComplex.from_facets(ctx4, [()], [0, 2])) == {
        frozenset({0}),
        frozenset({2}),
    }


def test_minimal_nonfaces_void_errors(ctx3):
    with pytest.raises(VoidComplexError):
        minimal_nonfaces(SimplicialComplex.from_facets(ctx3, []))


def test_stanley_reisner_ideal(ctx3):
    assert stanley_reisner_ideal(triangle(ctx3), ambient=range(3)) == ideal(
        ctx3, "x*y*z"
    )
    edge = SimplicialComplex.from_facets(ctx3, [[1, 2]])
    assert stanley_reisner_ideal(edge, ambient=range(3)) == ideal(ctx3, "x")
    irr = SimplicialComplex.from_facets(ctx3, [()])
    assert stanley_reisner_ideal(irr, ambient=[0, 1]) == ideal(ctx3, "x", "y")
    with pytest.raises(ImproperIdealError):
        stanley_reisner_ideal(SimplicialComplex.from_facets(ctx3, []))


def brute_independence_facets(vertices, edges):
    """Maximal subsets of `vertices` that contain no edge."""
    free = [
        frozenset(s)
        for s in powerset(vertices)
        if not any(frozenset(e) <= frozenset(s) for e in edges)
    ]
    return {s for s in free if not any(s < o for o in free)}


def test_complex_from_nonfaces(ctx3, ctx4):
    tri = Clutter.from_edges(ctx3, [[0, 1], [0, 2], [1, 2]])
    assert independence_complex(tri.ctx, tri.vertices, tri.edges).facets == frozenset(
        {frozenset({0}), frozenset({1}), frozenset({2})}
    )
    path = Clutter.from_edges(ctx3, [[0, 1], [1, 2]])
    assert independence_complex(path.ctx, path.vertices, path.edges).facets == frozenset(
        {frozenset({0, 2}), frozenset({1})}
    )
    edgeless = Clutter.from_edges(ctx3, [], vertices=[0, 1])
    assert independence_complex(edgeless.ctx, edgeless.vertices, edgeless.edges).facets == frozenset({frozenset({0, 1})})

    rng = Random(29)
    for _ in range(60):
        clutter = random_clutter(rng, ctx4, 4)
        got = independence_complex(clutter.ctx, clutter.vertices, clutter.edges).facets
        assert got == brute_independence_facets(clutter.vertices, clutter.edges)

    # raw edge families: singleton edges, an empty edge, no edges, and
    # edges leaving the vertex set
    for _ in range(150):
        verts = rng.sample(range(4), rng.randint(0, 4))
        edges = [
            rng.sample(range(4), rng.choice([1, 1, 2, 2, 3]))
            for _ in range(rng.randint(0, 4))
        ]
        expected = brute_independence_facets(verts, edges)
        assert independence_complex(ctx4, verts, edges).facets == expected
        assert independence_complex(ctx4, verts, edges + [[]]).is_void
    assert independence_complex(ctx4, [], []).is_irrelevant
    assert independence_complex(ctx4, [0, 1], [[1], [2, 3]]).facets == {frozenset({0})}


def test_alexander_dual_complex(ctx3):
    tri = triangle(ctx3)
    dual = alexander_dual_complex(tri)
    assert dual.is_irrelevant and dual.vertices == frozenset({0, 1, 2})

    # complex with nonface ideal (x*y) on {x,y,z}
    delta = SimplicialComplex.from_facets(ctx3, [[0, 2], [1, 2]])
    assert stanley_reisner_ideal(delta) == ideal(ctx3, "x*y")
    assert alexander_dual_complex(delta).facets == frozenset({frozenset({2})})


def test_dual_involution_random(ctx4):
    rng = Random(23)
    samples = [random_complex(rng, ctx4, 4) for _ in range(120)]
    samples += [
        SimplicialComplex.from_facets(ctx4, [], [0, 1]),
        SimplicialComplex.from_facets(ctx4, [()], [0, 1, 2]),
        SimplicialComplex.from_facets(ctx4, [[0, 1, 2, 3]]),
    ]
    for delta in samples:
        assert alexander_dual_complex(alexander_dual_complex(delta)) == delta


@st.composite
def declared_complexes(draw):
    """Complexes on the first 1-6 vertices from 0-6 faces (so the void
    complex and the empty face too), with vertices that lie in no face
    declared or not."""
    n = draw(st.integers(1, 6))
    faces = draw(st.lists(st.integers(0, 2**n - 1), max_size=6))
    declared = draw(st.integers(0, 2**n - 1))
    ctx = VariableContext(tuple("abcdef"[:n]))
    return SimplicialComplex.from_facets(ctx, map(bits, faces), bits(declared))


@st.composite
def squarefree_ideals(draw):
    """Squarefree ideals on 1-6 variables from 1-6 nonunit supports."""
    n = draw(st.integers(1, 6))
    masks = draw(st.lists(st.integers(1, 2**n - 1), min_size=1, max_size=6))
    return MonomialIdeal.from_masks(VariableContext(tuple("abcdef"[:n])), masks)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(declared_complexes(), squarefree_ideals())
def test_dual_involution(delta, i):
    assert alexander_dual_complex(alexander_dual_complex(delta)) == delta
    assert alexander_dual_ideal(alexander_dual_ideal(i)) == i


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(st.integers(0, 2**8 - 1), max_size=8))
def test_minimal_transversals_are_the_blocker(members):
    # any family on 8 vertices: duplicates, members holding others, the
    # empty member and no members at all
    hitting = {s for s in range(2**8) if all(s & m for m in members)}
    minimal = [s for s in sorted(hitting) if not any(s & ~(1 << v) in hitting for v in bits(s))]
    assert _minimal_transversals(members) == minimal
    assert _minimal_transversals(minimal) == sorted(
        {m for m in members if not any(t & m == t != m for t in members)}
    )


def test_transversal_budget_counts_nodes(monkeypatch):
    # (a_i * b_i, i < 3): one node per partial cover, 1 + 2 + 4 + 8 = 15
    pairs = [0b11, 0b1100, 0b110000]
    monkeypatch.setattr(complexes, "TRANSVERSAL_BUDGET", 15)
    assert len(_minimal_transversals(pairs)) == 8
    monkeypatch.setattr(complexes, "TRANSVERSAL_BUDGET", 14)
    with pytest.raises(BudgetExceededError, match="^transversal budget is 14 nodes$"):
        _minimal_transversals(pairs)


def brute_dual_ideal(i):
    """Brute-force intersection of the support primes over squarefree
    monomials: supp(m) must meet every generator support."""
    ctx = i.ctx
    members = [
        frozenset(s)
        for s in powerset(range(ctx.n))
        if all(frozenset(s) & g.support for g in i.gens)
    ]
    minimal = [s for s in members if not any(o < s for o in members)]
    return sorted(sorted(s) for s in minimal)


def test_alexander_dual_ideal(ctx3):
    assert alexander_dual_ideal(ideal(ctx3, "x", "y")) == ideal(ctx3, "x*y")
    for gens in (("x*y", "x*z", "y*z"), ("x*y", "y*z")):
        i = ideal(ctx3, *gens)
        got = sorted(sorted(g.support) for g in alexander_dual_ideal(i).gens)
        assert got == brute_dual_ideal(i)


def test_alexander_dual_ideal_random(ctx4):
    rng = Random(3)
    for _ in range(80):
        i = random_monomial_ideal(rng, ctx4, 5, 1)
        got = sorted(sorted(g.support) for g in alexander_dual_ideal(i).gens)
        assert got == brute_dual_ideal(i)


def test_dual_ideal_rejects_nonsquarefree(ctx3):
    with pytest.raises(ValueError):
        alexander_dual_ideal(ideal(ctx3, "x^2"))


def test_dual_of_ideal_is_ideal_of_dual(ctx4):
    rng = Random(41)
    for _ in range(60):
        delta = random_complex(rng, ctx4, 4)
        i = stanley_reisner_ideal(delta)
        if i.is_zero:
            continue
        assert alexander_dual_ideal(i) == stanley_reisner_ideal(
            alexander_dual_complex(delta), ambient=delta.vertices
        )


def test_edge_ideal_is_nonface_ideal_of_independence_complex(ctx4):
    from kdecomp import edge_ideal
    from kdecomp.generators import random_clutter

    rng = Random(17)
    for _ in range(60):
        clutter = random_clutter(rng, ctx4, 4)
        assert edge_ideal(clutter) == stanley_reisner_ideal(
            independence_complex(clutter.ctx, clutter.vertices, clutter.edges), ambient=clutter.vertices
        )


def test_link(ctx3):
    tri = triangle(ctx3)
    assert link(tri, [0]).facets == frozenset({frozenset({1}), frozenset({2})})
    assert link(tri, []) == tri
    full = SimplicialComplex.from_facets(ctx3, [[0, 1, 2]])
    assert link(full, [0, 1]).facets == frozenset({frozenset({2})})
    with pytest.raises(NotAFaceError):
        link(tri, [0, 1, 2])


def test_link_join_property(ctx4):
    rng = Random(9)
    for _ in range(50):
        delta = random_complex(rng, ctx4, 4)
        faces = sorted(brute_faces(delta), key=sorted)
        for face in faces:
            lk = link(delta, face)
            for g in brute_faces(lk):
                m = mask_of(g | face)
                assert any(f & m == m for f in delta.facet_masks)


def test_delete_face(ctx3):
    tri = triangle(ctx3)
    deleted = delete_face(tri, [0])
    assert deleted.facets == frozenset({frozenset({1, 2})})
    assert deleted.vertices == frozenset({1, 2})  # the vertex leaves
    assert delete_face(tri, [0, 1, 2]) == tri  # not a face: nothing removed
    full = SimplicialComplex.from_facets(ctx3, [[0, 1, 2]])
    assert delete_face(full, [1, 2]).facets == frozenset(
        {frozenset({0, 1}), frozenset({0, 2})}
    )
    assert delete_face(full, [1, 2]).vertices == frozenset({0, 1, 2})


def test_complex_constructors_reject_vertices_outside_the_context(ctx3):
    for facets, vertices in (([[0, -1]], None), ([[0, 5]], None), ([[0, 1]], [7])):
        with pytest.raises(ValueError, match="^vertex index outside the context$"):
            SimplicialComplex.from_facets(ctx3, facets, vertices=vertices)
    with pytest.raises(ValueError, match="^vertex index outside the context$"):
        independence_complex(ctx3, [0, 1, 5], [[0, 1]])


def test_complex_operations_refuse_bad_arguments(ctx3):
    tri = triangle(ctx3)
    with pytest.raises(ValueError, match="^ambient must contain the vertex set of the complex$"):
        stanley_reisner_ideal(tri, ambient=[0, 1])
    with pytest.raises(ValueError, match="^delete_face needs a nonempty face$"):
        delete_face(tri, [])


def test_degenerate_flags(ctx3):
    void = SimplicialComplex.from_facets(ctx3, [])
    irr = SimplicialComplex.from_facets(ctx3, [()])
    assert void.is_void and not void.is_irrelevant
    assert irr.is_irrelevant and not irr.is_void
    assert dim(irr) == -1


def test_from_facets_keeps_only_maximal_faces():
    ctx = VariableContext.of("a", "b", "c")
    delta = SimplicialComplex.from_facets(ctx, [{0, 1}, {0}])
    assert delta.facet_masks == (0b11,) and delta.facets == {frozenset({0, 1})}
    assert delta.is_simplex and dim(delta) == 1
    assert str(delta) == "<{a,b}>"
    leaf = ComplexLeaf(frozenset({0, 1}))
    for mode in ("direct", "dual"):
        assert k_decomposable_complex(delta, 0, mode=mode) == leaf
