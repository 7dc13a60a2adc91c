"""Complex operations against their frozenset definitions.

Links, deletions, restrictions and duals are built from int masks
without a check, so this property stands in for one: on complexes over
at most seven vertices built by ``from_facets`` (with extra declared
vertices, the void complex and {{}} among them), and on the complexes
derived from them, every operation must equal its definition on faces,
and every complex must keep its facets as a sorted antichain of masks
inside its vertex mask.
"""

from __future__ import annotations

from itertools import chain, combinations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from kdecomp import (
    ImproperIdealError,
    MonomialIdeal,
    NotAFaceError,
    SimplicialComplex,
    VariableContext,
    alexander_dual_complex,
    delete_face,
    link,
    minimal_nonfaces,
    stanley_reisner_ideal,
)
from kdecomp.monomials import bits, mask_of

from exhaustive import induced_subcomplex

CTX = VariableContext.of(*"abcdefgh")


def subsets(items):
    items = sorted(items)
    return [frozenset(c) for r in range(len(items) + 1) for c in combinations(items, r)]


def reference_faces(delta):
    return set(chain.from_iterable(subsets(f) for f in delta.facets))


def union(faces):
    return frozenset().union(*faces)


def assert_is_complex(delta):
    facets = delta.facet_masks
    assert list(facets) == sorted(set(facets)), delta
    for f in facets:
        assert f & delta.vertex_mask == f, delta
    for f, g in combinations(facets, 2):
        assert f & g not in (f, g), delta
    assert delta.vertices == frozenset(bits(delta.vertex_mask))
    assert delta.facets == {frozenset(bits(f)) for f in facets}


def assert_faces(delta, faces, vertices):
    assert_is_complex(delta)
    assert reference_faces(delta) == faces and delta.vertices == vertices


@st.composite
def complexes(draw):
    n = draw(st.integers(2, 7))
    face = st.integers(0, (1 << n) - 1)
    # a face on all n vertices would make most examples simplices
    proper = face.filter(lambda m: m.bit_count() < n)
    facets = draw(st.lists(proper, min_size=1, max_size=7))
    declared = draw(face)
    delta = SimplicialComplex.from_facets(CTX, map(bits, facets), vertices=bits(declared))
    # a few derived complexes too, so that duals with vertices that are
    # not faces, single facets and the void complex occur
    steps = st.tuples(st.sampled_from(["link", "delete", "restrict", "dual"]), face)
    for kind, s in draw(st.lists(steps, max_size=2)):
        if kind == "dual":
            delta = alexander_dual_complex(delta)
        elif kind == "restrict":
            delta = induced_subcomplex(delta, bits(s & delta.vertex_mask))
        elif any(f & s == s for f in delta.facet_masks) and s:
            delta = (link if kind == "link" else delete_face)(delta, bits(s))
    return delta


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(complexes())
def test_complex_operations_match_their_definitions(delta):
    assert_is_complex(delta)
    verts = delta.vertices
    faces = reference_faces(delta)
    assert delta.faces() == faces
    everything = subsets(verts)
    for s in everything + [verts | {7}]:
        m = mask_of(s)
        assert any(f & m == m for f in delta.facet_masks) == (s in faces)

    for s in everything:
        if s not in faces:
            with pytest.raises(NotAFaceError):
                link(delta, s)
            if s:
                assert delete_face(delta, s) == delta
            continue
        lk = {t for t in faces if not t & s and t | s in faces}
        assert_faces(link(delta, s), lk, union(lk) if s else verts)
        if s:
            rest = verts - s if len(s) == 1 else verts
            assert_faces(delete_face(delta, s), {t for t in faces if not s <= t}, rest)

    for w in everything:
        restricted = induced_subcomplex(delta, w)
        if delta.is_void:
            assert restricted == delta
        else:
            kept = {t for t in faces if t <= w}
            assert_faces(restricted, kept, union(kept))

    nonfaces = [s for s in everything if s not in faces]
    dual = alexander_dual_complex(delta)
    assert_faces(dual, {verts - s for s in nonfaces}, verts)
    assert alexander_dual_complex(dual) == delta

    if delta.is_void:
        with pytest.raises(ImproperIdealError):
            stanley_reisner_ideal(delta)
        return
    minimal = {s for s in nonfaces if all(s - {v} in faces for v in s)}
    assert minimal_nonfaces(delta) == minimal
    ambient = verts | {7}
    expected = MonomialIdeal.from_masks(CTX, [mask_of(s) for s in minimal] + [1 << 7])
    assert stanley_reisner_ideal(delta, ambient) == expected
