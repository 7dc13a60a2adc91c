"""Deletion, contraction and the chordality search against references.

Minors are built from int masks without a check, so this property stands
in for one: on generated clutters over at most seven vertices, and on
minors of them (which may carry singleton edges), every single-vertex
deletion and contraction must equal the definition, be a clutter with
its edge masks as an ascending tuple, and compare equal to another minor
exactly when their vertices and edges agree.

`reference_is_chordal` is the chordality search written on `Clutter`
values: each child minor comes from `apply_trace`, the memo is keyed by
the frozenset views, and simplicial vertices are tested on frozensets.
The mask search must give the same verdicts, witnesses and memo.
"""

from __future__ import annotations

from itertools import combinations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from kdecomp import (
    Clutter,
    ImproperContractionError,
    MinorStep,
    VariableContext,
    apply_trace,
    contraction,
    deletion,
    is_chordal,
)
from kdecomp.monomials import mask_of

CTX = VariableContext.of(*"abcdefg")


def minimal_sets(sets):
    return frozenset(s for s in sets if not any(o < s for o in sets))


def reference_minor(clutter, kind, v):
    """(vertices, edges) of the minor by the definition on frozensets."""
    vertices = clutter.vertices - {v}
    if kind == "delete":
        return vertices, frozenset(e for e in clutter.edges if v not in e)
    return vertices, minimal_sets({e - {v} for e in clutter.edges})


def assert_is_clutter(minor):
    masks = minor.edge_masks
    assert type(masks) is tuple and list(masks) == sorted(set(masks)), minor
    for e in minor.edges:
        assert e and e <= minor.vertices, minor
    for a, b in combinations(minor.edges, 2):
        assert not (a <= b or b <= a), minor


@st.composite
def clutters(draw):
    n = draw(st.integers(2, 7))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.frozensets(vertex, min_size=2), max_size=6))
    clutter = Clutter.from_edges(CTX, edges, vertices=range(n))
    # a few minor steps first, so that singleton edges and vertices
    # outside every edge occur as well
    steps = st.tuples(st.sampled_from(["delete", "contract"]), vertex)
    for kind, v in draw(st.lists(steps, max_size=3)):
        try:
            clutter = apply_trace(clutter, [MinorStep(kind, v)])
        except (KeyError, ImproperContractionError):
            pass
    return clutter


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(clutters())
def test_minors_match_their_definitions(clutter):
    assert_is_clutter(clutter)
    minors = [clutter]
    for v in sorted(clutter.vertices):
        for kind, op in (("delete", deletion), ("contract", contraction)):
            if kind == "contract" and frozenset([v]) in clutter.edges:
                with pytest.raises(ImproperContractionError):
                    op(clutter, v)
                continue
            minor = op(clutter, v)
            assert (minor.vertices, minor.edges) == reference_minor(clutter, kind, v)
            assert_is_clutter(minor)
            minors.append(minor)
    for a, b in combinations(minors, 2):
        same = (a.vertices, a.edges) == (b.vertices, b.edges)
        assert (a == b) == same


def is_simplicial_by_definition(clutter, v) -> bool:
    incident = [e for e in clutter.edges if v in e]
    return all(
        any(f <= (e1 | e2) - {v} for f in clutter.edges)
        for e1, e2 in combinations(incident, 2)
    )


def reference_is_chordal(clutter, memo):
    def search(minor, trace):
        key = (minor.vertices, minor.edges)
        if memo.get(key) is True:
            return True, None
        if not minor.edges:
            memo[key] = True
            return True, None
        verts = sorted(minor.vertices)
        if not any(is_simplicial_by_definition(minor, v) for v in verts):
            memo[key] = False
            return False, trace
        for v in verts:
            for kind in ("delete", "contract"):
                if kind == "contract" and frozenset([v]) in minor.edges:
                    continue
                step = MinorStep(kind, v)
                ok, witness = search(apply_trace(minor, [step]), trace + (step,))
                if not ok:
                    memo[key] = False
                    return False, witness
        memo[key] = True
        return True, None

    return search(clutter, ())


def mask_key(key):
    vertices, edges = key
    return mask_of(vertices), tuple(sorted(map(mask_of, edges)))


@st.composite
def clutters_with_a_minor(draw):
    """Mostly graph edges on four to seven vertices, so that chordless
    cycles, and with them non-chordal clutters, are common; and a minor."""
    n = draw(st.integers(4, 7))
    pairs = st.sampled_from(list(combinations(range(n), 2)))
    triples = st.sampled_from(list(combinations(range(n), 3)))
    edges = draw(st.lists(pairs, min_size=4, max_size=10))
    edges += draw(st.lists(triples, max_size=2))
    clutter = Clutter.from_edges(CTX, edges, vertices=range(n))
    minor = clutter
    steps = st.tuples(st.sampled_from(["delete", "contract"]), st.integers(0, n - 1))
    for kind, v in draw(st.lists(steps, max_size=3)):
        try:
            minor = apply_trace(minor, [MinorStep(kind, v)])
        except (KeyError, ImproperContractionError):
            pass
    return clutter, minor


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(clutters_with_a_minor())
def test_is_chordal_matches_the_reference_recursion(pair):
    clutter, minor = pair
    memo, reference_memo = {}, {}
    for h in (clutter, minor):  # the second query runs on a warm memo
        chordal, witness = is_chordal(h, memo)
        assert (chordal, witness) == reference_is_chordal(h, reference_memo)
        if not chordal:
            bad = apply_trace(h, witness)
            assert not any(is_simplicial_by_definition(bad, v) for v in bad.vertices)
        assert len(memo) == len(reference_memo)
        assert memo == {mask_key(k): value for k, value in reference_memo.items()}
