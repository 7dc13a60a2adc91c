"""Deletion and contraction against their frozenset definitions.

Minors are built from int masks without a check, so this property stands
in for one: on generated clutters over at most seven vertices, and on
minors of them (which may carry singleton edges), every single-vertex
deletion and contraction must equal the definition, be a clutter, and
have a canonical key that tells it apart from every other minor.
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
)

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
        assert (a.canonical_key() == b.canonical_key()) == same
