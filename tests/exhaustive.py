"""Test helpers: the induced subcomplex, and exhaustive enumerators of
small complexes, clutters and graphs."""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import or_
from typing import Iterable, Iterator

from kdecomp.clutters import Clutter
from kdecomp.complexes import SimplicialComplex
from kdecomp.monomials import VariableContext, antichain, mask_of


def induced_subcomplex(delta: SimplicialComplex, vertices: Iterable[int]) -> SimplicialComplex:
    """Restriction to the faces contained in `vertices`."""
    w = mask_of(vertices)
    if w & ~delta.vertex_mask:
        raise ValueError("restriction set must be a subset of the vertices")
    if delta.is_void:
        return delta
    restricted = antichain(f & w for f in delta.facet_masks)
    return SimplicialComplex(delta.ctx, reduce(or_, restricted, 0), restricted)


def antichains(candidates: list[frozenset[int]]) -> Iterator[frozenset[frozenset[int]]]:
    """All antichains (including the empty one) of the candidate sets."""
    n = len(candidates)

    def extend(start: int, chosen: list[frozenset[int]]):
        yield frozenset(chosen)
        for i in range(start, n):
            c = candidates[i]
            if all(not (c <= o or o <= c) for o in chosen):
                chosen.append(c)
                yield from extend(i + 1, chosen)
                chosen.pop()

    yield from extend(0, [])


def _subsets(n: int, min_size: int) -> list[frozenset[int]]:
    out = []
    for r in range(min_size, n + 1):
        out.extend(frozenset(c) for c in combinations(range(n), r))
    return out


def all_complexes(ctx: VariableContext, max_vertices: int) -> Iterator[SimplicialComplex]:
    """Every complex with at most `max_vertices` vertices (vertex labels
    drawn from the first max_vertices context variables), the two
    degenerate complexes included."""
    yield SimplicialComplex.from_facets(ctx, [])
    yield SimplicialComplex.from_facets(ctx, [()])
    for facets in antichains(_subsets(max_vertices, 1)):
        if facets:
            yield SimplicialComplex.from_facets(ctx, facets)


def all_clutters(ctx: VariableContext, n_vertices: int) -> Iterator[Clutter]:
    """Every clutter on the vertex set {0..n-1} (the edgeless one included)."""
    for edges in antichains(_subsets(n_vertices, 2)):
        yield Clutter.from_edges(ctx, edges, vertices=range(n_vertices))


def all_graphs(ctx: VariableContext, n_vertices: int) -> Iterator[Clutter]:
    """Every 2-uniform clutter on the vertex set {0..n-1}."""
    pairs = [frozenset(p) for p in combinations(range(n_vertices), 2)]
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        yield Clutter.from_edges(ctx, edges, vertices=range(n_vertices))
