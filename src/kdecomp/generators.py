"""Seeded random instance generators.

Everything here is driven by an explicit random.Random so that property
runs are reproducible from a seed.
"""

from __future__ import annotations

from random import Random

from .clutters import Clutter
from .complexes import SimplicialComplex
from .monomials import Monomial, MonomialIdeal, VariableContext, bits


def random_monomial(rng: Random, ctx: VariableContext, max_exp: int) -> Monomial:
    """A random nonunit monomial with exponents in [0, max_exp]."""
    while True:
        exps = tuple(rng.randint(0, max_exp) for _ in range(ctx.n))
        if any(exps):
            return Monomial(ctx, exps)


def random_monomial_ideal(
    rng: Random, ctx: VariableContext, max_gens: int, max_exp: int
) -> MonomialIdeal:
    count = rng.randint(1, max_gens)
    return MonomialIdeal.from_monomials(
        ctx, (random_monomial(rng, ctx, max_exp) for _ in range(count))
    )


def random_complex(
    rng: Random, ctx: VariableContext, n_vertices: int, max_facets: int = 6
) -> SimplicialComplex:
    """A random nondegenerate complex on a subset of the first n vertices."""
    pool = list(range(n_vertices))
    count = rng.randint(1, max_facets)
    facets = [frozenset(rng.sample(pool, rng.randint(1, n_vertices))) for _ in range(count)]
    return SimplicialComplex.from_facets(ctx, facets)


def random_face(rng: Random, delta: SimplicialComplex) -> frozenset[int]:
    """A random nonempty face."""
    nonempty = [f for f in sorted(map(bits, delta.facet_masks)) if f]
    facet = nonempty[rng.randrange(len(nonempty))]
    size = rng.randint(1, len(facet))
    return frozenset(rng.sample(facet, size))


def random_clutter(
    rng: Random,
    ctx: VariableContext,
    n_vertices: int,
    max_edges: int = 6,
    uniform: int | None = None,
) -> Clutter:
    """A random clutter on exactly the first n vertices (isolated allowed)."""
    pool = list(range(n_vertices))
    count = rng.randint(0, max_edges)
    edges = []
    for _ in range(count):
        size = uniform if uniform is not None else rng.randint(2, max(2, n_vertices))
        size = min(size, n_vertices)
        if size >= 2:
            edges.append(frozenset(rng.sample(pool, size)))
    return Clutter.from_edges(ctx, edges, vertices=pool)
