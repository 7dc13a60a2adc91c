"""Simplicial complexes, Stanley-Reisner ideals and Alexander duality.

A complex carries an explicit vertex set.  For complexes built with
:meth:`SimplicialComplex.from_facets` every declared vertex is a face;
Alexander duals may declare vertices that are not faces of the dual (the
dual is always formed relative to the vertex set of the input, which is
what makes dualizing an involution).

The two degenerate complexes are encoded by their facet sets:
``{}`` (void, no faces at all) has no facets, and ``{{}}`` (the complex
whose only face is the empty set) has the single facet ``frozenset()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .errors import (
    ImproperIdealError,
    NotAFaceError,
    VoidComplexError,
)
from .monomials import MonomialIdeal, VariableContext

VertexSet = frozenset[int]


def antichain(sets: Iterable[frozenset], minimal: bool = False) -> frozenset[frozenset]:
    """The inclusion-maximal members of `sets`, or the inclusion-minimal
    ones when `minimal` is set; duplicates count once."""
    distinct = set(sets)
    if minimal:
        return frozenset(s for s in distinct if not any(o < s for o in distinct))
    return frozenset(s for s in distinct if not any(s < o for o in distinct))


@dataclass(frozen=True)
class SimplicialComplex:
    """A simplicial complex given by its facets over an explicit vertex set."""

    ctx: VariableContext
    vertices: VertexSet
    facets: frozenset[VertexSet]

    def __post_init__(self):
        union: set[int] = set()
        for f in self.facets:
            union |= f
        if not union <= self.vertices:
            raise ValueError("facets mention vertices outside the declared set")
        if any(v >= self.ctx.n or v < 0 for v in self.vertices):
            raise ValueError("vertex index outside the context")

    @classmethod
    def from_facets(
        cls,
        ctx: VariableContext,
        facets: Iterable[Iterable[int]],
        vertices: Iterable[int] | None = None,
    ) -> "SimplicialComplex":
        """Build a complex from (not necessarily maximal) faces.

        `vertices` may only enlarge the vertex set beyond the union of the
        facets; this is how duals remember their ambient vertex set.
        """
        maximal = antichain(frozenset(f) for f in facets)
        union = frozenset().union(*maximal) if maximal else frozenset()
        declared = union if vertices is None else union | frozenset(vertices)
        return cls(ctx, declared, maximal)

    @classmethod
    def void(cls, ctx: VariableContext, vertices: Iterable[int] = ()) -> "SimplicialComplex":
        return cls(ctx, frozenset(vertices), frozenset())

    @classmethod
    def irrelevant(cls, ctx: VariableContext, vertices: Iterable[int] = ()) -> "SimplicialComplex":
        """The complex {{}} whose single face is the empty set."""
        return cls(ctx, frozenset(vertices), frozenset([frozenset()]))

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def is_irrelevant(self) -> bool:
        return self.facets == frozenset([frozenset()])

    @property
    def is_simplex(self) -> bool:
        """One facet (the empty simplex {{}} counts) or void."""
        return len(self.facets) <= 1

    @property
    def dim(self) -> int:
        if self.is_void:
            raise VoidComplexError("the void complex has no dimension")
        return max(len(f) for f in self.facets) - 1

    def has_face(self, face: Iterable[int]) -> bool:
        face = frozenset(face)
        return any(face <= f for f in self.facets)

    def faces(self) -> frozenset[VertexSet]:
        """All faces (the empty face included unless the complex is void)."""
        out: set[VertexSet] = set()
        for f in self.facets:
            elems = sorted(f)
            for r in range(len(elems) + 1):
                out.update(frozenset(c) for c in combinations(elems, r))
        return frozenset(out)

    def canonical_key(self) -> tuple:
        """Hashable form for memo tables: sorted facet tuples only.

        Declared non-face vertices are deliberately excluded; no search
        decision in this package depends on them.
        """
        return tuple(sorted(tuple(sorted(f)) for f in self.facets))

    def __str__(self) -> str:
        if self.is_void:
            return "{}"
        if self.is_irrelevant:
            return "{<>}"
        names = self.ctx.set_names
        return "<" + ", ".join(
            "{" + ",".join(names(f)) + "}" for f in sorted(self.facets, key=sorted)
        ) + ">"


def minimal_nonfaces(delta: SimplicialComplex) -> frozenset[VertexSet]:
    """Inclusion-minimal subsets of the vertex set that are not faces."""
    if delta.is_void:
        raise VoidComplexError("the void complex has no nonfaces convention")
    faces = delta.faces()
    verts = sorted(delta.vertices)
    out = []
    for r in range(1, len(verts) + 1):
        for cand in combinations(verts, r):
            s = frozenset(cand)
            if s not in faces and all(s - {v} in faces for v in s):
                out.append(s)
    return frozenset(out)


def stanley_reisner_ideal(
    delta: SimplicialComplex, ambient: Iterable[int] | None = None
) -> MonomialIdeal:
    """The nonface ideal of `delta`, viewed in the ring on `ambient`.

    Ambient vertices that are not vertices of the complex contribute
    degree-one generators.  Defaults to the complex's own vertex set.
    """
    if delta.is_void:
        raise ImproperIdealError("the void complex has the unit nonface ideal")
    ambient_set = delta.vertices if ambient is None else frozenset(ambient)
    if not delta.vertices <= ambient_set:
        raise ValueError("ambient must contain the vertex set of the complex")
    ctx = delta.ctx
    gens = [ctx.monomial_of_set(n) for n in minimal_nonfaces(delta)]
    gens += [ctx.variable(v) for v in ambient_set - delta.vertices]
    return MonomialIdeal.from_monomials(ctx, gens)


def independence_complex(
    ctx: VariableContext,
    vertices: Iterable[int],
    edges: Iterable[Iterable[int]],
) -> SimplicialComplex:
    """Faces are the subsets of `vertices` containing no edge.

    Accepts singleton edges (their vertices then appear in no face).
    """
    verts = sorted(frozenset(vertices))
    edge_masks = []
    for e in edges:
        mask = 0
        for v in e:
            mask |= 1 << v
        edge_masks.append(mask)
    vert_bits = [1 << v for v in verts]

    independent: list[int] = []
    for sub in range(1 << len(verts)):
        mask = 0
        for i in range(len(verts)):
            if sub >> i & 1:
                mask |= vert_bits[i]
        if all(e & mask != e for e in edge_masks):
            independent.append(mask)
    indep_set = set(independent)
    facets = []
    for mask in independent:
        if not any(
            b & mask == 0 and (mask | b) in indep_set for b in vert_bits
        ):
            facets.append(frozenset(v for v in verts if mask >> v & 1))
    return SimplicialComplex.from_facets(ctx, facets)


def complex_from_nonfaces(clutter) -> SimplicialComplex:
    """Independence complex of a clutter (its maximal edge-free subsets)."""
    return independence_complex(clutter.ctx, clutter.vertices, clutter.edges)


def alexander_dual_complex(delta: SimplicialComplex) -> SimplicialComplex:
    """The dual {X - F : F not a face}, on the same vertex set X.

    Facets of the dual are the complements of the minimal nonfaces; the
    dual of the void complex on X is the full simplex on X and vice versa.
    Applied twice this is the identity.
    """
    verts = delta.vertices
    if delta.is_void:
        return SimplicialComplex.from_facets(delta.ctx, [verts], vertices=verts)
    nonfaces = minimal_nonfaces(delta)
    if not nonfaces:
        return SimplicialComplex.void(delta.ctx, verts)
    return SimplicialComplex.from_facets(
        delta.ctx, [verts - n for n in nonfaces], vertices=verts
    )


def alexander_dual_ideal(ideal: MonomialIdeal) -> MonomialIdeal:
    """Dual of a squarefree ideal: the intersection of its support primes.

    Computed as the ideal of minimal transversals of the generator
    supports, which is also the facet-complement ideal of the associated
    complex.  Independent of the ambient ring.
    """
    if not ideal.is_squarefree:
        raise ValueError("Alexander duality needs a squarefree ideal")
    if ideal.is_zero:
        raise ImproperIdealError("the dual of the zero ideal is the unit ideal")
    covers: set[frozenset[int]] = {frozenset()}
    for g in ideal.gens:
        supp = g.support
        extended: set[frozenset[int]] = set()
        for cover in covers:
            if cover & supp:
                extended.add(cover)
            else:
                extended.update(cover | {v} for v in supp)
        covers = antichain(extended, minimal=True)
    return MonomialIdeal.from_monomials(
        ideal.ctx, (ideal.ctx.monomial_of_set(c) for c in covers)
    )


def link(delta: SimplicialComplex, face: Iterable[int]) -> SimplicialComplex:
    """lk(F): faces disjoint from F whose union with F is a face."""
    face = frozenset(face)
    if not delta.has_face(face):
        raise NotAFaceError(f"{sorted(face)} is not a face")
    if not face:
        return delta
    reduced = [f - face for f in delta.facets if face <= f]
    return SimplicialComplex.from_facets(delta.ctx, reduced)


def delete_face(delta: SimplicialComplex, face: Iterable[int]) -> SimplicialComplex:
    """Faces of the complex not containing `face`.

    The declared vertex set is unchanged, except that deleting a single
    vertex removes it from the complex.
    """
    face = frozenset(face)
    if not face:
        raise ValueError("delete_face needs a nonempty face")
    if not delta.has_face(face):
        return delta
    survivors: list[VertexSet] = []
    for f in delta.facets:
        if face <= f:
            survivors.extend(f - {v} for v in face)
        else:
            survivors.append(f)
    new_vertices = delta.vertices - face if len(face) == 1 else delta.vertices
    return SimplicialComplex.from_facets(delta.ctx, survivors, vertices=new_vertices)


def induced_subcomplex(delta: SimplicialComplex, vertices: Iterable[int]) -> SimplicialComplex:
    """Restriction to the faces contained in `vertices`."""
    w = frozenset(vertices)
    if not w <= delta.vertices:
        raise ValueError("restriction set must be a subset of the vertices")
    if delta.is_void:
        return delta
    return SimplicialComplex.from_facets(delta.ctx, (f & w for f in delta.facets))
