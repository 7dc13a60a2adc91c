"""Simplicial complexes, Stanley-Reisner ideals and Alexander duality.

A complex carries an explicit vertex set, which may hold vertices that
are not faces (Alexander duals declare the vertex set of their input,
which is what makes dualizing an involution).  Both are kept as int
masks, the facets as a sorted tuple; ``vertices`` and ``facets`` view
them as frozensets.  :meth:`SimplicialComplex.from_facets` is the checked
constructor: its vertices lie in the context and it keeps the maximal
faces, through the antichain kernel of :mod:`kdecomp.monomials`, which
clutters and squarefree ideals share.  Links, deletions and duals are
built from masks and are not checked again.

The two degenerate complexes are ``{}`` (void, no faces at all), with no
facets, built by ``from_facets(ctx, [])``, and ``{{}}`` (only the empty
face), with the single facet mask ``0``, built by ``from_facets(ctx, [()])``.

Every duality goes through one helper on int masks,
:func:`_minimal_transversals` (the blocker of a clutter).  The minimal
nonfaces are the minimal transversals of the facet complements, and
:func:`_nonface_masks` is the one nonface path, behind
`minimal_nonfaces`, `stanley_reisner_ideal` and `alexander_dual_complex`.
The facets of an independence complex are the complements of the
minimal vertex covers of its edges, and the Alexander dual of a
squarefree ideal is generated by the minimal transversals of its
generator supports.  Its search is bounded by TRANSVERSAL_BUDGET nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from math import inf
from operator import or_
from typing import Iterable

from .errors import (
    BudgetExceededError,
    ImproperIdealError,
    NotAFaceError,
    VoidComplexError,
)
from .monomials import MonomialIdeal, VariableContext, antichain, bits, mask_of

VertexSet = frozenset[int]
# search nodes of _minimal_transversals
TRANSVERSAL_BUDGET = 10**6


def _minimal_transversals(members: list[int]) -> list[int]:
    """The inclusion-minimal masks meeting every mask of `members`, in
    ascending order: the blocker of the clutter of their minimal members.
    No members give ``[0]``; an empty member gives ``[]``.

    MMCS (Murakami-Uno, Discrete Appl. Math. 170, 2014), depth first from
    an explicit stack, as a cover can hold every vertex.  A node holds a
    partial cover s, its candidates, the bitset of members it misses and,
    for each vertex of s, the bitset of members only that vertex hits.  It
    branches on the vertices of its first missed member that are still
    candidates; a vertex tried is a candidate again for the later
    branches, so each cover is found once.  A branch is cut when it would
    leave some vertex of s with no member of its own, so s stays minimal,
    and s is a cover when it misses no member.  More than
    TRANSVERSAL_BUDGET nodes are refused.
    """
    hit: dict[int, int] = {}  # vertex bit -> bitset of the members holding it
    for i, m in enumerate(members):
        for v in bits(m):
            hit[1 << v] = hit.get(1 << v, 0) | 1 << i
    covers, nodes = [], 0
    stack = [(0, reduce(or_, members, 0), (1 << len(members)) - 1, [])]
    while stack:
        nodes += 1
        if nodes > TRANSVERSAL_BUDGET:
            raise BudgetExceededError(f"transversal budget is {TRANSVERSAL_BUDGET} nodes")
        s, cand, missed, crit = stack.pop()
        if not missed:
            covers.append(s)
            continue
        branch = cand & members[(missed & -missed).bit_length() - 1]
        cand ^= branch
        while branch:
            v = branch & -branch
            branch ^= v
            h = hit[v]
            crits = [c & ~h for c in crit]
            if all(crits):
                crits.append(missed & h)
                stack.append((s | v, cand, missed & ~h, crits))
            cand |= v
    return sorted(covers)


def _face_levels(facet_masks, limit=inf) -> list[list[int]]:
    """The faces of the complex generated by `facet_masks`, which need not
    be an antichain, by cardinality, each level sorted by mask; ``[]``
    (void) when there are no facets.  Level c + 1 extends each face s of
    level c by a vertex v above its highest one.  s carries the bitset of
    the facets that hold it, and s | v the AND of that with the facets
    that hold v; a face survives while its bitset is nonzero.  Once more
    than `limit` faces are found the building stops: the levels returned
    then hold more than `limit` faces, and may miss some."""
    holders: dict[int, int] = {}
    for i, f in enumerate(facet_masks):
        for v in bits(f):
            holders[1 << v] = holders.get(1 << v, 0) | 1 << i
    vertices = sorted(holders.items())
    level = [(0, (1 << len(facet_masks)) - 1)] if facet_masks else []
    levels = []
    while level:
        levels.append([s for s, _ in level])
        limit -= len(level)
        nxt = []  # by top vertex, then by the rest: ascending masks
        for v, held in vertices:
            if len(nxt) > limit:
                break
            for s, h in level:
                if s >= v:  # the rest of the level reaches v or above
                    break
                if t := h & held:
                    nxt.append((s | v, t))
        level = nxt
    return levels


@dataclass(frozen=True)
class SimplicialComplex:
    """A simplicial complex given by its facets over an explicit vertex set:
    `facet_masks` is an antichain of int masks inside `vertex_mask`, sorted
    ascending.  Direct construction does not check that; `from_facets` does."""

    ctx: VariableContext
    vertex_mask: int
    facet_masks: tuple[int, ...]

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
        sets = [frozenset(f) for f in facets]
        declared = frozenset(vertices or ())
        if any(not 0 <= v < ctx.n for v in declared.union(*sets)):
            raise ValueError("vertex index outside the context")
        maximal = antichain(map(mask_of, sets))
        return cls(ctx, reduce(or_, maximal, mask_of(declared)), maximal)

    @cached_property
    def vertices(self) -> VertexSet:
        return frozenset(bits(self.vertex_mask))

    @cached_property
    def facets(self) -> frozenset[VertexSet]:
        return frozenset(frozenset(bits(f)) for f in self.facet_masks)

    @property
    def is_void(self) -> bool:
        return not self.facet_masks

    @property
    def is_irrelevant(self) -> bool:
        return self.facet_masks == (0,)

    @property
    def is_simplex(self) -> bool:
        """One facet (the empty simplex {{}} counts) or void."""
        return len(self.facet_masks) <= 1

    def faces(self) -> frozenset[VertexSet]:
        """All faces (the empty face included unless the complex is void)."""
        levels = _face_levels(self.facet_masks)
        return frozenset(frozenset(bits(m)) for level in levels for m in level)

    def __str__(self) -> str:
        """Facets in lex order, then " on" and the vertex set when that is
        larger than the union of the facets."""
        names = self.ctx.set_names
        if self.is_void:
            text = "{}"
        elif self.is_irrelevant:
            text = "{<>}"
        else:
            text = "<" + ", ".join(
                "{" + ",".join(names(f)) + "}" for f in sorted(map(bits, self.facet_masks))
            ) + ">"
        if reduce(or_, self.facet_masks, 0) != self.vertex_mask:
            text += " on {" + ",".join(names(self.vertices)) + "}"
        return text


def _nonface_masks(delta: SimplicialComplex) -> list[int]:
    """The minimal nonfaces as ascending masks: a set is a nonface exactly
    when it meets every facet complement.  The void complex gives ``[0]``."""
    return _minimal_transversals([delta.vertex_mask ^ f for f in delta.facet_masks])


def minimal_nonfaces(delta: SimplicialComplex) -> frozenset[VertexSet]:
    """Inclusion-minimal subsets of the vertex set that are not faces."""
    if delta.is_void:
        raise VoidComplexError("the void complex has no nonfaces convention")
    return frozenset(frozenset(bits(c)) for c in _nonface_masks(delta))


def stanley_reisner_ideal(
    delta: SimplicialComplex, ambient: Iterable[int] | None = None
) -> MonomialIdeal:
    """The nonface ideal of `delta`, viewed in the ring on `ambient`.

    Ambient vertices that are not vertices of the complex contribute
    degree-one generators.  Defaults to the complex's own vertex set.
    """
    if delta.is_void:
        raise ImproperIdealError("the void complex has the unit nonface ideal")
    x = delta.vertex_mask
    ambient_mask = x if ambient is None else mask_of(ambient)
    if x & ~ambient_mask:
        raise ValueError("ambient must contain the vertex set of the complex")
    masks = _nonface_masks(delta) + [1 << v for v in bits(ambient_mask ^ x)]
    return MonomialIdeal.from_masks(delta.ctx, masks)


def independence_complex(
    ctx: VariableContext,
    vertices: Iterable[int],
    edges: Iterable[Iterable[int]],
) -> SimplicialComplex:
    """Faces are the subsets of `vertices` containing no edge.

    Accepts singleton edges (their vertices then appear in no face); an
    edge not inside `vertices` is in no such subset and changes nothing.
    The facets are the complements of the minimal vertex covers.
    """
    verts = mask_of(vertices)
    if verts >> ctx.n:
        raise ValueError("vertex index outside the context")
    covers = _minimal_transversals([e for e in map(mask_of, edges) if e & verts == e])
    facets = sorted([verts ^ c for c in covers])
    return SimplicialComplex(ctx, reduce(or_, facets, 0), tuple(facets))


def alexander_dual_complex(delta: SimplicialComplex) -> SimplicialComplex:
    """The dual {X - F : F not a face}, on the same vertex set X.

    Facets of the dual are the complements of the minimal nonfaces; the
    dual of the void complex on X is the full simplex on X and vice versa.
    Applied twice this is the identity.
    """
    x = delta.vertex_mask
    # the complements of an antichain form an antichain
    facets = sorted([x ^ c for c in _nonface_masks(delta)])
    return SimplicialComplex(delta.ctx, x, tuple(facets))


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
    supports = [sum(e << v for v, e in enumerate(g)) for g in ideal.exps]
    return MonomialIdeal.from_masks(ideal.ctx, _minimal_transversals(supports))


def link(delta: SimplicialComplex, face: Iterable[int]) -> SimplicialComplex:
    """lk(F): faces disjoint from F whose union with F is a face.  Its facets
    G - F over the facets G holding F stay an antichain in ascending order."""
    s = mask_of(face)
    holders = [f for f in delta.facet_masks if f & s == s]
    if not holders:
        raise NotAFaceError(f"{bits(s)} is not a face")
    if not s:
        return delta
    reduced = tuple([f ^ s for f in holders])
    return SimplicialComplex(delta.ctx, reduce(or_, reduced, 0), reduced)


def delete_face(delta: SimplicialComplex, face: Iterable[int]) -> SimplicialComplex:
    """Faces of the complex not containing `face`.

    The declared vertex set is unchanged, except that deleting a single
    vertex removes it from the complex.
    """
    s = mask_of(face)
    if not s:
        raise ValueError("delete_face needs a nonempty face")
    holders = [f for f in delta.facet_masks if f & s == s]
    if not holders:
        return delta
    survivors = [f for f in delta.facet_masks if f & s != s]
    survivors += [f ^ (1 << v) for f in holders for v in bits(s)]
    vertices = delta.vertex_mask ^ s if s & (s - 1) == 0 else delta.vertex_mask
    return SimplicialComplex(delta.ctx, vertices, antichain(survivors))
