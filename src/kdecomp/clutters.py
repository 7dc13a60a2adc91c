"""Clutters: minors, simplicial vertices, chordality and regularity bounds.

A clutter is an antichain of nonempty edges over an explicit vertex set,
kept as an int mask and an ascending tuple of edge masks; ``vertices``
and ``edges`` are frozenset views for callers only.  Direct construction
checks nothing; :meth:`Clutter.from_edges` is the checked constructor:
its vertices lie in the context and its edges have at least two
vertices.  Minors are antichains by construction and are not checked
again.  Deletion, contraction and the simplicial-vertex test each have
one implementation on masks, which the chordality search calls directly;
the lemma's minors H \\ v (v in sigma = e - {x}) and H / sigma are read
off the edge masks once, through the same two, for both `lemma_h_ideals`
and `chordal_reg_bound`.  Contraction may leave singleton edges (their
edge ideals then pick up degree-one generators), and deleting a vertex
keeps the remaining vertices even when they become isolated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, combinations
from operator import or_
from typing import Iterable

from .complexes import delete_face, independence_complex, link, stanley_reisner_ideal
from .errors import (
    BudgetExceededError,
    ImproperContractionError,
    PropertyViolationError,
)
from .homology import check_field, hochster_from_masks
from .monomials import MonomialIdeal, VariableContext, antichain, bits, mask_of

CHORDALITY_VERTEX_BUDGET = 10


@dataclass(frozen=True)
class Clutter:
    ctx: VariableContext
    vertex_mask: int
    edge_masks: tuple[int, ...]

    @classmethod
    def from_edges(
        cls,
        ctx: VariableContext,
        edges: Iterable[Iterable[int]],
        vertices: Iterable[int] | None = None,
    ) -> "Clutter":
        """User constructor: edges need >= 2 vertices; comparable edges are
        reduced to the minimal ones."""
        edge_sets = [frozenset(e) for e in edges]
        for e in edge_sets:
            if len(e) < 2:
                raise ValueError(f"user edges need at least two vertices: {sorted(e)}")
        declared = frozenset(vertices or ())
        if any(not 0 <= v < ctx.n for v in declared.union(*edge_sets)):
            raise ValueError("vertex index outside the context")
        minimal = antichain(map(mask_of, edge_sets), minimal=True)
        return cls(ctx, reduce(or_, minimal, mask_of(declared)), minimal)

    @cached_property
    def vertices(self) -> frozenset[int]:
        return frozenset(bits(self.vertex_mask))

    @cached_property
    def edges(self) -> frozenset[frozenset[int]]:
        return frozenset(frozenset(bits(e)) for e in self.edge_masks)

    @property
    def is_edgeless(self) -> bool:
        return not self.edge_masks

    def __str__(self) -> str:
        def braced(mask: int) -> str:
            return "{" + ",".join(self.ctx.set_names(bits(mask))) + "}"

        edges = ", ".join(map(braced, sorted(self.edge_masks, key=bits)))
        return f"clutter({braced(self.vertex_mask)}; [{edges}])"


def _inside(edges: Iterable[int], mask: int) -> bool:
    """Some edge mask lies inside `mask`."""
    return any(e & mask == e for e in edges)


def _delete(vertex_mask: int, edges: tuple[int, ...], bit: int) -> tuple[int, tuple]:
    return vertex_mask ^ bit, tuple([e for e in edges if not e & bit])


def _contract(vertex_mask: int, edges: tuple[int, ...], bit: int) -> tuple[int, tuple]:
    """The cut edges e - {v} of the edges through v are pairwise
    incomparable, and none contains an edge avoiding v, so only the edges
    avoiding v that contain a cut edge are dropped."""
    cut = [e ^ bit for e in edges if e & bit]
    uncut = [e for e in edges if not e & bit and not _inside(cut, e)]
    return vertex_mask ^ bit, tuple(sorted(cut + uncut))


def _is_simplicial(edges: tuple[int, ...], bit: int) -> bool:
    incident = [e for e in edges if e & bit]
    return all(_inside(edges, (e1 | e2) ^ bit) for e1, e2 in combinations(incident, 2))


def _vertex_bit(clutter: Clutter, v: int) -> int:
    if v < 0 or not clutter.vertex_mask >> v & 1:
        raise KeyError(f"unknown vertex {v}")
    return 1 << v


def deletion(clutter: Clutter, v: int) -> Clutter:
    """Remove the vertex and every edge through it."""
    bit = _vertex_bit(clutter, v)
    return Clutter(clutter.ctx, *_delete(clutter.vertex_mask, clutter.edge_masks, bit))


def contraction(clutter: Clutter, v: int) -> Clutter:
    """Remove the vertex from every edge and keep the minimal results."""
    bit = _vertex_bit(clutter, v)
    if bit in clutter.edge_masks:
        raise ImproperContractionError(
            f"contracting {clutter.ctx.names[v]!r} would create an empty edge"
        )
    return Clutter(clutter.ctx, *_contract(clutter.vertex_mask, clutter.edge_masks, bit))


def is_simplicial_vertex(clutter: Clutter, v: int) -> bool:
    """Every pair of edges through v is completed by an edge avoiding v."""
    return _is_simplicial(clutter.edge_masks, _vertex_bit(clutter, v))


def _lemma_minors(clutter: Clutter, x: int, e: frozenset[int]) -> tuple[int, list, tuple]:
    """For an edge e of the clutter through x with another vertex besides x:
    the mask of sigma = e - {x}, the edge masks of H \\ v for each v in
    sigma (ascending), and the edge masks of H / sigma."""
    e_mask = mask_of(e) if min(e, default=0) >= 0 else 0  # a negative vertex is in no edge
    if x < 0 or e_mask not in clutter.edge_masks or not e_mask >> x & 1:
        raise ValueError("need a vertex contained in an edge of the clutter")
    sigma = e_mask ^ (1 << x)
    if not sigma:
        raise ValueError("the edge must have another vertex besides x")
    minor = clutter.vertex_mask, clutter.edge_masks
    deletions = [_delete(*minor, 1 << v)[1] for v in bits(sigma)]
    for v in bits(sigma):
        minor = _contract(*minor, 1 << v)
    return sigma, deletions, minor[1]


@dataclass(frozen=True)
class MinorStep:
    kind: str  # "delete" | "contract"
    vertex: int


MinorTrace = tuple[MinorStep, ...]


def apply_trace(clutter: Clutter, trace: Iterable[MinorStep]) -> Clutter:
    out = clutter
    for step in trace:
        if step.kind == "delete":
            out = deletion(out, step.vertex)
        elif step.kind == "contract":
            out = contraction(out, step.vertex)
        else:
            raise ValueError(f"unknown minor operation {step.kind!r}")
    return out


def is_chordal(clutter: Clutter, memo: dict | None = None) -> tuple[bool, MinorTrace | None]:
    """Decide whether every minor has a simplicial vertex.

    Returns (True, None) or (False, trace) where replaying the trace from
    the input reaches a minor with no simplicial vertex.  Verdicts are
    memoized on the pair (vertex mask, sorted edge-mask tuple); a shared
    `memo` dictionary makes repeated queries over overlapping minors cheap.
    Raises BudgetExceededError on more than CHORDALITY_VERTEX_BUDGET
    vertices, a bound read at each call.
    """
    n = clutter.vertex_mask.bit_count()
    if n > CHORDALITY_VERTEX_BUDGET:
        raise BudgetExceededError(
            f"chordality budget is {CHORDALITY_VERTEX_BUDGET} vertices, got {n}"
        )
    if memo is None:
        memo = {}
    witness = _chordal_rec(clutter.vertex_mask, clutter.edge_masks, memo)
    return witness is None, witness


def _chordal_rec(vertex_mask: int, edges: tuple[int, ...], memo: dict) -> MinorTrace | None:
    """None if every minor has a simplicial vertex, else the trace to the first
    minor without one (vertices ascending, delete before contract)."""
    key = (vertex_mask, edges)
    if memo.get(key) is True:
        return None
    # Edgeless minors are fine and all their minors are edgeless too.
    if not edges:
        memo[key] = True
        return None
    verts = bits(vertex_mask)
    if not any(_is_simplicial(edges, 1 << v) for v in verts):
        memo[key] = False
        return ()
    for v in verts:
        bit = 1 << v
        for kind, op in (("delete", _delete), ("contract", _contract)):
            if op is _contract and bit in edges:
                continue  # it would leave an empty edge
            witness = _chordal_rec(*op(vertex_mask, edges, bit), memo)
            if witness is not None:
                memo[key] = False
                return (MinorStep(kind, v), *witness)
    memo[key] = True
    return None


def edge_ideal(clutter: Clutter) -> MonomialIdeal:
    """The ideal generated by the edge monomials; edgeless gives zero."""
    return MonomialIdeal.from_masks(clutter.ctx, clutter.edge_masks)


def lemma_h_ideals(
    clutter: Clutter, e: frozenset[int], x: int
) -> tuple[MonomialIdeal, MonomialIdeal]:
    """Nonface ideals of the deletion and link of sigma = e - {x} in the
    independence complex, assembled from clutter minors.

    deletion side: (prod of sigma) + sum of edge ideals of the single-vertex
    deletions over sigma;  link side: the edge ideal of the contraction by
    sigma.  Both are checked against the complex-side computation; a
    mismatch is an internal error.
    """
    sigma, deletions, contracted = _lemma_minors(clutter, x, e)
    deletion_ideal = MonomialIdeal.from_masks(clutter.ctx, [sigma, *chain(*deletions)])
    link_ideal = MonomialIdeal.from_masks(clutter.ctx, contracted)

    face, vertices = bits(sigma), bits(clutter.vertex_mask)
    delta = independence_complex(clutter.ctx, vertices, map(bits, clutter.edge_masks))
    expected_del = stanley_reisner_ideal(delete_face(delta, face), vertices)
    expected_link = stanley_reisner_ideal(link(delta, face), bits(clutter.vertex_mask & ~sigma))
    if deletion_ideal != expected_del or link_ideal != expected_link:
        raise PropertyViolationError(
            "clutter-minor ideals disagree with the complex computation "
            f"on {clutter}, e={sorted(e)}, x={x}"
        )
    return deletion_ideal, link_ideal


@dataclass(frozen=True)
class ChordalBoundReport:
    """Both sides of the regularity identity and of the upper bound for a
    simplicial vertex x with edge e; d = |e| - 1.  The bound's link term
    is the identity's, `identity_link`."""

    clutter: Clutter
    x: int
    e: frozenset[int]
    d: int
    reg: int  # reg R/I(H)
    identity_deletion: int  # reg R/((prod sigma) + I(H))
    identity_link: int  # reg R/I(H / sigma) + d
    bound_deletion: int  # sum_i reg R/I(H \ x_i) + (d - 1)

    @property
    def identity_rhs(self) -> int:
        return max(self.identity_deletion, self.identity_link)

    @property
    def bound_rhs(self) -> int:
        return max(self.bound_deletion, self.identity_link)

    @property
    def identity_holds(self) -> bool:
        return self.reg == self.identity_rhs

    @property
    def bound_holds(self) -> bool:
        return self.reg <= self.bound_rhs


def chordal_reg_bound(
    clutter: Clutter, x: int, e: frozenset[int], field=None
) -> ChordalBoundReport:
    """Check the regularity identity and upper bound at (x, e).

    All regularities are oracle-computed.  x must be a simplicial vertex
    contained in the edge e.  A failed identity or bound raises
    PropertyViolationError carrying the report.  No ideal is built: the
    oracle gets the edge masks of the clutter and its minors, which are
    antichains already, and the masks of (prod sigma) + I(H), the one
    set that needs minimalizing.
    """
    check_field(field)
    e = frozenset(e)
    if not is_simplicial_vertex(clutter, x):
        raise ValueError(f"{clutter.ctx.names[x]} is not a simplicial vertex")
    sigma, deletions, contracted = _lemma_minors(clutter, x, e)
    d = sigma.bit_count()

    def quotient_reg(edges: tuple[int, ...]) -> int:
        """reg R/I for the edge masks of I; an edgeless minor gives 0."""
        return hochster_from_masks(edges, field).reg - 1 if edges else 0

    edges = clutter.edge_masks
    reg = quotient_reg(edges)
    identity_deletion = quotient_reg(antichain([sigma, *edges], minimal=True))
    link_term = quotient_reg(contracted) + d
    bound_deletion = sum(map(quotient_reg, deletions)) + d - 1
    report = ChordalBoundReport(
        clutter=clutter,
        x=x,
        e=e,
        d=d,
        reg=reg,
        identity_deletion=identity_deletion,
        identity_link=link_term,
        bound_deletion=bound_deletion,
    )
    if not report.identity_holds:
        raise PropertyViolationError(
            f"regularity identity fails on {clutter}, x={x}, e={sorted(e)}: "
            f"reg={reg} vs max({identity_deletion}, {link_term})",
            report,
        )
    if not report.bound_holds:
        raise PropertyViolationError(
            f"regularity bound fails on {clutter}, x={x}, e={sorted(e)}: "
            f"reg={reg} > max({bound_deletion}, {link_term})",
            report,
        )
    return report


def graph_is_chordal_bruteforce(clutter: Clutter) -> bool:
    """Classical chordality for 2-uniform clutters, decided independently:
    scan every vertex subset for an induced chordless cycle of length >= 4.
    It is a reference, not a library path: tests and perfbench compare
    `is_chordal` against it."""
    if any(e.bit_count() != 2 for e in clutter.edge_masks):
        raise ValueError("needs a graph (all edges of size 2)")
    verts = bits(clutter.vertex_mask)
    adjacent = dict.fromkeys(verts, 0)  # neighbour masks
    for e in clutter.edge_masks:
        for v in bits(e):
            adjacent[v] |= e ^ (1 << v)
    for r in range(4, len(verts) + 1):
        for subset in combinations(verts, r):
            inside = mask_of(subset)
            if any((adjacent[v] & inside).bit_count() != 2 for v in subset):
                continue
            # 2-regular induced subgraph: a disjoint union of cycles; it is
            # a single (chordless) cycle iff connected.
            seen, reached = 0, 1 << subset[0]
            while reached != seen:
                seen = reached
                for v in bits(seen):
                    reached |= adjacent[v] & inside
            if seen == inside:
                return False
    return True
