"""Clutters: minors, simplicial vertices, chordality and regularity bounds.

A clutter is an antichain of nonempty edges over an explicit vertex set,
kept as an int mask and an ascending tuple of edge masks; ``vertices``
and ``edges`` are frozenset views for callers only.  Direct construction
checks nothing; :meth:`Clutter.from_edges` is the checked constructor:
its vertices lie in the context and its edges have at least two
vertices.  Minors are antichains by construction and are not checked
again.

A clutter and a vertex v are handled from one split of the edge masks
into the edges through v and the rest.  The rest is the deletion H \\ v;
the simplicial test reads the edges through v and looks for completing
edges in the rest; the contraction H / v is the cut edges e - {v} of the
edges through v plus the rest that holds no cut edge.  The split, the
test, deletion and contraction each have one implementation on masks.
The chordality search splits each minor once per vertex, and
`deletion`, `contraction`, `is_simplicial_vertex` and the lemma's minors
H \\ v (v in sigma = e - {x}) and H / sigma, read off once for both
`lemma_h_ideals` and `chordal_reg_bound`, go through the same helpers.
Contraction may leave singleton edges (their edge ideals then pick up
degree-one generators), and deleting a vertex keeps the remaining
vertices even when they become isolated.
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
        declared = frozenset(vertices or ())
        if any(not 0 <= v < ctx.n for v in declared.union(*edge_sets)):
            raise ValueError("vertex index outside the context")
        for e in edge_sets:
            if len(e) < 2:
                raise ValueError(
                    f"user edges need at least two vertices: {_braced(ctx, mask_of(e))}"
                )
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
        edges = ", ".join(_braced(self.ctx, e) for e in sorted(self.edge_masks, key=bits))
        return f"clutter({_braced(self.ctx, self.vertex_mask)}; [{edges}])"


def _braced(ctx: VariableContext, mask: int) -> str:
    """The named vertices of a mask, as in {x,y}."""
    return "{" + ",".join(ctx.set_names(bits(mask))) + "}"


def _split(edges: tuple[int, ...], bit: int) -> tuple[list[int], tuple[int, ...]]:
    """The edges through the vertex and the rest, both ascending.  The rest
    is the deletion's edge tuple, and the simplicial test and the
    contraction read the two halves."""
    return [e for e in edges if e & bit], tuple([e for e in edges if not e & bit])


def _contract(through: list[int], rest: tuple[int, ...], bit: int) -> tuple[int, ...]:
    """The cut edges e - {v} of the edges through v are pairwise
    incomparable, and none contains an edge of the rest, so only the edges
    of the rest that contain a cut edge are dropped."""
    cut = [e ^ bit for e in through]
    covering = {e for c in cut for e in rest if c & e == c}
    return tuple(sorted(cut + [e for e in rest if e not in covering]))


def _is_simplicial(through: list[int], rest: tuple[int, ...], bit: int) -> bool:
    """Every pair e1, e2 of edges through v has an edge inside
    (e1 | e2) - {v}.  Such an edge avoids v, so only the rest can hold it."""
    for e1, e2 in combinations(through, 2):
        completion = (e1 | e2) ^ bit
        if not any(f & completion == f for f in rest):
            return False
    return True


def _vertex_bit(clutter: Clutter, v: int) -> int:
    if v < 0 or not clutter.vertex_mask >> v & 1:
        raise KeyError(f"unknown vertex {v}")
    return 1 << v


def deletion(clutter: Clutter, v: int) -> Clutter:
    """Remove the vertex and every edge through it."""
    bit = _vertex_bit(clutter, v)
    return Clutter(clutter.ctx, clutter.vertex_mask ^ bit, _split(clutter.edge_masks, bit)[1])


def contraction(clutter: Clutter, v: int) -> Clutter:
    """Remove the vertex from every edge and keep the minimal results."""
    bit = _vertex_bit(clutter, v)
    through, rest = _split(clutter.edge_masks, bit)
    if through[:1] == [bit]:
        raise ImproperContractionError(
            f"contracting {clutter.ctx.names[v]!r} would create an empty edge"
        )
    return Clutter(clutter.ctx, clutter.vertex_mask ^ bit, _contract(through, rest, bit))


def is_simplicial_vertex(clutter: Clutter, v: int) -> bool:
    """Every pair of edges through v is completed by an edge avoiding v."""
    bit = _vertex_bit(clutter, v)
    return _is_simplicial(*_split(clutter.edge_masks, bit), bit)


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
    edges = clutter.edge_masks
    deletions = [_split(edges, 1 << v)[1] for v in bits(sigma)]
    for v in bits(sigma):
        edges = _contract(*_split(edges, 1 << v), 1 << v)
    return sigma, deletions, edges


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

    Each minor splits its edges once per vertex, and that split gives the
    simplicial test and both children.  A child, and the input itself, is
    looked up before the search descends into it and skipped when it is a
    True entry.  That is exact: a True entry is written only after all of
    its minors have been entered, so descending again would add nothing to
    the memo and find no witness.  Contracting a vertex in no edge gives
    the deletion again, which is not entered twice.
    """
    n = clutter.vertex_mask.bit_count()
    if n > CHORDALITY_VERTEX_BUDGET:
        raise BudgetExceededError(
            f"chordality budget is {CHORDALITY_VERTEX_BUDGET} vertices, got {n}"
        )
    if memo is None:
        memo = {}
    key = (clutter.vertex_mask, clutter.edge_masks)
    witness = None if memo.get(key) is True else _chordal_rec(key, memo)
    return witness is None, witness


def _chordal_rec(key: tuple[int, tuple[int, ...]], memo: dict) -> MinorTrace | None:
    """None if every minor has a simplicial vertex, else the trace to the first
    minor without one (vertices ascending, delete before contract).  The
    caller has looked the key up: it is not a True entry of the memo."""
    vertex_mask, edges = key
    # Edgeless minors are fine and all their minors are edgeless too.
    if not edges:
        memo[key] = True
        return None
    splits = [(v, 1 << v, *_split(edges, 1 << v)) for v in bits(vertex_mask)]
    if not any(_is_simplicial(through, rest, bit) for _, bit, through, rest in splits):
        memo[key] = False
        return ()
    for v, bit, through, rest in splits:
        child = (vertex_mask ^ bit, rest)
        witness = None if memo.get(child) is True else _chordal_rec(child, memo)
        kind = "delete"
        # Contracting v gives the deletion again when v lies in no edge, and
        # an empty edge when {v} is one.
        if witness is None and through and through[0] != bit:
            child = (vertex_mask ^ bit, _contract(through, rest, bit))
            witness = None if memo.get(child) is True else _chordal_rec(child, memo)
            kind = "contract"
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
    antichains already, and the generators of (prod sigma) + I(H), which
    are sigma and the edges that do not contain it.  No edge lies inside
    sigma, a proper subset of the edge e, so these are an antichain too.
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
    identity_deletion = quotient_reg((sigma, *(f for f in edges if f & sigma != sigma)))
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
