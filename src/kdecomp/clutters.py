"""Clutters: minors, simplicial vertices, chordality and regularity bounds.

A clutter is an antichain of edges over an explicit vertex set.  Edges
of user-built clutters have at least two vertices; minors obtained by
contraction may carry singleton edges (their edge ideals then pick up
degree-one generators), and deleting a vertex keeps the remaining
vertices even when they become isolated.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .complexes import (
    antichain,
    complex_from_nonfaces,
    delete_face,
    link,
    stanley_reisner_ideal,
)
from .errors import (
    BudgetExceededError,
    ImproperContractionError,
    PropertyViolationError,
)
from .homology import oracle_quotient_reg_pd
from .monomials import MonomialIdeal, VariableContext

CHORDALITY_VERTEX_BUDGET = 10


@dataclass(frozen=True)
class Clutter:
    ctx: VariableContext
    vertices: frozenset[int]
    edges: frozenset[frozenset[int]]

    def __post_init__(self):
        for e in self.edges:
            if not e:
                raise ImproperContractionError("empty edge in clutter")
            if not e <= self.vertices:
                raise ValueError("edge mentions a vertex outside the clutter")
        for a in self.edges:
            for b in self.edges:
                if a < b:
                    raise ValueError("edges must be pairwise incomparable")

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
        minimal = antichain(edge_sets, minimal=True)
        union = frozenset().union(*minimal) if minimal else frozenset()
        declared = union if vertices is None else union | frozenset(vertices)
        return cls(ctx, declared, minimal)

    @property
    def is_edgeless(self) -> bool:
        return not self.edges

    def canonical_key(self) -> tuple:
        return (
            tuple(sorted(self.vertices)),
            tuple(sorted(tuple(sorted(e)) for e in self.edges)),
        )

    def __str__(self) -> str:
        names = self.ctx.set_names
        verts = "{" + ",".join(names(self.vertices)) + "}"
        edges = ", ".join(
            "{" + ",".join(names(e)) + "}" for e in sorted(self.edges, key=sorted)
        )
        return f"clutter({verts}; [{edges}])"


def deletion(clutter: Clutter, v: int) -> Clutter:
    """Remove the vertex and every edge through it."""
    if v not in clutter.vertices:
        raise KeyError(f"unknown vertex {v}")
    return Clutter(
        clutter.ctx,
        clutter.vertices - {v},
        frozenset(e for e in clutter.edges if v not in e),
    )


def contraction(clutter: Clutter, v: int) -> Clutter:
    """Remove the vertex from every edge and keep the minimal results."""
    if v not in clutter.vertices:
        raise KeyError(f"unknown vertex {v}")
    if frozenset([v]) in clutter.edges:
        raise ImproperContractionError(
            f"contracting {clutter.ctx.names[v]!r} would create an empty edge"
        )
    return Clutter(
        clutter.ctx,
        clutter.vertices - {v},
        antichain((e - {v} for e in clutter.edges), minimal=True),
    )


def contraction_set(clutter: Clutter, vertices: Iterable[int]) -> Clutter:
    """Contract a set of vertices; no edge may be contained in the set.

    The result does not depend on the elimination order.
    """
    todo = frozenset(vertices)
    if any(e <= todo for e in clutter.edges):
        raise ImproperContractionError("an edge lies inside the contraction set")
    out = clutter
    for v in sorted(todo):
        out = contraction(out, v)
    return out


def is_simplicial_vertex(clutter: Clutter, v: int) -> bool:
    """Every pair of edges through v is completed by an edge avoiding v."""
    if v not in clutter.vertices:
        raise KeyError(f"unknown vertex {v}")
    incident = [e for e in clutter.edges if v in e]
    for e1, e2 in combinations(incident, 2):
        hull = (e1 | e2) - {v}
        if not any(e3 <= hull for e3 in clutter.edges):
            return False
    return True


def is_containment_pair(clutter: Clutter, v: int, e: frozenset[int]) -> bool:
    """For every other edge through v there is an edge inside the union
    minus v."""
    e = frozenset(e)
    if e not in clutter.edges or v not in e:
        raise ValueError("need a vertex contained in an edge of the clutter")
    for e2 in clutter.edges:
        if e2 == e or v not in e2:
            continue
        hull = (e | e2) - {v}
        if not any(e3 <= hull for e3 in clutter.edges):
            return False
    return True


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


def is_chordal(
    clutter: Clutter,
    memo: dict | None = None,
    vertex_budget: int = CHORDALITY_VERTEX_BUDGET,
) -> tuple[bool, MinorTrace | None]:
    """Decide whether every minor has a simplicial vertex.

    Returns (True, None) or (False, trace) where replaying the trace from
    the input reaches a minor with no simplicial vertex.  Verdicts are
    memoized on the canonical clutter form; a shared `memo` dictionary
    makes repeated queries over overlapping minors cheap.
    """
    if len(clutter.vertices) > vertex_budget:
        raise BudgetExceededError(
            f"chordality budget is {vertex_budget} vertices, "
            f"got {len(clutter.vertices)}"
        )
    if memo is None:
        memo = {}
    return _chordal_rec(clutter, (), memo)


def _chordal_rec(clutter: Clutter, trace: MinorTrace, memo: dict):
    key = clutter.canonical_key()
    known = memo.get(key)
    if known is True:
        return True, None
    # Edgeless minors are fine and all their minors are edgeless too.
    if clutter.is_edgeless:
        memo[key] = True
        return True, None
    if not any(is_simplicial_vertex(clutter, v) for v in sorted(clutter.vertices)):
        memo[key] = False
        return False, trace
    for v in sorted(clutter.vertices):
        ok, witness = _chordal_rec(
            deletion(clutter, v), trace + (MinorStep("delete", v),), memo
        )
        if not ok:
            memo[key] = False
            return False, witness
        if frozenset([v]) not in clutter.edges:
            ok, witness = _chordal_rec(
                contraction(clutter, v), trace + (MinorStep("contract", v),), memo
            )
            if not ok:
                memo[key] = False
                return False, witness
    memo[key] = True
    return True, None


def edge_ideal(clutter: Clutter) -> MonomialIdeal:
    """The ideal generated by the edge monomials; edgeless gives zero."""
    ctx = clutter.ctx
    return MonomialIdeal.from_monomials(
        ctx, (ctx.monomial_of_set(e) for e in clutter.edges)
    )


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
    e = frozenset(e)
    if e not in clutter.edges or x not in e:
        raise ValueError("need a vertex contained in an edge of the clutter")
    sigma = e - {x}
    if not sigma:
        raise ValueError("the edge must have another vertex besides x")
    ctx = clutter.ctx

    gens = [ctx.monomial_of_set(sigma)]
    for v in sorted(sigma):
        gens.extend(edge_ideal(deletion(clutter, v)).gens)
    deletion_ideal = MonomialIdeal.from_monomials(ctx, gens)
    link_ideal = edge_ideal(contraction_set(clutter, sigma))

    delta = complex_from_nonfaces(clutter)
    ambient = clutter.vertices
    expected_del = stanley_reisner_ideal(delete_face(delta, sigma), ambient)
    expected_link = stanley_reisner_ideal(link(delta, sigma), ambient - sigma)
    if deletion_ideal != expected_del or link_ideal != expected_link:
        raise PropertyViolationError(
            "clutter-minor ideals disagree with the complex computation "
            f"on {clutter}, e={sorted(e)}, x={x}"
        )
    return deletion_ideal, link_ideal


@dataclass(frozen=True)
class ChordalBoundReport:
    """Both sides of the regularity identity and of the upper bound for a
    simplicial vertex x with edge e; d = |e| - 1."""

    clutter: Clutter
    x: int
    e: frozenset[int]
    d: int
    reg: int  # reg R/I(H)
    identity_deletion: int  # reg R/((prod sigma) + I(H))
    identity_link: int  # reg R/I(H / sigma) + d
    bound_deletion: int  # sum_i reg R/I(H \ x_i) + (d - 1)
    bound_link: int  # reg R/I(H / sigma) + d

    @property
    def identity_rhs(self) -> int:
        return max(self.identity_deletion, self.identity_link)

    @property
    def bound_rhs(self) -> int:
        return max(self.bound_deletion, self.bound_link)

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
    PropertyViolationError carrying the report.
    """
    e = frozenset(e)
    if not is_simplicial_vertex(clutter, x):
        raise ValueError(f"{x} is not a simplicial vertex")
    if e not in clutter.edges or x not in e:
        raise ValueError("need a vertex contained in an edge of the clutter")
    sigma = e - {x}
    if not sigma:
        raise ValueError("the edge must have another vertex besides x")
    d = len(sigma)
    ctx = clutter.ctx

    ideal = edge_ideal(clutter)
    reg = oracle_quotient_reg_pd(ideal, field)[0]
    with_sigma = MonomialIdeal.from_monomials(
        ctx, (ctx.monomial_of_set(sigma),) + ideal.gens
    )
    identity_deletion = oracle_quotient_reg_pd(with_sigma, field)[0]
    contracted = edge_ideal(contraction_set(clutter, sigma))
    link_term = oracle_quotient_reg_pd(contracted, field)[0] + d
    bound_deletion = (
        sum(
            oracle_quotient_reg_pd(edge_ideal(deletion(clutter, v)), field)[0]
            for v in sorted(sigma)
        )
        + d
        - 1
    )
    report = ChordalBoundReport(
        clutter=clutter,
        x=x,
        e=e,
        d=d,
        reg=reg,
        identity_deletion=identity_deletion,
        identity_link=link_term,
        bound_deletion=bound_deletion,
        bound_link=link_term,
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
    scan every vertex subset for an induced chordless cycle of length >= 4."""
    if any(len(e) != 2 for e in clutter.edges):
        raise ValueError("needs a graph (all edges of size 2)")
    verts = sorted(clutter.vertices)
    adjacent = {v: set() for v in verts}
    for e in clutter.edges:
        a, b = sorted(e)
        adjacent[a].add(b)
        adjacent[b].add(a)
    for r in range(4, len(verts) + 1):
        for subset in combinations(verts, r):
            degs = [len(adjacent[v] & set(subset)) for v in subset]
            if any(d != 2 for d in degs):
                continue
            # 2-regular induced subgraph: a disjoint union of cycles; it is
            # a single (chordless) cycle iff connected.
            seen = {subset[0]}
            frontier = [subset[0]]
            while frontier:
                v = frontier.pop()
                for w in adjacent[v] & set(subset):
                    if w not in seen:
                        seen.add(w)
                        frontier.append(w)
            if len(seen) == r:
                return False
    return True
