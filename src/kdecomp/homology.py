"""Brute-force Betti number engine over exact arithmetic.

This module is the independent ground truth the formula-based
computations are validated against.  Reduced simplicial homology is
computed from boundary-matrix ranks, level by level, from the top down
(`_homology_dims`):

- every map from triangles up is reduced on unit (+-1) pivots first,
  which keeps its entries integers and removes a row and a column per
  pivot, and only the columns with no unit entry left go to one dense
  elimination.  The pivot columns are unit-triangular on their pivot
  rows and the leftover columns vanish there, so the rank is the number
  of pivots plus the rank of the leftover (see `_boundary_rank`).  Over
  GF(2) and GF(3) every nonzero entry is +-1, so nothing is left over;
- the map one level down skips the faces that are unit-pivot rows of
  the map above ("clearing", Chen-Kerber 2011): the pivot columns are
  boundaries, which the lower map kills, and with the unit vectors of
  the other faces they form a basis, so the lower rank is unchanged.
  Rows that only the dense elimination pivots on are not cleared;
- the map from edges to vertices is the signed incidence matrix of a
  graph, of rank |V| minus the number of components over every field,
  which one union-find pass over the uncleared edges counts;
- the map from vertices to the empty face has rank 1 once there is a
  vertex.

One fraction-free (Bareiss) elimination, `_rank`, serves both fields.
Over the rationals each update is divided exactly by the previous pivot,
which keeps the integer entries from growing.  Over GF(p) the same
update runs with the previous pivot fixed at 1 and is reduced mod p:
replacing a row r by p*r - f*q, where q is the pivot row and p its
nonzero pivot, is an invertible row operation, so the rank is kept, and
reduction mod p already keeps the entries small, so no exact division
is needed.

Faces are handled as integer bitmasks over vertex indices throughout.

Both Betti oracles, Hochster's formula for squarefree ideals and the
upper Koszul complexes for any monomial ideal, run one loop over
multidegrees of the lcm lattice of the generators.  They differ in how
each multidegree's complex is found (the two complexes are Alexander
dual, so the routes stay independent checks of each other) and in the
homological index the homology feeds:

- Hochster: the faces of the nonface complex on the union of the
  generator supports are enumerated once per table, level by level and
  sorted by mask; the complex at a degree a is the faces inside a.
- Koszul: the subsets of supp(a) that miss some wall, a wall being the
  set of variables where a generator g <= a reaches a.

A cone has no reduced homology, so a cone is not ranked.  Each caller
tests it on masks, where it knows why one can occur:

- `reduced_homology_dims`: a vertex lies in every facet, that is, the
  AND of the facet masks is nonzero;
- Koszul: some wall is empty (every subset of supp(a) is a face), or a
  vertex of supp(a) lies in no wall (it can join every face);
- Hochster: none is needed.  A lattice degree is a union of generator
  supports, the minimal nonfaces inside it, so every vertex lies in a
  minimal nonface and none can join every face.

One cache holds the oracles' tables, keyed by route, generators and
field; once it holds ORACLE_CACHE_SIZE tables, the oldest is dropped
first.  The Koszul routes key an ideal by its exponent tuples.  The
Hochster route keys it by the ascending tuple of its minimal support
masks, and `hochster_from_masks` takes that tuple directly, so a caller
that holds the masks (a clutter's edges, say) builds no ideal;
`betti_hochster` converts a squarefree ideal's generators once and calls
it.
"""

from __future__ import annotations

from functools import reduce
from itertools import product
from operator import and_, or_
from threading import Lock

from .betti import BettiTable
from .complexes import SimplicialComplex, stanley_reisner_ideal
from .errors import BudgetExceededError, ZeroIdealError
from .monomials import MonomialIdeal, bits, submasks

VERTEX_BUDGET = 20
LCM_DEGREE_BUDGET = 24


def check_field(field) -> None:
    """Raise ValueError unless `field` is None (the rationals) or a prime."""
    if field is None:
        return
    if not isinstance(field, int) or field < 2:
        raise ValueError("field must be None (rationals) or a prime p")
    for d in range(2, int(field**0.5) + 1):
        if field % d == 0:
            raise ValueError(f"{field} is not prime")


def _rank(rows: list[list[int]], field) -> int:
    """Rank of an integer matrix over the rationals (`field` None) or
    GF(`field`), by Bareiss elimination of `rows` in place."""
    # an entry divisible by p must read as zero in the pivot search
    if field is not None:
        for row in rows:
            row[:] = [v % field for v in row]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    rank = 0
    prev = 1
    for col in range(nc):
        piv = next((r for r in range(rank, nr) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        p = prow[col]
        for r in range(rank + 1, nr):
            row = rows[r]
            f = row[col]
            if field is None:
                for c in range(col + 1, nc):
                    row[c] = (row[c] * p - f * prow[c]) // prev
            else:
                for c in range(col + 1, nc):
                    row[c] = (row[c] * p - f * prow[c]) % field
            row[col] = 0
        if field is None:
            prev = p
        rank += 1
        if rank == nr:
            break
    return rank


def _faces_by_cardinality(face_masks) -> list[list[int]]:
    by_card: dict[int, list[int]] = {}
    for mask in face_masks:
        by_card.setdefault(mask.bit_count(), []).append(mask)
    if not by_card:
        return []
    return [sorted(by_card.get(c, [])) for c in range(max(by_card) + 1)]


def _graph_rank(edges: list[int]) -> int:
    """Rank of the edges-to-vertices boundary map, the signed incidence
    matrix of a graph: |V| minus the number of components over every
    field, which is the number of edges a union-find pass keeps."""
    parent: dict[int, int] = {}

    def root(x: int) -> int:
        while (up := parent.get(x, x)) != x:
            parent[x] = x = parent.get(up, up)
        return x

    rank = 0
    for e in edges:
        low = e & -e
        a, b = root(low), root(e ^ low)
        if a != b:
            parent[a] = b
            rank += 1
    return rank


def _boundary_rank(upper: list[int], field) -> tuple[int, dict]:
    """Rank of the boundary map on the faces `upper`, all of one
    cardinality c >= 3, and its unit-pivot rows, keyed by face mask.

    Each column is a sparse dict {face: +-1} over the faces of
    cardinality c - 1.  Columns are placed in turn, each reduced by the
    pivot columns found so far, oldest first.  A pivot column holds a
    unit u = +-1 at its own row and 0 at every older pivot row; as
    u * u = 1, subtracting col[row] * u times it clears that row with no
    division, so entries stay integers over Q (over GF(p) they are
    reduced mod p).  A reduced column with a unit entry becomes the next
    pivot; one with none is set aside, and once every column is placed
    the set-aside ones are reduced again against every pivot, so what is
    left is 0 at every pivot row.  Restricted to the pivot rows the pivot
    columns are unit-triangular, hence the rank is the number of pivots
    plus the rank of that remainder, which `_rank` computes.  Over GF(2)
    and GF(3) every nonzero entry is +-1, so nothing is left for `_rank`.

    The pivot rows let the next map down skip their faces (clearing):
    the pivot columns, unit-triangular on the pivot rows, and the unit
    vectors of every other face of cardinality c - 1 form a basis, and
    the boundary kills the pivot columns, which are boundaries; so that
    map has the same rank on the other faces alone.  The rows a
    set-aside column ends on are not unit pivots and are not returned.
    """
    flip = 0 if field is None else field  # sign -> flip - sign swaps 1, -1
    minus = flip - 1
    # the pivot column with its unit at each row, and its age
    pivots: dict[int, dict[int, int]] = {}
    age: dict[int, int] = {}

    def reduced(col: dict[int, int]) -> dict[int, int]:
        while hits := col.keys() & pivots.keys():
            row = min(hits, key=age.__getitem__)
            piv = pivots[row]
            f = col[row] * piv[row]
            for r, v in piv.items():
                x = col.get(r, 0) - f * v
                if field is not None:
                    x %= field
                if x:
                    col[r] = x
                else:
                    del col[r]
        return col

    rest = []
    for sigma in upper:
        col = {}
        sign, m = 1, sigma
        while m:
            low = m & -m
            col[sigma ^ low] = sign
            sign = flip - sign
            m ^= low
        col = reduced(col)
        row = next((r for r, x in col.items() if x == 1 or x == minus), None)
        if row is not None:
            age[row] = len(pivots)
            pivots[row] = col
        elif col:
            rest.append(col)
    rest = [col for col in map(reduced, rest) if col]
    if not rest:
        return len(pivots), pivots
    rows = sorted({r for col in rest for r in col})
    rank = _rank([[col.get(r, 0) for col in rest] for r in rows], field)
    return len(pivots) + rank, pivots


def _homology_dims(levels: list[list[int]], field) -> list[int]:
    """Reduced homology dimensions, degree -1 first, of the complex whose
    faces of cardinality c are `levels[c]`, with no empty level.

    The maps are ranked from the top down, each on the faces the map
    above did not clear (see `_boundary_rank`); the two lowest have
    closed forms.
    """
    ranks = [0] * (len(levels) + 1)
    cleared: dict = {}
    for c in range(len(levels) - 1, 2, -1):
        ranks[c], cleared = _boundary_rank(
            [s for s in levels[c] if s not in cleared], field
        )
    # edges -> vertices is a graph incidence matrix; vertices -> {} has
    # rank 1 once there is a vertex
    if len(levels) > 2:
        ranks[2] = _graph_rank([e for e in levels[2] if e not in cleared])
    if len(levels) > 1:
        ranks[1] = 1
    return [len(levels[c]) - ranks[c] - ranks[c + 1] for c in range(len(levels))]


def homology_dims_from_masks(face_masks, field=None) -> list[int]:
    """Reduced homology dimensions, degree -1 first, from a face-mask set.

    The empty face (mask 0) must be present unless the set is empty
    (the void complex, which has no homology at all).
    """
    levels = _faces_by_cardinality(face_masks)
    if levels and not levels[0]:
        raise ValueError("a nonempty face set must hold the empty face")
    return _homology_dims(levels, field)


def reduced_homology_dims(delta: SimplicialComplex, field=None) -> list[int]:
    """Reduced simplicial homology dimensions of `delta`, degree -1 first."""
    check_field(field)
    size = delta.vertex_mask.bit_count()
    if size > VERTEX_BUDGET:
        raise BudgetExceededError(f"homology budget is {VERTEX_BUDGET} vertices, got {size}")
    if delta.is_void:
        return []
    # a vertex in every facet is a cone point: all reduced homology vanishes
    if reduce(and_, delta.facet_masks):
        return [0] * (max(f.bit_count() for f in delta.facet_masks) + 1)
    masks = {s for f in delta.facet_masks for s in submasks(f)}
    return homology_dims_from_masks(masks, field)


ORACLE_CACHE_SIZE = 4096
_oracle_cache: dict = {}
_oracle_cache_lock = Lock()


def _lcm_closure(gens, join) -> set:
    """Every join of a nonempty subset of `gens`: componentwise maxima of
    exponent tuples, or unions of support masks."""
    closure: set = set()
    for g in gens:
        closure |= {join(a, g) for a in closure}
        closure.add(g)
    return closure


def _nonface_levels(supports: tuple[int, ...]) -> list[list[int]]:
    """The faces of the complex on the union of `supports` whose
    nonfaces contain a support, by cardinality, each level sorted by
    mask.  Level c + 1 extends each face s of level c by a vertex v above
    its highest one; as s is a face, a support inside s | v holds v, so
    only the supports whose highest vertex is v need a test."""
    by_top: dict[int, list[int]] = {}
    for g in supports:
        by_top.setdefault(1 << (g.bit_length() - 1), []).append(g)
    vertices = [1 << v for v in bits(reduce(or_, supports))]
    levels = [[0]]
    while True:
        nxt = []  # by top vertex, then by the rest: ascending masks
        for v in vertices:
            tops = by_top.get(v, ())
            for s in levels[-1]:
                if s >= v:  # the rest of the level reaches v or above
                    break
                t = s | v
                if all(g & t != g for g in tops):
                    nxt.append(t)
        if not nxt:
            return levels
        levels.append(nxt)


def _oracle_table(gens: tuple, field, route: str) -> BettiTable:
    """The Betti table of the ideal generated by `gens` by one oracle
    route, cached per route, generators and field.

    `gens` are the sorted minimal support masks for "hochster" and the
    exponent tuples of the minimal generators for "koszul" and "box".
    Every route runs the same loop over multidegrees a; only the face
    test on the subsets s of supp(a) and the homological index differ:

    - "hochster" (squarefree ideals): s is a face when it contains no
      generator support, and degree c - 1 homology feeds index
      |a| - c - 1.
    - "koszul" and "box": s is a face when x^(a-s) is in the ideal,
      that is when some generator g <= a is below a_i at every i in s;
      degree c - 1 homology feeds index c.

    Both scan the lcm lattice of the generators, where all nonzero Betti
    numbers lie (Gasharov-Peeva-Welker); for "hochster" it is the set of
    unions of generator supports.  "box" scans every a below the
    generator lcm instead.
    """
    check_field(field)
    if not gens:
        raise ZeroIdealError("Betti numbers need a nonzero ideal")
    key = (route, gens, field)
    cached = _oracle_cache.get(key)
    if cached is not None:
        return cached

    hochster = route == "hochster"
    if hochster:
        size = reduce(or_, gens).bit_count()
        if size > VERTEX_BUDGET:
            raise BudgetExceededError(f"oracle budget is {VERTEX_BUDGET} vertices, got {size}")
        degrees = _lcm_closure(gens, or_)
        levels = _nonface_levels(gens)
    else:
        lcm = tuple(map(max, zip(*gens)))
        if sum(lcm) > LCM_DEGREE_BUDGET:
            raise BudgetExceededError(
                f"oracle lcm-degree budget is {LCM_DEGREE_BUDGET}, got {sum(lcm)}"
            )
        if route == "box":
            degrees = product(*(range(e + 1) for e in lcm))
        else:
            degrees = _lcm_closure(gens, lambda a, b: tuple(map(max, a, b)))

    entries: dict[tuple[int, int], int] = {}
    for a in degrees:
        if hochster:
            # a union of walls leaves no vertex free, so no cone test
            j = a.bit_count()
            sub = []
            for level in levels:
                faces = [s for s in level if s | a == a]
                if not faces:
                    break
                sub.append(faces)
        else:
            supp, j = sum(1 << v for v, e in enumerate(a) if e), sum(a)
            # tight(g, a) = {i : g_i = a_i > 0} for each generator g <= a
            walls = [
                sum(1 << v for v, (x, y) in enumerate(zip(g, a)) if x == y > 0)
                for g in gens
                if all(x <= y for x, y in zip(g, a))
            ]
            # No walls: the void complex.  An empty wall makes every subset
            # of supp(a) a face, and a vertex of supp(a) in no wall extends
            # every face; either way a cone, with no reduced homology.
            if not walls or 0 in walls or reduce(or_, walls) != supp:
                continue
            sub = _faces_by_cardinality(
                s for s in submasks(supp) if any(not w & s for w in walls)
            )
        for c, h in enumerate(_homology_dims(sub, field)):
            i = j - c - 1 if hochster else c
            if h and i >= 0:
                entries[(i, j)] = entries.get((i, j), 0) + h

    table = BettiTable(entries)
    with _oracle_cache_lock:
        if len(_oracle_cache) >= ORACLE_CACHE_SIZE:
            del _oracle_cache[next(iter(_oracle_cache))]
        _oracle_cache[key] = table
    return table


def hochster_from_masks(masks: tuple[int, ...], field=None) -> BettiTable:
    """Graded Betti numbers of the squarefree ideal whose minimal
    generators have the support masks `masks`, an ascending tuple of
    pairwise incomparable nonzero masks (not checked), by Hochster's
    formula: induced-subcomplex homology of the nonface complex, summed
    over unions of generator supports."""
    return _oracle_table(masks, field, "hochster")


def _support_masks(ideal: MonomialIdeal) -> tuple[int, ...]:
    """The ascending support masks of a squarefree ideal's generators."""
    return tuple(sorted(sum(e << v for v, e in enumerate(g)) for g in ideal.exps))


def betti_hochster(ideal: MonomialIdeal, field=None) -> BettiTable:
    """Graded Betti numbers of a squarefree ideal by Hochster's formula
    (see `hochster_from_masks`)."""
    if not ideal.is_squarefree:
        raise ValueError("this oracle needs a squarefree ideal")
    return hochster_from_masks(_support_masks(ideal), field)


def betti_koszul(
    ideal: MonomialIdeal, field=None, all_multidegrees: bool = False
) -> BettiTable:
    """Graded Betti numbers of an arbitrary monomial ideal.

    For each candidate multidegree a the Betti number in that degree is a
    reduced homology dimension of the complex of squarefree monomials s
    with x^a / x^s in the ideal.  Multidegrees outside the closure of the
    generator degrees under componentwise max contribute nothing; the
    `all_multidegrees` switch scans the full box below the generator lcm
    instead, as a self-check.
    """
    return _oracle_table(ideal.exps, field, "box" if all_multidegrees else "koszul")


def oracle_ideal_table(ideal: MonomialIdeal, field=None) -> BettiTable:
    """Ground-truth table: induced-subcomplex route when squarefree."""
    if ideal.is_squarefree:
        return hochster_from_masks(_support_masks(ideal), field)
    return betti_koszul(ideal, field)


def oracle_quotient_reg_pd(ideal: MonomialIdeal, field=None) -> tuple[int, int]:
    """(reg R/I, pd R/I) from the oracle; (0, 0) for the zero ideal."""
    check_field(field)
    if ideal.is_zero:
        return (0, 0)
    table = oracle_ideal_table(ideal, field)
    return (table.reg - 1, table.pd + 1)


def oracle_complex_reg_pd(
    delta: SimplicialComplex, ambient=None, field=None
) -> tuple[int, int]:
    """(reg, pd) of the quotient by the nonface ideal of `delta`."""
    return oracle_quotient_reg_pd(stanley_reisner_ideal(delta, ambient), field)
