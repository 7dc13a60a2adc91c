"""Brute-force Betti number engine over exact arithmetic.

This module is the independent ground truth the formula-based
computations are validated against.  Reduced simplicial homology is
computed from boundary-matrix ranks, level by level:

- the map from vertices to the empty face has rank 1 once there is a
  vertex;
- the map from edges to vertices is the signed incidence matrix of a
  graph, of rank |V| minus the number of components over every field,
  which one union-find pass over the edges counts;
- every higher map is reduced on unit (+-1) pivots first, which keeps
  its entries integers and removes a row and a column per pivot, and
  only the columns with no unit entry left go to one dense elimination.
  The pivot columns are unit-triangular on their pivot rows and the
  leftover columns vanish there, so the rank is the number of pivots
  plus the rank of the leftover (see `_boundary_rank`).  Over GF(2)
  and GF(3) every nonzero entry is +-1, so nothing is left over.

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
multidegrees of the lcm lattice of the generators.  They differ only in
the face test applied to the subsets of each multidegree's support (the
two complexes are Alexander dual, so the routes stay independent checks
of each other) and in the homological index the homology feeds.  One
cache holds their tables, keyed by route, generators and field; once it
holds ORACLE_CACHE_SIZE tables, the oldest is dropped first.
"""

from __future__ import annotations

from itertools import product
from operator import or_
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
    out = [sorted(by_card.get(c, [])) for c in range(max(by_card) + 1)]
    return out


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


def _boundary_rank(lower: list[int], upper: list[int], field) -> int:
    """Rank of the boundary map from card-c faces (upper) down to card-(c-1).

    Each column is a sparse dict {row: +-1}.  Columns are placed in turn,
    each reduced by the pivot columns found so far, oldest first.  A pivot
    column holds a unit u = +-1 at its own row and 0 at every older pivot
    row; as u * u = 1, subtracting col[row] * u times it clears that row
    with no division, so entries stay integers over Q (over GF(p) they
    are reduced mod p).  A reduced column with a unit entry
    becomes the next pivot; one with none is set aside, and once every
    column is placed the set-aside ones are reduced again against every
    pivot, so what is left is 0 at every pivot row.  Restricted to the
    pivot rows the pivot columns are unit-triangular, hence the rank is
    the number of pivots plus the rank of that remainder, which `_rank`
    computes.  Over GF(2) and GF(3) every nonzero entry is +-1, so
    nothing is left for `_rank`.
    """
    if not lower or not upper:
        return 0
    minus = -1 if field is None else field - 1
    row_index = {mask: r for r, mask in enumerate(lower)}
    # the pivot column with its unit at each row, and its age
    pivots: dict[int, dict[int, int]] = {}
    age: dict[int, int] = {}

    def reduce(col: dict[int, int]) -> dict[int, int]:
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
        col = reduce({
            row_index[sigma ^ (1 << v)]: minus if pos % 2 else 1
            for pos, v in enumerate(bits(sigma))
        })
        row = next((r for r, x in col.items() if x == 1 or x == minus), None)
        if row is not None:
            age[row] = len(pivots)
            pivots[row] = col
        elif col:
            rest.append(col)
    rest = [col for col in map(reduce, rest) if col]
    if not rest:
        return len(pivots)
    rows = sorted({r for col in rest for r in col})
    return len(pivots) + _rank([[col.get(r, 0) for col in rest] for r in rows], field)


def homology_dims_from_masks(face_masks, field=None) -> list[int]:
    """Reduced homology dimensions, degree -1 first, from a face-mask set.

    The empty face (mask 0) must be present unless the set is empty
    (the void complex, which has no homology at all).
    """
    face_masks = list(face_masks)
    face_set = set(face_masks)
    present = 0
    for m in face_masks:
        present |= m
    # A cone is contractible: if some vertex extends every face, all the
    # reduced homology vanishes and no ranks are needed.
    for v in bits(present):
        bit = 1 << v
        if all(m | bit in face_set for m in face_masks):
            top = max(m.bit_count() for m in face_masks)
            return [0] * (top + 1)
    levels = _faces_by_cardinality(face_masks)
    if not levels:
        return []
    ranks = [0] * (len(levels) + 1)
    # vertices -> {} has rank 1 once there is a vertex; edges -> vertices
    # is a graph incidence matrix
    if len(levels) > 1:
        ranks[1] = 1
    if len(levels) > 2:
        ranks[2] = _graph_rank(levels[2])
    for c in range(3, len(levels)):
        ranks[c] = _boundary_rank(levels[c - 1], levels[c], field)
    return [len(levels[c]) - ranks[c] - ranks[c + 1] for c in range(len(levels))]


def reduced_homology_dims(delta: SimplicialComplex, field=None) -> list[int]:
    """Reduced simplicial homology dimensions of `delta`, degree -1 first."""
    check_field(field)
    size = delta.vertex_mask.bit_count()
    if size > VERTEX_BUDGET:
        raise BudgetExceededError(f"homology budget is {VERTEX_BUDGET} vertices, got {size}")
    if delta.is_void:
        return []
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


def _oracle_table(ideal: MonomialIdeal, field, route: str) -> BettiTable:
    """The Betti table of `ideal` by one oracle route, cached per route,
    generators and field.

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
    unions of generator supports, kept as masks.  "box" scans every a
    below the generator lcm instead.
    """
    check_field(field)
    if ideal.is_zero:
        raise ZeroIdealError("Betti numbers need a nonzero ideal")
    hochster = route == "hochster"
    if hochster and not ideal.is_squarefree:
        raise ValueError("this oracle needs a squarefree ideal")
    gens = ideal.exps
    key = (route, gens, field)
    cached = _oracle_cache.get(key)
    if cached is not None:
        return cached

    lcm = tuple(map(max, zip(*gens)))
    if hochster and sum(lcm) > VERTEX_BUDGET:
        raise BudgetExceededError(
            f"oracle budget is {VERTEX_BUDGET} vertices, got {sum(lcm)}"
        )
    if not hochster and sum(lcm) > LCM_DEGREE_BUDGET:
        raise BudgetExceededError(
            f"oracle lcm-degree budget is {LCM_DEGREE_BUDGET}, got {sum(lcm)}"
        )
    if route == "box":
        degrees = product(*(range(e + 1) for e in lcm))
    elif hochster:
        # squarefree: the lattice degrees are unions of supports, as masks
        supports = [sum(e << v for v, e in enumerate(g)) for g in gens]
        degrees = _lcm_closure(supports, or_)
    else:
        degrees = _lcm_closure(gens, lambda a, b: tuple(map(max, a, b)))

    entries: dict[tuple[int, int], int] = {}
    for a in degrees:
        if hochster:
            supp, j = a, a.bit_count()
            walls = [g for g in supports if g & supp == g]
            faces = [s for s in submasks(supp) if all(w & s != w for w in walls)]
        else:
            supp, j = sum(1 << v for v, e in enumerate(a) if e), sum(a)
            # tight(g, a) = {i : g_i = a_i > 0} for each generator g <= a
            walls = [
                sum(1 << v for v, (x, y) in enumerate(zip(g, a)) if x == y > 0)
                for g in gens
                if all(x <= y for x, y in zip(g, a))
            ]
            faces = [s for s in submasks(supp) if any(not w & s for w in walls)]
        for c, h in enumerate(homology_dims_from_masks(faces, field)):
            i = j - c - 1 if hochster else c
            if h and i >= 0:
                entries[(i, j)] = entries.get((i, j), 0) + h

    table = BettiTable(entries)
    with _oracle_cache_lock:
        if len(_oracle_cache) >= ORACLE_CACHE_SIZE:
            del _oracle_cache[next(iter(_oracle_cache))]
        _oracle_cache[key] = table
    return table


def betti_hochster(ideal: MonomialIdeal, field=None) -> BettiTable:
    """Graded Betti numbers of a squarefree ideal from induced-subcomplex
    homology of its nonface complex, summed over unions of generator
    supports."""
    return _oracle_table(ideal, field, "hochster")


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
    return _oracle_table(ideal, field, "box" if all_multidegrees else "koszul")


def oracle_ideal_table(ideal: MonomialIdeal, field=None) -> BettiTable:
    """Ground-truth table: induced-subcomplex route when squarefree."""
    if ideal.is_squarefree:
        return betti_hochster(ideal, field)
    return betti_koszul(ideal, field)


def oracle_quotient_reg_pd(ideal: MonomialIdeal, field=None) -> tuple[int, int]:
    """(reg R/I, pd R/I) from the oracle; (0, 0) for the zero ideal."""
    if ideal.is_zero:
        return (0, 0)
    table = oracle_ideal_table(ideal, field)
    return (table.reg - 1, table.pd + 1)


def oracle_complex_reg_pd(
    delta: SimplicialComplex, ambient=None, field=None
) -> tuple[int, int]:
    """(reg, pd) of the quotient by the nonface ideal of `delta`."""
    return oracle_quotient_reg_pd(stanley_reisner_ideal(delta, ambient), field)
