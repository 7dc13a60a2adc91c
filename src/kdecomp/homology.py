"""Brute-force Betti number engine over exact arithmetic.

This module is the independent ground truth the formula-based
computations are validated against.  Reduced simplicial homology is
computed from boundary-matrix ranks, level by level, from the top down
(`_homology_dims`):

- every map from triangles up is ranked by one sparse elimination,
  `_boundary_rank`, which pivots on a unit (+-1) entry where a column
  has one and on its first nonzero entry where it has none.  A unit
  pivot clears its row from a later column by a subtraction; any other
  pivot p scales the column by p first, so no division is needed over
  Q or GF(p).  The pivot columns are triangular with a nonzero diagonal
  on their pivot rows, so the rank is the number of pivots.  Over GF(2)
  and GF(3) every nonzero entry is +-1, so every pivot is a unit;
- the map one level down skips the faces that are pivot rows of the
  map above ("clearing", Chen-Kerber 2011): the pivot columns are
  boundaries, which the lower map kills, and with the unit vectors of
  the other faces they form a basis, so the lower rank is unchanged;
- the map from edges to vertices is the signed incidence matrix of a
  graph, of rank |V| minus the number of components over every field,
  which one union-find pass over the uncleared edges counts;
- the map from vertices to the empty face has rank 1 once there is a
  vertex.

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
- Koszul: the complex generated by the facets supp(a) - w, one for
  each wall w, the set of variables where a generator g <= a reaches a
  (Miller-Sturmfels, Thm. 1.34); its levels come from the facet builder
  `complexes._face_levels`, which `reduced_homology_dims` shares.

A cone has no reduced homology, so a cone is not ranked.  Each caller
tests it on masks, where it knows why one can occur:

- `reduced_homology_dims`: a vertex lies in every facet, that is, the
  AND of the facet masks is nonzero;
- Koszul: some wall is empty (every subset of supp(a) is a face), or a
  vertex of supp(a) lies in no wall (it can join every face);
- Hochster: none is needed.  A lattice degree is a union of generator
  supports, the minimal nonfaces inside it, so every vertex lies in a
  minimal nonface and none can join every face.

Nor does Hochster rank a degree a where each generator inside a has a
vertex that no other generator inside a has.  Taylor's resolution of
those generators G_a is then minimal (no generator divides the lcm of
the others), and G_a is the only subset of them whose lcm is a, so
beta_{|G_a| - 1, a} = 1 and every other beta_{i, a} is 0 (Taylor 1966;
Miller-Sturmfels, Ch. 4).  Two masks over G_a, the vertices in some
generator and those in two or more, find such a degree.

Budgets: a Hochster table takes at most VERTEX_BUDGET variables and a
Koszul table an lcm of degree at most LCM_DEGREE_BUDGET;
`reduced_homology_dims` takes at most VERTEX_BUDGET vertices.  One work
bound, ORACLE_WORK_BUDGET, limits both routes further: the joins that
build the lcm lattice (each generator joined with every degree found
before it), and for Hochster the lattice degrees times the faces of the
nonface complex, as each degree may scan every face; a degree that
Taylor's resolution decides or the degree memo (below) holds scans none,
but the budget still counts its faces, so it bounds the most a table can
scan.  Hochster joins its generators in their renumbered order (see
below); the join count depends on that order, the degrees and faces do
not, so the renumbering can move a verdict only for an input right at
the budget.  `_nonface_levels`
counts the faces as it finds them, so a refusal costs at most the
budget's share of faces and no rank.  The Koszul route counts the faces
of the complex at each lattice degree instead, and KOSZUL_FACE_BUDGET
bounds them summed over the degrees: a degree the memo holds adds the
face count stored with it, and a degree built anew stops `_face_levels`
once its faces pass what is left, and is not ranked.  So no verdict
depends on what the memo holds.

One cache holds the oracles' tables, keyed by route, generators and
field; once it holds ORACLE_CACHE_SIZE tables, the oldest is dropped
first.  The Koszul routes key an ideal by its exponent tuples.  The
Hochster route keys it by its minimal support masks with the vertices
renumbered (`_relabelled`: in the order of a cheap vertex invariant, the
masks then sorted), and builds the table from those masks.  That is the
same table: beta_{i,j} is the sum over the j-sets W of variables of
dim H~_{j-i-1}(Delta_W), and a permutation p of the variables maps
Delta_W onto (p Delta)_{p W}, so renaming the variables permutes the
terms of each sum.  So the renamed copies of one ideal, such as the
isomorphic minors of a clutter, mostly share one table.
`hochster_from_masks` takes the masks in any order, so a caller that
holds them (a clutter's edges, say) builds no ideal; `betti_hochster`
converts a squarefree ideal's generators once and calls it.

A second cache, the degree memo, holds the reduced homology of each
complex a table ranks at a lattice degree, so that a later degree, of
the same table or another, whose complex is the same up to a renaming of
its vertices is looked up and not ranked.  Renaming keeps the homology,
so the memo is exact.  An entry is keyed by the masks that fix the
complex, renumbered by `_relabelled`:

- Hochster: the generators inside a.  The complex at a has vertex set a,
  their union, and they are its minimal nonfaces.
- Koszul: the walls.  The facets are supp(a) - w, and once the cone test
  has passed the walls cover supp(a).  The entry also holds the face
  count, for KOSZUL_FACE_BUDGET.

The key also holds the route and the field, so the two routes never
share an entry and stay independent checks of each other.  Each key is
one int (`_degree_key`), and equal homology vectors are stored once.
The memo is kept apart from the table cache but bounded like it: at most
ORACLE_CACHE_SIZE entries, the oldest dropped first, under the same lock.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache, reduce
from itertools import compress
from math import isqrt
from operator import and_, eq, le, lshift, or_
from threading import Lock

from .betti import BettiTable
from .complexes import SimplicialComplex, _face_levels, stanley_reisner_ideal
from .errors import BudgetExceededError, ZeroIdealError
from .monomials import MonomialIdeal, bits, mask_of

VERTEX_BUDGET = 20
LCM_DEGREE_BUDGET = 24
# lattice joins, and lattice degrees times faces of the nonface complex
ORACLE_WORK_BUDGET = 10**8
# the faces the Koszul route builds, summed over its lattice degrees
KOSZUL_FACE_BUDGET = 2 * 10**6
# the primality test is trial division, so a field is bounded like a search
FIELD_BOUND = 2**31


def check_field(field) -> None:
    """Raise ValueError unless `field` is None (the rationals) or a prime
    below FIELD_BOUND.  The trial division is cached (`_is_prime`), so a
    table found in the oracle cache pays for none of it."""
    if field is None:
        return
    if not isinstance(field, int) or field < 2:
        raise ValueError("field must be None (rationals) or a prime p")
    if field >= FIELD_BOUND:
        raise ValueError(f"field must be a prime below {FIELD_BOUND}, got {field}")
    if not _is_prime(field):
        raise ValueError(f"{field} is not prime")


@lru_cache(maxsize=64)
def _is_prime(p: int) -> bool:
    return all(p % d for d in range(2, isqrt(p) + 1))


def _check_vertex_budget(size: int) -> None:
    """Refuse a Hochster table, or the homology of a complex, on more than
    VERTEX_BUDGET variables."""
    if size > VERTEX_BUDGET:
        raise BudgetExceededError(f"oracle budget is {VERTEX_BUDGET} vertices, got {size}")


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
    cardinality c >= 3, and its pivot rows, keyed by face mask.

    Each column is a sparse dict {face: +-1} over the faces of
    cardinality c - 1.  Columns are placed in turn, each reduced by the
    pivot columns found so far, oldest first.  A pivot column holds a
    nonzero pivot p at its own row and 0 at every older pivot row.  To
    clear that row from a column holding f there, the column takes
    f * p times the pivot column off when p is a unit (p * p = 1), and
    is scaled by p and takes f times it off otherwise; either way there
    is no division, so entries stay integers over Q (over GF(p) they are
    reduced mod p).  A reduced column that is not zero becomes the next
    pivot, on its first unit (+-1) entry if it has one and on its first
    nonzero entry if not.  Restricted to the pivot rows the pivot columns
    are triangular with a nonzero diagonal, so the rank is the number of
    pivots.  Over GF(2) and GF(3) every nonzero entry is +-1, so every
    pivot is a unit.

    The pivot rows let the next map down skip their faces (clearing):
    the pivot columns, triangular on the pivot rows, and the unit vectors
    of every other face of cardinality c - 1 form a basis, and the
    boundary kills the pivot columns, which are boundaries; so that map
    has the same rank on the other faces alone.
    """
    flip = 0 if field is None else field  # sign -> flip - sign swaps 1, -1
    minus = flip - 1
    # the pivot column with its pivot at each row, and its age
    pivots: dict[int, dict[int, int]] = {}
    age: dict[int, int] = {}
    for sigma in upper:
        col = {}
        sign, m = 1, sigma
        while m:
            low = m & -m
            col[sigma ^ low] = sign
            sign = flip - sign
            m ^= low
        while hits := col.keys() & pivots.keys():
            row = min(hits, key=age.__getitem__)
            piv = pivots[row]
            p, f = piv[row], col[row]
            if p == 1 or p == minus:
                f *= p
            else:  # scale by p, so that taking f times the pivot off clears the row
                for r in col:
                    col[r] = col[r] * p if field is None else col[r] * p % field
            for r, v in piv.items():
                x = col.get(r, 0) - f * v
                if field is not None:
                    x %= field
                if x:
                    col[r] = x
                else:
                    del col[r]
        if col:
            row = next((r for r, x in col.items() if x == 1 or x == minus), next(iter(col)))
            age[row] = len(pivots)
            pivots[row] = col
    return len(pivots), pivots


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


def reduced_homology_dims(delta: SimplicialComplex, field=None) -> list[int]:
    """Reduced simplicial homology dimensions of `delta`, degree -1 first."""
    check_field(field)
    _check_vertex_budget(delta.vertex_mask.bit_count())
    facets = delta.facet_masks
    # a vertex in every facet is a cone point: all reduced homology vanishes
    if facets and reduce(and_, facets):
        return [0] * (max(f.bit_count() for f in facets) + 1)
    return _homology_dims(_face_levels(facets), field)


ORACLE_CACHE_SIZE = 4096
_oracle_cache: dict = {}
# the homology of each ranked lattice-degree complex, by `_degree_key`
_degree_memo: dict = {}
_oracle_cache_lock = Lock()


def _over_work_budget() -> BudgetExceededError:
    return BudgetExceededError(
        f"oracle work budget is {ORACLE_WORK_BUDGET} lattice joins or degree-face pairs"
    )


def _lcm_closure(gens, join) -> set:
    """Every join of a nonempty subset of `gens`: componentwise maxima of
    exponent tuples, or unions of support masks.  Each generator is joined
    with every join found before it, and more than ORACLE_WORK_BUDGET
    joins in all are refused."""
    closure: set = set()
    joins = 0
    for g in gens:
        joins += len(closure)
        if joins > ORACLE_WORK_BUDGET:
            raise _over_work_budget()
        closure |= {join(a, g) for a in closure}
        closure.add(g)
    return closure


def _nonface_levels(supports: tuple[int, ...], limit: int) -> list[list[int]]:
    """The faces of the complex on the union of `supports` whose
    nonfaces contain a support, by cardinality, each level sorted by
    mask; more than `limit` faces are refused as they are found.  Level
    c + 1 extends each face s of level c by a vertex v above its highest
    one; as s is a face, a support inside s | v holds v, so only the
    supports whose highest vertex is v need a test."""
    by_top: dict[int, list[int]] = {}
    for g in supports:
        by_top.setdefault(1 << (g.bit_length() - 1), []).append(g)
    vertices = [1 << v for v in bits(reduce(or_, supports))]
    levels, faces = [[0]], 1
    while True:
        nxt = []  # by top vertex, then by the rest: ascending masks
        for v in vertices:
            if faces + len(nxt) > limit:
                raise _over_work_budget()
            tops = by_top.get(v, ())
            for s in levels[-1]:
                if s >= v:  # the rest of the level reaches v or above
                    break
                t = s | v
                if all(g & t != g for g in tops):
                    nxt.append(t)
        if not nxt:
            return levels
        faces += len(nxt)
        levels.append(nxt)


def _degree_key(masks: list[int], width: int, tag: int) -> int:
    """The memo key of a lattice degree's complex, given by nonzero
    `masks` whose union has `width` vertices: the masks renumbered by
    `_relabelled` onto vertices 0, ..., width - 1, `width` bits each, then
    5 bits of width (at most 24: VERTEX_BUDGET vertices for "hochster", a
    support inside an lcm of degree LCM_DEGREE_BUDGET for "koszul"), then
    32 bits of `tag`, the route and the field."""
    packed = sum(map(lshift, _relabelled(masks), range(0, width * len(masks), width)))
    return (packed << 5 | width) << 32 | tag


def _remember(key: int, value: tuple) -> tuple:
    """Store `value` under `key` in the degree memo and return it.  Equal
    values are stored once: the memo also maps each value it holds to
    itself (a tuple, never equal to an int key).  Once the memo holds
    ORACLE_CACHE_SIZE entries, the oldest is dropped first."""
    with _oracle_cache_lock:
        value = _degree_memo.get(value, value)
        for k in (value, key):
            if k not in _degree_memo and len(_degree_memo) >= ORACLE_CACHE_SIZE:
                del _degree_memo[next(iter(_degree_memo))]
            _degree_memo[k] = value
    return value


def _oracle_table(gens: tuple, field, route: str) -> BettiTable:
    """The Betti table of the ideal generated by `gens` by one oracle
    route, cached per route, generators and field.

    `gens` are the renumbered minimal support masks for "hochster" and the
    exponent tuples of the minimal generators for "koszul".  Both routes
    run the same loop over multidegrees a; only the face test on the
    subsets s of supp(a) and the homological index differ:

    - "hochster" (squarefree ideals): s is a face when it contains no
      generator support, and degree c - 1 homology feeds index
      |a| - c - 1.
    - "koszul": s is a face when x^(a-s) is in the ideal, that is when
      some generator g <= a is below a_i at every i in s; degree c - 1
      homology feeds index c.

    Both scan the lcm lattice of the generators, where all nonzero Betti
    numbers lie (Gasharov-Peeva-Welker); for "hochster" it is the set of
    unions of generator supports.  A "hochster" degree a where each
    generator inside a has a private vertex is read off Taylor's
    resolution, 1 at index (the generators inside a) - 1, and scans no
    face.

    Every other degree's reduced homology is looked up in the degree
    memo, and ranked and stored only when it is missing there.  Its key
    is the generators inside a for "hochster" and the walls for
    "koszul", renumbered; either fixes the complex up to a renaming of
    its vertices.  A "koszul" entry holds the complex's face count before
    its homology, and a hit adds that count to the faces counted against
    KOSZUL_FACE_BUDGET as a miss does.
    """
    # before the lookup: 2.0 == 2 would find the GF(2) tables
    check_field(field)
    key = (route, gens, field)
    cached = _oracle_cache.get(key)
    if cached is not None:
        return cached
    if not gens:
        raise ZeroIdealError("Betti numbers need a nonzero ideal")

    hochster = route == "hochster"
    # the low 32 bits of each degree key: the field (FIELD_BOUND is 2**31)
    # and the route
    tag = (field or 0) << 1 | (not hochster)
    if hochster:
        _check_vertex_budget(reduce(or_, gens).bit_count())
        degrees = _lcm_closure(gens, or_)
        # each degree may scan every face
        levels = _nonface_levels(gens, ORACLE_WORK_BUDGET // len(degrees))
    else:
        lcm = tuple(map(max, zip(*gens)))
        if sum(lcm) > LCM_DEGREE_BUDGET:
            raise BudgetExceededError(
                f"oracle lcm-degree budget is {LCM_DEGREE_BUDGET}, got {sum(lcm)}"
            )
        degrees = _lcm_closure(gens, lambda a, b: tuple(map(max, a, b)))
        pow2 = tuple(1 << v for v in range(len(lcm)))
        supports = [sum(compress(pow2, g)) for g in gens]
        faces = 0

    entries: dict[tuple[int, int], int] = {}
    for a in degrees:
        if hochster:
            # a union of walls leaves no vertex free, so no cone test
            j = a.bit_count()
            inside = [g for g in gens if g | a == a]
            once = twice = 0
            for g in inside:
                twice |= once & g
                once |= g
            # Taylor: each generator inside has a private vertex
            if all(g & ~twice for g in inside):
                i = len(inside) - 1
                entries[(i, j)] = entries.get((i, j), 0) + 1
                continue
            memo_key = _degree_key(inside, j, tag)
            dims = _degree_memo.get(memo_key)
            if dims is None:
                sub = []
                for level in levels:
                    below = [s for s in level if s | a == a]
                    if not below:
                        break
                    sub.append(below)
                dims = _remember(memo_key, tuple(_homology_dims(sub, field)))
        else:
            supp, j = sum(compress(pow2, a)), sum(a)
            # tight(g, a) = {i : g_i = a_i > 0} for each generator g <= a
            walls = [
                sum(compress(pow2, map(eq, g, a))) & s
                for g, s in zip(gens, supports)
                if not s & ~supp and all(map(le, g, a))
            ]
            # No walls: the void complex.  An empty wall makes every subset
            # of supp(a) a face, and a vertex of supp(a) in no wall extends
            # every face; either way a cone, with no reduced homology.
            if not walls or 0 in walls or reduce(or_, walls) != supp:
                continue
            memo_key = _degree_key(walls, supp.bit_count(), tag)
            known = _degree_memo.get(memo_key)
            if known is None:
                sub = _face_levels([supp & ~w for w in walls], KOSZUL_FACE_BUDGET - faces)
                size = sum(map(len, sub))
            else:
                size = known[0]
            faces += size
            if faces > KOSZUL_FACE_BUDGET:
                raise BudgetExceededError(
                    f"oracle face budget is {KOSZUL_FACE_BUDGET} Koszul faces"
                )
            if known is None:
                known = _remember(memo_key, (size, *_homology_dims(sub, field)))
            dims = known[1:]
        for c, h in enumerate(dims):
            i = j - c - 1 if hochster else c
            if h and i >= 0:
                entries[(i, j)] = entries.get((i, j), 0) + h

    table = BettiTable(entries)
    with _oracle_cache_lock:
        if len(_oracle_cache) >= ORACLE_CACHE_SIZE:
            del _oracle_cache[next(iter(_oracle_cache))]
        _oracle_cache[key] = table
    return table


def _relabelled(masks: Sequence[int]) -> tuple[int, ...]:
    """The masks with their vertices renumbered 0, 1, ... in the order of
    the multiset of sizes of the masks through each vertex, ties by
    index, then sorted.

    The multiset is one int, 5 bits a size: a vertex in more than 31
    masks of one size carries into the next digit.  Any order would do,
    as renumbering only renames the variables; the invariant only decides
    which renamed copies meet in the cache.  Masks already renumbered come
    back unchanged, since their vertices are in that order.
    """
    sizes: dict[int, int] = {}
    for g in masks:
        w = 1 << 5 * g.bit_count()
        while g:
            low = g & -g
            sizes[low] = sizes.get(low, 0) + w
            g ^= low
    new = {low: 1 << i for i, low in enumerate(sorted(sorted(sizes), key=sizes.__getitem__))}
    out = []
    for g in masks:
        r = 0
        while g:
            low = g & -g
            r |= new[low]
            g ^= low
        out.append(r)
    out.sort()
    return tuple(out)


def hochster_from_masks(masks: Sequence[int], field=None) -> BettiTable:
    """Graded Betti numbers of the squarefree ideal whose minimal
    generators have the support masks `masks`, pairwise incomparable
    nonzero masks in any order (not checked), by Hochster's formula:
    induced-subcomplex homology of the nonface complex, summed over
    unions of generator supports.  The table is built and cached for the
    masks renumbered by `_relabelled`, which is the same table."""
    return _oracle_table(_relabelled(masks), field, "hochster")


def betti_hochster(ideal: MonomialIdeal, field=None) -> BettiTable:
    """Graded Betti numbers of a squarefree ideal by Hochster's formula
    (see `hochster_from_masks`)."""
    if not ideal.is_squarefree:
        raise ValueError("this oracle needs a squarefree ideal")
    return hochster_from_masks([sum(e << v for v, e in enumerate(g)) for g in ideal.exps], field)


def betti_koszul(ideal: MonomialIdeal, field=None) -> BettiTable:
    """Graded Betti numbers of an arbitrary monomial ideal.

    For each candidate multidegree a the Betti number in that degree is a
    reduced homology dimension of the complex of squarefree monomials s
    with x^a / x^s in the ideal.  Multidegrees outside the closure of the
    generator degrees under componentwise max contribute nothing.
    """
    return _oracle_table(ideal.exps, field, "koszul")


def oracle_ideal_table(ideal: MonomialIdeal, field=None) -> BettiTable:
    """Ground-truth table: induced-subcomplex route when squarefree."""
    return (betti_hochster if ideal.is_squarefree else betti_koszul)(ideal, field)


def oracle_quotient_reg_pd(ideal: MonomialIdeal, field=None) -> tuple[int, int]:
    """(reg R/I, pd R/I) from the oracle; (0, 0) for the zero ideal."""
    check_field(field)
    if ideal.is_zero:
        return (0, 0)
    table = oracle_ideal_table(ideal, field)
    return (table.reg - 1, table.pd + 1)


def oracle_nonface_ideal(delta: SimplicialComplex, ambient=None) -> MonomialIdeal:
    """`complexes.stanley_reisner_ideal(delta, ambient)`, refused first
    when the Hochster oracle's vertex budget could not admit it.

    The minimal nonfaces can be exponentially many, but the variables
    they use are read off the facets: a vertex in every facet is in no
    minimal nonface, and a vertex v outside a facet F is in each minimal
    nonface inside F + v, which is no face as F is maximal.  So the
    ideal's variables are the ambient vertices outside the intersection
    of the facets, and the budget is checked before any nonface is found.
    """
    if not delta.is_void:  # the void complex keeps its own error
        x = delta.vertex_mask if ambient is None else mask_of(ambient)
        _check_vertex_budget((x & ~reduce(and_, delta.facet_masks)).bit_count())
    return stanley_reisner_ideal(delta, ambient)


def oracle_complex_reg_pd(
    delta: SimplicialComplex, ambient=None, field=None
) -> tuple[int, int]:
    """(reg, pd) of the quotient by the nonface ideal of `delta`."""
    return oracle_quotient_reg_pd(oracle_nonface_ideal(delta, ambient), field)
