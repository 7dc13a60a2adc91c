"""Brute-force Betti number engine over exact arithmetic.

This module is the independent ground truth the formula-based
computations are validated against.  Reduced simplicial homology is
computed from boundary-matrix ranks: fraction-free (Bareiss) integer
elimination for the rationals, ordinary elimination for a prime field.

Faces are handled as integer bitmasks over vertex indices throughout.
"""

from __future__ import annotations

from itertools import combinations

from .betti import BettiTable
from .complexes import SimplicialComplex, stanley_reisner_ideal
from .errors import BudgetExceededError, ZeroIdealError
from .monomials import MonomialIdeal

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


def _rank_rational(rows: list[list[int]]) -> int:
    """Rank of an integer matrix over the rationals, fraction-free."""
    m = [row[:] for row in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank = 0
    prev = 1
    for col in range(nc):
        piv = next((r for r in range(rank, nr) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank][col]
        for r in range(rank + 1, nr):
            row, prow = m[r], m[rank]
            f = row[col]
            for c in range(col + 1, nc):
                row[c] = (row[c] * p - f * prow[c]) // prev
            row[col] = 0
        prev = p
        rank += 1
        if rank == nr:
            break
    return rank


def _rank_mod_p(rows: list[list[int]], p: int) -> int:
    m = [[v % p for v in row] for row in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank = 0
    for col in range(nc):
        piv = next((r for r in range(rank, nr) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], -1, p)
        for r in range(rank + 1, nr):
            f = m[r][col] * inv % p
            if f:
                row, prow = m[r], m[rank]
                for c in range(col, nc):
                    row[c] = (row[c] - f * prow[c]) % p
        rank += 1
        if rank == nr:
            break
    return rank


def _rank(rows: list[list[int]], field) -> int:
    if not rows or not rows[0]:
        return 0
    if field is None:
        return _rank_rational(rows)
    return _rank_mod_p(rows, field)


def _faces_by_cardinality(face_masks) -> list[list[int]]:
    by_card: dict[int, list[int]] = {}
    for mask in face_masks:
        by_card.setdefault(bin(mask).count("1"), []).append(mask)
    if not by_card:
        return []
    out = [sorted(by_card.get(c, [])) for c in range(max(by_card) + 1)]
    return out


def _boundary_rank(lower: list[int], upper: list[int], field) -> int:
    """Rank of the boundary map from card-c faces (upper) down to card-(c-1)."""
    if not lower or not upper:
        return 0
    row_index = {mask: r for r, mask in enumerate(lower)}
    rows = [[0] * len(upper) for _ in lower]
    for col, sigma in enumerate(upper):
        verts = [v for v in range(sigma.bit_length()) if sigma >> v & 1]
        for pos, v in enumerate(verts):
            rows[row_index[sigma ^ (1 << v)]][col] = -1 if pos % 2 else 1
    return _rank(rows, field)


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
    v = present
    while v:
        bit = v & -v
        v ^= bit
        if all(m | bit in face_set for m in face_masks):
            top = max(bin(m).count("1") for m in face_masks)
            return [0] * (top + 1)
    levels = _faces_by_cardinality(face_masks)
    if not levels:
        return []
    ranks = [0] * (len(levels) + 1)
    for c in range(1, len(levels)):
        ranks[c] = _boundary_rank(levels[c - 1], levels[c], field)
    return [len(levels[c]) - ranks[c] - ranks[c + 1] for c in range(len(levels))]


def reduced_homology_dims(delta: SimplicialComplex, field=None) -> list[int]:
    """Reduced simplicial homology dimensions of `delta`, degree -1 first."""
    check_field(field)
    if len(delta.vertices) > VERTEX_BUDGET:
        raise BudgetExceededError(
            f"homology budget is {VERTEX_BUDGET} vertices, got {len(delta.vertices)}"
        )
    if delta.is_void:
        return []
    masks = set()
    for facet in delta.facets:
        fmask = 0
        for v in facet:
            fmask |= 1 << v
        sub = fmask
        while True:
            masks.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & fmask
    return homology_dims_from_masks(masks, field)


_hochster_cache: dict = {}
_koszul_cache: dict = {}


def betti_hochster(ideal: MonomialIdeal, field=None) -> BettiTable:
    """Graded Betti numbers of a squarefree ideal from induced-subcomplex
    homology of its nonface complex, summed over vertex subsets."""
    check_field(field)
    if ideal.is_zero:
        raise ZeroIdealError("Betti numbers need a nonzero ideal")
    if not ideal.is_squarefree:
        raise ValueError("this oracle needs a squarefree ideal")
    key = (tuple(g.exponents for g in ideal.gens), field)
    cached = _hochster_cache.get(key)
    if cached is not None:
        return cached

    supports = [g.support_bits for g in ideal.gens]
    occupied = 0
    for s in supports:
        occupied |= s
    nocc = bin(occupied).count("1")
    if nocc > VERTEX_BUDGET:
        raise BudgetExceededError(
            f"oracle budget is {VERTEX_BUDGET} vertices, got {nocc}"
        )

    entries: dict[tuple[int, int], int] = {}
    # Vertices in no generator lie in every facet; subsets touching them
    # restrict to cones, which are acyclic, so only W inside the occupied
    # set can contribute.
    w = occupied
    while True:
        if w:
            j = bin(w).count("1")
            faces = []
            sub = w
            while True:
                if all(s & sub != s for s in supports):
                    faces.append(sub)
                if sub == 0:
                    break
                sub = (sub - 1) & w
            dims = homology_dims_from_masks(faces, field)
            for c, h in enumerate(dims):
                if h:
                    i = j - (c - 1) - 2
                    if i >= 0:
                        entries[(i, j)] = entries.get((i, j), 0) + h
        if w == 0:
            break
        w = (w - 1) & occupied

    table = BettiTable(entries, minimal=True)
    _hochster_cache[key] = table
    return table


def _lcm_closure(exponent_tuples: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """All componentwise maxima of nonempty subsets of the given tuples."""
    closure = set(exponent_tuples)
    frontier = set(exponent_tuples)
    while frontier:
        fresh = set()
        for a in frontier:
            for b in exponent_tuples:
                m = tuple(max(x, y) for x, y in zip(a, b))
                if m not in closure:
                    fresh.add(m)
        closure |= fresh
        frontier = fresh
    return sorted(closure)


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
    check_field(field)
    if ideal.is_zero:
        raise ZeroIdealError("Betti numbers need a nonzero ideal")
    key = (tuple(g.exponents for g in ideal.gens), field, all_multidegrees)
    cached = _koszul_cache.get(key)
    if cached is not None:
        return cached

    n = ideal.ctx.n
    gen_exps = [g.exponents for g in ideal.gens]
    lcm = tuple(max(g[i] for g in gen_exps) for i in range(n))
    if sum(lcm) > LCM_DEGREE_BUDGET:
        raise BudgetExceededError(
            f"oracle lcm-degree budget is {LCM_DEGREE_BUDGET}, got {sum(lcm)}"
        )

    if all_multidegrees:
        degrees: list[tuple[int, ...]] = []

        def _extend(prefix: tuple[int, ...]):
            if len(prefix) == n:
                degrees.append(prefix)
                return
            for e in range(lcm[len(prefix)] + 1):
                _extend(prefix + (e,))

        _extend(())
    else:
        degrees = _lcm_closure(gen_exps)

    entries: dict[tuple[int, int], int] = {}
    for a in degrees:
        if not any(all(g[i] <= a[i] for i in range(n)) for g in gen_exps):
            continue  # x^a not in the ideal: the complex is void
        supp = [i for i in range(n) if a[i] > 0]
        faces = []
        for r in range(len(supp) + 1):
            for sigma in combinations(supp, r):
                reduced = list(a)
                for v in sigma:
                    reduced[v] -= 1
                if any(all(g[i] <= reduced[i] for i in range(n)) for g in gen_exps):
                    mask = 0
                    for v in sigma:
                        mask |= 1 << v
                    faces.append(mask)
        dims = homology_dims_from_masks(faces, field)
        j = sum(a)
        for c, h in enumerate(dims):
            if h:
                i = c  # degree c-1 homology feeds homological index i = c
                entries[(i, j)] = entries.get((i, j), 0) + h

    table = BettiTable(entries, minimal=True)
    _koszul_cache[key] = table
    return table


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
