from __future__ import annotations

import json
import sys
import threading
import time
from functools import lru_cache, reduce
from itertools import combinations, permutations, product
from math import comb
from operator import or_
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import GF, QQ
from sympy.polys.matrices import DomainMatrix

from kdecomp import (
    BettiTable,
    BudgetExceededError,
    SimplicialComplex,
    VariableContext,
    ZeroIdealError,
    betti_hochster,
    betti_koszul,
    independence_complex,
    reduced_homology_dims,
    stanley_reisner_ideal,
)
from kdecomp import homology
from kdecomp.cli import main
from kdecomp.generators import random_complex, random_monomial_ideal
from kdecomp.complexes import _face_levels
from kdecomp.homology import _boundary_rank, _homology_dims
from kdecomp.monomials import MonomialIdeal, antichain, bits

from conftest import ideal
from exhaustive import induced_subcomplex


def dims_by_degree(delta, field=None):
    out = reduced_homology_dims(delta, field)
    return {d - 1: h for d, h in enumerate(out) if h}


def test_circle(ctx3):
    tri = SimplicialComplex.from_facets(ctx3, [[0, 1], [0, 2], [1, 2]])
    assert dims_by_degree(tri) == {1: 1}


def test_full_simplex_contractible(ctx3):
    full = SimplicialComplex.from_facets(ctx3, [[0, 1, 2]])
    assert dims_by_degree(full) == {}


def test_two_points(ctx3):
    two = SimplicialComplex.from_facets(ctx3, [[0], [1]])
    assert dims_by_degree(two) == {0: 1}


def test_irrelevant_and_void(ctx3):
    assert dims_by_degree(SimplicialComplex.from_facets(ctx3, [()])) == {-1: 1}
    assert reduced_homology_dims(SimplicialComplex.from_facets(ctx3, [])) == []


def test_sphere_boundary():
    ctx = VariableContext.of(*"abcde")
    # boundary of the 4-simplex: a 3-sphere
    facets = [[i for i in range(5) if i != j] for j in range(5)]
    sphere = SimplicialComplex.from_facets(ctx, facets)
    assert dims_by_degree(sphere) == {3: 1}


def test_field_choice_validated(ctx3):
    tri = SimplicialComplex.from_facets(ctx3, [[0, 1], [0, 2], [1, 2]])
    assert dims_by_degree(tri, field=2) == {1: 1}
    with pytest.raises(ValueError):
        reduced_homology_dims(tri, field=4)


def test_vertex_budget():
    ctx = VariableContext(tuple(f"v{i}" for i in range(22)))
    big = SimplicialComplex.from_facets(ctx, [[i] for i in range(21)])
    with pytest.raises(BudgetExceededError):
        reduced_homology_dims(big)


def test_euler_characteristic(ctx4):
    # alternating sum of reduced homology equals the reduced Euler
    # characteristic from face counts
    rng = Random(31)
    for _ in range(40):
        delta = random_complex(rng, ctx4, 4)
        faces = delta.faces()
        euler = sum((-1) ** (len(f) - 1) for f in faces)
        dims = reduced_homology_dims(delta)
        assert sum((-1) ** (c - 1) * h for c, h in enumerate(dims)) == euler


def test_induced_subcomplex(ctx3):
    delta = SimplicialComplex.from_facets(ctx3, [[0, 1], [1, 2]])
    assert induced_subcomplex(delta, [0, 2]).facets == frozenset(
        {frozenset({0}), frozenset({2})}
    )
    assert induced_subcomplex(delta, delta.vertices) == delta
    edge = SimplicialComplex.from_facets(ctx3, [[0, 1]])
    assert induced_subcomplex(edge, []).is_irrelevant


def test_hochster_goldens(ctx3):
    assert dict(betti_hochster(ideal(ctx3, "x*y", "x*z", "y*z")).items()) == {
        (0, 2): 3,
        (1, 3): 2,
    }
    assert dict(betti_hochster(ideal(ctx3, "x")).items()) == {(0, 1): 1}
    assert dict(betti_hochster(ideal(ctx3, "x*y*z")).items()) == {(0, 3): 1}


def test_hochster_variables(ctx3):
    assert dict(betti_hochster(ideal(ctx3, "x", "y", "z")).items()) == {
        (0, 1): 3,
        (1, 2): 3,
        (2, 3): 1,
    }


def test_koszul_goldens(ctx3):
    ctx2 = VariableContext.of("x", "y")
    assert dict(betti_koszul(ideal(ctx2, "x^2", "x*y", "y^2")).items()) == {
        (0, 2): 3,
        (1, 3): 2,
    }
    assert dict(betti_koszul(ideal(ctx2, "x^3")).items()) == {(0, 3): 1}
    tri = ideal(ctx3, "x*y", "x*z", "y*z")
    assert betti_koszul(tri) == betti_hochster(tri)


RP2_FACETS = [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5], [0, 1, 5],
              [1, 2, 4], [1, 3, 4], [1, 3, 5], [2, 3, 5], [2, 4, 5]]


def rp2_nonface_ideal():
    """Nonface ideal of the 6-vertex real projective plane, whose Betti
    numbers over GF(2) differ from those over the rationals."""
    ctx = VariableContext.of(*"abcdef")
    return stanley_reisner_ideal(SimplicialComplex.from_facets(ctx, RP2_FACETS))


RP2_MASKS = [sum(1 << v for v in f) for f in RP2_FACETS]


def test_boundary_rank_of_rp2_takes_a_non_unit_pivot():
    # the triangles-to-edges map of RP^2 loses a rank in characteristic 2;
    # elsewhere its 2-torsion leaves a column whose only entries are +-2
    for field, rank in ((None, 10), (5, 10), (2, 9)):
        got, pivots = _boundary_rank(RP2_MASKS, field)
        assert got == rank == len(pivots)
        units = {1, -1 if field is None else field - 1}
        non_units = [row for row, col in pivots.items() if col[row] not in units]
        assert bool(non_units) == (field != 2)
        # reduced H_1 and H_2 (entries 2 and 3) vanish except over GF(2)
        dims = _homology_dims(_face_levels(RP2_MASKS), field)
        assert dims == ([0, 0, 1, 1] if field == 2 else [0, 0, 0, 0])


def test_koszul_equals_hochster_on_squarefree(ctx4):
    rng = Random(13)
    batch = [random_monomial_ideal(rng, ctx4, 5, 1) for _ in range(40)]
    for i in batch + [rp2_nonface_ideal()]:
        for field in (None, 2):
            table = betti_hochster(i, field)
            assert betti_koszul(i, field) == table
            assert koszul_by_box(i, field) == table


def koszul_by_box(monomial_ideal, field=None):
    """The upper Koszul sum over every multidegree a below the generator
    lcm, not only its lattice, with no cone short-cut: the complex at a is
    generated by supp(a) - w over the walls w, the variables where a
    generator g <= a reaches a."""
    gens = monomial_ideal.exps
    entries = {}
    for a in product(*(range(e + 1) for e in map(max, zip(*gens)))):
        supp = sum(1 << v for v, e in enumerate(a) if e)
        walls = [
            sum(1 << v for v, (x, y) in enumerate(zip(g, a)) if x == y > 0)
            for g in gens
            if all(x <= y for x, y in zip(g, a))
        ]
        if walls:  # else the void complex, with no homology
            dims = _homology_dims(_face_levels([supp & ~w for w in walls]), field)
            for c, h in enumerate(dims):
                key = (c, sum(a))
                entries[key] = entries.get(key, 0) + h
    # BettiTable drops the zero counts
    return BettiTable(entries)


def hochster_by_subsets(squarefree, field=None):
    """Hochster's formula summed over every subset W of the variables,
    through the complex API rather than the oracle's multidegree loop, and
    ranked by the dense reference: no shared face levels, no clearing."""
    ctx = squarefree.ctx
    delta = independence_complex(ctx, range(ctx.n), [g.support for g in squarefree.gens])
    entries = {}
    for j in range(ctx.n + 1):
        for w in combinations(range(ctx.n), j):
            sub = induced_subcomplex(delta, delta.vertices & set(w))
            for c, h in enumerate(dense_homology_dims(closure(sub.facet_masks), field)):
                i = j - c - 1
                if h and i >= 0:
                    entries[(i, j)] = entries.get((i, j), 0) + h
    return BettiTable(entries)


def test_hochster_equals_subset_reference():
    ctx = VariableContext.of(*"abcde")
    rng = Random(41)
    batch = [random_monomial_ideal(rng, ctx, 6, 1) for _ in range(30)]
    for i in batch + [rp2_nonface_ideal()]:
        for field in (None, 2):
            assert betti_hochster(i, field) == hochster_by_subsets(i, field)
    rp2 = rp2_nonface_ideal()
    assert betti_hochster(rp2, 2) != betti_hochster(rp2)


@st.composite
def squarefree_ideals(draw):
    """Squarefree ideals on 1 to 7 variables, from up to 8 supports."""
    n = draw(st.integers(1, 7))
    masks = draw(st.lists(st.integers(1, 2**n - 1), min_size=1, max_size=8))
    return MonomialIdeal.from_masks(VariableContext(tuple(f"x{v}" for v in range(n))), masks)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(squarefree_ideals())
@example(rp2_nonface_ideal())
def test_oracles_match_the_subset_reference(squarefree):
    for field in (None, 2, 3):
        reference = hochster_by_subsets(squarefree, field)
        assert betti_hochster(squarefree, field) == reference
        assert betti_koszul(squarefree, field) == reference


@st.composite
def renamed_squarefree_ideals(draw):
    """A squarefree ideal of `squarefree_ideals` and a permutation of its
    variables."""
    squarefree = draw(squarefree_ideals())
    return squarefree, draw(st.permutations(range(squarefree.ctx.n)))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(renamed_squarefree_ideals(), st.sampled_from((None, 2)))
@example((rp2_nonface_ideal(), [3, 0, 5, 1, 4, 2]), 2)
def test_renaming_the_variables_keeps_the_hochster_table(renaming, field):
    """Hochster's formula sums over sets of variables, so a permutation of
    them leaves the table unchanged; the cache, keyed by the renumbered
    masks, holds one table for every renumbered copy."""
    squarefree, perm = renaming
    ctx = squarefree.ctx

    def ideal_of(masks):
        return MonomialIdeal.from_masks(ctx, masks)

    masks = [sum(e << v for v, e in enumerate(g)) for g in squarefree.exps]
    renamed = [sum(1 << perm[v] for v in bits(m)) for m in masks]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "_oracle_cache", {})
        table = betti_hochster(squarefree, field)
        mp.setattr(homology, "_oracle_cache", {})
        renamed_table = betti_hochster(ideal_of(renamed), field)
        assert renamed_table == table == betti_koszul(ideal_of(renamed), field)
        entries = set(homology._oracle_cache)
        renumbered = homology._relabelled(renamed)
        assert betti_hochster(ideal_of(renumbered), field) is renamed_table
        assert set(homology._oracle_cache) == entries


def test_koszul_lattice_scan_equals_full_scan(ctx3, ctx4):
    # the multidegree pruning is a pure optimization; most box degrees of
    # a non-squarefree ideal are cones
    rng = Random(29)
    for _ in range(25):
        i = random_monomial_ideal(rng, ctx3, 4, 2)
        assert betti_koszul(i) == koszul_by_box(i)
    for _ in range(10):
        i = random_monomial_ideal(rng, ctx4, 5, 2)
        for field in (None, 3):
            assert betti_koszul(i, field) == koszul_by_box(i, field)


def test_field_independence_for_linear_quotient_ideals(ctx4):
    from kdecomp import k_decomposable_ideal

    rng = Random(37)
    checked = 0
    while checked < 20:
        i = random_monomial_ideal(rng, ctx4, 6, 2)
        if k_decomposable_ideal(i) is None:
            continue
        assert betti_koszul(i) == betti_koszul(i, field=2)
        checked += 1


def test_oracle_rejects_zero_and_nonsquarefree(ctx3):
    from kdecomp import MonomialIdeal

    with pytest.raises(ZeroIdealError):
        betti_hochster(MonomialIdeal.from_monomials(ctx3, []))
    with pytest.raises(ValueError):
        betti_hochster(ideal(ctx3, "x^2"))


def test_field_is_checked_before_the_zero_ideal():
    zero = MonomialIdeal(VariableContext(("a", "b")), ())
    assert homology.oracle_quotient_reg_pd(zero) == (0, 0)
    with pytest.raises(ValueError, match="4 is not prime"):
        homology.oracle_quotient_reg_pd(zero, 4)
    with pytest.raises(ValueError, match="4 is not prime"):
        homology.hochster_from_masks((), 4)
    with pytest.raises(ZeroIdealError):
        homology.hochster_from_masks(())


def test_field_is_bounded(tmp_path, capsys):
    # trial division up to the square root would not finish for a prime
    # near 2**61, so the check refuses it before testing
    homology.check_field(2**31 - 1)
    with pytest.raises(ValueError, match="below 2147483648"):
        homology.check_field(2**61 - 1)
    path = tmp_path / "xy.json"
    path.write_text(json.dumps({"kind": "ideal", "vars": ["x", "y"], "gens": ["x*y"]}))
    start = time.perf_counter()
    assert main(["invariants", str(path), "--field", "1000000000000000003"]) == 2
    assert time.perf_counter() - start < 5
    assert "error: field must be" in capsys.readouterr().err


def test_cached_table_skips_trial_division(monkeypatch):
    # trial division to sqrt(2**31 - 1) takes milliseconds, so a cache hit
    # must not pay for it; the cheap checks still run before the lookup,
    # where 2.0 == 2 would otherwise find the GF(2) table
    ctx = VariableContext.of("a", "b", "c")
    i = ideal(ctx, "a*b", "b*c")
    divided, is_prime = [], homology._is_prime.__wrapped__

    def trial_division(p):
        divided.append(p)
        return is_prime(p)

    monkeypatch.setattr(homology, "_is_prime", lru_cache(maxsize=64)(trial_division))
    monkeypatch.setattr(homology, "_oracle_cache", {})
    table = betti_hochster(i, 2**31 - 1)
    assert divided == [2**31 - 1]
    assert betti_hochster(i, 2**31 - 1) == table
    assert divided == [2**31 - 1]
    betti_hochster(i, 2)
    with pytest.raises(ValueError):
        betti_hochster(i, 2.0)


def test_budget_is_checked_before_the_nonfaces(tmp_path, capsys, monkeypatch):
    # facets X - {a_i, b_i}: 2^m minimal nonfaces, one from each pair, on
    # 2m vertices; the budget is read off the facets before any is found
    m = 16
    names = [f"{ab}{i}" for i in range(m) for ab in "ab"]
    facets = [[v for v in names if v[1:] != str(i)] for i in range(m)]
    ctx = VariableContext(tuple(names))
    delta = SimplicialComplex.from_facets(ctx, [[ctx.index(v) for v in f] for f in facets])
    path = tmp_path / "pairs.json"
    # a simplex has the zero nonface ideal at any size, and the void
    # complex keeps its usage error
    simplex = SimplicialComplex.from_facets(ctx, [range(2 * m)])
    assert homology.oracle_complex_reg_pd(simplex) == (0, 0)
    path.write_text(json.dumps({"kind": "complex", "vars": names, "facets": []}))
    assert main(["invariants", str(path)]) == 2
    assert capsys.readouterr().err == "error: the void complex has the unit nonface ideal\n"

    def enumerate_nonfaces(sets):
        raise AssertionError("minimal nonfaces enumerated past the budget")

    monkeypatch.setattr("kdecomp.complexes._minimal_transversals", enumerate_nonfaces)
    path.write_text(json.dumps({"kind": "complex", "vars": names, "facets": facets}))
    assert main(["invariants", str(path)]) == 3
    assert capsys.readouterr() == ("", "undecided: oracle budget is 20 vertices, got 32\n")
    with pytest.raises(BudgetExceededError, match="got 32"):
        homology.oracle_complex_reg_pd(delta)
    # ambient vertices outside the complex are generators too: 21 > 20
    small = SimplicialComplex.from_facets(ctx, [[0, 1, 2]])
    with pytest.raises(BudgetExceededError, match="got 21"):
        homology.oracle_complex_reg_pd(small, ambient=range(24))


def test_work_budget_bounds_the_lattice(tmp_path, capsys, monkeypatch):
    # facets X - {a_i, b_i}, i < 4: 16 minimal nonfaces, one vertex from
    # each pair; 3^4 = 81 lattice degrees (unions of them) times the
    # 2^8 - 81 = 175 faces of the nonface complex is 14,175
    names = [f"{ab}{i}" for i in range(4) for ab in "ab"]
    facets = [[v for v in names if v[1:] != str(i)] for i in range(4)]
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps({"kind": "complex", "vars": names, "facets": facets}))
    ctx = VariableContext(tuple(names))
    delta = SimplicialComplex.from_facets(ctx, [[ctx.index(v) for v in f] for f in facets])
    i = stanley_reisner_ideal(delta)
    # 0 + 1 + 3 + 7 joins build the Koszul lattice of the squares of four
    # variables, and the joins count on both routes
    squares = ideal(VariableContext.of("x", "y", "z", "w"), "x^2", "y^2", "z^2", "w^2")
    monkeypatch.setattr(homology, "_oracle_cache", {})
    monkeypatch.setattr(homology, "ORACLE_WORK_BUDGET", 11)
    assert betti_koszul(squares).pd == 3
    monkeypatch.setattr(homology, "ORACLE_WORK_BUDGET", 81 * 175)
    assert betti_hochster(i) == betti_koszul(i)
    homology._oracle_cache.clear()

    # one face more than the budget allows: refused as the faces are found,
    # before any homology is ranked
    def rank(*_):
        raise AssertionError("homology ranked past the work budget")

    monkeypatch.setattr(homology, "_homology_dims", rank)
    monkeypatch.setattr(homology, "ORACLE_WORK_BUDGET", 81 * 175 - 1)
    message = "oracle work budget is 14174 lattice joins or degree-face pairs"
    with pytest.raises(BudgetExceededError, match=f"^{message}$"):
        betti_hochster(i)
    assert main(["invariants", str(path)]) == 3
    assert capsys.readouterr() == ("", f"undecided: {message}\n")

    # too many joins are refused before any face is found
    def faces(*_):
        raise AssertionError("faces enumerated past the work budget")

    monkeypatch.setattr(homology, "_nonface_levels", faces)
    monkeypatch.setattr(homology, "ORACLE_WORK_BUDGET", len(i.gens))
    with pytest.raises(BudgetExceededError, match="work budget is 16 lattice joins"):
        betti_hochster(i)
    monkeypatch.setattr(homology, "ORACLE_WORK_BUDGET", 10)
    with pytest.raises(BudgetExceededError, match="work budget is 10 lattice joins"):
        betti_koszul(squares)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda n: st.lists(st.integers(1, 2**n - 1), min_size=1, max_size=10)
))
def test_taylor_degrees_have_one_betti_number(masks):
    """At a lattice degree a where each generator inside a has a vertex no
    other one inside a has, Taylor's resolution of those generators G_a is
    minimal, so beta_{|G_a| - 1, a} = 1 and every other beta_{i, a} is 0.
    Checked by ranking the induced complex, as the oracle does elsewhere."""
    gens = homology._relabelled(antichain(masks, minimal=True))
    levels = homology._nonface_levels(gens, homology.ORACLE_WORK_BUDGET)
    for a in homology._lcm_closure(gens, or_):
        inside = [g for g in gens if g | a == a]
        if any(not g & ~reduce(or_, [h for h in inside if h != g], 0) for g in inside):
            continue
        sub = [below for level in levels if (below := [s for s in level if s | a == a])]
        j = a.bit_count()
        for field in (None, 2, 3):
            dims = _homology_dims(sub, field)
            # degree c - 1 homology feeds index j - c - 1
            assert {(j - c - 1, h) for c, h in enumerate(dims) if h} == {(len(inside) - 1, 1)}


def test_taylor_degrees_are_not_ranked(monkeypatch):
    """The rule fires exactly at the degrees whose generators each have a
    private vertex: every degree of disjoint pairs, and not the top degree
    of the 5-cycle, whose edges share every vertex."""

    def rank(*_):
        raise AssertionError("a Taylor degree was ranked")

    monkeypatch.setattr(homology, "_oracle_cache", {})
    monkeypatch.setattr(homology, "_homology_dims", rank)
    pairs = MonomialIdeal.from_masks(
        VariableContext(tuple(f"x{v}" for v in range(16))), [3 << 2 * i for i in range(8)]
    )
    assert dict(betti_hochster(pairs).items()) == {
        (i, 2 * i + 2): comb(8, i + 1) for i in range(8)
    }

    ranked = []

    def record(levels, field):
        ranked.append(reduce(or_, levels[1]))
        return _homology_dims(levels, field)

    monkeypatch.setattr(homology, "_homology_dims", record)
    cycle = MonomialIdeal.from_masks(
        VariableContext(tuple(f"x{v}" for v in range(5))),
        [1 << i | 1 << (i + 1) % 5 for i in range(5)],
    )
    assert dict(betti_hochster(cycle).items()) == {(0, 2): 5, (1, 3): 5, (2, 5): 1}
    assert 0b11111 in ranked


def renamed_ideal(ideal, perm):
    """`ideal` with variable v renamed to perm[v]."""
    return MonomialIdeal.from_exponents(
        ideal.ctx, [tuple(g[perm.index(v)] for v in range(len(g))) for g in ideal.exps]
    )


# at x^2 y^2 z^2 the walls of (x^2 y, x^2 z, y^2 z^2) are {x}, {x}, {y, z}
WALLS_REPEAT = MonomialIdeal.from_exponents(
    VariableContext.of("x", "y", "z"), [(2, 1, 0), (2, 0, 1), (0, 2, 2)]
)
# at x^2 y^2 z the walls of (x^2 y, x^2 z, y^2) are {x}, {x, z}, {y}
WALLS_NEST = MonomialIdeal.from_exponents(
    VariableContext.of("x", "y", "z"), [(2, 1, 0), (2, 0, 1), (0, 2, 0)]
)


@st.composite
def ideals_and_renamed_copies(draw):
    """An ideal on 1 to 5 variables with exponents up to 1, 2 or 3 (so a
    third of them squarefree), a field, and the ideal renamed."""
    n = draw(st.integers(1, 5))
    exponent = st.integers(0, draw(st.integers(1, 3)))
    exps = draw(st.lists(st.tuples(*[exponent] * n).filter(any), min_size=1, max_size=6))
    ideal = MonomialIdeal.from_exponents(VariableContext(tuple(f"x{v}" for v in range(n))), exps)
    field = draw(st.sampled_from((None, 2, 3)))
    return [(ideal, field), (renamed_ideal(ideal, draw(st.permutations(range(n)))), field)]


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(
    st.lists(ideals_and_renamed_copies(), min_size=1, max_size=6).flatmap(
        lambda pairs: st.permutations([request for pair in pairs for request in pair])
    )
)
@example([(WALLS_REPEAT, None), (WALLS_NEST, 2), (renamed_ideal(WALLS_NEST, [2, 0, 1]), 2)])
@example([(WALLS_NEST, 3), (renamed_ideal(WALLS_REPEAT, [1, 2, 0]), 3), (WALLS_REPEAT, None)])
def test_a_shared_degree_memo_builds_the_tables_of_an_empty_one(requests):
    """One degree memo shared over ideals and their renamed copies, in any
    order, gives every Hochster and Koszul table that an emptied memo
    gives, over Q, GF(2) and GF(3)."""
    shared: dict = {}
    with pytest.MonkeyPatch.context() as mp:
        for ideal, field in requests:
            routes = (betti_hochster, betti_koszul) if ideal.is_squarefree else (betti_koszul,)
            for route in routes:
                mp.setattr(homology, "_oracle_cache", {})
                mp.setattr(homology, "_degree_memo", shared)
                table = route(ideal, field)
                mp.setattr(homology, "_oracle_cache", {})
                mp.setattr(homology, "_degree_memo", {})
                assert route(ideal, field) == table


def test_renamed_copies_rank_no_degree(monkeypatch):
    """With the tables dropped, every renamed copy of these ideals finds
    each degree it would rank in the degree memo; the routes and the fields
    keep entries apart, and an emptied memo ranks again."""
    squarefree = MonomialIdeal.from_masks(
        VariableContext(tuple(f"x{v}" for v in range(5))), [0b11, 0b110, 0b11001, 0b11010]
    )
    cases = [(squarefree, betti_hochster), (squarefree, betti_koszul), (WALLS_NEST, betti_koszul)]
    monkeypatch.setattr(homology, "_oracle_cache", {})
    monkeypatch.setattr(homology, "_degree_memo", {})
    tables = [route(i) for i, route in cases]

    def rank(*_):
        raise AssertionError("a lattice degree was ranked")

    monkeypatch.setattr(homology, "_homology_dims", rank)
    for (i, route), table in zip(cases, tables):
        for perm in permutations(range(i.ctx.n)):
            homology._oracle_cache.clear()
            assert route(renamed_ideal(i, list(perm))) == table
    for i, route in cases:
        with pytest.raises(AssertionError, match="^a lattice degree was ranked$"):
            route(i, 2)
    homology._oracle_cache.clear()
    homology._degree_memo.clear()
    for i, route in cases:
        with pytest.raises(AssertionError, match="^a lattice degree was ranked$"):
            route(i)
    # Hochster entries serve no Koszul degree
    monkeypatch.setattr(homology, "_homology_dims", _homology_dims)
    betti_hochster(squarefree)
    monkeypatch.setattr(homology, "_homology_dims", rank)
    with pytest.raises(AssertionError, match="^a lattice degree was ranked$"):
        betti_koszul(squarefree)


def test_koszul_face_budget(monkeypatch):
    # the degree on k of the squares of four variables builds the boundary
    # of a (k-1)-simplex, 2^k - 1 faces: 3^4 - 2^4 = 65 faces in all
    # (the degrees on k variables are renamed copies of one another, so all
    # but the first of each k find their complex in the degree memo, and
    # count its faces all the same)
    squares = ideal(VariableContext.of("x", "y", "z", "w"), "x^2", "y^2", "z^2", "w^2")
    monkeypatch.setattr(homology, "_oracle_cache", {})
    monkeypatch.setattr(homology, "_degree_memo", {})
    monkeypatch.setattr(homology, "KOSZUL_FACE_BUDGET", 65)
    assert betti_koszul(squares).pd == 3
    warm = homology._degree_memo
    homology._oracle_cache.clear()
    assert betti_koszul(squares).pd == 3
    monkeypatch.setattr(homology, "KOSZUL_FACE_BUDGET", 64)
    for memo in (warm, {}):
        homology._oracle_cache.clear()
        monkeypatch.setattr(homology, "_degree_memo", memo)
        with pytest.raises(BudgetExceededError, match="^oracle face budget is 64 Koszul faces$"):
            betti_koszul(squares)


def test_oracle_cache_is_bounded(ctx3, monkeypatch):
    from kdecomp import homology

    monkeypatch.setattr(homology, "ORACLE_CACHE_SIZE", 2)
    monkeypatch.setattr(homology, "_oracle_cache", {})
    monkeypatch.setattr(homology, "_degree_memo", {})
    ideals = [ideal(ctx3, "x*y", "y*z"), ideal(ctx3, "x", "y*z"), ideal(ctx3, "x^2", "y")]
    tables = [betti_koszul(i) for i in ideals]
    assert len(homology._oracle_cache) <= 2
    assert 0 < len(homology._degree_memo) <= 2
    assert ("koszul", ideals[0].exps, None) not in homology._oracle_cache
    again = betti_koszul(ideals[0])
    assert again is not tables[0] and again == tables[0]
    assert len(homology._oracle_cache) <= 2

    # Threads evicting from the one shared cache and the degree memo lose no
    # table and raise nothing.
    errors = []

    def work():
        try:
            for _ in range(300):
                for i, t in zip(ideals, tables):
                    assert betti_koszul(i) == t
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and len(homology._oracle_cache) <= 2
    assert len(homology._degree_memo) <= 2


def test_koszul_budget(ctx3):
    with pytest.raises(BudgetExceededError):
        betti_koszul(ideal(ctx3, "x^25"))


def dense_homology_dims(face_masks, field):
    """Reduced homology dimensions from the full boundary matrix of every
    level, each ranked by sympy's `DomainMatrix` over Q or GF(p): no cone
    short-cut, no closed forms, no clearing, none of the oracle's pivots."""
    domain = QQ if field is None else GF(field)
    levels = {}
    for m in face_masks:
        levels.setdefault(m.bit_count(), []).append(m)
    if not levels:
        return []
    levels = [sorted(levels.get(c, [])) for c in range(max(levels) + 1)]
    ranks = [0] * (len(levels) + 1)
    for c in range(1, len(levels)):
        lower, upper = levels[c - 1], levels[c]
        row = {m: r for r, m in enumerate(lower)}
        matrix: dict[int, dict] = {}  # {row: {column: entry}}, as sympy's sparse form
        for col, sigma in enumerate(upper):
            for pos, v in enumerate(bits(sigma)):
                matrix.setdefault(row[sigma ^ 1 << v], {})[col] = domain((-1) ** pos)
        ranks[c] = DomainMatrix(matrix, (len(lower), len(upper)), domain).rank()
    return [len(levels[c]) - ranks[c] - ranks[c + 1] for c in range(len(levels))]


def submasks(mask):
    """Every mask inside `mask`, itself first and 0 last."""
    subs = [mask]
    while subs[-1]:
        subs.append((subs[-1] - 1) & mask)
    return subs


def closure(facets):
    return sorted({s for f in facets for s in submasks(f)})


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.lists(st.integers(0, 2**9 - 1), max_size=7))
@example([])  # void
@example([0])  # {{}}
@example([0b1011, 0b1011, 0b100])  # a duplicate facet
@example([0b111, 0b11, 0b1, 0b11000, 0b10000])  # nested facets
def test_face_levels_group_the_closure(facets):
    levels: list[list[int]] = []
    for s in closure(facets):  # ascending, and down-closed: every size occurs
        if s.bit_count() == len(levels):
            levels.append([])
        levels[s.bit_count()].append(s)
    assert _face_levels(facets) == levels


@st.composite
def facet_lists(draw):
    """Facet-mask lists on up to 8 vertices, not always antichains.  About
    half of those on 6 or more vertices contain a relabelled real
    projective plane and a few more triangles: its 2-torsion leaves
    boundary columns with no unit entry over Q."""
    n = draw(st.integers(0, 8))
    facets = draw(st.lists(st.integers(0, 2**n - 1), max_size=6))  # [] is void
    if n >= 6 and draw(st.booleans()):
        perm = draw(st.permutations(range(n)))
        facets += [sum(1 << perm[v] for v in range(6) if f >> v & 1) for f in RP2_MASKS]
        triangles = st.sets(st.integers(0, n - 1), min_size=3, max_size=3)
        facets += [sum(1 << v for v in t) for t in draw(st.lists(triangles, max_size=3))]
    return facets


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(facet_lists())
@example([])
@example([0])
@example([1, 2, 4, 8])  # four isolated vertices
@example([0b11, 0b110, 0b11000, 0b1100000, 0b10000000])  # three components
@example(RP2_MASKS)
# {3,4,5} is ranked after the RP^2 triangles, and over Q and GF(5) its
# column is scaled by the non-unit pivot they leave
@example(RP2_MASKS + [0b111000])
def test_homology_dims_match_dense_ranks(facets):
    for field in (None, 2, 3, 5):
        dims = _homology_dims(_face_levels(facets), field)
        assert dims == dense_homology_dims(closure(facets), field)


def cone_over(facets, apex):
    return [f | 1 << apex for f in facets]


@pytest.mark.parametrize(
    "n, facets",
    [
        (0, []),  # void
        (0, [0]),  # {{}}
        (3, [0]),  # {{}} with unused vertices
        (4, [0b1111]),  # a single simplex
        (1, [0b1]),  # a single vertex
        (3, cone_over([0b01, 0b10], 2)),  # a cone over two points
        (4, cone_over([0b011, 0b110, 0b101], 3)),  # a cone over a circle
        (7, cone_over(RP2_MASKS, 6)),
        (6, RP2_MASKS),  # not a cone
        (4, [0b0011, 0b0110, 0b1100]),  # a path: no vertex in every facet
    ],
)
def test_reduced_homology_matches_dense_ranks(n, facets):
    ctx = VariableContext(tuple(f"v{i}" for i in range(n)))
    delta = SimplicialComplex.from_facets(ctx, [bits(f) for f in facets])
    for field in (None, 2, 3, 5):
        assert reduced_homology_dims(delta, field) == dense_homology_dims(closure(facets), field)


def test_principal_nonface_ideal_on_twelve_variables(tmp_path, capsys):
    # the boundary of the 11-simplex: one generator of degree 12
    names = [f"x{i}" for i in range(12)]
    ctx = VariableContext(tuple(names))
    assert dict(betti_hochster(MonomialIdeal.from_masks(ctx, [2**12 - 1])).items()) == {
        (0, 12): 1
    }
    path = tmp_path / "boundary.json"
    path.write_text(json.dumps({"kind": "ideal", "vars": names, "gens": ["*".join(names)]}))
    assert main(["invariants", str(path)]) == 0
    out = capsys.readouterr().out
    assert out == "ideal: reg = 12, pd = 0\nquotient: reg = 11, pd = 1\nbight = 1\n"


def test_twelve_cycle_edge_ideal():
    # the table the multidegree loop gave before the face levels were shared
    ctx = VariableContext(tuple(f"x{i}" for i in range(12)))
    cycle = MonomialIdeal.from_masks(ctx, [1 << i | 1 << (i + 1) % 12 for i in range(12)])
    assert sorted(betti_hochster(cycle).items()) == [
        ((0, 2), 12), ((1, 3), 12), ((1, 4), 42), ((2, 5), 84), ((2, 6), 40),
        ((3, 6), 42), ((3, 7), 120), ((3, 8), 3), ((4, 8), 120), ((4, 9), 12),
        ((5, 9), 40), ((5, 10), 18), ((6, 11), 12), ((7, 12), 2),
    ]


def test_koszul_complete_intersection_of_squares():
    # x0^2, ..., x11^2: the Koszul complex, beta_i = C(12, i + 1) in degree 2i + 2
    ctx = VariableContext(tuple(f"x{i}" for i in range(12)))
    squares = ideal(ctx, *(f"x{i}^2" for i in range(12)))
    assert dict(betti_koszul(squares).items()) == {
        (i, 2 * i + 2): comb(12, i + 1) for i in range(12)
    }
