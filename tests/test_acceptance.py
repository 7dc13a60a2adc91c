"""Acceptance suite: one test per criterion, exact tolerances throughout.

Each test prints a single [PASS]/[FAIL] line (visible with pytest -s).
Two enumeration-heavy criteria run an exhaustive small tier plus a seeded
random tier by default; exporting KDECOMP_ACCEPT_FULL=1 switches them to
the full exhaustive tier (hours of runtime).
"""

from __future__ import annotations

import os
from random import Random

import pytest

from kdecomp import (
    ComplexNode,
    VariableContext,
    betti_from_order,
    betti_koszul,
    betti_recursive,
    bight,
    binom,
    chordal_reg_bound,
    delete_face,
    graph_is_chordal_bruteforce,
    is_chordal,
    is_simplicial_vertex,
    k_decomposable_complex,
    k_decomposable_ideal,
    link,
    order_from_certificate,
    pd_reg_from_certificate,
    reg_pd_complex,
    stanley_reisner_ideal,
    terao_check,
)
from kdecomp.generators import (
    random_clutter,
    random_complex,
    random_face,
    random_monomial_ideal,
)
from kdecomp.homology import oracle_complex_reg_pd

from exhaustive import all_clutters, all_complexes, all_graphs

FULL = os.environ.get("KDECOMP_ACCEPT_FULL") == "1"


def report(number: int, description: str, failures: int, checked: int) -> None:
    status = "PASS" if failures == 0 else "FAIL"
    print(f"[{status}] criterion {number}: {description} "
          f"({checked} checks, {failures} violations)")
    assert failures == 0, f"criterion {number}: {failures} violations"


def ctx_named(n: int) -> VariableContext:
    return VariableContext.of(*[f"x{i}" for i in range(1, n + 1)])


@pytest.fixture(scope="module")
def decomposable_ideals():
    """>= 500 random ideals (n <= 6, <= 10 generators, exponents <= 3)
    whose k <= 2 decomposition search succeeds, with certificates."""
    ctx = ctx_named(6)
    rng = Random(20240801)
    memo: dict = {}
    out = []
    while len(out) < 500:
        ideal = random_monomial_ideal(rng, ctx, max_gens=10, max_exp=3)
        cert = k_decomposable_ideal(ideal, 2, memo=memo)
        if cert is not None:
            out.append((ideal, cert))
    return out


@pytest.fixture(scope="module")
def vertex_decomposable_complexes():
    """>= 200 random non-simplex complexes on <= 7 vertices accepted by the
    k = 0 search, with certificates."""
    ctx = ctx_named(7)
    rng = Random(404)
    memo: dict = {}
    out = []
    while len(out) < 200:
        delta = random_complex(rng, ctx, 7)
        cert = k_decomposable_complex(delta, 0, memo=memo)
        if isinstance(cert, ComplexNode):
            out.append((delta, cert))
    return out


def test_criterion_01_three_way_betti(decomposable_ideals):
    failures = 0
    for ideal, cert in decomposable_ideals:
        by_order = betti_from_order(ideal, order_from_certificate(cert))
        by_recursion = betti_recursive(cert)
        by_oracle = betti_koszul(ideal)
        if not (by_order == by_recursion == by_oracle):
            failures += 1
    report(1, "three-way Betti agreement on decomposable ideals",
           failures, len(decomposable_ideals))


def test_criterion_02_recursive_reg_pd_and_root_tightness(
    vertex_decomposable_complexes,
):
    failures = 0
    for delta, cert in vertex_decomposable_complexes:
        recursive = reg_pd_complex(delta, cert)
        oracle = oracle_complex_reg_pd(delta)
        if recursive != oracle:
            failures += 1
            continue
        sigma = cert.sigma
        ambient = delta.vertices
        reg_del = oracle_complex_reg_pd(delete_face(delta, sigma), ambient)[0]
        reg_link = oracle_complex_reg_pd(link(delta, sigma), ambient - sigma)[0]
        if oracle[0] != max(reg_del, reg_link + len(sigma)):
            failures += 1
    report(2, "recursive reg/pd equals the oracle and is tight at the root",
           failures, len(vertex_decomposable_complexes))


def test_criterion_03_regularity_upper_bound_arbitrary():
    ctx = ctx_named(6)
    rng = Random(515)
    failures = 0
    for _ in range(500):
        delta = random_complex(rng, ctx, 6)
        sigma = random_face(rng, delta)
        ambient = delta.vertices
        reg = oracle_complex_reg_pd(delta)[0]
        reg_del = oracle_complex_reg_pd(delete_face(delta, sigma), ambient)[0]
        reg_link = oracle_complex_reg_pd(link(delta, sigma), ambient - sigma)[0]
        if reg > max(reg_del, reg_link + len(sigma)):
            failures += 1
    report(3, "deletion/link regularity upper bound on arbitrary faces",
           failures, 500)


def test_criterion_04_duality_reg_pd():
    ctx = ctx_named(7)
    rng = Random(626)
    failures = 0
    for _ in range(500):
        ideal = random_monomial_ideal(rng, ctx, 8, 1)
        if not terao_check(ideal):
            failures += 1
    report(4, "pd of the dual equals reg of the quotient (squarefree)",
           failures, 500)


def test_criterion_05_certificate_invariants_match_oracle(decomposable_ideals):
    failures = 0
    for ideal, cert in decomposable_ideals:
        table = betti_koszul(ideal)
        if pd_reg_from_certificate(cert) != (table.pd, table.reg):
            failures += 1
    report(5, "certificate pd/reg recursion equals the oracle table",
           failures, len(decomposable_ideals))


def test_criterion_06_big_height(vertex_decomposable_complexes):
    failures = 0
    for delta, _cert in vertex_decomposable_complexes:
        ideal = stanley_reisner_ideal(delta)
        if oracle_complex_reg_pd(delta)[1] != bight(ideal):
            failures += 1
    report(6, "projective dimension equals big height on decomposable complexes",
           failures, len(vertex_decomposable_complexes))


def _bound_checks_for(clutter, memo) -> tuple[int, int]:
    """(checks, failures) over every admissible (simplicial x, edge e)."""
    chordal, _ = is_chordal(clutter, memo=memo)
    if not chordal:
        return 0, 0
    checks = failures = 0
    for e in sorted(clutter.edges, key=sorted):
        for x in sorted(e):
            if not is_simplicial_vertex(clutter, x):
                continue
            checks += 1
            try:
                chordal_reg_bound(clutter, x, e)
            except Exception:
                failures += 1
    return checks, failures


def test_criterion_07_chordal_clutter_theorem():
    memo: dict = {}
    checks = failures = 0
    # exhaustive tier: every clutter on at most 5 vertices
    for m in range(6):
        ctx = ctx_named(5)
        for clutter in all_clutters(ctx, m):
            c, f = _bound_checks_for(clutter, memo)
            checks += c
            failures += f
    # random tier: 2- and 3-uniform clutters on up to 8 vertices
    rng = Random(737)
    ctx8 = ctx_named(8)
    for uniform in (2, 3):
        accepted = 0
        while accepted < 40:
            clutter = random_clutter(
                rng, ctx8, rng.randint(4, 8), max_edges=7, uniform=uniform
            )
            if clutter.is_edgeless or not is_chordal(clutter, memo=memo)[0]:
                continue
            c, f = _bound_checks_for(clutter, memo)
            checks += c
            failures += f
            accepted += 1
    report(7, "regularity identity and bound on chordal clutters",
           failures, checks)


def test_criterion_08_graph_chordality_specialization():
    memo: dict = {}
    checked = failures = 0
    exhaustive_max = 7 if FULL else 6
    for m in range(exhaustive_max + 1):
        ctx = ctx_named(7)
        for graph in all_graphs(ctx, m):
            checked += 1
            if is_chordal(graph, memo=memo)[0] != graph_is_chordal_bruteforce(graph):
                failures += 1
    if not FULL:
        # seeded sample of the 7-vertex layer the full tier would exhaust
        rng = Random(848)
        ctx7 = ctx_named(7)
        for _ in range(150):
            graph = random_clutter(rng, ctx7, 7, max_edges=12, uniform=2)
            checked += 1
            if is_chordal(graph, memo=memo)[0] != graph_is_chordal_bruteforce(graph):
                failures += 1
    report(8, "minor chordality agrees with the classical graph decision",
           failures, checked)


def test_criterion_09_duality_transport():
    direct_memo: dict = {}
    ideal_memo: dict = {}
    checked = failures = 0

    def check(delta):
        nonlocal checked, failures
        for k in (0, 1, 2):
            checked += 1
            direct = k_decomposable_complex(delta, k, mode="direct", memo=direct_memo)
            dual = k_decomposable_complex(delta, k, mode="dual", memo=ideal_memo)
            if (direct is None) != (dual is None):
                failures += 1
            elif isinstance(direct, ComplexNode) and direct.sigma != dual.sigma:
                failures += 1  # first shedding face must transport exactly

    exhaustive_max = 6 if FULL else 5
    ctx = ctx_named(6)
    for delta in all_complexes(ctx, exhaustive_max):
        check(delta)
    if not FULL:
        rng = Random(959)
        for _ in range(1500):
            check(random_complex(rng, ctx, 6))
    report(9, "direct and dual decomposability decisions agree",
           failures, checked)


def test_criterion_10_binomial_convolution():
    failures = 0
    for k in range(13):
        for m in range(13):
            for i in range(13):
                lhs = binom(k + m, i)
                rhs = sum(binom(m, l) * binom(k, i - l) for l in range(m + 1))
                if lhs != rhs:
                    failures += 1
    report(10, "binomial convolution identity for 0 <= k, m, i <= 12",
           failures, 13 ** 3)
