"""The four benchmark workloads: seeded request generators and handlers.

Every request is generated here from the seed (see `requests`); kdecomp
only ever sees the generated ideals, complexes and clutters.  A handler
makes every package call one request needs, cross-checks included, and
returns the request's canonical output record (hashed into the run's
output digest) and its exact work counts.  A failed cross-check raises
CheckFailed.

Handlers reach the package through `call(span_name, fn, *args)`, which is
a plain call in untraced passes and records a span in traced ones.  The
oracle entry points are called through the `homology` module attributes,
because a traced pass wraps them there: that also attributes the oracle
calls made inside `clutters.chordal_reg_bound` to the homology layer.
"""

from __future__ import annotations

import json
from random import Random

from kdecomp import clutters, complexes, decomposition, documents, homology, resolution
from kdecomp.clutters import Clutter
from kdecomp.complexes import SimplicialComplex
from kdecomp.decomposition import ComplexLeaf, IdealLeaf
from kdecomp.monomials import MonomialIdeal, VariableContext

IDEAL_VARS = [f"x{i}" for i in range(1, 7)]
CTX7 = VariableContext(tuple(f"v{i}" for i in range(1, 8)))


class CheckFailed(Exception):
    """A cross-check between two routes of the package disagreed."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def relabel(rng: Random, n: int, sets: list) -> list:
    """The vertex sets under a random permutation of range(n)."""
    perm = rng.sample(range(n), n)
    moved = [tuple(sorted(perm[v] for v in s)) for s in sets]
    rng.shuffle(moved)
    return moved


def table_list(table) -> list:
    return [[i, j, c] for (i, j), c in table.items()]


# ideal-search: the decomposability fixture and criteria 1/5.


def draw_ideal_search(rng: Random) -> list:
    gens = []
    for _ in range(rng.randint(2, 10)):
        exps = [0] * 6
        while not any(exps):
            exps = [rng.randint(0, 3) for _ in range(6)]
        gens.append(exps)
    return gens


def present_ideal_search(rng: Random, gens: list) -> str:
    perm = rng.sample(range(6), 6)
    moved = [[e[perm[i]] for i in range(6)] for e in gens]
    rng.shuffle(moved)
    return json.dumps({"kind": "ideal", "vars": IDEAL_VARS, "gens": moved})


def _emit_ideal_certificate(cert) -> str:
    return json.dumps(documents.ideal_certificate_object(cert), indent=2)


def _certificate_nodes(cert) -> int:
    if isinstance(cert, IdealLeaf):
        return 1
    return 1 + _certificate_nodes(cert.deletion) + _certificate_nodes(cert.link)


def run_ideal_search(call, text: str):
    ideal = call("documents.parse_document", documents.parse_document, text).value
    memo: dict = {}
    cert = call(
        "decomposition.k_decomposable_ideal",
        decomposition.k_decomposable_ideal, ideal, 2, memo,
    )
    counts = {"decomposition.k_decomposable_ideal.nodes": len(memo), "accepted": 0,
              "decomposition.certificate.nodes": 0}
    if cert is None:
        return {"decomposable": False}, counts
    call(
        "decomposition.verify_ideal_certificate",
        decomposition.verify_ideal_certificate, cert, 2, ideal,
    )
    order = call("resolution.order_from_certificate", resolution.order_from_certificate, cert)
    by_order = call("resolution.betti_from_order", resolution.betti_from_order, ideal, order)
    by_recursion = call("resolution.betti_recursive", resolution.betti_recursive, cert)
    pd_reg = call(
        "resolution.pd_reg_from_certificate", resolution.pd_reg_from_certificate, cert
    )
    oracle = homology.betti_koszul(ideal)
    check(by_order == oracle, "betti_from_order disagrees with betti_koszul")
    check(by_recursion == oracle, "betti_recursive disagrees with betti_koszul")
    check(pd_reg == (oracle.pd, oracle.reg), "pd_reg_from_certificate disagrees with the oracle")
    emitted = call("documents.emit", _emit_ideal_certificate, cert)
    counts["accepted"] = 1
    counts["decomposition.certificate.nodes"] = _certificate_nodes(cert)
    record = {
        "decomposable": True,
        "certificate": emitted,
        "betti": table_list(oracle),
        "pd_reg": list(pd_reg),
    }
    return record, counts


# complex-search: criterion 9, direct against dual search.


def draw_complex_search(rng: Random) -> list:
    return [rng.sample(range(7), rng.randint(2, 4)) for _ in range(rng.randint(3, 8))]


def present_complex_search(rng: Random, facets: list) -> list:
    return relabel(rng, 7, facets)


def _root_face(cert):
    if isinstance(cert, ComplexLeaf):
        return ("leaf", None if cert.facet is None else sorted(cert.facet))
    return ("node", sorted(cert.sigma))


def run_complex_search(call, facets: list):
    delta = call("complexes.from_facets", SimplicialComplex.from_facets, CTX7, facets)
    record, counts = [], {"decomposition.direct.nodes": 0, "decomposition.dual.nodes": 0}
    previous = False
    for k in (0, 1, 2):
        direct_memo: dict = {}
        direct = call(
            "decomposition.direct",
            decomposition.k_decomposable_complex, delta, k, "direct", direct_memo,
        )
        dual_memo: dict = {}
        dual = call(
            "decomposition.dual",
            decomposition.k_decomposable_complex, delta, k, "dual", dual_memo,
        )
        counts["decomposition.direct.nodes"] += len(direct_memo)
        counts["decomposition.dual.nodes"] += len(dual_memo)
        found = direct is not None
        check(found == (dual is not None), f"direct and dual verdicts differ at k={k}")
        check(found or not previous, f"{k - 1}-decomposable but not {k}-decomposable")
        previous = found
        entry = {"k": k, "decomposable": found}
        if found:
            check(_root_face(direct) == _root_face(dual), f"first shedding face differs at k={k}")
            for cert in (direct, dual):
                call(
                    "decomposition.verify_complex_certificate",
                    decomposition.verify_complex_certificate, delta, cert, k,
                )
            entry["direct"] = documents.complex_certificate_object(direct, CTX7)
            entry["dual"] = documents.complex_certificate_object(dual, CTX7)
        record.append(entry)
    return record, counts


# oracle-squarefree: criterion 4, Hochster against Koszul and Terao duality.


def draw_oracle_squarefree(rng: Random) -> list:
    return [rng.sample(range(7), rng.randint(2, 4)) for _ in range(rng.randint(2, 8))]


def present_oracle_squarefree(rng: Random, supports: list) -> MonomialIdeal:
    return MonomialIdeal.from_monomials(
        CTX7, (CTX7.monomial_of_set(s) for s in relabel(rng, 7, supports))
    )


def run_oracle_squarefree(call, ideal: MonomialIdeal):
    table = homology.betti_hochster(ideal)
    dual = call("complexes.alexander_dual_ideal", complexes.alexander_dual_ideal, ideal)
    dual_table = homology.betti_hochster(dual)
    koszul = homology.betti_koszul(ideal)
    check(table == koszul, "betti_hochster disagrees with betti_koszul")
    check(dual_table.pd == table.reg - 1, "Terao identity pd(dual) = reg(I) - 1 fails")
    record = {
        "betti": table_list(table),
        "dual": [str(g) for g in dual.gens],
        "dual_betti": table_list(dual_table),
    }
    return record, {}


# chordal-clutters: criteria 7/8, chordality and the regularity bound.


def draw_chordal_clutters(rng: Random) -> tuple:
    n = rng.randint(4, 7)
    shape = rng.choice(((2, 2), (3, 3), (2, 3)))
    return n, [rng.sample(range(n), rng.randint(*shape)) for _ in range(rng.randint(1, 7))]


def present_chordal_clutters(rng: Random, base: tuple) -> Clutter:
    n, edges = base
    return Clutter.from_edges(CTX7, relabel(rng, n, edges), vertices=range(n))


def chordal_clutters_handler():
    """The handler for one pass: one chordality memo is shared by all its
    requests, as the criteria share it."""
    memo: dict = {}
    return lambda call, clutter: run_chordal_clutters(call, clutter, memo)


def run_chordal_clutters(call, clutter: Clutter, memo: dict):
    minors = len(memo)
    chordal, witness = call("clutters.is_chordal", clutters.is_chordal, clutter, memo)
    record = {"chordal": chordal}
    counts = {"clutters.is_chordal.minors": len(memo) - minors,
              "clutters.chordal_reg_bound.checks": 0}
    if all(len(e) == 2 for e in clutter.edges):
        brute = call(
            "clutters.graph_is_chordal_bruteforce",
            clutters.graph_is_chordal_bruteforce, clutter,
        )
        check(brute == chordal, "is_chordal disagrees with the brute-force graph test")
    if not chordal:
        minor = call("clutters.apply_trace", clutters.apply_trace, clutter, witness)
        for v in sorted(minor.vertices):
            simplicial = call(
                "clutters.is_simplicial_vertex", clutters.is_simplicial_vertex, minor, v
            )
            check(not simplicial, "the witness minor has a simplicial vertex")
        record["witness"] = [[s.kind, s.vertex] for s in witness]
        return record, counts
    reports = []
    for x in sorted(clutter.vertices):
        if not call("clutters.is_simplicial_vertex", clutters.is_simplicial_vertex, clutter, x):
            continue
        for e in sorted((e for e in clutter.edges if x in e), key=sorted):
            r = call("clutters.chordal_reg_bound", clutters.chordal_reg_bound, clutter, x, e)
            check(r.identity_holds and r.bound_holds, "regularity identity or bound fails")
            counts["clutters.chordal_reg_bound.checks"] += 1
            reports.append(
                [x, sorted(e), r.reg, r.identity_deletion, r.identity_link, r.bound_deletion]
            )
    record["bounds"] = reports
    return record, counts


# name -> (base draw, seeded presentation, factory of the handler for a pass)
WORKLOADS = {
    "ideal-search": (draw_ideal_search, present_ideal_search, lambda: run_ideal_search),
    "complex-search": (draw_complex_search, present_complex_search, lambda: run_complex_search),
    "oracle-squarefree": (
        draw_oracle_squarefree, present_oracle_squarefree, lambda: run_oracle_squarefree
    ),
    "chordal-clutters": (draw_chordal_clutters, present_chordal_clutters, chordal_clutters_handler),
}


def requests(workload: str, seed: int, count: int) -> list:
    """The seed's requests: each base instance under a seeded relabelling
    of its variables or vertices (and shuffle of its generators, facets or
    edges).

    The base instances are drawn once, independently of the seed.  The
    requests of two seeds are therefore different inputs with the same
    difficulty: decomposability, Betti tables and chordality do not change
    under relabelling, while the lexicographic search order, the
    certificates and the memo and cache keys do.  Drawing fresh instances
    per seed would make the latency percentiles of a few hundred requests
    differ by 10-20% from seed to seed, which hides the changes the
    benchmark is there to measure.
    """
    draw, present, _ = WORKLOADS[workload]
    base_rng = Random(f"{workload}:base")
    bases = [draw(base_rng) for _ in range(count)]
    rng = Random(f"{workload}:{seed}")
    return [present(rng, base) for base in bases]
