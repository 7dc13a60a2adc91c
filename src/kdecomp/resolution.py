"""Linear-quotient orders, Betti tables and homological invariants.

Two independent routes produce the graded Betti numbers of a
decomposable ideal: the binomial formula over a linear-quotient order,
and a recursion over the decomposition certificate.  Both are validated
against the homology oracle elsewhere.  There is no separate search for
linear quotients: an order is read off the certificate of the ideal
search, which finds one exactly when an order exists.

Conventions used as recursion base cases (standard Koszul facts):
reg(R/0) = pd(R/0) = 0, and for an ideal generated by s distinct
variables reg(R/I) = 0 and pd(R/I) = s.
"""

from __future__ import annotations

from dataclasses import dataclass

from .betti import BettiTable, binom
from .complexes import SimplicialComplex, alexander_dual_ideal
from .decomposition import (
    ComplexCertificate, IdealCertificate, _verified_complex_fold, _verified_ideal_fold,
    k_decomposable_ideal,
)
from .errors import InvalidCertificateError, ZeroIdealError
from .homology import betti_hochster
from .monomials import Monomial, MonomialIdeal, minimal_exponents


@dataclass(frozen=True)
class QuotientOrder:
    """An order of linear quotients with its colon variable sets."""

    order: tuple[Monomial, ...]
    sets: tuple[frozenset[int], ...]

    def __post_init__(self):
        if len(self.order) != len(self.sets):
            raise ValueError("one variable set per generator is required")

    def verify(self) -> None:
        """Recompute every colon ideal and compare with the stored sets."""
        for i, f in enumerate(self.order):
            found = colon_is_variable_generated(self.order[:i], f)
            if found is None or found != self.sets[i]:
                raise InvalidCertificateError(
                    f"colon ideal at position {i} is not the recorded variable set"
                )


def colon_is_variable_generated(prefix, f: Monomial) -> frozenset[int] | None:
    """Support of (prefix) : (f) when that colon ideal is generated by
    variables, else None.  An empty prefix gives the empty set."""
    colons = minimal_exponents(p.colon(f).exponents for p in prefix)
    if all(sum(c) == 1 for c in colons):
        return frozenset(c.index(1) for c in colons)
    return None


def linear_quotients_order(ideal: MonomialIdeal) -> QuotientOrder | None:
    """An order of linear quotients read off the shedding search, or None
    when the ideal has none (a definitive negative).

    An ideal has linear quotients exactly when `k_decomposable_ideal` at
    k = -1 finds a certificate.  A certificate gives an order through
    `order_from_certificate`.  Conversely, let g_1, ..., g_m be an order
    whose last colon (g_1, ..., g_{m-1}) : g_m is generated by the x_i
    with i in S, and set u_i = (g_m)_i + 1 on S.  Each g_j : g_m with
    j < m has some x_i dividing it, so g_{j,i} >= u_i and I_u = (g_m).
    Each x_i is some g_j : g_m, so g_j has g_{j,i} = u_i: u_i is one of
    the exponents the search tries, g_j is the witness in I^u, and u
    sheds I.  I^u is the prefix ideal, which has linear quotients, so
    induction on m finishes.

    Raises BudgetExceededError when the search runs out of nodes.
    """
    if ideal.is_zero:
        raise ZeroIdealError("the zero ideal has no generators to order")
    cert = k_decomposable_ideal(ideal)
    return None if cert is None else order_from_certificate(cert)


def order_from_certificate(cert: IdealCertificate) -> QuotientOrder:
    """Linear-quotient order read off a decomposition certificate.

    The order of the deletion part is followed by the order of the link
    part; on the link part the colon set is the disjoint union of the
    shedding support with the set from the sub-ideal.  No check is needed
    that they are disjoint: each generator of I_u has exponent u_i - 1 at
    every i in supp(u), and `QuotientOrder.verify` re-derives every set.
    """
    order, sets = _verified_ideal_fold(
        cert, lambda c, _: ([c.generator], [frozenset()]), _order_join
    )[1]
    result = QuotientOrder(tuple(order), tuple(sets))
    result.verify()
    return result


def _order_join(node, deletion, link):
    supp = node.u.support
    return deletion[0] + link[0], deletion[1] + [s | supp for s in link[1]]


def betti_from_order(ideal: MonomialIdeal, order: QuotientOrder) -> BettiTable:
    """beta_{i, deg f + i} summed as binomials of the colon set sizes.

    Raises ValueError unless `order` lists exactly the generators of
    `ideal`; the sets of `order` are taken as given (see
    `QuotientOrder.verify`).
    """
    if sorted(f.exponents for f in order.order) != sorted(ideal.exps):
        raise ValueError("the order does not list the generators of the ideal")
    entries: dict[tuple[int, int], int] = {}
    for f, s in zip(order.order, order.sets):
        d = f.degree
        for i in range(len(s) + 1):
            key = (i, d + i)
            entries[key] = entries.get(key, 0) + binom(len(s), i)
    return BettiTable(entries)


def betti_recursive(cert: IdealCertificate) -> BettiTable:
    """Betti table by the shedding recursion
    beta(I) = beta(I^u) + sum_l C(m, l) * beta(I_u) shifted by (l, l)."""
    table = _verified_ideal_fold(cert, lambda c, _: {(0, c.generator.degree): 1}, _betti_join)
    return BettiTable(table[1])


def _betti_join(node, out, lower) -> dict[tuple[int, int], int]:
    m = len(node.u.support)
    for l in range(m + 1):
        c = binom(m, l)
        for (i, j), count in lower.items():
            key = (i + l, j + l)
            out[key] = out.get(key, 0) + c * count
    return out


def pd_reg_from_certificate(cert: IdealCertificate) -> tuple[int, int]:
    """(pd I, reg I): pd = max(pd I^u, pd I_u + |supp u|), reg = max of regs;
    a leaf has pd 0 and reg its degree."""
    return _verified_ideal_fold(
        cert, lambda c, _: (0, c.generator.degree),
        lambda c, d, l: (max(d[0], l[0] + len(c.u.support)), max(d[1], l[1])),
    )[1]


def reg_pd_complex(
    delta: SimplicialComplex, cert: ComplexCertificate
) -> tuple[int, int]:
    """(reg R/I, pd R/I) for the nonface ideal of a decomposable complex.

    Evaluates, over the certificate, reg = max(reg deletion, reg link +
    |sigma|) and pd = max(pd deletion, pd link); the deletion branch
    keeps the ambient vertex set, the link branch drops sigma from it.
    Base case: a simplex leaf missing s ambient vertices has the
    variable-generated nonface ideal, so reg 0 and pd s.
    """
    return _verified_complex_fold(
        delta, cert, _reg_pd_leaf,
        lambda c, d, l: (max(d[0], l[0] + len(c.sigma)), max(d[1], l[1])),
    )


def _reg_pd_leaf(leaf, state) -> tuple[int, int]:
    if leaf.facet is None:
        raise InvalidCertificateError("the void complex has no nonface ideal")
    facets, ambient = state  # verified, so facets is (the leaf's facet,)
    return 0, (ambient & ~facets[0]).bit_count()


def terao_check(ideal: MonomialIdeal, field=None) -> bool:
    """Oracle identity pd(dual I) = reg(R/I) for a squarefree proper ideal.

    A False return would indicate an implementation bug rather than an
    interesting ideal.
    """
    if ideal.is_zero:
        raise ZeroIdealError("needs a nonzero ideal")
    if not ideal.is_squarefree:
        raise ValueError("needs a squarefree ideal")
    dual = alexander_dual_ideal(ideal)
    pd_dual = betti_hochster(dual, field).pd
    reg_quotient = betti_hochster(ideal, field).reg - 1
    return pd_dual == reg_quotient


def bight(ideal: MonomialIdeal) -> int:
    """Big height: the largest size of a minimal prime, i.e. the largest
    generator degree of the Alexander dual."""
    if not ideal.is_squarefree:
        raise ValueError("big height via duality needs a squarefree ideal")
    if ideal.is_zero:
        raise ZeroIdealError("the zero ideal has no minimal primes")
    return max(map(sum, alexander_dual_ideal(ideal).exps))
