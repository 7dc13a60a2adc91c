"""Shedding tests and k-decomposability search with verifiable certificates.

A certificate is a binary tree of splits.  For ideals each inner node
names a shedding monomial u and splits the generators into the part some
power of u divides (the "deletion" side I^u) and the untouched part (the
"link" side I_u).  For complexes each inner node names a shedding face.
Certificates can be re-verified independently of the search that found
them.

Inputs are validated once, by the public functions.  Below them the
split, the shedding test, the search and the certificate check run on
exponent tuples; a Monomial is built only for a certificate node or leaf.

Determinism: candidates are tried in lexicographic order of their sorted
support/vertex tuple, then of the exponent vector, and the first valid
shedding monomial or face wins.  Search failures are memoized by the
canonical form of the object together with the bound k.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .complexes import SimplicialComplex, delete_face, link
from .errors import (
    BudgetExceededError,
    ContextMismatchError,
    ImproperIdealError,
    InvalidCertificateError,
    NotAFaceError,
    ZeroIdealError,
)
from .monomials import Monomial, MonomialIdeal, VariableContext, mask_of

DEFAULT_NODE_BUDGET = 500_000


def _check_u(ctx: VariableContext, u: Monomial) -> None:
    if u.ctx != ctx:
        raise ContextMismatchError("u lives in a different context")
    if u.is_one:
        raise ValueError("the predicate [u, M] is vacuous for u = 1")


def _split(gens, u):
    """(I^u, I_u) in the order of gens: g is in I_u when [u, g] = 1, that
    is g_i < u_i for every i with u_i > 0."""
    bounds = [(i, a) for i, a in enumerate(u) if a]
    upper, lower = [], []
    for g in gens:
        (lower if all(g[i] < a for i, a in bounds) else upper).append(g)
    return tuple(upper), tuple(lower)


def _shedding_split(gens, u):
    """(I^u, I_u) when u sheds: for each m in I_u and i in supp(u) some g
    in I^u has g : m = x_i, i.e. max(g_j - m_j, 0) = [j = i] for all j."""
    upper, lower = _split(gens, u)
    if not upper or not lower:
        return None  # nothing to shed, or the witnesses cannot exist
    support = {i for i, a in enumerate(u) if a}
    for m in lower:
        colons = ([max(a - b, 0) for a, b in zip(g, m)] for g in upper)
        if not support <= {c.index(1) for c in colons if sum(c) == 1}:
            return None
    return upper, lower


def matches(u: Monomial, m: Monomial) -> bool:
    """The predicate [u, M] = 1: no x_i^{a_i} with a_i > 0 in u divides M."""
    _check_u(m.ctx, u)
    return not _split((m.exponents,), u.exponents)[0]


def split(ideal: MonomialIdeal, u: Monomial) -> tuple[MonomialIdeal, MonomialIdeal]:
    """Partition G(I) into (I^u, I_u) by the predicate [u, .]."""
    ctx = ideal.ctx
    _check_u(ctx, u)
    halves = _split(ideal.exps, u.exponents)
    return tuple(MonomialIdeal(ctx, h) for h in halves)


def is_shedding_monomial(ideal: MonomialIdeal, u: Monomial) -> bool:
    """u sheds I when I_u != 0 and every generator of I_u is one colon step
    away from some generator of I^u, in every support variable of u."""
    _check_u(ideal.ctx, u)
    return _shedding_split(ideal.exps, u.exponents) is not None


@dataclass(frozen=True)
class IdealLeaf:
    generator: Monomial


@dataclass(frozen=True)
class IdealNode:
    u: Monomial
    deletion: "IdealCertificate"  # certificate for I^u
    link: "IdealCertificate"  # certificate for I_u


IdealCertificate = IdealLeaf | IdealNode


def certificate_generators(cert: IdealCertificate) -> list[Monomial]:
    if isinstance(cert, IdealLeaf):
        return [cert.generator]
    return certificate_generators(cert.deletion) + certificate_generators(cert.link)


def verify_ideal_certificate(
    cert: IdealCertificate, k: int = -1, expected: MonomialIdeal | None = None
) -> MonomialIdeal:
    """Re-check every node of a certificate; returns the root ideal.

    Raises InvalidCertificateError when any shedding claim, split or the
    support bound fails.
    """
    leaves = certificate_generators(cert)
    ctx = leaves[0].ctx
    try:
        ideal = MonomialIdeal.from_monomials(ctx, leaves)
    except (ContextMismatchError, ImproperIdealError) as e:
        raise InvalidCertificateError(f"certificate leaves: {e}") from None
    if len(ideal.exps) != len(leaves):
        raise InvalidCertificateError("certificate leaves are not a minimal set")
    if expected is not None and ideal != expected:
        raise InvalidCertificateError("certificate does not describe this ideal")
    _verify_ideal_node(cert, ctx, ideal.exps, k)
    return ideal


def _verify_ideal_node(cert: IdealCertificate, ctx, gens, k: int) -> None:
    """Each subtree is handed its half of the split and each leaf must be
    the one generator left, so leaves that are not their half fail."""
    if isinstance(cert, IdealLeaf):
        if gens != (cert.generator.exponents,):
            raise InvalidCertificateError("leaf does not match its ideal")
        return
    u = cert.u
    if u.ctx != ctx:
        raise InvalidCertificateError(f"{u} lives in a different context")
    if k >= 0 and len(u.support) > k + 1:
        raise InvalidCertificateError(
            f"|supp(u)| = {len(u.support)} exceeds k + 1 = {k + 1}"
        )
    parts = _shedding_split(gens, u.exponents)
    if parts is None:
        raise InvalidCertificateError(f"{u} is not a shedding monomial here")
    _verify_ideal_node(cert.deletion, ctx, parts[0], k)
    _verify_ideal_node(cert.link, ctx, parts[1], k)


def _shedding_candidates(gens, cap: int):
    """Candidate shedding exponent vectors in deterministic order.

    For each variable the candidate exponents are exactly the positive
    exponents occurring among the generators, so the space is finite and
    complete up to the threshold semantics of the predicate.  Supports
    are enumerated in lexicographic order of their sorted index tuple,
    exponent choices in ascending product order.
    """
    occurring: dict[int, list[int]] = {}
    for g in gens:
        for i, e in enumerate(g):
            if e > 0:
                occurring.setdefault(i, []).append(e)
    variables = sorted(occurring)
    exps = {i: sorted(set(v)) for i, v in occurring.items()}
    supports: list[tuple[int, ...]] = []
    for r in range(1, min(cap, len(variables)) + 1):
        supports.extend(combinations(variables, r))
    supports.sort()
    for supp in supports:
        for choice in product(*(exps[i] for i in supp)):
            vec = [0] * len(gens[0])
            for i, e in zip(supp, choice):
                vec[i] = e
            yield tuple(vec)


class _Budget:
    __slots__ = ("left",)

    def __init__(self, limit: int):
        self.left = limit

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise BudgetExceededError("decomposition search budget exhausted")


def k_decomposable_ideal(
    ideal: MonomialIdeal,
    k: int = -1,
    memo: dict | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> IdealCertificate | None:
    """Search for a k-decomposition certificate of a nonzero proper ideal.

    k = -1 places no bound on shedding supports.  Returns None when the
    search space is exhausted (a definitive negative); raises
    BudgetExceededError when the node budget runs out first.
    """
    if ideal.is_zero:
        raise ZeroIdealError("the zero ideal has no decomposition")
    if memo is None:
        memo = {}
    return _search_ideal(ideal.ctx, ideal.exps, k, memo, _Budget(node_budget))


def _search_ideal(ctx, gens, k, memo, budget) -> IdealCertificate | None:
    if len(gens) == 1:
        return IdealLeaf(Monomial(ctx, gens[0]))
    key = (ctx, gens, k)
    if key in memo:
        return memo[key]
    budget.spend()
    cap = ctx.n if k < 0 else k + 1
    result = None
    for u in _shedding_candidates(gens, cap):
        parts = _shedding_split(gens, u)
        if parts is None:
            continue
        left = _search_ideal(ctx, parts[0], k, memo, budget)
        if left is None:
            continue
        right = _search_ideal(ctx, parts[1], k, memo, budget)
        if right is None:
            continue
        result = IdealNode(Monomial(ctx, u), left, right)
        break
    memo[key] = result
    return result


def is_shedding_face(delta: SimplicialComplex, sigma) -> bool:
    """Exchange test: every face containing sigma can swap any vertex of
    sigma for some outside vertex and stay a face."""
    sigma = frozenset(sigma)
    if not sigma:
        raise ValueError("a shedding face must be nonempty")
    if not delta.has_face(sigma):
        raise NotAFaceError(f"{sorted(sigma)} is not a face")
    return _is_shedding_face(delta, sigma, delta.faces())


def _is_shedding_face(
    delta: SimplicialComplex, sigma: frozenset[int], faces: frozenset[frozenset[int]]
) -> bool:
    """The exchange test for a nonempty face sigma, given all faces of delta."""
    vertices = delta.vertices
    for tau in faces:
        if not sigma <= tau:
            continue
        outside = vertices - tau
        for v in sigma:
            base = tau - {v}
            if not any(base | {w} in faces for w in outside):
                return False
    return True


@dataclass(frozen=True)
class ComplexLeaf:
    """A simplex leaf; facet None encodes the void complex."""

    facet: frozenset[int] | None


@dataclass(frozen=True)
class ComplexNode:
    sigma: frozenset[int]
    deletion: "ComplexCertificate"
    link: "ComplexCertificate"


ComplexCertificate = ComplexLeaf | ComplexNode


def verify_complex_certificate(
    delta: SimplicialComplex, cert: ComplexCertificate, k: int = -1
) -> None:
    """Re-check a complex certificate against `delta`; raises on failure."""
    if isinstance(cert, ComplexLeaf):
        if cert.facet is None:
            if not delta.is_void:
                raise InvalidCertificateError("void leaf for a non-void complex")
        elif delta.facets != frozenset([cert.facet]):
            raise InvalidCertificateError("leaf facet does not match the complex")
        return
    sigma = cert.sigma
    if not sigma:
        raise InvalidCertificateError("empty shedding face in certificate")
    if k >= 0 and len(sigma) > k + 1:
        raise InvalidCertificateError(
            f"dim(sigma) = {len(sigma) - 1} exceeds k = {k}"
        )
    if not delta.has_face(sigma):
        raise InvalidCertificateError(f"{sorted(sigma)} is not a face")
    if not _is_shedding_face(delta, sigma, delta.faces()):
        raise InvalidCertificateError(f"{sorted(sigma)} is not a shedding face")
    verify_complex_certificate(delete_face(delta, sigma), cert.deletion, k)
    verify_complex_certificate(link(delta, sigma), cert.link, k)


def k_decomposable_complex(
    delta: SimplicialComplex,
    k: int = -1,
    mode: str = "direct",
    memo: dict | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ComplexCertificate | None:
    """Decide k-decomposability of a complex.

    Direct mode searches shedding faces and recurses on deletion and
    link.  Dual mode runs the ideal search on the facet-complement ideal
    of the complex and transports the certificate back (a shedding
    monomial with support S corresponds to the shedding face S).  The two
    modes agree; certificates from either re-verify directly.
    """
    if mode not in ("direct", "dual"):
        raise ValueError(f"unknown mode {mode!r}")
    if memo is None:
        memo = {}
    if mode == "direct":
        return _search_complex(delta, k, memo, _Budget(node_budget))
    if delta.is_simplex:
        return _complex_leaf(delta)
    dual_ideal = facet_complement_ideal(delta)
    cert = k_decomposable_ideal(dual_ideal, k, memo=memo, node_budget=node_budget)
    if cert is None:
        return None
    return transport_certificate(cert, delta.vertices)


def facet_complement_ideal(delta: SimplicialComplex) -> MonomialIdeal:
    """The ideal generated by x^(X - F) over facets F; this is the nonface
    ideal of the Alexander dual."""
    if delta.is_void:
        raise ZeroIdealError("the void complex has no facet-complement ideal")
    return MonomialIdeal.from_masks(
        delta.ctx, (mask_of(delta.vertices - f) for f in delta.facets)
    )


def transport_certificate(cert: IdealCertificate, vertices) -> ComplexCertificate:
    """Map an ideal certificate for the facet-complement ideal back to the
    complex: leaves become facets (complement of the generator support in
    the current vertex set), nodes become shedding faces."""
    vertices = frozenset(vertices)
    if isinstance(cert, IdealLeaf):
        return ComplexLeaf(vertices - cert.generator.support)
    sigma = frozenset(cert.u.support)
    return ComplexNode(
        sigma,
        transport_certificate(cert.deletion, vertices),
        transport_certificate(cert.link, vertices - sigma),
    )


def _complex_leaf(delta: SimplicialComplex) -> ComplexLeaf:
    if delta.is_void:
        return ComplexLeaf(None)
    (facet,) = delta.facets
    return ComplexLeaf(facet)


def _search_complex(delta, k, memo, budget) -> ComplexCertificate | None:
    if delta.is_simplex:
        return _complex_leaf(delta)
    key = (delta.canonical_key(), k)
    if key in memo:
        return memo[key]
    budget.spend()
    cap = len(delta.vertices) if k < 0 else k + 1
    faces = delta.faces()
    candidates = sorted(tuple(sorted(f)) for f in faces if 0 < len(f) <= cap)
    result = None
    for face in candidates:
        sigma = frozenset(face)
        if not _is_shedding_face(delta, sigma, faces):
            continue
        left = _search_complex(delete_face(delta, sigma), k, memo, budget)
        if left is None:
            continue
        right = _search_complex(link(delta, sigma), k, memo, budget)
        if right is None:
            continue
        result = ComplexNode(sigma, left, right)
        break
    memo[key] = result
    return result
