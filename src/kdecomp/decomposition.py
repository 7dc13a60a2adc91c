"""Shedding tests and k-decomposability search with verifiable certificates.

A certificate is a binary tree of splits.  For ideals each inner node
names a shedding monomial u and splits the generators into the part some
power of u divides (the "deletion" side I^u) and the untouched part (the
"link" side I_u).  For complexes each inner node names a shedding face.
Certificates can be re-verified independently of the search that found
them.  One walker, `_fold`, visits every certificate from an explicit
stack, so any depth works: a node, its deletion subtree, then its link
subtree.  The verifiers are its checks; derivations fold in that walk.

Inputs are validated once, by the public functions.  Below them the
split, the shedding test, the search and the certificate check run on
exponent tuples; a Monomial is built only for a certificate node or leaf.
Each node of a search or a check keeps its generators as bits of int
masks, with tables filled on first use.  I_u is the AND of the masks
{g : g_i < u_i} over supp(u).  The shedding test rests on one invariant:
if u sheds I, then for each i in supp(u) every m in I_u has m_i = u_i - 1
and some generator h with h : m = x_i, and such an h has h_i = u_i, so it
lies in I^u with no further check.  So u sheds exactly when I_u is
nonzero and lies in the step mask {m : m_i = u_i - 1, some h : m = x_i}
of every pair (i, u_i); the search, the verifier and
`is_shedding_monomial` all read these step masks.  The search walks the
supports depth first along their prefix trie, which visits them in
lexicographic order, and carries with each choice of bounds its I_u mask
and its good mask, the members of I_u that pass every step so far.  It
yields a candidate only when its I_u is nonzero and equal to its good
mask, so every candidate it yields sheds, and it ends a branch when the
good mask is empty, as a shedding extension has its I_u inside it.  The
first winner, the memo keys and the node count do not change.

The complex search and check read the facet masks of the complex, a
sorted antichain of ints.  A face sigma sheds the complex when every face
tau containing it can trade any v in sigma for some w outside tau and
stay a face; it is enough to ask that, for every facet F holding
sigma and every v in sigma, another facet G holds F - v.  A facet F is
one such tau, and G must hold some w outside F, as G and F are distinct
facets; conversely a tau below a facet F can take any w in F - tau.  So
each facet F gets the mask of the v with F - v in another facet (the one
vertex of F - G, whenever that is a single vertex), and sigma sheds when
it lies in that mask for every facet holding it.  Then each such F - v lies
in a facet without sigma (one with sigma would hold v, hence F), so the
deletion has exactly the facets not holding sigma, and the link has
F - sigma for the facets F holding it, with no minimalization on either
side.  Faces are generated depth first, a face before its extensions by
larger vertices, which is the lexicographic order below.  The holders of
a larger face are among those of sigma, so the walk yields only the
faces that shed and ends a branch at a face in the mask of no holder.

Determinism: candidates are tried in lexicographic order of their sorted
support/vertex tuple, then of the exponent vector, and the first valid
shedding monomial or face wins.  Search results are memoized by the
context and generator tuple of an ideal, or by the facet-mask tuple of a
complex, together with the bound k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import compress, count
from operator import or_

from .complexes import SimplicialComplex
from .errors import (
    BudgetExceededError,
    ContextMismatchError,
    ImproperIdealError,
    InvalidCertificateError,
    NotAFaceError,
    ZeroIdealError,
)
from .monomials import (
    Monomial, MonomialIdeal, VariableContext, _exponent_tuples, bits, mask_of
)

DEFAULT_NODE_BUDGET = 500_000


def _check_k(k: int) -> None:
    if k < -1:
        raise ValueError(f"k must be -1 (no bound) or at least 0, got {k}")


def _check_u(ctx: VariableContext, u: Monomial) -> None:
    if u.ctx != ctx:
        raise ContextMismatchError("u lives in a different context")
    if u.is_one:
        raise ValueError("the predicate [u, M] is vacuous for u = 1")


class _Node:
    """One node's generators as mask bits (bit j is gens[j]), with the one
    copy of the predicate and of the shedding step; tables fill on first use."""

    __slots__ = ("gens", "full", "below", "steps", "wit")

    def __init__(self, gens):
        self.gens, self.full = gens, (1 << len(gens)) - 1
        self.below = {}  # (i, e) -> mask of the g with g_i < e
        self.steps = {}  # (i, e) -> mask of the g with g_i = e - 1 and a witness in i
        self.wit = [None] * len(gens)  # j -> mask of the i with some g : gens[j] = x_i

    def fill(self, b) -> int:
        """The mask of the g with g_i < e for the pair b = (i, e), stored in
        `below`; callers look there first."""
        i, e = b
        m = self.below[b] = sum([1 << j for j, g in enumerate(self.gens) if g[i] < e])
        return m

    def step(self, b) -> int:
        """The shedding step for the pair b = (i, u_i), stored in `steps`: the
        mask of the m with m_i = u_i - 1 and some generator h with h : m = x_i.
        Such an h has h_i = u_i, so it lies in I^u.  Conversely a witness g in
        I^u for an m in I_u has g_l <= m_l < u_l for l != i, so g_i >= u_i,
        while g_i = m_i + 1 <= u_i; hence m_i = u_i - 1 and m is in the mask."""
        i, e = b
        m, wit = 0, self.wit
        for j, g in enumerate(self.gens):
            if g[i] == e - 1:
                row = wit[j]
                if row is None:
                    row = self._witnesses(j)
                if row >> i & 1:
                    m |= 1 << j
        self.steps[b] = m
        return m

    def sheds(self, bounds, lower) -> bool:
        """u sheds when I_u is nonzero and lies in the step of every pair
        (i, u_i); u = 1 has no steps and an empty I^u, and does not."""
        good, steps = lower, self.steps
        for b in bounds:
            m = steps.get(b)
            good &= self.step(b) if m is None else m
        return good == lower and 0 < lower != self.full

    def _witnesses(self, j) -> int:
        """The i for which some g has g : gens[j] = x_i, that is g_i = m_i + 1
        and g_l <= m_l otherwise: one scan of each g, up to its second
        coordinate above m (or its first more than one above)."""
        m = self.gens[j]
        row = 0
        for g in self.gens:
            over = -1
            for i, a in enumerate(g):
                if a > m[i]:
                    if over >= 0 or a > m[i] + 1:
                        break
                    over = i
            else:
                if over >= 0:
                    row |= 1 << over
        self.wit[j] = row
        return row

    def pick(self, mask) -> tuple:
        return tuple([g for j, g in enumerate(self.gens) if mask >> j & 1])

    def split(self, u) -> tuple[list[tuple[int, int]], int]:
        """The pairs (i, u_i) over supp(u) and the mask of I_u for an
        exponent vector u: g is in I_u when g_i < u_i for all of them, and
        in I^u otherwise."""
        bounds = [(i, a) for i, a in enumerate(u) if a]
        lower, below = self.full, self.below
        for b in bounds:
            m = below.get(b)
            if m is None:
                m = self.fill(b)
            lower &= m
        return bounds, lower


def split(ideal: MonomialIdeal, u: Monomial) -> tuple[MonomialIdeal, MonomialIdeal]:
    """Partition G(I) into (I^u, I_u) by the predicate [u, .]."""
    ctx = ideal.ctx
    _check_u(ctx, u)
    node = _Node(ideal.exps)
    lower = node.split(u.exponents)[1]
    return tuple(MonomialIdeal(ctx, node.pick(m)) for m in (node.full ^ lower, lower))


def is_shedding_monomial(ideal: MonomialIdeal, u: Monomial) -> bool:
    """u sheds I when I_u != 0 and every generator of I_u is one colon step
    away from some generator of I^u, in every support variable of u."""
    _check_u(ideal.ctx, u)
    node = _Node(ideal.exps)
    return node.sheds(*node.split(u.exponents))


@dataclass(frozen=True)
class IdealLeaf:
    generator: Monomial


@dataclass(frozen=True)
class IdealNode:
    u: Monomial
    deletion: "IdealCertificate"  # certificate for I^u
    link: "IdealCertificate"  # certificate for I_u


IdealCertificate = IdealLeaf | IdealNode


def _fold(cert, inner, leaf, join, split=lambda c, s: (s, s), state=()):
    """Post-order fold (see the module docstring): an `inner` node c gives its
    subtrees the states `split(c, s)` and is valued `join(c, deletion value,
    link value)`, anything else `leaf(c, s)`.  None, never a state, marks a join."""
    values, stack = [], [(cert, state)]
    while stack:
        c, s = stack.pop()
        if s is None:
            link = values.pop()
            values[-1] = join(c, values[-1], link)
        elif isinstance(c, inner):
            down, right = split(c, s)
            stack += ((c, None), (c.link, right), (c.deletion, down))
        else:
            values.append(leaf(c, s))
    return values[0]


def _leaf_generators(c, _) -> list[Monomial]:
    if not isinstance(c, IdealLeaf):
        raise InvalidCertificateError(f"{c!r} is not a certificate node")
    if not isinstance(c.generator, Monomial):
        raise InvalidCertificateError(f"{c.generator!r} is not a monomial")
    return [c.generator]


def _nothing(*_) -> None:
    return None


def verify_ideal_certificate(
    cert: IdealCertificate, k: int = -1, expected: MonomialIdeal | None = None
) -> MonomialIdeal:
    """Re-check every node of a certificate; returns the root ideal.

    Raises InvalidCertificateError when any shedding claim, split or the
    support bound fails.
    """
    return _verified_ideal_fold(cert, _nothing, _nothing, k, expected)[0]


def _verified_ideal_fold(cert, leaf, join, k=-1, expected=None):
    """The root ideal, and `leaf` and `join` folded in the walk verifying `cert`."""
    _check_k(k)
    leaves = _fold(cert, IdealNode, _leaf_generators, lambda c, d, l: d + l)
    ctx = leaves[0].ctx
    try:
        ideal = MonomialIdeal.from_monomials(ctx, leaves)
    except (ContextMismatchError, ImproperIdealError) as e:
        raise InvalidCertificateError(f"certificate leaves: {e}") from None
    if len(ideal.exps) != len(leaves):
        raise InvalidCertificateError("certificate leaves are not a minimal set")
    if expected is not None and ideal != expected:
        raise InvalidCertificateError("certificate does not describe this ideal")

    def check_leaf(c, gens):
        if gens != (c.generator.exponents,):  # the one generator its split leaves
            raise InvalidCertificateError("leaf does not match its ideal")
        return leaf(c, gens)

    def check_split(c, gens):
        u = c.u
        if not isinstance(u, Monomial):
            raise InvalidCertificateError(f"{u!r} is not a monomial")
        if u.ctx != ctx:
            raise InvalidCertificateError(f"{u} lives in a different context")
        if k >= 0 and len(u.support) > k + 1:
            raise InvalidCertificateError(
                f"|supp(u)| = {len(u.support)} exceeds k + 1 = {k + 1}"
            )
        node = _Node(gens)
        bounds, lower = node.split(u.exponents)
        if not node.sheds(bounds, lower):
            raise InvalidCertificateError(f"{u} is not a shedding monomial here")
        return node.pick(node.full ^ lower), node.pick(lower)

    return ideal, _fold(cert, IdealNode, check_leaf, join, check_split, ideal.exps)


def _shedding_candidates(node: _Node, cap: int):
    """The shedding monomials of the node in deterministic order, each as
    its support, its bounds (i, u_i) and the mask of its I_u.

    For each variable the candidate exponents are exactly the positive
    exponents occurring among the generators, so the space is finite and
    complete up to the threshold semantics of the predicate.  Supports
    come in lexicographic order of their sorted index tuple, which is the
    depth-first preorder of their prefix trie, and exponent choices in
    ascending product order.  A partial is a choice of bounds for a
    support with its I_u mask and its good mask, the members of I_u that
    pass the step of each of its pairs.  An extension by a larger
    variable v and exponent e ANDs the good mask with the step of (v, e)
    and the I_u mask with the `below` mask of (v, e).  By the invariant of
    the module docstring:

    - the extension sheds when its I_u is nonzero and equal to its good
      mask (a witness then lies outside I_u, so I_u is not all of G(I)),
      and only then is it yielded;
    - an empty good mask drops the extension with its whole branch: I_u
      only shrinks as the support grows and each step adds a condition,
      so a shedding extension has its I_u inside the good mask;
    - a nonzero good mask pins the bounds that gave its I_u: for a member
      m and a pair (i, u_i), the witness h has h_i = u_i and h_l <= m_l
      otherwise, so other bounds with the same I_u would put h in it
      unless they had u_i too.  The partials kept for a support thus have
      distinct I_u masks, and the walk yields each shedding candidate of
      the full product order once, in that order.

    Nothing is computed ahead of the candidate that needs it: the step of
    (v, e) comes first, and its `below` mask only for a surviving
    extension.
    """
    n = len(node.gens[0])
    exps = [sorted({g[i] for g in node.gens} - {0}) for i in range(n)]
    variables = [i for i in range(n) if exps[i]]
    return _extend(node, exps, variables, (), [(node.full, (), node.full)], cap)


def _extend(node: _Node, exps, variables, supp, partials: list, room: int):
    """The shedding candidates of the supports supp + (v, ...) with v in
    `variables` and at most `room` more variables, from the partials of
    supp: (I_u mask, bounds, nonzero good mask), in product order."""
    below, steps = node.below, node.steps
    for at, v in enumerate(variables):
        s, level = supp + (v,), []
        for mask, bounds, good in partials:
            for e in exps[v]:
                g = steps.get((v, e))
                if g is None:
                    g = node.step((v, e))
                g &= good
                if g:
                    m = below.get((v, e))
                    if m is None:
                        m = node.fill((v, e))
                    m &= mask
                    b = bounds + ((v, e),)
                    level.append((m, b, g))
                    if g == m:
                        yield s, b, m
        if level and room > 1:
            yield from _extend(node, exps, variables[at + 1 :], s, level, room - 1)


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
    BudgetExceededError when the node budget runs out first.  Each visit
    to a node of two or more generators spends one, a memo hit too, so
    the budget bounds the work and not only the memo.
    """
    _check_k(k)
    if ideal.is_zero:
        raise ZeroIdealError("the zero ideal has no decomposition")
    if memo is None:
        memo = {}
    return _search_ideal(ideal.ctx, ideal.exps, k, memo, _Budget(node_budget))


def _search_ideal(ctx, gens, k, memo, budget) -> IdealCertificate | None:
    if len(gens) == 1:
        return IdealLeaf(Monomial(ctx, gens[0]))
    budget.spend()  # every visit, a memo hit too
    key = (ctx, gens, k)
    if key in memo:
        return memo[key]
    cap = ctx.n if k < 0 else k + 1
    node = _Node(gens)
    result = None
    for _, bounds, lower in _shedding_candidates(node, cap):
        left = _search_ideal(ctx, node.pick(node.full ^ lower), k, memo, budget)
        if left is None:
            continue
        right = _search_ideal(ctx, node.pick(lower), k, memo, budget)
        if right is None:
            continue
        u = [0] * ctx.n
        for i, e in bounds:
            u[i] = e
        result = IdealNode(Monomial(ctx, tuple(u)), left, right)
        break
    memo[key] = result
    return result


def _exchange_masks(holders, facets) -> dict[int, int]:
    """Each facet f in `holders` mapped to the mask of the v in f such that
    f - v lies in another facet g: facets form an antichain, so f & ~g is
    empty only for g = f, and g holds f - v exactly when f & ~g is {v}."""
    ex = {}
    for f in holders:
        x = 0
        for g in facets:
            d = f & ~g
            if d and not d & (d - 1):
                x |= d
        ex[f] = x
    return ex


def _fits(sigma: int, holders, ex) -> list[int]:
    """The facets f among those holding sigma with sigma inside ex[f]."""
    return [f for f in holders if not sigma & ~ex[f]]


def is_shedding_face(delta: SimplicialComplex, sigma) -> bool:
    """Exchange test: every face containing sigma can swap any vertex of
    sigma for some outside vertex and stay a face."""
    s = mask_of(sigma)
    if not s:
        raise ValueError("a shedding face must be nonempty")
    facets = delta.facet_masks
    holders = [f for f in facets if f & s == s]
    if not holders:
        raise NotAFaceError(f"{bits(s)} is not a face")
    return len(_fits(s, holders, _exchange_masks(holders, facets))) == len(holders)


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
    _verified_complex_fold(delta, cert, _nothing, _nothing, k)


def _vertex_mask(face, n: int) -> int:
    if not isinstance(face, (set, frozenset)) or not all(
        type(v) is int and 0 <= v < n for v in face
    ):
        raise InvalidCertificateError(f"{face!r} is not a set of vertex indices")
    return mask_of(face)


def _verified_complex_fold(delta, cert, leaf, join, k=-1):
    """`leaf` and `join` folded in the walk verifying `cert`; states are
    (facet masks, ambient vertex mask), and a link drops sigma from both."""
    _check_k(k)
    n = delta.ctx.n

    def check_leaf(c, state):
        if not isinstance(c, ComplexLeaf):
            raise InvalidCertificateError(f"{c!r} is not a certificate node")
        if c.facet is None:
            if state[0]:
                raise InvalidCertificateError("void leaf for a non-void complex")
        elif state[0] != (_vertex_mask(c.facet, n),):
            raise InvalidCertificateError("leaf facet does not match the complex")
        return leaf(c, state)

    def check_split(c, state):
        facets, ambient = state
        sigma = _vertex_mask(c.sigma, n)
        if not sigma:
            raise InvalidCertificateError("empty shedding face in certificate")
        if k >= 0 and sigma.bit_count() > k + 1:
            raise InvalidCertificateError(
                f"dim(sigma) = {sigma.bit_count() - 1} exceeds k = {k}"
            )
        holders = [f for f in facets if f & sigma == sigma]
        if not holders:
            raise InvalidCertificateError(f"{sorted(c.sigma)} is not a face")
        if len(_fits(sigma, holders, _exchange_masks(holders, facets))) != len(holders):
            raise InvalidCertificateError(f"{sorted(c.sigma)} is not a shedding face")
        deletion = tuple([f for f in facets if f & sigma != sigma])
        return (deletion, ambient), (tuple([f ^ sigma for f in holders]), ambient & ~sigma)

    state = (delta.facet_masks, delta.vertex_mask)
    return _fold(cert, ComplexNode, check_leaf, join, check_split, state)


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
    modes agree; certificates from either re-verify directly.  The node
    budget counts visits as in `k_decomposable_ideal`, to nodes of two or
    more facets in direct mode.
    """
    _check_k(k)
    if mode not in ("direct", "dual"):
        raise ValueError(f"unknown mode {mode!r}")
    if memo is None:
        memo = {}
    if mode == "direct":
        return _search_complex(delta.facet_masks, k, memo, _Budget(node_budget))
    if delta.is_simplex:
        return _complex_leaf(delta.facet_masks)
    dual_ideal = facet_complement_ideal(delta)
    cert = k_decomposable_ideal(dual_ideal, k, memo=memo, node_budget=node_budget)
    if cert is None:
        return None
    return transport_certificate(cert, delta.vertices)


def facet_complement_ideal(delta: SimplicialComplex) -> MonomialIdeal:
    """The ideal generated by x^(X - F) over facets F; this is the nonface
    ideal of the Alexander dual.  The complements of the facets form an
    antichain, so they are the minimal generators as they stand."""
    if delta.is_void:
        raise ZeroIdealError("the void complex has no facet-complement ideal")
    x, n = delta.vertex_mask, delta.ctx.n
    if x in delta.facet_masks:
        raise ImproperIdealError("a facet holding every vertex gives the unit ideal")
    exps = _exponent_tuples([x ^ f for f in delta.facet_masks], n)
    return MonomialIdeal(delta.ctx, tuple(sorted(exps, reverse=True)))


def transport_certificate(cert: IdealCertificate, vertices) -> ComplexCertificate:
    """Map an ideal certificate for the facet-complement ideal back to the
    complex: leaves become facets (complement of the generator support in
    the current vertex set), nodes become shedding faces."""
    # compress(count(), exps) lists the support of exps without a Python loop
    return _fold(
        cert, IdealNode,
        lambda c, v: ComplexLeaf(v.difference(compress(count(), c.generator.exponents))),
        lambda c, d, l: ComplexNode(frozenset(compress(count(), c.u.exponents)), d, l),
        lambda c, v: (v, v.difference(compress(count(), c.u.exponents))),
        frozenset(vertices),
    )


def _complex_leaf(facets: tuple[int, ...]) -> ComplexLeaf:
    return ComplexLeaf(frozenset(bits(facets[0])) if facets else None)


def _faces_in_order(facets, ex, vertices, cap, face=0):
    """The shedding faces with at most cap vertices, each with the facets
    holding it, in lexicographic order of their sorted vertex tuples: a
    face, then its extensions by larger vertices.  A face sheds when every
    facet holding it fits it (`_fits`, on the exchange masks ex).  The
    holders of an extension are among those of the face and must fit the
    extension, hence the face, so a face that no holder fits ends its
    branch."""
    for at, v in enumerate(vertices):
        b = 1 << v
        inner = [f for f in facets if f & b]
        if inner:
            s = face | b
            fit = _fits(s, inner, ex)
            if fit:
                if len(fit) == len(inner):
                    yield s, inner
                if cap > 1:
                    yield from _faces_in_order(inner, ex, vertices[at + 1 :], cap - 1, s)


def _search_complex(facets, k, memo, budget) -> ComplexCertificate | None:
    if len(facets) <= 1:
        return _complex_leaf(facets)
    budget.spend()  # every visit, a memo hit too
    key = (facets, k)
    if key in memo:
        return memo[key]
    vertices = bits(reduce(or_, facets))
    cap = len(vertices) if k < 0 else k + 1
    ex = _exchange_masks(facets, facets)
    result = None
    for sigma, holders in _faces_in_order(facets, ex, vertices, cap):
        # Tuples are built from lists: tuple() of a generator over-allocates,
        # and the shrunk tuples pile up in the interpreter's free lists.
        deletion = tuple([f for f in facets if f & sigma != sigma])
        left = _search_complex(deletion, k, memo, budget)
        if left is None:
            continue
        right = _search_complex(tuple([f ^ sigma for f in holders]), k, memo, budget)
        if right is None:
            continue
        result = ComplexNode(frozenset(bits(sigma)), left, right)
        break
    memo[key] = result
    return result
