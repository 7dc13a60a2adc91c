"""Decomposability, Betti tables and chordal clutters for monomial ideals.

The package decides k-decomposability of monomial ideals and simplicial
complexes, produces independently checkable shedding certificates, and
computes graded Betti numbers, regularity and projective dimension both
by recursive formulas and by an exact homology oracle used to validate
them.  A clutter layer decides chordality via minors and checks the
regularity identity and bound at simplicial vertices.
"""

from .betti import BettiTable, binom
from .clutters import (
    ChordalBoundReport,
    Clutter,
    MinorStep,
    apply_trace,
    chordal_reg_bound,
    contraction,
    deletion,
    edge_ideal,
    graph_is_chordal_bruteforce,
    is_chordal,
    is_simplicial_vertex,
    lemma_h_ideals,
)
from .complexes import (
    SimplicialComplex,
    alexander_dual_complex,
    alexander_dual_ideal,
    delete_face,
    independence_complex,
    link,
    minimal_nonfaces,
    stanley_reisner_ideal,
)
from .decomposition import (
    ComplexLeaf,
    ComplexNode,
    IdealLeaf,
    IdealNode,
    facet_complement_ideal,
    is_shedding_face,
    is_shedding_monomial,
    k_decomposable_complex,
    k_decomposable_ideal,
    split,
    transport_certificate,
    verify_complex_certificate,
    verify_ideal_certificate,
)
from .errors import (
    BudgetExceededError,
    ContextMismatchError,
    DocumentError,
    ImproperContractionError,
    ImproperIdealError,
    InvalidCertificateError,
    KdecompError,
    NotAFaceError,
    PropertyViolationError,
    VoidComplexError,
    ZeroIdealError,
)
from .homology import (
    betti_hochster,
    betti_koszul,
    oracle_complex_reg_pd,
    oracle_ideal_table,
    oracle_quotient_reg_pd,
    reduced_homology_dims,
)
from .monomials import Monomial, MonomialIdeal, VariableContext
from .resolution import (
    QuotientOrder,
    betti_from_order,
    betti_recursive,
    bight,
    colon_is_variable_generated,
    linear_quotients_order,
    order_from_certificate,
    pd_reg_from_certificate,
    reg_pd_complex,
    terao_check,
)

__version__ = "0.1.0"
