"""blcalc: exact computational algebra for totally ordered basic hoops and
BL-algebras, with amalgamation and deductive-interpolation classification."""

from .core import (
    CANC_Z,
    STD_UNIT,
    TRIVIAL,
    AxiomReport,
    Chain,
    Element,
    Kind,
    RawChain,
    TOP,
    chain,
    chain_op,
    check_axioms,
    component_op,
    element,
    enumerate_elements,
    fin_luk,
    kind_embeds,
    lex_omega,
    order_le,
)
from .decompose import Decomposition, decompose, flatten, same_component
from .maps import (
    ChainMap,
    Filter,
    apply_map,
    enumerate_embeddings,
    essentialize,
    filters,
    is_essential_embedding,
    quotient_by_filter,
)
from .amalgam import (
    Amalgam,
    Span,
    UnsupportedShapeError,
    amalgamate_constructive,
    find_amalgam_bruteforce,
    is_essential_span,
    make_span,
    one_sided_amalgam,
)
from .classes import (
    ClassExpr,
    canonical,
    component_member,
    generated_by,
    member,
    vfc_equals,
    vfc_membership,
)
from .classify import (
    IntervalPoset,
    Verdict,
    classify_ap_bh,
    classify_ap_bl,
    classify_ap_mv,
    classify_ap_wh,
    emit_poset,
    enumerate_catalog,
    interval,
    interval_by_name,
)
from .dsl import parse_chain, parse_class_expr, pretty_chain, pretty_class_expr
from .formulas import (
    consequence,
    dip_report,
    eval_formula,
    find_interpolant,
    parse_formula,
)

__version__ = "0.1.0"
