"""The two input preconditions every layer shares, each checked once in
``core``: inputs must agree on designated bounds (``ModeMismatchError``),
and a finite-only entry point needs fully finite chains
(``NotLocallyFiniteError``)."""

from itertools import islice

import pytest

from blcalc.amalgam import make_span, universe_chains
from blcalc.classes import class_includes, generated_by, member, vfc_equals
from blcalc.classify import classify_ap_bh, classify_ap_bl, classify_ap_mv, classify_ap_wh
from blcalc.core import (
    ModeMismatchError,
    NotLocallyFiniteError,
    RunForm,
    same_bounds,
    table_rows,
)
from blcalc.decompose import finite_elements, flatten
from blcalc.dsl import parse_chain, parse_class_expr
from blcalc.formulas import (
    closure_size,
    consequence,
    find_interpolant,
    parse_formula,
    term_closure,
)
from blcalc.maps import enumerate_embeddings

P = parse_formula("p")

# entry point -> call on two inputs that may disagree on designated bounds
PAIR_ENTRY_POINTS = {
    "member": lambda chains, classes: member(chains[0], classes[1]),
    "class_includes": lambda chains, classes: class_includes(*classes),
    "vfc_equals": lambda chains, classes: vfc_equals(*classes),
    "universe_chains": lambda chains, classes: list(
        universe_chains(classes[0], 2, 2, into=(chains[1],))
    ),
    "enumerate_embeddings": lambda chains, classes: enumerate_embeddings(*chains),
    "make_span": lambda chains, classes: make_span(chains[0], chains[1], chains[1]),
    "generated_by": lambda chains, classes: generated_by(*chains),
    "RunForm": lambda chains, classes: RunForm(chains),
    "consequence": lambda chains, classes: consequence(P, P, chains),
    "find_interpolant": lambda chains, classes: find_interpolant(P, P, chains),
    "closure_size": lambda chains, classes: closure_size(P, P, chains),
    "term_closure": lambda chains, classes: list(islice(term_closure(["p"], chains), 1)),
}

# classifier -> the class expression of the signature it refuses; each
# keeps its own message
CLASSIFIERS = {
    classify_ap_mv: "[W2]",
    classify_ap_wh: "[L2]",
    classify_ap_bh: "[L2]",
    classify_ap_bl: "[W2]",
}

# finite-only entry point -> call on a symbolic chain
FINITE_ENTRY_POINTS = {
    "RunForm": lambda c: RunForm([c]),
    "table_rows": table_rows,
    "flatten": flatten,
    "finite_elements": finite_elements,
    "consequence": lambda c: consequence(P, P, [c]),
    "find_interpolant": lambda c: find_interpolant(P, P, [c]),
    "closure_size": lambda c: closure_size(P, P, [c]),
}


@pytest.mark.parametrize("name", sorted(PAIR_ENTRY_POINTS))
@pytest.mark.parametrize("first, second", [("W2", "L2"), ("L2", "W2")])
def test_bounds_mismatch_names_both_inputs(name, first, second):
    chains = (parse_chain(first), parse_chain(second))
    classes = (parse_class_expr(f"[{first}]"), parse_class_expr(f"[{second}]"))
    with pytest.raises(ModeMismatchError, match="disagree on designated bounds") as info:
        PAIR_ENTRY_POINTS[name](chains, classes)
    message = str(info.value)
    assert first in message and second in message, message


@pytest.mark.parametrize("classify", list(CLASSIFIERS), ids=lambda f: f.__name__)
def test_classifiers_refuse_the_other_signature(classify):
    with pytest.raises(ModeMismatchError):
        classify(parse_class_expr(CLASSIFIERS[classify]))


@pytest.mark.parametrize("name", sorted(FINITE_ENTRY_POINTS))
@pytest.mark.parametrize("text", ["Z", "W1+Z", "Lo1"])
def test_symbolic_chain_is_not_locally_finite(name, text):
    with pytest.raises(NotLocallyFiniteError) as info:
        FINITE_ENTRY_POINTS[name](parse_chain(text))
    assert str(info.value) == f"{text} has symbolic components"


def test_bounds_are_checked_before_finiteness():
    for chains in (["L2", "Z"], ["Z", "L2"]):
        with pytest.raises(ModeMismatchError):
            RunForm([parse_chain(t) for t in chains])


def test_same_bounds_reads_the_common_signature():
    assert same_bounds() is False
    assert same_bounds(parse_chain("L1"), parse_class_expr("[L2 Z*]")) is True
    assert same_bounds(parse_chain("W1"), parse_chain("Z")) is False
    # the first pair that disagrees is named, wherever it stands
    with pytest.raises(ModeMismatchError, match="^W2 and L2 disagree"):
        same_bounds(parse_chain("W1"), parse_chain("W2"), parse_chain("L2"), parse_chain("W3"))
