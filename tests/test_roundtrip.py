"""Printing then parsing gives back the same object: ``parse(pretty(x)) == x``
for chains, class expressions, the window elements of a chain, and random
formulas.

The bounded trivial chain is left out: it prints as ``T``, which parses as
the trivial hoop chain, and it has no spelling of its own.  For the same
reason a designated-bounds atom is never ``T``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from blcalc.classes import Atom, Item, SumClass, class_expr
from blcalc.core import CANC_Z, STD_UNIT, TRIVIAL, chain, enumerate_elements, fin_luk, lex_omega
from blcalc.dsl import (
    parse_chain,
    parse_class_expr,
    parse_element,
    pretty_chain,
    pretty_class_expr,
    pretty_element,
)
from blcalc.formulas import parse_formula, pretty_formula, random_formula

ROUND_TRIP = settings(derandomize=True, database=None, deadline=None, max_examples=300)

params = st.integers(min_value=1, max_value=12)
bounded_kinds = st.one_of(params.map(fin_luk), params.map(lex_omega), st.just(STD_UNIT))
kinds = st.one_of(bounded_kinds, st.just(CANC_Z), st.just(TRIVIAL))


@st.composite
def chains(draw):
    """A chain of up to four components, trivial ones absorbed; with
    designated bounds it starts with a bounded kind."""
    bottom = draw(st.booleans())
    head = draw(bounded_kinds if bottom else kinds)
    return chain([head] + draw(st.lists(kinds, max_size=3)), bottom=bottom)


def items():
    """A plain or starred atom, or a starred group of atoms."""
    atoms = kinds.map(Atom)
    return st.one_of(
        st.builds(Item, st.tuples(atoms), st.booleans()),
        st.builds(Item, st.lists(atoms, min_size=2, max_size=3).map(tuple), st.just(True)),
    )


@st.composite
def class_exprs(draw):
    """A union of one to three sum classes, each led by a designated-bounds
    atom in BL mode."""
    bl_mode = draw(st.booleans())
    sums = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        head = [Item((Atom(draw(bounded_kinds), bottom=True),))] if bl_mode else []
        rest = draw(st.lists(items(), min_size=0 if bl_mode else 1, max_size=3))
        sums.append(SumClass(tuple(head + rest)))
    return class_expr(sums)


@ROUND_TRIP
@given(chains())
def test_chain_round_trip(c):
    assert parse_chain(pretty_chain(c)) == c


@ROUND_TRIP
@given(class_exprs())
def test_class_expr_round_trip(e):
    assert parse_class_expr(pretty_class_expr(e)) == e


@ROUND_TRIP
@given(chains(), st.integers(min_value=1, max_value=3))
def test_window_element_round_trip(c, caps):
    for x in enumerate_elements(c, caps):
        assert parse_element(c, pretty_element(x)) == x


@ROUND_TRIP
@given(
    st.randoms(use_true_random=False),
    st.integers(min_value=0, max_value=6),
    st.booleans(),
)
def test_random_formula_round_trip(rng, depth, allow_zero):
    f = random_formula(rng, ["p", "q", "r"], depth, allow_zero)
    assert parse_formula(pretty_formula(f)) == f
