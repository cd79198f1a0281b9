"""Class expressions, membership, and the finitely-generated variety engine,
checked against a table-level closure oracle."""

import random
from functools import cache
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import blcalc.classes
from blcalc.classes import (
    ClassExpr,
    Item,
    _first_outside,
    canonical,
    class_expr,
    class_includes,
    component_member,
    generated_by,
    member,
    vfc_equals,
    vfc_membership,
    witness_basis,
)
from blcalc.core import (
    CANC_Z,
    STD_UNIT,
    TRIVIAL,
    Chain,
    ModeMismatchError,
    chain,
    fin_luk,
    lex_omega,
)
from blcalc.dsl import parse_chain, parse_class_expr, pretty_chain, pretty_class_expr


from oracles import (
    ENUMERATION_KINDS,
    equals_by_witness_search,
    first_outside_by_scan,
    includes_by_enumeration,
    oracle_membership,
    small_chains,
)
from test_roundtrip import class_exprs


def test_component_member_table():
    assert component_member(fin_luk(2), fin_luk(6))
    assert not component_member(fin_luk(2), fin_luk(3))
    assert component_member(fin_luk(2), lex_omega(4))
    assert not component_member(lex_omega(1), fin_luk(1))
    assert component_member(CANC_Z, lex_omega(3))
    assert component_member(CANC_Z, STD_UNIT)
    assert component_member(lex_omega(3), STD_UNIT)
    assert not component_member(lex_omega(2), CANC_Z)
    assert not component_member(STD_UNIT, lex_omega(2))
    assert component_member(fin_luk(7), STD_UNIT)


# component_member(row, column) over W1..W12, Wo1..Wo12, Z, U, T, in this
# order for rows and columns alike; "1" marks membership.
MEMBER_TABLE = (
    "111111111111111111111111.1.",  # W1
    ".1.1.1.1.1.1.1.1.1.1.1.1.1.",  # W2
    "..1..1..1..1..1..1..1..1.1.",  # W3
    "...1...1...1...1...1...1.1.",  # W4
    "....1....1......1....1...1.",  # W5
    ".....1.....1.....1.....1.1.",  # W6
    "......1...........1......1.",  # W7
    ".......1...........1.....1.",  # W8
    "........1...........1....1.",  # W9
    ".........1...........1...1.",  # W10
    "..........1...........1..1.",  # W11
    "...........1...........1.1.",  # W12
    "............111111111111.1.",  # Wo1
    ".............1.1.1.1.1.1.1.",  # Wo2
    "..............1..1..1..1.1.",  # Wo3
    "...............1...1...1.1.",  # Wo4
    "................1....1...1.",  # Wo5
    ".................1.....1.1.",  # Wo6
    "..................1......1.",  # Wo7
    "...................1.....1.",  # Wo8
    "....................1....1.",  # Wo9
    ".....................1...1.",  # Wo10
    "......................1..1.",  # Wo11
    ".......................1.1.",  # Wo12
    "............11111111111111.",  # Z
    ".........................1.",  # U
    "111111111111111111111111111",  # T
)


def test_component_member_pinned():
    kinds = [fin_luk(k) for k in range(1, 13)] + [lex_omega(k) for k in range(1, 13)]
    kinds += [CANC_Z, STD_UNIT, TRIVIAL]
    got = tuple(
        "".join("1" if component_member(a, b) else "." for b in kinds) for a in kinds
    )
    assert got == MEMBER_TABLE


def test_component_member_matches_embeddability_on_finite_kinds():
    # rule table versus actual embedding enumeration, small parameters
    from blcalc.maps import enumerate_embeddings

    for k in range(1, 7):
        for n in range(1, 7):
            expected = bool(
                enumerate_embeddings(chain((fin_luk(k),)), chain((fin_luk(n),)))
            )
            assert component_member(fin_luk(k), fin_luk(n)) == expected
            expected_lex = bool(
                enumerate_embeddings(chain((fin_luk(k),)), chain((lex_omega(n),)))
            )
            assert component_member(fin_luk(k), lex_omega(n)) == expected_lex


def test_member_examples():
    assert member(parse_chain("W2+W2"), parse_class_expr("[W2*]"))
    assert not member(parse_chain("W2+W2"), parse_class_expr("[W2]"))
    assert member(parse_chain("W1+Z+W1"), parse_class_expr("[(W1 Z)*]"))
    assert member(parse_chain("W1"), parse_class_expr("[W2 W1]"))
    assert member(chain(()), parse_class_expr("[W1]"))
    assert not member(parse_chain("Z+W1"), parse_class_expr("[W1 Z]"))
    assert member(parse_chain("L2"), parse_class_expr("[L2 W1*]"))


def test_member_union_semantics():
    e1 = parse_class_expr("[W1 Z]")
    e2 = parse_class_expr("[Z W1]")
    union = parse_class_expr("[W1 Z]|[Z W1]")
    for text in ["W1", "Z", "W1+Z", "Z+W1", "W1+W1", "T"]:
        c = parse_chain(text)
        assert member(c, union) == (member(c, e1) or member(c, e2))


def test_member_mode_mismatch():
    with pytest.raises(ModeMismatchError):
        member(parse_chain("L1"), parse_class_expr("[W1]"))
    with pytest.raises(ModeMismatchError):
        member(parse_chain("W1"), parse_class_expr("[L1]"))


def test_member_monotone_under_component_refinement():
    # replacing a component by one lower in the closure order preserves
    # membership for starred atoms
    e = parse_class_expr("[Wo4* Z]")
    assert member(parse_chain("Wo4+Wo2+Z"), e)
    assert member(parse_chain("Wo2+W2+Z"), e)
    assert member(parse_chain("W1+Z+Z"), e)


def test_class_includes_mode_mismatch():
    with pytest.raises(ModeMismatchError):
        class_includes(parse_class_expr("[L1]"), parse_class_expr("[W1]"))
    with pytest.raises(ModeMismatchError):
        class_includes(parse_class_expr("[W1]"), parse_class_expr("[L1]"))


def test_bl_mode_member():
    assert member(parse_chain("L1+W1"), parse_class_expr("[L1 W1*]"))
    assert member(parse_chain("L1"), parse_class_expr("[L1 W1*]"))
    assert not member(parse_chain("L1+W2"), parse_class_expr("[L1 W1*]"))
    # the trivial BL-chain lies in every BL class, as in every variety
    assert member(chain((), bottom=True), parse_class_expr("[L1]"))
    assert member(parse_chain("L2+Z"), parse_class_expr("[Lo2 Z*]"))


def test_vfc_membership_examples():
    assert vfc_membership(parse_chain("W1"), generated_by(parse_chain("W2+W2")))
    assert not vfc_membership(
        parse_chain("W2+W2+W2"), generated_by(parse_chain("W2+W2"))
    )
    assert vfc_membership(chain(()), generated_by(parse_chain("W2")))
    assert vfc_membership(parse_chain("W2"), generated_by(parse_chain("Wo2")))
    assert vfc_membership(parse_chain("Z"), generated_by(parse_chain("Wo2")))
    assert not vfc_membership(parse_chain("Wo1"), generated_by(parse_chain("W2")))


def test_generated_by_errors():
    with pytest.raises(ValueError, match="at least one generator"):
        generated_by()
    with pytest.raises(ValueError, match="agree on designated bounds"):
        generated_by(parse_chain("W1"), parse_chain("L1"))


def test_vfc_membership_quotient_shapes():
    # collapsing a lexicographic cut degrades it to its finite first coordinate
    g = parse_chain("W1+Wo2")
    assert vfc_membership(parse_chain("W1+W2"), generated_by(g))
    assert vfc_membership(parse_chain("W1+Z"), generated_by(g))
    assert not vfc_membership(parse_chain("W2+W2"), generated_by(g))


def test_vfc_membership_agrees_with_table_oracle():
    gens = small_chains(6, bottom=False) + small_chains(6, bottom=True)
    inputs = gens
    for g in gens:
        if g.is_trivial:
            continue
        v = generated_by(g)
        for x in inputs:
            if x.bottom != g.bottom:
                continue
            assert vfc_membership(x, v) == oracle_membership(x, g), (
                pretty_chain(x),
                pretty_chain(g),
            )


def test_vfc_membership_two_generators_against_oracle():
    pairs = [("W2", "W1+W1"), ("W3", "W2+W2"), ("W1+W2", "W2+W1")]
    inputs = small_chains(6, bottom=False)
    for a, b in pairs:
        ga, gb = parse_chain(a), parse_chain(b)
        v = generated_by(ga, gb)
        for x in inputs:
            expected = oracle_membership(x, ga) or oracle_membership(x, gb)
            assert vfc_membership(x, v) == expected


def test_vfc_equals_examples():
    assert vfc_equals(
        parse_class_expr("[W1*]"), parse_class_expr("[W1*]")
    ) == ("equal", None)

    verdict, witness = vfc_equals(
        generated_by(parse_chain("W1+W1")), parse_class_expr("[W1*]")
    )
    assert verdict == "v_strictly_smaller"
    assert pretty_chain(witness) == "W1+W1+W1"

    # a bounded run of the kind a star repeats: both blocks are pumped
    verdict, witness = vfc_equals(
        parse_class_expr("[Z* W1 W1]"), parse_class_expr("[Z* W1*]")
    )
    assert verdict == "v_strictly_smaller"
    assert pretty_chain(witness) == "Z+Z+Z+W1+W1+W1"

    verdict, witness = vfc_equals(
        parse_class_expr("[W1 Z]|[Z W1]"), parse_class_expr("[W1 Z]")
    )
    assert verdict == "v_strictly_larger_or_incomparable"
    assert pretty_chain(witness) == "Z+W1"


def test_vfc_equals_group_star_not_equal_to_union():
    verdict, witness = vfc_equals(
        parse_class_expr("[W1 Z]|[Z W1]"), parse_class_expr("[(W1 Z)*]")
    )
    assert verdict == "v_strictly_smaller"
    assert witness is not None and not member(
        witness, parse_class_expr("[W1 Z]|[Z W1]")
    )


@cache
def _catalog_entries(mode, n):
    from blcalc.classify import enumerate_catalog

    return [e for e, _, _ in enumerate_catalog(mode, n) if e is not None]


def _catalog_nodes(bl_mode):
    return _catalog_entries(*(("bl", 1) if bl_mode else ("bh", 2)))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(class_exprs())
def test_vfc_equals_witnesses_separate(e):
    # every non-equal verdict's witness lies in the class it names, not the
    # other, and class_includes agrees with the verdict
    for node in _catalog_nodes(e.bottom):
        for v, e2 in ((e, node), (node, e)):
            verdict, w = vfc_equals(v, e2)
            assert class_includes(v, e2) == (
                verdict != "v_strictly_larger_or_incomparable"
            ), (repr(v), repr(e2))
            if verdict == "equal":
                assert w is None
                continue
            in_v, in_e = vfc_membership(w, v), vfc_membership(w, e2)
            expected = (False, True) if verdict == "v_strictly_smaller" else (True, False)
            assert (in_v, in_e) == expected, (repr(v), repr(e2), pretty_chain(w))


def test_unbounded_class_never_inside_bounded_one():
    v, e = parse_class_expr("[W1*]"), parse_class_expr("[W1 W1 W1]")
    verdict, witness = vfc_equals(v, e)
    assert verdict == "v_strictly_larger_or_incomparable"
    assert pretty_chain(witness) == "W1+W1+W1+W1"
    assert not class_includes(v, e)


def test_starred_trivial_atom_bounds_nothing():
    assert vfc_equals(parse_class_expr("[W1]"), parse_class_expr("[W1 T*]")) == (
        "equal",
        None,
    )


def test_trivial_bl_variety_equals_itself():
    v = generated_by(Chain((), bottom=True))
    assert vfc_equals(v, v) == ("equal", None)
    assert class_includes(v, v)


def test_repeated_or_trivial_group_atoms_keep_the_class():
    # (W1 W1)* and (T W1)* are W1*: the witness basis pumps them alike
    plain = parse_class_expr("[W1* Z*]")
    for text in ["[(W1 W1)* Z*]", "[(T W1)* Z*]"]:
        e = parse_class_expr(text)
        assert vfc_equals(e, plain) == ("equal", None), text
        assert not class_includes(e, parse_class_expr("[W1 Z*]")), text


def test_class_includes_on_interval_languages():
    # spot checks of the inclusion order used for cover validation
    inc = lambda a, b: class_includes(parse_class_expr(a), parse_class_expr(b))
    assert inc("[W1]|[Z]", "[W1 Z]")
    assert inc("[W1 Z]", "[W1* Z]")
    assert not inc("[W1* Z]", "[W1 Z]")
    assert inc("[W1* Z*]", "[(W1 Z)*]")
    assert not inc("[(W1 Z)*]", "[W1* Z*]")
    assert not inc("[Z* W1]", "[Z W1*]")
    assert not inc("[Z W1*]", "[Z* W1]")
    assert inc("[W1*]|[Z*]", "[W1* Z*]")
    assert not inc("[W1* Z*]", "[W1*]|[Z*]")


def test_witness_basis_members():
    for text in ["[W2*]", "[W1 Z]", "[W1* Z*]", "[(W1 Z)*]", "[L1 W1*]"]:
        e = parse_class_expr(text)
        for n in (1, 2, 3):
            for b in witness_basis(e, n):
                assert member(b, e), (text, n, pretty_chain(b))


@pytest.mark.parametrize(
    "a, b",
    [
        ("[T Z*]", "[W1 W2*]|[W2 U U]"),
        ("[Lo2 T U*]", "[UM U Wo2* U]"),
        ("[Z* T*]", "[W1 W1 W2*]|[Z Wo2 W2]"),
    ],
)
def test_class_not_included(a, b):
    assert not class_includes(parse_class_expr(a), parse_class_expr(b))


SMALL_KINDS = st.sampled_from(ENUMERATION_KINDS + (TRIVIAL,))
SMALL_BOUNDED = st.sampled_from([k for k in ENUMERATION_KINDS if k.bounded])


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    class_exprs(SMALL_KINDS, SMALL_BOUNDED), class_exprs(SMALL_KINDS, SMALL_BOUNDED)
)
def test_class_includes_matches_enumeration(a, b):
    # inclusion agrees with the chains of index at most 4, and a witness of
    # vfc_equals lies in exactly one of the two classes
    assume(a.bottom == b.bottom)
    assert class_includes(a, b) == includes_by_enumeration(a, b, 4), (repr(a), repr(b))
    verdict, w = vfc_equals(a, b)
    assert (w is None) == (verdict == "equal")
    if w is not None:
        assert vfc_membership(w, a) != vfc_membership(w, b), (repr(a), repr(b))


# ``class_includes`` decides on normal forms; ``_first_outside``, the least-k
# witness search, is its reference: ``None`` exactly when ``a ⊆ b``.  The
# witness itself is checked against the oracle's own least-k search.


@pytest.mark.parametrize(
    "mode, n, pairs, included", [("bh", 3, 3_364, 694), ("bl", 1, 9_801, 2_124)]
)
def test_class_includes_matches_the_witness_search_on_catalogs(mode, n, pairs, included):
    entries = _catalog_entries(mode, n)
    answers = []
    for a in entries:
        for b in entries:
            answers.append(class_includes(a, b))
            wit = _first_outside(a, b)
            assert answers[-1] == (wit is None), (repr(a), repr(b))
            assert wit == first_outside_by_scan(a, b), (repr(a), repr(b))
    assert (len(answers), sum(answers)) == (pairs, included)


def _random_class(rng, bottom):
    """One to three sum classes over ``ENUMERATION_KINDS`` and ``T``, with
    starred groups, built by ``class_expr`` directly; under bounds the head
    may be ``T``, which then stands alone."""
    kinds = ENUMERATION_KINDS + (TRIVIAL,)
    sums = []
    for _ in range(rng.randint(1, 3)):
        items = []
        if bottom:
            head = rng.choice([k for k in kinds if k.bounded])
            items.append(Item((head,)))
            if head == TRIVIAL:
                sums.append(tuple(items))
                continue
        for _ in range(rng.randint(0 if bottom else 1, 3)):
            if rng.random() < 0.5:
                items.append(Item(tuple(rng.sample(kinds, rng.randint(1, 3))), star=True))
            else:
                items.append(Item((rng.choice(kinds),)))
        sums.append(tuple(items))
    return class_expr(sums, bottom)


def test_class_includes_matches_the_witness_search_on_random_pairs():
    # b is the union of a with another class in about a quarter of the pairs
    rng = random.Random(7)
    included = 0
    for _ in range(3_000):
        bottom = rng.random() < 0.5
        a, b = _random_class(rng, bottom), _random_class(rng, bottom)
        if rng.random() < 0.25:
            b = class_expr(a.sums + b.sums, bottom)
        answer = class_includes(a, b)
        assert answer == (_first_outside(a, b) is None), (repr(a), repr(b))
        included += answer
    assert included == 1_645


def test_class_includes_builds_no_chain(monkeypatch):
    from blcalc.classify import interval

    entries = _catalog_entries("bh", 3)

    def refuse(*args):
        raise AssertionError("inclusion built or scanned a chain")

    for name in ("witness_basis", "vfc_membership", "member"):
        monkeypatch.setattr(blcalc.classes, name, refuse)
    assert sum(class_includes(a, b) for a in entries for b in entries) == 694
    for kinds, covers in (
        ((fin_luk(1),), 1), ((lex_omega(2),), 2), ((fin_luk(2), CANC_Z), 22)
    ):
        assert len(interval(kinds).covers) == covers, kinds


# ---------------------------------------------------------------------------
# The normal form: one expression per class
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, form",
    [
        ("[W1 W2*]", "[W2*]"),
        ("[W1* W1*]", "[W1*]"),
        ("[T W1]", "[W1]"),
        ("[W2]|[W1]|[W2]", "[W2]"),
        ("[(W1 W2)*]", "[W2*]"),
        ("[L1 W1 W1*]", "[L1 W1*]"),  # the head stays
    ],
)
def test_canonical_respells_equal_classes(text, form):
    e, f = parse_class_expr(text), parse_class_expr(form)
    assert equals_by_witness_search(e, f) == ("equal", None)
    assert pretty_class_expr(canonical(e)) == form
    assert canonical(f) == f


def test_vfc_equals_reads_equality_off_forms(monkeypatch):
    # equal classes are decided by their forms alone: no witness search runs
    def refuse(*args):
        raise AssertionError("vfc_equals searched for a witness")

    monkeypatch.setattr(blcalc.classes, "_first_outside", refuse)
    entries = _catalog_entries("bh", 3) + _catalog_entries("bl", 3)
    assert len(entries) == 717
    for e in entries:
        assert vfc_equals(e, canonical(e)) == ("equal", None), repr(e)


def test_canonical_equality_is_class_equality_on_the_catalogs():
    from blcalc.classify import enumerate_catalog

    for mode, n in (("bh", 3), ("bl", 1), ("bl", 2)):
        entries = [e for e, _, _ in enumerate_catalog(mode, n) if e is not None]
        forms = [canonical(e) for e in entries]
        for e, form in zip(entries, forms):
            assert canonical(form) == form, repr(e)
        for (a, fa), (b, fb) in combinations(zip(entries, forms), 2):
            assert (fa == fb) == (equals_by_witness_search(a, b)[0] == "equal"), (
                repr(a), repr(b),
            )


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(class_exprs())
def test_canonical_is_idempotent_and_keeps_the_class(e):
    form = canonical(e)
    assert canonical(form) == form, repr(e)
    assert equals_by_witness_search(form, e) == ("equal", None), (repr(e), repr(form))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    class_exprs(SMALL_KINDS, SMALL_BOUNDED), class_exprs(SMALL_KINDS, SMALL_BOUNDED)
)
def test_canonical_equality_is_class_equality(a, b):
    # on the pair, and on two spellings of their union, which are equal
    assume(a.bottom == b.bottom)
    assert (canonical(a) == canonical(b)) == (
        equals_by_witness_search(a, b)[0] == "equal"
    ), (repr(a), repr(b))
    union = ClassExpr(a.sums + b.sums, a.bottom)
    respelt = ClassExpr(b.sums + a.sums + a.sums, a.bottom)
    assert canonical(union) == canonical(respelt), (repr(a), repr(b))


def test_class_expr_constructor_errors():
    w1 = fin_luk(1)
    plain = Item((w1,))
    cases = (
        ((), False, "at least one sum class"),
        (((),), False, "at least one item"),
        (((Item((w1,), star=True),),), True, "cannot be starred"),
        (((Item((w1, CANC_Z), star=True), plain),), True, "or grouped"),
        (((Item((w1, CANC_Z)), plain),), True, "or grouped"),
        # as for a chain, the head of a BL class needs a least element
        (((Item((CANC_Z,)), plain),), True, "needs a bounded kind"),
        # the DSL spells neither: an item without a kind, in either
        # signature, and an unstarred group, which would print as a star
        (((plain, Item(())),), False, "an item needs at least one kind"),
        (((Item(()), plain),), True, "an item needs at least one kind"),
        (((Item((w1, CANC_Z)),),), False, "a group of kinds must be starred"),
        (((plain, Item((w1, CANC_Z))),), True, "a group of kinds must be starred"),
    )
    for sums, bottom, message in cases:
        with pytest.raises(ValueError, match=message):
            class_expr(sums, bottom)
    assert class_expr([(plain, plain)], bottom=True).bottom


def test_bounded_trivial_head_stands_alone():
    # a T head holds the trivial chain only, so no item may follow it; the
    # witness basis would read the items after it as a chain of the class
    t = Item((TRIVIAL,))
    for rest in (Item((lex_omega(1),), star=True), Item((fin_luk(1),))):
        with pytest.raises(ValueError, match="T head cannot have further items"):
            class_expr([(t, rest)], bottom=True)
        assert not class_expr([(t, rest)]).bottom
    trivial = generated_by(Chain((), bottom=True))
    assert trivial == ClassExpr(((t,),), bottom=True)
    assert pretty_class_expr(trivial) == "[T]"


def test_parse_round_trip():
    from blcalc.dsl import pretty_class_expr

    for text in [
        "[W2* Z]",
        "[L1 W1*]|[L1]",
        "[(W1 Z)*]",
        "[Wo2]",
        "[UM U*]",
        "[W1]|[Z*]",
    ]:
        e = parse_class_expr(text)
        assert parse_class_expr(pretty_class_expr(e)) == e


def test_parse_errors():
    from blcalc.dsl import DSLError

    with pytest.raises(DSLError):
        parse_class_expr("[Z L2]")
    with pytest.raises(DSLError):
        parse_class_expr("[W0]")
    with pytest.raises(DSLError):
        parse_class_expr("[W1")
    with pytest.raises(DSLError):
        parse_class_expr("[L1*]")
    with pytest.raises(DSLError):
        parse_class_expr("[(L1 W1)*]")
    with pytest.raises(DSLError):
        parse_class_expr("[W1] | [L1]")


def dsl_error(parse, text) -> str:
    from blcalc.dsl import DSLError

    with pytest.raises(DSLError) as info:
        parse(text)
    return str(info.value)


def test_parse_error_messages_per_spelling():
    # one message per misspelt or misplaced component; inside brackets the
    # component starts one character later
    errors = {
        "UM2": ("unexpected character '2'", 2),
        "Z1": ("unexpected character '1'", 1),
        "L": ("unexpected character 'L'", 0),
        "Lo": ("unexpected character 'L'", 0),
        "Q": ("unexpected character 'Q'", 0),
        "W0": ("component parameter must be >= 1", 0),
        "Wo0": ("component parameter must be >= 1", 0),
    }
    for text, (message, pos) in errors.items():
        assert dsl_error(parse_chain, text) == f"{message} (at position {pos})"
        assert dsl_error(parse_class_expr, f"[{text}]") == f"{message} (at position {pos + 1})"
    assert dsl_error(parse_chain, "L1+L2") == (
        "designated-bounds component after the first (at position 3)"
    )
    assert dsl_error(parse_class_expr, "[L1+L2]") == (
        "expected a component, got '+' (at position 3)"
    )
    assert dsl_error(parse_class_expr, "[W1 (Z|)*]") == (
        "expected a component, got '|' (at position 6)"
    )
    assert dsl_error(parse_chain, "W1+*") == "expected a component, got '*' (at position 3)"


def test_parse_error_positions_skip_whitespace():
    assert dsl_error(parse_chain, "W1 W2") == "expected '+', got 'W2' (at position 3)"
    assert dsl_error(parse_chain, "  W1+ ") == "dangling '+' (at position 4)"
    assert dsl_error(parse_chain, "W1 $") == "unexpected character '$' (at position 3)"
    assert dsl_error(parse_class_expr, "[W1  Z] x") == "unexpected character 'x' (at position 8)"
    assert dsl_error(parse_class_expr, "[W1]  [Z]") == "trailing input '[' (at position 6)"


def test_parse_chain_list_positions_count_from_the_start():
    from blcalc.dsl import parse_chain_list

    assert parse_chain_list("L2, W1+Z") == [parse_chain("L2"), parse_chain("W1+Z")]
    assert dsl_error(parse_chain_list, "W1,W0") == (
        "component parameter must be >= 1 (at position 3)"
    )
    assert dsl_error(parse_chain_list, "W1, W2+") == "dangling '+' (at position 6)"
    assert dsl_error(parse_chain_list, "W1,,W2") == "empty chain (at position 3)"
    assert dsl_error(parse_chain_list, "W1, W2 $") == "unexpected character '$' (at position 7)"


def test_class_expr_error_positions_point_at_the_offender():
    # the misplaced atom, the '[' of an empty sum or group, and the first sum
    # class that the ones before it do not admit
    assert dsl_error(parse_class_expr, "[W1 L1]") == (
        "designated-bounds atom in non-initial position (at position 4)"
    )
    assert dsl_error(parse_class_expr, "[W1 Z* UM]") == (
        "designated-bounds atom in non-initial position (at position 7)"
    )
    assert dsl_error(parse_class_expr, "[]") == "empty sum class (at position 0)"
    assert dsl_error(parse_class_expr, "[W1] | []") == "empty sum class (at position 7)"
    assert dsl_error(parse_class_expr, "[W1 ()*]") == "empty group (at position 4)"
    assert dsl_error(parse_class_expr, "[L1*]") == (
        "designated-bounds atom cannot be starred (at position 1)"
    )
    assert dsl_error(parse_class_expr, "[(L1 W1)*]") == (
        "designated-bounds atom inside a group (at position 2)"
    )
    assert dsl_error(parse_class_expr, "[W1] | [L1]") == (
        "all sum classes must agree on designated bounds (at position 7)"
    )
    assert dsl_error(parse_class_expr, "[L1] | [L2 U*] | [W1] | [Z]") == (
        "all sum classes must agree on designated bounds (at position 17)"
    )
    # input that ends early: an open group, a missing sum class or star
    assert dsl_error(parse_class_expr, "[(W1") == "unclosed '(' (at position 4)"
    assert dsl_error(parse_class_expr, "[W1]|") == (
        "unexpected end of input, expected '[' (at position 5)"
    )
    assert dsl_error(parse_class_expr, "[(W1)") == (
        "unexpected end of input, expected '*' (at position 5)"
    )


def test_parse_element_error_positions_count_from_the_value_start():
    from blcalc.dsl import parse_element

    w2 = parse_chain("W2")
    assert parse_element(w2, "  0:1 ") == parse_element(w2, "0:1")
    assert parse_element(w2, " top ").is_top
    errors = {
        "  0:x": ("bad element value 'x'", 4),
        "0: 1/0": ("bad element value '1/0'", 3),
        " x:1": ("bad component index 'x'", 1),
        "  2:0": ("component index 2 out of range for W2", 2),
        "0:9": ("value 9 out of range for W2", 2),
        "0: 1,0": ("value (1, 0) out of range for W2", 3),
        "  1": ("element must be 'top' or '<component>:<value>'", 2),
    }
    for text, (message, pos) in errors.items():
        assert dsl_error(lambda t: parse_element(w2, t), text) == (
            f"{message} (at position {pos})"
        ), text
