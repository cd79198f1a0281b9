"""Class expressions, membership, and the finitely-generated variety engine,
checked against a table-level closure oracle."""

import pytest

from blcalc.classes import (
    ModeMismatchError,
    class_includes,
    component_member,
    generated_by,
    member,
    vfc_equals,
    vfc_membership,
    witness_basis,
)
from blcalc.core import CANC_Z, STD_UNIT, TRIVIAL, chain, fin_luk, lex_omega
from blcalc.dsl import parse_chain, parse_class_expr, pretty_chain


from oracles import oracle_membership, small_chains


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


def test_bl_mode_member():
    assert member(parse_chain("L1+W1"), parse_class_expr("[L1 W1*]"))
    assert member(parse_chain("L1"), parse_class_expr("[L1 W1*]"))
    assert not member(parse_chain("L1+W2"), parse_class_expr("[L1 W1*]"))
    assert not member(chain((), bottom=True), parse_class_expr("[L1]"))
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


def test_vfc_equals_witnesses_separate():
    # every non-equal verdict's witness lies in the class it names, not the other
    from blcalc.classify import enumerate_catalog

    for mode, n in (("bh", 2), ("bl", 1)):
        entries = [e for e, _, _ in enumerate_catalog(mode, n) if e is not None]
        for e1 in entries:
            v = e1
            for e2 in entries:
                verdict, w = vfc_equals(v, e2)
                if verdict == "equal":
                    assert w is None
                    continue
                in_v, in_e = vfc_membership(w, v), member(w, e2)
                expected = (False, True) if verdict == "v_strictly_smaller" else (True, False)
                assert (in_v, in_e) == expected, (repr(e1), repr(e2), pretty_chain(w))


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
        for b in witness_basis(e):
            assert member(b, e), (text, pretty_chain(b))


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
