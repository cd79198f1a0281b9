"""Constructors: interval truncation, ordinal sums, rotation, radicals."""

import pytest

from blcalc.construct import (
    RotationChain,
    disconnected_rotation,
    gamma,
    ordinal_sum,
    radical,
    rot_le,
    rot_op,
    rotation_embed_into,
)
from blcalc.core import (
    CANC_Z,
    STD_UNIT,
    TRIVIAL,
    chain,
    component_op,
    fin_luk,
    lex_omega,
)
from blcalc.dsl import parse_chain


def test_gamma():
    assert gamma("Int", 1) == fin_luk(1)
    assert gamma("Int", 5) == fin_luk(5)
    assert gamma("IntLexInt", (1, 0)) == lex_omega(1)
    with pytest.raises(ValueError):
        gamma("Int", 0)
    with pytest.raises(ValueError):
        gamma("IntLexInt", (2, 1))


def test_gamma_matches_component_op():
    k = gamma("Int", 2)
    assert component_op(k, "mul", 1, 1) == max(1 + 1 - 2, 0)
    assert component_op(k, "imp", 2, 1) == min(2 - 2 + 1, 2)


def test_ordinal_sum_concatenates():
    s = ordinal_sum([parse_chain("W1"), parse_chain("W1")])
    assert s.components == (fin_luk(1), fin_luk(1))
    # idempotent middle element: a*a = a for the first-component element
    from blcalc.core import chain_op, element

    a = element(s, 0, 0)
    assert chain_op(s, "mul", a, a) == a


def test_ordinal_sum_absorbs_trivial_and_associates():
    x = parse_chain("W2+Z")
    assert ordinal_sum([x, chain(())]) == x
    a, b, c = parse_chain("W1"), parse_chain("W2"), parse_chain("Z")
    assert ordinal_sum([ordinal_sum([a, b]), c]) == ordinal_sum([a, ordinal_sum([b, c])])


def test_ordinal_sum_rejects_inner_bounds():
    with pytest.raises(ValueError):
        ordinal_sum([parse_chain("W1"), parse_chain("L1")])


def test_rotation_tables():
    r = disconnected_rotation(parse_chain("Z"))
    assert rot_op(r, "mul", (1, -1), (1, -1)) == (1, -2)
    assert rot_op(r, "mul", (0, -2), (1, -1)) == (0, -1)
    assert rot_op(r, "mul", (0, -1), (0, -5)) == r.bottom
    assert rot_op(r, "imp", (1, -1), (0, -1)) == (0, -2)
    assert rot_op(r, "imp", (0, -3), (1, 0)) == r.top
    assert rot_op(r, "imp", (0, -2), (0, -1)) == (1, -1)


def test_rotation_of_trivial_is_two_element_chain():
    r = disconnected_rotation(chain(()))
    assert r.window() == [(0, 0), (1, 0)]
    assert rot_op(r, "mul", (0, 0), (0, 0)) == (0, 0)
    assert rot_op(r, "imp", (0, 0), (1, 0)) == (1, 0)


def test_rotation_rejects_non_cancellative():
    with pytest.raises(ValueError):
        RotationChain(fin_luk(2))
    with pytest.raises(ValueError):
        disconnected_rotation(parse_chain("W1+W1"))


def _rotation_laws(r, cap):
    window = r.window(cap)
    for x in window:
        for y in window:
            # integrality and commutativity
            assert rot_le(r, rot_op(r, "mul", x, y), x)
            assert rot_op(r, "mul", x, y) == rot_op(r, "mul", y, x)
            # divisibility, prelinearity, the involutive identity
            div = rot_op(r, "mul", x, rot_op(r, "imp", x, y))
            assert div == rot_op(r, "meet", x, y)
            pre = rot_op(r, "join", rot_op(r, "imp", x, y), rot_op(r, "imp", y, x))
            assert pre == r.top
            mv = rot_op(r, "imp", rot_op(r, "imp", x, y), y)
            assert mv == rot_op(r, "join", x, y)
            for z in window:
                lhs = rot_le(r, rot_op(r, "mul", x, y), z)
                rhs = rot_le(r, x, rot_op(r, "imp", y, z))
                assert lhs == rhs


def test_rotation_is_mv_chain_on_windows():
    _rotation_laws(disconnected_rotation(parse_chain("Z")), 4)
    _rotation_laws(disconnected_rotation(chain(())), 1)


def test_rotation_base_embeds_into_positive_half():
    # x -> (1, x) preserves the hoop operations
    r = disconnected_rotation(parse_chain("Z"))
    for x in range(-4, 1):
        for y in range(-4, 1):
            assert rot_op(r, "mul", (1, x), (1, y)) == (1, x + y)
            assert rot_op(r, "imp", (1, x), (1, y)) == (1, min(y - x, 0))


def test_radical():
    assert radical(fin_luk(3)).radical_kind == TRIVIAL
    assert radical(STD_UNIT).radical_kind == TRIVIAL
    view = radical(lex_omega(2))
    assert view.radical_kind == CANC_Z
    assert view.contains((2, -5)) and not view.contains((1, 7))
    assert view.to_radical((2, -5)) == -5
    with pytest.raises(ValueError):
        radical(CANC_Z)


def test_radical_powers_stay_above_bottom():
    # (k, b)^n = (k, n*b) never reaches the bottom (0, 0)
    k = lex_omega(2)
    v = (2, -3)
    power = v
    for _ in range(20):
        power = component_op(k, "mul", power, v)
        assert power[0] == 2
    # while any (a, b) with a < k powers down to the bottom
    power = (1, 5)
    for _ in range(20):
        power = component_op(k, "mul", power, (1, 5))
    assert power == (0, 0)


def test_radical_is_filter_on_windows():
    view = radical(lex_omega(2))
    k = lex_omega(2)
    rad = [(2, b) for b in range(-4, 1)]
    for x in rad:
        for y in rad:
            assert view.contains(component_op(k, "mul", x, y))
        for z in [(0, 0), (1, 2), (2, -1)]:
            if x <= z:
                assert view.contains(z)


def test_rotation_embedding_into_lex():
    r = disconnected_rotation(parse_chain("Z"))
    for k in (1, 2, 3):
        emb = rotation_embed_into(r, lex_omega(k), verify_cap=10)
        assert emb((1, -2)) == (k, -2)
        assert emb((0, -2)) == (0, 2)
    triv = disconnected_rotation(chain(()))
    emb = rotation_embed_into(triv, lex_omega(3))
    assert emb(triv.bottom) == (0, 0) and emb(triv.top) == (3, 0)


def test_rotation_iso_chang_chain():
    # the rotated cancellative chain is the k=1 lexicographic chain
    r = disconnected_rotation(parse_chain("Z"))
    emb = rotation_embed_into(r, lex_omega(1), verify_cap=10)
    from blcalc.core import _window_values

    window = r.window(10)
    images = {emb(p) for p in window}
    target = set(_window_values(lex_omega(1), 10)) | {(1, 0)}
    assert images == target
    assert len(images) == len(window)
