"""Self-tests of the disconnected-rotation reference table in ``oracles``."""

import pytest

from blcalc.core import CANC_Z, TRIVIAL, fin_luk
from oracles import RotationChain, rot_le, rot_op


def test_rotation_tables():
    r = RotationChain(CANC_Z)
    assert rot_op(r, "mul", (1, -1), (1, -1)) == (1, -2)
    assert rot_op(r, "mul", (0, -2), (1, -1)) == (0, -1)
    assert rot_op(r, "mul", (0, -1), (0, -5)) == r.bottom
    assert rot_op(r, "imp", (1, -1), (0, -1)) == (0, -2)
    assert rot_op(r, "imp", (0, -3), (1, 0)) == r.top
    assert rot_op(r, "imp", (0, -2), (0, -1)) == (1, -1)


def test_rotation_of_trivial_is_two_element_chain():
    r = RotationChain(TRIVIAL)
    assert r.window() == [(0, 0), (1, 0)]
    assert rot_op(r, "mul", (0, 0), (0, 0)) == (0, 0)
    assert rot_op(r, "imp", (0, 0), (1, 0)) == (1, 0)


def test_rotation_rejects_non_cancellative():
    with pytest.raises(ValueError):
        RotationChain(fin_luk(2))


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
    _rotation_laws(RotationChain(CANC_Z), 4)
    _rotation_laws(RotationChain(TRIVIAL), 1)


def test_rotation_base_embeds_into_positive_half():
    # x -> (1, x) preserves the hoop operations
    r = RotationChain(CANC_Z)
    for x in range(-4, 1):
        for y in range(-4, 1):
            assert rot_op(r, "mul", (1, x), (1, y)) == (1, x + y)
            assert rot_op(r, "imp", (1, x), (1, y)) == (1, min(y - x, 0))
