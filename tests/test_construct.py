"""The paper's constructions on lexicographic chains: the radical filter
of Wo k and the rotation of the cancellative chain into Wo k."""

import pytest
from oracles import RotationChain, apply_map, order_le, rot_le, rot_op, rotation_embed

from blcalc.core import (
    CANC_Z,
    TRIVIAL,
    _window_values,
    chain_op,
    component_op,
    element,
    lex_omega,
)
from blcalc.dsl import parse_chain
from blcalc.maps import (
    Filter,
    enumerate_embeddings,
    filter_contains,
    filters,
    quotient_by_filter,
)


def test_radical():
    # only lexicographic components carry a radical filter
    for name in ("W3", "U", "Z"):
        c = parse_chain(name)
        assert not any(f.radical for f in filters(c))
        with pytest.raises(ValueError):
            quotient_by_filter(c, Filter(0, radical=True))
    wo2 = parse_chain("Wo2")
    rad = Filter(0, radical=True)
    assert rad in filters(wo2)
    assert filter_contains(wo2, rad, element(wo2, 0, (2, -5)))
    assert not filter_contains(wo2, rad, element(wo2, 0, (1, 7)))
    # the radical is a copy of Z: b -> (2, b) lands in it
    into_radical = enumerate_embeddings(parse_chain("Z"), wo2)[0]
    z = parse_chain("Z")
    assert apply_map(into_radical, element(z, 0, -5)) == element(wo2, 0, (2, -5))
    # and collapsing it leaves the finite chain on the first coordinate
    assert quotient_by_filter(wo2, rad)[0] == parse_chain("W2")


def test_radical_is_filter_on_windows():
    wo2 = parse_chain("Wo2")
    rad = Filter(0, radical=True)
    members = [element(wo2, 0, (2, b)) for b in range(-4, 0)]
    others = [element(wo2, 0, v) for v in [(0, 0), (1, 2), (2, -1)]]
    for x in members:
        for y in members:
            assert filter_contains(wo2, rad, chain_op(wo2, "mul", x, y))
        for z in others:
            if order_le(wo2, x, z):
                assert filter_contains(wo2, rad, z)


def test_rotation_embedding_into_lex():
    r = RotationChain(CANC_Z)
    window = r.window(10)
    for k in (1, 2, 3):
        assert rotation_embed((1, -2), k) == (k, -2)
        assert rotation_embed((0, -2), k) == (0, 2)
        target = lex_omega(k)
        for p in window:
            for q in window:
                fp, fq = rotation_embed(p, k), rotation_embed(q, k)
                assert rot_le(r, p, q) == (fp <= fq)
                for op in ("mul", "imp"):
                    image = rotation_embed(rot_op(r, op, p, q), k)
                    assert image == component_op(target, op, fp, fq)
    triv = RotationChain(TRIVIAL)
    assert rotation_embed(triv.bottom, 3) == (0, 0)
    assert rotation_embed(triv.top, 3) == (3, 0)


def test_rotation_iso_chang_chain():
    # the rotated cancellative chain is the k=1 lexicographic chain
    window = RotationChain(CANC_Z).window(10)
    images = {rotation_embed(p, 1) for p in window}
    assert images == set(_window_values(lex_omega(1), 10)) | {(1, 0)}
    assert len(images) == len(window)
