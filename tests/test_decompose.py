"""Ordinal-sum decomposition of finite tables and the flatten round trip."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blcalc.core import RawChain, chain, fin_luk, ordinal_sum_of, table_rows
from blcalc.decompose import (
    decompose,
    finite_elements,
    flatten,
)
from blcalc.dsl import parse_chain, pretty_chain
from oracles import (
    classify_component,
    decompose_by_scans,
    differential_tables,
    flatten_by_chain_op,
    in_one_component,
    order_le,
    small_chains,
    table_rows_by_form,
)


def godel3() -> RawChain:
    """The three-element chain with idempotent middle element."""
    return flatten(parse_chain("W1+W1"))


def test_same_component():
    t = godel3()
    assert not in_one_component(t, 0, 1)
    assert in_one_component(t, 0, 0)
    luk = flatten(parse_chain("W3"))
    for a in range(3):
        for b in range(3):
            assert in_one_component(luk, a, b)


def test_decompose_examples():
    d = decompose(godel3())
    assert pretty_chain(d.chain) == "W1+W1"
    assert d.blocks == ((0,), (1,))

    d = decompose(flatten(parse_chain("W3")))
    assert d.chain.components == (fin_luk(3),)

    d = decompose(RawChain(size=1, mul=((0,),), imp=((0,),)))
    assert d.chain.is_trivial and d.blocks == ()


def test_decompose_requires_axioms():
    t = flatten(parse_chain("W2"))
    imp = [list(r) for r in t.imp]
    imp[0][1] = 0
    bad = RawChain(size=3, mul=t.mul, imp=tuple(tuple(r) for r in imp))
    with pytest.raises(ValueError):
        decompose(bad)


def test_flatten_sizes():
    assert flatten(parse_chain("W2")).size == 3
    assert flatten(chain(())).size == 1
    # non-top elements per component plus the shared top
    assert flatten(parse_chain("L1+W1+W2")).size == 1 + 1 + 2 + 1
    assert flatten(parse_chain("L2+W1+W2")).size == 2 + 1 + 2 + 1
    with pytest.raises(ValueError):
        flatten(parse_chain("W1+Z"))


def test_classify_component_rejects_bad_blocks():
    t = flatten(parse_chain("W3"))
    for block in ([3], [0, 3], [99], [-1], [0, 0], [1, 2, 1]):
        with pytest.raises(ValueError):
            classify_component(t, block)


def test_flatten_matches_chain_op_oracle():
    chains = small_chains(7, False) + small_chains(7, True)
    chains += [parse_chain(text) for text in (
        "L6+W1+W5+W2+W1+W3+W6+W2+W4", "W1+W2+W3+W4+W5+W6+W7+W3", "W40", "L1" + "+W1" * 31,
    )]
    for c in chains:
        assert flatten(c) == flatten_by_chain_op(c), pretty_chain(c)
    assert max(c.size for c in chains) >= 41


def test_table_rows_match_run_form():
    # table_rows writes each row from slices of the index tuple; entry by
    # entry they are RunForm's rules applied to every pair of a run, and
    # the chain_op tables, on every sum of W1..W5 up to 12 elements in
    # both signatures and on W300
    chains = [c for bottom in (False, True) for c in small_chains(12, bottom)
              if all(kind.k <= 5 for kind in c.components)]
    chains.append(parse_chain("W300"))
    for c in chains:
        assert table_rows(c) == table_rows_by_form(c), pretty_chain(c)
        assert flatten(c) == flatten_by_chain_op(c), pretty_chain(c)
    assert len(chains) == 3713


def test_classify_component():
    t = flatten(parse_chain("W3"))
    assert classify_component(t, [0, 1, 2]) == fin_luk(3)
    t2 = flatten(parse_chain("W1"))
    assert classify_component(t2, [0]) == fin_luk(1)
    # a Goedel block is not a single Wajsberg component
    with pytest.raises(ValueError):
        classify_component(godel3(), [0, 1])


def test_classify_component_messages():
    t = flatten(parse_chain("W3"))
    mul = [list(r) for r in t.mul]
    mul[1][2] = 1
    with pytest.raises(ValueError) as info:
        classify_component(RawChain(4, mul, t.imp), [0, 1, 2])
    assert str(info.value) == "block [0, 1, 2] is not a Wajsberg component: mul at (1,2)"
    imp = [list(r) for r in t.imp]
    imp[2][1] = 1
    with pytest.raises(ValueError) as info:
        classify_component(RawChain(4, t.mul, imp), [2, 1, 0])
    assert str(info.value) == "block [0, 1, 2] is not a Wajsberg component: imp at (2,1)"
    # a Goedel block fails on its implication
    with pytest.raises(ValueError) as info:
        classify_component(godel3(), [0, 1])
    assert str(info.value) == "block [0, 1] is not a Wajsberg component: imp at (1,0)"


def test_blocks_are_convex_intervals():
    c = parse_chain("W2+W1+W3")
    d = decompose(flatten(c))
    for block in d.blocks:
        assert list(block) == list(range(block[0], block[-1] + 1))


def test_same_component_is_equivalence_on_valid_tables():
    t = flatten(parse_chain("W2+W3+W1"))
    below_top = range(t.size - 1)
    for a in below_top:
        assert in_one_component(t, a, a)
        for b in below_top:
            assert in_one_component(t, a, b) == in_one_component(t, b, a)
            for c in below_top:
                if in_one_component(t, a, b) and in_one_component(t, b, c):
                    assert in_one_component(t, a, c)


def test_round_trip_randomized():
    rng = random.Random(1729)
    for _ in range(200):
        n_comp = rng.randint(1, 4)
        kinds = tuple(fin_luk(rng.randint(1, 5)) for _ in range(n_comp))
        bottom = rng.random() < 0.5
        c = chain(kinds, bottom=bottom)
        d = decompose(flatten(c))
        assert d.chain == c
        # the component predicate induces exactly this partition
        pos = 0
        for kind, block in zip(c.components, d.blocks):
            assert len(block) == kind.k
            assert block[0] == pos
            pos += kind.k


def test_decomposition_json():
    d = decompose(godel3())
    data = d.to_json()
    assert data["order"] == "ascending"
    assert data["components"] == [
        {"kind": "W", "k": 1, "elements": [0]},
        {"kind": "W", "k": 1, "elements": [1]},
    ]


def test_finite_elements_ordering():
    c = parse_chain("W2+W1")
    elems = finite_elements(c)
    assert len(elems) == c.size
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            assert order_le(c, x, y) == (i <= j)


def _decomposition_or_error(fn, t):
    try:
        return fn(t)
    except ValueError as exc:
        return str(exc)


def test_decompose_matches_scan_oracle():
    checked = valid = 0
    for t in differential_tables():
        got = _decomposition_or_error(decompose, t)
        assert got == _decomposition_or_error(decompose_by_scans, t), t
        checked += 1
        valid += not isinstance(got, str)
    assert (checked, valid) == (4674, 36)


@st.composite
def luk_sums_and_mutants(draw):
    """The table of a sum of W1 .. W6 of at most 30 elements, flattened,
    as it stands or with one entry changed: a symmetric mul pair, an imp
    entry x -> x - 1 that the cut rule reads, or any other imp entry."""
    sizes = draw(st.lists(st.integers(min_value=1, max_value=6), max_size=10)
                 .filter(lambda ks: sum(ks) < 30))
    t = flatten(chain((fin_luk(k) for k in sizes), bottom=draw(st.booleans())))
    n, mul, imp = t.size, [list(r) for r in t.mul], [list(r) for r in t.imp]
    index = st.integers(min_value=0, max_value=n - 1)
    change = draw(st.sampled_from(("none", "mul", "imp_cut", "imp")))
    if change == "mul":
        x, y = draw(index), draw(index)
        mul[x][y] = mul[y][x] = draw(index)
    elif change == "imp_cut" and n > 1:
        x = draw(st.integers(min_value=1, max_value=n - 1))
        imp[x][x - 1] = draw(index)
    elif change == "imp":
        x = draw(index)
        imp[x][draw(index.filter(lambda y: y != x - 1))] = draw(index)
    return RawChain(n, mul, imp, t.bottom)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(luk_sums_and_mutants())
def test_ordinal_sum_of_matches_scan_oracle(t):
    try:
        expected = decompose_by_scans(t).chain
    except ValueError:
        expected = None
    assert ordinal_sum_of(t) == expected
