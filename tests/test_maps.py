"""Embeddings, filters, quotients, and essential-embedding machinery."""

import random
from itertools import product

import pytest

from blcalc.core import (
    TOP,
    chain,
    chain_op,
    element,
    enumerate_elements,
    fin_luk,
)
from blcalc.decompose import finite_elements, flatten
from blcalc.dsl import parse_chain
from blcalc.maps import (
    ChainMap,
    Filter,
    enumerate_embeddings,
    essentialize,
    filter_contains,
    filters,
    is_essential_embedding,
    local_embeddings,
    quotient_by_filter,
    verify_embedding,
)
from oracles import apply_map, essential_by_filter_definition, order_le, window_embedding


def identity_map(c):
    return ChainMap(c, c, tuple(range(c.index)), (1,) * c.index)


def exhaustive_embeddings(a, b):
    """All injective operation-preserving maps between fully finite chains,
    found by trying every function on the flattened tables."""
    ta, tb = flatten(a), flatten(b)
    ea, eb = finite_elements(a), finite_elements(b)
    out = []
    for img in product(range(tb.size), repeat=ta.size):
        if len(set(img)) != ta.size:
            continue
        if img[ta.size - 1] != tb.size - 1:
            continue
        if a.bottom and img[0] != 0:
            continue
        ok = True
        for i in range(ta.size):
            for j in range(ta.size):
                if img[ta.mul[i][j]] != tb.mul[img[i]][img[j]]:
                    ok = False
                    break
                if img[ta.imp[i][j]] != tb.imp[img[i]][img[j]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(img)
    return out


@pytest.mark.parametrize(
    "a,b,count",
    [
        ("W2", "W4", 1),
        ("W2", "W3", 0),
        ("W1+W1", "W1+W1+W1", 3),
        ("W2", "W2+W2", 2),
        ("L2", "L4", 1),
        ("L1+W1", "L2+W1+W1", 2),
    ],
)
def test_enumerate_embeddings_counts(a, b, count):
    assert len(enumerate_embeddings(parse_chain(a), parse_chain(b))) == count


@pytest.mark.parametrize(
    "a,b",
    [
        ("W2", "W4"),
        ("W2", "W3"),
        ("W1+W1", "W1+W1+W1"),
        ("W1+W2", "W2+W2+W2"),
        ("W4", "W2+W4"),
        ("L2", "L4+W1"),
        ("L1+W1", "L2+W1+W1"),
        ("W1+W1+W1", "W1+W1+W1"),
    ],
)
def test_enumerate_embeddings_equals_exhaustive_search(a, b):
    ca, cb = parse_chain(a), parse_chain(b)
    structural = enumerate_embeddings(ca, cb)
    ea, eb = finite_elements(ca), finite_elements(cb)
    as_functions = {
        tuple(eb.index(apply_map(m, x)) for x in ea) for m in structural
    }
    assert as_functions == set(exhaustive_embeddings(ca, cb))


def test_embeddings_into_symbolic_kinds():
    # finite chains sit inside lexicographic chains of divisible parameter
    ms = enumerate_embeddings(parse_chain("W2"), parse_chain("Wo4"))
    assert len(ms) == 1
    assert apply_map(ms[0], finite_elements(parse_chain("W2"))[0]).value == (0, 0)
    assert enumerate_embeddings(parse_chain("W2"), parse_chain("Wo3")) == []
    # one cancellative embedding per scale
    scales = enumerate_embeddings(parse_chain("Z"), parse_chain("Z"), scale_cap=4)
    assert [m.scales for m in scales] == [(1,), (2,), (3,), (4,)]
    # radical embeddings into the lexicographic chain
    rads = enumerate_embeddings(parse_chain("Z"), parse_chain("Wo2"), scale_cap=2)
    assert len(rads) == 2
    # nothing cancellative embeds into the unit interval or a finite chain
    assert enumerate_embeddings(parse_chain("Z"), parse_chain("U")) == []
    assert enumerate_embeddings(parse_chain("Z"), parse_chain("W5")) == []
    # the unit interval embeds only in itself
    assert len(enumerate_embeddings(parse_chain("U"), parse_chain("U"))) == 1
    assert enumerate_embeddings(parse_chain("Wo2"), parse_chain("U")) == []


@pytest.mark.parametrize(
    "a,b",
    [("W2", "Wo4"), ("Z", "Wo2"), ("Wo2", "Wo4"), ("W3", "U"), ("Z", "Z"),
     ("W1+Z", "W2+Wo2"), ("L2+Z", "Lo2+Z")],
)
def test_embeddings_verify_on_windows(a, b):
    for m in enumerate_embeddings(parse_chain(a), parse_chain(b), scale_cap=3):
        assert verify_embedding(m)


def test_compose_embeddings():
    from blcalc.maps import compose

    for a, b, c in [
        ("W1", "W2", "W4"),
        ("Z", "Z", "Wo2"),
        ("W2", "Wo2", "Wo4"),
        ("W1+W1", "W1+W2", "W2+W2+W2"),
    ]:
        ca, cb, cc = parse_chain(a), parse_chain(b), parse_chain(c)
        for inner in enumerate_embeddings(ca, cb, scale_cap=2):
            for outer in enumerate_embeddings(cb, cc, scale_cap=2):
                both = compose(outer, inner)
                assert verify_embedding(both)
                for x in enumerate_elements(ca, 3):
                    assert apply_map(both, x) == apply_map(outer, apply_map(inner, x))


def test_compose_rejects_chains_that_differ_in_bounds():
    # W2 and L2 have the same components; only the designated bounds differ
    from blcalc.maps import compose

    inner = enumerate_embeddings(parse_chain("W1"), parse_chain("W2"))[0]
    outer = enumerate_embeddings(parse_chain("L2"), parse_chain("L4"))[0]
    assert inner.target.components == outer.source.components
    with pytest.raises(ValueError, match="maps do not compose"):
        compose(outer, inner)


def test_trivial_source_embeddings():
    assert len(enumerate_embeddings(chain(()), parse_chain("W2+Z"))) == 1
    # with designated bounds the collapsed bottom cannot move
    assert enumerate_embeddings(chain((), bottom=True), parse_chain("L2")) == []


HOOP_CHAINS = ["T", "W1", "W2", "Wo2", "Z", "U", "W1+Z", "Z+W1", "W2+Wo2", "Z+Z", "W1+U"]
BL_CHAINS = ["L1", "L2", "Lo2", "UM", "L2+Z", "Lo2+Z", "L1+W2", "L1+Wo2+Z", "L1+U"]


def _signature_chains():
    return [
        [parse_chain(t) for t in HOOP_CHAINS],
        [chain((), bottom=True)] + [parse_chain(t) for t in BL_CHAINS],
    ]


def test_verify_embedding_matches_window_on_enumerated_maps():
    checked = 0
    for pool in _signature_chains():
        for a, b in product(pool, pool):
            for m in enumerate_embeddings(a, b, scale_cap=3):
                assert verify_embedding(m) and window_embedding(m), m
                checked += 1
    assert checked == 128


def test_verify_embedding_matches_window_on_random_maps():
    """Index maps and scales drawn at random; the window oracle raises on
    data that leaves the target, and the exact check says no."""
    rng = random.Random(20240)
    answered = raised = accepted = 0
    for _ in range(3000):
        pool = rng.choice(_signature_chains())
        src = rng.choice([c for c in pool if not c.is_trivial])
        tgt = rng.choice(pool)
        positions = [*range(tgt.index)] * 4 + [-1, tgt.index]
        index_map = tuple(rng.choice(positions) for _ in range(src.index))
        if rng.random() < 0.5:
            index_map = tuple(sorted(index_map))
        scales = tuple(rng.choice([-1, 0, 1, 2, 3]) for _ in range(src.index))
        m = ChainMap(src, tgt, index_map, scales)
        try:
            want = window_embedding(m)
        except ValueError:
            assert verify_embedding(m) is False, m
            raised += 1
            continue
        assert verify_embedding(m) is want, m
        answered += 1
        accepted += want
    assert (answered, raised, accepted) == (573, 2427, 316)


def test_verify_embedding_rejects_ends_that_disagree_on_bounds():
    # W1 -> W1 is legal as a hoop map, but not from W1 into its BL-chain
    w1 = parse_chain("W1")
    assert verify_embedding(ChainMap(w1, w1, (0,), (1,)))
    assert not verify_embedding(ChainMap(w1, parse_chain("L1"), (0,), (1,)))
    assert not verify_embedding(ChainMap(parse_chain("L1"), w1, (0,), (1,)))


def test_verify_embedding_rejects_malformed_data():
    w1, l2 = parse_chain("W1"), parse_chain("L2")
    # the window check accepts this map, since the trivial window has only
    # the top; but the bottom of the source is its top, and the top of L2 is
    # not its bottom
    bad = ChainMap(chain((), bottom=True), l2, (), ())
    assert window_embedding(bad)
    assert not verify_embedding(bad)
    assert enumerate_embeddings(chain((), bottom=True), l2) == []
    w1w1 = parse_chain("W1+W1")
    assert verify_embedding(ChainMap(w1, w1w1, (1,), (1,)))
    for index_map, scales in (((1,), ()), ((), (1,)), ((0, 1), (1,)), ((1,), (1, 1))):
        assert not verify_embedding(ChainMap(w1, w1w1, index_map, scales))
    # the kinds a position joins must admit a local embedding
    assert verify_embedding(ChainMap(w1, parse_chain("W2"), (0,), (1,)))
    assert not verify_embedding(ChainMap(parse_chain("W2"), parse_chain("W3"), (0,), (1,)))
    # a cancellative coordinate needs a positive scale
    z = parse_chain("Z")
    assert verify_embedding(ChainMap(z, z, (0,), (2,)))
    assert not verify_embedding(ChainMap(z, z, (0,), (0,)))
    # the bottom goes to the bottom
    assert not verify_embedding(ChainMap(l2, parse_chain("L1+W2"), (1,), (1,)))


def test_mode_mismatch_rejected():
    with pytest.raises(ValueError):
        enumerate_embeddings(parse_chain("W1"), parse_chain("L1"))


@pytest.mark.parametrize(
    "text,count",
    [("W3", 2), ("W1+W1", 3), ("Wo2", 3), ("W1+Wo1+W2", 5), ("Z", 2), ("U", 2)],
)
def test_filter_counts(text, count):
    assert len(filters(parse_chain(text))) == count


def test_filters_ordered_by_inclusion():
    c = parse_chain("W1+Wo2+W1")
    fs = filters(c)
    elems = enumerate_elements(c, 3)
    for f1, f2 in zip(fs, fs[1:]):
        s1 = {x for x in elems if filter_contains(c, f1, x)}
        s2 = {x for x in elems if filter_contains(c, f2, x)}
        assert s2 < s1


def test_filters_match_upset_scan():
    # on a finite chain the filters are exactly the product-closed up-sets
    c = parse_chain("W1+W2")
    t = flatten(c)
    upsets = []
    for lo in range(t.size):
        s = set(range(lo, t.size))
        if all(t.mul[x][y] in s for x in s for y in s):
            upsets.append(frozenset(s))
    elems = finite_elements(c)
    ours = {
        frozenset(i for i, x in enumerate(elems) if filter_contains(c, f, x))
        for f in filters(c)
    }
    assert ours == set(upsets)


def test_quotient_by_filter():
    c = parse_chain("W1+W2")
    q, project = quotient_by_filter(c, Filter(1))
    assert q.components == (fin_luk(1),)
    lex = parse_chain("Wo2")
    q, project = quotient_by_filter(lex, Filter(0, radical=True))
    assert q.components == (fin_luk(2),)
    assert project(element(lex, 0, (1, 7))) == element(q, 0, 1)
    assert project(element(lex, 0, (2, -3))) == TOP
    q, _ = quotient_by_filter(c, Filter(c.index))
    assert q == c


def test_radical_filter_of_wo2_is_closed():
    # Filter(0, radical=True) of Wo2 holds exactly the (2, b): it contains
    # the products of its members and everything above them
    c = parse_chain("Wo2")
    rad = Filter(0, radical=True)
    window = enumerate_elements(c, 4)
    members = [element(c, 0, (2, b)) for b in range(-4, 0)]
    assert all(filter_contains(c, rad, x) for x in members)
    assert not filter_contains(c, rad, element(c, 0, (1, 7)))
    for x in members:
        for y in members:
            assert filter_contains(c, rad, chain_op(c, "mul", x, y))
        for z in window:
            if order_le(c, x, z):
                assert filter_contains(c, rad, z)


def test_quotient_matches_table_quotient():
    # collapsing the tail filter of the flattened table gives the same chain
    c = parse_chain("W1+W2")
    q, project = quotient_by_filter(c, Filter(1))
    elems = finite_elements(c)
    t = flatten(c)
    keep = [i for i, x in enumerate(elems) if project(x) != TOP]
    assert len(keep) + 1 == flatten(q).size


def test_essential_embedding_examples():
    w1 = parse_chain("W1")
    g = parse_chain("W1+W1")
    into_first, into_last = sorted(
        enumerate_embeddings(w1, g), key=lambda m: m.index_map
    )
    assert not is_essential_embedding(into_first)
    assert is_essential_embedding(into_last)
    assert is_essential_embedding(identity_map(g))
    # image meets the radical only at the top: not essential
    fin_into_lex = enumerate_embeddings(parse_chain("W2"), parse_chain("Wo2"))[0]
    assert not is_essential_embedding(fin_into_lex)
    # radical inclusion is essential
    rad = enumerate_embeddings(parse_chain("Z"), parse_chain("Wo2"))[0]
    assert is_essential_embedding(rad)
    # trivial into non-trivial is never essential
    triv = enumerate_embeddings(chain(()), parse_chain("Z"))[0]
    assert not is_essential_embedding(triv)


def test_structural_essential_agrees_with_filter_definition():
    sources = ["W1", "W2", "W1+W1", "W1+W2", "W2+W2", "W1+W1+W1"]
    targets = ["W2", "W1+W1", "W2+W2", "W1+W2+W4", "W2+W4", "W1+W1+W1"]
    for a in sources:
        for b in targets:
            ca, cb = parse_chain(a), parse_chain(b)
            for m in enumerate_embeddings(ca, cb):
                assert is_essential_embedding(m) == essential_by_filter_definition(m)


def test_essential_filter_definition_on_lex_targets():
    for a, b in [("W2", "Wo2"), ("Z", "Wo2"), ("Wo1", "Wo2"), ("W1+Z", "W1+Wo1")]:
        for m in enumerate_embeddings(parse_chain(a), parse_chain(b)):
            assert is_essential_embedding(m) == essential_by_filter_definition(m, 3)


def test_essentialize():
    w1 = parse_chain("W1")
    g = parse_chain("W1+W1")
    into_first, into_last = sorted(
        enumerate_embeddings(w1, g), key=lambda m: m.index_map
    )
    ess = essentialize(into_last)
    assert ess.theta0 == Filter(2) and ess.map.target == g
    ess = essentialize(into_first)
    assert ess.theta0 == Filter(1)
    assert ess.map.target == w1
    assert ess.map.index_map == (0,)
    ess = essentialize(identity_map(g))
    assert ess.theta0 == Filter(2)
    # collapsing anything more would identify image points
    triv = enumerate_embeddings(chain(()), parse_chain("Z"))[0]
    ess = essentialize(triv)
    assert ess.theta0 == Filter(0) and ess.map.target.is_trivial


def test_essentialize_radical_cut():
    # finite chain into the lexicographic chain: the radical collapse is the
    # largest congruence missing the image
    m = enumerate_embeddings(parse_chain("W2"), parse_chain("Wo2"))[0]
    ess = essentialize(m)
    assert ess.theta0 == Filter(0, radical=True)
    assert ess.map.target.components == (fin_luk(2),)
    assert is_essential_embedding(ess.map)


def test_essentialize_is_maximal():
    # composing with any strictly larger filter's quotient kills injectivity
    c = parse_chain("W1+W1+W1")
    w1 = parse_chain("W1")
    m = [m for m in enumerate_embeddings(w1, c) if m.index_map == (1,)][0]
    ess = essentialize(m)
    assert ess.theta0 == Filter(2)
    larger = Filter(1)
    _, project = quotient_by_filter(c, larger)
    images = {project(apply_map(m, x)) for x in finite_elements(w1)}
    assert len(images) < len(finite_elements(w1))


# Scales of local_embeddings(src, dst, cap) for cap 0..3 over the kinds
# W1-W4, Wo1, Wo2, Z, U, as the enumeration gave them before it built only the
# list it returns; every pair not listed has no local embedding at any cap.
RIGID = ((1,),) * 4
SCALED = ((), (1,), (1, 2), (1, 2, 3))
PINNED_LOCAL = {
    "W1>W1": RIGID, "W1>W2": RIGID, "W1>W3": RIGID, "W1>W4": RIGID,
    "W1>Wo1": RIGID, "W1>Wo2": RIGID, "W1>U": RIGID,
    "W2>W2": RIGID, "W2>W4": RIGID, "W2>Wo2": RIGID, "W2>U": RIGID,
    "W3>W3": RIGID, "W3>U": RIGID, "W4>W4": RIGID, "W4>U": RIGID,
    "Wo1>Wo1": SCALED, "Wo1>Wo2": SCALED, "Wo2>Wo2": SCALED,
    "Z>Wo1": SCALED, "Z>Wo2": SCALED, "Z>Z": SCALED,
    "U>U": RIGID,
}


def test_local_embeddings_pinned():
    kinds = [parse_chain(n).components[0] for n in "W1 W2 W3 W4 Wo1 Wo2 Z U".split()]
    for src, dst in product(kinds, repeat=2):
        got = []
        for cap in range(4):
            got.append(local_embeddings(src, dst, cap))
        assert tuple(got) == PINNED_LOCAL.get(f"{src!r}>{dst!r}", ((),) * 4), (src, dst)
