"""Spans, brute-force amalgam search, constructive amalgamation, and the
one-sided route through essentialization."""

import math
import random
from itertools import islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    apply_completion,
    find_amalgam_by_pairs,
    join_kinds_by_cases,
    window_commutes,
)

from blcalc.amalgam import (
    Amalgam,
    CollapsingMap,
    Span,
    UnsupportedShapeError,
    _join_kinds,
    _kind_embeds,
    amalgamate_constructive,
    find_amalgam_bruteforce,
    is_essential_span,
    make_span,
    one_sided_amalgam,
    spans_commute,
    universe_chains,
)
from blcalc.core import CANC_Z, STD_UNIT, chain, fin_luk, lex_omega
from blcalc.dsl import parse_chain, parse_class_expr, pretty_chain
from blcalc.maps import Filter, enumerate_embeddings, verify_embedding

ALL_WAJSBERG = parse_class_expr("[U]")


def w_span(g, a, b):
    return make_span(parse_chain(f"W{g}"), parse_chain(f"W{a}"), parse_chain(f"W{b}"))


def test_essential_span_examples():
    w1 = parse_chain("W1")
    g = parse_chain("W1+W1")
    into_first, into_last = sorted(
        enumerate_embeddings(w1, g), key=lambda m: m.index_map
    )
    ident = enumerate_embeddings(w1, w1)[0]
    assert is_essential_span(Span(w1, into_first, ident))
    assert not is_essential_span(Span(w1, ident, into_first))
    triv = chain(())
    s = make_span(triv, parse_chain("W1"), parse_chain("Z"))
    assert not is_essential_span(s)
    s = make_span(w1, parse_chain("W2"), g, right_index=1)
    assert is_essential_span(s)


def test_bruteforce_search_finds_lcm_chain():
    am = find_amalgam_bruteforce(w_span(1, 2, 3), ALL_WAJSBERG, max_index=1, max_k=7)
    assert pretty_chain(am.target) == "W6"
    assert spans_commute(w_span(1, 2, 3), am)


def test_bruteforce_identity_span():
    a = parse_chain("W2+Z")
    ident = enumerate_embeddings(a, a)[0]
    s = Span(a, ident, ident)
    am = find_amalgam_bruteforce(s, parse_class_expr("[W2 Z]"), max_index=2, max_k=2)
    assert am.target == a


def test_bruteforce_none_within_bounds():
    s = make_span(chain(()), parse_chain("W1"), parse_chain("Z"))
    universe = parse_class_expr("[W1]|[Z]")
    # the universe is tiny and kind-exhaustive under these bounds
    assert [pretty_chain(c) for c in universe_chains(universe, 2, 3)] == [
        "T",
        "W1",
        "Z",
    ]
    assert find_amalgam_bruteforce(s, universe, max_index=2, max_k=3) is None


def test_universe_enumeration_order():
    chains = list(universe_chains(parse_class_expr("[(W2 Z)*]"), 2, 2))
    names = [pretty_chain(c) for c in chains]
    assert names[0] == "T"
    assert names.index("W1") < names.index("W2") < names.index("Z")
    assert all(c.index <= 2 for c in chains)
    assert "W1+Z" in names and "Z+W2" in names


def test_universe_enumeration_is_lazy():
    # index 6 would build 16**6 candidates if the walk were eager
    universe = parse_class_expr("[U*]")
    first = list(islice(universe_chains(universe, 6, 7), 50))
    assert first == list(universe_chains(universe, 2, 7))[:50]


# One span per distinct target among the default-leg spans over the benchmark's
# chains, searched in [U*] with max_index=3, max_k=7: apex, left, right, then
# the target and each leg's index map and local maps (src>dst, *scale if not 1).
PINNED_BRUTEFORCE = (
    ("T", "T", "T", "T", (), "", (), ""),
    ("T", "W1", "T", "W1", (0,), "W1>W1", (), ""),
    ("T", "W2", "T", "W2", (0,), "W2>W2", (), ""),
    ("T", "W2", "W3", "W6", (0,), "W2>W6", (0,), "W3>W6"),
    ("T", "W3", "T", "W3", (0,), "W3>W3", (), ""),
    ("T", "W3", "Z", "Wo3", (0,), "W3>Wo3", (0,), "Z>Wo3"),
    ("T", "W3", "Wo2", "Wo6", (0,), "W3>Wo6", (0,), "Wo2>Wo6"),
    ("T", "Z", "T", "Wo1", (0,), "Z>Wo1", (), ""),
    ("T", "Z", "W2", "Wo2", (0,), "Z>Wo2", (0,), "W2>Wo2"),
    ("T", "W1+Z", "T", "W1+Wo1", (0, 1), "W1>W1 Z>Wo1", (), ""),
    ("T", "W1+Z", "W2", "W1+Wo2", (0, 1), "W1>W1 Z>Wo2", (1,), "W2>Wo2"),
    ("T", "W1+Z", "W3", "W1+Wo3", (0, 1), "W1>W1 Z>Wo3", (1,), "W3>Wo3"),
    ("T", "W2+W1", "T", "W2+W1", (0, 1), "W2>W2 W1>W1", (), ""),
    ("T", "W2+W1", "W3", "W2+W3", (0, 1), "W2>W2 W1>W3", (1,), "W3>W3"),
    ("T", "W2+W1", "Wo2", "W2+Wo2", (0, 1), "W2>W2 W1>Wo2", (1,), "Wo2>Wo2"),
    ("T", "W2+W1", "W1+Z", "W2+Wo1", (0, 1), "W2>W2 W1>Wo1", (0, 1), "W1>W2 Z>Wo1"),
    ("T", "Z+W2", "T", "Wo1+W2", (0, 1), "Z>Wo1 W2>W2", (), ""),
    ("T", "Z+W2", "W3", "Wo1+W6", (0, 1), "Z>Wo1 W2>W6", (1,), "W3>W6"),
    ("T", "Z+W2", "Wo2", "Wo1+Wo2", (0, 1), "Z>Wo1 W2>Wo2", (1,), "Wo2>Wo2"),
    ("T", "Z+W2", "W2+W1", "Wo2+W2", (0, 1), "Z>Wo2 W2>W2", (0, 1), "W2>Wo2 W1>W2"),
    ("T", "W3+Z", "W1", "W3+Wo1", (0, 1), "W3>W3 Z>Wo1", (0,), "W1>W3"),
    ("T", "W3+Z", "W2", "W3+Wo2", (0, 1), "W3>W3 Z>Wo2", (1,), "W2>Wo2"),
    ("T", "W3+Z", "W2+W1", "W6+Wo1", (0, 1), "W3>W6 Z>Wo1", (0, 1), "W2>W6 W1>Wo1"),
    ("T", "W3+Z", "Z+W2", "Wo3+Wo2", (0, 1), "W3>Wo3 Z>Wo2", (0, 1), "Z>Wo3 W2>Wo2"),
    ("W1", "Wo1", "W1+Z", "Wo1+Wo1", (0,), "Wo1>Wo1", (0, 1), "W1>Wo1 Z>Wo1"),
    ("W1", "Wo2", "W1+Z", "Wo2+Wo1", (0,), "Wo2>Wo2", (0, 1), "W1>Wo2 Z>Wo1"),
    ("W1", "W2+W1", "W3", "W6+W1", (0, 1), "W2>W6 W1>W1", (0,), "W3>W6"),
    ("W1", "Z+W2", "W1+Z", "Wo1+W2+Wo1", (0, 1), "Z>Wo1 W2>W2", (1, 2), "W1>W2 Z>Wo1"),
    ("W1", "Z+W2", "W2+W1", "Wo1+W2+W1", (0, 1), "Z>Wo1 W2>W2", (1, 2), "W2>W2 W1>W1"),
    ("W1", "Z+W2", "W3+Z", "Wo1+W6+Wo1", (0, 1), "Z>Wo1 W2>W6", (1, 2), "W3>W6 Z>Wo1"),
    ("W1", "W3+Z", "Wo1", "Wo3+Wo1", (0, 1), "W3>Wo3 Z>Wo1", (0,), "Wo1>Wo3"),
    ("W1", "W3+Z", "Wo2", "Wo6+Wo1", (0, 1), "W3>Wo6 Z>Wo1", (0,), "Wo2>Wo6"),
    ("W2", "Wo2", "W2+W1", "Wo2+W1", (0,), "Wo2>Wo2", (0, 1), "W2>Wo2 W1>W1"),
    ("Z", "Z+W2", "W1+Z", "W1+Wo1+W2", (1, 2), "Z>Wo1 W2>W2", (0, 1), "W1>W1 Z>Wo1"),
    ("Z", "W3+Z", "Z+W2", "W3+Wo1+W2", (0, 1), "W3>W3 Z>Wo1", (1, 2), "Z>Wo1 W2>W2"),
)


def _leg(m):
    locs = " ".join(
        f"{src!r}>{m.target.components[p]!r}" + ("" if scale == 1 else f"*{scale}")
        for src, p, scale in zip(m.source.components, m.index_map, m.scales)
    )
    return m.index_map, locs


def test_bruteforce_answers_pinned():
    universe = parse_class_expr("[U*]")
    for a, b, c, target, *legs in PINNED_BRUTEFORCE:
        s = make_span(parse_chain(a), parse_chain(b), parse_chain(c))
        am = find_amalgam_bruteforce(s, universe, max_index=3, max_k=7)
        got = (pretty_chain(am.target), *_leg(am.left), *_leg(am.right))
        assert got == (target, *legs), (a, b, c)


# The chains and the no-amalgam spans of the benchmark's amalgam workload.
SPAN_CHAINS = ("T", "W1", "W2", "W3", "Z", "Wo1", "Wo2", "W1+Z", "W2+W1", "Z+W2", "W3+Z")
NO_AMALGAM = (
    ("T", "W1", "Z", "[W1]|[Z]"),
    ("T", "Z", "W1", "[W1]|[Z]"),
    ("T", "W1+Z", "Z+W1", "[W1 Z]|[Z W1]"),
    ("T", "Z+W1", "W1+Z", "[W1 Z]|[Z W1]"),
)


def differential_cases():
    """(span, universe, max_index, max_k): the spans searched in this module,
    the no-amalgam spans, and a seeded sample of spans over SPAN_CHAINS with
    seeded leg choices."""
    u_star = parse_class_expr("[U*]")
    cases = [
        (make_span(parse_chain(a), parse_chain(b), parse_chain(c)), u_star, 3, 7)
        for a, b, c, *_ in PINNED_BRUTEFORCE
    ]
    for g, a, b in ((1, 2, 3), (2, 2, 4), (1, 1, 5), (3, 3, 6)):
        cases.append((w_span(g, a, b), ALL_WAJSBERG, 1, math.lcm(a, b)))
    w1, g2, z = parse_chain("W1"), parse_chain("W1+W1"), parse_chain("Z")
    into_first, into_last = sorted(enumerate_embeddings(w1, g2), key=lambda m: m.index_map)
    ident = enumerate_embeddings(w1, w1)[0]
    w2z = parse_chain("W2+Z")
    w2z_ident = enumerate_embeddings(w2z, w2z)[0]
    lex_left = enumerate_embeddings(z, parse_chain("Wo2"), scale_cap=3)[1]
    lex_right = enumerate_embeddings(z, z, scale_cap=3)[2]
    cases += [
        (Span(w2z, w2z_ident, w2z_ident), parse_class_expr("[W2 Z]"), 2, 2),
        (Span(w1, into_last, ident), parse_class_expr("[W1*]"), 2, 1),
        (Span(w1, into_first, into_last), parse_class_expr("[W1*]"), 3, 1),
        (Span(z, lex_left, lex_right), parse_class_expr("[Wo2]"), 2, 4),
        (Span(z, lex_left, lex_right), u_star, 2, 4),
        (make_span(parse_chain("L1"), parse_chain("L2"), parse_chain("L3+Z")),
         parse_class_expr("[UM U*]"), 3, 6),
    ]
    for a, b, c, u in NO_AMALGAM:
        cases.append(
            (make_span(parse_chain(a), parse_chain(b), parse_chain(c)), parse_class_expr(u), 3, 7)
        )
    rng = random.Random(11)
    chains = {t: parse_chain(t) for t in SPAN_CHAINS}
    spans = []
    for a, b, c in product(SPAN_CHAINS, repeat=3):
        lefts = enumerate_embeddings(chains[a], chains[b])
        rights = enumerate_embeddings(chains[a], chains[c])
        if lefts and rights:
            spans.append(Span(chains[a], rng.choice(lefts), rng.choice(rights)))
    cases += [(s, u_star, 3, 7) for s in rng.sample(spans, 150)]
    return cases


def test_bruteforce_matches_pair_search():
    # the kind pre-filter and the composite join return the same first
    # commuting completion as testing every pair of legs of every target
    cases = differential_cases()
    nones = 0
    for s, universe, max_index, max_k in cases:
        am = find_amalgam_bruteforce(s, universe, max_index=max_index, max_k=max_k)
        assert am == find_amalgam_by_pairs(s, universe, max_index, max_k), s
        nones += am is None
    assert (len(cases), nones) == (199, 4)


KINDS = [parse_chain(n).components[0] for n in "W1 W2 W3 W4 Wo1 Wo2 Z U".split()]


def chains_of(bottom: bool):
    """Chains of index 0 to 3 over KINDS, the trivial chain included; a
    BL-chain's first component is bounded."""
    heads = [k for k in KINDS if k.bounded] if bottom else KINDS
    nontrivial = st.tuples(st.sampled_from(heads), st.lists(st.sampled_from(KINDS), max_size=2))
    return st.one_of(
        st.just(chain((), bottom=bottom)),
        nontrivial.map(lambda t: chain((t[0], *t[1]), bottom=bottom)),
    )


same_bounds = st.booleans().flatmap(lambda bottom: st.tuples(chains_of(bottom), chains_of(bottom)))
DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=400)


@DETERMINISTIC
@given(same_bounds)
def test_kind_embeds_decides_enumeration(pair):
    a, b = pair
    assert _kind_embeds(a, b) == bool(enumerate_embeddings(a, b))


@settings(DETERMINISTIC, max_examples=100)
@given(chains_of(False), chains_of(True))
def test_kind_embeds_bounds_mismatch_raises(hoop, bl):
    for a, b in ((hoop, bl), (bl, hoop)):
        for check in (_kind_embeds, enumerate_embeddings):
            with pytest.raises(ValueError, match="designated-bounds mismatch"):
                check(a, b)


def test_exact_commutation_matches_window():
    # every candidate completion of every span over these chains, with all
    # leg choices up to scale 2: the exact check agrees with the window oracle
    chains = [parse_chain(n) for n in "T W1 W2 Z Wo1 Wo2 W1+Z Z+W1".split()]
    targets = list(universe_chains(parse_class_expr("[U*]"), 2, 2))
    candidates = commuting = 0
    for apex in chains:
        for b in chains:
            for c in chains:
                for left in enumerate_embeddings(apex, b, scale_cap=2):
                    for right in enumerate_embeddings(apex, c, scale_cap=2):
                        s = Span(apex, left, right)
                        for target in targets:
                            for psi1 in enumerate_embeddings(b, target, scale_cap=2):
                                for psi2 in enumerate_embeddings(c, target, scale_cap=2):
                                    am = Amalgam(target, psi1, psi2)
                                    exact = spans_commute(s, am)
                                    assert exact == window_commutes(s, am), (s, am)
                                    candidates += 1
                                    commuting += exact
    assert (candidates, commuting) == (15728, 7934)


def _join_or_error(join, b, c):
    try:
        return join(b, c)
    except UnsupportedShapeError:
        return UnsupportedShapeError


def test_join_kinds_matches_case_table():
    # the join read off the local embeddings agrees with the case table on
    # every ordered pair, the unrepresentable joins included
    kinds = [fin_luk(n) for n in range(1, 13)] + [lex_omega(n) for n in range(1, 13)]
    kinds += [CANC_Z, STD_UNIT]
    pairs = list(product(kinds, repeat=2))
    assert len(pairs) == 676
    for b, c in pairs:
        assert _join_or_error(_join_kinds, b, c) == _join_or_error(
            join_kinds_by_cases, b, c
        ), (b, c)


def test_constructive_lcm():
    s = w_span(1, 2, 3)
    am = amalgamate_constructive(s, ALL_WAJSBERG)
    assert pretty_chain(am.target) == "W6"
    assert spans_commute(s, am)
    assert verify_embedding(am.left) and verify_embedding(am.right)


def test_constructive_identity_span():
    a = parse_chain("W2+W1")
    ident = enumerate_embeddings(a, a)[0]
    am = amalgamate_constructive(Span(a, ident, ident), parse_class_expr("[W2 W1]"))
    assert am.target == a


def test_constructive_padding_example():
    # apex sits in the last component of one side and all of the other
    w1 = parse_chain("W1")
    g = parse_chain("W1+W1")
    into_last = [m for m in enumerate_embeddings(w1, g) if m.index_map == (1,)][0]
    ident = enumerate_embeddings(w1, w1)[0]
    s = Span(w1, into_last, ident)
    am = amalgamate_constructive(s, parse_class_expr("[W1*]"))
    assert pretty_chain(am.target) == "W1+W1"
    assert spans_commute(s, am)
    # the oracle agrees
    oracle = find_amalgam_bruteforce(s, parse_class_expr("[W1*]"), max_index=2, max_k=1)
    assert oracle.target == am.target


def test_constructive_mixed_components_stay_separate():
    # without an anchor, finite and cancellative components go to separate
    # slots, staying inside the group-star class
    s = make_span(chain(()), parse_chain("W2"), parse_chain("Z"))
    universe = parse_class_expr("[(W2 Z)*]")
    am = amalgamate_constructive(s, universe)
    assert pretty_chain(am.target) == "W2+Z"
    assert spans_commute(s, am)


def test_constructive_lex_transport():
    # cancellative apex into a lexicographic component: scales balance
    z = parse_chain("Z")
    wo = parse_chain("Wo2")
    left = enumerate_embeddings(z, wo, scale_cap=3)[1]  # scale 2 into the radical
    right = enumerate_embeddings(z, z, scale_cap=3)[2]  # scale 3
    s = Span(z, left, right)
    am = amalgamate_constructive(s, parse_class_expr("[Wo2]"))
    assert pretty_chain(am.target) == "Wo2"
    assert spans_commute(s, am)


def test_constructive_rejects_outside_universe():
    s = w_span(1, 2, 3)
    with pytest.raises(UnsupportedShapeError):
        amalgamate_constructive(s, parse_class_expr("[W2]"))


def test_one_sided_collapses_cancellative_leg():
    s = make_span(chain(()), parse_chain("W1"), parse_chain("Z"))
    am = one_sided_amalgam(s, parse_class_expr("[W1]|[Z]"))
    assert am.one_sided
    assert pretty_chain(am.target) == "W1"
    # the right completion collapses everything to the top
    from blcalc.core import element

    z = parse_chain("Z")
    assert apply_completion(am.right, element(z, 0, -3)).is_top


def test_wrong_collapse_filter_does_not_commute():
    # a collapse that identifies image points of the right leg cannot commute
    w1 = parse_chain("W1")
    g = parse_chain("W1+W1")
    into_first, into_last = sorted(enumerate_embeddings(w1, g), key=lambda m: m.index_map)
    s = Span(w1, into_last, into_first)
    am = one_sided_amalgam(s, parse_class_expr("[W1*]"))
    assert am.right.collapse == Filter(1) and spans_commute(s, am)
    wrong = Amalgam(am.target, am.left, CollapsingMap(g, Filter(0), am.right.embed), True)
    assert not spans_commute(s, wrong) and not window_commutes(s, wrong)
    # a cancellative apex inside a lexicographic radical collapses with it
    z, wo = parse_chain("Z"), parse_chain("Wo1")
    s = make_span(z, z, wo)
    am = one_sided_amalgam(s, parse_class_expr("[Wo1]"))
    assert am.right.collapse == Filter(1) and spans_commute(s, am)
    for f in (Filter(0), Filter(0, radical=True)):
        wrong = Amalgam(am.target, am.left, CollapsingMap(wo, f, am.right.embed), True)
        assert not spans_commute(s, wrong) and not window_commutes(s, wrong)


def test_one_sided_is_plain_data():
    s = make_span(chain(()), parse_chain("W1"), parse_chain("Z"))
    universe = parse_class_expr("[W1]|[Z]")
    assert one_sided_amalgam(s, universe) == one_sided_amalgam(s, universe)


def test_one_sided_none_within_bounds():
    # the right leg is essential and no member holds both codomains
    s = make_span(parse_chain("W1"), parse_chain("W1+Z"), parse_chain("Z+W1"))
    assert is_essential_span(s)
    assert one_sided_amalgam(s, parse_class_expr("[W1 Z]|[Z W1]")) is None


def test_one_sided_on_essential_span_is_two_sided():
    w1 = parse_chain("W1")
    g = parse_chain("W1+W1")
    into_last = [m for m in enumerate_embeddings(w1, g) if m.index_map == (1,)][0]
    ident = enumerate_embeddings(w1, w1)[0]
    s = Span(w1, into_last, ident)
    am = one_sided_amalgam(s, parse_class_expr("[W1*]"))
    assert not am.one_sided


def test_one_sided_quotient_then_amalgamate():
    # right leg lands in the first component; its tail gets collapsed first
    w1 = parse_chain("W1")
    g = parse_chain("W1+W1")
    embeddings = sorted(enumerate_embeddings(w1, g), key=lambda m: m.index_map)
    into_first, into_last = embeddings
    s = Span(w1, into_last, into_first)
    am = one_sided_amalgam(s, parse_class_expr("[W1*]"))
    assert am.one_sided
    assert spans_commute(s, am)
    oracle_target = find_amalgam_bruteforce(
        Span(w1, into_last, enumerate_embeddings(w1, w1)[0]),
        parse_class_expr("[W1*]"),
        max_index=2,
        max_k=1,
    ).target
    assert am.target == oracle_target


@pytest.mark.parametrize("g,a,b", [(1, 2, 3), (2, 2, 4), (1, 1, 5), (3, 3, 6)])
def test_oracle_constructive_agreement(g, a, b):
    s = w_span(g, a, b)
    constructed = amalgamate_constructive(s, ALL_WAJSBERG)
    lcm = math.lcm(a, b)
    assert constructed.target.components == (fin_luk(lcm),)
    oracle = find_amalgam_bruteforce(s, ALL_WAJSBERG, max_index=1, max_k=lcm)
    assert oracle.target == constructed.target


def test_every_span_in_a_catalog_node_one_sided_amalgamates():
    # the decisive property of the classified classes: essential spans have
    # amalgams, so arbitrary spans have one-sided amalgams after collapsing
    import random

    from blcalc.classify import enumerate_catalog
    from blcalc.maps import is_essential_embedding

    rng = random.Random(4242)
    nodes = [e for e, _, _ in enumerate_catalog("bh", 1) if e is not None]
    checked = 0
    for node in nodes:
        pool = [c for c in universe_chains(node, 2, 2) if not c.is_trivial]
        members = pool + [chain(())]
        for _ in range(12):
            b = rng.choice(pool)
            c = rng.choice(pool)
            apex = rng.choice(members)
            lefts = enumerate_embeddings(apex, b, scale_cap=2)
            rights = enumerate_embeddings(apex, c, scale_cap=2)
            if not lefts or not rights:
                continue
            s = Span(apex, rng.choice(lefts), rng.choice(rights))
            am = one_sided_amalgam(s, node, max_index=6, max_k=4, scale_cap=4)
            assert spans_commute(s, am)
            from blcalc.classes import member

            assert member(am.target, node)
            assert verify_embedding(am.left)
            if is_essential_span(s):
                assert not am.one_sided
            checked += 1
    assert checked > 100


def test_amalgam_completions_verified():
    s = w_span(2, 4, 6)
    am = amalgamate_constructive(s, ALL_WAJSBERG)
    assert spans_commute(s, am) and window_commutes(s, am)
