"""Spans, brute-force amalgam search, constructive amalgamation, and the
one-sided route through essentialization."""

import math
from itertools import islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    apply_completion,
    apply_map,
    embeddings_by_verification,
    enumerate_elements,
    find_amalgam_by_pairs,
    join_kinds_by_cases,
    kind_embeds_by_greedy,
    window_commutes,
)

from blcalc import amalgam
from blcalc.amalgam import (
    Amalgam,
    CollapsingMap,
    Span,
    UnsupportedShapeError,
    _join_kinds,
    amalgamate_constructive,
    find_amalgam_bruteforce,
    make_span,
    one_sided_amalgam,
    spans_commute,
    universe_chains,
)
from blcalc.classify import interval_by_name
from blcalc.core import (
    CANC_Z,
    FIN,
    LEX,
    STD_UNIT,
    ModeMismatchError,
    chain,
    fin_luk,
    kind_embeds,
    lex_omega,
)
from blcalc.dsl import parse_chain, parse_class_expr, pretty_chain
from blcalc.maps import (
    ChainMap,
    Filter,
    _composite,
    compose,
    embedding_choices,
    enumerate_embeddings,
    is_essential_embedding,
    verify_embedding,
)

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
    assert is_essential_embedding(ident)
    assert not is_essential_embedding(into_first)
    triv = chain(())
    s = make_span(triv, parse_chain("W1"), parse_chain("Z"))
    assert not is_essential_embedding(s.right)
    s = make_span(w1, parse_chain("W2"), g, right_index=1)
    assert is_essential_embedding(s.right)


def test_make_span_counts_legs_before_building_one(monkeypatch):
    # each side's legs are counted as position choices times scale_cap^m,
    # and the chosen one is the enumeration's leg at that index
    chains = [parse_chain(t) for t in ("T", "W1", "Z", "Wo2", "W1+Z", "Z+Z", "Z+Wo2+W1")]
    for a, b in product(chains, repeat=2):
        for cap in (1, 3):
            legs = enumerate_embeddings(a, b, cap)
            for i, leg in enumerate(legs):
                assert make_span(a, b, b, i, i, cap).right == leg
            if legs:
                with pytest.raises(ValueError, match=rf"out of range 0\.\.{len(legs) - 1}$"):
                    make_span(a, b, b, right_index=len(legs), scale_cap=cap)
    monkeypatch.setattr(amalgam, "MAX_SPAN_LEGS", 8)
    zz = parse_chain("Z+Z")
    assert make_span(zz, zz, zz, 3, 3, scale_cap=2).left.scales == (2, 2)
    with pytest.raises(ValueError, match="left leg has 9 embeddings, more than MAX_SPAN_LEGS = 8"):
        make_span(zz, zz, zz, scale_cap=3)


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


def test_span_legs_must_start_at_the_apex():
    w1, w2 = parse_chain("W1"), parse_chain("W2")
    leg = enumerate_embeddings(w1, w2)[0]
    with pytest.raises(ValueError, match="start at the apex"):
        Span(w2, leg, leg)


def test_trivial_bl_span_amalgamates_by_identity():
    # the trivial BL-chain lies in every BL variety, and it is its own
    # amalgam: every route answers with the identity legs
    t, u = chain((), bottom=True), parse_class_expr("[L1 W1*]")
    s = make_span(t, t, t)
    ident = s.left
    assert ident.target == t and ident.index_map == ()
    for am in (
        find_amalgam_bruteforce(s, u),
        amalgamate_constructive(s, u),
        one_sided_amalgam(s, u),
    ):
        right = am.right.embed if isinstance(am.right, CollapsingMap) else am.right
        assert (am.target, am.left, right, am.one_sided) == (t, ident, ident, False)
        assert spans_commute(s, am)


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


def test_codomain_outside_universe(monkeypatch):
    # [W1] holds neither W2+W1 nor any chain it embeds into; every route
    # says so, on either side, before any walk
    universe = parse_class_expr("[W1]")
    monkeypatch.setattr(amalgam, "universe_chains", None)  # the answer needs no walk
    for left, right in (("W1", "W2+W1"), ("W2+W1", "W1")):
        s = make_span(parse_chain("W1"), parse_chain(left), parse_chain(right))
        for route in (find_amalgam_bruteforce, amalgamate_constructive, one_sided_amalgam):
            with pytest.raises(UnsupportedShapeError, match=r"W2\+W1 lies outside the universe"):
                route(s, universe)


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
    the no-amalgam spans, and every span over SPAN_CHAINS with every choice
    of its two legs."""
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
    into_wo2 = enumerate_embeddings(z, parse_chain("Wo2"), scale_cap=3)
    into_z = enumerate_embeddings(z, z, scale_cap=3)
    lex_left, lex_right = into_wo2[1], into_z[2]  # scales 2 and 3
    lex_left3, lex_right2 = into_wo2[2], into_z[1]  # scales 3 and 2
    cases += [
        (Span(w2z, w2z_ident, w2z_ident), parse_class_expr("[W2 Z]"), 2, 2),
        (Span(w1, into_last, ident), parse_class_expr("[W1*]"), 2, 1),
        (Span(w1, into_first, into_last), parse_class_expr("[W1*]"), 3, 1),
        (Span(z, lex_left, lex_right), parse_class_expr("[Wo2]"), 2, 4),
        (Span(z, lex_left, lex_right), u_star, 2, 4),
        (Span(z, lex_left3, lex_right2), parse_class_expr("[Wo2]"), 2, 4),
        (Span(z, lex_left3, lex_right2), u_star, 2, 4),
        (make_span(parse_chain("L1"), parse_chain("L2"), parse_chain("L3+Z")),
         parse_class_expr("[UM U*]"), 3, 6),
    ]
    for a, b, c, u in NO_AMALGAM:
        cases.append(
            (make_span(parse_chain(a), parse_chain(b), parse_chain(c)), parse_class_expr(u), 3, 7)
        )
    chains = {t: parse_chain(t) for t in SPAN_CHAINS}
    for a, b, c in product(SPAN_CHAINS, repeat=3):
        for left in enumerate_embeddings(chains[a], chains[b]):
            for right in enumerate_embeddings(chains[a], chains[c]):
                cases.append((Span(chains[a], left, right), u_star, 3, 7))
    return cases


def span_scale(s) -> int:
    """The largest scale either leg of ``s`` carries on a cancellative apex
    component, 1 when there is none."""
    return max((leg.scales[i] for leg in (s.left, s.right)
                for i, k in enumerate(s.apex.components) if k.cancellative), default=1)


def test_bruteforce_matches_pair_search():
    # the codomain-guided walk and the composite join return the same first
    # commuting completion as testing every pair of legs of every target,
    # with completion scales up to the span's own largest one and beyond
    cases = differential_cases()
    nones = 0
    for s, universe, max_index, max_k in cases:
        am = find_amalgam_bruteforce(s, universe, max_index=max_index, max_k=max_k)
        assert am == find_amalgam_by_pairs(s, universe, max_index, max_k), s
        for cap in (span_scale(s), span_scale(s) + 2):
            assert am == find_amalgam_by_pairs(s, universe, max_index, max_k, cap), (s, cap)
        nones += am is None
    assert (len(cases), nones) == (1045, 4)


def test_bruteforce_reads_completion_scales_off_the_span():
    # legs at scales 5 and 7 need completion scales 7 and 5, beyond the
    # default cap of the span legs; a larger cap finds the same amalgam
    z = parse_chain("Z")
    s = make_span(z, z, z, left_index=4, right_index=6, scale_cap=7)
    am = find_amalgam_bruteforce(s, parse_class_expr("[Z]"))
    assert (am.target, am.left.scales, am.right.scales) == (z, (7,), (5,))
    assert am == find_amalgam_by_pairs(s, parse_class_expr("[Z]"), scale_cap=9)


def test_bruteforce_builds_chain_maps_only_for_the_answer(monkeypatch):
    # legs are searched as (positions, scales) data: a search that finds an
    # amalgam builds its two legs and nothing more, one that finds none
    # builds no map
    built = []
    init = ChainMap.__init__

    def counting_init(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    u_star = parse_class_expr("[U*]")
    spans = [(make_span(parse_chain(a), parse_chain(b), parse_chain(c)), u_star)
             for a, b, c, *_ in PINNED_BRUTEFORCE]
    spans += [(make_span(parse_chain(a), parse_chain(b), parse_chain(c)), parse_class_expr(u))
              for a, b, c, u in NO_AMALGAM]
    monkeypatch.setattr(ChainMap, "__init__", counting_init)
    for s, universe in spans:
        built.clear()
        am = find_amalgam_bruteforce(s, universe)
        assert len(built) == (0 if am is None else 2), s


def test_composite_is_the_composed_function():
    # the composite rule that keys the brute-force search, on every pair of
    # span legs of the differential cases that compose: compose builds its
    # map from it, and that map is the pointwise composite on a window
    legs = set()
    for s, *_ in differential_cases():
        legs |= {s.left, s.right}
    pairs = [(outer, inner) for outer in legs for inner in legs if inner.target == outer.source]
    for outer, inner in pairs:
        both = compose(outer, inner)
        assert _composite(outer.index_map, outer.scales, inner) == (both.index_map, both.scales)
        assert verify_embedding(both)
        for x in enumerate_elements(inner.source, 2):
            assert apply_map(both, x) == apply_map(outer, apply_map(inner, x))
    assert len(pairs) == 512


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
    assert kind_embeds_by_greedy(a, b) == bool(enumerate_embeddings(a, b))


@DETERMINISTIC
@given(same_bounds, st.integers(1, 4))
def test_embedding_choices_are_the_enumeration(pair, scale_cap):
    # the search's leg data and the listed maps come in one order, and both
    # are every verified embedding up to the scale cap, sorted by positions
    # then by scales
    a, b = pair
    legs = list(embedding_choices(a, b, scale_cap))
    assert legs == [(m.index_map, m.scales) for m in enumerate_embeddings(a, b, scale_cap)]
    assert legs == embeddings_by_verification(a, b, scale_cap)


@settings(DETERMINISTIC, max_examples=100)
@given(chains_of(False), chains_of(True))
def test_kind_embeds_bounds_mismatch_raises(hoop, bl):
    for a, b in ((hoop, bl), (bl, hoop)):
        for check in (kind_embeds_by_greedy, enumerate_embeddings):
            with pytest.raises(ModeMismatchError):
                check(a, b)


INTO_UNIVERSES = [
    parse_class_expr(u)
    for u in ("[U*]", "[(W2 Z)*]", "[W1 Z*]|[Z W1*]", "[UM U*]", "[L2 (W2 Z)*]", "[Lo2 Z* W1]")
]


@settings(DETERMINISTIC, max_examples=150)
@given(
    st.sampled_from(INTO_UNIVERSES).flatmap(
        lambda e: st.tuples(
            st.just(e), chains_of(e.bottom), chains_of(e.bottom), st.integers(1, 3), st.integers(1, 3)
        )
    )
)
def test_universe_walk_into_codomains_matches_filter(case):
    # the walk guided by the codomains yields exactly the plain walk's
    # members that both codomains embed into by kinds, in the same order
    e, b, c, max_index, max_k = case
    walk = universe_chains(e, max_index, max_k)
    assert list(universe_chains(e, max_index, max_k, into=(b, c))) == [
        t for t in walk if kind_embeds_by_greedy(b, t) and kind_embeds_by_greedy(c, t)
    ]


def test_universe_walk_into_edge_codomains():
    # trivial codomains: a bounded one embeds into no non-trivial member,
    # only into the trivial one, and an unbounded one into every member
    bl, hoop = parse_class_expr("[L2 (W2 Z)*]"), parse_class_expr("[W1 Z*]|[Z W1*]")
    assert list(universe_chains(bl, 3, 3, into=(chain((), bottom=True),))) == [
        chain((), bottom=True)
    ]
    assert list(universe_chains(hoop, 2, 2, into=(chain(()),))) == list(universe_chains(hoop, 2, 2))
    # the trivial target is left out once a codomain is not trivial
    assert [pretty_chain(t) for t in universe_chains(hoop, 2, 2, into=(parse_chain("Z"),))] == [
        "Z", "W1+Z", "Z+W1", "Z+Z",
    ]
    # L3's head embeds into the second component of L1+W3, not the first
    l1w3 = parse_class_expr("[L1 W3*]")
    assert "L1+W3" in [pretty_chain(t) for t in universe_chains(l1w3, 2, 3)]
    assert list(universe_chains(l1w3, 3, 3, into=(parse_chain("L3"),))) == []
    with pytest.raises(ModeMismatchError):
        list(universe_chains(bl, 2, 2, into=(parse_chain("W1"),)))


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
                                    am = Amalgam(psi1, psi2)
                                    exact = spans_commute(s, am)
                                    assert exact == window_commutes(s, am), (s, am)
                                    candidates += 1
                                    commuting += exact
    assert (candidates, commuting) == (15728, 7934)


def test_join_kinds_embeds_into_every_common_bound():
    # step 3 of amalgamate_constructive's completeness proof: two kinds that
    # embed into one kind have a join, and it embeds there too
    kinds = [fin_luk(n) for n in range(1, 13)] + [lex_omega(n) for n in range(1, 13)]
    kinds += [CANC_Z, STD_UNIT]
    bounded = 0
    for b, c, d in product(kinds, repeat=3):
        if kind_embeds(b, d) and kind_embeds(c, d):
            assert kind_embeds(_join_kinds(b, c), d), (b, c, d)
            bounded += 1
    assert bounded == 937


def test_join_kinds_matches_case_table():
    # the join read off the local embeddings agrees with the case table on
    # every ordered pair, the unrepresentable joins included
    kinds = [fin_luk(n) for n in range(1, 13)] + [lex_omega(n) for n in range(1, 13)]
    kinds += [CANC_Z, STD_UNIT]
    pairs = list(product(kinds, repeat=2))
    assert len(pairs) == 676
    for b, c in pairs:
        assert _join_kinds(b, c) == join_kinds_by_cases(b, c), (b, c)


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


def _middle_of_three():
    w1, w3 = parse_chain("W1"), parse_chain("W1+W1+W1")
    return Span(w1, ChainMap(w1, w3, (1,), (1,)), ChainMap(w1, w3, (1,), (1,)))


def _z_scaled(left, right):
    z = parse_chain("Z")
    return Span(z, ChainMap(z, z, (0,), (left,)), ChainMap(z, z, (0,), (right,)))


def _parsed_span(a, b, c):
    return make_span(parse_chain(a), parse_chain(b), parse_chain(c))


FUSED_HEADS = ("L6+Z+W1", ((0, 1), (1, 1)), ((0, 2), (1, 1)))


@pytest.mark.parametrize(
    "span,universe,answer",
    [
        # unanchored components before and after an anchor in a starred item
        (_middle_of_three(), "[W1*]",
         ("W1+W1+W1+W1+W1", ((0, 2, 3), (1, 1, 1)), ((1, 2, 4), (1, 1, 1)))),
        # a plain item with no anchor
        (_parsed_span("T", "W2", "W3"), "[W6]", ("W6", ((0,), (1,)), ((0,), (1,)))),
        # the apex's scales, crosswise
        (_z_scaled(2, 3), "[Z]", ("Z", ((0,), (3,)), ((0,), (2,)))),
        # a shared slot with no join
        (_parsed_span("W1", "Wo1", "U"), "[U*]", None),
        # heads that fuse when bounds are designated
        (_parsed_span("L1", "L2+Z", "L3+W1"), "[UM U*]", FUSED_HEADS),
        (_parsed_span("L1", "L2+Z", "L3+W1"), "[L6 (W1 Z)*]", FUSED_HEADS),
    ],
    ids=["anchor-in-star", "plain-item", "crosswise-scales", "no-join", "heads-UM", "heads-L6"],
)
def test_constructive_answer_per_merge_branch(span, universe, answer):
    # the target, then each leg's index map and scales, pinned on one span
    # for each way the merge of the two assignments can place a component
    am = amalgamate_constructive(span, parse_class_expr(universe))
    got = am and (pretty_chain(am.target),
                  (am.left.index_map, am.left.scales), (am.right.index_map, am.right.scales))
    assert got == answer


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
    wrong = Amalgam(am.left, CollapsingMap(g, Filter(0), am.right.embed))
    assert not spans_commute(s, wrong) and not window_commutes(s, wrong)
    # a cancellative apex inside a lexicographic radical collapses with it
    z, wo = parse_chain("Z"), parse_chain("Wo1")
    s = make_span(z, z, wo)
    am = one_sided_amalgam(s, parse_class_expr("[Wo1]"))
    assert am.right.collapse == Filter(1) and spans_commute(s, am)
    for f in (Filter(0), Filter(0, radical=True)):
        wrong = Amalgam(am.left, CollapsingMap(wo, f, am.right.embed))
        assert not spans_commute(s, wrong) and not window_commutes(s, wrong)


def test_one_sided_is_plain_data():
    s = make_span(chain(()), parse_chain("W1"), parse_chain("Z"))
    universe = parse_class_expr("[W1]|[Z]")
    assert one_sided_amalgam(s, universe) == one_sided_amalgam(s, universe)


def test_one_sided_none_within_bounds():
    # the right leg is essential and no member holds both codomains
    s = make_span(parse_chain("W1"), parse_chain("W1+Z"), parse_chain("Z+W1"))
    assert is_essential_embedding(s.right)
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


DIFFERENTIAL_UNIVERSES = ("[(W2 Wo1)*]", "[L1 (W1 Z)*]", "[Lo1 Z]|[L1]", "[UM U*]")


def _within(am, max_index, max_k) -> bool:
    t = am.target
    return t.index <= max_index and all(k.k <= max_k for k in t.components if k.tag in (FIN, LEX))


def test_constructive_route_is_complete_against_bruteforce():
    # amalgamate_constructive's docstring proves it finds an amalgam whenever
    # one exists in the universe; over every span of small chains the bounded
    # search never finds one it misses, and finds one whenever the
    # constructive target lies within its index and parameter bounds (the
    # constructive scales are the span's, crosswise, so the search reaches
    # them)
    universes = [e for name in ("I(W1)", "I(Wo1)", "I(Z)", "I(W1,Z)")
                 for e in interval_by_name(name).nodes]
    universes += [parse_class_expr(u) for u in DIFFERENTIAL_UNIVERSES]
    bounds = {"max_index": 3, "max_k": 2}
    spans = by_brute = by_route = within = 0
    for u in universes:
        chains = list(universe_chains(u, 2, 2))
        for a, b, c in product(chains, repeat=3):
            for left in enumerate_embeddings(a, b, 2):
                for right in enumerate_embeddings(a, c, 2):
                    s = Span(a, left, right)
                    brute = find_amalgam_bruteforce(s, u, **bounds)
                    am = amalgamate_constructive(s, u)
                    if am is None:
                        assert brute is None, (s, u)
                    else:
                        # the route checks positions and scales, not kinds
                        assert verify_embedding(am.left) and verify_embedding(am.right), (s, u)
                        inside = _within(am, **bounds)
                        assert brute is not None or not inside, (s, u)
                        within += inside
                    spans += 1
                    by_brute += brute is not None
                    by_route += am is not None
    assert (spans, by_brute, by_route, within) == (14911, 13455, 13469, 13075)


def test_every_span_in_a_catalog_node_one_sided_amalgamates():
    # the decisive property of the classified classes: essential spans have
    # amalgams, so arbitrary spans have one-sided amalgams after collapsing
    import random

    from blcalc.classify import enumerate_catalog

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
            am = one_sided_amalgam(s, node)
            assert spans_commute(s, am)
            from blcalc.classes import member

            assert member(am.target, node)
            assert verify_embedding(am.left)
            if is_essential_embedding(s.right):
                assert not am.one_sided
            checked += 1
    assert checked > 100


def test_amalgam_completions_verified():
    s = w_span(2, 4, 6)
    am = amalgamate_constructive(s, ALL_WAJSBERG)
    assert spans_commute(s, am) and window_commutes(s, am)
