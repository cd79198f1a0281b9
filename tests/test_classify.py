"""Amalgamation-property verdicts, interval posets, and the catalog."""

import hashlib
import json
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blcalc.amalgam import Span, one_sided_amalgam, universe_chains
from blcalc.classes import (
    Item,
    class_expr,
    generated_by,
    normalize_kinds,
    vfc_equals,
)
from blcalc.classify import (
    _check_distinct_classes,
    classify_ap_bh,
    classify_ap_bl,
    classify_ap_mv,
    classify_ap_wh,
    emit_poset,
    enumerate_catalog,
    interval,
    interval_by_name,
)
from blcalc.core import CANC_Z, STD_UNIT, TRIVIAL, chain, fin_luk, lex_omega
from blcalc.dsl import parse_chain, parse_class_expr, pretty_chain, pretty_class_expr
from blcalc.maps import enumerate_embeddings

from oracles import (
    classify_by_scan,
    equals_by_witness_search,
    pairwise_bl_catalog,
    recompute_cover_relation,
    small_chains,
)
from test_roundtrip import class_exprs


def test_normalize_kinds():
    assert normalize_kinds([fin_luk(2), fin_luk(4)]) == (fin_luk(4),)
    assert normalize_kinds([fin_luk(2), lex_omega(4)]) == (lex_omega(4),)
    assert normalize_kinds([CANC_Z, lex_omega(3)]) == (lex_omega(3),)
    assert normalize_kinds([fin_luk(2), fin_luk(3)]) == (fin_luk(2), fin_luk(3))
    assert normalize_kinds([STD_UNIT, fin_luk(9), CANC_Z]) == (STD_UNIT,)


def test_classify_mv():
    v = generated_by(parse_chain("L2"), parse_chain("L4"))
    verdict = classify_ap_mv(v)
    assert verdict.ap and pretty_class_expr(verdict.canonical) == "[L4]"
    assert not classify_ap_mv(generated_by(parse_chain("L2"), parse_chain("L3"))).ap
    assert classify_ap_mv(parse_class_expr("[UM]")).ap
    assert classify_ap_mv(
        generated_by(parse_chain("L2"), parse_chain("Lo4"))
    ).ap
    with pytest.raises(ValueError):
        classify_ap_mv(generated_by(parse_chain("L1+W1")))


def _verdict_json(classify_ap, gens, bottom=False):
    chains = [parse_chain(g) for g in gens] or [chain((), bottom=bottom)]
    return classify_ap(generated_by(*chains)).to_json()


def _verdict(ap, canonical=None, interval=None, witness=None):
    return {"ap": ap, "canonical": canonical, "interval": interval, "witness": witness}


def test_classify_mv_json():
    cases = [
        (["L2"], _verdict(True, "[L2]", "MV(W2)")),
        (["L2", "Lo4"], _verdict(True, "[Lo4]", "MV(Wo4)")),
        (["L2", "L3"], _verdict(False, witness="L2")),
        ([], _verdict(True, interval="Trivial")),
    ]
    for gens, expected in cases:
        assert _verdict_json(classify_ap_mv, gens, bottom=True) == expected, gens


def test_classify_wh():
    assert classify_ap_wh(generated_by(parse_chain("W3"), parse_chain("Z"))).ap
    assert not classify_ap_wh(generated_by(parse_chain("W2"), parse_chain("W3"))).ap
    assert classify_ap_wh(generated_by(parse_chain("Wo2"))).ap
    assert classify_ap_wh(generated_by(parse_chain("Wo2"), parse_chain("Z"))).ap
    assert classify_ap_wh(parse_class_expr("[U]")).ap
    assert not classify_ap_wh(
        generated_by(parse_chain("Wo2"), parse_chain("W3"))
    ).ap


def test_classify_wh_json():
    cases = [
        (["W2"], _verdict(True, "[W2]", "WH(W2)")),
        (["W3", "Z"], _verdict(True, "[W3]|[Z]", "WH(W3,Z)")),
        (["W2", "W3"], _verdict(False, witness="W2")),
        ([], _verdict(True, interval="Trivial")),
    ]
    for gens, expected in cases:
        assert _verdict_json(classify_ap_wh, gens) == expected, gens


def _unions(gens):
    return [c for r in (1, 2, 3) for c in combinations(gens, r)]


def test_single_generator_routes_agree():
    # the one-component rule and the interval scan give the same AP answer on
    # unions of one-component generators
    hoops = _unions("W1 W2 W3 W4 W6 Wo1 Wo2 Wo3 Z U T".split())
    bls = _unions("L1 L2 L3 L4 L6 Lo1 Lo2 Lo3 UM".split())
    assert len(hoops) + len(bls) == 360
    for gens in hoops:
        v = generated_by(*map(parse_chain, gens))
        assert classify_ap_wh(v).ap == classify_ap_bh(v).ap, gens
    for gens in bls:
        v = generated_by(*map(parse_chain, gens))
        assert classify_ap_mv(v).ap == classify_ap_bl(v).ap, gens


def test_classify_bh_canonical_nodes():
    verdict = classify_ap_bh(parse_class_expr("[(W1 Z)*]"))
    assert verdict.ap and verdict.interval == "I(W1,Z):12"
    verdict = classify_ap_bh(parse_class_expr("[W2*]"))
    assert verdict.ap and verdict.interval == "I(W2):1"
    verdict = classify_ap_bh(parse_class_expr("[W1* Wo1]"))
    assert verdict.ap and verdict.interval == "I(Wo1):1"
    verdict = classify_ap_bh(parse_class_expr("[Z]"))
    assert verdict.ap and verdict.interval == "I(Z):0"


def test_classify_bh_generators():
    verdict = classify_ap_bh(generated_by(parse_chain("W1+W1")))
    assert not verdict.ap
    assert pretty_chain(verdict.witness) == "W1+W1+W1"
    assert classify_ap_bh(generated_by(parse_chain("W2"))).ap
    assert classify_ap_bh(generated_by(parse_chain("Wo1"))).ap
    # a variety generated by a single chain is never a starred node
    for text in ["W1+W1", "W2+W2+W2", "W1+Z", "Wo2+W2"]:
        verdict = classify_ap_bh(generated_by(parse_chain(text)))
        if verdict.ap:
            assert "*" not in pretty_class_expr(verdict.canonical)


def test_witness_is_pumped_the_least_number_of_times():
    # the first node above [W1*]|[Wo1] is told apart by W1+Wo1, its star
    # pumped once; a search that began at two copies would answer W1+W1+Wo1
    verdict = classify_ap_bh(parse_class_expr("[W1*]|[Wo1]"))
    assert not verdict.ap
    assert pretty_chain(verdict.witness) == "W1+Wo1"


def test_classify_bounded_run_next_to_a_star():
    # a bounded run of the kind a star repeats is no interval node
    for text in ["[Z* W1 W1]", "[W1* Z Z]"]:
        assert not classify_ap_bh(parse_class_expr(text)).ap, text
    verdict = classify_ap_bh(parse_class_expr("[Z* W1 W1]"))
    assert pretty_chain(verdict.witness) == "Z+Z+Z+W1+W1+W1"


def test_classify_bh_rejects_bad_kind_sets():
    assert not classify_ap_bh(generated_by(parse_chain("W2+W3"))).ap
    assert not classify_ap_bh(
        parse_class_expr("[W1 Z]|[Z W1]")
    ).ap
    assert not classify_ap_bh(parse_class_expr("[Wo2 W4]")).ap


def test_classify_bh_trivial():
    verdict = classify_ap_bh(generated_by(chain(())))
    assert verdict.ap and verdict.interval == "Trivial"


def test_classify_bl_trivial():
    verdict = classify_ap_bl(generated_by(chain((), bottom=True)))
    assert verdict.ap and verdict.interval == "Trivial"


def test_classify_bl_regressions():
    cases = {
        "[UM U*]": True,     # the whole variety
        "[UM]": True,        # its MV chains
        "[L1 W1*]": True,    # idempotent chains
        "[L1 Z]": True,      # product-style chains
        "[L1 W1 W1]": False,
        "[Lo2]": True,
        "[Lo1 W1*]": True,
        "[L2 (W1 Z)*]": True,
        "[Lo9 Z Z W6*]": False,  # Lo9+Z+Z+Z separates it from [Lo9 Z* W6*]
    }
    for text, expected in cases.items():
        verdict = classify_ap_bl(parse_class_expr(text))
        assert verdict.ap == expected, text
    for k in range(1, 7):
        assert classify_ap_bl(parse_class_expr(f"[L{k}]")).ap


def test_classify_bl_case_four():
    text = "[Lo1 W1]|[L1 Z]"
    verdict = classify_ap_bl(parse_class_expr(text))
    assert verdict.ap and verdict.interval.startswith("BL-case-4")
    text = "[L1 W1]|[Lo1 Z*]"
    verdict = classify_ap_bl(parse_class_expr(text))
    assert verdict.ap and verdict.interval.startswith("BL-case-4")
    # both heads infinite is case 2 over the union node, not case 4
    text = "[Lo1 W1]|[Lo1 Z]"
    verdict = classify_ap_bl(parse_class_expr(text))
    assert verdict.ap and verdict.interval.startswith("BL-case-2")


def test_classify_bl_case_three():
    text = "[L2 W1*]|[Lo2]"
    verdict = classify_ap_bl(parse_class_expr(text))
    assert verdict.ap and verdict.interval.startswith("BL-case-3")


def test_classify_bl_generators():
    assert classify_ap_bl(generated_by(parse_chain("L2"))).ap
    assert classify_ap_bl(generated_by(parse_chain("L1+W1"))).ap
    assert not classify_ap_bl(generated_by(parse_chain("L1+W1+W1"))).ap
    assert not classify_ap_bl(
        generated_by(parse_chain("L2"), parse_chain("L3"))
    ).ap


def test_gens_and_class_routes_agree():
    # a generator and its one-sum class expression are the same variety
    for bottom, classify in ((False, classify_ap_bh), (True, classify_ap_bl)):
        for g in small_chains(6, bottom):
            if g.is_trivial:
                continue
            text = "[" + pretty_chain(g).replace("+", " ") + "]"
            by_class = classify(parse_class_expr(text)).to_json()
            assert by_class == classify(generated_by(g)).to_json(), text


def test_trivial_generator_adds_nothing():
    # the trivial chain lies in every variety, with or without bounds
    for bottom, classify, text in ((False, classify_ap_bh, "W2"), (True, classify_ap_bl, "L2")):
        g = parse_chain(text)
        with_trivial = classify(generated_by(chain((), bottom=bottom), g)).to_json()
        assert with_trivial == classify(generated_by(g)).to_json()
        assert with_trivial["ap"] is True


# The ap: false inputs of the tests above.  No node has their form.  Those
# whose kinds start an interval lie below a node, whose chain outside them
# is the witness; the others have no node at all.
SCANNED = ("[Z* W1 W1]", "[W1* Z Z]", "[W1 Z]|[Z W1]", "[W1 W1]", "[L1 W1 W1]", "[Lo9 Z Z W6*]")
NOT_SCANNED = ("[Wo2 W4]", "[W2 W3]", "[L2]|[L3]")


def _classify(v):
    return (classify_ap_bl if v.bottom else classify_ap_bh)(v)


def test_classify_looks_up_what_the_scan_finds():
    entries = [e for mode in ("bl", "bh") for e, _, _ in enumerate_catalog(mode, 3)]
    scanned = [parse_class_expr(text) for text in SCANNED]
    failing = scanned + [parse_class_expr(text) for text in NOT_SCANNED]
    for v in [e for e in entries if e is not None] + failing:
        assert _classify(v).to_json() == classify_by_scan(v).to_json(), repr(v)
    assert not any(_classify(v).ap for v in failing)
    assert all(_classify(v).witness is not None for v in scanned)


def test_catalog_entries_are_found_by_form(monkeypatch):
    # every catalog entry hits a node's form: none looks for a node above it,
    # which only a miss does
    import blcalc.classify

    def no_miss(v, node):
        raise AssertionError(f"{v!r} missed every form")

    monkeypatch.setattr(blcalc.classify, "class_includes", no_miss)
    for mode in ("bl", "bh"):
        for e, _, _ in enumerate_catalog(mode, 3):
            if e is not None:
                assert _classify(e).ap, repr(e)


def test_classify_matches_the_scan_on_every_small_class():
    # every hoop class of one or two sum classes, each of one or two plain or
    # starred items over W1, Wo1 and Z, and every BL class of one or two sum
    # classes, each an L1 or Lo1 head over such a sum class or alone; both
    # modes meet hits and witnessed misses, and the mixed heads also miss
    # over tails that hit.  The SHA-256 of each list's JSON pins its bytes
    kinds = (fin_luk(1), lex_omega(1), CANC_Z)
    items = [Item((k,), star) for k in kinds for star in (False, True)]
    sums = [t for r in (1, 2) for t in product(items, repeat=r)]
    heads = (fin_luk(1), lex_omega(1))
    bl_tails = [t for r in (1, 2) for t in combinations(sums + [()], r)]
    for cases, size, digest in (
        (
            [class_expr(t) for r in (1, 2) for t in combinations(sums, r)],
            903,
            "2a6fc7d680c473cb4d6ed69cd1968b1a0244a74b9842cfbc54e17b48458a8f14",
        ),
        (
            [class_expr([(Item((h,)),) + s for h, s in zip(hs, t)], True)
             for t in bl_tails for hs in product(heads, repeat=len(t))],
            3698,
            "376ffbe8e67339243cc930a9ea5aece68f9c651827f73d0c7812144d021573f2",
        ),
    ):
        verdicts = []
        for v in cases:
            verdicts.append(_classify(v).to_json())
            assert verdicts[-1] == classify_by_scan(v).to_json(), repr(v)
        assert any(j["ap"] for j in verdicts)
        assert any(not j["ap"] and j["witness"] for j in verdicts)
        assert len(verdicts) == size
        assert hashlib.sha256(json.dumps(verdicts, sort_keys=True).encode()).hexdigest() == digest


def test_single_generator_forms_are_the_normalized_kinds():
    # the ap: true form of a union of single generators is the union of its
    # normalized kinds, one plain sum class each
    kinds = (fin_luk(1), fin_luk(2), lex_omega(1), lex_omega(2), CANC_Z, STD_UNIT, TRIVIAL)
    seen = set()
    for bottom, classify in ((False, classify_ap_wh), (True, classify_ap_mv)):
        pool = [k for k in kinds if k.bounded or not bottom]
        for r in (1, 2, 3):
            for combo in product(pool, repeat=r):
                v = class_expr([(Item((k,)),) for k in combo], bottom)
                verdict = classify(v)
                seen.add(verdict.ap)
                if verdict.ap and normalize_kinds(combo):
                    assert verdict.canonical == class_expr(
                        [(Item((k,)),) for k in normalize_kinds(combo)], bottom
                    ), repr(v)
                else:
                    assert verdict.canonical is None, repr(v)
    assert seen == {True, False}


SMALL_KINDS = st.sampled_from((fin_luk(1), fin_luk(2), lex_omega(1), CANC_Z, TRIVIAL))
SMALL_HEADS = st.sampled_from((fin_luk(1), lex_omega(1)))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.one_of(class_exprs(), class_exprs(SMALL_KINDS, SMALL_HEADS)))
def test_classify_matches_the_scan(v):
    assert _classify(v).to_json() == classify_by_scan(v).to_json(), repr(v)


def test_interval_shapes():
    for param in [fin_luk(1), fin_luk(2), CANC_Z, STD_UNIT]:
        p = interval((param,))
        assert len(p.nodes) == 2 and p.covers == ((0, 1),)
    for n in (1, 2):
        p = interval((lex_omega(n),))
        assert len(p.nodes) == 3 and p.covers == ((0, 1), (1, 2))
    for n in (1, 2, 3):
        p = interval((fin_luk(n), CANC_Z))
        assert len(p.nodes) == 13
        assert len(p.covers) == 22


@pytest.mark.parametrize(
    "name,nodes",
    [("I(W1)", 2), ("I(Z)", 2), ("I(U)", 2), ("I(Wo2)", 3), ("I(W2,Z)", 13)],
)
def test_interval_by_name(name, nodes):
    assert len(interval_by_name(name).nodes) == nodes
    assert interval_by_name(name).name == name
    with pytest.raises(ValueError):
        interval_by_name("I(nonsense)")


@pytest.mark.parametrize(
    "name",
    [
        "I(T)", "I(L1)", "I(Z,W1)", "I(W1,W2)", "I(Wo1,Z)", "I(U,Z)",
        "I(W1+Z)", "I(W0)", "I()", "I(W1,)", "W1", "I(W1",
    ],
)
def test_interval_by_name_unknown(name):
    with pytest.raises(ValueError, match=r"^unknown interval"):
        interval_by_name(name)


def test_interval_covers_rederived_from_inclusions():
    # nodes are listed bottom-up, so every cover goes up the node order, and
    # the covers read over the pairs i < j equal the all-pairs reduction
    kind_lists = [(CANC_Z,), (STD_UNIT,)]
    for n in range(1, 5):
        kind_lists += [(fin_luk(n),), (lex_omega(n),), (fin_luk(n), CANC_Z)]
    for p in map(interval, kind_lists):
        assert all(i < j for i, j in p.covers), p.name
        assert p.covers == recompute_cover_relation(p), p.name


def test_interval_covers_reduce_each_node_once(monkeypatch):
    # 13 nodes with 17 sum classes in all: each sum class is reduced once,
    # where deciding each of the 78 pairs by class_includes reduces both
    # nodes again
    import blcalc.classes

    reductions = []
    reduce = blcalc.classes._reduced_sum

    def counted(items, bottom):
        reductions.append(items)
        return reduce(items, bottom)

    p = interval((fin_luk(2), CANC_Z))
    monkeypatch.setattr(blcalc.classes, "_reduced_sum", counted)
    assert len(p.covers) == 22
    assert len(p.nodes) == 13
    assert len(reductions) == sum(len(e.sums) for e in p.nodes) == 17


def test_interval_nodes_classify_to_themselves():
    # fixed point: every node, fed back, lands at its own position
    for p in [interval((fin_luk(2),)), interval((lex_omega(1),)),
              interval((fin_luk(1), CANC_Z))]:
        for i, node in enumerate(p.nodes):
            verdict = classify_ap_bh(node)
            assert verdict.ap and verdict.interval == f"{p.name}:{i}", (p.name, i)


def test_catalog_counts():
    assert len(enumerate_catalog("bh", 1)) == 23
    assert len(enumerate_catalog("bh", 2)) == 41
    assert len(enumerate_catalog("bh", 3)) == 59


def test_catalog_rejects_bad_arguments():
    with pytest.raises(ValueError, match="n_max"):
        enumerate_catalog("bh", 0)
    with pytest.raises(ValueError, match="unknown mode"):
        enumerate_catalog("mv", 1)


def test_catalog_pairwise_separated():
    entries = [e for e, _, _ in enumerate_catalog("bh", 1) if e is not None]
    for i, e1 in enumerate(entries):
        for e2 in entries:
            if e1 is e2:
                continue
            verdict, witness = vfc_equals(e1, e2)
            assert verdict != "equal", (pretty_class_expr(e1), pretty_class_expr(e2))
            assert witness is not None


def test_bl_catalog_smoke():
    entries = enumerate_catalog("bl", 1)
    assert entries[0] == (None, "Trivial", 0)
    names = [pretty_class_expr(e) for e, _, _ in entries if e is not None]
    assert "[L1 (W1 Z)*]" in names
    assert len(names) == len(set(names))


def test_bl_catalog_counts():
    # the closed form of enumerate_catalog's docstring: 100, 318, 660
    for n in (1, 2, 3):
        assert len(enumerate_catalog("bl", n)) == 62 * n * n + 32 * n + 6


def test_bl_catalog_distinctness_check():
    # BL-case-3 over the trivial tail is the class of [Lo1]; listed beside
    # the catalog, it repeats a signature
    shapes = [e for e, _, _ in enumerate_catalog("bl", 1)[1:]]
    _check_distinct_classes(shapes)
    with pytest.raises(AssertionError, match="share a signature"):
        _check_distinct_classes(shapes + [parse_class_expr("[L1]|[Lo1]")])


@pytest.mark.parametrize("n_max", [1, 2])
def test_bl_catalog_matches_pairwise_dedupe(n_max):
    # the direct listing has the same entries, in the same order, as the
    # pairwise class_includes scan, which drops the one duplicate it is given
    assert enumerate_catalog("bl", n_max) == pairwise_bl_catalog(n_max)


def test_emit_poset():
    p = interval((fin_luk(1),))
    dot = emit_poset(p, "dot")
    assert dot.count("->") == 1 and "[W1]" in dot
    p13 = interval((fin_luk(1), CANC_Z))
    dot13 = emit_poset(p13, "dot")
    assert dot13.count("->") == 22
    assert len([l for l in dot13.splitlines() if "label=" in l]) == 13
    import json

    data = json.loads(emit_poset(p13, "json"))
    assert data["schema"] == "blcalc/1"
    assert len(data["nodes"]) == 13 and len(data["covers"]) == 22
    with pytest.raises(ValueError):
        emit_poset(p, "")


# ---------------------------------------------------------------------------
# Every small class against the one-sided amalgams of its small spans
# ---------------------------------------------------------------------------

SEARCH_ITEMS = ("W1", "Z", "W1*", "Z*", "(W1 Z)*")


def _sums(head: tuple, sizes) -> list:
    """Sum-class texts: ``head``, then ``n`` of ``SEARCH_ITEMS`` for each
    ``n`` in ``sizes``."""
    return [
        "[" + " ".join(head + items) + "]"
        for n in sizes
        for items in product(SEARCH_ITEMS, repeat=n)
    ]


def _small_hoop_exprs() -> list:
    """One sum class of 1-3 items, or two with at most 3 items in all."""
    ones = _sums((), (1,))
    return (
        _sums((), (1, 2, 3))
        + [f"{a}|{b}" for a, b in combinations(ones, 2)]
        + [f"{a}|{b}" for a in ones for b in _sums((), (2,))]
    )


def _small_bl_exprs() -> list:
    """A head L1 or Lo1 followed by 0-2 items: one sum class, or two with
    one head and at most 4 tokens in all; and [L1 X]|[Lo1 Y] for X and Y
    none, W1 or Z."""
    out = []
    for head in (("L1",), ("Lo1",)):
        bare, one, two = _sums(head, (0,)), _sums(head, (1,)), _sums(head, (2,))
        out += bare + one + two
        out += [f"{a}|{b}" for a in bare for b in one + two]
        out += [f"{a}|{b}" for a, b in combinations(one, 2)]
    out += [f"[L1{x}]|[Lo1{y}]" for x, y in product(("", " W1", " Z"), repeat=2)]
    return out


def _classes(texts) -> list:
    """The parsed expressions grouped by class (``equals_by_witness_search``),
    in the order their classes first occur."""
    groups = []
    for text in texts:
        e = parse_class_expr(text)
        for group in groups:
            if equals_by_witness_search(e, group[0])[0] == "equal":
                group.append(e)
                break
        else:
            groups.append([e])
    return groups


def _failing_span(e, k: int):
    """The first span over the chains of ``universe_chains(e, k, 1)``, legs
    at scale cap 1, with no one-sided amalgam in ``e``; ``None`` when every
    span has one."""
    chains = list(universe_chains(e, k, 1))
    for apex, b in product(chains, repeat=2):
        for left in enumerate_embeddings(apex, b, 1):
            for c in chains:
                for right in enumerate_embeddings(apex, c, 1):
                    s = Span(apex, left, right)
                    if one_sided_amalgam(s, e) is None:
                        return s
    return None


# Their failing span, W1 -> W1+W1 and W1 -> W1+W1+W1 (or the same over Z),
# has index 3, past the hoop search's span index 2.
BEYOND_HOOP_SPANS = ("[W1 W1 W1]", "[Z Z Z]")


def test_classification_matches_bounded_one_sided_search():
    # by the congruence extension property, a variety has AP exactly when
    # its spans of chains have one-sided amalgams: each small class is ap
    # exactly when every span of its bounded universe has one
    hoop_true = []
    for texts, k, classify, counts in (
        (_small_hoop_exprs(), 2, classify_ap_bh, (290, 57, 17)),
        (_small_bl_exprs(), 3, classify_ap_bl, (151, 44, 40)),
    ):
        groups = _classes(texts)
        n_true = 0
        for group in groups:
            e = group[0]
            ap = _failing_span(e, k) is None
            if repr(e) in BEYOND_HOOP_SPANS:
                assert ap and _failing_span(e, 3) is not None, repr(e)
                ap = False
            for v in group:
                assert classify(v).ap == ap, (repr(v), repr(e))
            n_true += ap
            if ap and classify is classify_ap_bh:
                hoop_true.append(e)
        assert (len(texts), len(groups), n_true) == counts
    for kinds in ((fin_luk(1),), (CANC_Z,), (fin_luk(1), CANC_Z)):
        for node in interval(kinds).nodes:
            assert any(
                equals_by_witness_search(node, e)[0] == "equal" for e in hoop_true
            ), repr(node)
