"""Amalgamation-property verdicts, interval posets, and the catalog."""

from itertools import combinations

import pytest

from blcalc.classes import generated_by
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
    normalize_kinds,
)
from blcalc.core import CANC_Z, STD_UNIT, chain, fin_luk, lex_omega
from blcalc.dsl import parse_chain, parse_class_expr, pretty_chain, pretty_class_expr

from oracles import (
    pairwise_bl_catalog,
    recompute_cover_relation,
    small_chains,
)


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
    from blcalc.classes import vfc_equals

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
