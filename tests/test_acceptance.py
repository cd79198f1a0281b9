"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with -s to see the lines as they pass; budgets are asserted on wall time.
"""

import math
import random
import time

from oracles import (
    RotationChain,
    _window_values,
    oracle_membership,
    recompute_cover_relation,
    rot_le,
    rot_op,
    rotation_embed,
    small_chains,
)

from blcalc.amalgam import (
    amalgamate_constructive,
    find_amalgam_bruteforce,
    make_span,
    one_sided_amalgam,
    spans_commute,
    universe_chains,
)
from blcalc.classes import generated_by, vfc_equals, vfc_membership
from blcalc.classify import (
    classify_ap_bh,
    classify_ap_bl,
    enumerate_catalog,
    interval,
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
from blcalc.decompose import decompose, flatten
from blcalc.dsl import parse_chain, parse_class_expr, pretty_chain
from blcalc.formulas import (
    consequence,
    find_interpolant,
    formula_vars,
    mine_valid_consequences,
)
from blcalc.maps import is_essential_embedding

def report(number: int, text: str):
    print(f"PASS criterion {number}: {text}")


def test_criterion_1_interval_cardinalities():
    start = time.time()
    for param in [fin_luk(1), fin_luk(2), CANC_Z, STD_UNIT]:
        p = interval((param,))
        assert len(p.nodes) == 2
        assert set(recompute_cover_relation(p)) == set(p.covers)
    for n in (1, 2):
        p = interval((lex_omega(n),))
        assert len(p.nodes) == 3
        assert set(recompute_cover_relation(p)) == set(p.covers)
    for n in (1, 2, 3):
        p = interval((fin_luk(n), CANC_Z))
        assert len(p.nodes) == 13
        assert set(recompute_cover_relation(p)) == set(p.covers)
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(1, f"interval cardinalities 2/3/13 with covers re-derived "
              f"({elapsed:.2f}s)")


def test_criterion_2_catalog_regression():
    start = time.time()
    yes = ["[UM U*]", "[UM]", "[L1 W1*]", "[L1 Z]"]
    yes += [f"[L{k}]" for k in range(1, 7)]
    for text in yes:
        assert classify_ap_bl(parse_class_expr(text)).ap, text
    assert not classify_ap_bh(generated_by(parse_chain("W1+W1"))).ap
    assert not classify_ap_bl(parse_class_expr("[L1 W1 W1]")).ap
    assert not classify_ap_bh(parse_class_expr("[W1 Z]|[Z W1]")).ap
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(2, f"known-logic verdicts reproduced ({elapsed:.2f}s)")


def test_criterion_3_oracle_vs_construction():
    start = time.time()
    universe = parse_class_expr("[U]")
    checked = 0
    for g in range(1, 7):
        for a in range(g, 7, g):
            for b in range(g, 7, g):
                span = make_span(
                    parse_chain(f"W{g}"), parse_chain(f"W{a}"), parse_chain(f"W{b}")
                )
                constructed = amalgamate_constructive(span, universe)
                lcm = math.lcm(a, b)
                assert constructed.target.components == (fin_luk(lcm),)
                assert spans_commute(span, constructed)
                found = find_amalgam_bruteforce(
                    span, universe, max_index=1, max_k=7
                )
                assert found is not None and spans_commute(span, found)
                if lcm <= 7:
                    assert found.target == constructed.target
                else:
                    # no finite chain fits under the bound, so the search ends
                    # at the unit-interval chain; raising the bound to the
                    # constructed parameter restores exact agreement
                    assert found.target.components == (STD_UNIT,)
                    refound = find_amalgam_bruteforce(
                        span, universe, max_index=1, max_k=lcm
                    )
                    assert refound.target == constructed.target
                checked += 1
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(3, f"oracle and lcm construction agree on {checked} spans "
              f"({elapsed:.2f}s)")


def test_criterion_4_rotation_identity():
    start = time.time()

    for base in (CANC_Z, TRIVIAL):
        rot = RotationChain(base)
        window = rot.window(10)
        for k in (1, 2, 3):
            target = lex_omega(k)
            images = [rotation_embed(p, k) for p in window]
            assert len(set(images)) == len(window)
            for p, fp in zip(window, images):
                for q, fq in zip(window, images):
                    assert rot_le(rot, p, q) == (fp <= fq)
                    for op in ("mul", "imp", "meet", "join"):
                        image = rotation_embed(rot_op(rot, op, p, q), k)
                        assert image == component_op(target, op, fp, fq)
    window = RotationChain(CANC_Z).window(10)
    images = {rotation_embed(p, 1) for p in window}
    assert images == set(_window_values(lex_omega(1), 10)) | {(1, 0)}
    elapsed = time.time() - start
    report(4, f"rotated cancellative chain = the k=1 lexicographic chain on "
              f"|b|<=10 windows; embeddings verified for k<=3 ({elapsed:.2f}s)")


def test_criterion_5_essential_machinery():
    start = time.time()
    span = make_span(chain(()), parse_chain("W1"), parse_chain("Z"))
    universe = parse_class_expr("[W1]|[Z]")
    # kind-exhaustive universe under the bounds
    names = [pretty_chain(c) for c in universe_chains(universe, 3, 3)]
    assert names == ["T", "W1", "Z"]
    assert find_amalgam_bruteforce(span, universe, max_index=3, max_k=3) is None
    assert not is_essential_embedding(span.right)
    am = one_sided_amalgam(span, universe)
    assert am.one_sided
    assert pretty_chain(am.target) == "W1"
    assert spans_commute(span, am)
    elapsed = time.time() - start
    report(5, f"one-sided amalgam exists where no amalgam does ({elapsed:.2f}s)")


def test_criterion_6_membership_engine_equivalence():
    start = time.time()
    for bottom in (False, True):
        chains = small_chains(6, bottom=bottom)
        gens = [g for g in chains if not g.is_trivial]
        for g in gens:
            v = generated_by(g)
            for x in chains:
                assert vfc_membership(x, v) == oracle_membership(x, g), (
                    pretty_chain(x),
                    pretty_chain(g),
                )
    elapsed = time.time() - start
    assert elapsed < 120.0
    report(6, f"membership engine equals subalgebras-of-quotients oracle "
              f"on all size-<=6 inputs ({elapsed:.2f}s)")


def test_criterion_7_decomposition_round_trip():
    start = time.time()
    rng = random.Random(20260810)
    for _ in range(200):
        kinds = tuple(
            fin_luk(rng.randint(1, 5)) for _ in range(rng.randint(1, 4))
        )
        c = chain(kinds, bottom=rng.random() < 0.5)
        d = decompose(flatten(c))
        assert d.chain == c
        # the component predicate induces exactly this partition
        expected_blocks = []
        pos = 0
        for k in c.components:
            expected_blocks.append(tuple(range(pos, pos + k.k)))
            pos += k.k
        assert list(d.blocks) == expected_blocks
    elapsed = time.time() - start
    report(7, f"decompose(flatten(c)) = c for 200 random chains ({elapsed:.2f}s)")


def test_criterion_8_interpolation():
    start = time.time()
    import os

    seed = int(os.environ.get("BLCALC_SEED", "20260810"))
    rng = random.Random(seed)
    gens = [parse_chain("L2")]
    pairs = mine_valid_consequences(gens, 50, ["p", "q", "r"], rng, depth=3)
    for premise, conclusion in pairs:
        chi = find_interpolant(premise, conclusion, gens, limit=100_000)
        assert chi is not None
        shared = formula_vars(premise) & formula_vars(conclusion)
        assert formula_vars(chi) <= shared
        assert consequence(premise, chi, gens).holds
        assert consequence(chi, conclusion, gens).holds
    elapsed = time.time() - start
    report(8, f"50 mined consequences all interpolated within the closure "
              f"bound ({elapsed:.2f}s)")


def test_criterion_9_countability_at_desk_scale():
    start = time.time()
    catalog1 = enumerate_catalog("bh", 1)
    assert len(catalog1) == 23  # trivial + 2 + 2 + (2 + 3 + 13)
    catalog3 = enumerate_catalog("bh", 3)
    assert len(catalog3) == 59  # trivial + 2 + 2 + 3*(2 + 3 + 13)
    entries = [e for e, _, _ in catalog3 if e is not None]
    for i, e1 in enumerate(entries):
        for e2 in entries[i + 1:]:
            verdict, witness = vfc_equals(e1, e2)
            assert verdict != "equal"
            assert witness is not None
    elapsed = time.time() - start
    report(9, f"catalog sizes 23/59 with all {len(entries)} entries pairwise "
              f"witness-separated ({elapsed:.2f}s)")
