"""Cross-module invariant sweeps over small chain inventories."""

from itertools import product

from blcalc.core import (
    TOP,
    chain,
    check_axioms,
    enumerate_elements,
    fin_luk,
    ordinal_sum_table,
)
from blcalc.decompose import decompose, flatten
from blcalc.dsl import parse_chain, pretty_chain
from blcalc.maps import (
    apply_map,
    enumerate_embeddings,
    essentialize,
    filters,
    is_essential_embedding,
    quotient_by_filter,
)
from oracles import (
    check_axioms_by_scans,
    essential_by_filter_definition,
    small_chains,
)


def small_sums(max_comps, max_k):
    out = []
    for n in range(1, max_comps + 1):
        for ks in product(range(1, max_k + 1), repeat=n):
            out.append(chain(tuple(fin_luk(k) for k in ks)))
    return out


def test_ordinal_sums_of_finite_components_pass_axioms():
    for c in small_sums(3, 3):
        t = flatten(c)
        report = check_axioms(t)
        assert report == check_axioms_by_scans(t), pretty_chain(c)
        assert report.is_basic_hoop_chain, pretty_chain(c)


def test_scans_accept_every_small_ordinal_sum_table():
    # the structure theorem that lets check_axioms skip its cubic scans
    for bottom in (False, True):
        for c in small_chains(8, bottom):
            t = ordinal_sum_table([k.k for k in c.components], bottom)
            report = check_axioms_by_scans(t)
            assert report.is_basic_hoop_chain and report.bounded == bottom, pretty_chain(c)


def test_structural_essential_matches_definition_everywhere():
    # every embedding between sums of <= 3 components of size <= 4
    sources = small_sums(2, 3) + [chain(())]
    targets = small_sums(3, 4)
    checked = 0
    for a in sources:
        for b in targets:
            for m in enumerate_embeddings(a, b):
                assert is_essential_embedding(m) == essential_by_filter_definition(m)
                checked += 1
    assert checked > 500


def test_essentialize_output_is_essential_and_maximal():
    sources = small_sums(2, 2)
    targets = small_sums(3, 2)
    for a in sources:
        for b in targets:
            for m in enumerate_embeddings(a, b):
                ess = essentialize(m)
                assert is_essential_embedding(ess.map)
                # any strictly larger filter identifies two image points
                fc = filters(m.target)
                larger = [f for f in fc if fc.index(f) < fc.index(ess.theta0)]
                for f in larger:
                    _, project = quotient_by_filter(m.target, f)
                    src = enumerate_elements(a, 1)
                    images = {project(apply_map(m, x)) for x in src}
                    assert len(images) < len(src)


def test_quotient_shapes_are_prefix_plus_quotient():
    # collapsing any filter keeps a prefix and degrades at most the cut
    for c in small_sums(4, 2) + [parse_chain("W1+Wo2+W2"), parse_chain("Wo1+Wo2")]:
        for f in filters(c):
            q, _ = quotient_by_filter(c, f)
            assert q.components[: f.cut] == c.components[: f.cut]
            if f.radical:
                assert q.index == f.cut + 1
                assert q.components[f.cut] == fin_luk(c.components[f.cut].k)
            else:
                assert q.index == f.cut


def test_decompose_flatten_round_trip_exhaustive_small():
    for c in small_sums(3, 3):
        for bottom in (False, True):
            cc = chain(c.components, bottom=bottom)
            assert decompose(flatten(cc)).chain == cc


def test_dsl_absorbs_trivial_summands():
    assert parse_chain("W1+T") == parse_chain("W1")
    assert parse_chain("T+W1+T") == parse_chain("W1")
    assert pretty_chain(parse_chain("T")) == "T"


def test_closure_is_operation_closed():
    # the interpolation closure is a fixed point under all four connectives
    from blcalc.core import chain_op
    from blcalc.decompose import finite_elements
    from blcalc.formulas import parse_formula, _valuation_points

    L2 = parse_chain("L2")
    prem, conc = parse_formula("p /\\ q"), parse_formula("q \\/ r")
    points = _valuation_points(["q"], [L2])
    vectors = {tuple(TOP for _ in points)}
    vectors.add(tuple(finite_elements(L2)[0] for _ in points))
    vectors.add(tuple(combo[0] for _, combo in points))
    frontier = list(vectors)
    while frontier:
        new = []
        for a in list(vectors):
            for b in frontier:
                for op in ("mul", "imp", "meet", "join"):
                    for x, y in ((a, b), (b, a)):
                        v = tuple(
                            chain_op(L2, op, x[p], y[p]) for p in range(len(points))
                        )
                        if v not in vectors:
                            vectors.add(v)
                            new.append(v)
        frontier = new
    from blcalc.formulas import closure_size

    assert len(vectors) == closure_size(prem, conc, [L2]) == 12
    for a in vectors:
        for b in vectors:
            for op in ("mul", "imp", "meet", "join"):
                v = tuple(chain_op(L2, op, a[p], b[p]) for p in range(len(points)))
                assert v in vectors
