"""Formula evaluation, consequence, and interpolant search."""

import random
from itertools import islice, product

import pytest

import blcalc.formulas
from blcalc.classes import generated_by
from blcalc.core import MAX_TABLE_SIZE, TOP, NotLocallyFiniteError, element
from blcalc.decompose import finite_elements
from blcalc.dsl import parse_chain, parse_class_expr
from blcalc.formulas import (
    BinOp,
    ClosureLimitError,
    Const,
    MAX_FORMULA_DEPTH,
    FormulaError,
    Var,
    closure_size,
    consequence,
    dip_report,
    find_interpolant,
    formula_vars,
    mine_valid_consequences,
    parse_formula,
    pretty_formula,
    random_formula,
    term_closure,
)
from oracles import (
    consequence_by_eval,
    eval_formula,
    find_interpolant_by_chain_op,
    find_interpolant_by_walk,
    separated_by_pairs,
    term_closure_by_chain_op,
)


def test_parse_precedence():
    f = parse_formula("p*q -> r /\\ s")
    assert f == BinOp("meet", BinOp("imp", BinOp("mul", Var("p"), Var("q")),
                                    Var("r")), Var("s"))
    g = parse_formula("p -> q -> r")
    assert g == BinOp("imp", Var("p"), BinOp("imp", Var("q"), Var("r")))
    assert parse_formula("(p -> q) \\/ r") == BinOp(
        "join", BinOp("imp", Var("p"), Var("q")), Var("r")
    )


def test_parse_pretty_round_trip():
    for text in [
        "p -> q \\/ r",
        "(p \\/ q) * r",
        "p * (q -> 0) /\\ 1",
        "((p -> 0) -> p) * ((q -> p) -> q)",
    ]:
        f = parse_formula(text)
        assert parse_formula(pretty_formula(f)) == f


def test_parse_errors():
    with pytest.raises(FormulaError):
        parse_formula("p ->")
    with pytest.raises(FormulaError):
        parse_formula("(p")
    with pytest.raises(FormulaError):
        parse_formula("p & q")


def test_parse_depth_limit():
    n = MAX_FORMULA_DEPTH
    parens = "(" * n + "p" + ")" * n
    arrows = " -> ".join(["p"] * (n + 1))
    products = " * ".join(["p"] * (n + 1))
    assert parse_formula(parens) == Var("p")
    for text in (arrows, products):
        assert parse_formula(pretty_formula(parse_formula(text))) == parse_formula(text)
    for text in ("(" + parens + ")", arrows + " -> p", products + " * p",
                 "(" * 3000 + "p" + ")" * 3000, " -> ".join(["p"] * 3000)):
        with pytest.raises(FormulaError, match="nests deeper"):
            parse_formula(text)


def test_eval():
    L2 = parse_chain("L2")
    assert eval_formula(parse_formula("p -> p"), L2, {"p": element(L2, 0, 1)}) == TOP
    assert eval_formula(parse_formula("p*p"), L2, {"p": element(L2, 0, 1)}) == element(
        L2, 0, 0
    )
    notnot = parse_formula("(p -> 0) -> 0")
    assert eval_formula(notnot, L2, {"p": element(L2, 0, 1)}) == element(L2, 0, 1)
    with pytest.raises(FormulaError):
        eval_formula(parse_formula("q"), L2, {"p": TOP})
    with pytest.raises(FormulaError):
        eval_formula(parse_formula("0"), parse_chain("W2"), {})


def test_eval_substitution_property():
    # eval(f[x := g]) = eval(f) at x := eval(g)
    L2 = parse_chain("L2")
    f = parse_formula("p * q -> p")
    g = parse_formula("q -> 0")

    def substitute(h, name, repl):
        if isinstance(h, Var):
            return repl if h.name == name else h
        if isinstance(h, Const):
            return h
        return BinOp(h.op, substitute(h.left, name, repl),
                     substitute(h.right, name, repl))

    fg = substitute(f, "p", g)
    for q in finite_elements(L2):
        val = {"q": q}
        inner = eval_formula(g, L2, val)
        assert eval_formula(fg, L2, val) == eval_formula(f, L2, {"p": inner, "q": q})


def test_consequence():
    L2 = parse_chain("L2")
    assert consequence(parse_formula("p /\\ q"), parse_formula("p"), [L2]).holds
    # premise designated forces conclusion designated, so squaring is fine
    assert consequence(parse_formula("p"), parse_formula("p*p"), [L2]).holds
    res = consequence(parse_formula("p \\/ (p -> 0)"), parse_formula("p"), [L2])
    assert not res.holds
    gi, val = res.countermodel
    assert eval_formula(parse_formula("p \\/ (p -> 0)"), L2, val) == TOP
    assert eval_formula(parse_formula("p"), L2, val) != TOP
    boolean = parse_chain("W1")
    assert consequence(parse_formula("p"), parse_formula("p*p"), [boolean]).holds


def test_consequence_has_no_size_cap():
    # consequence computes on run bounds, not on tables, so a generator
    # above MAX_TABLE_SIZE is answered
    big = parse_chain(f"W{MAX_TABLE_SIZE + 500}")
    assert consequence(parse_formula("p"), parse_formula("p \\/ p"), [big]).holds
    res = consequence(parse_formula("p -> p * p"), parse_formula("p"), [big])
    assert res.countermodel == (0, {"p": element(big, 0, 0)})


def test_consequence_rejects_symbolic():
    with pytest.raises(ValueError):
        consequence(parse_formula("p"), parse_formula("p"), [parse_chain("Z")])


def test_find_interpolant_shared_variable():
    boolean = parse_chain("L1")
    chi = find_interpolant(
        parse_formula("p /\\ q"), parse_formula("p \\/ r"), [boolean]
    )
    assert pretty_formula(chi) == "p"


def test_find_interpolant_conclusion_in_shared_vars():
    L2 = parse_chain("L2")
    prem = parse_formula("p /\\ q")
    conc = parse_formula("q")
    chi = find_interpolant(prem, conc, [L2])
    assert chi is not None
    assert formula_vars(chi) <= {"q"}
    assert consequence(prem, chi, [L2]).holds
    assert consequence(chi, conc, [L2]).holds


def test_find_interpolant_requires_valid_consequence():
    L2 = parse_chain("L2")
    with pytest.raises(ValueError):
        find_interpolant(parse_formula("p \\/ (p -> 0)"), parse_formula("p"), [L2])
    with pytest.raises(NotLocallyFiniteError):
        find_interpolant(parse_formula("p"), parse_formula("p"), [parse_chain("Z")])


def test_find_interpolant_certified_failure():
    # regression fixture mined in the four-element chain with two idempotent
    # steps, whose variety fails amalgamation: the premise forces the shared
    # variable strictly above the first step, which no one-variable term can
    # express, so the full closure is exhausted without a hit
    g4 = parse_chain("L1+W1+W1")
    prem = parse_formula("((p -> 0) -> p) * ((q -> p) -> q)")
    conc = parse_formula("(r -> q) \\/ r")
    assert consequence(prem, conc, [g4]).holds
    assert find_interpolant(prem, conc, [g4]) is None
    assert closure_size(prem, conc, [g4]) == 6
    # the same shape of search succeeds one chain lower, where the variety
    # has amalgamation
    g3 = parse_chain("L1+W1")
    if consequence(prem, conc, [g3]).holds:
        assert find_interpolant(prem, conc, [g3]) is not None


def test_closure_limit():
    L2 = parse_chain("L2")
    prem = parse_formula("p /\\ q /\\ r")
    conc = parse_formula("p \\/ q \\/ r")
    with pytest.raises(ClosureLimitError):
        find_interpolant(prem, conc, [L2], limit=2)


def test_closure_is_fixed_point():
    # closing the closure adds nothing (spot check on one variable)
    L2 = parse_chain("L2")
    prem = parse_formula("p /\\ q")
    conc = parse_formula("q \\/ r")
    n1 = closure_size(prem, conc, [L2])
    assert n1 == 12  # unary term functions over the three-element chain
    assert n1 == closure_size(conc, prem, [L2])


def test_mixed_bounds_generators_rejected():
    # a generator list is one variety's; mixing bounded and unbounded chains
    # is an input error in either order.  term_closure checks it itself, as
    # its closure would otherwise depend on the order: 0 is a seed only when
    # the first generator is bounded
    L2, W2 = parse_chain("L2"), parse_chain("W2")
    p = parse_formula("p")
    for gens in ([L2, W2], [W2, L2]):
        for call in (consequence, find_interpolant, closure_size):
            with pytest.raises(ValueError, match="designated bounds"):
                call(p, p, gens)
        with pytest.raises(ValueError, match="designated bounds"):
            next(term_closure(["p"], gens))


def test_mined_interpolants_verify():
    L2 = parse_chain("L2")
    rng = random.Random(99)
    for prem, conc in mine_valid_consequences([L2], 10, ["p", "q", "r"], rng):
        chi = find_interpolant(prem, conc, [L2])
        assert chi is not None
        assert formula_vars(chi) <= (formula_vars(prem) & formula_vars(conc))
        assert consequence(prem, chi, [L2]).holds
        assert consequence(chi, conc, [L2]).holds


# Non-constant interpolants of 40 mined pairs per generator set, in mining
# order.  They pin the closure's traversal order: a change to it shows here.
PINNED_INTERPOLANTS = {
    "L2": ["p", "p", "r", "q", "q"],
    "L3": ["p", "r", "q", "p", "q", "r * q", "r"],
    "W2": ["r", "r", "q * p \\/ r", "r", "p", "r", "r", "p", "r", "p", "p",
           "r * p", "q", "q", "q * p", "r", "q * p * r"],
    "W3": ["r", "r", "q", "p", "r", "p", "q -> r", "q", "q", "r", "p",
           "q * p", "p", "q * p", "q"],
    "L1+W1": ["r", "p", "r", "r", "q", "r", "r", "q"],
    "L2,L3": ["r", "p", "r", "q", "p"],
}


def test_mined_interpolants_pinned():
    rng = random.Random(2)
    for text, expected in PINNED_INTERPOLANTS.items():
        gens = [parse_chain(t) for t in text.split(",")]
        got = []
        for prem, conc in mine_valid_consequences(gens, 40, ["p", "q", "r"], rng):
            chi = find_interpolant(prem, conc, gens)
            text_chi = None if chi is None else pretty_formula(chi)
            if text_chi not in ("0", "1"):
                got.append(text_chi)
        assert got == expected, text


def test_pinned_mining_runs_never_reach_the_pair_check(monkeypatch):
    # every pinned query hits before the walk has yielded as many vectors as
    # there are values at its points, so none pays for the pair check
    def unreachable(*args):
        raise AssertionError("pair check reached")

    monkeypatch.setattr(blcalc.formulas, "_separated", unreachable)
    test_mined_interpolants_pinned()


# The certified no-interpolant instance of the benchmark's interpolate
# workload: its closure over L2 and L3 has 192 elements.
CERTIFIED = (
    "(p -> 0) /\\ ((q -> (q -> 0)) /\\ ((q -> 0) -> q))",
    "p \\/ (r * r -> r * r * r)",
    ("L2", "L3"),
)


def _instance(premise, conclusion, gens):
    return parse_formula(premise), parse_formula(conclusion), [parse_chain(g) for g in gens]


def test_certified_instance_needs_no_walk():
    # the pair check runs before the walk would pass its limit, and no term
    # separates the first pair it closes, so None comes back at limit 1
    assert find_interpolant(*_instance(*CERTIFIED), limit=1) is None


def test_pair_check_matches_walk_only_route(monkeypatch):
    # None exactly where the walk-only route exhausts the closure, and the
    # same bytes for every interpolant; one mined query over L2 and L3 walks
    # long enough to run the pair check, which finds every pair separated
    calls = []
    separated = blcalc.formulas._separated

    def counted(*args):
        calls.append(args)
        return separated(*args)

    monkeypatch.setattr(blcalc.formulas, "_separated", counted)
    rng = random.Random(17)
    cases = [
        _instance(*CERTIFIED),
        _instance("((p -> 0) -> p) * ((q -> p) -> q)", "(r -> q) \\/ r", ["L1+W1+W1"]),
    ]
    for text in ("L2", "L3", "W2", "W3", "L1+W1", "L1+W1+W1", "L2,L3"):
        gens = [parse_chain(t) for t in text.split(",")]
        cases += [(p, c, gens) for p, c in mine_valid_consequences(gens, 40, ["p", "q", "r"], rng)]
    answers, checked = [], []
    for prem, conc, gens in cases:
        before = len(calls)
        got, want = (
            None if chi is None else pretty_formula(chi)
            for chi in (find_interpolant(prem, conc, gens), find_interpolant_by_walk(prem, conc, gens))
        )
        assert got == want, (prem, conc, gens)
        answers.append(got)
        checked.append(len(calls) > before)
    assert answers[:2] == [None, None] and None not in answers[2:]
    assert checked[:2] == [True, False] and checked[2:].count(True) == 1


# The one mined query of test_pair_check_matches_walk_only_route that walks
# long enough to run the pair check: every pair is separated, and the walk
# goes on to its interpolant.
SEPARATED = ("r \\/ r -> (q /\\ r)", "1 -> (r -> q \\/ r)", ("L2", "L3"))


def test_pair_check_that_separates_every_pair(monkeypatch):
    calls = []
    separated = blcalc.formulas._separated

    def counted(*args):
        calls.append(separated(*args))
        return calls[-1]

    monkeypatch.setattr(blcalc.formulas, "_separated", counted)
    assert pretty_formula(find_interpolant(*_instance(*SEPARATED))) == "r -> q \\/ r"
    assert len(calls) == 84 and all(calls)


def test_query_builds_one_form_and_one_point_list(monkeypatch):
    # the sweeps, the walk and the pair check share them
    built = {"RunForm": 0, "_points": 0}
    for name in built:
        original = getattr(blcalc.formulas, name)

        def counted(*args, name=name, original=original):
            built[name] += 1
            return original(*args)

        monkeypatch.setattr(blcalc.formulas, name, counted)
    for instance in (SEPARATED, CERTIFIED):
        built.update(RunForm=0, _points=0)
        find_interpolant(*_instance(*instance))
        assert built == {"RunForm": 1, "_points": 1}, instance


def test_separated_matches_pair_closure_oracle():
    # every ordered pair of points, m == q included; the pinned counts of
    # pairs that no term separates keep the comparison from passing on
    # instances where every pair is separated
    for shared, texts, not_separated in (
        (["p", "q"], ("L2", "L3"), 33),
        (["p", "q"], ("L1+W1+W1",), 42),
        (["p", "q"], ("W2", "W3"), 79),
        (["p"], ("L4",), 5),
    ):
        gens = [parse_chain(t) for t in texts]
        form = blcalc.formulas.RunForm(gens)
        points = blcalc.formulas._points(shared, form)
        bounded = gens[0].bottom
        got = []
        for m, q in product(range(len(points)), repeat=2):
            got.append(blcalc.formulas._separated(form, points, shared, m, q))
            assert got[-1] == separated_by_pairs(form, points, bounded, m, q), (texts, m, q)
        assert got.count(False) == not_separated, texts


def test_find_interpolant_rejects_exactly_non_consequences():
    rng = random.Random(5)
    rejected = 0
    for text in ("L2", "W2", "L1+W1", "L2,L3"):
        gens = [parse_chain(t) for t in text.split(",")]
        allow_zero = bool(gens[0].bottom)
        for _ in range(40):
            prem = random_formula(rng, ["p", "q", "r"], 3, allow_zero)
            conc = random_formula(rng, ["p", "q", "r"], 3, allow_zero)
            holds = consequence(prem, conc, gens).holds
            try:
                find_interpolant(prem, conc, gens)
            except ValueError:
                assert not holds, (text, prem, conc)
                rejected += 1
            else:
                assert holds, (text, prem, conc)
    assert rejected > 0


def test_dip_report():
    rep = dip_report(parse_class_expr("[UM U*]"))
    assert rep["deductive_interpolation"] is True
    rep = dip_report(parse_class_expr("[L1 W1 W1]"))
    assert rep["deductive_interpolation"] is False
    rep = dip_report(parse_class_expr("[L1 Z]"))
    assert rep["deductive_interpolation"] is True
    rep = dip_report(generated_by(parse_chain("W1+W1")))
    assert rep["deductive_interpolation"] is False
    assert rep["witness"] == "W1+W1+W1"
    assert "strong Robinson property" in rep["equivalent_properties"]


def test_parse_error_positions_skip_whitespace():
    for text, message in (
        ("p   q", "trailing input 'q' at 4"),
        ("p  )", "trailing input ')' at 3"),
        ("p ->  $", "unexpected character '$' at 6"),
        ("(p  * )", "unexpected ')' at 6"),
    ):
        with pytest.raises(FormulaError) as info:
            parse_formula(text)
        assert str(info.value) == message


def _closure_as_elements(shared, gens):
    """``term_closure`` with each index vector mapped back to elements."""
    elems = [x for g in gens for x in finite_elements(g)]
    for vec, term in term_closure(shared, gens):
        yield tuple(elems[x] for x in vec), term


def test_index_route_matches_element_oracle():
    # the index route and the chain_op route yield the same terms with the
    # same vectors in the same order, find the same interpolants and the
    # same first countermodels
    rng = random.Random(21)
    for text in ("L2", "L3", "W2", "W3", "L1+W1"):
        gens = [parse_chain(text)]
        for prem, conc in mine_valid_consequences(gens, 20, ["p", "q", "r"], rng):
            assert consequence_by_eval(prem, conc, gens).holds
            assert find_interpolant(prem, conc, gens) == find_interpolant_by_chain_op(
                prem, conc, gens
            )
            shared = sorted(formula_vars(prem) & formula_vars(conc))
            assert list(islice(_closure_as_elements(shared, gens), 40)) == list(
                islice(term_closure_by_chain_op(shared, gens), 40)
            )
        for _ in range(40):
            prem, conc = (random_formula(rng, ["p", "q", "r"], 3, gens[0].bottom)
                          for _ in range(2))
            assert consequence(prem, conc, gens) == consequence_by_eval(prem, conc, gens)
    # more valuations than one block of rows: the countermodel and the
    # premise sweep of p * (q -> r) run past the first block
    big = [parse_chain("W16")]
    prem, conc = parse_formula("p"), parse_formula("q -> r")
    assert consequence(prem, conc, big) == consequence_by_eval(prem, conc, big)
    prem, conc = parse_formula("p * (q -> r)"), parse_formula("p \\/ s")
    assert find_interpolant(prem, conc, big) == find_interpolant_by_chain_op(
        prem, conc, big
    )
    # the certified no-interpolant instance of the benchmark
    gens = [parse_chain("L2"), parse_chain("L3")]
    prem = parse_formula("(p -> 0) /\\ ((q -> (q -> 0)) /\\ ((q -> 0) -> q))")
    conc = parse_formula("p \\/ (r * r -> r * r * r)")
    assert find_interpolant(prem, conc, gens) is None
    assert find_interpolant_by_chain_op(prem, conc, gens) is None
    # whole closures in one shared variable
    for texts, size in ((("L3",), 64), (("W4",), 150), (("L4",), 300), (("L2", "L3"), 192)):
        gens = [parse_chain(t) for t in texts]
        walk = list(_closure_as_elements(["p"], gens))
        assert len(walk) == size and walk == list(term_closure_by_chain_op(["p"], gens))


def test_closure_in_two_and_three_variables_matches_element_oracle():
    # whole closures against the chain_op oracle, vectors, terms and order:
    # both pruned branches (vec_j below vec_i and vec_i below vec_j), and
    # vectors over two generator blocks
    for shared, texts, size in (
        (["p", "q"], ["W1"], 8),
        (["p", "q"], ["L1"], 16),
        (["p", "q"], ["W1+W1"], 18),
        (["p", "q"], ["L1+W1"], 162),
        (["p", "q"], ["L1", "L1+W1"], 162),
        (["p", "q", "r"], ["W1"], 128),
        (["p", "q", "r"], ["L1"], 256),
    ):
        gens = [parse_chain(t) for t in texts]
        walk = list(_closure_as_elements(shared, gens))
        assert len(walk) == size, (shared, texts)
        assert walk == list(term_closure_by_chain_op(shared, gens)), (shared, texts)


def test_walk_ending_among_seeds_computes_no_row_entry(monkeypatch):
    filled = []
    fill_rows = blcalc.formulas._fill_rows

    def counted(form, mul_rows, imp_rows, a, b):
        filled.append((a, b))
        fill_rows(form, mul_rows, imp_rows, a, b)

    monkeypatch.setattr(blcalc.formulas, "_fill_rows", counted)
    W1 = parse_chain("W1")
    prem, conc = parse_formula("p /\\ q"), parse_formula("p \\/ r")
    assert find_interpolant(prem, conc, [W1]) == Var("p")
    assert filled == []
    # a walk past the seeds fills the rows once per pair of vectors that
    # meets a new pair of indices: 1 with 1, p with 1, then p with p
    assert closure_size(prem, conc, [W1]) == 2
    assert filled == [((1, 1), (1, 1)), ((0, 1), (1, 1)), ((0, 1), (0, 1))]


def test_term_closure_rejects_repeated_names():
    # a second projection named p would label the non-top vector of p -> p
    with pytest.raises(ValueError, match="repeated"):
        next(term_closure(["p", "p"], [parse_chain("W1")]))
