"""Element model, chain operations, and axiom checking."""

import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blcalc.core import (
    CANC_Z,
    STD_UNIT,
    TOP,
    TRIVIAL,
    RawChain,
    RunForm,
    TableError,
    chain,
    chain_op,
    check_axioms,
    component_op,
    element,
    element_at,
    fin_luk,
    lex_omega,
    ordinal_sum_of,
)
from blcalc import core
from blcalc.decompose import decompose, flatten
from blcalc.dsl import parse_chain
from oracles import (
    _window_values,
    check_axioms_by_scans,
    component_runs,
    differential_tables,
    enumerate_elements,
    finite_elements,
    flatten_by_chain_op,
    order_le,
    small_chains,
)


def test_component_op_fin_luk():
    # direct evaluation of the truncated-addition formulas
    assert component_op(fin_luk(2), "mul", 1, 1) == 0
    assert component_op(fin_luk(2), "imp", 1, 0) == 1
    assert component_op(fin_luk(2), "imp", 0, 1) == 2
    assert component_op(fin_luk(3), "mul", 2, 2) == 1


def test_component_op_top_is_unit():
    for kind, top in [
        (fin_luk(4), 4),
        (CANC_Z, 0),
        (lex_omega(2), (2, 0)),
        (STD_UNIT, Fraction(1)),
    ]:
        for a in _window(kind):
            assert component_op(kind, "mul", a, top) == a
            assert component_op(kind, "imp", a, top) == top


def _window(kind, cap=3):
    return _window_values(kind, cap)


def test_component_op_lex():
    assert component_op(lex_omega(1), "mul", (0, 2), (1, -1)) == (0, 1)
    assert component_op(lex_omega(1), "imp", (0, 2), (0, 5)) == (1, 0)
    assert component_op(lex_omega(2), "mul", (1, 3), (1, 4)) == (0, 7)


def test_lex_radical_powers_stay_above_bottom():
    # (k, b)^n = (k, n*b) never reaches the bottom (0, 0)
    k = lex_omega(2)
    v = (2, -3)
    power = v
    for _ in range(20):
        power = component_op(k, "mul", power, v)
        assert power[0] == 2
    # while any (a, b) with a < k powers down to the bottom
    power = (1, 5)
    for _ in range(20):
        power = component_op(k, "mul", power, (1, 5))
    assert power == (0, 0)


def test_component_op_cancellative_residual():
    # largest z <= 0 with -1 + z <= -3
    assert component_op(CANC_Z, "imp", -1, -3) == -2
    best = max(z for z in range(-10, 1) if -1 + z <= -3)
    assert best == -2


def test_component_op_rejects_out_of_range():
    with pytest.raises(ValueError):
        component_op(fin_luk(2), "mul", 3, 0)
    with pytest.raises(ValueError):
        component_op(lex_omega(2), "mul", (0, -1), (0, 0))
    with pytest.raises(ValueError):
        component_op(CANC_Z, "mul", 1, 0)


def test_chain_op_across_components():
    c = parse_chain("W1+W1")
    x = element(c, 0, 0)
    y = element(c, 1, 0)
    assert chain_op(c, "mul", x, y) == x
    assert chain_op(c, "imp", x, y) == TOP
    assert chain_op(c, "imp", y, x) == x
    assert chain_op(c, "meet", x, y) == x
    assert chain_op(c, "join", x, y) == y


def test_chain_op_imp_reflexive():
    c = parse_chain("L2+Z+W3")
    for x in enumerate_elements(c, 2):
        assert chain_op(c, "imp", x, x) == TOP


def test_chain_op_cross_component_imp():
    c = parse_chain("L2+Z")
    x = element(c, 1, -3)
    y = element(c, 0, 1)
    assert chain_op(c, "imp", x, y) == y


def test_order_le():
    c = parse_chain("W2+Wo1")
    elems = enumerate_elements(c, 3)
    for x in elems:
        assert order_le(c, x, TOP)
    assert order_le(c, element(c, 0, 1), element(c, 1, (0, 5)))
    lex = parse_chain("Wo1")
    assert order_le(lex, element(lex, 0, (0, 5)), element(lex, 0, (1, -9)))


def test_order_consistent_with_meet():
    c = parse_chain("W2+Z")
    elems = enumerate_elements(c, 3)
    for x in elems:
        for y in elems:
            assert order_le(c, x, y) == (chain_op(c, "meet", x, y) == x)


@pytest.mark.parametrize(
    "text", ["W3", "Wo2", "Z", "U", "W1+W1", "L2+Z", "W2+Wo1+W1", "Lo2+W2"]
)
def test_residuation_on_windows(text):
    c = parse_chain(text)
    elems = enumerate_elements(c, 2)
    for x in elems:
        for y in elems:
            for z in elems:
                lhs = order_le(c, chain_op(c, "mul", x, y), z)
                rhs = order_le(c, x, chain_op(c, "imp", y, z))
                assert lhs == rhs, (x, y, z)


@pytest.mark.parametrize("text", ["W3", "Wo2", "Z", "U", "L2+Z+W1"])
def test_divisibility_prelinearity_on_windows(text):
    c = parse_chain(text)
    elems = enumerate_elements(c, 2)
    for x in elems:
        for y in elems:
            div = chain_op(c, "mul", x, chain_op(c, "imp", x, y))
            assert div == chain_op(c, "meet", x, y)
            pre = chain_op(
                c, "join", chain_op(c, "imp", x, y), chain_op(c, "imp", y, x)
            )
            assert pre == TOP


@pytest.mark.parametrize("text,expect", [("W3", True), ("Wo2", True)])
def test_mv_identity_on_windows(text, expect):
    c = parse_chain(text)
    elems = enumerate_elements(c, 2)
    holds = all(
        chain_op(c, "imp", chain_op(c, "imp", x, y), y) == chain_op(c, "join", x, y)
        for x in elems
        for y in elems
    )
    assert holds == expect


def test_cancellativity_on_windows():
    z = parse_chain("Z")
    elems = enumerate_elements(z, 4)
    for x in elems:
        for y in elems:
            assert chain_op(z, "imp", x, chain_op(z, "mul", x, y)) == y


def test_enumerate_elements():
    assert len(enumerate_elements(parse_chain("W2"), 5)) == 3
    assert enumerate_elements(chain(()), 3) == [TOP]
    zs = enumerate_elements(parse_chain("Z"), 2)
    assert [x.value for x in zs[:-1]] == [-2, -1] and zs[-1] == TOP
    u = enumerate_elements(parse_chain("U"), 3)
    assert element(parse_chain("U"), 0, Fraction(0)) in u
    assert all(
        x.is_top or x.value.denominator <= 3 for x in u
    )
    lex = enumerate_elements(parse_chain("Wo1"), 2)
    assert element(parse_chain("Wo1"), 0, (0, 0)) in lex  # component bottom


def test_check_axioms_luk():
    t = flatten(parse_chain("L2"))
    report = check_axioms(t)
    assert report == check_axioms_by_scans(t)
    assert report.is_bl_chain and report.is_mv_chain
    assert not report.cancellativity


def test_check_axioms_matches_scan_oracle():
    checked = valid = 0
    for t in differential_tables():
        report = check_axioms(t)
        assert report == check_axioms_by_scans(t), t
        checked += 1
        valid += report.is_basic_hoop_chain
    assert (checked, valid) == (4674, 36)
    # larger tables, valid and with one entry moved
    for text in ("L6+W1+W5+W2+W1+W3+W6+W2+W4", "W1+W2+W3+W4+W5+W6+W7+W3"):
        t = flatten(parse_chain(text))
        assert t.size >= 30
        assert check_axioms(t) == check_axioms_by_scans(t)
        for x, y in ((3, 5), (t.size - 2, 1), (10, 10)):
            imp = [list(r) for r in t.imp]
            imp[x][y] = (imp[x][y] + 1) % t.size
            bad = RawChain(t.size, t.mul, imp, t.bottom)
            assert check_axioms(bad) == check_axioms_by_scans(bad)


def with_changed_entries(draw, t: RawChain) -> RawChain:
    """``t`` with up to three mul or imp entries changed."""
    n, mul, imp = t.size, [list(r) for r in t.mul], [list(r) for r in t.imp]
    index = st.integers(min_value=0, max_value=n - 1)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        tab = draw(st.sampled_from((mul, imp)))
        tab[draw(index)][draw(index)] = draw(index)
    return RawChain(n, mul, imp, t.bottom)


@st.composite
def small_tables(draw):
    """The table of a chain of at most five elements with up to three entries
    changed, or a table of random entries of at most five elements."""
    bottom = draw(st.booleans())
    if draw(st.booleans()):
        return with_changed_entries(draw, flatten(draw(st.sampled_from(small_chains(6, bottom)))))
    n = draw(st.integers(min_value=1, max_value=5))
    row = st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n)
    mul, imp = (draw(st.lists(row, min_size=n, max_size=n)) for _ in "mi")
    return RawChain(n, mul, imp, bottom)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(small_tables())
def test_check_axioms_matches_scan_oracle_on_random_tables(t):
    assert check_axioms(t) == check_axioms_by_scans(t)


@st.composite
def recognised_tables(draw):
    """The table of a sum of finite Lukasiewicz chains of at most 40
    elements, flattened, with up to three mul or imp entries changed."""
    sizes = draw(st.lists(st.integers(min_value=1, max_value=12), max_size=8)
                 .filter(lambda ks: sum(ks) < 40))
    return with_changed_entries(
        draw, flatten(chain((fin_luk(k) for k in sizes), bottom=draw(st.booleans()))))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(recognised_tables())
def test_check_axioms_matches_scan_oracle_on_recognised_tables(t):
    assert check_axioms(t) == check_axioms_by_scans(t)


@st.composite
def commutative_mutants(draw):
    """The table of a sum of finite Lukasiewicz chains of at most 40
    elements, flattened, with one to three symmetric mul changes: x y and
    y x set to one entry, so that the table stays commutative and
    ``check_axioms`` goes on to Light's test for associativity."""
    sizes = draw(st.lists(st.integers(min_value=1, max_value=12), max_size=8)
                 .filter(lambda ks: sum(ks) < 40))
    t = flatten(chain((fin_luk(k) for k in sizes), bottom=draw(st.booleans())))
    mul = [list(r) for r in t.mul]
    index = st.integers(min_value=0, max_value=t.size - 1)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        x, y, v = draw(index), draw(index), draw(index)
        mul[x][y] = mul[y][x] = v
    return RawChain(t.size, mul, t.imp, t.bottom)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(commutative_mutants())
def test_check_axioms_matches_scan_oracle_on_commutative_mutants(t):
    assert check_axioms(t) == check_axioms_by_scans(t)


def test_check_axioms_on_a_w400_mutant_pinned():
    # one imp entry of W400 changed: the table is not recognised, so every
    # law is checked.  The report was recorded once from
    # check_axioms_by_scans, whose cubic scans take seconds here
    t = flatten(parse_chain("W400"))
    imp = [list(r) for r in t.imp]
    imp[300][200] = 0
    assert check_axioms(RawChain(t.size, t.mul, imp)).to_json() == {
        "commutative_monoid": True,
        "residuation": False,
        "integrality": True,
        "divisibility": False,
        "prelinearity": True,
        "mv_identity": False,
        "cancellativity": False,
        "bounded": False,
        "basic_hoop_chain": False,
        "bl_chain": False,
        "mv_chain": False,
        "failures": [
            ["residuation", [1, 300, 200]],
            ["divisibility", [300, 200]],
            ["mv_identity", [300, 200]],
            ["cancellativity", [0, 0]],
        ],
    }


def test_check_axioms_on_a_w300_symmetric_mutant_pinned():
    # mul[225][150] = mul[150][225] = 3 in W300: the table stays
    # commutative, Light's test fails, and the witness scan reads only
    # y, z >= x.  The report was recorded once from check_axioms_by_scans
    t = flatten(parse_chain("W300"))
    mul = [list(r) for r in t.mul]
    mul[225][150] = mul[150][225] = 3
    assert check_axioms(RawChain(t.size, mul, t.imp)).to_json() == {
        "commutative_monoid": False,
        "residuation": False,
        "integrality": True,
        "divisibility": False,
        "prelinearity": True,
        "mv_identity": True,
        "cancellativity": False,
        "bounded": False,
        "basic_hoop_chain": False,
        "bl_chain": False,
        "mv_chain": False,
        "failures": [
            ["associativity", [150, 225, 226]],
            ["residuation", [150, 225, 3]],
            ["divisibility", [150, 75]],
            ["cancellativity", [0, 0]],
        ],
    }


@pytest.mark.parametrize("entry", [True, 1.0, -1, 2, "0", None])
def test_raw_chain_rejects_entries_that_are_not_indices(entry):
    # W1 has the indices 0 and 1; the entry replaces 1 -> 0 or 1 * 0
    w1 = flatten(parse_chain("W1"))
    for name in ("mul", "imp"):
        tables = {"mul": [list(r) for r in w1.mul], "imp": [list(r) for r in w1.imp]}
        tables[name][1][0] = entry
        message = f"{name} table has entries outside the indices 0..1"
        with pytest.raises(TableError, match=f"^{re.escape(message)}$"):
            RawChain(2, tables["mul"], tables["imp"])


def test_raw_chain_checks_mul_before_imp_and_shape_before_entries():
    # every refusal at the table boundary is a TableError, which the CLI
    # reports as the ValueError it is: one stderr line and exit code 2
    assert issubclass(TableError, ValueError)
    w1 = flatten(parse_chain("W1"))
    ragged, bad_entry = ((0, 0), (0,)), ((0, 0), (0, None))
    for mul, imp, message in (
        (ragged, w1.imp, "mul table is not 2x2"),
        (w1.mul, ragged, "imp table is not 2x2"),
        (((0, 0),), w1.imp, "mul table is not 2x2"),
        (ragged, bad_entry, "mul table is not 2x2"),
        (bad_entry, ragged, "mul table has entries outside the indices 0..1"),
        (((0, None), (0,)), w1.imp, "mul table is not 2x2"),
    ):
        with pytest.raises(TableError, match=f"^{re.escape(message)}$"):
            RawChain(2, mul, imp)


def test_row_comparison_matches_rebuilt_table():
    # ordinal_sum_of cuts runs at x -> x - 1 and compares rows; this reads
    # the runs of the oracle's in_one_component and compares whole RawChains
    recognised = 0
    for t in differential_tables():
        c = chain((fin_luk(len(r)) for r in component_runs(t)), t.bottom)
        rebuilt = flatten(c) == t
        assert ordinal_sum_of(t) == (c if rebuilt else None), t
        recognised += rebuilt
    assert recognised == 36


def test_from_json_rejects_entries_equal_to_indices():
    # 1.0 and true compare equal to the index 1, so a row holding them would
    # pass the row comparison; only RawChain's entry check keeps them out
    w1 = flatten(chain((fin_luk(1),)))
    assert ((0, 0), (0, 1.0)) == w1.mul == ((0, 0), (0, True))
    for entry in ("1.0", "true"):
        text = f'{{"size": 2, "mul": [[0, 0], [0, {entry}]], "imp": [[1, 0], [0, 1]]}}'
        with pytest.raises(TableError, match="entries outside the indices"):
            RawChain.from_json(json.loads(text))


def test_axiom_report_json_pinned():
    # the three-element Goedel chain: a basic-hoop chain, not an MV-chain
    godel = flatten(parse_chain("W1+W1"))
    assert check_axioms(godel).to_json() == {
        "commutative_monoid": True,
        "residuation": True,
        "integrality": True,
        "divisibility": True,
        "prelinearity": True,
        "mv_identity": False,
        "cancellativity": False,
        "bounded": False,
        "basic_hoop_chain": True,
        "bl_chain": False,
        "mv_chain": False,
        "failures": [["mv_identity", [1, 0]], ["cancellativity", [0, 0]]],
    }
    # a mul that is not commutative: unit and associativity go unscanned, and
    # integrality fails without a witness
    skew = RawChain(3, ((0, 0, 0), (1, 1, 1), (0, 1, 2)), flatten(parse_chain("W2")).imp)
    assert check_axioms(skew).to_json() == {
        "commutative_monoid": False,
        "residuation": False,
        "integrality": False,
        "divisibility": False,
        "prelinearity": True,
        "mv_identity": True,
        "cancellativity": False,
        "bounded": False,
        "basic_hoop_chain": False,
        "bl_chain": False,
        "mv_chain": False,
        "failures": [
            ["commutativity", [0, 1]],
            ["residuation", [1, 0, 0]],
            ["integrality", []],
            ["divisibility", [1, 0]],
            ["cancellativity", [0, 0]],
        ],
    }


def test_table_size_limit(monkeypatch):
    # the limit is read at call time, so a small one exercises the boundary
    # without building a large table
    monkeypatch.setattr(core, "MAX_TABLE_SIZE", 10)
    assert flatten(chain(map(fin_luk, [4, 5]))).size == 10
    with pytest.raises(TableError, match="MAX_TABLE_SIZE"):
        flatten(chain(map(fin_luk, [4, 6])))
    with pytest.raises(TableError, match="MAX_TABLE_SIZE"):
        flatten(parse_chain("W10"))
    with pytest.raises(ValueError, match="parameter >= 1"):
        flatten(chain(map(fin_luk, [2, -1])))


def test_check_and_decompose_refuse_tables_above_the_limit(monkeypatch):
    # recognition builds a candidate of the table's size, so an 11-element
    # table is refused at a limit of 10 before any law is checked: the
    # table of an ordinal sum, and one whose top -> top - 1 is changed
    t = flatten(parse_chain("W4+W6"))
    imp = [list(r) for r in t.imp]
    imp[t.top][t.top - 1] = 0
    mutant = RawChain(t.size, t.mul, imp, t.bottom)
    monkeypatch.setattr(core, "MAX_TABLE_SIZE", 10)
    for table in (t, mutant):
        for fn in (check_axioms, decompose):
            with pytest.raises(TableError, match="MAX_TABLE_SIZE"):
                fn(table)


def test_run_form_size_limit(monkeypatch):
    # the limit counts every generator's elements and is read at call time
    monkeypatch.setattr(core, "MAX_FORM_SIZE", 10)
    assert len(RunForm([parse_chain("W4"), parse_chain("W4")]).start) == 10
    with pytest.raises(ValueError, match="MAX_FORM_SIZE"):
        RunForm([parse_chain("W4"), parse_chain("W5")])
    with pytest.raises(ValueError, match="symbolic"):
        RunForm([parse_chain("W4"), parse_chain("Z")])


def test_check_axioms_trivial():
    t = RawChain(size=1, mul=((0,),), imp=((0,),), bottom=True)
    report = check_axioms(t)
    assert report.is_bl_chain and report.mv_identity and report.cancellativity


def test_check_axioms_residuation_failure():
    t = flatten(parse_chain("L2"))
    imp = [list(r) for r in t.imp]
    imp[0][0] = 0  # 0 -> 0 must be top
    bad = RawChain(size=t.size, mul=t.mul, imp=tuple(tuple(r) for r in imp),
                   bottom=True)
    report = check_axioms(bad)
    assert not report.residuation
    assert any(law == "residuation" for law, _ in report.failures)


def test_check_axioms_rejects_malformed():
    with pytest.raises(ValueError):
        RawChain(size=2, mul=((0,),), imp=((0, 0), (0, 1)))
    # booleans are not indices, although bool subclasses int
    with pytest.raises(ValueError):
        RawChain(size=True, mul=((0,),), imp=((0,),))
    with pytest.raises(ValueError):
        RawChain(size=2, mul=((0, 0), (0, True)), imp=((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        RawChain(size=1, mul=((False,),), imp=((0,),))


def test_raw_chain_json_round_trip():
    t = flatten(parse_chain("L1+W2"))
    assert RawChain.from_json(t.to_json()) == t
    # rows given as lists are stored as tuples, so equal tables compare equal
    assert RawChain(t.size, [list(r) for r in t.mul], t.imp, True) == t


def test_raw_chain_json_bottom_must_be_boolean():
    base = {"size": 1, "mul": [[0]], "imp": [[0]]}
    assert RawChain.from_json(base).bottom is False
    assert RawChain.from_json({**base, "bottom_designated": True}).bottom is True
    for flag in ("no", 0, 1, None, [True]):
        with pytest.raises(TableError, match="bottom_designated"):
            RawChain.from_json({**base, "bottom_designated": flag})


def test_raw_chain_json_schema_errors_are_table_errors():
    message = "table JSON must be an object with size, mul and imp"
    for data in ([], {"size": 1, "mul": [[0]]}):
        with pytest.raises(TableError, match=f"^{re.escape(message)}$"):
            RawChain.from_json(data)


def test_chain_op_agrees_with_flatten_tables():
    # structural operations and tabulated operations coincide bit-exactly
    c = parse_chain("L1+W2+W1")
    t = flatten(c)
    elems = finite_elements(c)
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            assert elems.index(chain_op(c, "mul", x, y)) == t.mul[i][j]
            assert elems.index(chain_op(c, "imp", x, y)) == t.imp[i][j]


def test_element_at_names_the_listed_elements():
    # element_at walks the components to the i-th element; on every sum of
    # W1..W5 up to 12 elements in both signatures it names the element at
    # each index of the listing of finite_elements
    chains = [c for bottom in (False, True) for c in small_chains(12, bottom)
              if all(kind.k <= 5 for kind in c.components)]
    for c in chains:
        assert [element_at(c, i) for i in range(c.size)] == finite_elements(c), c
    assert len(chains) == 3712
    for c in (chain(()), parse_chain("W2+W1"), parse_chain("L3")):
        for i in (-1, c.size):
            with pytest.raises(ValueError, match=rf"^element index {i} out of range for "):
                element_at(c, i)


def test_run_form_matches_tables():
    # the index form states the ordinal-sum rules that every table tabulates;
    # on every pair of indices of every small chain it gives the entry that
    # chain_op gives on the elements
    for bottom in (False, True):
        for c in small_chains(10, bottom):
            form, t = RunForm([c]), flatten_by_chain_op(c)
            for x in range(t.size):
                for y in range(t.size):
                    a, b = (x,), (y,)
                    assert form.mul(a, b) == (t.mul[x][y],), (c, x, y)
                    assert form.imp(a, b) == (t.imp[x][y],), (c, x, y)
                    assert form.meet(a, b) == (min(x, y),)
                    assert form.join(a, b) == (max(x, y),)


def test_run_form_places_chains_side_by_side():
    # each chain takes the next block of indices, and the operations of a
    # block are those of its chain shifted by the block's first index
    left, right = parse_chain("W2+W1"), parse_chain("W1+W3")
    form, alone = RunForm([left, right]), RunForm([right])
    assert form.blocks == (range(0, 4), range(4, 9))
    lo = form.blocks[1][0]
    n = len(form.blocks[1])
    pairs = [(x, y) for x in range(n) for y in range(n)]
    a, b = (tuple(p[i] for p in pairs) for i in (0, 1))
    for op in ("mul", "imp", "meet", "join"):
        shifted = getattr(form, op)(tuple(x + lo for x in a), tuple(y + lo for y in b))
        assert shifted == tuple(v + lo for v in getattr(alone, op)(a, b))
    with pytest.raises(ValueError, match="symbolic"):
        RunForm([parse_chain("Z")])


def test_chain_validation():
    with pytest.raises(ValueError):
        chain((CANC_Z,), bottom=True)  # BL chain needs a bounded first component
    assert chain((TRIVIAL, fin_luk(1), TRIVIAL)).components == (fin_luk(1),)


def test_element_mismatch_rejected():
    c1 = parse_chain("W1")
    c2 = parse_chain("W2+W2")
    x = element(c2, 1, 1)
    with pytest.raises(ValueError):
        chain_op(c1, "mul", x, x)
