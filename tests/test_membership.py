"""The greedy membership scan and the prefix-pruned universe walk, checked
against the backtracking matcher and the product-and-filter walk they
replaced (``tests/oracles.py``)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import assignments_by_backtracking, member_by_assignments, universe_chains_by_filter
from test_roundtrip import chains, class_exprs

from blcalc.amalgam import universe_chains
from blcalc.classes import match_assignments, member
from blcalc.classify import enumerate_catalog
from blcalc.core import ModeMismatchError
from blcalc.dsl import parse_class_expr

DIFFERENTIAL = settings(derandomize=True, database=None, deadline=None, max_examples=200)

# every non-trivial class of the bh-3 and bl-2 catalogs, with the universe
# whose chains it is tested on
CATALOG_CASES = (("bh", 3, "[U*]"), ("bl", 2, "[UM U*]"))


@pytest.mark.parametrize("mode, n, universe", CATALOG_CASES)
def test_member_matches_backtracking_on_catalog(mode, n, universe):
    pool = list(universe_chains(parse_class_expr(universe), 3, 3))
    classes = [e for e, _, _ in enumerate_catalog(mode, n) if e is not None]
    checked = members = 0
    for e in classes:
        for c in pool:
            got = member(c, e)
            assert got == member_by_assignments(c, e), (c, e)
            checked += 1
            members += got
    # every class has members in the pool, and not every chain is one
    assert 0 < members < checked
    assert checked == {"bh": 58 * 585, "bl": 317 * 512}[mode]


@pytest.mark.parametrize("mode, n, universe", CATALOG_CASES)
def test_universe_walk_matches_filter_on_catalog(mode, n, universe):
    assert list(universe_chains(parse_class_expr(universe), 3, 3)) == list(
        universe_chains_by_filter(parse_class_expr(universe), 3, 3)
    )
    for e, _, _ in enumerate_catalog(mode, n):
        if e is not None:
            assert list(universe_chains(e, 3, 2)) == list(universe_chains_by_filter(e, 3, 2)), e


@DIFFERENTIAL
@given(class_exprs(), st.lists(chains(), min_size=1, max_size=5))
def test_member_matches_backtracking(e, sample):
    for c in sample:
        if c.bottom != e.bottom:
            with pytest.raises(ModeMismatchError):
                member(c, e)
            continue
        assert member(c, e) == member_by_assignments(c, e), (c, e)
        for s in e.sums:
            assert list(match_assignments(c, s)) == list(assignments_by_backtracking(c, s))


@DIFFERENTIAL
@given(class_exprs())
def test_universe_walk_matches_filter(e):
    walk = list(universe_chains(e, 3, 2))
    assert walk == list(universe_chains_by_filter(e, 3, 2))
    # the walk's chains are members, so the greedy scan takes each of them
    assert all(member(c, e) for c in walk if not c.is_trivial)
