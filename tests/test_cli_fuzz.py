"""CLI fuzz: argv for every subcommand, built from pools of valid and
malformed tokens, ends in exit 0, 1 or 2, never in an uncaught exception,
and an input error (exit 2) is one line on stderr.

``main`` runs in-process, so an exception that escapes it stands for the
traceback a shell user would see.  Option values are passed as
``--name=value``, so that argparse takes a value starting with ``-`` as a
value.  In ``FAMILIES`` every argv is well formed for argparse and only the
values vary; every argv of ``USAGE_ERRORS`` is one argparse rejects, and
must end in exit 2 with one line, like any other input error.  The searches
stay small: ``--max-index`` at most 2 and ``--max-k`` at most 3.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blcalc.cli import main
from blcalc.decompose import flatten
from blcalc.dsl import parse_chain

CHAINS = (
    "T", "W1", "W2", "Wo1", "Z", "U", "W1+Z", "Z+W2", "W1+U",
    "L1", "L2", "Lo1", "UM", "L1+Z", "L2+W1",
    "", "+", "W0", "W1+", "Q9", "Z+L1", "W-1", "Wo", "T+T", "(W1)",
)
ELEMENTS = (
    "top", "0:0", "0:1", "1:0", "0:-1", "0:1,2", "0:1/2", "0:2,-1",
    "", ":", "0:", ":1", "x", "0:x", "5:0", "-1:0", "0:1/0", "0:1,2,3", "0:1,x",
)
CLASSES = (
    "[U*]", "[W1]|[Z]", "[W1 Z*]", "[(W1 Z)*]", "[L1 U*]", "[UM U*]", "[L1 Z]",
    "", "[", "[W1", "[(W1", "[W1]|", "[Q]", "[L1 L2]", "[W1 L1]", "]", "[*]",
)
GENS = ("L2", "L2,L3", "W1", "W1,Z", "W1+W1", "Z", "U", "L2,W1", "", ",", "L2,", "Q")
FORMULAS = (
    "p", "q", "0", "p*q", "p->q", "p/\\q", "p\\/r", "(p->0)->0", "p\\/(p->0)",
    "", "(", "p->", "p q", "*p", "p)", "1",
)
INTERVALS = ("I(W1)", "I(Z)", "I(Wo2)", "I(W2,Z)", "I(W1,Z)", "I()", "I(L1)", "I(Q)", "W1", "I(W1")
TABLES = ("l2", "not_a_table", "not_json", "missing")


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    """Paths to a valid table, a malformed one, a non-JSON file and a missing
    file."""
    root = tmp_path_factory.mktemp("tables")
    (root / "l2").write_text(json.dumps(flatten(parse_chain("L2")).to_json()))
    (root / "not_a_table").write_text(json.dumps({"size": 2, "mul": [[0, 0], [0, 1]]}))
    (root / "not_json").write_text("{")
    return {name: str(root / name) for name in TABLES}


def pick(pool):
    return st.sampled_from(pool)


def opt(name, pool):
    return pick(pool).map(lambda v: f"--{name}={v}")


def argv(*parts):
    """An argv of fixed words (``str``) and drawn words (strategies)."""
    return st.tuples(*(st.just(p) if isinstance(p, str) else p for p in parts)).map(list)


def with_variety(words):
    """``words`` followed by --gens, --class, both or neither."""
    return st.tuples(
        words, st.lists(opt("gens", GENS), max_size=1), st.lists(opt("class", CLASSES), max_size=1)
    ).map(lambda t: t[0] + t[1] + t[2])


FAMILIES = {
    "chain eval": argv(
        "chain", "eval", pick(CHAINS), opt("op", ("mul", "imp", "meet", "join")),
        opt("x", ELEMENTS), opt("y", ELEMENTS),
    ),
    "chain flatten": argv("chain", "flatten", pick(CHAINS)),
    "chain check": argv("chain", pick(("check", "decompose")), "--table", pick(TABLES)),
    "amalgam": argv(
        "amalgam",
        pick(("search", "construct", "one-sided")),
        opt("apex", CHAINS),
        opt("left", CHAINS),
        opt("right", CHAINS),
        opt("universe", CLASSES),
        opt("left-embedding", (0, 1, 5, -1)),
        opt("right-embedding", (0, 1, -1)),
        opt("max-index", (1, 2, 0)),
        opt("max-k", (1, 3, 0)),
        opt("scale-cap", (1, 2, 0)),
    ),
    "classify": with_variety(argv("classify", pick(("mv", "wh", "bh", "bl")))),
    "poset": argv("poset", opt("interval", INTERVALS), opt("format", ("dot", "json"))),
    "logic consequence": argv(
        "logic", "consequence",
        opt("premise", FORMULAS), opt("conclusion", FORMULAS), opt("gens", GENS),
    ),
    "logic interpolate": argv(
        "logic", "interpolate",
        opt("premise", FORMULAS), opt("conclusion", FORMULAS), opt("gens", GENS),
        opt("limit", (50, 0)),
    ),
    "logic dip": with_variety(argv("logic", "dip")),
}


# Complete argv prefixes and their required options, for dropping some.
REQUIRED = (
    (("chain", "eval", "W1"), ("--op=mul", "--x=top", "--y=top")),
    (("chain", "check"), ("--table=-",)),
    (("amalgam", "search"), ("--apex=T", "--left=W1", "--right=W1", "--universe=[U*]")),
    (("poset",), ("--interval=I(W1)", "--format=dot")),
    (("logic", "consequence"), ("--premise=p", "--conclusion=p", "--gens=L2")),
)
INTEGER_OPTIONS = ("max-index", "max-k", "scale-cap", "left-embedding", "right-embedding")
NOT_INTEGERS = ("x", "1.5", "", "2x", "1e3", "0x1")


def drop_required(case):
    prefix, options = case
    return st.sets(st.sampled_from(options), min_size=1).map(
        lambda dropped: list(prefix) + [o for o in options if o not in dropped]
    )


USAGE_ERRORS = {
    "bad choice": st.one_of(
        argv("chain", "eval", "W1", opt("op", ("foo", "", "MUL", "mul ")), "--x=top", "--y=top"),
        argv("amalgam", pick(("find", "", "Search")), "--apex=T", "--left=W1", "--right=W1",
             "--universe=[U*]"),
        argv("classify", pick(("ap", "", "BL")), "--gens=L2"),
        argv("poset", "--interval=I(W1)", opt("format", ("svg", "", "DOT"))),
    ),
    "not an integer": st.one_of(
        argv("amalgam", "search", "--apex=T", "--left=W1", "--right=W1", "--universe=[U*]",
             st.tuples(pick(INTEGER_OPTIONS), pick(NOT_INTEGERS)).map(lambda t: f"--{t[0]}={t[1]}")),
        argv("logic", "interpolate", "--premise=p", "--conclusion=p", "--gens=W1",
             opt("limit", NOT_INTEGERS)),
    ),
    "missing required": pick(REQUIRED).flatmap(drop_required),
    "unknown subcommand": st.one_of(
        argv(pick(("frobnicate", "Chain", "", "help"))),
        argv(pick(("chain", "logic")), pick(("nope", "Eval", "interp", ""))),
    ),
}


def run_main(args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("family", FAMILIES)
@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(data=st.data())
def test_cli_exits_cleanly(tables, family, data):
    args = data.draw(FAMILIES[family], label="argv")
    if family == "chain check":
        args[-1] = tables[args[-1]]
    code, _, err = run_main(args)
    assert code in (0, 1, 2), (args, code)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("family", USAGE_ERRORS)
@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(data=st.data())
def test_cli_usage_errors_exit_2_in_one_line(family, data):
    args = data.draw(USAGE_ERRORS[family], label="argv")
    code, out, err = run_main(args)
    assert code == 2 and out == "", (args, code)
    assert err.startswith("error: ") and err.count("\n") == 1, (args, err)
