"""Command-line interface: outputs, schemas, exit codes, determinism."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from blcalc import cli
from blcalc.cli import main
from blcalc.core import MAX_FORM_SIZE, MAX_TABLE_SIZE
from blcalc.decompose import flatten
from blcalc.dsl import parse_chain
from blcalc.formulas import MAX_FORMULA_DEPTH


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out.strip() else None, err


def test_chain_eval(capsys):
    code, data, _ = run_json(
        capsys, "chain", "eval", "L2+W1", "--op", "mul", "--x", "0:1", "--y", "1:0"
    )
    assert code == 0
    assert data["schema"] == "blcalc/1"
    assert data["result"] == "0:1"


def test_chain_eval_top(capsys):
    code, data, _ = run_json(
        capsys, "chain", "eval", "W2", "--op", "imp", "--x", "0:1", "--y", "0:1"
    )
    assert code == 0 and data["result"] == "top"


def test_chain_flatten_trivial(capsys):
    code, data, _ = run_json(capsys, "chain", "flatten", "T")
    assert code == 0
    assert data["table"]["size"] == 1


def test_chain_check_and_decompose(tmp_path, capsys):
    table = flatten(parse_chain("L2"))
    path = tmp_path / "l2.json"
    path.write_text(json.dumps(table.to_json()))
    code, data, _ = run_json(capsys, "chain", "check", "--table", str(path))
    assert code == 0
    assert data["report"]["bl_chain"] and data["report"]["mv_chain"]

    godel = flatten(parse_chain("W1+W1"))
    gpath = tmp_path / "g3.json"
    gpath.write_text(json.dumps(godel.to_json()))
    code, data, _ = run_json(capsys, "chain", "decompose", "--table", str(gpath))
    assert code == 0
    assert data["chain"] == "W1+W1"


def test_chain_tables_read_from_stdin(monkeypatch, capsys):
    table = json.dumps(flatten(parse_chain("L1+W1")).to_json())
    monkeypatch.setattr(sys, "stdin", io.StringIO(table))
    code, data, _ = run_json(capsys, "chain", "check", "--table", "-")
    assert code == 0 and data["report"]["bl_chain"]
    monkeypatch.setattr(sys, "stdin", io.StringIO(table))
    code, data, _ = run_json(capsys, "chain", "decompose", "--table", "-")
    assert code == 0 and data["chain"] == "L1+W1"


def test_chain_malformed_json_on_stdin_exit_2(monkeypatch, capsys):
    for sub in ("check", "decompose"):
        monkeypatch.setattr(sys, "stdin", io.StringIO("{"))
        code, out, err = run(capsys, "chain", sub, "--table", "-")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def test_chain_deeply_nested_json_exit_2(tmp_path, monkeypatch, capsys):
    # the JSON decoder recurses once per level; running out of stack is an
    # input error, not a negative answer
    deep = "[" * 100_000 + "]" * 100_000
    path = tmp_path / "deep.json"
    path.write_text(deep)
    for sub in ("check", "decompose"):
        for source in (str(path), "-"):
            monkeypatch.setattr(sys, "stdin", io.StringIO(deep))
            code, out, err = run(capsys, "chain", sub, "--table", source)
            assert (code, out, err) == (2, "", "error: table JSON nests too deeply\n")


def test_internal_error_exit_3(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom\nagain")

    monkeypatch.setattr(cli, "cmd_chain", broken)
    code, out, err = run(capsys, "chain", "flatten", "W1")
    assert (code, out) == (3, "")
    assert err == "internal error: RuntimeError('boom\\nagain')\n"


def test_chain_bad_input_exit_2(tmp_path, capsys):
    code, out, err = run(capsys, "chain", "flatten", "Q9")
    assert code == 2 and "error" in err
    code, out, err = run(capsys, "chain", "eval", "W2", "--op", "mul",
                         "--x", "0:9", "--y", "0:1")
    assert code == 2
    code, out, err = run(capsys, "chain", "eval", "L2", "--op", "mul",
                         "--x", "0:1/0", "--y", "0:1")
    assert code == 2 and err.startswith("error:") and err.count("\n") == 1
    # a pair is no value of U: the range check comes before the conversion
    code, out, err = run(capsys, "chain", "eval", "U", "--op", "mul",
                         "--x", "0:1,2", "--y", "top")
    assert code == 2 and err == "error: value (1, 2) out of range for U (at position 2)\n"
    for name, table in (
        ("no_imp", {"size": 2, "mul": [[0, 0], [0, 1]]}),
        ("float", {"size": 2, "mul": [[0, 0], [0, 1.0]], "imp": [[1, 0], [0, 1]]}),
        ("bool_size", {"size": True, "mul": [[0]], "imp": [[0]]}),
        ("bool_entry", {"size": 2, "mul": [[0, 0], [0, True]], "imp": [[1, 0], [0, 1]]}),
        ("string_bottom", {"size": 1, "mul": [[0]], "imp": [[0]], "bottom_designated": "no"}),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(table))
        for sub in ("check", "decompose"):
            code, out, err = run(capsys, "chain", sub, "--table", str(path))
            assert code == 2 and out == ""
            assert err.startswith("error:") and err.count("\n") == 1


def test_chain_check_scalar_rows_exit_2(tmp_path, capsys):
    # mul and imp must be lists of rows, not bare integers
    path = tmp_path / "scalar.json"
    path.write_text(json.dumps({"size": 1, "mul": 0, "imp": 0}))
    code, out, err = run(capsys, "chain", "check", "--table", str(path))
    assert code == 2 and out == ""
    assert err == "error: table JSON mul and imp must be lists of rows\n"


def test_chain_flatten_above_size_limit_exit_2(capsys):
    # one element past the limit; the guard runs before any entry is built
    code, out, err = run(capsys, "chain", "flatten", f"W{MAX_TABLE_SIZE}")
    assert code == 2 and out == ""
    assert "MAX_TABLE_SIZE" in err and err.count("\n") == 1


def test_chain_missing_table_exit_2(tmp_path, capsys):
    code, out, err = run(capsys, "chain", "check", "--table", str(tmp_path / "none.json"))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_stdout_closed_early_exit_141():
    # the table is larger than a pipe buffer, so the write after the reader
    # has gone fails inside the command
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.Popen(
        [sys.executable, "-m", "blcalc.cli", "chain", "flatten", "W100"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert "error:" not in err and "Traceback" not in err, err


def test_amalgam_leg_index_out_of_range_exit_2(capsys):
    for leg in (["--right", "W2", "--left-embedding", "5"],
                ["--right", "W2+W1", "--right-embedding", "-1"]):
        code, out, err = run(capsys, "amalgam", "search", "--apex", "W1",
                             "--left", "W2", "--universe", "[W2*]", *leg)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def test_amalgam_bounds_below_one_exit_2(capsys):
    for mode in ("search", "construct", "one-sided"):
        for flag in ("--max-index", "--max-k", "--scale-cap"):
            for value in ("0", "-1"):
                code, out, err = run(capsys, "amalgam", mode, "--apex", "T",
                                     "--left", "W1", "--right", "Z",
                                     "--universe", "[W1]|[Z]", flag, value)
                assert code == 2 and out == "", (mode, flag, value)
                assert err == f"error: {flag} must be at least 1\n"


def test_amalgam_mode_mismatch_exit_2(capsys):
    # a BL universe with hoop chains is an input error in every mode
    for mode in ("search", "construct", "one-sided"):
        code, out, err = run(capsys, "amalgam", mode, "--apex", "T", "--left", "W1",
                             "--right", "Z", "--universe", "[L1]")
        assert code == 2 and out == "", mode
        assert err.startswith("error:") and err.count("\n") == 1, mode


def test_amalgam_one_sided_none_within_bounds(capsys):
    code, data, _ = run_json(
        capsys,
        "amalgam", "one-sided",
        "--apex", "W1", "--left", "W1+Z", "--right", "Z+W1",
        "--universe", "[W1 Z]|[Z W1]",
    )
    assert code == 1
    assert data["result"] == "none-within-bounds"
    assert data["reason"] == "essential span has no amalgam within bounds"


def test_amalgam_search(capsys):
    code, data, _ = run_json(
        capsys,
        "amalgam", "search",
        "--apex", "W1", "--left", "W2", "--right", "W3",
        "--universe", "[U]", "--max-index", "1", "--max-k", "7",
    )
    assert code == 0
    assert data["amalgam"]["target"] == "W6"


def test_amalgam_none_within_bounds(capsys):
    code, data, _ = run_json(
        capsys,
        "amalgam", "search",
        "--apex", "T", "--left", "W1", "--right", "Z",
        "--universe", "[W1]|[Z]", "--max-index", "2", "--max-k", "2",
    )
    assert code == 1
    assert data["result"] == "none-within-bounds"
    assert data["bounds"]["max_index"] == 2


def test_amalgam_one_sided(capsys):
    code, data, _ = run_json(
        capsys,
        "amalgam", "one-sided",
        "--apex", "T", "--left", "W1", "--right", "Z",
        "--universe", "[W1]|[Z]",
    )
    assert code == 0
    assert data["amalgam"]["target"] == "W1"
    assert data["amalgam"]["one_sided"] is True


def test_amalgam_one_sided_codomain_outside_universe(capsys):
    # [W1] holds the quotient W1 of W2+W1, but not W2+W1 itself, on either side
    for left, right in (("W1", "W2+W1"), ("W2+W1", "W1")):
        code, data, _ = run_json(
            capsys,
            "amalgam", "one-sided",
            "--apex", "W1", "--left", left, "--right", right, "--universe", "[W1]",
        )
        assert code == 1
        assert data["result"] == "none-within-bounds"
        assert data["reason"] == "W2+W1 lies outside the universe"


def test_amalgam_construct_unsupported(capsys):
    # Wo1 and U are both in [U], but no representable kind holds them both
    code, data, _ = run_json(
        capsys,
        "amalgam", "construct",
        "--apex", "T", "--left", "Wo1", "--right", "U", "--universe", "[U]",
    )
    assert code == 1
    assert data["result"] == "unsupported"


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: blcalc")


def test_classify_commands(capsys):
    code, data, _ = run_json(capsys, "classify", "bl", "--class", "[UM U*]")
    assert code == 0 and data["verdict"]["ap"] is True
    code, data, _ = run_json(capsys, "classify", "bh", "--gens", "W1+W1")
    assert code == 1
    assert data["verdict"]["witness"] == "W1+W1+W1"
    code, data, _ = run_json(capsys, "classify", "bh", "--class", "[(W1 Z)*]")
    assert code == 0 and data["verdict"]["interval"] == "I(W1,Z):12"
    code, data, _ = run_json(capsys, "classify", "mv", "--gens", "L2,L4")
    assert code == 0 and data["verdict"]["canonical"] == "[L4]"


def test_classify_gens_and_class_one_verdict(capsys):
    # the same chain class given both ways: one answer, the pumped witness
    code, out, _ = run(capsys, "classify", "bh", "--class", "[W1 W1 W1 W1]")
    assert code == 1
    assert run(capsys, "classify", "bh", "--gens", "W1+W1+W1+W1") == (code, out, "")
    assert json.loads(out)["verdict"]["witness"] == "W1+W1+W1+W1+W1"


def test_variety_from_gens_and_class_together_exit_2(capsys):
    for argv in (("classify", "bh"), ("logic", "dip")):
        code, out, err = run(capsys, *argv, "--gens", "W1", "--class", "[W1]")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def test_empty_gens_or_class_reported_by_the_parser(capsys):
    # an empty value was given, so the parser reports it, not a missing option
    for argv in (("classify", "bh"), ("logic", "dip")):
        assert run(capsys, *argv, "--class", "") == (
            2, "", "error: empty class expression (at position 0)\n"
        )
        assert run(capsys, *argv, "--gens", "") == (
            2, "", "error: empty chain (at position 0)\n"
        )


def test_classify_bad_mode_exit_2(capsys):
    code, _, err = run(capsys, "classify", "bl", "--class", "[W1]")
    assert code == 2


def test_poset_dot(capsys):
    code, out, _ = run(capsys, "poset", "--interval", "I(W1,Z)", "--format", "dot")
    assert code == 0
    assert out.count("->") == 22
    code, out, _ = run(capsys, "poset", "--interval", "I(Wo2)", "--format", "json")
    assert code == 0 and len(json.loads(out)["nodes"]) == 3
    code, _, err = run(capsys, "poset", "--interval", "I(bogus)", "--format", "dot")
    assert code == 2


def test_logic_commands(capsys):
    code, data, _ = run_json(
        capsys,
        "logic", "interpolate",
        "--premise", "p/\\q", "--conclusion", "p\\/r", "--gens", "W1",
    )
    assert code == 0 and data["interpolant"] == "p"
    code, data, _ = run_json(
        capsys,
        "logic", "consequence",
        "--premise", "p\\/(p->0)", "--conclusion", "p", "--gens", "L2",
    )
    assert code == 1 and "countermodel" in data
    code, data, _ = run_json(capsys, "logic", "dip", "--class", "[L1 Z]")
    assert code == 0 and data["report"]["deductive_interpolation"] is True
    code, data, _ = run_json(capsys, "logic", "dip", "--class", "[L1 W1 W1]")
    assert code == 1


def test_logic_consequence_has_no_size_cap(capsys):
    # consequence computes on run bounds, not on tables, so a generator
    # above MAX_TABLE_SIZE is answered
    code, data, err = run_json(capsys, "logic", "consequence", "--premise", "p",
                               "--conclusion", "p\\/p", "--gens", f"W{MAX_TABLE_SIZE + 500}")
    assert code == 0 and data["holds"] is True and err == ""


def test_logic_consequence_form_size_limit(capsys):
    # W n has n + 1 elements, so this is one above the limit; it is refused
    # before the index form is built
    code, out, err = run(capsys, "logic", "consequence", "--premise", "p",
                         "--conclusion", "p\\/p", "--gens", f"W{MAX_FORM_SIZE}")
    assert code == 2 and out == ""
    assert "MAX_FORM_SIZE" in err and err.count("\n") == 1


def test_logic_formula_depth(capsys):
    n = MAX_FORMULA_DEPTH
    # at the limit in both parentheses and connectives: still answered
    deepest = "(p -> " * n + "p" + ")" * n
    code, data, err = run_json(capsys, "logic", "consequence", "--premise", deepest,
                               "--conclusion", deepest, "--gens", "L2")
    assert code == 0 and data["holds"] is True and err == ""
    for premise in ("(" * 3000 + "p" + ")" * 3000, " -> ".join(["p"] * 3000)):
        code, out, err = run(capsys, "logic", "consequence", "--premise", premise,
                             "--conclusion", "p", "--gens", "L2")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def test_logic_mixed_bounds_generators_exit_2(capsys):
    for sub in ("consequence", "interpolate"):
        for gens in ("L2,W2", "W2,L2"):
            code, out, err = run(capsys, "logic", sub, "--premise", "p",
                                 "--conclusion", "p", "--gens", gens)
            assert code == 2 and out == "", (sub, gens)
            assert err.startswith("error:") and err.count("\n") == 1


def test_logic_interpolate_limit_below_one_exit_2(capsys):
    for value in ("0", "-5"):
        code, out, err = run(capsys, "logic", "interpolate", "--premise", "p",
                             "--conclusion", "p", "--gens", "L2", "--limit", value)
        assert code == 2 and out == ""
        assert err == "error: --limit must be at least 1\n"


def test_logic_certified_none(capsys):
    code, data, _ = run_json(
        capsys,
        "logic", "interpolate",
        "--premise", "((p -> 0) -> p) * ((q -> p) -> q)",
        "--conclusion", "(r -> q) \\/ r",
        "--gens", "L1+W1+W1",
    )
    assert code == 1
    assert data["interpolant"] is None and data["certified"] is True


def test_outputs_deterministic(capsys):
    args = ("classify", "bh", "--class", "[W2*]")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    args = (
        "amalgam", "search", "--apex", "W1", "--left", "W2", "--right", "W2",
        "--universe", "[U]", "--max-index", "1", "--max-k", "4",
    )
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_gens_error_positions_count_from_the_option_start(capsys):
    for argv, message in (
        (("classify", "bh", "--gens", "W1,W0"), "component parameter must be >= 1 (at position 3)"),
        (("classify", "bh", "--gens", "W1, W2+"), "dangling '+' (at position 6)"),
        (("logic", "consequence", "--premise", "p", "--conclusion", "p", "--gens", "L2,L0"),
         "component parameter must be >= 1 (at position 3)"),
    ):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_element_error_positions_count_from_the_option_start(capsys):
    for x, message in (
        ("  0:x", "bad element value 'x' (at position 4)"),
        ("0:9", "value 9 out of range for W2 (at position 2)"),
    ):
        argv = ("chain", "eval", "W2", "--op", "mul", "--x", x, "--y", "0:1")
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")
