"""End-to-end tests for the command-line interface via main(argv), and of
the entry point run as a process (test_entry_point_process_answers_as_main)."""

import argparse
import ast
import csv
import hashlib
import importlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from sdprod import cli, fpcoset, pcgroup
from sdprod.arith import derive_pair
from sdprod.cli import main
from sdprod.congruence import SolutionSet, TupleA, TupleB
from sdprod.pcgroup import build_table

SD16_FILE = "x^8\ny^2\nY x y X^3\n"
ROOT = Path(__file__).resolve().parents[1]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_enumerate_a_json(capsys):
    code, out, _ = run(capsys, ["enumerate-a", "--n", "4", "--m", "4", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 144
    assert doc["fields"] == ["a", "s", "t", "c"]
    assert len(doc["tuples"]) == 144
    assert doc["histograms"]["s"] == {"0": 24, "2": 48, "4": 24, "6": 48}
    assert doc["all_fields_even"] is True


def test_enumerate_a_text_summary(capsys):
    code, out, _ = run(capsys, ["enumerate-a", "--n", "4", "--m", "4"])
    assert code == 0
    assert "count: 144" in out
    assert "histogram s: 0=24 2=48 4=24 6=48" in out
    assert "parity: all fields even" in out


def test_enumerate_a_csv_round_trip(capsys):
    code, out, _ = run(capsys, ["enumerate-a", "--n", "4", "--m", "4", "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["a", "s", "t", "c"]
    assert len(rows) == 145
    for row in rows[1:]:
        code, _, _ = run(
            capsys, ["check-a", "--n", "4", "--m", "4", "--tuple", ",".join(row)]
        )
        assert code == 0


def test_enumerate_b_csv_header_and_projection(capsys):
    code, out, _ = run(
        capsys,
        ["enumerate-b", "--n", "4", "--m", "4", "--n1", "1", "--m1", "1", "--format", "csv"],
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["r", "a", "s", "b", "t", "c"]
    assert len(rows) == 145
    assert all(row[0] == "0" and row[3] == "0" for row in rows[1:])


def test_enumerate_output_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = run(
        capsys,
        ["enumerate-a", "--n", "4", "--m", "4", "--format", "csv", "--output", str(target)],
    )
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[0] == "a,s,t,c"


def test_enumerate_rank_errors(capsys):
    code, _, err = run(capsys, ["enumerate-a", "--n", "3", "--m", "4"])
    assert code == 1
    assert "rank too small" in err
    code, _, err = run(capsys, ["enumerate-a", "--n", "25", "--m", "4"])
    assert code == 2


def test_enumerate_a_gate(tmp_path, capsys):
    # the four-field listing at (13, 13) has the 16,810,000 tuples of
    # cores (1, 1): refused before any byte is written, as enumerate-b is
    target = tmp_path / "out.txt"
    argv = ["enumerate-a", "--n", "13", "--m", "13"]
    start = time.perf_counter()
    code, out, err = run(capsys, argv + ["--output", str(target)])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err == (
        "sdprod: limit: listing of 16810000 tuples exceeds the gate (16777216); "
        "pass --allow-large to run it\n"
    )
    assert not target.exists()
    code, out, _ = run(capsys, ["enumerate-a", "--n", "10", "--m", "10"])
    assert code == 0
    assert "count: 266256" in out


def test_enumerate_b_scan_gate(tmp_path, capsys):
    # 16,810,000 tuples at (13, 13), cores (1, 1): refused before any byte
    # is written, and without listing them
    target = tmp_path / "out.txt"
    argv = ["enumerate-b", "--n", "13", "--m", "13", "--n1", "1", "--m1", "1"]
    start = time.perf_counter()
    code, out, err = run(capsys, argv + ["--output", str(target)])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "listing of 16810000 tuples exceeds the gate" in err
    assert not target.exists()
    # the gate counts tuples, not grid points: (5, 6) needs no flag
    for n, m, core, count in ((5, 6, 1, 720), (4, 4, 2, 160)):
        argv = ["enumerate-b", "--n", str(n), "--m", str(m), "--n1", str(core), "--m1", str(core)]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert f"\ncount: {count}\n" in out


def test_empty_listing_renders_no_numerals(capsys):
    # no tuple at (20, 20) has cores (4, 4): the answer is the summary
    # alone, without rendering the 2^19 numerals of t and of c
    argv = ["enumerate-b", "--n", "20", "--m", "20", "--n1", "4", "--m1", "4"]
    tracemalloc.start()
    try:
        answer = run(capsys, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    histograms = "".join(f"histogram {name}: (empty)\n" for name in TupleB._fields)
    assert answer == (0, f"count: 0\n{histograms}parity: all fields even\n", "")
    assert peak < 1_000_000, peak


def test_enumerate_b_bad_cores(capsys):
    code, _, err = run(
        capsys, ["enumerate-b", "--n", "4", "--m", "4", "--n1", "3", "--m1", "1"]
    )
    assert code == 1
    assert "core spec" in err


def test_check_a_valid(capsys):
    code, out, _ = run(capsys, ["check-a", "--n", "4", "--m", "4", "--tuple", "0,2,0,0"])
    assert code == 0
    assert "C1: pass" in out
    assert "verdict: valid" in out


def test_check_a_invalid_with_residual(capsys):
    code, out, _ = run(capsys, ["check-a", "--n", "4", "--m", "4", "--tuple", "1,0,0,0"])
    assert code == 1
    assert "C1: FAIL (residual 3)" in out
    assert "C2: pass" in out
    assert "verdict: invalid" in out


def test_check_a_json(capsys):
    code, out, _ = run(
        capsys,
        ["check-a", "--n", "4", "--m", "4", "--tuple", "1,0,0,0", "--format", "json"],
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["valid"] is False
    assert doc["conditions"]["C1"] == {"passed": False, "residual": 3}
    assert doc["conditions"]["C2"]["passed"] is True


def test_check_b_order_condition(capsys):
    code, out, _ = run(
        capsys,
        ["check-b", "--n", "4", "--m", "4", "--n1", "2", "--m1", "1", "--tuple", "0,0,0,0,0,0"],
    )
    assert code == 1
    assert "ORD-B: FAIL (order 1)" in out
    assert "D1: pass" in out


def test_check_tuple_usage_errors(capsys):
    code, _, err = run(capsys, ["check-a", "--n", "4", "--m", "4", "--tuple", "0,2,0"])
    assert code == 3
    assert "expected 4 fields" in err
    code, _, err = run(capsys, ["check-a", "--n", "4", "--m", "4", "--tuple", "a,b,c,d"])
    assert code == 3


# more digits than int() reads from a string
OVER_LONG = "1" * (sys.get_int_max_str_digits() + 1)


@pytest.mark.parametrize(
    "field", ["\uff14", "1_0", OVER_LONG], ids=["fullwidth", "underscore", "over-long"]
)
@pytest.mark.parametrize(
    "argv",
    [["check-a", "--n", "4", "--m", "4"], ["build", "--n", "4", "--m", "4"]],
    ids=["check-a", "build"],
)
def test_tuple_fields_take_only_ascii_digits(capsys, argv, field):
    # int() reads the fullwidth 4 as 4 and 1_0 as 10, and raises ValueError
    # on the over-long field
    text = f"{field},2,0,0"
    code, out, err = run(capsys, argv + ["--tuple", text])
    assert (code, out) == (3, "")
    assert err == f"sdprod: error: malformed tuple {text!r}: fields must be integers\n"


def test_argparse_errors_exit_three(capsys):
    with pytest.raises(SystemExit) as info:
        main(["enumerate-a", "--n", "4"])
    assert info.value.code == 3
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 3
    capsys.readouterr()
    for value in ("0", "-1", "abc"):
        with pytest.raises(SystemExit) as info:
            main(["tc", "--preset", "example-6-5", "--max-cosets", value])
        assert info.value.code == 3
        assert capsys.readouterr().err.endswith(
            f"error: argument --max-cosets: expected a positive integer, got '{value}'\n"
        )
    # a value that starts with "-" is read as a flag, so --tuple has none
    with pytest.raises(SystemExit) as info:
        main(["check-a", "--n", "4", "--m", "4", "--tuple", "-1,0,0,0"])
    assert info.value.code == 3
    assert capsys.readouterr().err.endswith("error: argument --tuple: expected one argument\n")
    for argv in (
        ["enumerate-a", "--n", "4", "--m", "4", "--workers", "2"],
        ["build", "--n", "4", "--m", "4", "--tuple", "0,2,0,0", "--max-table", "100"],
        ["crosscheck", "--n", "4", "--m", "4", "--tuple", "0,2,0,0", "--format", "text"],
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 3
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


# One valid command line per subcommand, for the parser comparisons.
VALID_ARGV = {
    "enumerate-a": ["enumerate-a", "--n", "4", "--m", "4"],
    "enumerate-b": ["enumerate-b", "--n", "4", "--m", "4", "--n1", "2", "--m1", "2"],
    "check-a": ["check-a", "--n", "4", "--m", "4", "--tuple", "0,2,0,0"],
    "check-b": ["check-b", "--n", "4", "--m", "4", "--n1", "2", "--m1", "2", "--tuple", "4,0,0,4,0,0"],
    "build": ["build", "--n", "4", "--m", "4", "--tuple", "0,2,0,0"],
    "tc": ["tc", "--preset", "example-6-5"],
    "crosscheck": ["crosscheck", "--n", "4", "--m", "4", "--tuple", "0,2,0,0"],
}
PARSER_CASES = (
    [["--help"], ["no-such-command"], []]
    + [[name, "--help"] for name in VALID_ARGV]
    + [[name, "--bogus"] for name in VALID_ARGV]
    + [argv + ["--format", "xml"] for argv in VALID_ARGV.values()]
    + [argv + ["--bogus"] for argv in VALID_ARGV.values()]
    + [argv + ["extra"] for argv in VALID_ARGV.values()]
)


def exit_of(capsys, parse, argv):
    with pytest.raises(SystemExit) as info:
        parse(argv)
    cap = capsys.readouterr()
    return info.value.code, cap.out, cap.err


@pytest.mark.parametrize(
    "value", ["\uff14", "1_0", OVER_LONG], ids=["fullwidth", "underscore", "over-long"]
)
@pytest.mark.parametrize(
    "argv, flag, message",
    [(VALID_ARGV["check-b"], flag, "invalid int value:") for flag in ("--n", "--m", "--n1", "--m1")]
    + [(VALID_ARGV["check-a"], "--n", "invalid int value:")]
    + [
        (
            VALID_ARGV["tc"] + ["--max-cosets", "2000"],
            "--max-cosets",
            "expected a positive integer, got",
        )
    ],
    ids=["n", "m", "n1", "m1", "check-a-n", "max-cosets"],
)
def test_numeric_flags_take_only_ascii_digits(capsys, argv, flag, message, value):
    # int() reads the fullwidth 4 as 4 and 1_0 as 10, and raises ValueError
    # on the over-long value
    argv = list(argv)
    argv[argv.index(flag) + 1] = value
    code, out, err = exit_of(capsys, main, argv)
    assert (code, out) == (3, "")
    assert err.endswith(f"error: argument {flag}: {message} {value!r}\n")


@pytest.mark.parametrize("text", ["4", " 4 ", "+4", "-4", "004", "abc", "4.0", "", "+", "\uff14", "1_0"])
def test_integer_flags_read_ascii_as_type_int_does(text):
    # where int() reads ASCII, _integer gives its value or argparse's error
    # bytes for type=int; a non-ASCII digit or an underscore is an error
    def parsed(kind):
        parser = argparse.ArgumentParser(prog="p", exit_on_error=False)
        parser.add_argument("--n", type=kind)
        try:
            return parser.parse_args(["--n", text]).n
        except argparse.ArgumentError as exc:
            return str(exc)

    if text in ("\uff14", "1_0"):
        assert parsed(cli._integer) == f"argument --n: invalid int value: {text!r}"
    else:
        assert parsed(cli._integer) == parsed(int)


def test_help_describes_the_tool_not_the_code(capsys):
    # --help gives the docstring's first two paragraphs: what the tool is
    # and its exit codes, not the notes on how JSON or argv are handled
    code, out, _ = exit_of(capsys, main, ["--help"])
    assert code == 0
    assert "Command line front end." in out and "Exit codes:" in out
    assert "json.dumps" not in out and "argparse" not in out


def test_parser_covers_every_subcommand():
    assert set(VALID_ARGV) == set(cli.SUBCOMMANDS)


@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_help_and_usage_lines_exit_0_or_3(capsys, argv):
    code, out, _ = exit_of(capsys, main, argv)
    assert code == (0 if "--help" in argv else 3)
    if argv[1:] == ["--help"]:  # a subcommand's help names each of its flags
        assert [option for option, _ in cli.SUBCOMMANDS[argv[0]][2] if option not in out] == []


# main() may be called many times in one process; these tests show that
# one call cannot change the answer of the next.


def test_options_do_not_leak_into_the_next_call(tmp_path, capsys):
    target = tmp_path / "table.txt"
    argv = ["build", "--n", "4", "--m", "4", "--tuple", "0,2,0,0"]
    code, out, _ = run(capsys, argv + ["--output", str(target)])
    assert (code, out.endswith(f"table written to: {target}\n")) == (0, True)
    target.unlink()
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out.startswith("tuple: 0,2,0,0 (valid)\n")
    assert "table written to" not in out
    assert not target.exists()

    rel = tmp_path / "sd16.rel"
    rel.write_text(SD16_FILE)
    code, out, err = run(capsys, ["tc", "--relators", str(rel), "--max-cosets", "5"])
    assert (code, out) == (2, "")
    assert "limit" in err
    code, out, _ = run(capsys, ["tc", "--relators", str(rel)])
    assert code == 0
    assert out.startswith("cosets: 16\n")

    argv = VALID_ARGV["check-b"]
    code, out, _ = run(capsys, argv + ["--format", "json"])
    assert (code, json.loads(out)["valid"]) == (0, True)
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out.startswith("D1: pass\n")
    assert out.endswith("verdict: valid\n")


def test_parser_errors_do_not_affect_the_next_call(capsys):
    for argv in PARSER_CASES:
        valid = VALID_ARGV.get(argv[0] if argv else None, VALID_ARGV["check-b"])
        got = exit_of(capsys, main, argv)
        assert got == exit_of(capsys, cli.build_parser().parse_args, argv), argv
        want_args = cli.build_parser().parse_args(valid)
        want = (want_args.func(want_args), *capsys.readouterr())
        assert run(capsys, valid) == want, (argv, valid)


def test_main_builds_no_parser_once_warm(capsys, monkeypatch):
    # nor on the first call: a well-formed line is read off SUBCOMMANDS
    built = []
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    cycle = list(VALID_ARGV.values())
    for i in range(100):
        argv = cycle[i % len(cycle)]
        code, _, err = run(capsys, argv)
        assert (code, err) == (0, ""), argv
    assert built == []


def test_unknown_commands_exit_3(capsys):
    # a prefix of a subcommand's name names no subcommand either
    for command in ("no-such-command", "check", "CHECK-A"):
        with pytest.raises(SystemExit) as info:
            main([command, "--n", "4"])
        assert info.value.code == 3
        assert "invalid choice" in capsys.readouterr().err


# One command line per documented exit code, run as a process, and the
# digit strings too long for int() in a tuple field, a rank and
# --max-cosets.  The exit 0 listing has blocks whose c range moves with t
# (c_unit != 0); its bytes are pinned.  The fullwidth 4 is a rank that
# argparse refuses.
ENTRY_POINT_ARGV = {
    "0": (0, ["enumerate-b", "--n", "5", "--m", "6", "--n1", "2", "--m1", "2", "--format", "json"]),
    "1": (1, ["check-a", "--n", "4", "--m", "4", "--tuple", "1,0,0,0"]),
    "2": (2, ["enumerate-a", "--n", "13", "--m", "13"]),
    "3": (3, ["check-a", "--n", "\uff14", "--m", "4", "--tuple", "0,2,0,0"]),
    "3-over-long-tuple": (3, ["check-a", "--n", "4", "--m", "4", "--tuple", OVER_LONG + ",2,0,0"]),
    "3-over-long-n": (3, ["check-a", "--n", OVER_LONG, "--m", "4", "--tuple", "0,2,0,0"]),
    "3-over-long-max-cosets": (3, ["tc", "--preset", "example-6-5", "--max-cosets", OVER_LONG]),
}
LISTING_B_5_6_JSON = (60_070, "df9a77a894ef787e2007d69b91966f14cbfa3cc4383931febb98c4367b3f0aa3")


@pytest.mark.parametrize("case", sorted(ENTRY_POINT_ARGV))
def test_entry_point_process_answers_as_main(capsys, case):
    # python -m sdprod.cli runs console_main, the function the installed
    # script calls, which hands main's answer to sys.exit: the process
    # gives the exit code, stdout and stderr of main(argv) in this process
    code, argv = ENTRY_POINT_ARGV[case]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONIOENCODING": "utf-8"}
    proc = subprocess.run(
        [sys.executable, "-m", "sdprod.cli", *argv], capture_output=True, env=env, timeout=60
    )
    try:
        want = main(argv)
    except SystemExit as exc:  # argparse's errors
        want = exc.code
    cap = capsys.readouterr()
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (want, cap.out, cap.err)
    assert want == code
    if code == 0:
        assert (len(proc.stdout), hashlib.sha256(proc.stdout).hexdigest()) == LISTING_B_5_6_JSON


# The direct parse reads a well-formed command line off the subcommand's
# declaration in SUBCOMMANDS; argparse answers everything else.

# One command line per shape that the benchmark's workloads run.
WORKLOAD_ARGV = [
    ["check-a", "--n", "13", "--m", "17", "--tuple", "3,5,7,9", "--format", "text"],
    ["check-b", "--n", "13", "--m", "17", "--n1", "2", "--m1", "1", "--tuple", "3,5,7,9,11,13",
     "--format", "json"],
    ["enumerate-a", "--n", "9", "--m", "7", "--format", "csv"],
    ["enumerate-b", "--n", "10", "--m", "10", "--n1", "2", "--m1", "2", "--allow-large", "--format", "csv"],
    ["build", "--n", "4", "--m", "4", "--tuple", "4,0,0,4,0,0", "--format", "json", "--output", "t.table"],
    ["build", "--n", "4", "--m", "4", "--tuple", "0,2,0,0", "--format", "text", "--verify-associativity"],
    ["tc", "--preset", "example-6-5", "--format", "json"],
    ["tc", "--relators", "f.rel", "--format", "text"],
    ["crosscheck", "--n", "4", "--m", "5", "--tuple", "0,2,0,0"],
]


def subparsers():
    """build_parser()'s subparsers by name."""
    parser = cli.build_parser()
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_main_parses_well_formed_lines_without_argparse(capsys, monkeypatch):
    def no_argparse(self, *args, **kwargs):
        raise AssertionError("argparse parsed a well-formed command line")

    monkeypatch.setattr(cli._Parser, "parse_known_args", no_argparse)
    for argv in [*VALID_ARGV.values(), VALID_ARGV["check-b"] + ["--format", "json"]]:
        code, _, err = run(capsys, argv)
        assert (code, err) == (0, ""), argv


@pytest.mark.parametrize("argv", [*VALID_ARGV.values(), *WORKLOAD_ARGV], ids=" ".join)
def test_direct_parse_gives_the_subparsers_namespace(argv):
    args = cli._parse_direct(argv)
    want, extra = cli.build_parser().parse_known_args(argv)
    assert extra == []
    # the same attributes with the same values, in the same order
    assert list(vars(args).items()) == list(vars(want).items())


CHECK_A = VALID_ARGV["check-a"]


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["no-such-command"] + CHECK_A[1:],
        CHECK_A + ["--form", "json"],  # an abbreviation
        ["check-a", "--n=4", "--m", "4", "--tuple", "0,2,0,0"],
        CHECK_A + ["-h"],
        CHECK_A + ["--help"],
        CHECK_A + ["--bogus"],
        CHECK_A + ["extra"],
        CHECK_A + ["--"],
        CHECK_A + ["--n", "5"],  # a repeated flag
        ["check-a", "--n", "-4", "--m", "4", "--tuple", "0,2,0,0"],
        ["check-a", "--n", "4", "--m", "4", "--tuple", "-1,0,0,0"],
        CHECK_A + ["--format"],  # a missing value
        CHECK_A + ["--output", "--format"],
        ["check-a", "--n", "x", "--m", "4", "--tuple", "0,2,0,0"],  # int("x") raises
        CHECK_A + ["--format", "xml"],  # not a choice
        ["check-a", "--n", "4", "--m", "4"],  # --tuple is required
        VALID_ARGV["tc"] + ["--max-cosets", "0"],  # ArgumentTypeError
        VALID_ARGV["crosscheck"] + ["--format", "json"],
        VALID_ARGV["build"] + ["--verify-associativity", "--verify-associativity"],
    ],
    ids=" ".join,
)
def test_direct_parse_declines_what_argparse_answers(argv):
    assert cli._parse_direct(argv) is None


@pytest.mark.parametrize(
    "argv, canonical",
    [
        (["check-a", "--n=4", "--m", "4", "--tuple", "0,2,0,0"], CHECK_A),
        (CHECK_A + ["--form", "json"], CHECK_A + ["--format", "json"]),
    ],
    ids=["flag=value", "abbreviation"],
)
def test_spellings_argparse_reads_answer_as_the_canonical_ones(capsys, argv, canonical):
    # the direct parse declines these, and argparse's answer is byte for
    # byte that of the canonical spelling
    assert cli._parse_direct(argv) is None
    assert run(capsys, argv) == run(capsys, canonical)


@pytest.mark.parametrize("name", list(cli.SUBCOMMANDS))
def test_flag_table_agrees_with_the_built_subparser(name):
    # the direct parse restates argparse's rules for dest and default, and
    # models only "--" flags that store one value or are store_true, with
    # no str default next to a type (argparse would convert it)
    _, func, flags = cli.SUBCOMMANDS[name]
    for option, keywords in flags:
        assert option.startswith("--") and len(option) > 2, option
        assert set(keywords) <= {"type", "choices", "default", "required", "help", "action"}, option
        assert keywords.get("action", "store_true") == "store_true", option
        assert not (isinstance(keywords.get("default"), str) and "type" in keywords), option
    options, defaults, required = cli._FLAG_TABLES[name]
    parser = subparsers()[name]
    assert not parser._mutually_exclusive_groups
    actions = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
    assert [a.option_strings for a in actions] == [[option] for option in options]
    for action in actions:
        option = action.option_strings[0]
        dest, store_true, kind, choices = options[option]
        assert (dest, kind, choices) == (action.dest, action.type, action.choices)
        assert store_true == isinstance(action, argparse._StoreTrueAction)
        assert store_true or type(action) is argparse._StoreAction and action.nargs is None
        assert (option in required) == action.required
    want = {"command": name, **{a.dest: a.default for a in actions}, **parser._defaults}
    assert list(defaults.items()) == list(want.items())
    assert parser._defaults == {"func": func}


def test_every_declared_flag_is_read_by_its_command(capsys, monkeypatch, tmp_path):
    # each subcommand's func runs on the lines below, parsed directly into a
    # namespace that records what is read; a dest no line reads is a flag
    # its command ignores.  The listings the gate refuses are the lines that
    # read --allow-large, and they write nothing
    out = str(tmp_path / "out")
    lines = [
        (0, ["enumerate-a", "--n", "4", "--m", "4", "--format", "json", "--output", out]),
        (2, ["enumerate-a", "--n", "13", "--m", "13", "--output", out + "-gated"]),
        (0, VALID_ARGV["enumerate-b"] + ["--format", "csv", "--output", out]),
        (
            2,
            ["enumerate-b", "--n", "13", "--m", "13", "--n1", "1", "--m1", "1"]
            + ["--output", out + "-gated"],
        ),
        (0, VALID_ARGV["check-a"] + ["--format", "json", "--output", out]),
        (0, VALID_ARGV["check-b"] + ["--format", "json", "--output", out]),
        (0, VALID_ARGV["build"] + ["--output", out, "--verify-associativity", "--format", "json"]),
        (0, VALID_ARGV["tc"] + ["--max-cosets", "2000", "--format", "json", "--output", out]),
        (0, VALID_ARGV["crosscheck"] + ["--max-cosets", "2000", "--output", out]),
    ]
    read: set[str] = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    def parse(argv):
        args = cli._parse_direct(argv)
        assert args is not None, argv
        return Recording(**vars(args))

    monkeypatch.setattr(cli, "_parse_args", parse)
    unread = {
        name: {dest for dest, *_ in options.values()} for name, (options, *_) in cli._FLAG_TABLES.items()
    }
    for code, argv in lines:
        read.clear()
        assert run(capsys, argv)[0] == code, argv
        unread[argv[0]] -= read
    assert not (tmp_path / "out-gated").exists()
    assert [(name, dests) for name, dests in unread.items() if dests] == []


@pytest.mark.parametrize(
    "extra",
    [[], ["--output", "TABLE"], ["--verify-associativity"]],
    ids=["report", "output", "assoc"],
)
def test_build_checks_consistency_once(capsys, monkeypatch, tmp_path, extra):
    # a build that makes a table hands its report to build_table
    calls = []
    checked = pcgroup.check_consistency

    def counted(pc):
        calls.append(pc)
        return checked(pc)

    monkeypatch.setattr(pcgroup, "check_consistency", counted)
    monkeypatch.setattr(cli, "check_consistency", counted)
    extra = [str(tmp_path / "t.txt") if a == "TABLE" else a for a in extra]
    argv = ["build", "--n", "4", "--m", "4", "--tuple", "4,0,0,4,0,0"] + extra
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert "consistency: 16/16 identities hold" in out
    assert len(calls) == 1


def test_build_reads_its_cores_without_subgroup_closures(capsys, monkeypatch):
    # the structure lines come from the tail maps: no closure, no core walk
    def refuse(*args):
        raise AssertionError("build called a per-element subgroup routine")

    for module in (cli, pcgroup):
        monkeypatch.setattr(module, "core_of", refuse)
        monkeypatch.setattr(module, "subgroup_closure", refuse)
    argv = ["build", "--n", "4", "--m", "4", "--tuple", "4,0,0,4,0,0"]
    assert run(capsys, argv) == (
        0,
        "tuple: 4,0,0,4,0,0 (valid)\n"
        "consistency: 16/16 identities hold\n"
        "order: 256\n"
        "|H| = 16  |K| = 16  |H meet K| = 1\n"
        "<x> normal: NO  <z> normal: NO\n"
        "core of <x>: order 4  core of <z>: order 4\n",
        "",
    )
    code, out, err = run(capsys, argv + ["--format", "json"])
    assert (code, err) == (0, "")
    assert out == json.dumps(
        {
            "tuple": [4, 0, 0, 4, 0, 0],
            "valid": True,
            "consistency_passed": 16,
            "consistency_total": 16,
            "order": 256,
            "h_order": 16,
            "k_order": 16,
            "intersection_order": 1,
            "x_normal": False,
            "z_normal": False,
            "core_x_order": 4,
            "core_z_order": 4,
            "requested_cores": [2, 2],
        },
        indent=2,
    ) + "\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "n, m, t, failed",
    [
        # b = 1 has additive order M = 32, above N = 8
        (4, 6, "0,0,0,1,0,0", ("D4", "D7", "ORD-B")),
        # r = 1 has additive order N = 32, above M = 8
        (6, 4, "1,0,0,0,0,0", ("D1", "D5", "ORD-R")),
    ],
)
def test_build_verdict_on_an_r_or_b_too_large_for_the_other_factor(capsys, fmt, n, m, t, failed):
    argv = ["build", "--n", str(n), "--m", str(m), "--tuple", t, "--format", fmt]
    code, out, err = run(capsys, argv)
    assert (code, err) == (1, "")
    if fmt == "json":
        doc = json.loads(out)
        assert doc["valid"] is False
        assert tuple(tag for tag, v in doc["conditions"].items() if not v["passed"]) == failed
        assert doc["conditions"][failed[-1]]["residual"] == 32
    else:
        assert tuple(line.split(":")[0] for line in out.splitlines() if "FAIL" in line) == failed
        assert f"{failed[-1]}: FAIL (order 32)\n" in out
        assert out.endswith("verdict: invalid\n")


def test_build_and_crosscheck_report_without_a_table(capsys, monkeypatch):
    # build reads its report off the presentation, and crosscheck's
    # collection side is the consistency check and 4NM
    def no_table(*args, **kwargs):
        raise AssertionError("a table was built for a report")

    monkeypatch.setattr(cli, "build_table", no_table)
    for n, order, core in ((4, 256, 8), (20, 2**40, 2**19)):
        argv = ["build", "--n", str(n), "--m", str(n), "--tuple", "0,0,0,0"]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        assert f"order: {order}\n" in out
        assert f"core of <x>: order {core}  core of <z>: order {core}\n" in out
        code, out, err = run(capsys, argv + ["--format", "json"])
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert (doc["order"], doc["core_x_order"], doc["core_z_order"]) == (order, core, core)
    # (11, 10) is past the 2^20 order that a table may have
    for n, m, order in ((4, 4, 256), (5, 4, 512), (11, 10, 2**21)):
        argv = ["crosscheck", "--n", str(n), "--m", str(m), "--tuple", "0,0,0,0"]
        assert run(capsys, argv) == (0, f"collection: {order}, enumeration: {order}, AGREE\n", "")


def test_build_witness_text(capsys):
    code, out, _ = run(capsys, ["build", "--n", "4", "--m", "4", "--tuple", "0,2,0,0"])
    assert code == 0
    assert "consistency: 16/16 identities hold" in out
    assert "order: 256" in out
    assert "|H| = 16  |K| = 16  |H meet K| = 1" in out
    assert "<x> normal: yes  <z> normal: yes" in out
    assert "core of <x>: order 8  core of <z>: order 8" in out


def test_build_twisted_tuple_cores(capsys):
    code, out, _ = run(
        capsys,
        ["build", "--n", "4", "--m", "4", "--tuple", "4,0,0,4,0,0", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 256
    assert doc["core_x_order"] == 4
    assert doc["core_z_order"] == 4
    assert doc["requested_cores"] == [2, 2]


def test_build_invalid_tuple_stops_early(tmp_path, capsys):
    code, out, _ = run(capsys, ["build", "--n", "4", "--m", "4", "--tuple", "1,0,0,0"])
    assert code == 1
    assert "verdict: invalid" in out
    # --output names the table file: the verdict still goes to stdout
    target = tmp_path / "table.txt"
    argv = ["build", "--n", "4", "--m", "4", "--tuple", "1,0,0,0", "--output", str(target)]
    code, out, _ = run(capsys, argv)
    assert code == 1
    assert "verdict: invalid" in out
    code, out, _ = run(capsys, argv + ["--format", "json"])
    assert code == 1
    assert json.loads(out)["valid"] is False
    assert not target.exists()


def test_build_table_file(tmp_path, capsys):
    target = tmp_path / "table.txt"
    code, out, _ = run(
        capsys,
        ["build", "--n", "4", "--m", "4", "--tuple", "0,2,0,0", "--output", str(target)],
    )
    assert code == 0
    assert f"table written to: {target}" in out
    lines = target.read_text().splitlines()
    assert lines[0] == "# sdprod group table v1"
    assert lines[1:5] == ["n: 4", "m: 4", "tuple: 0,2,0,0", "order: 256"]
    body = lines[5:]
    assert len(body) == 256
    assert body[0].split() == [str(j) for j in range(256)]
    for row in body:
        assert sorted(int(v) for v in row.split()) == list(range(256))


def reference_table_file(n, m, t):
    """The table file as the row-at-a-time writer wrote it, from mul alone."""
    pair = derive_pair(n, m)
    if len(t) == 4:
        pc = pcgroup.pc_from_tuple_a(pair, TupleA(*t))
    else:
        pc = pcgroup.pc_from_tuple_b(pair, TupleB(*t))
    g = build_table(pc)
    head = [
        "# sdprod group table v1", f"n: {n}", f"m: {m}", f"tuple: {','.join(map(str, t))}",
        f"order: {g.order}",
    ]
    rows = [" ".join(str(g.mul(a, v)) for v in range(g.order)) for a in range(g.order)]
    return "\n".join(head + rows) + "\n"


@pytest.mark.parametrize(
    "n,m,t",
    [
        (4, 4, (2, 2, 2, 2)),
        (4, 5, (6, 2, 2, 2)),
        (5, 4, (2, 6, 2, 2)),
        (5, 5, (6, 6, 2, 2)),
        (4, 4, (4, 0, 0, 4, 4, 4)),
        (4, 5, (4, 0, 0, 8, 4, 8)),
        (5, 4, (8, 0, 0, 4, 8, 4)),
        (5, 5, (8, 0, 0, 8, 8, 8)),
    ],
)
def test_build_table_file_matches_reference(tmp_path, capsys, n, m, t):
    target = tmp_path / "table.txt"
    argv = ["build", "--n", str(n), "--m", str(m), "--tuple", ",".join(map(str, t))]
    code, _, _ = run(capsys, argv + ["--output", str(target)])
    assert code == 0
    assert target.read_text() == reference_table_file(n, m, t)


class RowSampler:
    """A file that counts and hashes the characters written to it and keeps
    the lines it was asked for."""

    def __init__(self, wanted=()):
        self.size, self.line, self.wanted, self.kept = 0, 0, set(wanted), {}
        self.sha256 = hashlib.sha256()

    def write(self, text):
        self.size += len(text)
        self.sha256.update(text.encode("utf-8"))
        for i, piece in enumerate(text.split("\n")):
            self.line += i > 0
            if self.line in self.wanted:
                self.kept[self.line] = self.kept.get(self.line, "") + piece


# build --output: (n, m, tuple, size, sha256) of table files whose bytes
# are pinned.  At (4, 5) the w-past-y map carries the shift z^2 x^4 of
# y^w = y z^c x^t; (6, 6) is the file at the cap.
TABLE_FILES = [
    (5, 5, "8,0,0,8,0,0", 4_106_305, "d029a335fa71c45e5559b60be103f363fbc1edc46bc30f006c25066250c1ff54"),
    (4, 5, "4,6,0,4,4,2", 992_320, "895dd1fb50c798da75186918f93a95f658de009b94afbeaa0a58918c7228eb1b"),
    (6, 6, "16,0,0,16,0,0", 79_339_587, "bea4a524851cea7140126a3de986f2381345d5821d82e9cc80d2d34923d320be"),
]


def test_table_file_at_the_cap():
    # Every row lists the numerals 0..4095 once, so the rows take
    # 79,339,520 bytes at order 4096 whatever the tuple; the header is 67.
    pair, t = derive_pair(6, 6), TupleB(16, 0, 0, 16, 0, 0)
    g = build_table(pcgroup.pc_from_tuple_b(pair, t))
    assert g.order == cli.TABLE_FILE_CAP
    rows = sorted({0, g.order - 1, *random.Random(4096).sample(range(g.order), 8)})
    header = 5
    sampler = RowSampler(header + a for a in rows)
    cli._write_table(sampler, g, t)
    # the whole file, hashed as it is written
    assert (sampler.size, sampler.sha256.hexdigest()) == TABLE_FILES[-1][3:]
    for a in rows:
        assert sampler.kept[header + a] == " ".join(map(str, g.row(a))), a

    # The writer streams rows from O(N * order) text; a cache of the
    # quarter rows (order**2 / 4 numerals) would take about 21 MB here.
    counter = RowSampler()
    tracemalloc.start()
    try:
        cli._write_table(counter, g, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counter.size == sampler.size
    assert peak < 4_000_000, peak


def test_build_table_file_cap(tmp_path, capsys, monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("the table was built for a refused table file")

    monkeypatch.setattr(cli, "build_table", no_table)
    target = tmp_path / "table.txt"
    code, out, err = run(
        capsys,
        ["build", "--n", "7", "--m", "6", "--tuple", "0,0,0,0", "--output", str(target)],
    )
    assert code == 2
    assert err == "sdprod: limit: table file too large: order 8192 exceeds cap 4096\n"
    assert out == ""
    assert not target.exists()


def test_table_file_reaches_the_os_in_buffer_sized_writes(tmp_path, capsys, monkeypatch):
    # counts and hashes the writes that reach the raw file, with the buffer
    # the sink asks for; the raw file keeps no bytes, so no 79 MB file is
    # written.  The writer joins rows in chunks of at least 2 * OUTPUT_BUFFER
    # characters, the header in the first, and a chunk larger than the
    # buffer goes to the raw file as one write: every write but the last
    # is that large
    writes = []

    class DiscardingFileIO(io.RawIOBase):
        def writable(self):
            return True

        def write(self, data):
            writes.append(len(data))
            sha256.update(data)
            return len(data)

    def counting_open(file, mode="r", buffering=-1, encoding=None):
        assert mode == "w"
        size = io.DEFAULT_BUFFER_SIZE if buffering == -1 else buffering
        raw = io.BufferedWriter(DiscardingFileIO(), buffer_size=size)
        return io.TextIOWrapper(raw, encoding=encoding)

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    chunk = 2 * cli.OUTPUT_BUFFER
    for n, m, t, size, digest in TABLE_FILES:
        writes.clear()
        sha256 = hashlib.sha256()
        argv = ["build", "--n", str(n), "--m", str(m), "--tuple", t]
        code, _, _ = run(capsys, argv + ["--output", str(tmp_path / "t.table")])
        assert code == 0
        assert (sum(writes), sha256.hexdigest()) == (size, digest), (n, m)
        assert len(writes) <= -(-size // chunk) + 1, (n, m)
        assert min(writes[:-1]) >= chunk, (n, m)


def test_output_files_are_opened_only_by_the_sink():
    tree = ast.parse((ROOT / "src" / "sdprod" / "cli.py").read_text(encoding="utf-8"))
    sink = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_sink")
    opens = {
        id(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open"
    }
    assert len(opens) == 1
    assert opens <= {id(node) for node in ast.walk(sink)}


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--n", "4", "--m", "4", "--tuple", "0,2,0,0"],
        ["enumerate-a", "--n", "4", "--m", "4"],
    ],
    ids=["build", "enumerate-a"],
)
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_output_write_errors(tmp_path, capsys, argv, where):
    (tmp_path / "dir").mkdir()
    before = sorted(tmp_path.rglob("*"))
    target = tmp_path / ("absent/t.out" if where == "missing-directory" else "dir")
    code, out, err = run(capsys, argv + ["--output", str(target)])
    assert code == 1
    assert out == ""
    assert err.startswith("sdprod: i/o error: ")
    assert str(target) in err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--n", "4", "--m", "4", "--tuple", "0,2,0,0", "--output", ""],
        ["check-a", "--n", "4", "--m", "4", "--tuple", "0,2,0,0", "--output", ""],
        ["tc", "--relators", ""],
    ],
    ids=["build-output", "check-a-output", "tc-relators"],
)
def test_an_empty_path_is_a_given_path(tmp_path, monkeypatch, capsys, argv):
    # "" names no file: an i/o error (exit 1), not "no path given"
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith("sdprod: i/o error: ")
    assert list(tmp_path.iterdir()) == []


def test_tc_empty_preset_is_an_unknown_preset(capsys):
    code, out, err = run(capsys, ["tc", "--preset", ""])
    assert (code, out) == (3, "")
    assert err == "sdprod: error: unknown preset '' (available: example-6-5)\n"


@pytest.mark.parametrize(
    "argv,size,digest",
    [
        (
            ["enumerate-a", "--n", "5", "--m", "6"],
            8153,
            "bb18c576ad55ae8db8f65d039f9756c4862bb807b46e06561f0d1fd0c8248377",
        ),
        (
            ["enumerate-b", "--n", "5", "--m", "6", "--n1", "2", "--m1", "2"],
            13941,
            "84813ba0340bcadcca2a8571e854bba96de1256ebf29d6ce6fce4377ff53bfc8",
        ),
    ],
    ids=["enumerate-a", "enumerate-b"],
)
def test_csv_listing_computes_no_histograms(tmp_path, capsys, monkeypatch, argv, size, digest):
    # a CSV listing holds the rows alone; size and sha256 are those of the
    # listing written before CSV stopped computing histograms and parity
    def no_histograms(self):
        raise AssertionError("a CSV listing computed histograms")

    monkeypatch.setattr(SolutionSet, "histograms", no_histograms)
    argv = argv + ["--format", "csv"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    data = out.encode("utf-8")
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)
    target = tmp_path / "listing.csv"
    code, out, _ = run(capsys, argv + ["--output", str(target)])
    assert (code, out) == (0, "")
    assert target.read_bytes() == data


def test_build_order_65536(capsys):
    code, out, _ = run(
        capsys, ["build", "--n", "8", "--m", "8", "--tuple", "0,0,0,0", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 65536
    assert (doc["h_order"], doc["k_order"], doc["intersection_order"]) == (256, 256, 1)
    assert (doc["core_x_order"], doc["core_z_order"]) == (128, 128)


def test_build_verify_associativity(capsys, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("build ran the cubic scan")

    # build checks the four generators only; the cubic scan is the tests' oracle
    monkeypatch.setattr(cli, "verify_associativity_exhaustive", no_scan)
    monkeypatch.setattr(pcgroup, "verify_associativity_exhaustive", no_scan)
    for t in ("0,2,0,0", "4,0,0,4,0,0"):
        argv = ["build", "--n", "4", "--m", "4", "--tuple", t, "--verify-associativity"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert out.endswith("\nassociativity: verified\n"), t


def test_build_verify_associativity_cap(capsys, monkeypatch):
    # 4,0,0,4,0,0 is invalid at (5, 5); its analogue there is 8,0,0,8,0,0
    for t in ("0,0,0,0", "8,0,0,8,0,0"):
        argv = ["build", "--n", "5", "--m", "5", "--tuple", t, "--verify-associativity"]
        assert run(capsys, argv) == (
            2,
            "",
            "sdprod: limit: table too large for the associativity check: order 1024 exceeds cap 512\n",
        )

    def no_table(*args, **kwargs):
        raise AssertionError("the table was built for a refused associativity scan")

    monkeypatch.setattr(cli, "build_table", no_table)
    code, out, err = run(
        capsys,
        ["build", "--n", "6", "--m", "6", "--tuple", "0,0,0,0", "--verify-associativity"],
    )
    assert code == 2
    assert err == (
        "sdprod: limit: table too large for the associativity check: order 4096 exceeds cap 512\n"
    )
    assert out == ""


def test_tc_preset_text(capsys):
    code, out, _ = run(capsys, ["tc", "--preset", "example-6-5"])
    assert code == 0
    assert "cosets: 256" in out
    assert "order(x)=8" in out and "order(w)=2" in out
    assert "|<x,y>| = 16 (semidihedral: yes)" in out
    assert "|<z,w>| = 16 (semidihedral: yes)" in out
    assert "intersection: 1" in out
    assert "[x,z] = x^2 z^2" in out
    assert "core of <x>: 4  core of <z>: 4" in out


def test_tc_preset_json(capsys):
    code, out, _ = run(capsys, ["tc", "--preset", "example-6-5", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "order": 256,
        "generator_orders": {"w": 2, "y": 2, "z": 8, "x": 8},
        "h_order": 16,
        "k_order": 16,
        "intersection_order": 1,
        "xz_commutator": [2, 2],
        "core_x_order": 4,
        "core_z_order": 4,
        "h_semidihedral": True,
        "k_semidihedral": True,
    }
    # the report is the record: its keys are the fields, in order
    assert tuple(doc) == fpcoset.StructureReport._fields


def test_tc_relator_file(tmp_path, capsys):
    rel = tmp_path / "sd16.rel"
    rel.write_text(SD16_FILE)
    code, out, _ = run(capsys, ["tc", "--relators", str(rel)])
    assert code == 0
    assert "cosets: 16" in out
    # the file names no z, so [x,z] is not defined
    assert "[x,z] = n/a\n" in out
    code, out, _ = run(capsys, ["tc", "--relators", str(rel), "--format", "json"])
    assert code == 0
    assert json.loads(out)["xz_commutator"] is None
    # z^6 vanishes between X and x, so the compiled relator is z alone: a
    # rewrite that did not freely reduce it would leave a row incomplete
    rel.write_text("z^3\nx^5\nX z^6 x z\n")
    assert run(capsys, ["tc", "--relators", str(rel)]) == (
        0,
        "cosets: 5\norder(x)=5  order(z)=1\n|<x,y>| = 5 (semidihedral: no)\n"
        "|<z,w>| = 1 (semidihedral: no)\nintersection: 1\n[x,z] = 1\n"
        "core of <x>: 5  core of <z>: 1\n",
        "",
    )
    # y has no power relator, so HLT's fill defines some images, the first
    # at coset 9 (tests/test_fpcoset.py): a cap of 9 stops the run there
    rel.write_text("x^6\nY x y^2 X\n")
    code, out, err = run(capsys, ["tc", "--relators", str(rel)])
    assert (code, err) == (0, "")
    assert out.startswith("cosets: 378\n")
    assert run(capsys, ["tc", "--relators", str(rel), "--max-cosets", "9"]) == (
        2, "", "sdprod: limit: coset limit exceeded: more than 9 cosets defined\n"
    )


def test_tc_reports_a_commutator_outside_the_x_z_products(tmp_path, capsys):
    # S3 = <x, z>: [x,z] has order 3, while x^i z^j takes only 4 values
    rel = tmp_path / "s3.rel"
    rel.write_text("x^2\nz^2\nx z x z x z\n")
    code, out, _ = run(capsys, ["tc", "--relators", str(rel)])
    assert code == 0
    assert "cosets: 6" in out
    assert "[x,z] = not a product of an x power and a z power\n" in out
    # JSON names the case with the same phrase, and keeps null for a file
    # without x or z (test_tc_relator_file)
    code, out, _ = run(capsys, ["tc", "--relators", str(rel), "--format", "json"])
    assert code == 0
    assert json.loads(out)["xz_commutator"] == "not a product of an x power and a z power"


def test_tc_report_names_a_missing_core(tmp_path, capsys):
    # a core of a generator the file does not name reads n/a, and null in JSON
    rel = tmp_path / "sd16.rel"
    rel.write_text(SD16_FILE)
    code, out, _ = run(capsys, ["tc", "--relators", str(rel)])
    assert code == 0
    assert "core of <x>: 8  core of <z>: n/a\n" in out
    code, out, _ = run(capsys, ["tc", "--relators", str(rel), "--format", "json"])
    assert code == 0
    assert (json.loads(out)["core_x_order"], json.loads(out)["core_z_order"]) == (8, None)
    rel.write_text("w^2\n")
    code, out, _ = run(capsys, ["tc", "--relators", str(rel)])
    assert code == 0
    assert out.endswith("core of <x>: n/a  core of <z>: n/a\n")
    assert "None" not in out


def test_tc_flag_combinations(capsys):
    code, _, err = run(capsys, ["tc"])
    assert code == 3
    code, _, err = run(
        capsys, ["tc", "--preset", "example-6-5", "--relators", "whatever"]
    )
    assert code == 3
    code, _, err = run(capsys, ["tc", "--preset", "no-such-preset"])
    assert code == 3
    assert "example-6-5" in err


def test_tc_bad_relator_file(tmp_path, capsys):
    rel = tmp_path / "bad.rel"
    rel.write_text("x q\n")
    code, _, err = run(capsys, ["tc", "--relators", str(rel)])
    assert code == 3
    assert "relator" in err
    # a relator that reduces to the empty word is named by its line
    rel.write_text("x^4\nx X\n")
    code, out, err = run(capsys, ["tc", "--relators", str(rel)])
    assert (code, out) == (3, "")
    assert err == "sdprod: relator file error: line 2: relator reduces to the empty word\n"


@pytest.mark.parametrize("digit", ["\uff18", "\u0668"], ids=["fullwidth", "arabic-indic"])
def test_tc_relator_file_reads_only_ascii_digits(tmp_path, capsys, digit):
    # int() reads both as 8, so a pattern with \d took x^8 from either
    rel = tmp_path / "digits.rel"
    rel.write_text(f"x^{digit}\ny^2\nY x y X^3\n", encoding="utf-8")
    code, out, err = run(capsys, ["tc", "--relators", str(rel)])
    assert (code, out) == (3, "")
    assert err == f"sdprod: relator file error: line 1: bad token 'x^{digit}'\n"


def test_tc_pair_of_the_wrong_order_is_not_semidihedral(tmp_path, capsys):
    # y X^4 = 1 puts y inside <x>: x has order 8 and y order 2, but
    # <x,y> = <x> has order 8, not 16, and the order test answers no
    rel = tmp_path / "cyclic.rel"
    rel.write_text("x^8\ny^2\ny X^4\n")
    code, out, err = run(capsys, ["tc", "--relators", str(rel)])
    assert (code, err) == (0, "")
    assert out.startswith("cosets: 8\norder(x)=8  order(y)=2\n|<x,y>| = 8 (semidihedral: no)\n")


def test_tc_relator_file_past_the_letter_cap(tmp_path, capsys):
    rel = tmp_path / "long.rel"
    rel.write_text("x^100000000000000000000\n")
    code, out, err = run(capsys, ["tc", "--relators", str(rel)])
    assert code == 2
    assert out == ""
    assert "sdprod: limit: relator file too long" in err


def test_tc_missing_relator_file(tmp_path, capsys):
    code, _, err = run(capsys, ["tc", "--relators", str(tmp_path / "absent.rel")])
    assert code == 1
    assert "i/o error" in err


def test_tc_relator_file_that_is_not_utf8(tmp_path, capsys):
    # a UTF-16 byte-order mark: one error line and the relator syntax exit
    path = tmp_path / "utf16.rel"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, ["tc", "--relators", str(path)])
    assert (code, out) == (3, "")
    assert err == "sdprod: relator file error: not UTF-8 text at byte 0\n"


def test_tc_relator_file_with_a_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "bom.rel"
    path.write_bytes(b"\xef\xbb\xbf" + SD16_FILE.encode())
    code, out, err = run(capsys, ["tc", "--relators", str(path)])
    assert (code, err) == (0, "")
    assert out.startswith("cosets: 16\n")


def test_tc_relator_file_with_a_byte_order_mark_counts_from_the_first_byte(tmp_path, capsys):
    # utf-8-sig counts from after the mark (4 here); the offset is the file's
    path = tmp_path / "bom.rel"
    path.write_bytes(b"\xef\xbb\xbfx^8\n\xff")
    code, out, err = run(capsys, ["tc", "--relators", str(path)])
    assert (code, out) == (3, "")
    assert err == "sdprod: relator file error: not UTF-8 text at byte 7\n"


def test_tc_coset_limit(capsys):
    code, _, err = run(capsys, ["tc", "--preset", "example-6-5", "--max-cosets", "100"])
    assert code == 2
    assert "coset limit" in err


def test_tc_coset_limit_at_the_definition_count(capsys):
    # the example-6-5 run defines 1,058 cosets, merged ones included
    code, out, err = run(capsys, ["tc", "--preset", "example-6-5", "--max-cosets", "1058"])
    assert code == 0
    assert "cosets: 256" in out
    assert err == ""
    code, out, err = run(capsys, ["tc", "--preset", "example-6-5", "--max-cosets", "1057"])
    assert code == 2
    assert out == ""
    assert err == "sdprod: limit: coset limit exceeded: more than 1057 cosets defined\n"


# (5, 5), tuple 8,0,8,0,8,0 with [x,z] = x^2 z^14: a collapsing twisted
# presentation whose run passes the first lookahead mark
TWISTED_5_5_FILE = (
    "x^16\ny^2\nz^16\nw^2\nY x y X^7\nW z w Z^7\n"
    "X Z x z Z^14 X^2\nZ Y z y X^8\nX W x w X^8\nY W y w X^8\n"
)


def test_tc_coset_limit_past_the_lookahead_mark(tmp_path, capsys):
    rel = tmp_path / "twisted.rel"
    rel.write_text(TWISTED_5_5_FILE)
    pair = derive_pair(5, 5)
    assert fpcoset.parse_relator_file(str(rel)) == fpcoset.fp_from_extended(
        pair, TupleB(8, 0, 8, 0, 8, 0), 2, 14
    )
    code, out, err = run(capsys, ["tc", "--relators", str(rel), "--max-cosets", "10078"])
    assert (code, err) == (0, "")
    assert out.startswith("cosets: 256\n")
    code, out, err = run(capsys, ["tc", "--relators", str(rel), "--max-cosets", "10077"])
    assert (code, out) == (2, "")
    assert err == "sdprod: limit: coset limit exceeded: more than 10077 cosets defined\n"


def test_readme_definition_counts_match_a_run():
    readme = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    preset = re.search(r"`example-6-5` defines ([\d,]+) cosets on its way to 256, "
                       r"so `--max-cosets ([\d,]+)` stops it", readme)
    factors = re.search(r"the two factor runs define (\d+) and (\d+) cosets, "
                        r"where the 256 elements take (\d+) definitions", readme)
    assert preset and factors, "README no longer states the definition counts"
    defined, stop = (int(v.replace(",", "")) for v in preset.groups())

    def definitions(fp, subgroup=()):
        state = fpcoset._Enumeration(fp, 10**6)
        state.run(subgroup)
        return len(state.rows)

    assert definitions(cli._preset_presentation("example-6-5")) == defined == stop + 1
    pair = derive_pair(4, 4)
    fp = fpcoset.fp_from_extended(pair, TupleA(0, 2, 0, 0).reduced(pair).to_tuple_b(), 0, 0)
    w, y, z, x = (1 + fp.names.index(name) for name in "wyzx")
    assert [definitions(fp, ((x,), (y,))), definitions(fp, ((z,), (w,))), definitions(fp)] == [
        int(v) for v in factors.groups()
    ]


def test_crosscheck_agree(capsys):
    code, out, _ = run(capsys, ["crosscheck", "--n", "4", "--m", "4", "--tuple", "0,2,0,0"])
    assert code == 0
    assert out == "collection: 256, enumeration: 256, AGREE\n"


def test_crosscheck_six_field(capsys):
    code, out, _ = run(
        capsys, ["crosscheck", "--n", "4", "--m", "5", "--tuple", "0,0,0,0,0,0"]
    )
    assert code == 0
    assert "collection: 512, enumeration: 512, AGREE" in out


def test_crosscheck_rejects_invalid(capsys):
    # a four-field tuple fails C1..C6, as check-a names them; six fields fail D1..D12
    code, out, err = run(capsys, ["crosscheck", "--n", "4", "--m", "4", "--tuple", "1,0,0,0"])
    assert code == 1
    assert out == "tuple invalid: C1\n"
    assert err == ""
    code, out, _ = run(capsys, ["check-a", "--n", "4", "--m", "4", "--tuple", "1,0,0,0"])
    assert code == 1
    assert "C1: FAIL" in out
    code, out, err = run(
        capsys, ["crosscheck", "--n", "4", "--m", "4", "--tuple", "0,1,0,0,0,0"]
    )
    assert code == 1
    assert out == "tuple invalid: D2\n"
    assert err == ""


def test_crosscheck_coset_limit(capsys):
    code, out, err = run(
        capsys,
        ["crosscheck", "--n", "4", "--m", "4", "--tuple", "0,2,0,0", "--max-cosets", "10"],
    )
    assert code == 2
    assert out == ""
    assert err == "sdprod: limit: coset limit exceeded: more than 10 cosets defined\n"


def test_crosscheck_coset_limit_caps_each_run(capsys):
    # each run counts its own definitions: the factor runs define 22 and 28
    # cosets, where enumerating the 256 elements would define 657
    code, out, err = run(
        capsys,
        ["crosscheck", "--n", "4", "--m", "4", "--tuple", "0,2,0,0", "--max-cosets", "500"],
    )
    assert code == 0
    assert out == "collection: 256, enumeration: 256, AGREE\n"
    assert err == ""


class _Started(Exception):
    pass


def test_crosscheck_refuses_ranks_above_its_cap_before_any_run(capsys, monkeypatch):
    # the factor runs grow with max(N, M)^2, not with the order: (4, 13),
    # of order 2^17, takes longer than (12, 12), of order 2^24
    def started(*args, **kwargs):
        raise _Started

    monkeypatch.setattr(cli, "check_consistency", started)
    monkeypatch.setattr(cli, "coset_enumerate", started)
    for n, m in ((13, 4), (4, 13), (20, 20)):
        argv = ["crosscheck", "--n", str(n), "--m", str(m), "--tuple", "0,0,0,0"]
        assert run(capsys, argv) == (
            2, "", "sdprod: limit: rank too large for crosscheck (cap is 12)\n"
        )
    # an invalid tuple is still named, at any rank
    argv = ["crosscheck", "--n", "20", "--m", "20", "--tuple", "1,0,0,0"]
    assert run(capsys, argv) == (1, "tuple invalid: C1\n", "")
    for n, m in ((12, 12), (12, 4), (4, 12)):
        with pytest.raises(_Started):
            main(["crosscheck", "--n", str(n), "--m", str(m), "--tuple", "0,0,0,0"])


def test_crosscheck_enumerates_the_cosets_of_h_and_k_only(monkeypatch):
    subgroups = []

    def counted(fp, max_cosets, subgroup=()):
        subgroups.append(subgroup)
        return fpcoset.coset_enumerate(fp, max_cosets, subgroup)

    monkeypatch.setattr(cli, "coset_enumerate", counted)
    for n, m, t in ((4, 4, TupleA(0, 2, 0, 0).to_tuple_b()), (5, 4, TupleB(0, 0, 0, 0, 0, 0))):
        subgroups.clear()
        pair = derive_pair(n, m)
        assert cli.crosscheck_order(pair, t) == (4 * pair.N * pair.M,) * 2
        assert len(subgroups) == 2 and all(subgroups)


@pytest.mark.parametrize(
    "e, runs",
    [
        ((0, 0), 2),  # the factor runs over H and K decide
        ((6, 0), 3),  # they do not, and the elements are enumerated too
    ],
)
def test_crosscheck_compiles_its_relators_once(monkeypatch, e, runs):
    enumerated = []

    def counted_enumerate(fp, max_cosets, subgroup=()):
        enumerated.append(subgroup)
        return fpcoset.coset_enumerate(fp, max_cosets, subgroup)

    monkeypatch.setattr(cli, "coset_enumerate", counted_enumerate)
    monkeypatch.setattr(
        cli, "fp_from_extended", lambda pair, t, e1, e2: fpcoset.fp_from_extended(pair, t, *e)
    )
    fpcoset._compile_relators.cache_clear()
    cli.crosscheck_order(derive_pair(4, 4), TupleB(0, 2, 6, 4, 2, 2))
    assert len(enumerated) == runs
    assert fpcoset._compile_relators.cache_info().misses == 1


COLLAPSED_GROUPS = [
    # G/H has index 8, not 2M = 32
    (4, 5, (2, 8, 2, 0, 0, 0), (4, 14), 512),
    # G/H has index 2M = 16, but x^(N/2) = 1 fixes the coset K
    (4, 4, (0, 2, 6, 4, 2, 2), (6, 0), 256),
]


@pytest.mark.parametrize("n, m, t, e, order", COLLAPSED_GROUPS)
def test_crosscheck_falls_back_to_the_elements_of_a_collapsed_group(capsys, monkeypatch, n, m, t, e, order):
    # with [x,z] = x^e1 z^e2 these presentations collapse to 128 elements,
    # and the factor runs do not decide, so the elements are enumerated
    def twisted(pair, t, e1, e2):
        return fpcoset.fp_from_extended(pair, t, *e)

    monkeypatch.setattr(cli, "fp_from_extended", twisted)
    assert cli.crosscheck_order(derive_pair(n, m), TupleB(*t)) == (order, 128)
    argv = ["crosscheck", "--n", str(n), "--m", str(m), "--tuple", ",".join(map(str, t))]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == f"collection: {order}, enumeration: 128, DISAGREE\n"
    assert err == ""


def test_tracer_only_imports_are_the_readme_list():
    # perfbench's tracer wraps library functions at their sdprod.cli names,
    # so cli imports some it never calls; the README names every one
    tree = ast.parse((ROOT / "src" / "sdprod" / "cli.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"no\s+longer\s+calls\s+\(([^)]*)\)", readme)
    assert listed, "README lists no tracer-only imports"
    assert imported - used == set(re.findall(r"`(\w+)`", listed.group(1)))


def test_readme_synopses_name_only_flags_the_parsers_have():
    # a flag removed from a subcommand must leave its README synopsis too
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    named: dict[str, set[str]] = {}
    for block in re.findall(r"^```\n(.*?)^```", readme, re.S | re.M):
        command = None
        for line in block.splitlines():
            if line.startswith("sdprod "):
                command = line.split()[1]
            elif not line.startswith(" "):
                command = None
            if command:
                named.setdefault(command, set()).update(re.findall(r"--[\w-]+", line))
    assert set(named) == set(cli.SUBCOMMANDS)
    for command, flags in named.items():
        options = set(re.findall(r"--[\w-]+", subparsers()[command].format_help()))
        assert flags - options == set(), command


def test_cli_binds_every_name_the_tracer_wraps():
    # perfbench's tracer replaces each LAYER_OF key at its sdprod.cli name,
    # so a library function cli stops importing breaks traced benchmark runs
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    layer_of = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "LAYER_OF" for t in node.targets)
    )
    names = [ast.literal_eval(key) for key in layer_of.keys]
    assert names, "perfbench/tracer.py wraps no functions"
    assert [name for name in names if not hasattr(cli, name)] == []


def test_every_public_definition_is_used_in_the_package():
    # a public function or class, a private module-level function or a
    # method that no other package code names is test-only code, which
    # belongs in the tests.  A method counts as named by an attribute; one
    # that overrides a base class's method is called through the base.
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "sdprod").glob("*.py"))
        if path.name != "__init__.py"
    }
    defined = {
        node.name
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        or isinstance(node, ast.ClassDef) and not node.name.startswith("_")
    }
    methods = set()
    for stem, tree in trees.items():
        module = importlib.import_module(f"sdprod.{stem}")
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                bases = getattr(module, node.name).__mro__[1:]
                methods.update(
                    f"{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not any(hasattr(base, item.name) for base in bases)
                )
    referenced, attributes = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    assert sorted(defined - referenced - attributes) == []
    assert sorted(m for m in methods if m.split(".")[1] not in attributes) == []
