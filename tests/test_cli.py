"""End-to-end tests for the command-line interface via main(argv)."""

import csv
import io
import json

import pytest

from sdprod import cli
from sdprod.cli import main

SD16_FILE = "x^8\ny^2\nY x y X^3\n"


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


def test_enumerate_b_scan_gate(capsys):
    code, _, err = run(
        capsys, ["enumerate-b", "--n", "5", "--m", "6", "--n1", "1", "--m1", "1"]
    )
    assert code == 2
    assert "exceeds the gate" in err


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


def test_argparse_errors_exit_three(capsys):
    with pytest.raises(SystemExit) as info:
        main(["enumerate-a", "--n", "4"])
    assert info.value.code == 3
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 3
    capsys.readouterr()
    base = {
        "--max-table": ["build", "--n", "4", "--m", "4", "--tuple", "0,2,0,0"],
        "--max-cosets": ["tc", "--preset", "example-6-5"],
    }
    for flag, argv in base.items():
        for value in ("0", "-1"):
            with pytest.raises(SystemExit) as info:
                main(argv + [flag, value])
            assert info.value.code == 3
            assert flag in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        main(["enumerate-a", "--n", "4", "--m", "4", "--workers", "2"])
    assert info.value.code == 3
    capsys.readouterr()


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


def test_build_order_65536(capsys):
    code, out, _ = run(
        capsys, ["build", "--n", "8", "--m", "8", "--tuple", "0,0,0,0", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 65536
    assert (doc["h_order"], doc["k_order"], doc["intersection_order"]) == (256, 256, 1)
    assert (doc["core_x_order"], doc["core_z_order"]) == (128, 128)


def test_build_max_table_cap(capsys):
    code, _, err = run(
        capsys,
        ["build", "--n", "4", "--m", "4", "--tuple", "0,2,0,0", "--max-table", "100"],
    )
    assert code == 2
    assert "table" in err


def test_build_verify_associativity(capsys):
    code, out, _ = run(
        capsys,
        [
            "build", "--n", "4", "--m", "4", "--tuple", "0,2,0,0",
            "--verify-associativity",
        ],
    )
    assert code == 0
    assert "associativity: verified" in out


def test_build_verify_associativity_cap(capsys, monkeypatch):
    code, out, err = run(
        capsys,
        ["build", "--n", "5", "--m", "5", "--tuple", "0,0,0,0", "--verify-associativity"],
    )
    assert code == 2
    assert "cubic scan" in err
    assert out == ""

    def no_table(*args, **kwargs):
        raise AssertionError("the table was built for a refused associativity scan")

    monkeypatch.setattr(cli, "build_table", no_table)
    code, out, err = run(
        capsys,
        ["build", "--n", "6", "--m", "6", "--tuple", "0,0,0,0", "--verify-associativity"],
    )
    assert code == 2
    assert err == "sdprod: limit: table too large for the cubic scan: order 4096 exceeds cap 512\n"
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


def test_tc_relator_file(tmp_path, capsys):
    rel = tmp_path / "sd16.rel"
    rel.write_text(SD16_FILE)
    code, out, _ = run(capsys, ["tc", "--relators", str(rel)])
    assert code == 0
    assert "cosets: 16" in out
    assert "[x,z] = not a product of an x power and a z power" in out


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


def test_tc_missing_relator_file(tmp_path, capsys):
    code, _, err = run(capsys, ["tc", "--relators", str(tmp_path / "absent.rel")])
    assert code == 1
    assert "i/o error" in err


def test_tc_coset_limit(capsys):
    code, _, err = run(capsys, ["tc", "--preset", "example-6-5", "--max-cosets", "100"])
    assert code == 2
    assert "coset limit" in err


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
    code, out, _ = run(capsys, ["crosscheck", "--n", "4", "--m", "4", "--tuple", "1,0,0,0"])
    assert code == 1
    assert "tuple invalid" in out
