"""The package's records: value semantics, immutability, an import of the
CLI that loads neither dataclasses nor json, and JSON commands that do not
load json either."""

import subprocess
import sys
from pathlib import Path

import pytest

from sdprod.arith import derive_pair
from sdprod.congruence import CoreSpec, TupleB, check_b
from sdprod.fpcoset import coset_enumerate, fp_from_extended, structure_report
from sdprod.pcgroup import build_table, check_consistency, pc_from_tuple_b

SRC = Path(__file__).resolve().parents[1] / "src"
WITNESS = TupleB(0, 0, 2, 0, 0, 0)


def test_importing_the_cli_loads_no_dataclasses_inspect_or_json():
    # -S keeps site's .pth files out, so only the import itself is seen;
    # the JSON commands import json when they first write it
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import sdprod.cli; "
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'json') if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert done.stdout == "\n"


def test_json_commands_write_ascii_json_without_loading_json():
    # cli writes JSON from fixed layouts; json only writes a string value,
    # which none of these documents holds
    argvs = [
        ["check-b", "--n", "4", "--m", "4", "--n1", "2", "--m1", "2", "--tuple", "4,0,0,4,0,0"],
        ["build", "--n", "4", "--m", "4", "--tuple", "4,0,0,4,0,0"],
        ["tc", "--preset", "example-6-5"],
    ]
    code = (
        f"import contextlib, io, sys; sys.path.insert(0, {str(SRC)!r}); from sdprod.cli import main\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(argv + ['--format', 'json']) for argv in {argvs!r}]\n"
        "print(codes, 'json' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert done.stdout == "[0, 0, 0] False\n"


def test_records_of_equal_values_compare_and_hash_equal():
    assert derive_pair(5, 4) == derive_pair(5, 4)
    assert hash(derive_pair(5, 4)) == hash(derive_pair(5, 4))
    assert derive_pair(5, 4) != derive_pair(4, 5)
    pair = derive_pair(4, 4)
    assert pc_from_tuple_b(pair, WITNESS) == pc_from_tuple_b(pair, WITNESS)
    assert hash(pc_from_tuple_b(pair, WITNESS)) == hash(pc_from_tuple_b(pair, WITNESS))
    fp = fp_from_extended(pair, WITNESS, 0, 0)
    assert fp == fp_from_extended(pair, WITNESS, 0, 0)
    assert hash(fp) == hash(fp_from_extended(pair, WITNESS, 0, 0))
    assert repr(pair) == "SdPair(n=4, m=4, N=8, M=8, alpha=3, beta=3)"


def test_records_reject_assignment():
    pair = derive_pair(4, 4)
    pc = pc_from_tuple_b(pair, WITNESS)
    fp = fp_from_extended(pair, WITNESS, 0, 0)
    table = coset_enumerate(fp)
    consistency = check_consistency(pc)
    # each record's fields, pinned: a value the other fields fix is a
    # property, not a field (GroupTable.order, CosetTable.count, ...)
    records = {
        "SdPair": (pair, ("n", "m", "N", "M", "alpha", "beta")),
        "Verdict": (check_b(pair, CoreSpec(1, 1), WITNESS), ("failures",)),
        "PcData": (pc, ("pair", "W", "Y", "v")),
        "ConsistencyReport": (consistency, ("entries",)),
        "ConsistencyEntry": (consistency.entries[0], ("family", "index", "residual")),
        "GroupTable": (build_table(pc), ("pair", "ty", "tw", "tw_past_y")),
        "FpPres": (fp, ("names", "relators")),
        "CosetTable": (table, ("rows",)),
        "StructureReport": (
            structure_report(table, fp),
            (
                "order", "generator_orders", "h_order", "k_order", "intersection_order",
                "xz_commutator", "core_x_order", "core_z_order", "h_semidihedral",
                "k_semidihedral",
            ),
        ),
    }
    for name, (record, fields) in records.items():
        assert type(record).__name__ == name
        assert type(record)._fields == fields, name
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(record, field, 0)
        with pytest.raises(AttributeError):
            record.extra = 0  # no instance dict either
