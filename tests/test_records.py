"""The package's records: value semantics, immutability, and an import of
the CLI that loads neither dataclasses nor json."""

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
    records = {
        "SdPair": (pair, "N"),
        "Verdict": (check_b(pair, CoreSpec(1, 1), WITNESS), "failures"),
        "PcData": (pc, "xw_xexp"),
        "ConsistencyReport": (check_consistency(pc), "entries"),
        "GroupTable": (build_table(pc), "ty"),
        "FpPres": (fp, "relators"),
        "CosetTable": (table, "count"),
        "StructureReport": (structure_report(table, fp), "order"),
    }
    for name, (record, field) in records.items():
        assert type(record).__name__ == name
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            record.extra = 0  # no instance dict either
