"""cli writes each JSON document from its fixed layout; these properties
compare its bytes with json.dumps(doc, indent=2) + "\\n", the document built
here as the json.dumps writers built it.

Verdicts at every rank the CLI accepts, valid, random, and with any set
of failed conditions and residuals up to 2^80; build documents with four-
and six-field tuples, the associativity flag, and table paths that json
must escape; tc reports for the preset and for files where [x,z] or a core
is undefined.  The listings are compared with the whole-document formatter
in tests/test_properties.py (test_listing_matches_reference_formatter and
test_empty_listing_matches_reference_formatter).
"""

import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdprod import cli
from sdprod.arith import additive_order, derive_pair
from sdprod.congruence import CoreSpec, Failure, TupleA, TupleB, Verdict, check_a, check_b
from sdprod.fpcoset import (
    coset_enumerate,
    fp_from_extended,
    parse_relator_file,
    structure_report,
)
from sdprod.pcgroup import (
    build_table,
    check_consistency,
    pc_from_tuple_a,
    pc_from_tuple_b,
)
from oracles import verify_associativity_generators
from test_cli import SD16_FILE
from test_properties import (
    ALL_RANKS,
    GROUP_SETTINGS,
    PROPERTY_SETTINGS,
    RANKS,
    SMALL_PAIRS,
    answer,
    buildable_tuples,
    cored_tuples_b,
    valid_cored_tuples_b,
)


def dumped(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def verdict_doc(verdict, conditions):
    failed = {f.condition: f.residual for f in verdict.failures}
    return {
        "conditions": {
            tag: {"passed": tag not in failed, "residual": failed.get(tag, 0)}
            for tag in conditions
        },
        "valid": verdict.valid,
    }


@PROPERTY_SETTINGS
@given(st.one_of(valid_cored_tuples_b(), cored_tuples_b(ALL_RANKS)), st.booleans())
def test_check_json_matches_json_dumps(case, four_field):
    # random core specs fail ORD-R and ORD-B with their additive orders
    pair, cores, t = case
    argv = ["--n", str(pair.n), "--m", str(pair.m), "--format", "json"]
    if four_field:
        t4 = TupleA(t.a, t.s, t.t, t.c)
        argv = ["check-a", "--tuple", ",".join(map(str, t4))] + argv
        doc = verdict_doc(check_a(pair, t4), cli.A_CONDITIONS)
    else:
        argv = ["check-b", "--tuple", ",".join(map(str, t)), "--n1", str(cores.n1)] + argv
        argv += ["--m1", str(cores.m1)]
        doc = verdict_doc(check_b(pair, cores, t), cli.B_CONDITIONS)
    assert answer(argv) == (0 if doc["valid"] else 1, dumped(doc), "")


@st.composite
def verdicts(draw):
    """Any subset of one command's conditions failed, with any residual."""
    conditions = draw(st.sampled_from([cli.A_CONDITIONS, cli.B_CONDITIONS]))
    failed = draw(st.sets(st.sampled_from(conditions)))
    residuals = st.one_of(st.integers(1, 1 << 19), st.integers(1, 1 << 80))
    failures = tuple(Failure(tag, draw(residuals)) for tag in conditions if tag in failed)
    return Verdict(failures), conditions


@PROPERTY_SETTINGS
@given(verdicts())
def test_verdict_json_matches_json_dumps(case):
    verdict, conditions = case
    want = dumped(verdict_doc(verdict, conditions))
    assert cli._verdict_text(verdict, conditions, "json") == want


def build_doc(pair, values, check_associativity=False, output=None):
    """cmd_build's document for a valid tuple."""
    if len(values) == 4:
        t = TupleA(*values).reduced(pair)
        pc, requested = pc_from_tuple_a(pair, t), CoreSpec(1, 1)
    else:
        t = TupleB(*values).reduced(pair)
        pc = pc_from_tuple_b(pair, t)
        requested = CoreSpec(
            min(additive_order(t.b, pair.M), pair.N), min(additive_order(t.r, pair.N), pair.M)
        )
    consistency = check_consistency(pc)
    core_x, core_z = pc.core_orders()
    doc = {
        "tuple": list(t),
        "valid": True,
        "consistency_passed": sum(1 for e in consistency.entries if e.passed),
        "consistency_total": len(consistency.entries),
        "order": 4 * pair.N * pair.M,
        "h_order": 2 * pair.N,
        "k_order": 2 * pair.M,
        "intersection_order": 1,
        "x_normal": core_x == pair.N,
        "z_normal": core_z == pair.M,
        "core_x_order": core_x,
        "core_z_order": core_z,
        "requested_cores": [requested.n1, requested.m1],
    }
    if check_associativity:
        doc["associative"] = verify_associativity_generators(build_table(pc))
    if output is not None:
        doc["table_written_to"] = output
    return doc


# Pieces of table file names: json escapes a quote, a backslash, control
# characters, DEL and everything outside ASCII, the last as \u escapes
# (surrogate pairs past the BMP).
NAME_PIECES = ["table", "a b", '"', "\\", "\t", "\x7f", "café", "σ∂", "\U0001f600"]


@GROUP_SETTINGS
@given(
    st.one_of(
        buildable_tuples(st.builds(derive_pair, RANKS, RANKS)),
        valid_cored_tuples_b().map(lambda case: (case[0], case[2])),
    )
)
def test_build_json_matches_json_dumps(case):
    pair, t = case
    argv = ["build", "--n", str(pair.n), "--m", str(pair.m), "--tuple", ",".join(map(str, t))]
    assert answer(argv + ["--format", "json"]) == (0, dumped(build_doc(pair, t)), "")


@GROUP_SETTINGS
@given(
    buildable_tuples(SMALL_PAIRS),
    st.booleans(),
    st.lists(st.sampled_from(NAME_PIECES), min_size=1, max_size=4).map("".join),
)
def test_build_json_with_a_table_matches_json_dumps(case, check_associativity, name):
    pair, t = case
    argv = ["build", "--n", str(pair.n), "--m", str(pair.m), "--tuple", ",".join(map(str, t))]
    if check_associativity:
        argv.append("--verify-associativity")
    with tempfile.TemporaryDirectory() as tmp:
        output = os.path.join(tmp, name)
        want = build_doc(pair, t, check_associativity, output)
        assert answer(argv + ["--output", output, "--format", "json"]) == (0, dumped(want), "")


def test_build_json_of_a_failed_associativity_check(monkeypatch):
    monkeypatch.setattr(cli, "verify_associativity_extension", lambda g: False)
    argv = ["build", "--n", "4", "--m", "4", "--tuple", "4,0,0,4,0,0", "--verify-associativity"]
    want = build_doc(derive_pair(4, 4), (4, 0, 0, 4, 0, 0), check_associativity=True)
    want["associative"] = False
    assert answer(argv + ["--format", "json"]) == (0, dumped(want), "")


def report_doc(rep):
    """cmd_tc's document."""
    if "x" not in rep.generator_orders or "z" not in rep.generator_orders:
        xz = None
    elif rep.xz_commutator is None:
        xz = cli.XZ_NOT_A_PRODUCT
    else:
        xz = list(rep.xz_commutator)
    return {
        "order": rep.order,
        "generator_orders": rep.generator_orders,
        "h_order": rep.h_order,
        "k_order": rep.k_order,
        "intersection_order": rep.intersection_order,
        "xz_commutator": xz,
        "core_x_order": rep.core_x_order,
        "core_z_order": rep.core_z_order,
        "h_semidihedral": rep.h_semidihedral,
        "k_semidihedral": rep.k_semidihedral,
    }


RELATOR_FILES = {
    "s3": "x^2\nz^2\nx z x z x z\n",  # [x,z] is no x^i z^j
    "sd16": SD16_FILE,  # no z: [x,z] and the core of <z> are null
    "w-only": "w^2\n",  # neither core
}


@pytest.mark.parametrize("source", ["example-6-5", *RELATOR_FILES])
def test_tc_json_matches_json_dumps(tmp_path, source):
    if source in RELATOR_FILES:
        path = tmp_path / f"{source}.rel"
        path.write_text(RELATOR_FILES[source])
        argv, fp = ["tc", "--relators", str(path)], parse_relator_file(str(path))
    else:
        argv = ["tc", "--preset", source]
        fp = fp_from_extended(derive_pair(4, 4), TupleB(4, 0, 0, 4, 0, 0), 2, 2)
    rep = structure_report(coset_enumerate(fp), fp)
    assert answer(argv + ["--format", "json"]) == (0, dumped(report_doc(rep)), "")
