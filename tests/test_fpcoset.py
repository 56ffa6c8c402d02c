"""Unit tests for coset enumeration and the structure report read off the table."""

import ast
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from sdprod import fpcoset
from sdprod.arith import MAX_RANK, derive_pair
from sdprod.cli import crosscheck_order
from sdprod.congruence import CoreSpec, TupleA, TupleB, enumerate_a
from sdprod.errors import CapacityError, DomainError
from sdprod.fpcoset import (
    LOOKAHEAD_FIRST,
    MAX_RELATOR_LETTERS,
    FpPres,
    RelatorSyntaxError,
    StructureReport,
    _audit,
    _col,
    _compile_relators,
    _Enumeration,
    coset_enumerate,
    fp_from_extended,
    free_reduce,
    parse_relator_lines,
    structure_report,
    verify_xz_commutator_location,
)
from test_properties import ReferenceHLT

PAIR44 = derive_pair(4, 4)
FLAGSHIP_TUPLE = TupleB(4, 0, 0, 4, 0, 0)

SD16_LINES = ["x^8", "y^2", "Y x y X^3"]
# Two non-2-groups where <x> has order 6, so its subgroups do not form a
# chain.  The core of <x> is <x^3> in A4 x Z2 and <x^2> in S3 x S3: a core
# that only tries the powers x^(2^i) fails on the first.
A4_Z2_LINES = ["w^2", "x w x w x w", "y^2", "x w y x w y x w y", "X W x w", "Y W y w"]
S3_S3_LINES = [
    "x w x w x w", "y^2", "y x w y x w", "z^3", "w^2",
    "w z w z", "W X Z x w z", "W X W x w w", "Y Z y z", "Y W y w",
]
SRC = Path(__file__).resolve().parents[1] / "src" / "sdprod"


def flagship_pres():
    return fp_from_extended(PAIR44, FLAGSHIP_TUPLE, 2, 2)


def test_free_reduce():
    assert free_reduce((4, -4)) == ()
    assert free_reduce((3, 4, -4, -3, 2)) == (2,)
    assert free_reduce((1, 2, 3)) == (1, 2, 3)
    assert free_reduce(()) == ()


def test_fp_from_extended_flagship_relators():
    fp = flagship_pres()
    assert fp.names == ("w", "y", "z", "x")
    assert fp.relators == (
        (4, 4, 4, 4, 4, 4, 4, 4),
        (2, 2),
        (3, 3, 3, 3, 3, 3, 3, 3),
        (1, 1),
        (-2, 4, 2, -4, -4, -4),
        (-1, 3, 1, -3, -3, -3),
        (-4, -3, 4, -3, -4, -4),
        (-3, -2, 3, 2, -4, -4, -4, -4),
        (-4, -1, 4, 1, -3, -3, -3, -3),
        (-2, -1, 2, 1),
    )


def test_fp_from_extended_plain_commutator_when_untwisted():
    fp = fp_from_extended(PAIR44, TupleA(0, 2, 0, 0).to_tuple_b(), 0, 0)
    assert fp.relators[6] == (-4, -3, 4, 3)
    assert len(fp.relators) == 10
    for rel in fp.relators:
        assert rel
        assert free_reduce(rel) == rel


def test_fp_pres_validation():
    for fields, match in (
        ((2, ("y", "x"), ((),)), "empty relator"),
        ((2, ("y", "x"), ((3,),)), "out of range"),
        ((2, ("y", "x"), ((1, -1),)), "not freely reduced"),
        ((2, ("x",), ((1,),)), "generator count"),
        ((0, (), ()), "generator count"),
    ):
        with pytest.raises(DomainError, match=match):
            FpPres(*fields)
        with pytest.raises(DomainError, match=match):
            FpPres(ngens=fields[0], names=fields[1], relators=fields[2])


def test_parse_relator_lines():
    fp = parse_relator_lines(SD16_LINES)
    assert fp.names == ("y", "x")
    assert fp.relators == (
        (2, 2, 2, 2, 2, 2, 2, 2),
        (1, 1),
        (-1, 2, 1, -2, -2, -2),
    )


def test_parse_relator_lines_comments_and_blanks():
    fp = parse_relator_lines(["# a comment", "", "w^2", "   ", "# tail"])
    assert fp.names == ("w",)
    assert fp.relators == ((1, 1),)


def test_parse_relator_lines_canonical_order():
    fp = parse_relator_lines(["x z", "w^2"])
    assert fp.names == ("w", "z", "x")


def test_parse_relator_errors():
    with pytest.raises(RelatorSyntaxError):
        parse_relator_lines(["q^2"])
    with pytest.raises(RelatorSyntaxError):
        parse_relator_lines(["x^0"])
    with pytest.raises(RelatorSyntaxError):
        parse_relator_lines(["x X"])
    with pytest.raises(RelatorSyntaxError):
        parse_relator_lines([])


def test_parse_relator_letter_cap():
    # each is refused while tokenising, before a letter is written out
    for lines in (
        [f"x^{sys.maxsize + 1}"],
        [f"x^{MAX_RELATOR_LETTERS + 1}"],
        [f"x^{MAX_RELATOR_LETTERS}", "y"],
        ["x^" + "1" * 5000],  # more digits than int() converts
    ):
        with pytest.raises(CapacityError, match="relator file too long"):
            parse_relator_lines(lines)


def test_relator_letter_cap_fits_every_presentation():
    # the longest relators fp_from_extended writes stay within 6(N + M) + 26
    # letters, and the cap holds that bound at the largest ranks
    for n, m in ((4, 4), (5, 9), (10, 10)):
        pair = derive_pair(n, m)
        N, M = pair.N, pair.M
        t = TupleB(N - 1, M - 1, N - 1, M - 1, N - 1, M - 1)
        fp = fp_from_extended(pair, t, N - 1, M - 1)
        assert sum(map(len, fp.relators)) <= 6 * (N + M) + 26
    top = derive_pair(MAX_RANK, MAX_RANK)
    assert 6 * (top.N + top.M) + 26 <= MAX_RELATOR_LETTERS


def test_enumerate_order_two():
    fp = parse_relator_lines(["w^2"])
    table = coset_enumerate(fp, 100)
    assert table.count == 2


def test_enumerate_sd16():
    table = coset_enumerate(parse_relator_lines(SD16_LINES), 10**6)
    assert table.count == 16


def test_enumerate_flagship():
    table = coset_enumerate(flagship_pres(), 10**6)
    assert table.count == 256


def test_enumerate_deterministic():
    fp = flagship_pres()
    t1 = coset_enumerate(fp, 10**6)
    t2 = coset_enumerate(fp, 10**6)
    assert t1.rows == t2.rows


def test_enumerate_coset_limit():
    with pytest.raises(CapacityError):
        coset_enumerate(flagship_pres(), 100)


def test_enumerate_over_a_subgroup():
    # SD16 = <x, y>: <x> has index 2, <y> index 8, <x^4> (the centre) index 8
    fp = parse_relator_lines(SD16_LINES)
    y, x = 1, 2
    assert coset_enumerate(fp, subgroup=((x,),)).count == 2
    assert coset_enumerate(fp, subgroup=((y,),)).count == 8
    assert coset_enumerate(fp, subgroup=((x,) * 4,)).count == 8
    assert coset_enumerate(fp, subgroup=((x,), (y,))).count == 1
    over_y = coset_enumerate(fp, subgroup=((y,),))
    assert over_y.walk((y,)) == 0
    assert over_y.walk((x,) * 4) != 0  # the centre meets <y> trivially
    assert coset_enumerate(fp, subgroup=()).rows == coset_enumerate(fp).rows
    with pytest.raises(DomainError):
        coset_enumerate(fp, subgroup=((3,),))


def test_audit_catches_a_subgroup_word_that_moves_coset_0(monkeypatch):
    fp = parse_relator_lines(SD16_LINES)
    x = 2
    table = coset_enumerate(fp)
    _audit(fp, table, ((x,) * 8,))
    with pytest.raises(RuntimeError, match="subgroup word does not fix coset 0"):
        _audit(fp, table, ((x,),))
    # a run that drops its subgroup words is caught by its own audit
    run = _Enumeration.run
    monkeypatch.setattr(_Enumeration, "run", lambda self, subgroup=(): run(self))
    with pytest.raises(RuntimeError, match="subgroup word does not fix coset 0"):
        coset_enumerate(fp, subgroup=((x,),))


def as_letters(compiled):
    """A presentation whose relators spell the compiled columns."""
    relators = tuple(
        tuple(-(c // 2 + 1) if c & 1 else c // 2 + 1 for c in cols) for cols in compiled
    )
    return SimpleNamespace(ngens=max(abs(g) for rel in relators for g in rel), relators=relators)


def test_definitions_below_the_lookahead_mark():
    # below the first lookahead mark the enumerator makes the exact
    # sequence of definitions of plain HLT on the rewritten relators, so
    # --max-cosets bites where plain HLT would stop.  The flagship's [x,z]
    # is x^2 z^2; at x^6 z^6 its runs Z^5 and X^6 shrink.
    for e, defined in (((2, 2), 1095), ((6, 6), 1475)):
        fp = fp_from_extended(PAIR44, FLAGSHIP_TUPLE, *e)
        state = _Enumeration(fp, 10**6)
        state.run()
        ref = ReferenceHLT(as_letters(_compile_relators(fp.relators)), 10**6)
        ref.run()
        assert len(state.rows) == defined < LOOKAHEAD_FIRST
        assert state.rows == ref.rows
        assert list(map(state.rep, range(defined))) == list(map(ref.rep, range(defined)))


def test_worst_twisted_definition_count():
    # the costliest twisted relator file of the benchmark's verify workload:
    # a change of strategy that costs definitions fails here
    fp = fp_from_extended(derive_pair(5, 5), TupleB(8, 0, 8, 0, 8, 0), 2, 14)
    state = _Enumeration(fp, 10**6)
    state.run()
    assert len(state.rows) == 10_948
    assert len(state.compact()) == 256


SD32_LINES = ["x^16", "y^2", "Y x y X^7"]


@pytest.mark.parametrize(
    "lines, compiled, same_group",  # columns: y 0, Y 1, x 2, X 3
    [
        # an inverted power relator: x^9 becomes X^7
        (["X^16", "y^2", "Y x y x^9"], [[0, 0], [1, 2, 0] + [3] * 7, [3] * 16], SD32_LINES),
        # x^16 and x^8: runs reduce modulo 8, and x^16 vanishes
        (["x^16", "y^2", "x^8", "Y x y x^5"], [[0, 0], [1, 2, 0, 3, 3, 3], [2] * 8], SD16_LINES),
        # x^32 beside x^16 vanishes; the audit still checks it
        (SD32_LINES + ["x^32"], [[0, 0], [1, 2, 0] + [3] * 7, [2] * 16], SD32_LINES),
        # no power relator: only reordered
        (["x y x", "x Y"], [[2, 1], [2, 0, 2]], ["x^3", "x Y"]),
    ],
    ids=["inverted-power", "two-powers", "x^32-beside-x^16", "no-power"],
)
def test_compile_relators(lines, compiled, same_group):
    fp = parse_relator_lines(lines)
    assert _compile_relators(fp.relators) == compiled
    assert coset_enumerate(fp).rows == coset_enumerate(parse_relator_lines(same_group)).rows


@pytest.mark.parametrize("n, m", [(4, 4), (5, 5), (4, 5)])
def test_compiled_relators_are_no_longer_than_their_source(n, m):
    pair = derive_pair(n, m)
    shrunk = 0
    for e1 in range(pair.N):
        for e2 in range(pair.M):
            fp = fp_from_extended(pair, TupleB(4, 0, 0, 4, 0, 0), e1, e2)
            powers = fp.relators[:4]  # x^N, y^2, z^M, w^2: compiled as they are
            power_cols = [[_col(g) for g in rel] for rel in powers]
            for rel in fp.relators[4:]:
                rest = list(_compile_relators(powers + (rel,)))  # a copy: the list is cached
                for cols in power_cols:
                    rest.remove(cols)
                assert len(rest) == 1 and len(rest[0]) <= len(rel)
                shrunk += len(rest[0]) < len(rel)
    assert shrunk


def test_audit_catches_a_rewrite_that_drops_a_relator(monkeypatch):
    # x^6 and x^4 give x^2 = 1; a rewrite that loses the x^2 it derives
    # from x^6 enumerates Z4, where x^6 does not close
    fp = parse_relator_lines(["x^6", "x^4"])
    assert coset_enumerate(fp).count == 2
    compile_relators = fpcoset._compile_relators
    monkeypatch.setattr(fpcoset, "_compile_relators", lambda rels: compile_relators(rels)[1:])
    with pytest.raises(RuntimeError, match="relator does not close"):
        coset_enumerate(fp)


def test_generators_act_as_permutations():
    fp = parse_relator_lines(SD16_LINES)
    table = coset_enumerate(fp, 10**6)
    for col in range(2 * fp.ngens):
        assert sorted(row[col] for row in table.rows) == list(range(table.count))


def test_structure_report_flagship():
    fp = flagship_pres()
    report = structure_report(coset_enumerate(fp, 10**6), fp)
    assert report.order == 256
    assert report.gen_orders == {"w": 2, "y": 2, "z": 8, "x": 8}
    assert report.h_order == 16
    assert report.k_order == 16
    assert report.intersection_order == 1
    assert report.xz_commutator == (2, 2)
    assert report.core_x_order == 4
    assert report.core_z_order == 4
    assert report.sd_h and report.sd_k


def test_structure_report_zero_tuple():
    fp = fp_from_extended(PAIR44, TupleB(0, 0, 0, 0, 0, 0), 0, 0)
    report = structure_report(coset_enumerate(fp, 10**6), fp)
    assert report.order == 256
    assert report.xz_commutator == (0, 0)
    assert report.core_x_order == 8
    assert report.core_z_order == 8


def test_structure_report_sd16():
    fp = parse_relator_lines(SD16_LINES)
    report = structure_report(coset_enumerate(fp, 10**6), fp)
    assert report.order == 16
    assert report.h_order == 16
    assert report.k_order == 1
    assert report.xz_commutator is None
    assert report.core_x_order == 8
    assert report.core_z_order is None
    assert report.sd_h and not report.sd_k


@pytest.mark.parametrize(
    "n, m, t, e1, e2, order, cores",
    [
        (5, 5, (8, 0, 8, 0, 8, 0), 2, 14, 256, (4, 4)),
        (5, 5, (0, 6, 6, 8, 0, 2), 2, 12, 512, (2, 8)),
        (4, 5, (4, 6, 6, 8, 2, 4), 6, 10, 256, (4, 2)),
    ],
)
def test_structure_report_twisted_cores(n, m, t, e1, e2, order, cores):
    # With [x,z] != 1 these cores shrink under conjugation by x or z, not
    # only by w and y.  The expected orders are the intersections of the
    # conjugates over every element of the group.
    fp = fp_from_extended(derive_pair(n, m), TupleB(*t), e1, e2)
    report = structure_report(coset_enumerate(fp), fp)
    assert report.order == order
    assert (report.core_x_order, report.core_z_order) == cores


def test_regular_representation_is_faithful():
    for fp in (parse_relator_lines(SD16_LINES), flagship_pres()):
        table = coset_enumerate(fp, 10**6)
        report = structure_report(table, fp)
        gens = [tuple(row[2 * i] for row in table.rows) for i in range(fp.ngens)]
        seen = {tuple(range(table.count))}
        frontier = [tuple(range(table.count))]
        while frontier:
            nxt = []
            for p in frontier:
                for q in gens:
                    composed = tuple(q[v] for v in p)
                    if composed not in seen:
                        seen.add(composed)
                        nxt.append(composed)
            frontier = nxt
        assert len(seen) == table.count == report.order


def test_commutator_location_checks():
    fp = flagship_pres()
    report = structure_report(coset_enumerate(fp, 10**6), fp)
    assert verify_xz_commutator_location(report, CoreSpec(2, 2))
    assert verify_xz_commutator_location(report, CoreSpec(1, 1))
    assert not verify_xz_commutator_location(report, CoreSpec(4, 2))
    faulted = report._replace(xz_commutator=(1, 1))
    assert not verify_xz_commutator_location(faulted, CoreSpec(2, 2))
    with pytest.raises(DomainError):
        verify_xz_commutator_location(report, CoreSpec(0, 2))


def test_commutator_location_trivial_commutator():
    fp = fp_from_extended(PAIR44, TupleB(0, 0, 0, 0, 0, 0), 0, 0)
    report = structure_report(coset_enumerate(fp, 10**6), fp)
    assert report.xz_commutator == (0, 0)
    for n1 in (1, 2, 4, 8):
        assert verify_xz_commutator_location(report, CoreSpec(n1, n1))


def test_crosscheck_order_examples():
    assert crosscheck_order(PAIR44, TupleA(0, 2, 0, 0).to_tuple_b()) == (256, 256)
    assert crosscheck_order(derive_pair(4, 5), TupleB(0, 0, 0, 0, 0, 0)) == (512, 512)


def test_crosscheck_order_rejects_invalid_tuple():
    with pytest.raises(DomainError):
        crosscheck_order(PAIR44, TupleB(1, 1, 1, 1, 1, 1))


def test_crosscheck_order_limit_is_capacity_not_disagreement():
    with pytest.raises(CapacityError):
        crosscheck_order(PAIR44, TupleA(0, 2, 0, 0).to_tuple_b(), max_cosets=10)


def test_crosscheck_order_every_valid_tuple_a():
    """Both pipelines agree on the group order for every valid four-field
    tuple at ranks (4,4) and (4,5), and the order read off the cosets of
    H and K is the number of elements that full enumeration finds."""
    for n, m in ((4, 4), (4, 5)):
        pair = derive_pair(n, m)
        for t4 in enumerate_a(pair):
            t = t4.to_tuple_b()
            collected, enumerated = crosscheck_order(pair, t)
            full = coset_enumerate(fp_from_extended(pair, t, 0, 0)).count
            assert collected == enumerated == full == 4 * pair.N * pair.M, (n, m, t4)


@pytest.mark.parametrize(
    "lines, want",
    [
        (
            A4_Z2_LINES,
            StructureReport(
                order=24,
                gen_orders={"w": 2, "y": 2, "x": 6},
                h_order=24,
                k_order=2,
                intersection_order=2,
                xz_commutator=None,
                core_x_order=2,
                core_z_order=None,
                sd_h=False,
                sd_k=False,
            ),
        ),
        (
            S3_S3_LINES,
            StructureReport(
                order=36,
                gen_orders={"w": 2, "y": 2, "z": 3, "x": 6},
                h_order=12,
                k_order=6,
                intersection_order=2,
                xz_commutator=(0, 2),
                core_x_order=3,
                core_z_order=3,
                sd_h=False,
                sd_k=False,
            ),
        ),
    ],
    ids=["A4xZ2", "S3xS3"],
)
def test_structure_report_cores_off_a_chain(lines, want):
    fp = parse_relator_lines(lines)
    assert structure_report(coset_enumerate(fp), fp) == want


def _imported_names(path):
    """Every module name (split at the dots) and name the file at path imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names.update(alias.name.split("."))
    return names


def test_fpcoset_and_pcgroup_share_no_code():
    # the cross-check is evidence only while the two pipelines are independent
    assert "pcgroup" not in _imported_names(SRC / "fpcoset.py")
    assert "fpcoset" not in _imported_names(SRC / "pcgroup.py")


def test_pcgroup_takes_only_types_from_arith_and_congruence():
    # the collection side reads its cores off its own tail maps: it may take
    # the parameter types from the arithmetic and congruence layers, never
    # additive_order or the solver, whose answers it is checked against
    assert "sdprod" not in _imported_names(SRC / "pcgroup.py")
    imported = {}
    for node in ast.walk(ast.parse((SRC / "pcgroup.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported.setdefault(node.module, set()).update(alias.name for alias in node.names)
    assert imported == {
        "arith": {"SdPair"},
        "congruence": {"TupleA", "TupleB"},
        "errors": {"CapacityError", "DomainError"},
    }
