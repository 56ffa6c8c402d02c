"""Unit tests for coset enumeration and the permutation-based reports."""

import dataclasses

import pytest

from sdprod.arith import derive_pair
from sdprod.congruence import CoreSpec, TupleA, TupleB, enumerate_a
from sdprod.errors import CapacityError, DomainError
from sdprod.fpcoset import (
    CosetTable,
    FpPres,
    RelatorSyntaxError,
    coset_enumerate,
    crosscheck_order,
    fp_from_extended,
    free_reduce,
    parse_relator_lines,
    perm_of_gen,
    structure_report,
    verify_xz_commutator_location,
)

PAIR44 = derive_pair(4, 4)
FLAGSHIP_TUPLE = TupleB(4, 0, 0, 4, 0, 0)

SD16_LINES = ["x^8", "y^2", "Y x y X^3"]


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
    with pytest.raises(ValueError):
        FpPres(2, ("y", "x"), ((),))
    with pytest.raises(ValueError):
        FpPres(2, ("y", "x"), ((3,),))
    with pytest.raises(ValueError):
        FpPres(2, ("y", "x"), ((1, -1),))


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


def test_enumerate_order_two():
    fp = parse_relator_lines(["w^2"])
    table = coset_enumerate(fp, 100)
    assert table.complete
    assert table.count == 2


def test_enumerate_sd16():
    table = coset_enumerate(parse_relator_lines(SD16_LINES), 10**6)
    assert table.complete
    assert table.count == 16


def test_enumerate_flagship():
    table = coset_enumerate(flagship_pres(), 10**6)
    assert table.complete
    assert table.count == 256


def test_enumerate_deterministic():
    fp = flagship_pres()
    t1 = coset_enumerate(fp, 10**6)
    t2 = coset_enumerate(fp, 10**6)
    assert t1.rows == t2.rows


def test_enumerate_coset_limit():
    with pytest.raises(CapacityError):
        coset_enumerate(flagship_pres(), 100)


def test_generators_act_as_permutations():
    fp = parse_relator_lines(SD16_LINES)
    table = coset_enumerate(fp, 10**6)
    for idx in range(1, fp.ngens + 1):
        p = perm_of_gen(table, idx)
        assert sorted(p) == list(range(table.count))


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


def test_structure_report_requires_complete_table():
    table = CosetTable(rows=[[None] * 8], complete=False, count=1)
    with pytest.raises(DomainError):
        structure_report(table, flagship_pres())


def test_regular_representation_is_faithful():
    for fp in (parse_relator_lines(SD16_LINES), flagship_pres()):
        table = coset_enumerate(fp, 10**6)
        report = structure_report(table, fp)
        gens = [perm_of_gen(table, i) for i in range(1, fp.ngens + 1)]
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
    faulted = dataclasses.replace(report, xz_commutator=(1, 1))
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
    assert crosscheck_order(PAIR44, TupleA(0, 2, 0, 0).to_tuple_b())
    assert crosscheck_order(derive_pair(4, 5), TupleB(0, 0, 0, 0, 0, 0))


def test_crosscheck_order_rejects_invalid_tuple():
    with pytest.raises(DomainError):
        crosscheck_order(PAIR44, TupleB(1, 1, 1, 1, 1, 1))


def test_crosscheck_order_limit_is_capacity_not_disagreement():
    with pytest.raises(CapacityError):
        crosscheck_order(PAIR44, TupleA(0, 2, 0, 0).to_tuple_b(), max_cosets=10)


def test_crosscheck_order_every_valid_tuple_a():
    """Both pipelines agree on the group order for every valid four-field
    tuple at ranks (4,4) and (4,5)."""
    for n, m in ((4, 4), (4, 5)):
        pair = derive_pair(n, m)
        for t4 in enumerate_a(pair):
            assert crosscheck_order(pair, t4.to_tuple_b()), (n, m, t4)
