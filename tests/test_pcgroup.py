"""Unit tests for collection, consistency checking, and table analysis."""

from dataclasses import replace
from itertools import product

import pytest

from sdprod import pcgroup
from sdprod.arith import derive_pair
from sdprod.congruence import (
    CoreSpec,
    TupleA,
    TupleB,
    check_a,
    check_b_congruences,
    enumerate_a,
    enumerate_b,
)
from sdprod.errors import CapacityError, DomainError
from sdprod.pcgroup import (
    NormalForm,
    audit_table,
    build_table,
    check_consistency,
    collect_multiply,
    core_of,
    element_order,
    index_nf,
    inverse_of,
    is_normal,
    nf_index,
    pc_from_tuple_a,
    pc_from_tuple_b,
    subgroup_closure,
    verify_associativity_exhaustive,
)

PAIR44 = derive_pair(4, 4)
WITNESS = TupleA(0, 2, 0, 0)


def witness_table():
    return build_table(pc_from_tuple_a(PAIR44, WITNESS))


def table_power(g, e, k):
    acc = 0
    for _ in range(k):
        acc = g.mul(acc, e)
    return acc


def test_pc_from_tuple_a_slots():
    pc = pc_from_tuple_a(PAIR44, WITNESS)
    assert (pc.xw_xexp, pc.xw_zexp) == (3, 0)
    assert (pc.zy_zexp, pc.zy_xexp) == (1, 0)
    assert (pc.yw_zexp, pc.yw_xexp) == (0, 0)

    zero = pc_from_tuple_a(PAIR44, TupleA(0, 0, 0, 0))
    assert (zero.xw_xexp, zero.xw_zexp) == (1, 0)
    assert (zero.zy_zexp, zero.zy_xexp) == (1, 0)

    pc45 = pc_from_tuple_a(derive_pair(4, 5), TupleA(2, 0, 0, 0))
    assert pc45.zy_zexp == 3


def test_pc_from_tuple_b_slots():
    assert pc_from_tuple_b(PAIR44, TupleB(0, 0, 2, 0, 0, 0)) == pc_from_tuple_a(
        PAIR44, WITNESS
    )
    pc = pc_from_tuple_b(PAIR44, TupleB(4, 0, 0, 0, 0, 0))
    assert (pc.zy_zexp, pc.zy_xexp) == (1, 4)
    pc = pc_from_tuple_b(PAIR44, TupleB(0, 0, 0, 4, 0, 0))
    assert (pc.xw_zexp, pc.xw_xexp) == (4, 1)


def test_collect_identity_laws():
    pc = pc_from_tuple_a(PAIR44, WITNESS)
    e = NormalForm(0, 0, 0, 0)
    samples = [
        NormalForm(w, y, z, x)
        for w in (0, 1)
        for y in (0, 1)
        for z in (0, 3, 7)
        for x in (0, 5)
    ]
    for u in samples:
        assert collect_multiply(pc, e, u) == u
        assert collect_multiply(pc, u, e) == u


def test_collect_moves_w_left():
    pc = pc_from_tuple_a(PAIR44, WITNESS)
    x1 = NormalForm(0, 0, 0, 1)
    w1 = NormalForm(1, 0, 0, 0)
    assert collect_multiply(pc, x1, w1) == NormalForm(1, 0, 0, 3)


def test_collect_involutions():
    pc = pc_from_tuple_a(PAIR44, WITNESS)
    e = NormalForm(0, 0, 0, 0)
    assert collect_multiply(pc, NormalForm(1, 0, 0, 0), NormalForm(1, 0, 0, 0)) == e
    assert collect_multiply(pc, NormalForm(0, 1, 0, 0), NormalForm(0, 1, 0, 0)) == e


def test_consistency_shape_and_witness():
    report = check_consistency(pc_from_tuple_a(PAIR44, WITNESS))
    assert len(report.entries) == 16
    families = {}
    for entry in report.entries:
        families[entry.family] = families.get(entry.family, 0) + 1
    assert families == {"P": 6, "W": 6, "C": 4}
    assert report.overall
    assert report.failed() == ()


def test_consistency_pinpoints_bad_z_by_y_power():
    report = check_consistency(pc_from_tuple_a(PAIR44, TupleA(1, 0, 0, 0)))
    assert not report.overall
    failed = report.failed()
    assert ("P", (2, 3)) in {(e.family, e.index) for e in failed}


@pytest.mark.parametrize("n,m", [(4, 4), (4, 5), (5, 4)])
def test_consistency_equals_check_a(n, m):
    pair = derive_pair(n, m)
    for a in range(pair.M):
        for s in range(pair.N):
            for t in range(pair.N):
                for c in range(pair.M):
                    t4 = TupleA(a, s, t, c)
                    want = check_a(pair, t4).valid
                    got = check_consistency(pc_from_tuple_a(pair, t4)).overall
                    assert got == want, t4


def test_consistency_equals_check_b_congruences():
    pair = PAIR44
    valid = 0
    for fields in product(range(8), repeat=6):
        t6 = TupleB(*fields)
        want = check_b_congruences(pair, t6).valid
        got = check_consistency(pc_from_tuple_b(pair, t6)).overall
        assert got == want, t6
        valid += want
    assert valid == 880


def test_consistency_holds_on_enumerated_b_tuples():
    for t6 in enumerate_b(PAIR44, CoreSpec(2, 2)):
        assert check_consistency(pc_from_tuple_b(PAIR44, t6)).overall


def test_nf_index_round_trip():
    assert nf_index(PAIR44, NormalForm(1, 0, 0, 3)) == 131
    for idx in range(4 * PAIR44.N * PAIR44.M):
        assert nf_index(PAIR44, index_nf(PAIR44, idx)) == idx


def test_build_table_witness():
    g = witness_table()
    assert g.order == 256
    assert g.labels[0] == NormalForm(0, 0, 0, 0)
    assert g.labels[g.gen_x] == NormalForm(0, 0, 0, 1)
    assert g.labels[g.gen_z] == NormalForm(0, 0, 1, 0)
    assert g.labels[g.gen_y] == NormalForm(0, 1, 0, 0)
    assert g.labels[g.gen_w] == NormalForm(1, 0, 0, 0)


def test_build_table_matches_direct_collection():
    g = witness_table()
    pc = pc_from_tuple_a(PAIR44, WITNESS)
    for i in range(g.order):
        row = g.row(i)
        for j in range(g.order):
            want = nf_index(PAIR44, collect_multiply(pc, g.labels[i], g.labels[j]))
            assert g.mul(i, j) == want
            assert row[j] == want


def full_scan_accepts(g):
    """Reference audit: every row and every column is a permutation of G."""
    rows = [g.row(a) for a in range(g.order)]
    full = set(range(g.order))
    return all(set(row) == full for row in rows) and all(
        {row[j] for row in rows} == full for j in range(g.order)
    )


def with_prefix(g, u, k, value):
    prefixes = g.prefixes.copy()
    prefixes[u] = prefixes[u][:k] + (value,) + prefixes[u][k + 1 :]
    return replace(g, prefixes=prefixes)


def build_with_prefix(monkeypatch, u, letter, value):
    """build_table on the witness, with collect_multiply(labels[u], letter) -> value."""
    real = pcgroup.collect_multiply
    u_nf, value_nf = index_nf(PAIR44, u), index_nf(PAIR44, value)

    def faulty(pc, left, right):
        return value_nf if (left, right) == (u_nf, letter) else real(pc, left, right)

    monkeypatch.setattr(pcgroup, "collect_multiply", faulty)
    return build_table(pc_from_tuple_a(PAIR44, WITNESS))


def test_table_audit_catches_a_prefix_map_that_is_not_a_bijection(monkeypatch):
    g = witness_table()
    audit_table(g)
    # element 7 times w now lands where element 6 times w does: the head
    # stays w, so row 7 is a permutation, while column w repeats an entry
    bad = with_prefix(g, 7, 2, g.prefixes[6][2])
    assert not full_scan_accepts(bad)
    with pytest.raises(RuntimeError, match=f"column {g.gen_w} of the product table"):
        audit_table(bad)
    with pytest.raises(RuntimeError, match=f"column {g.gen_w} of the product table"):
        build_with_prefix(monkeypatch, 7, NormalForm(1, 0, 0, 0), g.prefixes[6][2])


def test_table_audit_catches_a_row_with_a_repeated_head(monkeypatch):
    g = witness_table()
    # element 9 times y now has head 0, like element 9 itself
    bad = with_prefix(g, 9, 1, 10)
    assert not full_scan_accepts(bad)
    with pytest.raises(RuntimeError, match="row 9 of the product table"):
        audit_table(bad)
    with pytest.raises(RuntimeError, match="row 9 of the product table"):
        build_with_prefix(monkeypatch, 9, NormalForm(0, 1, 0, 0), 10)
    # a prefix outside G is caught by the row check too
    with pytest.raises(RuntimeError, match="row 9 of the product table"):
        audit_table(with_prefix(g, 9, 3, g.order + g.prefixes[9][3]))


def test_build_table_rejects_inconsistent():
    with pytest.raises(DomainError, match="inconsistent presentation"):
        build_table(pc_from_tuple_a(PAIR44, TupleA(1, 0, 0, 0)))


def test_build_table_size_cap():
    with pytest.raises(CapacityError):
        build_table(pc_from_tuple_a(PAIR44, WITNESS), max_order=100)


def test_build_table_order_4nm_at_mixed_rank():
    pair = derive_pair(4, 5)
    g = build_table(pc_from_tuple_a(pair, TupleA(0, 0, 0, 0)))
    assert g.order == 512


def test_zero_tuple_factors_centralize():
    g = build_table(pc_from_tuple_a(PAIR44, TupleA(0, 0, 0, 0)))
    for u in (g.gen_x, g.gen_y):
        assert g.mul(u, g.gen_z) == g.mul(g.gen_z, u)
    for v in (g.gen_z, g.gen_w):
        assert g.mul(v, g.gen_x) == g.mul(g.gen_x, v)


def test_subgroup_closure_orders():
    g = witness_table()
    assert subgroup_closure(g, ()).order == 1
    assert subgroup_closure(g, (g.gen_x,)).order == 8
    assert subgroup_closure(g, (g.gen_x, g.gen_y)).order == 16
    assert subgroup_closure(g, (g.gen_z, g.gen_w)).order == 16


def test_element_orders_and_inverses():
    g = witness_table()
    assert element_order(g, 0) == 1
    assert element_order(g, g.gen_x) == 8
    assert element_order(g, g.gen_w) == 2
    assert inverse_of(g, 0) == 0
    for e in range(g.order):
        assert g.mul(e, inverse_of(g, e)) == 0
        assert g.mul(inverse_of(g, e), e) == 0


def test_normality_facts():
    g = witness_table()
    assert is_normal(g, subgroup_closure(g, (g.gen_x,)))
    assert is_normal(g, subgroup_closure(g, (g.gen_z,)))
    assert is_normal(g, subgroup_closure(g, ()))
    # frozen fixtures: the two involutions generate non-normal subgroups
    assert not is_normal(g, subgroup_closure(g, (g.gen_w,)))
    assert not is_normal(g, subgroup_closure(g, (g.gen_y,)))


def test_core_facts():
    g = witness_table()
    hx = subgroup_closure(g, (g.gen_x,))
    assert core_of(g, hx).elements == hx.elements
    whole = subgroup_closure(g, (g.gen_w, g.gen_y, g.gen_z, g.gen_x))
    assert whole.order == g.order
    assert core_of(g, whole).order == g.order


def test_core_shrinks_for_twisted_tuple():
    g = build_table(pc_from_tuple_b(PAIR44, TupleB(4, 0, 0, 4, 0, 0)))
    hx = subgroup_closure(g, (g.gen_x,))
    hz = subgroup_closure(g, (g.gen_z,))
    x2 = g.mul(g.gen_x, g.gen_x)
    z2 = g.mul(g.gen_z, g.gen_z)
    assert core_of(g, hx).elements == subgroup_closure(g, (x2,)).elements
    assert core_of(g, hz).elements == subgroup_closure(g, (z2,)).elements


def sd_relations_hold(g, gen_big, gen_inv, big_order):
    if element_order(g, gen_big) != big_order or element_order(g, gen_inv) != 2:
        return False
    twist = table_power(g, gen_big, big_order // 2 - 1)
    conj = g.mul(g.mul(inverse_of(g, gen_inv), gen_big), gen_inv)
    return conj == twist


def test_structure_of_every_valid_tuple_a():
    for t4 in enumerate_a(PAIR44):
        g = build_table(pc_from_tuple_a(PAIR44, t4))
        assert g.order == 256
        h = subgroup_closure(g, (g.gen_x, g.gen_y))
        k = subgroup_closure(g, (g.gen_z, g.gen_w))
        assert h.order == 16 and k.order == 16
        assert len(set(h.elements) & set(k.elements)) == 1
        assert sd_relations_hold(g, g.gen_x, g.gen_y, 8)
        assert sd_relations_hold(g, g.gen_z, g.gen_w, 8)
        assert is_normal(g, subgroup_closure(g, (g.gen_x,)))
        assert is_normal(g, subgroup_closure(g, (g.gen_z,)))


def test_associativity_exhaustive_and_fault_injection():
    g = witness_table()
    assert verify_associativity_exhaustive(g)
    # swap u*y between elements 3 and 5: both products have head y, so every
    # row and column is still a permutation, but the operation is no group
    bad = with_prefix(with_prefix(g, 3, 1, g.prefixes[5][1]), 5, 1, g.prefixes[3][1])
    audit_table(bad)
    assert bad.mul(3, g.gen_y) == g.mul(5, g.gen_y)
    assert not verify_associativity_exhaustive(bad)


def test_associativity_cap():
    g = witness_table()
    with pytest.raises(CapacityError):
        verify_associativity_exhaustive(g, max_order=100)

