"""Unit tests for consistency checking and the table, with collection as
the reference that the table is compared with."""

import tracemalloc
from dataclasses import dataclass, replace
from itertools import product
from typing import NamedTuple

import pytest

from sdprod import pcgroup
from sdprod.arith import SdPair, derive_pair
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
    audit_table,
    build_table,
    check_consistency,
    core_of,
    is_normal,
    pc_from_tuple_a,
    pc_from_tuple_b,
    subgroup_closure,
    verify_associativity_exhaustive,
    verify_associativity_extension,
)
from oracles import verify_associativity_generators

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


# (family, index, passed, residual) of all sixteen entries, in report order,
# for six-field tuples that fail identities of all three families
PINNED_REPORTS = [
    ((4, 4), (7, 7, 7, 7, 7, 5), [
        ("P", (1, 2), False, (5, 7)),
        ("P", (1, 3), True, (0, 0)),
        ("P", (1, 4), False, (5, 7)),
        ("P", (2, 3), False, (7, 5)),
        ("P", (2, 4), True, (0, 0)),
        ("P", (3, 4), True, (0, 0)),
        ("W", (1, 2), False, (5, 7)),
        ("W", (1, 3), True, (0, 0)),
        ("W", (1, 4), True, (0, 0)),
        ("W", (2, 3), True, (0, 0)),
        ("W", (2, 4), True, (0, 0)),
        ("W", (3, 4), True, (0, 0)),
        ("C", (1, 2, 3), False, (1, 3)),
        ("C", (1, 2, 4), False, (5, 7)),
        ("C", (1, 3, 4), True, (0, 0)),
        ("C", (2, 3, 4), True, (0, 0)),
    ]),
    ((4, 4), (1, 2, 3, 5, 6, 1), [
        ("P", (1, 2), False, (2, 6)),
        ("P", (1, 3), True, (0, 0)),
        ("P", (1, 4), False, (3, 7)),
        ("P", (2, 3), False, (0, 6)),
        ("P", (2, 4), True, (0, 0)),
        ("P", (3, 4), True, (0, 0)),
        ("W", (1, 2), False, (4, 1)),
        ("W", (1, 3), True, (0, 0)),
        ("W", (1, 4), True, (0, 0)),
        ("W", (2, 3), True, (0, 0)),
        ("W", (2, 4), True, (0, 0)),
        ("W", (3, 4), True, (0, 0)),
        ("C", (1, 2, 3), False, (5, 1)),
        ("C", (1, 2, 4), False, (0, 3)),
        ("C", (1, 3, 4), True, (0, 0)),
        ("C", (2, 3, 4), True, (0, 0)),
    ]),
    ((4, 5), (7, 15, 7, 15, 7, 8), [
        ("P", (1, 2), False, (9, 7)),
        ("P", (1, 3), True, (0, 0)),
        ("P", (1, 4), False, (9, 7)),
        ("P", (2, 3), False, (15, 5)),
        ("P", (2, 4), True, (0, 0)),
        ("P", (3, 4), True, (0, 0)),
        ("W", (1, 2), False, (8, 4)),
        ("W", (1, 3), True, (0, 0)),
        ("W", (1, 4), False, (8, 0)),
        ("W", (2, 3), True, (0, 0)),
        ("W", (2, 4), True, (0, 0)),
        ("W", (3, 4), True, (0, 0)),
        ("C", (1, 2, 3), False, (9, 7)),
        ("C", (1, 2, 4), False, (13, 7)),
        ("C", (1, 3, 4), True, (0, 0)),
        ("C", (2, 3, 4), True, (0, 0)),
    ]),
    ((4, 5), (3, 5, 2, 9, 1, 6), [
        ("P", (1, 2), False, (9, 4)),
        ("P", (1, 3), True, (0, 0)),
        ("P", (1, 4), False, (10, 0)),
        ("P", (2, 3), False, (3, 3)),
        ("P", (2, 4), True, (0, 0)),
        ("P", (3, 4), True, (0, 0)),
        ("W", (1, 2), False, (10, 6)),
        ("W", (1, 3), True, (0, 0)),
        ("W", (1, 4), False, (8, 0)),
        ("W", (2, 3), True, (0, 0)),
        ("W", (2, 4), True, (0, 0)),
        ("W", (3, 4), True, (0, 0)),
        ("C", (1, 2, 3), False, (11, 4)),
        ("C", (1, 2, 4), False, (5, 5)),
        ("C", (1, 3, 4), True, (0, 0)),
        ("C", (2, 3, 4), True, (0, 0)),
    ]),
]


@pytest.mark.parametrize("nm, t6, want", PINNED_REPORTS)
def test_consistency_report_pinned_entry_by_entry(nm, t6, want):
    # .overall and failed() membership miss a reordered entry or a wrong
    # residual; the whole report is compared here
    report = check_consistency(pc_from_tuple_b(derive_pair(*nm), TupleB(*t6)))
    assert [tuple(e) for e in report.entries] == want


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
    assert index_nf(PAIR44, 0) == NormalForm(0, 0, 0, 0)
    assert index_nf(PAIR44, g.gen_x) == NormalForm(0, 0, 0, 1)
    assert index_nf(PAIR44, g.gen_z) == NormalForm(0, 0, 1, 0)
    assert index_nf(PAIR44, g.gen_y) == NormalForm(0, 1, 0, 0)
    assert index_nf(PAIR44, g.gen_w) == NormalForm(1, 0, 0, 0)


def test_build_table_matches_direct_collection():
    g = witness_table()
    pc = pc_from_tuple_a(PAIR44, WITNESS)
    for i in range(g.order):
        row = g.row(i)
        for j in range(g.order):
            u, v = index_nf(PAIR44, i), index_nf(PAIR44, j)
            want = nf_index(PAIR44, collect_multiply(pc, u, v))
            assert g.mul(i, j) == want
            assert row[j] == want


def test_mul_matches_row_on_a_twisted_table():
    # at (4,5) with t and c nonzero the w map past y differs from the w map
    # and does not commute with the y map, so mul must apply the w map that
    # a's head selects, and apply it before the y map
    g = build_table(pc_from_tuple_b(derive_pair(4, 5), TupleB(4, 6, 0, 4, 4, 2)))
    assert g.tw != g.tw_past_y
    assert any(g.ty[g.tw_past_y[i]] != g.tw_past_y[g.ty[i]] for i in range(len(g.ty)))
    for a in range(g.order):
        assert [g.mul(a, b) for b in range(g.order)] == g.row(a), a


class NormalForm(NamedTuple):
    """The element w^a1 y^a2 z^a3 x^a4 as its exponents (a1, a2, a3, a4)."""

    w: int
    y: int
    z: int
    x: int


def nf_index(pair, nf):
    return ((nf.w * 2 + nf.y) * pair.M + nf.z) * pair.N + nf.x


def index_nf(pair, idx):
    rest, x = divmod(idx, pair.N)
    head, z = divmod(rest, pair.M)
    return NormalForm(head // 2, head % 2, z, x)


def collect_multiply(pc, u, v):
    """Normal form of u * v by collection, the reference for the table.

    The letters of v are absorbed left to right.  Its w moves past u's
    tail z^uz x^ux, which becomes (z^w)^uz (x^w)^ux with z^w = z^beta and
    x^w = z^b x^(1+s), and past a y of u, which becomes y z^c x^t.  Then
    its y moves past the tail, which becomes (z^y)^uz (x^y)^ux with
    z^y = z^(1+a) x^r and x^y = x^alpha.  Then the abelian tails add up.
    w and y are involutions, so conjugation by either equals conjugation
    by its inverse.  The formulas are written here from the presentation,
    not taken from pcgroup, so the comparison with the table is
    independent of how build_table reads the same relations.
    """
    N, M = pc.pair.N, pc.pair.M
    uw, uy, uz, ux = u
    vw, vy, vz, vx = v
    if vw:
        uz, ux = (pc.pair.beta * uz + pc.xw_zexp * ux) % M, pc.xw_xexp * ux % N
        if uy:
            uz, ux = (uz + pc.yw_zexp) % M, (ux + pc.yw_xexp) % N
        uw ^= 1
    if vy:
        uz, ux = pc.zy_zexp * uz % M, (pc.zy_xexp * uz + pc.pair.alpha * ux) % N
        uy ^= 1
    return NormalForm(uw, uy, (uz + vz) % M, (ux + vx) % N)


def full_scan_accepts(g):
    """Reference audit: every row and every column is a permutation of G."""
    rows = [g.row(a) for a in range(g.order)]
    full = set(range(g.order))
    return all(set(row) == full for row in rows) and all(
        {row[j] for row in rows} == full for j in range(g.order)
    )


@dataclass
class PrefixTable:
    """A product table that stores the four prefixes u, u*y, u*w, u*w*y of
    every element, in head order, and multiplies as GroupTable does.

    GroupTable derives its prefixes from three tail maps, so a change to
    one map moves a whole column.  This form lets a test set one product
    of one row and hand the result to what reads only `order`, `row`,
    `generator_columns` and the generators: Light's test and the cubic
    scan.  Its columns come from `mul`, so they stay the columns of a
    table whose prefix 0 is no longer the element itself, which
    GroupTable's columns assume.
    """

    pair: SdPair
    order: int
    prefixes: list[tuple[int, int, int, int]]
    gen_w: int
    gen_y: int
    gen_z: int
    gen_x: int

    @classmethod
    def of(cls, g):
        prefixes = [g.prefixes(u) for u in range(g.order)]
        return cls(g.pair, g.order, prefixes, g.gen_w, g.gen_y, g.gen_z, g.gen_x)

    def mul(self, a, b):
        N, M = self.pair.N, self.pair.M
        head, tail = divmod(b, M * N)
        phead, ptail = divmod(self.prefixes[a][head], M * N)
        return (phead * M + (ptail // N + tail // N) % M) * N + (ptail + tail) % N

    def generator_columns(self):
        gens = (self.gen_w, self.gen_y, self.gen_z, self.gen_x)
        return [[self.mul(b, c) for b in range(self.order)] for c in gens]

    def row(self, a):
        N, M = self.pair.N, self.pair.M
        out = []
        for p in self.prefixes[a]:
            phead, ptail = divmod(p, M * N)
            pz, px = divmod(ptail, N)
            for vz in range(M):
                base = (phead * M + (pz + vz) % M) * N
                out += range(base + px, base + N)
                out += range(base, base + px)
        return out


def with_prefix(g, u, k, value):
    prefixes = g.prefixes.copy()
    prefixes[u] = prefixes[u][:k] + (value,) + prefixes[u][k + 1 :]
    return replace(g, prefixes=prefixes)


def with_entry(tails, i, value):
    tails = tails.copy()
    tails[i] = value
    return tails


def build_with_entry(monkeypatch, call, i, value):
    """build_table on the witness, with entry i of one tail map set to
    value: the map of the given _tail_map call, 0 for ty, 1 for tw and 2
    for tw_past_y, in the order build_table takes them."""
    real = pcgroup._tail_map
    calls = iter(range(3))

    def faulty(*args, **kwargs):
        tails = real(*args, **kwargs)
        return with_entry(tails, i, value) if next(calls) == call else tails

    monkeypatch.setattr(pcgroup, "_tail_map", faulty)
    return build_table(pc_from_tuple_a(PAIR44, WITNESS))


def test_prefix_table_matches_the_table():
    g = witness_table()
    p = PrefixTable.of(g)
    assert full_scan_accepts(p)
    for a in range(0, g.order, 7):
        assert p.row(a) == g.row(a)
        assert [p.mul(a, b) for b in range(g.order)] == g.row(a)


def test_table_audit_catches_a_tail_map_that_is_not_a_bijection(monkeypatch):
    g = witness_table()
    audit_table(g)
    # element 7 times w now lands where element 6 times w does: the head
    # stays w, so row 7 is a permutation, while column w repeats an entry
    bad = g._replace(tw=with_entry(g.tw, 7, g.tw[6]))
    assert bad.mul(7, g.gen_w) == g.mul(6, g.gen_w)
    assert not full_scan_accepts(bad)
    with pytest.raises(RuntimeError, match=f"column {g.gen_w} of the product table"):
        audit_table(bad)
    with pytest.raises(RuntimeError, match=f"column {g.gen_w} of the product table"):
        build_with_entry(monkeypatch, 1, 7, g.tw[6])
    # the same fault past y shows in the w column too, now at element y x^7
    bad = g._replace(tw_past_y=with_entry(g.tw_past_y, 7, g.tw_past_y[6]))
    assert bad.mul(g.gen_y + 7, g.gen_w) == g.mul(g.gen_y + 6, g.gen_w)
    assert not full_scan_accepts(bad)
    with pytest.raises(RuntimeError, match=f"column {g.gen_w} of the product table"):
        audit_table(bad)


def test_table_audit_catches_a_tail_map_entry_outside_the_block(monkeypatch):
    g = witness_table()
    block = g.order // 4
    # element 9 times y now leaves the y block
    bad = g._replace(ty=with_entry(g.ty, 9, block + g.ty[9]))
    assert not full_scan_accepts(bad)
    with pytest.raises(RuntimeError, match=f"column {g.gen_y} of the product table"):
        audit_table(bad)
    with pytest.raises(RuntimeError, match=f"column {g.gen_y} of the product table"):
        build_with_entry(monkeypatch, 0, 9, block + g.ty[9])
    # a negative entry would index the map from its end
    with pytest.raises(RuntimeError, match=f"column {g.gen_y} of the product table"):
        audit_table(g._replace(ty=with_entry(g.ty, 9, -1)))


def test_build_table_rejects_inconsistent():
    with pytest.raises(DomainError, match="inconsistent presentation"):
        build_table(pc_from_tuple_a(PAIR44, TupleA(1, 0, 0, 0)))


def test_build_table_size_cap():
    # order 2^21: refused after the consistency check, before any tail map
    with pytest.raises(CapacityError, match="order 2097152 exceeds cap 1048576"):
        build_table(pc_from_tuple_a(derive_pair(11, 10), TupleA(0, 0, 0, 0)))


def test_table_memory_follows_the_tails():
    """The table keeps three tail maps of order/4 entries, and nothing per
    element: order 65,536 builds under 64 bytes per element."""
    pc = pc_from_tuple_a(derive_pair(8, 8), TupleA(0, 0, 0, 0))
    tracemalloc.start()
    try:
        g = build_table(pc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.order == 65_536
    assert len(g.ty) == len(g.tw) == len(g.tw_past_y) == g.order // 4
    assert peak < 64 * g.order


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
    assert subgroup_closure(g, ()) == (0,)
    assert len(subgroup_closure(g, (g.gen_x,))) == 8
    assert len(subgroup_closure(g, (g.gen_x, g.gen_y))) == 16
    assert len(subgroup_closure(g, (g.gen_z, g.gen_w))) == 16


def test_element_orders_and_inverses():
    g = witness_table()
    # every order in a 2-group is a power of two, so g^k = 1 and
    # g^(k/2) != 1 make k the order of g
    for e, k in ((0, 1), (g.gen_x, 8), (g.gen_w, 2)):
        assert table_power(g, e, k) == 0
        assert k == 1 or table_power(g, e, k // 2) != 0
    for e in range(g.order):
        v = g.row(e).index(0)
        assert g.mul(v, e) == 0


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
    assert core_of(g, hx) == hx
    whole = subgroup_closure(g, (g.gen_w, g.gen_y, g.gen_z, g.gen_x))
    assert len(whole) == g.order
    assert len(core_of(g, whole)) == g.order


def test_core_shrinks_for_twisted_tuple():
    g = build_table(pc_from_tuple_b(PAIR44, TupleB(4, 0, 0, 4, 0, 0)))
    hx = subgroup_closure(g, (g.gen_x,))
    hz = subgroup_closure(g, (g.gen_z,))
    x2 = g.mul(g.gen_x, g.gen_x)
    z2 = g.mul(g.gen_z, g.gen_z)
    assert core_of(g, hx) == subgroup_closure(g, (x2,))
    assert core_of(g, hz) == subgroup_closure(g, (z2,))


def sd_relations_hold(g, gen_big, gen_inv, big_order):
    for e, k in ((gen_big, big_order), (gen_inv, 2)):
        if table_power(g, e, k) != 0 or table_power(g, e, k // 2) == 0:
            return False
    twist = table_power(g, gen_big, big_order // 2 - 1)
    # gen_inv has order 2, so it is its own inverse
    conj = g.mul(g.mul(gen_inv, gen_big), gen_inv)
    return conj == twist


def test_structure_of_every_valid_tuple_a():
    for t4 in enumerate_a(PAIR44):
        g = build_table(pc_from_tuple_a(PAIR44, t4))
        assert g.order == 256
        h = subgroup_closure(g, (g.gen_x, g.gen_y))
        k = subgroup_closure(g, (g.gen_z, g.gen_w))
        assert len(h) == 16 and len(k) == 16
        assert len(set(h) & set(k)) == 1
        assert sd_relations_hold(g, g.gen_x, g.gen_y, 8)
        assert sd_relations_hold(g, g.gen_z, g.gen_w, 8)
        assert is_normal(g, subgroup_closure(g, (g.gen_x,)))
        assert is_normal(g, subgroup_closure(g, (g.gen_z,)))


def test_associativity_exhaustive_and_fault_injection():
    g = witness_table()
    assert verify_associativity_exhaustive(g)
    assert verify_associativity_generators(g)
    assert verify_associativity_extension(g)
    # swap u*y between elements 3 and 5: both products have head y, so every
    # row and column is still a permutation, but the operation is no group
    p = PrefixTable.of(g)
    bad = with_prefix(with_prefix(p, 3, 1, p.prefixes[5][1]), 5, 1, p.prefixes[3][1])
    assert full_scan_accepts(bad)
    assert bad.mul(3, g.gen_y) == g.mul(5, g.gen_y)
    assert not verify_associativity_exhaustive(bad)
    assert not verify_associativity_generators(bad)


@pytest.mark.parametrize("swapped", [(2, 3), (1, 3)], ids=["only-w-fails", "only-y-fails"])
def test_associativity_fault_seen_by_one_generator(swapped):
    """Swap the prefixes `swapped` between elements 3 and 5 of the witness.

    The heads not in `swapped` form an index-2 subgroup H (<y,z,x> or
    <w,z,x>), and the new product is u*v for v in H and f(u)*v otherwise,
    f swapping 3 and 5.  Every c in H still satisfies (ab)c = a(bc), so
    only the one generator outside H, w or y, shows the fault.
    """
    g = PrefixTable.of(witness_table())
    bad = g
    for k in swapped:
        bad = with_prefix(with_prefix(bad, 3, k, g.prefixes[5][k]), 5, k, g.prefixes[3][k])
    assert full_scan_accepts(bad)
    assert not verify_associativity_exhaustive(bad)
    assert not verify_associativity_generators(bad)


def klein_table():
    """A table whose rows and columns are permutations and that is a group,
    but not one w, y, z, x generate.

    Prefix k of (head h, tail t) is (head h xor k, tail t x): the Klein
    four-group times the tails, with x added to every product, so the
    element 0 is no identity.  The homomorphism to Z/2 that sends an
    element to 1 plus its w bit, y bit, z exponent and x exponent, mod 2,
    kills the four generators: they reach half of G, and Light's test
    proves nothing.
    """
    g = PrefixTable.of(witness_table())
    N, block = PAIR44.N, g.order // 4
    prefixes = []
    for u in range(g.order):
        head, tail = divmod(u, block)
        zx = tail - tail % N + (tail + 1) % N
        prefixes.append(tuple((head ^ k) * block + zx for k in range(4)))
    return replace(g, prefixes=prefixes)


def test_associativity_generators_must_reach_every_element():
    klein = klein_table()
    assert full_scan_accepts(klein)
    assert verify_associativity_exhaustive(klein)
    assert not verify_associativity_generators(klein)


def test_associativity_cap():
    g = witness_table()
    with pytest.raises(CapacityError):
        verify_associativity_exhaustive(g, max_order=100)


def affine_tail_map(pair, image):
    """The tail map z^i x^j -> z^e x^f, (e, f) = image(i, j) reduced, for
    i in range(M) and j in range(N), as a list of tail indices."""
    N, M = pair.N, pair.M
    return [e % M * N + f % N for e, f in (image(i, j) for i in range(M) for j in range(N))]


def tables_failing_one_condition():
    """Tables whose tail maps are permutations, so that they pass the
    audit, and that fail exactly one condition of the extension
    certificate, with the condition's name.

    - (a): the witness with tw_past_y the identity, an affine map whose
      linear part is not tw's.
    - (b): ty the linear map z -> z x, x -> x, with tw and tw_past_y the
      identity.  Then L_y L_y sends z to z x^2, not z.
    - (c): the witness with tw_past_y shifted by x, so that y^w = y x,
      whose square is no longer 1; every map is still affine, with the
      same linear parts.
    - well-defined: ty is i, j -> (i, i - j) at (5,4), where N = 16 and
      M = 8, with tw and tw_past_y the identity.  Entry by entry this is
      the linear map z -> z x, x -> x^-1, an involution, but z^8 = 1 would
      go to x^8.  (4,5) has its mirror, x -> z^-1 x with z -> z^-1.
    """
    g = witness_table()
    N = PAIR44.N
    identity = list(range(g.order // 4))
    yield "a", g._replace(tw_past_y=identity)
    yield "b", g._replace(
        ty=affine_tail_map(PAIR44, lambda i, j: (i, i + j)), tw=identity, tw_past_y=identity
    )
    yield "c", g._replace(tw_past_y=[t - t % N + (t + 1) % N for t in g.tw])
    for nm, image in (((5, 4), lambda i, j: (i, i - j)), ((4, 5), lambda i, j: (-i - j, j))):
        pair = derive_pair(*nm)
        g = build_table(pc_from_tuple_a(pair, TupleA(0, 0, 0, 0)))
        identity = list(range(g.order // 4))
        yield "well-defined", g._replace(
            ty=affine_tail_map(pair, image), tw=identity, tw_past_y=identity
        )


@pytest.mark.parametrize(
    "condition, bad",
    list(tables_failing_one_condition()),
    ids=["a", "b", "c", "well-defined-5-4", "well-defined-4-5"],
)
def test_extension_certificate_rejects_each_failed_condition(condition, bad):
    """Each table fails one condition only, and both oracles reject it:
    drop that condition from the certificate and this test fails."""
    audit_table(bad)
    parts = [pcgroup._affine_part(bad, tails) for tails in (bad.ty, bad.tw, bad.tw_past_y)]
    if condition == "well-defined":
        assert parts[0] is None and parts[1:] == [((0, 0), (1, 0), (0, 1))] * 2
    else:
        # three affine maps; tw and tw_past_y share a linear part unless (a) fails
        assert None not in parts
        assert (parts[1][1:] == parts[2][1:]) is (condition != "a")
    assert not verify_associativity_extension(bad)
    assert not verify_associativity_exhaustive(bad)
    assert not verify_associativity_generators(bad)

