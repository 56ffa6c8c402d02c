"""Acceptance suite: ten go/no-go criteria for the toolkit.

Each test prints exactly one [criterion N] PASS/FAIL line (run pytest with
-s to see the lines for passing tests too). Timed criteria assert their
stated wall-clock budgets.

Criterion 8 samples tuples with the fixed seed SAMPLING_SEED so the run
is reproducible; the seed value is part of the contract and documented
in the README.
"""

import functools
import io
import json
import random
import time
from contextlib import redirect_stdout
from itertools import product

from sdprod.arith import admissible_s_values, derive_pair, sqrt1_units
from sdprod.cli import crosscheck_order, main
from sdprod.congruence import (
    CoreSpec,
    TupleA,
    TupleB,
    check_a,
    check_b,
    enumerate_a,
    enumerate_b,
    parity_audit,
)
from sdprod.pcgroup import (
    build_table,
    check_consistency,
    core_of,
    is_normal,
    pc_from_tuple_a,
    pc_from_tuple_b,
    subgroup_closure,
    verify_associativity_exhaustive,
)
from oracles import generators

SAMPLING_SEED = 20260821

PAIR44 = derive_pair(4, 4)
WITNESS = TupleA(0, 2, 0, 0)


def criterion(num):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                detail = fn()
            except BaseException as exc:
                print(f"[criterion {num}] FAIL: {exc!r}")
                raise
            print(f"[criterion {num}] PASS: {detail}")

        return run

    return wrap


@criterion(1)
def test_criterion_1_enumeration_count():
    """CLI enumeration at (4,4): 144 tuples, fixed s-histogram, < 1 s."""
    t0 = time.perf_counter()
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["enumerate-a", "--n", "4", "--m", "4", "--format", "json"])
    elapsed = time.perf_counter() - t0
    assert code == 0
    doc = json.loads(buf.getvalue())
    assert doc["count"] == 144
    assert len(doc["tuples"]) == 144
    assert doc["histograms"]["s"] == {"0": 24, "2": 48, "4": 24, "6": 48}
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    return f"144 tuples, s-histogram 24/48/24/48, {elapsed:.2f}s"


@criterion(2)
def test_criterion_2_witness_pipeline():
    """Tuple (0,2,0,0): checker, consistency, and structure, < 5 s."""
    t0 = time.perf_counter()
    assert check_a(PAIR44, WITNESS).valid
    pc = pc_from_tuple_a(PAIR44, WITNESS)
    report = check_consistency(pc)
    assert len(report.entries) == 16
    assert report.overall
    g = build_table(pc)
    gen = generators(g)
    assert g.order == 256
    h = subgroup_closure(g, (gen.x, gen.y))
    k = subgroup_closure(g, (gen.z, gen.w))
    assert len(h) == 16 and len(k) == 16
    assert len(set(h) & set(k)) == 1
    assert is_normal(g, subgroup_closure(g, (gen.x,)))
    assert is_normal(g, subgroup_closure(g, (gen.z,)))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    return f"valid, 16/16 identities, order 256, |H|=|K|=16, meet 1, {elapsed:.2f}s"


@criterion(3)
def test_criterion_3_flagship_preset():
    """tc --preset example-6-5 reproduces the twisted 256-element group, < 10 s."""
    t0 = time.perf_counter()
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["tc", "--preset", "example-6-5", "--format", "json"])
    elapsed = time.perf_counter() - t0
    assert code == 0
    doc = json.loads(buf.getvalue())
    assert doc["order"] == 256
    assert doc["generator_orders"] == {"x": 8, "y": 2, "z": 8, "w": 2}
    assert doc["h_order"] == 16 and doc["h_semidihedral"] is True
    assert doc["k_order"] == 16 and doc["k_semidihedral"] is True
    assert doc["intersection_order"] == 1
    assert doc["xz_commutator"] == [2, 2]
    assert doc["core_x_order"] == 4 and doc["core_z_order"] == 4
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    return f"order 256, orders (8,2,8,2), [x,z]=x^2 z^2, cores 4/4, {elapsed:.2f}s"


@criterion(4)
def test_criterion_4_checker_consistency_equivalence():
    """check_a agrees with the collection-based consistency check on the
    full tuple space at (4,4) and (5,5), < 60 s."""
    t0 = time.perf_counter()
    checked = 0
    for n, m in ((4, 4), (5, 5)):
        pair = derive_pair(n, m)
        for fields in product(
            range(pair.M), range(pair.N), range(pair.N), range(pair.M)
        ):
            t4 = TupleA(fields[0], fields[1], fields[2], fields[3])
            want = check_a(pair, t4).valid
            got = check_consistency(pc_from_tuple_a(pair, t4)).overall
            assert got == want, (n, m, t4)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 4096 + 65536
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    return f"{checked} tuples agree at (4,4) and (5,5), {elapsed:.2f}s"


@criterion(5)
def test_criterion_5_reduction_property():
    """Trivial-core six-field tuples project onto the four-field family."""
    six = enumerate_b(PAIR44, CoreSpec(1, 1))
    four = enumerate_a(PAIR44)
    assert [(t.a, t.s, t.t, t.c) for t in six] == [tuple(t) for t in four]
    assert all(t.r == 0 and t.b == 0 for t in six)
    return f"{len(six)} tuples project element-for-element onto the four-field list"


@criterion(6)
def test_criterion_6_core_selection():
    """Requested core orders are realized by every built group, and the
    enumeration counts match an independent brute-force filter."""
    details = []
    for cores in (CoreSpec(2, 2), CoreSpec(2, 1)):
        tuples = enumerate_b(PAIR44, cores)
        brute = sum(
            check_b(PAIR44, cores, TupleB(*fields)).valid
            for fields in product(range(8), repeat=6)
        )
        assert len(tuples) == brute, cores
        want_x = PAIR44.N // cores.n1
        want_z = PAIR44.M // cores.m1
        for t6 in tuples:
            g = build_table(pc_from_tuple_b(PAIR44, t6))
            gen = generators(g)
            cx = core_of(g, subgroup_closure(g, (gen.x,)))
            cz = core_of(g, subgroup_closure(g, (gen.z,)))
            assert len(cx) == want_x, (cores, t6)
            assert len(cz) == want_z, (cores, t6)
        details.append(f"cores {tuple(cores)}: {len(tuples)} tuples, |core| {want_x}/{want_z}")
    return "; ".join(details)


@criterion(7)
def test_criterion_7_exhaustive_associativity():
    """Full cubic scan over both 256-element reference groups, < 30 s each."""
    details = []
    for t4 in (WITNESS, TupleA(0, 0, 0, 0)):
        g = build_table(pc_from_tuple_a(PAIR44, t4))
        t0 = time.perf_counter()
        assert verify_associativity_exhaustive(g)
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"tuple {t4}: took {elapsed:.2f}s"
        details.append(f"{tuple(t4)} in {elapsed:.2f}s")
    return "16.7M triples each: " + ", ".join(details)


@criterion(8)
def test_criterion_8_oracle_agreement():
    """Collection and coset enumeration agree on sampled valid tuples
    (20 at rank (4,4), 10 at (4,5)); sampling seed SAMPLING_SEED."""
    rng = random.Random(SAMPLING_SEED)
    checked = 0
    for n, m, k in ((4, 4, 20), (4, 5, 10)):
        pair = derive_pair(n, m)
        for t4 in rng.sample(enumerate_a(pair), k):
            collected, enumerated = crosscheck_order(pair, t4.to_tuple_b())
            assert collected == enumerated, (n, m, t4)
            checked += 1
    assert checked == 30
    return f"30 sampled tuples agree (seed {SAMPLING_SEED})"


@criterion(9)
def test_criterion_9_square_roots_of_unity():
    """Square roots of unity match brute force for n = 4..12, < 1 s."""
    t0 = time.perf_counter()
    for n in range(4, 13):
        modulus = 1 << (n - 1)
        brute = {u for u in range(modulus) if u % 2 and u * u % modulus == 1}
        assert sqrt1_units(modulus) == brute
        assert all(s % 2 == 0 for s in admissible_s_values(modulus))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    return f"n = 4..12 match brute force, all offsets even, {elapsed:.2f}s"


@criterion(10)
def test_criterion_10_parity():
    """Every field of every valid four-field tuple is even at the three
    reference ranks."""
    for n, m in ((4, 4), (4, 5), (5, 5)):
        pair = derive_pair(n, m)
        assert parity_audit(pair, enumerate_a(pair)), (n, m)
    return "all fields even at (4,4), (4,5), (5,5)"
