"""Unit tests for the congruence checkers and enumerators.

Expected counts and first tuples below were frozen from an independent
brute-force pass over the full parameter grid (see brute_enumerate_b):
the library enumerator must reproduce them exactly.
"""

import math
import time
from itertools import product

import numpy as np
import pytest

from sdprod.arith import additive_order, admissible_s_values, derive_pair
from sdprod.congruence import (
    CoreSpec,
    TupleA,
    TupleB,
    check_a,
    check_b,
    check_b_congruences,
    enumerate_a,
    enumerate_b,
    parity_audit,
    solve_b,
    validate_cores,
)
from sdprod.cli import LARGE_SCAN_GATE
from sdprod.errors import DomainError


def brute_enumerate_a(pair):
    """Filter the full (a, s, t, c) grid through check_a."""
    out = []
    for a in range(pair.M):
        for s in range(pair.N):
            for t in range(pair.N):
                for c in range(pair.M):
                    t4 = TupleA(a, s, t, c)
                    if check_a(pair, t4).valid:
                        out.append(t4)
    return out


def brute_enumerate_b(pair, cores):
    """Filter the full (r, a, s, b, t, c) grid through check_b.

    Vectorized with numpy so the 16.7M-point grid at n = m = 5 stays fast.
    """
    N, M, alpha, beta = pair.N, pair.M, pair.alpha, pair.beta
    shape = [1] * 6

    def axis(i, modulus):
        s = shape.copy()
        s[i] = modulus
        return np.arange(modulus, dtype=np.int64).reshape(s)

    r = axis(0, N)
    a = axis(1, M)
    s = axis(2, N)
    b = axis(3, M)
    t = axis(4, N)
    c = axis(5, M)

    ok = (r * (alpha + 1 + a)) % N == 0
    ok = ok & (((1 + a) * (1 + a)) % M == 1)
    ok = ok & (((1 + s) * (1 + s)) % N == 1)
    ok = ok & ((b * (1 + s + beta)) % M == 0)
    ok = ok & ((r * (beta - 1 - s)) % N == 0)
    ok = ok & ((b * r) % M == 0)
    ok = ok & ((b * (alpha - 1 - a)) % M == 0)
    ok = ok & ((r * b) % N == 0)
    ok = ok & ((t * (2 + s)) % N == 0)
    ok = ok & ((c * (1 + beta) + t * b) % M == 0)
    ok = ok & ((t * (1 + alpha) + c * r) % N == 0)
    ok = ok & ((c * (2 + a)) % M == 0)

    ord_r = np.array([additive_order(v, N) for v in range(N)])
    ord_b = np.array([additive_order(v, M) for v in range(M)])
    ok = ok & (ord_r.reshape(axis(0, N).shape) == cores.m1)
    ok = ok & (ord_b.reshape(axis(3, M).shape) == cores.n1)

    # np.argwhere walks the grid in row-major order, matching the
    # lexicographic order the enumerator promises.
    return [TupleB(*map(int, row)) for row in np.argwhere(ok)]


def all_core_specs(pair):
    divisors_n = [1 << k for k in range(pair.n)]
    divisors_m = [1 << k for k in range(pair.m)]
    return [
        CoreSpec(n1, m1)
        for n1 in divisors_n
        if pair.N % n1 == 0
        for m1 in divisors_m
        if pair.M % m1 == 0
    ]


def coset(u, v, modulus):
    """The integers x with u*x = v modulo a power of two, as (x0, step)
    with 0 <= x0 < step, or None when there are none.

    With g = gcd(u, modulus) there are solutions iff g divides v, and then
    x = (v/g) * (u/g)^-1 modulo modulus/g, a power of two.
    """
    g = math.gcd(u, modulus)
    if v % g:
        return None
    step = modulus // g
    return v // g * pow(u // g, -1, step) % step, step


def meet(*cosets):
    """Intersection of cosets x0 + step*Z whose steps are powers of two:
    the coset of the largest step if it lies in all the others, else
    None."""
    if None in cosets:
        return None
    x0, step = max(cosets, key=lambda coset: coset[1])
    if any((x0 - x) % s for x, s in cosets):
        return None
    return x0, step


def c_coset(pair, r, a, b, t):
    """The c that satisfy D10, D11 and D12 once r, a, b and t are fixed."""
    return meet(
        coset(1 + pair.beta, -t * b, pair.M),
        coset(r, -t * (1 + pair.alpha), pair.N),
        coset(2 + a, 0, pair.M),
    )


def searched_heads(pair, cores):
    """solve_b's heads found by search, as the solver found them before
    its steps had a closed form.  At the smallest r and b, each (a, s)
    that D2 and D3 admit is decided by check_b_congruences; t_step is the
    first power of two t below N with t*(2 + s) = 0 mod N and a nonempty
    c_coset, else N, c_unit is the least c of c_coset at t_step (0 at N),
    and c_step is c_coset's step at t = 0."""
    N, M = pair.N, pair.M
    if cores.m1 > N or cores.n1 > M:
        return ()
    # the smallest r of additive order m1 modulo N, and b of order n1
    r, b = N // cores.m1 % N, M // cores.n1 % M
    heads = []
    for a in sorted(admissible_s_values(M)):
        for s in sorted(admissible_s_values(N)):
            if not check_b_congruences(pair, TupleB(r, a, s, b, 0, 0)).valid:
                continue
            t_step = next(
                (
                    t
                    for t in (1 << j for j in range(pair.n - 1))
                    if t * (2 + s) % N == 0 and c_coset(pair, r, a, b, t)
                ),
                N,
            )
            c_unit = c_coset(pair, r, a, b, t_step)[0] if t_step < N else 0
            heads.append((a, s, t_step, c_unit, c_coset(pair, r, a, b, 0)[1]))
    return tuple(heads)


def searched_blocks(pair, keys):
    """SolutionSet.blocks() entries for the given (r, head, b), each with
    c_unit found by c_coset at its own r, b and t_step, not read off the
    head."""
    for r, (a, s, t_step, _, c_step), b in keys:
        c_unit = c_coset(pair, r, a, b, t_step)[0] if t_step < pair.N else 0
        yield r, a, s, b, t_step, c_unit, c_step


PAIR44 = derive_pair(4, 4)


def test_check_a_worked_example():
    verdict = check_a(PAIR44, TupleA(0, 2, 0, 0))
    assert verdict.valid
    assert verdict.failures == ()


def test_check_a_zero_tuple():
    assert check_a(PAIR44, TupleA(0, 0, 0, 0)).valid


def test_check_a_single_failure():
    verdict = check_a(PAIR44, TupleA(1, 0, 0, 0))
    assert not verdict.valid
    assert verdict.failed_conditions() == ("C1",)
    assert verdict.failures[0].residual == 3


def test_check_a_reduces_inputs():
    big = TupleA(8, 10, 16, 8)
    assert check_a(PAIR44, big).valid == check_a(PAIR44, TupleA(0, 2, 0, 0)).valid
    assert big.reduced(PAIR44) == TupleA(0, 2, 0, 0)


def test_check_b_worked_examples():
    assert check_b(PAIR44, CoreSpec(2, 2), TupleB(4, 0, 0, 4, 0, 0)).valid
    verdict = check_b(PAIR44, CoreSpec(1, 1), TupleB(4, 0, 0, 0, 0, 0))
    assert not verdict.valid
    assert "ORD-R" in verdict.failed_conditions()
    assert check_b(PAIR44, CoreSpec(1, 1), TupleB(0, 0, 0, 0, 0, 0)).valid


def test_check_b_order_residual_is_actual_order():
    verdict = check_b(PAIR44, CoreSpec(1, 1), TupleB(4, 0, 0, 0, 0, 0))
    fails = {f.condition: f.residual for f in verdict.failures}
    assert fails["ORD-R"] == 2


def test_validate_cores():
    validate_cores(PAIR44, CoreSpec(2, 8))
    with pytest.raises(DomainError):
        validate_cores(PAIR44, CoreSpec(3, 1))
    with pytest.raises(DomainError):
        validate_cores(PAIR44, CoreSpec(16, 1))
    with pytest.raises(DomainError):
        validate_cores(PAIR44, CoreSpec(0, 1))


@pytest.mark.parametrize("n,m", [(4, 4), (4, 5), (5, 4), (5, 5)])
def test_enumerate_a_matches_brute_force(n, m):
    pair = derive_pair(n, m)
    got = enumerate_a(pair)
    assert got == brute_enumerate_a(pair)


def test_enumerate_a_count_and_histogram():
    tuples = enumerate_a(PAIR44)
    assert len(tuples) == 144
    hist = {}
    for t4 in tuples:
        hist[t4.s] = hist.get(t4.s, 0) + 1
    assert hist == {0: 24, 2: 48, 4: 24, 6: 48}


def test_enumerate_a_order_and_membership():
    tuples = enumerate_a(PAIR44)
    assert tuples == sorted(tuples)
    s_ok = admissible_s_values(PAIR44.N)
    a_ok = admissible_s_values(PAIR44.M)
    for t4 in tuples:
        assert t4.s in s_ok
        assert t4.a in a_ok


def test_enumerate_a_rank_symmetry():
    left = enumerate_a(derive_pair(4, 5))
    right = enumerate_a(derive_pair(5, 4))
    swapped = sorted(TupleA(t.s, t.a, t.c, t.t) for t in right)
    assert sorted(left) == swapped


@pytest.mark.parametrize("n,m", [(4, 4), (4, 5), (5, 4), (5, 5)])
def test_enumerate_b_matches_brute_force_all_cores(n, m):
    pair = derive_pair(n, m)
    for cores in all_core_specs(pair):
        got = enumerate_b(pair, cores)
        assert got == brute_enumerate_b(pair, cores), (n, m, cores)


def test_enumerate_b_frozen_fixtures():
    cases = {
        CoreSpec(2, 2): (160, TupleB(4, 0, 0, 4, 0, 0)),
        CoreSpec(2, 1): (144, TupleB(0, 0, 0, 4, 0, 0)),
        CoreSpec(1, 1): (144, TupleB(0, 0, 0, 0, 0, 0)),
        CoreSpec(1, 2): (144, TupleB(4, 0, 0, 0, 0, 0)),
    }
    for cores, (count, first) in cases.items():
        tuples = enumerate_b(PAIR44, cores)
        assert len(tuples) == count, cores
        assert tuples[0] == first, cores


@pytest.mark.parametrize("n,m", [(4, 4), (5, 5)])
def test_enumerate_b_trivial_cores_embed_enumerate_a(n, m):
    pair = derive_pair(n, m)
    embedded = [t4.to_tuple_b() for t4 in enumerate_a(pair)]
    assert enumerate_b(pair, CoreSpec(1, 1)) == embedded


def brute_count_a(pair):
    """Number of valid four-field tuples: C1..C6 bind t and c separately,
    so the count is a sum over (a, s) of the t in range(N) times the c in
    range(M) that pass."""
    N, M = pair.N, pair.M
    total = 0
    for a in admissible_s_values(M):
        for s in admissible_s_values(N):
            ts = sum(1 for t in range(N) if t * (2 + s) % N == 0 and t * (1 + pair.alpha) % N == 0)
            cs = sum(1 for c in range(M) if c * (1 + pair.beta) % M == 0 and c * (2 + a) % M == 0)
            total += ts * cs
    return total


def test_solve_b_counts_past_the_listing_gate():
    # cores (1, 1) list the four-field tuples; at (13, 13) there are just
    # more of them than the CLI's listing gate allows, and the solver,
    # which has no gate, counts them in closed form
    pair = derive_pair(13, 13)
    assert brute_count_a(pair) == 16_810_000
    start = time.perf_counter()
    assert solve_b(pair, CoreSpec(1, 1)).count == 16_810_000 > LARGE_SCAN_GATE
    assert time.perf_counter() - start < 1.0
    # the six-field listing of cores (1, 1) is the four-field one embedded
    pair = derive_pair(5, 6)
    embedded = [t4.to_tuple_b() for t4 in enumerate_a(pair)]
    assert enumerate_b(pair, CoreSpec(1, 1)) == embedded


def test_check_b_congruences_ignores_orders():
    verdict = check_b_congruences(PAIR44, TupleB(4, 0, 0, 0, 0, 0))
    assert verdict.valid
    assert all(not f.condition.startswith("ORD") for f in verdict.failures)


@pytest.mark.parametrize("n,m", [(4, 4), (4, 5), (5, 5)])
def test_parity_audit_on_four_field_tuples(n, m):
    pair = derive_pair(n, m)
    assert parity_audit(pair, enumerate_a(pair))


def test_parity_audit_detects_odd_fields():
    assert not parity_audit(PAIR44, [TupleA(0, 2, 1, 0)])
    # Six-field tuples may carry odd t and c when the x-by-y twist and
    # the order conditions cancel; the evenness guarantee is specific to
    # the four-field family.
    assert parity_audit(PAIR44, enumerate_b(PAIR44, CoreSpec(1, 1)))
    assert not parity_audit(PAIR44, enumerate_b(PAIR44, CoreSpec(2, 2)))


def test_tuple_conversions():
    t4 = TupleA(0, 2, 0, 4)
    assert t4.to_tuple_b() == TupleB(0, 0, 2, 0, 0, 4)
    t6 = TupleB(12, 9, 10, 8, 17, 8)
    assert t6.reduced(PAIR44) == TupleB(4, 1, 2, 0, 1, 0)


def test_four_field_count_at_every_rank_pair():
    # measured at ranks 4..20, not a statement of the paper: 144 at (4, 4)
    for n in range(4, 21):
        for m in range(4, 21):
            pair = derive_pair(n, m)
            count = solve_b(pair, CoreSpec(1, 1)).count
            assert count == (pair.N + 4) * (pair.M + 4), (n, m)


def test_counts_per_core_spec_at_44():
    # rows n1 = 1, 2, 4, 8 and columns m1 = 1, 2, 4, 8
    counts = [[solve_b(PAIR44, CoreSpec(1 << i, 1 << j)).count for j in range(4)] for i in range(4)]
    assert counts == [[144, 144, 64, 16], [144, 160, 64, 0], [64, 64, 0, 0], [16, 0, 0, 0]]
    assert sum(map(sum, counts)) == 880


def test_histograms_hold_an_odd_value_of_each_field_but_a_and_s():
    # at every core spec of ranks 4..10, the fields with an odd value in
    # some histogram, read the way the listings read their parity: r, b,
    # t and c are each odd somewhere (t and c only in the same listing),
    # and a and s, residues u - 1 of units u with u^2 = 1 modulo M or N,
    # never are
    odd = set()
    for n, m in product(range(4, 11), repeat=2):
        pair = derive_pair(n, m)
        for cores in all_core_specs(pair):
            histograms = solve_b(pair, cores).histograms()
            odd.add(frozenset(name for name, h in histograms.items() if any(v % 2 for v in h)))
    assert set().union(*odd) == {"r", "b", "t", "c"}
    assert all(("t" in fields) == ("c" in fields) for fields in odd)
