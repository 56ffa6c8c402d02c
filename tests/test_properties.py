"""Property tests over random ranks in [4, 7], random tuples and core specs.

The hand-picked grids elsewhere stop at ranks (5, 5); these properties
reach (7, 7).  Uniform tuples are almost never valid, so each field is
drawn either uniformly or from a biased pool (multiples of powers of two,
and for a and s the residues whose successor is a square root of unity),
and half the core specs are the ones the tuple's r and b select (capped
at the largest valid spec).  That makes valid tuples common enough for
both sides of each equivalence to be exercised.

The core properties build whole groups, so they draw valid tuples from
the complete listings at ranks (4, 4), (4, 5) and (5, 4) (orders 256 and
512), where a brute-force core over every element stays cheap; the
twisted one adds a random [x,z] = x^e1 z^e2.

The closed-form solver is compared with a brute-force filter at random
ranks and core specs, and the streamed listings with a copy of the
whole-document formatter that the CLI used before.
"""

import contextlib
import csv
import io
import json
from functools import lru_cache
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from sdprod.arith import additive_order, admissible_s_values, derive_pair
from sdprod.cli import main
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
)
from sdprod.errors import CapacityError
from sdprod.fpcoset import coset_enumerate, fp_from_extended, parse_relator_lines, structure_report
from sdprod.pcgroup import (
    build_table,
    check_consistency,
    core_of,
    is_normal,
    pc_from_tuple_b,
    subgroup_closure,
)
from test_congruence import all_core_specs, brute_enumerate_b

RANKS = st.integers(4, 7)
PROPERTY_SETTINGS = settings(max_examples=300, deadline=None)
GROUP_SETTINGS = settings(max_examples=40, deadline=None)
TWISTED_SETTINGS = settings(max_examples=200, deadline=None)
SMALL_PAIRS = st.sampled_from([(4, 4), (4, 5), (5, 4)]).map(lambda nm: derive_pair(*nm))
# Twisted presentations at these ranks that close enumerate to at most 512
# cosets; about one draw in fifty runs past this cap and is skipped.
TWISTED_MAX_COSETS = 20_000


def residue(modulus: int, special=()):
    multiples = st.builds(
        lambda k, j: (modulus >> k) * j % modulus,
        st.integers(0, modulus.bit_length() - 1),
        st.integers(0, 7),
    )
    pools = [st.integers(0, modulus - 1), multiples]
    if special:
        pools.append(st.sampled_from(sorted(special)))
    return st.one_of(pools)


@st.composite
def tuples_a(draw):
    pair = derive_pair(draw(RANKS), draw(RANKS))
    N, M = pair.N, pair.M
    t = TupleA(
        draw(residue(M, admissible_s_values(M))),
        draw(residue(N, admissible_s_values(N))),
        draw(residue(N)),
        draw(residue(M)),
    )
    return pair, t


@st.composite
def tuples_b(draw):
    pair, t4 = draw(tuples_a())
    r, b = draw(residue(pair.N)), draw(residue(pair.M))
    return pair, TupleB(r, t4.a, t4.s, b, t4.t, t4.c)


@st.composite
def cored_tuples_b(draw):
    pair, t = draw(tuples_b())
    own = CoreSpec(
        min(additive_order(t.b, pair.M), pair.N), min(additive_order(t.r, pair.N), pair.M)
    )
    other = st.builds(
        CoreSpec,
        st.integers(0, pair.n - 1).map(lambda k: 1 << k),
        st.integers(0, pair.m - 1).map(lambda k: 1 << k),
    )
    return pair, draw(st.one_of(st.just(own), other)), t


@st.composite
def core_specs(draw):
    pair = derive_pair(draw(RANKS), draw(RANKS))
    n1 = 1 << draw(st.integers(0, pair.n - 1))
    m1 = 1 << draw(st.integers(0, pair.m - 1))
    return pair, CoreSpec(n1, m1)


@lru_cache(maxsize=None)
def listing_a(pair):
    return frozenset(enumerate_a(pair))


@lru_cache(maxsize=None)
def listing_b(pair, cores):
    return frozenset(enumerate_b(pair, cores, allow_large=True))


@PROPERTY_SETTINGS
@given(tuples_a())
def test_enumerate_a_is_filter_of_check_a(case):
    pair, t = case
    assert (t in listing_a(pair)) == check_a(pair, t).valid


@PROPERTY_SETTINGS
@given(cored_tuples_b())
def test_enumerate_b_is_filter_of_check_b(case):
    pair, cores, t = case
    assert (t in listing_b(pair, cores)) == check_b(pair, cores, t).valid


@PROPERTY_SETTINGS
@given(tuples_b())
def test_check_b_congruences_equals_consistency(case):
    pair, t = case
    want = check_b_congruences(pair, t).valid
    assert check_consistency(pc_from_tuple_b(pair, t)).overall == want


@lru_cache(maxsize=None)
def buildable_b(pair):
    """Every six-field tuple that passes D1..D12 and the order conditions
    at its own cores, the tuples `build` accepts."""
    return tuple(
        t
        for i in range(pair.n)
        for j in range(pair.m)
        for t in enumerate_b(pair, CoreSpec(1 << i, 1 << j), allow_large=True)
    )


@st.composite
def valid_small_tuples_b(draw):
    pair = draw(SMALL_PAIRS)
    listing = buildable_b(pair)
    return pair, listing[draw(st.integers(0, len(listing) - 1))]


def brute_force_core(prod, h):
    """Intersection of the conjugates t^-1 h t over every element t of the
    group whose full table is prod."""
    core = set(h.elements)
    for t in range(len(prod)):
        row_ti = prod[prod[t].index(0)]
        core &= {prod[row_ti[e]][t] for e in h.elements}
    return tuple(sorted(core))


def brute_force_cyclic_core(table, col):
    """Order of the intersection of the conjugates t^-1 <g> t over every
    element t of the group, where g is the generator of column col.

    Each element is the coset it sends coset 0 to, and acts on the cosets
    by its full permutation, built here breadth first from the generators.
    """
    rows = table.rows
    perms = {0: list(range(table.count))}
    queue = [0]
    for cur in queue:
        for gen_col in range(0, len(rows[0]), 2):
            nxt = rows[cur][gen_col]
            if nxt not in perms:
                perms[nxt] = [rows[v][gen_col] for v in perms[cur]]
                queue.append(nxt)
    powers = [0]
    while rows[powers[-1]][col] != 0:
        powers.append(rows[powers[-1]][col])
    core = set(powers)
    for t, perm_t in perms.items():
        t_inverse = perm_t.index(0)
        core &= {perm_t[perms[h][t_inverse]] for h in powers}
    return len(core)


def relator_lines(fp):
    """The relators in the relator file format, a run of one letter as x^k or X^k."""
    lines = []
    for rel in fp.relators:
        tokens = []
        for letter, run in groupby(rel):
            name = fp.names[abs(letter) - 1]
            k = len(list(run))
            tokens.append((name.upper() if letter < 0 else name) + (f"^{k}" if k > 1 else ""))
        lines.append(" ".join(tokens))
    return lines


@GROUP_SETTINGS
@given(valid_small_tuples_b(), st.lists(st.integers(0, 1 << 16), min_size=3, max_size=3))
def test_core_and_normality_match_brute_force(case, picks):
    pair, t = case
    g = build_table(pc_from_tuple_b(pair, t))
    prod = [g.row(e) for e in range(g.order)]
    one, a, b = (p % g.order for p in picks)
    for gens in ((), (g.gen_x,), (g.gen_z,), (g.gen_w,), (g.gen_y,), (one,), (a, b)):
        h = subgroup_closure(g, gens)
        want = brute_force_core(prod, h)
        assert core_of(g, h).elements == want, gens
        assert is_normal(g, h) == (want == h.elements), gens


@GROUP_SETTINGS
@given(valid_small_tuples_b())
def test_enumerated_cores_match_collected_cores(case):
    pair, t = case
    g = build_table(pc_from_tuple_b(pair, t))
    fp = fp_from_extended(pair, t, 0, 0)
    rep = structure_report(coset_enumerate(fp), fp)
    assert rep.order == g.order
    assert rep.core_x_order == core_of(g, subgroup_closure(g, (g.gen_x,))).order
    assert rep.core_z_order == core_of(g, subgroup_closure(g, (g.gen_z,))).order


@TWISTED_SETTINGS
@given(valid_small_tuples_b(), st.integers(0, 1 << 16), st.integers(0, 1 << 16))
def test_twisted_cores_match_brute_force(case, e1, e2):
    pair, t = case
    fp = fp_from_extended(pair, t, e1, e2)
    try:
        table = coset_enumerate(fp, TWISTED_MAX_COSETS)
    except CapacityError:
        reject()
    rep = structure_report(table, fp)
    x_col, z_col = 2 * fp.names.index("x"), 2 * fp.names.index("z")
    assert rep.core_x_order == brute_force_cyclic_core(table, x_col)
    assert rep.core_z_order == brute_force_cyclic_core(table, z_col)


@PROPERTY_SETTINGS
@given(tuples_b(), st.integers(-100, 100), st.integers(-100, 100))
def test_relator_file_round_trip(case, e1, e2):
    pair, t = case
    fp = fp_from_extended(pair, t, e1, e2)
    assert parse_relator_lines(relator_lines(fp)) == fp


def test_tc_untwisted_order_4096(tmp_path, capsys):
    fp = fp_from_extended(derive_pair(6, 6), TupleB(0, 0, 0, 0, 0, 0), 0, 0)
    path = tmp_path / "relators.txt"
    path.write_text("\n".join(relator_lines(fp)) + "\n")
    assert main(["tc", "--relators", str(path)]) == 0
    out = capsys.readouterr().out
    assert "cosets: 4096" in out
    assert "|<x,y>| = 64 (semidihedral: yes)" in out
    assert "|<z,w>| = 64 (semidihedral: yes)" in out
    assert "intersection: 1" in out
    assert "core of <x>: 32  core of <z>: 32" in out


def staged_brute_enumerate_b(pair, cores):
    """The filter of brute_enumerate_b (tests/test_congruence.py), in
    stages so that ranks up to 7 fit in memory.

    Each axis is first cut to the residues that pass its one-variable
    condition (ORD-R, D2, D3, ORD-B), tested over the whole ring.  The grid
    of the remaining (r, a, s, b) goes through D1 and D4..D8, and the full
    (t, c) grid of every prefix left through D9..D12.
    """
    N, M, alpha, beta = pair.N, pair.M, pair.alpha, pair.beta
    axes = (
        [r for r in range(N) if additive_order(r, N) == cores.m1],
        [a for a in range(M) if (1 + a) * (1 + a) % M == 1],
        [s for s in range(N) if (1 + s) * (1 + s) % N == 1],
        [b for b in range(M) if additive_order(b, M) == cores.n1],
    )
    grid = np.meshgrid(*(np.array(x, dtype=np.int64) for x in axes), indexing="ij")
    r, a, s, b = (g.ravel() for g in grid)
    ok = (r * (alpha + 1 + a)) % N == 0
    ok &= (b * (1 + s + beta)) % M == 0
    ok &= (r * (beta - 1 - s)) % N == 0
    ok &= (b * r) % M == 0
    ok &= (b * (alpha - 1 - a)) % M == 0
    ok &= (r * b) % N == 0
    prefixes = np.stack([r[ok], a[ok], s[ok], b[ok]], axis=1)
    r, a, s, b = (prefixes[:, i].reshape(-1, 1, 1) for i in range(4))
    t = np.arange(N, dtype=np.int64).reshape(1, N, 1)
    c = np.arange(M, dtype=np.int64).reshape(1, 1, M)
    ok = (t * (2 + s)) % N == 0
    ok = ok & ((c * (1 + beta) + t * b) % M == 0)
    ok = ok & ((t * (1 + alpha) + c * r) % N == 0)
    ok = ok & ((c * (2 + a)) % M == 0)
    # argwhere walks (prefix, t, c) in row-major order: lexicographic
    return [TupleB(*map(int, prefixes[i]), int(tt), int(cc)) for i, tt, cc in np.argwhere(ok)]


@pytest.mark.parametrize("n,m", [(4, 4), (4, 5), (5, 4)])
def test_staged_oracle_equals_full_grid_oracle(n, m):
    pair = derive_pair(n, m)
    for cores in all_core_specs(pair):
        assert staged_brute_enumerate_b(pair, cores) == brute_enumerate_b(pair, cores), cores


@PROPERTY_SETTINGS
@given(core_specs())
def test_solver_groups_match_brute_force(case):
    pair, cores = case
    solution = solve_b(pair, cores, allow_large=True)
    flat = [TupleB(*prefix, c) for prefix, cs in solution.groups() for c in cs]
    assert flat == staged_brute_enumerate_b(pair, cores)
    assert solution.count == len(flat)


def reference_listing(args, tuples, fields):
    """The listing as the whole-document formatter wrote it: csv.writer,
    json.dumps(indent=2), and lines joined once."""
    histograms = {}
    for i, name in enumerate(fields):
        counts = {}
        for t in tuples:
            counts[t[i]] = counts.get(t[i], 0) + 1
        histograms[name] = dict(sorted(counts.items()))
    all_even = parity_audit(derive_pair(args["n"], args["m"]), tuples)
    if args["format"] == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(fields)
        writer.writerows(tuples)
        return buf.getvalue()
    if args["format"] == "json":
        doc = {
            "n": args["n"],
            "m": args["m"],
            "count": len(tuples),
            "fields": list(fields),
            "tuples": [list(t) for t in tuples],
            "histograms": {k: {str(v): c for v, c in h.items()} for k, h in histograms.items()},
            "all_fields_even": all_even,
        }
        if "n1" in args:
            doc["n1"], doc["m1"] = args["n1"], args["m1"]
        return json.dumps(doc, indent=2) + "\n"
    lines = [",".join(str(v) for v in t) for t in tuples]
    lines.append(f"count: {len(tuples)}")
    for name in fields:
        hist = " ".join(f"{v}={c}" for v, c in histograms[name].items())
        lines.append(f"histogram {name}: {hist or '(empty)'}")
    lines.append(f"parity: {'all fields even' if all_even else 'ODD FIELD PRESENT'}")
    return "\n".join(lines) + "\n"


def listing_stdout(pair, cores, fmt):
    """stdout of the CLI listing and of the reference formatter:
    enumerate-a when cores is None, else enumerate-b."""
    args = {"n": pair.n, "m": pair.m, "format": fmt}
    argv = ["--n", str(pair.n), "--m", str(pair.m), "--format", fmt]
    if cores is None:
        argv = ["enumerate-a"] + argv
        want = reference_listing(args, enumerate_a(pair), TupleA._fields)
    else:
        args["n1"], args["m1"] = cores
        argv = ["enumerate-b", "--n1", str(cores.n1), "--m1", str(cores.m1), "--allow-large"] + argv
        want = reference_listing(args, enumerate_b(pair, cores, allow_large=True), TupleB._fields)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue(), want


@PROPERTY_SETTINGS
@given(core_specs(), st.booleans(), st.sampled_from(["text", "json", "csv"]))
def test_listing_matches_reference_formatter(case, four_field, fmt):
    pair, cores = case
    got, want = listing_stdout(pair, None if four_field else cores, fmt)
    assert got == want


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_empty_listing_matches_reference_formatter(fmt):
    # no r and b of additive order 8 at (4, 4) have r*b = 0
    got, want = listing_stdout(derive_pair(4, 4), CoreSpec(8, 8), fmt)
    assert got == want
    if fmt == "json":
        assert '\n  "count": 0,\n' in got
        assert '\n  "tuples": [],\n' in got
