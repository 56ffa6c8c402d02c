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
twisted one adds a random [x,z] = x^e1 z^e2.  On the same twisted
presentations the coset enumerator's table is compared with a copy of
the plain HLT enumerator it replaced; with the first lookahead mark
lowered, so that runs make several passes, its whole run is compared
with one whose lookahead sweeps every coset from coset 0; and, up to
ranks (5, 5), the index
of <x, y> and of <z, w> from an enumeration over each with the order of
that subgroup in the full table.  crosscheck's order, read off those two
subgroup runs, is compared with full enumeration at random ranks in
[4, 6], and at those ranks the core orders read off the presentation
with core_of over the closed subgroups.  At every rank the CLI accepts,
up to 20, where no table is built, those core orders are compared with
the core spec whose solution set the tuple came from, and exchanging the
roles of H and K, an involution on valid tuples, keeps every verdict.
The associativity check from the four generators is compared with the
cubic scan on those tables and on per-element copies of them with random
prefixes swapped, and its four columns, read off the maps, with the
products.  On valid tuples at random ranks, drawn from the closed-form
solution sets, every prefix of the table is compared with
collection, and the table file up to order 1024 with a copy of the
row-by-row writer it replaced.

The closed-form solver is compared with a brute-force filter at random
ranks and core specs, its closed-form histograms with counts over its
groups at every core spec of every rank pair in [4, 7], and the streamed
listings with a copy of the whole-document formatter that the CLI used
before, at random ranks and at the order-2^16 rank pairs of the
benchmark; at random ranks in [4, 6], each listing's --output file is
compared byte for byte with the same command's stdout.  Random sequences of
command lines, run one after another in this process through main, where
each subcommand's parser is kept, are compared one by one with the same
command line under a freshly built parser.  Command lines drawn from
each subcommand's flags, their prefixes and --flag=value forms, help,
"--", and awkward values are either declined by the direct parse or read
by it into the Namespace argparse gives.
"""

import contextlib
import csv
import io
import json
import tempfile
from dataclasses import replace
from functools import lru_cache
from itertools import groupby, islice
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from sdprod import cli, fpcoset
from sdprod.arith import additive_order, admissible_s_values, derive_pair
from sdprod.cli import _write_table, crosscheck_order, main
from sdprod.congruence import (
    CoreSpec,
    SolutionSet,
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
from sdprod.fpcoset import (
    LOOKAHEAD_FIRST,
    FpPres,
    _Enumeration,
    coset_enumerate,
    fp_from_extended,
    parse_relator_lines,
    structure_report,
)
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
from oracles import generator_columns, verify_associativity_generators
from test_cli import PARSER_CASES, VALID_ARGV, WORKLOAD_ARGV
from test_congruence import all_core_specs, brute_enumerate_b
from test_pcgroup import PrefixTable, collect_multiply, full_scan_accepts, index_nf, nf_index

RANKS = st.integers(4, 7)
# Every rank the CLI accepts; no table is built at these ranks.
ALL_RANKS = st.integers(4, 20)
PROPERTY_SETTINGS = settings(max_examples=300, deadline=None)
GROUP_SETTINGS = settings(max_examples=40, deadline=None)
TWISTED_SETTINGS = settings(max_examples=200, deadline=None)
SMALL_PAIRS = st.sampled_from([(4, 4), (4, 5), (5, 4)]).map(lambda nm: derive_pair(*nm))
PAIRS_UP_TO_5 = st.sampled_from([(4, 4), (4, 5), (5, 4), (5, 5)]).map(lambda nm: derive_pair(*nm))
LOOKAHEAD_PAIRS = st.sampled_from([(4, 4), (4, 5)]).map(lambda nm: derive_pair(*nm))
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
def tuples_a(draw, ranks=RANKS):
    pair = derive_pair(draw(ranks), draw(ranks))
    N, M = pair.N, pair.M
    t = TupleA(
        draw(residue(M, admissible_s_values(M))),
        draw(residue(N, admissible_s_values(N))),
        draw(residue(N)),
        draw(residue(M)),
    )
    return pair, t


@st.composite
def tuples_b(draw, ranks=RANKS):
    pair, t4 = draw(tuples_a(ranks))
    r, b = draw(residue(pair.N)), draw(residue(pair.M))
    return pair, TupleB(r, t4.a, t4.s, b, t4.t, t4.c)


@st.composite
def cored_tuples_b(draw, ranks=RANKS):
    pair, t = draw(tuples_b(ranks))
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
def valid_cored_tuples_b(draw, ranks=ALL_RANKS):
    """A core spec with a nonempty solution set and one of its tuples: r
    and b drawn from the set's, the tuple from the first few groups of
    that r and b.  At the ranks tried, every nonempty set had one core
    index of at most 2, so the draw favours those specs."""
    pair = derive_pair(draw(ranks), draw(ranks))
    big, small = draw(st.integers(0, min(pair.n, pair.m) - 1)), draw(st.integers(0, 1))
    i, j = (big, small) if draw(st.booleans()) else (small, big)
    cores = CoreSpec(1 << i, 1 << j)
    solution = solve_b(pair, cores, allow_large=True)
    if not solution.count:
        reject()
    r, b = draw(st.sampled_from(solution.r_values)), draw(st.sampled_from(solution.b_values))
    restricted = SolutionSet(pair, range(r, r + 1), range(b, b + 1), solution.heads)
    (r, a, s, b, t), cs = draw(st.sampled_from(list(islice(restricted.groups(), 8))))
    return pair, cores, TupleB(r, a, s, b, t, draw(st.sampled_from(cs)))


@st.composite
def core_specs(draw, ranks=RANKS):
    pair = derive_pair(draw(ranks), draw(ranks))
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


def swap_h_and_k(pair, t):
    """The tuple of G = KH at ranks (m, n), where t at ranks (n, m)
    describes G = HK: x, y trade places with z, w.  Reading w^y off
    y^w = y u, u = z^c x^t, gives w^y = w u^w, whence the last two fields."""
    r, a, s, b, tt, c = TupleB(*t).reduced(pair)
    swapped = derive_pair(pair.m, pair.n)
    return swapped, TupleB(b, s, a, r, (pair.beta * c + b * tt) % pair.M, (1 + s) * tt % pair.N)


@PROPERTY_SETTINGS
@given(st.one_of(valid_cored_tuples_b(), cored_tuples_b(ALL_RANKS)))
def test_swapping_h_and_k_keeps_the_verdict(case):
    pair, cores, t = case
    swapped, t_swapped = swap_h_and_k(pair, t)
    valid = check_b(pair, cores, t).valid
    assert check_b(swapped, CoreSpec(cores.m1, cores.n1), t_swapped).valid == valid
    if valid:
        assert swap_h_and_k(swapped, t_swapped) == (pair, TupleB(*t).reduced(pair))


def test_swapping_h_and_k_keeps_the_verdict_on_the_whole_44_grid():
    """Validity commutes with the swap on all 2^18 six-field tuples at
    (4,4).  The swap is a bijection of that grid: r, a, s and b are read
    back off the image, then t from (1+s)t and c from beta*c + bt, as
    1 + s and beta are odd.  So it suffices that the swap maps the valid
    tuples of each core spec (n1, m1) onto those of (m1, n1)."""
    pair = derive_pair(4, 4)
    specs = [CoreSpec(n1, m1) for n1 in (1, 2, 4, 8) for m1 in (1, 2, 4, 8)]
    valid = {
        cores: {TupleB(*prefix, c) for prefix, cs in solve_b(pair, cores).groups() for c in cs}
        for cores in specs
    }
    assert sum(map(len, valid.values())) == 880
    for (n1, m1), tuples in valid.items():
        assert {swap_h_and_k(pair, t)[1] for t in tuples} == valid[CoreSpec(m1, n1)]


@PROPERTY_SETTINGS
@given(valid_cored_tuples_b())
def test_core_orders_are_the_cores_solve_b_was_asked_for(case):
    pair, cores, t = case
    assert pc_from_tuple_b(pair, t).core_orders() == (pair.N // cores.n1, pair.M // cores.m1)


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
def valid_small_tuples_b(draw, pairs=SMALL_PAIRS):
    pair = draw(pairs)
    listing = buildable_b(pair)
    return pair, listing[draw(st.integers(0, len(listing) - 1))]


def brute_force_core(prod, h):
    """Intersection of the conjugates t^-1 h t over every element t of the
    group whose full table is prod."""
    core = set(h)
    for t in range(len(prod)):
        row_ti = prod[prod[t].index(0)]
        core &= {prod[row_ti[e]][t] for e in h}
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
        assert core_of(g, h) == want, gens
        assert is_normal(g, h) == (want == h), gens


@GROUP_SETTINGS
@given(valid_small_tuples_b())
def test_enumerated_cores_match_collected_cores(case):
    pair, t = case
    g = build_table(pc_from_tuple_b(pair, t))
    fp = fp_from_extended(pair, t, 0, 0)
    rep = structure_report(coset_enumerate(fp), fp)
    assert rep.order == g.order
    assert rep.core_x_order == len(core_of(g, subgroup_closure(g, (g.gen_x,))))
    assert rep.core_z_order == len(core_of(g, subgroup_closure(g, (g.gen_z,))))
    # the whole build report against the other pipeline; a factor is normal
    # iff its core is the whole of its generator's cyclic group
    out = io.StringIO()
    argv = ["build", "--n", str(pair.n), "--m", str(pair.m), "--format", "json"]
    with contextlib.redirect_stdout(out):
        assert main(argv + ["--tuple", ",".join(map(str, t))]) == 0
    doc = json.loads(out.getvalue())
    assert (doc["order"], doc["h_order"], doc["k_order"], doc["intersection_order"]) == (
        rep.order, rep.h_order, rep.k_order, rep.intersection_order
    )
    assert (doc["core_x_order"], doc["core_z_order"]) == (rep.core_x_order, rep.core_z_order)
    assert doc["x_normal"] == (rep.core_x_order == rep.gen_orders["x"])
    assert doc["z_normal"] == (rep.core_z_order == rep.gen_orders["z"])


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


class ReferenceHLT:
    """Plain HLT coset enumeration, as fpcoset ran it before its relators
    were compiled to columns, power-reduced and sorted, and before it had
    a lookahead: the reference for the enumerator's tables.  It scans the
    relators of fp as they stand, in order.  Letters are as in
    FpPres.relators."""

    def __init__(self, fp, max_cosets):
        self.fp = fp
        self.ncols = 2 * fp.ngens
        self.max_cosets = max_cosets
        self.rows = [[None] * self.ncols]
        self.parent = [0]

    @staticmethod
    def col(letter):
        return 2 * (abs(letter) - 1) + (letter < 0)

    def rep(self, k):
        parent = self.parent
        root = k
        while parent[root] != root:
            root = parent[root]
        while parent[k] != root:
            parent[k], k = root, parent[k]
        return root

    def define(self, coset, col):
        if len(self.rows) >= self.max_cosets:
            raise CapacityError(f"more than {self.max_cosets} cosets defined")
        new = len(self.rows)
        self.rows.append([None] * self.ncols)
        self.parent.append(new)
        self.rows[coset][col] = new
        self.rows[new][col ^ 1] = coset

    def merge(self, a, b, queue):
        a, b = self.rep(a), self.rep(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        self.parent[b] = a
        queue.append(b)

    def coincidence(self, a, b):
        queue = []
        self.merge(a, b, queue)
        qi = 0
        while qi < len(queue):
            dead = queue[qi]
            qi += 1
            row = self.rows[dead]
            for col in range(self.ncols):
                target = row[col]
                if target is None:
                    continue
                self.rows[target][col ^ 1] = None
                mu, nu = self.rep(dead), self.rep(target)
                if self.rows[mu][col] is not None:
                    self.merge(nu, self.rows[mu][col], queue)
                elif self.rows[nu][col ^ 1] is not None:
                    self.merge(mu, self.rows[nu][col ^ 1], queue)
                else:
                    self.rows[mu][col] = nu
                    self.rows[nu][col ^ 1] = mu

    def scan_and_fill(self, coset, word):
        rows, col = self.rows, self.col
        f, i = coset, 0
        b, j = coset, len(word)
        while True:
            while i < j and rows[f][col(word[i])] is not None:
                f = rows[f][col(word[i])]
                i += 1
            if i == j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j > i and rows[b][col(-word[j - 1])] is not None:
                b = rows[b][col(-word[j - 1])]
                j -= 1
            if j == i:
                self.coincidence(f, b)
                return
            if j == i + 1:
                rows[f][col(word[i])] = b
                rows[b][col(word[i]) ^ 1] = f
                return
            self.define(f, col(word[i]))

    def run(self):
        coset = 0
        while coset < len(self.rows):
            if self.rep(coset) != coset:
                coset += 1
                continue
            for rel in self.fp.relators:
                self.scan_and_fill(coset, rel)
                if self.rep(coset) != coset:
                    break
            if self.rep(coset) == coset:
                for col in range(self.ncols):
                    if self.rows[coset][col] is None:
                        self.define(coset, col)
            coset += 1

    def compact(self):
        order = [self.rep(0)]
        new_index = {order[0]: 0}
        for cur in order:
            for col in range(self.ncols):
                target = self.rep(self.rows[cur][col])
                if target not in new_index:
                    new_index[target] = len(order)
                    order.append(target)
        return [[new_index[self.rep(self.rows[old][col])] for col in range(self.ncols)] for old in order]


def reference_run(fp, max_cosets):
    """The reference's compacted table and the number of cosets it defined."""
    ref = ReferenceHLT(fp, max_cosets)
    ref.run()
    return ref.compact(), len(ref.rows)


@TWISTED_SETTINGS
@given(valid_small_tuples_b(), st.integers(0, 1 << 16), st.integers(0, 1 << 16))
def test_twisted_tables_match_reference_hlt(case, e1, e2):
    pair, t = case
    fp = fp_from_extended(pair, t, e1, e2)
    try:
        want, _ = reference_run(fp, TWISTED_MAX_COSETS)
        got = coset_enumerate(fp, TWISTED_MAX_COSETS)
    except CapacityError:
        reject()
    assert got.rows == want


def test_table_past_the_lookahead_mark_matches_reference_hlt():
    # plain HLT on the relators as given defines 17,897 cosets for this
    # group of order 256.  On its rewritten relators the enumerator reaches
    # the first lookahead pass at 8,192 definitions, and 5 more finish the
    # run.  A lookahead scan that defined, or that dropped a coincidence,
    # would change that count but not the table.
    fp = fp_from_extended(derive_pair(4, 5), TupleB(4, 14, 4, 4, 0, 0), 6, 8)
    want, defined = reference_run(fp, 10**6)
    assert defined == 17_897
    state = _Enumeration(fp, 10**6)
    state.run()
    assert LOOKAHEAD_FIRST == 8192
    assert len(state.rows) == 8197
    assert state.compact() == want
    assert coset_enumerate(fp).rows == want


class DistinctRoots(_Enumeration):
    """The enumerator, checking at each call of coincidence that its two
    arguments are distinct live cosets, as coincidence requires: it finds
    no representatives itself.  merges counts the calls."""

    merges = 0

    def coincidence(self, a, b):
        parent = self.parent
        assert a != b and parent[a] == a and parent[b] == b, (a, b)
        self.merges += 1
        super().coincidence(a, b)


@pytest.mark.parametrize(
    "ranks, t, e, defined, passes, order",
    [
        ((5, 5), (8, 0, 8, 0, 8, 0), (2, 14), 10_948, 1, 256),
        ((5, 5), (12, 8, 14, 0, 2, 0), (8, 10), 16_441, 2, 512),
        ((5, 5), (0, 6, 6, 8, 0, 2), (2, 12), 8_221, 1, 512),
        ((5, 5), (8, 6, 14, 0, 12, 12), (4, 12), 8_197, 1, 512),
        ((5, 5), (8, 14, 6, 8, 10, 0), (4, 4), 8_213, 1, 512),
        ((4, 5), (2, 8, 2, 0, 0, 0), (4, 14), 8_193, 1, 128),
        ((4, 5), (4, 6, 6, 8, 2, 4), (6, 10), 8_216, 1, 256),
        ((4, 5), (4, 14, 4, 4, 0, 0), (6, 8), 8_197, 1, 256),
        ((5, 4), (4, 4, 14, 0, 8, 0), (14, 2), 8_202, 1, 256),
        ((5, 5), (0, 14, 8, 8, 8, 14), (14, 2), 7_149, 0, 256),
        ((5, 5), (8, 14, 14, 8, 9, 5), (6, 8), 8_195, 1, 128),
        ((5, 5), (12, 8, 6, 0, 8, 8), (10, 14), 8_218, 1, 256),
        ((5, 5), (12, 8, 14, 0, 2, 0), (12, 12), 8_221, 1, 256),
    ],
)
def test_definitions_past_the_lookahead_mark(ranks, t, e, defined, passes, order):
    # the thirteen collapsing twisted relator files of the benchmark's
    # verify workload, in its order: a change of strategy that costs
    # definitions, or a lookahead pass that changes what HLT does next,
    # fails here; and every coincidence merges two distinct live cosets
    starts = []

    class Counted(DistinctRoots):
        def lookahead(self, start):
            starts.append(start)
            super().lookahead(start)

    state = Counted(fp_from_extended(derive_pair(*ranks), TupleB(*t), *e), 10**6)
    state.run()
    assert (len(state.rows), len(starts)) == (defined, passes)
    assert len(state.compact()) == order
    assert state.merges > 0


class FullSweepLookahead(_Enumeration):
    """The enumerator with the lookahead it had before it started at the
    HLT pointer: every relator scanned from both ends, without defining,
    at every live coset from coset 0.  passes counts its calls."""

    passes = 0

    def lookahead(self, start):
        self.passes += 1
        rows, parent = self.rows, self.parent
        for coset in range(len(rows)):
            for cols in self.relators:
                if parent[coset] != coset:
                    break
                f, i = coset, 0
                b, j = coset, len(cols)
                while i < j and rows[f][cols[i]] is not None:
                    f = rows[f][cols[i]]
                    i += 1
                if i == j:
                    if f != b:
                        self.coincidence(f, b)
                    continue
                while j > i and rows[b][cols[j - 1] ^ 1] is not None:
                    b = rows[b][cols[j - 1] ^ 1]
                    j -= 1
                if j == i:
                    self.coincidence(f, b)
                elif j == i + 1:
                    rows[f][cols[i]] = b
                    rows[b][cols[i] ^ 1] = f


def with_relator(fp, rel):
    return FpPres(fp.ngens, fp.names, fp.relators + (rel,))


@st.composite
def twisted_presentations(draw):
    pair, t = draw(valid_small_tuples_b(LOOKAHEAD_PAIRS))
    e1, e2 = divmod(draw(st.integers(1, pair.N * pair.M - 1)), pair.M)  # not both 0
    return fp_from_extended(pair, t, e1, e2)


@TWISTED_SETTINGS
# w = 1 compiles to the one-letter relator [w]; at a coset whose w and W
# images are both undefined the lookahead deduces a w-loop there, and a
# coset that then dies keeps it in its row
@example(
    fp=with_relator(fp_from_extended(derive_pair(4, 4), TupleB(4, 6, 6, 4, 6, 6), 5, 0), (1,)),
    mark=16,
)
@given(twisted_presentations(), st.integers(16, 1024))
def test_lookahead_from_the_hlt_pointer_matches_a_full_sweep(fp, mark):
    # with the first mark lowered, runs make several lookahead passes; a
    # pass that skipped a coset it should scan, or a scan it should make,
    # changes what is defined or merged after it
    runs = []
    with mock.patch.object(fpcoset, "LOOKAHEAD_FIRST", mark):
        for enumeration in (_Enumeration, FullSweepLookahead):
            state = enumeration(fp, TWISTED_MAX_COSETS)
            try:
                state.run()
            except CapacityError:
                reject()
            runs.append(state)
    got, want = runs
    defined = len(want.rows)
    # a run that stopped calling self.lookahead would compare two plain
    # HLT runs here and pass
    assert want.passes > 0 or defined < mark
    assert len(got.rows) == defined
    # the raw rows, not parent: path compression is free to differ
    assert got.rows == want.rows
    assert list(map(got.rep, range(defined))) == list(map(want.rep, range(defined)))
    assert got.compact() == want.compact()


@TWISTED_SETTINGS
@example(case=(derive_pair(4, 5), TupleB(2, 8, 2, 0, 0, 0)), e1=4, e2=14)  # collapses to 128
@given(
    valid_small_tuples_b(PAIRS_UP_TO_5),
    st.integers(0, 1 << 16),
    st.integers(0, 1 << 16),
)
def test_subgroup_index_times_order_is_the_group_order(case, e1, e2):
    # on twisted presentations, many of which collapse below 4NM
    pair, t = case
    fp = fp_from_extended(pair, t, e1, e2)
    w, y, z, x = (1 + fp.names.index(g) for g in "wyzx")
    try:
        rep = structure_report(coset_enumerate(fp, TWISTED_MAX_COSETS), fp)
        over_h = coset_enumerate(fp, TWISTED_MAX_COSETS, subgroup=((x,), (y,)))
        over_k = coset_enumerate(fp, TWISTED_MAX_COSETS, subgroup=((z,), (w,)))
    except CapacityError:
        reject()
    assert over_h.count * rep.h_order == rep.order
    assert over_k.count * rep.k_order == rep.order


@lru_cache(maxsize=None)
def buildable_a(pair):
    return tuple(enumerate_a(pair))


@st.composite
def valid_tables(draw, pairs):
    """The table of a valid four- or six-field tuple."""
    pair = draw(pairs)
    if draw(st.booleans()):
        listing, presentation = buildable_a(pair), pc_from_tuple_a
    else:
        listing, presentation = buildable_b(pair), pc_from_tuple_b
    return build_table(presentation(pair, listing[draw(st.integers(0, len(listing) - 1))]))


def swap_prefix(g, k, u_pick, v_pick):
    """The PrefixTable of g with prefix k swapped between rows u and v, v
    picked among the rows whose prefix k has the head of u's, so that
    every row and column stays a permutation."""
    g = PrefixTable.of(g)
    block = g.order // 4
    u = u_pick % g.order
    head = g.prefixes[u][k] // block
    partners = [v for v in range(g.order) if v != u and g.prefixes[v][k] // block == head]
    v = partners[v_pick % len(partners)]
    prefixes = g.prefixes.copy()
    prefixes[u] = prefixes[u][:k] + (g.prefixes[v][k],) + prefixes[u][k + 1 :]
    prefixes[v] = prefixes[v][:k] + (g.prefixes[u][k],) + prefixes[v][k + 1 :]
    bad = replace(g, prefixes=prefixes)
    assert full_scan_accepts(bad)
    return bad


@GROUP_SETTINGS
@given(valid_tables(PAIRS_UP_TO_5))
def test_generator_columns_are_the_products(g):
    # Light's test reads w and y off the prefixes and z and x off the index
    gens = (g.gen_w, g.gen_y, g.gen_z, g.gen_x)
    assert generator_columns(g) == [[g.mul(b, c) for b in range(g.order)] for c in gens]


@GROUP_SETTINGS
@given(valid_tables(SMALL_PAIRS), st.integers(0, 3), st.integers(0, 1 << 16), st.integers(0, 1 << 16))
def test_generator_associativity_matches_exhaustive_on_swaps(g, k, u_pick, v_pick):
    bad = swap_prefix(g, k, u_pick, v_pick)
    assert verify_associativity_generators(bad) == verify_associativity_exhaustive(bad)


# The cubic scan of an associative table takes about 0.5 s at order 256
# and 6 s at order 512, so the unswapped tables are drawn at order 256.
@settings(max_examples=8, deadline=None)
@given(valid_tables(st.just(derive_pair(4, 4))))
def test_generator_associativity_matches_exhaustive_on_valid_tables(g):
    want = verify_associativity_exhaustive(g)
    assert verify_associativity_generators(g) == verify_associativity_extension(g) == want


# Light's test takes about 0.3 s at order 1024.
@settings(max_examples=20, deadline=None)
@given(valid_tables(PAIRS_UP_TO_5))
def test_extension_certificate_accepts_valid_tables_as_light_does(g):
    assert verify_associativity_extension(g) is verify_associativity_generators(g) is True


@GROUP_SETTINGS
@given(
    valid_tables(PAIRS_UP_TO_5),
    st.sampled_from(["ty", "tw", "tw_past_y"]),
    st.integers(0, 1 << 16),
    st.integers(0, 1 << 16),
)
def test_extension_certificate_matches_the_oracles_on_swapped_tail_maps(g, name, i_pick, j_pick):
    """Two entries of one tail map swapped: the map is still a
    permutation, so the table passes the audit, and all three tests must
    give one answer.  A non-associative table fails the cubic scan
    within a few rows, so it runs at order 1024 too."""
    tails = list(getattr(g, name))
    i = i_pick % len(tails)
    j = (i + 1 + j_pick % (len(tails) - 1)) % len(tails)
    tails[i], tails[j] = tails[j], tails[i]
    bad = g._replace(**{name: tails})
    audit_table(bad)
    want = verify_associativity_exhaustive(bad, max_order=bad.order)
    assert verify_associativity_extension(bad) == verify_associativity_generators(bad) == want


@st.composite
def buildable_tuples(draw, pairs):
    """A tuple that `build` accepts: four-field, from the cores (1, 1)
    solution set, or six-field at the cores its own r and b select.  One
    r and b are drawn first, so that only their (t, c) groups are listed."""
    pair = draw(pairs)
    four_field = draw(st.booleans())
    low = 0 if four_field else min(pair.n, pair.m) - 1
    solution = solve_b(
        pair, CoreSpec(1 << draw(st.integers(0, low)), 1 << draw(st.integers(0, low))), True
    )
    if not solution.count:
        reject()
    r, b = draw(st.sampled_from(solution.r_values)), draw(st.sampled_from(solution.b_values))
    groups = list(SolutionSet(pair, range(r, r + 1), range(b, b + 1), solution.heads).groups())
    (r, a, s, b, t), cs = draw(st.sampled_from(groups))
    c = draw(st.sampled_from(cs))
    if four_field:
        return pair, TupleA(a, s, t, c)
    return pair, TupleB(r, a, s, b, t, c)


def presentation(pair, t):
    """The presentation of a tuple, checked valid as `build` checks it."""
    if len(t) == 4:
        assert check_a(pair, t).valid
        return pc_from_tuple_a(pair, t)
    cores = CoreSpec(additive_order(t.b, pair.M), additive_order(t.r, pair.N))
    assert check_b(pair, cores, t).valid
    return pc_from_tuple_b(pair, t)


@GROUP_SETTINGS
@given(buildable_tuples(st.builds(derive_pair, RANKS, RANKS)))
def test_prefixes_match_collection(case):
    """GroupTable.prefixes gives u*y, u*w and u*w*y from tail maps; each
    must be the product that collection gives."""
    pair, t = case
    pc = presentation(pair, t)
    g = build_table(pc)
    w, y = index_nf(pair, g.gen_w), index_nf(pair, g.gen_y)
    for i in range(g.order):
        u, uy, uw, uwy = g.prefixes(i)
        nf = index_nf(pair, i)
        assert u == i
        assert uy == nf_index(pair, collect_multiply(pc, nf, y))
        assert uw == nf_index(pair, collect_multiply(pc, nf, w))
        assert uwy == nf_index(pair, collect_multiply(pc, collect_multiply(pc, nf, w), y))


@GROUP_SETTINGS
@example(case=(derive_pair(4, 4), TupleB(4, 0, 0, 4, 0, 0)))  # both cores of order 4
@example(case=(derive_pair(4, 4), TupleB(0, 2, 4, 1, 0, 0)))  # cores 1 and 8
@example(case=(derive_pair(4, 4), TupleB(1, 4, 2, 0, 0, 0)))  # cores 8 and 1
@given(
    buildable_tuples(st.builds(derive_pair, st.integers(4, 6), st.integers(4, 6))).map(
        lambda case: (case[0], case[1] if len(case[1]) == 6 else case[1].to_tuple_b())
    )
)
def test_core_orders_read_off_the_presentation_match_closures(case):
    """PcData.core_orders against core_of over the closed subgroups of the
    table, and the factor orders that build reports as fixed against
    closure."""
    pair, t = case
    pc = pc_from_tuple_b(pair, t)
    g = build_table(pc)
    want = tuple(len(core_of(g, subgroup_closure(g, (gen,)))) for gen in (g.gen_x, g.gen_z))
    assert pc.core_orders() == want
    h = subgroup_closure(g, (g.gen_x, g.gen_y))
    k = subgroup_closure(g, (g.gen_z, g.gen_w))
    assert (len(h), len(k)) == (2 * pair.N, 2 * pair.M)
    assert set(h) & set(k) == {0}


@GROUP_SETTINGS
@given(buildable_tuples(st.builds(derive_pair, st.integers(4, 6), st.integers(4, 6))))
def test_crosscheck_order_matches_full_enumeration(case):
    pair, t = case
    t = t if len(t) == 6 else t.to_tuple_b()
    full = coset_enumerate(fp_from_extended(pair, t, 0, 0)).count
    assert crosscheck_order(pair, t) == (4 * pair.N * pair.M, full)


def reference_table_file(g, t) -> bytes:
    """The table file as the writer before pre-joined x-runs spelled it:
    every row joined from the numerals of GroupTable.row."""
    out = io.StringIO()
    out.write(
        f"# sdprod group table v1\nn: {g.pair.n}\nm: {g.pair.m}\n"
        f"tuple: {','.join(str(v) for v in t)}\norder: {g.order}\n"
    )
    text = [str(i) for i in range(g.order)]
    for a in range(g.order):
        out.write(" ".join([text[v] for v in g.row(a)]) + "\n")
    return out.getvalue().encode()


# Rank pairs of order at most 1024.
FILE_PAIRS = st.sampled_from([(4, 4), (4, 5), (5, 4), (5, 5), (4, 6), (6, 4)]).map(
    lambda nm: derive_pair(*nm)
)


@GROUP_SETTINGS
@given(buildable_tuples(FILE_PAIRS))
def test_table_file_matches_reference_writer(case):
    pair, t = case
    g = build_table(presentation(pair, t))
    out = io.StringIO()
    _write_table(out, g, t)
    assert out.getvalue().encode() == reference_table_file(g, t)


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


def counted_histograms(solution):
    """Per field of TupleB, how many tuples of solution.groups() take each
    value, in increasing order of the value."""
    histograms = {name: {} for name in TupleB._fields}
    for prefix, cs in solution.groups():
        for name, v in zip(TupleB._fields, prefix):
            histograms[name][v] = histograms[name].get(v, 0) + len(cs)
        for c in cs:
            histograms["c"][c] = histograms["c"].get(c, 0) + 1
    return {name: dict(sorted(h.items())) for name, h in histograms.items()}


@pytest.mark.parametrize("n", [4, 5, 6, 7])
@pytest.mark.parametrize("m", [4, 5, 6, 7])
def test_closed_form_histograms_match_the_groups(n, m):
    pair = derive_pair(n, m)
    c_units = set()
    for cores in all_core_specs(pair):
        solution = solve_b(pair, cores, allow_large=True)
        histograms = solution.histograms()
        assert histograms == counted_histograms(solution), cores
        assert [list(h) for h in histograms.values()] == [sorted(h) for h in histograms.values()]
        assert solution.count == sum(histograms["c"].values())
        for *_, t_step, c_unit, c_step in solution.blocks():
            # the c starts of a block repeat with a period that divides its t count
            assert pair.N // t_step * c_unit % c_step == 0
            c_units.add(c_unit)
    assert c_units - {0}, "no block with c_unit != 0 at this rank pair"


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


def listing_argv(pair, cores, fmt):
    """enumerate-a when cores is None, else enumerate-b."""
    argv = ["--n", str(pair.n), "--m", str(pair.m), "--format", fmt]
    if cores is None:
        return ["enumerate-a"] + argv
    return ["enumerate-b", "--n1", str(cores.n1), "--m1", str(cores.m1), "--allow-large"] + argv


def listing_stdout(pair, cores, fmt):
    """stdout of the CLI listing and of the reference formatter."""
    args = {"n": pair.n, "m": pair.m, "format": fmt}
    if cores is None:
        want = reference_listing(args, enumerate_a(pair), TupleA._fields)
    else:
        args["n1"], args["m1"] = cores
        want = reference_listing(args, enumerate_b(pair, cores, allow_large=True), TupleB._fields)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(listing_argv(pair, cores, fmt)) == 0
    return out.getvalue(), want


@PROPERTY_SETTINGS
@given(core_specs(), st.booleans(), st.sampled_from(["text", "json", "csv"]))
def test_listing_matches_reference_formatter(case, four_field, fmt):
    pair, cores = case
    got, want = listing_stdout(pair, None if four_field else cores, fmt)
    assert got == want


@GROUP_SETTINGS
@given(core_specs(st.integers(4, 6)), st.booleans(), st.sampled_from(["text", "json", "csv"]))
def test_listing_output_file_holds_the_stdout_bytes(case, four_field, fmt):
    pair, cores = case
    argv = listing_argv(pair, None if four_field else cores, fmt)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "listing"
        with contextlib.redirect_stdout(io.StringIO()) as quiet:
            assert main(argv + ["--output", str(target)]) == 0
        assert quiet.getvalue() == ""
        assert target.read_bytes() == out.getvalue().encode("utf-8")


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize(
    "n,m,cores",
    [(9, 7, None), (8, 8, None), (7, 9, None), (8, 8, CoreSpec(2, 2))],
    ids=["a-9-7", "a-8-8", "a-7-9", "b-8-8-cores-2-2"],
)
def test_listing_at_benchmark_ranks_matches_reference_formatter(n, m, cores, fmt):
    # enumerate-a at the rank pairs of order 2^16 that the classify workload
    # lists, with many t values and short c ranges at (9, 7); cores (2, 2)
    # give the only blocks whose c range moves with t (c_unit != 0)
    got, want = listing_stdout(derive_pair(n, m), cores, fmt)
    assert got == want


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_empty_listing_matches_reference_formatter(fmt):
    # no r and b of additive order 8 at (4, 4) have r*b = 0
    got, want = listing_stdout(derive_pair(4, 4), CoreSpec(8, 8), fmt)
    assert got == want
    if fmt == "json":
        assert '\n  "count": 0,\n' in got
        assert '\n  "tuples": [],\n' in got


SESSION_RANKS = st.integers(4, 6)


@st.composite
def command_lines(draw):
    """check-a, check-b, build or crosscheck on a valid or a random tuple at
    ranks in [4, 6], in either format, or one of the parser error and help
    cases.  crosscheck has no JSON format, so --format json is a usage
    error there."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(PARSER_CASES))
    command = draw(st.sampled_from(["check-a", "check-b", "build", "crosscheck"]))
    if draw(st.booleans()):
        pair, t = draw(buildable_tuples(st.builds(derive_pair, SESSION_RANKS, SESSION_RANKS)))
    else:
        pair, t = draw(tuples_b(SESSION_RANKS))
    if command == "check-a" and len(t) == 6:
        t = TupleA(t.a, t.s, t.t, t.c)
    elif command == "check-b" and len(t) == 4:
        t = t.to_tuple_b()
    argv = [command, "--n", str(pair.n), "--m", str(pair.m), "--tuple", ",".join(map(str, t))]
    if command == "check-b":  # the cores build would request
        argv += ["--n1", str(additive_order(t.b, pair.M)), "--m1", str(additive_order(t.r, pair.N))]
    return argv + draw(st.sampled_from([[], ["--format", "text"], ["--format", "json"]]))


def answer(argv):
    """main(argv)'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def fresh_answer(argv):
    """The answer under a full parser built for this one call."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_parse_args", lambda argv: cli.build_parser().parse_args(argv))
        return answer(argv)


@GROUP_SETTINGS
@example(session=[VALID_ARGV["check-b"] + ["--format", "json"], VALID_ARGV["check-b"]])
@given(st.lists(command_lines(), min_size=2, max_size=6))
def test_calls_in_one_process_answer_as_alone(session):
    answers = [answer(argv) for argv in session]
    assert answers == [fresh_answer(argv) for argv in session]


# Values that int, _positive_int and the choices accept or reject, and
# some that argparse reads as options or negative numbers; the strategy
# below also puts a flag where a value belongs.
ODD_VALUES = ["4", "5", "0", "-4", "-1,0,0,0", "", " 7", "+3", "1_0", "\u0664", "0,2,0,0",
              "4,0,0,4,0,0", "text", "json", "csv", "xml", "example-6-5", "-", "--"]


@st.composite
def subcommand_lines(draw):
    """A subcommand with some of its flags, in any order, each followed by
    a value, mostly one of the flag's kind, else an odd value or a flag
    (a store_true flag takes none), and up to three pieces of noise put
    anywhere: a flag again, a flag without its value, a prefix of a
    flag, a --flag=value form, help, "--", an unknown flag or a stray
    positional."""
    name = draw(st.sampled_from(sorted(cli.SUBCOMMANDS)))
    declared = dict(cli.SUBCOMMANDS[name][2])
    options = sorted(declared)
    flag = st.sampled_from(options)
    odd = st.one_of(st.sampled_from(ODD_VALUES), st.integers(-3, 24).map(str), flag)
    pieces = []
    for option in draw(st.permutations(options)):
        keywords = declared[option]
        if not draw(st.integers(0, 4)):
            continue
        if keywords.get("action") == "store_true":
            pieces.append([option])
        elif draw(st.integers(0, 3)):  # a value of the flag's own kind
            good = st.sampled_from(keywords.get("choices") or ["0,2,0,0", "F"])
            pieces.append([option, draw(st.integers(1, 24).map(str) if "type" in keywords else good)])
        else:
            pieces.append([option, draw(odd)])
    noise = st.one_of(
        st.tuples(flag, odd).map(list),
        flag.map(lambda o: [o]),
        flag.flatmap(lambda o: st.integers(1, len(o) - 1).map(lambda k: [o[:k]])),
        st.tuples(flag, odd).map(lambda p: [f"{p[0]}={p[1]}"]),
        st.sampled_from(["-h", "--help", "--", "--bogus", "extra"]).map(lambda t: [t]),
    )
    for piece in draw(st.lists(noise, max_size=3)):
        pieces.insert(draw(st.integers(0, len(pieces))), piece)
    return [name] + [token for piece in pieces for token in piece]


@PROPERTY_SETTINGS
@given(subcommand_lines())
def test_direct_parse_declines_or_reads_what_argparse_reads(argv):
    args = cli._parse_direct(argv)
    if args is None:
        return
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        want, extra = cli.build_parser().parse_known_args(argv)
    assert extra == []
    assert list(vars(args).items()) == list(vars(want).items())


for _argv in [*VALID_ARGV.values(), *WORKLOAD_ARGV]:
    test_direct_parse_declines_or_reads_what_argparse_reads = example(_argv)(
        test_direct_parse_declines_or_reads_what_argparse_reads
    )
