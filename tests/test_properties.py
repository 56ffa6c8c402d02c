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
At those ranks, on consistent and on mostly inconsistent tuples, the
consistency report and the closed-form core orders are compared with
the step-by-step forms they replaced (tests/oracles.py).  At
random ranks up to 14, a valid tuple read in new generators of H and K,
an affine map of the tuple, stays valid with the same cores; up to rank
6 that map is compared with the tuple read off the new generators'
conjugates in the collected group.
The associativity check from the four generators is compared with the
cubic scan on those tables and on per-element copies of them with random
prefixes swapped, and its four columns, read off the maps, with the
products.  On valid tuples at random ranks, drawn from the closed-form
solution sets, every prefix of the table is compared with
collection, and the table file up to order 1024 with a copy of the
row-by-row writer it replaced.

The closed-form solver is compared with a brute-force filter at random
ranks and core specs, its heads and blocks with the search it replaced
(searched_heads in tests/test_congruence.py) at random ranks up to 20,
its closed-form histograms with counts over its groups at every core
spec of every rank pair in [4, 7], and the streamed
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
from itertools import groupby, islice, product
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
from oracles import (
    consistency_entries,
    doubled_core_orders,
    generator_columns,
    generators,
    verify_associativity_generators,
)
from test_cli import PARSER_CASES, VALID_ARGV, WORKLOAD_ARGV
from test_congruence import all_core_specs, brute_enumerate_b, searched_blocks, searched_heads
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
    solution = solve_b(pair, cores)
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
    return frozenset(enumerate_b(pair, cores))


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


@st.composite
def new_generator_exponents(draw, pair):
    """Odd u and u' and even v and v' for the new generators x' = x^u,
    y' = y x^v, z' = z^u' and w' = w z^v', as (u, v, u', v')."""

    def residue_of_parity(modulus, parity):
        return 2 * draw(st.integers(0, modulus // 2 - 1)) + parity

    N, M = pair.N, pair.M
    return tuple(residue_of_parity(*spec) for spec in ((N, 1), (N, 0), (M, 1), (M, 0)))


def tuple_in_new_generators(pair, tuple_b, u, v, u2, v2):
    """The tuple read off x^u, y x^v, z^u' and w z^v': (r u'/u, a, s,
    b u/u', (t + s v - r v')/u, (c + b v - a v')/u'), with r and t mod N
    and b and c mod M."""
    N, M = pair.N, pair.M
    r, a, s, b, t, c = tuple_b
    u_inv, u2_inv = pow(u, -1, N), pow(u2, -1, M)
    return TupleB(
        r * u2 * u_inv % N,
        a,
        s,
        b * u * u2_inv % M,
        (t + s * v - r * v2) * u_inv % N,
        (c + b * v - a * v2) * u2_inv % M,
    )


@PROPERTY_SETTINGS
@given(valid_cored_tuples_b(st.integers(4, 14)), st.data())
def test_new_generators_of_h_and_k_keep_a_valid_tuple_valid(case, data):
    """The new generators x' = x^u, y' = y x^v, z' = z^u' and w' = w z^v'
    (u and u' odd, v and v' even) satisfy the same relations, so the
    tuple read off them must be valid with the same cores.  It is
    (r u'/u, a, s, b u/u', (t + s v - r v')/u, (c + b v - a v')/u'),
    with r and t mod N and b and c mod M.  On copies of _residuals with
    one coefficient changed, images of tuples the copy still accepts left
    its valid set for some changes in D1, D4 and D9..D12, but never for
    others, such as -a for a in D1 or -t b for t b in D10: those valid
    sets are closed under the map too, so this cannot tell them from the
    twelve congruences."""
    pair, cores, t = case
    image = tuple_in_new_generators(pair, t, *data.draw(new_generator_exponents(pair)))
    assert check_b(pair, cores, image).valid


@st.composite
def valid_tuples_with_new_generators(draw, ranks):
    """A valid tuple as valid_cored_tuples_b draws it, with exponents of
    new generators for it: (pair, tuple, (u, v, u', v'))."""
    pair, _, t = draw(valid_cored_tuples_b(ranks))
    return pair, t, draw(new_generator_exponents(pair))


# the two signs of r v' in tuple_in_new_generators give different tuples
# only where 2 r v' is not 0 mod N, which few draws meet: here r = 1 and
# v' = 2 at N = 8, a tuple solve_b gives at cores (1, 8)
SIGN_OF_R_V2 = (derive_pair(4, 4), TupleB(1, 4, 2, 0, 0, 0), (1, 0, 1, 2))


@PROPERTY_SETTINGS
@example(case=SIGN_OF_R_V2)
@given(valid_tuples_with_new_generators(st.integers(4, 6)))
def test_new_generators_read_off_the_table_give_the_mapped_tuple(case):
    """In the collected group, the tuple of the new generators is the one
    tuple_in_new_generators gives: c' and t' are read off y'^-1 y'^w' =
    z'^c' x'^t', b' and s' off x'^w' = z'^b' x'^(1+s'), and a' and r' off
    z'^y' = z'^(1+a') x'^r', each a conjugate of head 0 whose z exponent
    is divided by u' and whose x exponent by u."""
    pair, t, exponents = case
    u, v, u2, v2 = exponents
    g = build_table(pc_from_tuple_b(pair, t))
    gen = generators(g)
    N, M = pair.N, pair.M

    def power(e, k):
        out = 0
        for _ in range(k):
            out = g.mul(out, e)
        return out

    def inverse(e):
        return g.row(e).index(0)

    def conjugate(e, by):
        return g.mul(g.mul(inverse(by), e), by)

    def tail(e):
        """(z exponent / u' mod M, x exponent / u mod N) of e, of head 0."""
        assert e < M * N
        ez, ex = divmod(e, N)
        return ez * pow(u2, -1, M) % M, ex * pow(u, -1, N) % N

    x, z = power(gen.x, u), power(gen.z, u2)
    y, w = g.mul(gen.y, power(gen.x, v)), g.mul(gen.w, power(gen.z, v2))
    c, t_new = tail(g.mul(inverse(y), conjugate(y, w)))
    b, one_plus_s = tail(conjugate(x, w))
    one_plus_a, r = tail(conjugate(z, y))
    read = TupleB(r, (one_plus_a - 1) % M, (one_plus_s - 1) % N, b, t_new, c)
    assert read == tuple_in_new_generators(pair, t, *exponents)


# y sends z to z x^4, and the x exponent N/2 = 4 alone keeps <z> from
# being normal, so the core of <z> has order M/2
X_EXPONENT_HALF_N = (derive_pair(4, 4), CoreSpec(2, 2), TupleB(4, 0, 0, 4, 0, 0))


@PROPERTY_SETTINGS
@example(case=X_EXPONENT_HALF_N)
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


# Consistent tuples from the solution sets, and tuples of biased fields,
# most of them inconsistent, at every rank the CLI accepts
CONSISTENT_OR_NOT_B = st.one_of(
    valid_cored_tuples_b().map(lambda case: (case[0], case[2])), tuples_b(ALL_RANKS)
)


@PROPERTY_SETTINGS
@given(CONSISTENT_OR_NOT_B)
def test_consistency_report_equals_the_stepwise_evaluation(case):
    """check_consistency reduces each residual once, at the end; the
    oracle applies and reduces W and Y one step at a time.  The reports
    must agree entry by entry: family, index and reduced residual."""
    pair, t = case
    pc = pc_from_tuple_b(pair, t)
    assert list(check_consistency(pc).entries) == consistency_entries(pc)


@PROPERTY_SETTINGS
@example(case=(X_EXPONENT_HALF_N[0], X_EXPONENT_HALF_N[2]))
@given(CONSISTENT_OR_NOT_B)
def test_closed_form_core_orders_equal_the_doubling_search(case):
    pair, t = case
    pc = pc_from_tuple_b(pair, t)
    assert pc.core_orders() == doubled_core_orders(pc)


@lru_cache(maxsize=None)
def buildable_b(pair):
    """Every six-field tuple that passes D1..D12 and the order conditions
    at its own cores, the tuples `build` accepts."""
    return tuple(
        t
        for i in range(pair.n)
        for j in range(pair.m)
        for t in enumerate_b(pair, CoreSpec(1 << i, 1 << j))
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


# subgroups whose cores leave the tail <z, x>: at 4,0,0,4,0,0 neither
# H = <x, y> nor K = <z, w> (elements 1, 64 and 8, 128) is normal, and each
# core has order 8, four of its elements of head y or w
@GROUP_SETTINGS
@given(valid_small_tuples_b(), st.lists(st.integers(0, 1 << 16), min_size=3, max_size=3))
@example(case=(derive_pair(4, 4), TupleB(4, 0, 0, 4, 0, 0)), picks=[0, 1, 64])
@example(case=(derive_pair(4, 4), TupleB(4, 0, 0, 4, 0, 0)), picks=[0, 8, 128])
def test_core_and_normality_match_brute_force(case, picks):
    pair, t = case
    g = build_table(pc_from_tuple_b(pair, t))
    gen = generators(g)
    prod = [g.row(e) for e in range(g.order)]
    one, a, b = (p % g.order for p in picks)
    for gens in ((), (gen.x,), (gen.z,), (gen.w,), (gen.y,), (one,), (a, b)):
        h = subgroup_closure(g, gens)
        want = brute_force_core(prod, h)
        assert core_of(g, h) == want, gens
        assert is_normal(g, h) == (want == h), gens


@GROUP_SETTINGS
@given(valid_small_tuples_b())
def test_enumerated_cores_match_collected_cores(case):
    pair, t = case
    g = build_table(pc_from_tuple_b(pair, t))
    gen = generators(g)
    fp = fp_from_extended(pair, t, 0, 0)
    rep = structure_report(coset_enumerate(fp), fp)
    assert rep.order == g.order
    assert rep.core_x_order == len(core_of(g, subgroup_closure(g, (gen.x,))))
    assert rep.core_z_order == len(core_of(g, subgroup_closure(g, (gen.z,))))
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
    assert doc["x_normal"] == (rep.core_x_order == rep.generator_orders["x"])
    assert doc["z_normal"] == (rep.core_z_order == rep.generator_orders["z"])


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


def roots(parent, count):
    """The union-find root of each of the first count cosets."""
    out = []
    for k in range(count):
        while parent[k] != k:
            k = parent[k]
        out.append(k)
    return out


class ReferenceHLT:
    """Plain HLT coset enumeration, as fpcoset ran it before its relators
    were compiled, power-reduced and sorted, before it had a lookahead,
    and before a defining scan defined a gap straight through: the
    reference for the enumerator's tables.  It scans relators as they
    stand, in order, as words of columns, where inverse[col] is the column
    of col's inverse: public_columns(fp) gives fp's relators in the public
    layout (columns g, g^-1 for each generator g), and an enumerator
    holds its compiled relators in its own layout, where an involution's
    column is its own inverse."""

    def __init__(self, relators, inverse, max_cosets):
        self.relators = relators
        self.inverse = inverse
        self.ncols = len(inverse)
        self.max_cosets = max_cosets
        self.rows = [[None] * self.ncols]
        self.parent = [0]

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
        self.rows[new][self.inverse[col]] = coset

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
                inv = self.inverse[col]
                self.rows[target][inv] = None
                mu, nu = self.rep(dead), self.rep(target)
                if self.rows[mu][col] is not None:
                    self.merge(nu, self.rows[mu][col], queue)
                elif self.rows[nu][inv] is not None:
                    self.merge(mu, self.rows[nu][inv], queue)
                else:
                    self.rows[mu][col] = nu
                    self.rows[nu][inv] = mu

    def scan_and_fill(self, coset, word):
        rows, inverse = self.rows, self.inverse
        f, i = coset, 0
        b, j = coset, len(word)
        while True:
            while i < j and rows[f][word[i]] is not None:
                f = rows[f][word[i]]
                i += 1
            if i == j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j > i and rows[b][inverse[word[j - 1]]] is not None:
                b = rows[b][inverse[word[j - 1]]]
                j -= 1
            if j == i:
                self.coincidence(f, b)
                return
            if j == i + 1:
                rows[f][word[i]] = b
                rows[b][inverse[word[i]]] = f
                return
            self.define(f, word[i])

    def run(self):
        coset = 0
        while coset < len(self.rows):
            if self.rep(coset) != coset:
                coset += 1
                continue
            for rel in self.relators:
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


def public_columns(fp):
    """fp's relators as words of public columns, and the public layout's
    inverse list: column g^-1 is the column after g's."""
    def col(letter):
        return 2 * (abs(letter) - 1) + (letter < 0)

    relators = [[col(letter) for letter in rel] for rel in fp.relators]
    return relators, [col ^ 1 for col in range(2 * fp.ngens)]


def reference_run(fp, max_cosets):
    """The reference's compacted table, in the public layout, and the
    number of cosets it defined."""
    ref = ReferenceHLT(*public_columns(fp), max_cosets)
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
    # group of order 256.  On its compiled relators the enumerator passes
    # the first lookahead mark, 8,192, with its 8,193rd definition, and the
    # lookahead pass then finishes the run.  A lookahead scan that defined,
    # or that dropped a coincidence, would change that count but not the
    # table.
    fp = fp_from_extended(derive_pair(4, 5), TupleB(4, 14, 4, 4, 0, 0), 6, 8)
    want, defined = reference_run(fp, 10**6)
    assert defined == 17_897
    state = _Enumeration(fp, 10**6)
    state.run()
    assert LOOKAHEAD_FIRST == 8192
    assert len(state.rows) == 8193
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
        ((5, 5), (8, 0, 8, 0, 8, 0), (2, 14), 10_078, 1, 256),
        ((5, 5), (12, 8, 14, 0, 2, 0), (8, 10), 16_451, 2, 512),
        ((5, 5), (0, 6, 6, 8, 0, 2), (2, 12), 8_199, 1, 512),
        ((5, 5), (8, 6, 14, 0, 12, 12), (4, 12), 8_212, 1, 512),
        ((5, 5), (8, 14, 6, 8, 10, 0), (4, 4), 8_246, 1, 512),
        ((4, 5), (2, 8, 2, 0, 0, 0), (4, 14), 8_215, 1, 128),
        ((4, 5), (4, 6, 6, 8, 2, 4), (6, 10), 15_289, 1, 256),
        ((4, 5), (4, 14, 4, 4, 0, 0), (6, 8), 8_193, 1, 256),
        ((5, 4), (4, 4, 14, 0, 8, 0), (14, 2), 8_193, 1, 256),
        ((5, 5), (0, 14, 8, 8, 8, 14), (14, 2), 5_810, 0, 256),
        ((5, 5), (8, 14, 14, 8, 9, 5), (6, 8), 8_214, 1, 128),
        ((5, 5), (12, 8, 6, 0, 8, 8), (10, 14), 8_198, 1, 256),
        ((5, 5), (12, 8, 14, 0, 2, 0), (12, 12), 8_209, 1, 256),
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
    HLT pointer: every relator whose columns are not all equal scanned
    from both ends, without defining, at every live coset from coset 0.
    passes counts its calls."""

    passes = 0

    def lookahead(self, start):
        self.passes += 1
        rows, parent, inverse = self.rows, self.parent, self.inverse
        relators = [cols for cols, *_ in self.ends if cols.count(cols[0]) < len(cols)]
        for coset in range(len(rows)):
            for cols in relators:
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
                while j > i and rows[b][inverse[cols[j - 1]]] is not None:
                    b = rows[b][inverse[cols[j - 1]]]
                    j -= 1
                if j == i:
                    self.coincidence(f, b)
                elif j == i + 1:
                    rows[f][cols[i]] = b
                    rows[b][inverse[cols[i]]] = f


def with_relator(fp, rel):
    return FpPres(fp.names, fp.relators + (rel,))


@st.composite
def twisted_presentations(draw):
    pair, t = draw(valid_small_tuples_b(LOOKAHEAD_PAIRS))
    e1, e2 = divmod(draw(st.integers(1, pair.N * pair.M - 1)), pair.M)  # not both 0
    return fp_from_extended(pair, t, e1, e2)


@TWISTED_SETTINGS
# w = 1 compiles to the one-letter relator [w], which the lookahead leaves
# to HLT: HLT's scan of it deduces a w-loop at each coset it processes,
# and a coset that then dies keeps it in its row
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
    assert roots(got.parent, defined) == roots(want.parent, defined)
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
    head = g.stored[u][k] // block
    partners = [v for v in range(g.order) if v != u and g.stored[v][k] // block == head]
    v = partners[v_pick % len(partners)]
    stored = g.stored.copy()
    stored[u] = stored[u][:k] + (g.stored[v][k],) + stored[u][k + 1 :]
    stored[v] = stored[v][:k] + (g.stored[u][k],) + stored[v][k + 1 :]
    bad = replace(g, stored=stored)
    assert full_scan_accepts(bad)
    return bad


@GROUP_SETTINGS
@given(valid_tables(PAIRS_UP_TO_5))
def test_generator_columns_are_the_products(g):
    # Light's test reads w and y off the prefixes and z and x off the index
    assert generator_columns(g) == [[g.mul(b, c) for b in range(g.order)] for c in generators(g)]


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
        pair, CoreSpec(1 << draw(st.integers(0, low)), 1 << draw(st.integers(0, low)))
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
    g = build_table(presentation(pair, t))
    gen = generators(g)
    t6 = t if len(t) == 6 else t.to_tuple_b()
    w, y = index_nf(pair, gen.w), index_nf(pair, gen.y)
    for i in range(g.order):
        u, uy, uw, uwy = g.prefixes(i)
        nf = index_nf(pair, i)
        assert u == i
        nfw = collect_multiply(pair, t6, nf, w)
        assert uy == nf_index(pair, collect_multiply(pair, t6, nf, y))
        assert uw == nf_index(pair, nfw)
        assert uwy == nf_index(pair, collect_multiply(pair, t6, nfw, y))


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
    gen = generators(g)
    want = tuple(len(core_of(g, subgroup_closure(g, (gen,)))) for gen in (gen.x, gen.z))
    assert pc.core_orders() == want
    h = subgroup_closure(g, (gen.x, gen.y))
    k = subgroup_closure(g, (gen.z, gen.w))
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
    solution = solve_b(pair, cores)
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
        solution = solve_b(pair, cores)
        histograms = solution.histograms()
        assert histograms == counted_histograms(solution), cores
        assert [list(h) for h in histograms.values()] == [sorted(h) for h in histograms.values()]
        assert solution.count == sum(histograms["c"].values())
        for *_, t_step, c_unit, c_step in solution.blocks():
            # the c starts of a block repeat with a period that divides its t count
            assert pair.N // t_step * c_unit % c_step == 0
            c_units.add(c_unit)
    assert c_units - {0}, "no block with c_unit != 0 at this rank pair"


@st.composite
def core_specs_with_an_index_below_3(draw, ranks=ALL_RANKS):
    """Core specs with n1 or m1 at most 2: at ranks 4..20, every nonempty
    solution set has one, and most core_specs draws are empty."""
    pair = derive_pair(draw(ranks), draw(ranks))
    small = 1 << draw(st.integers(0, 1))
    if draw(st.booleans()):
        return pair, CoreSpec(small, 1 << draw(st.integers(0, pair.m - 1)))
    return pair, CoreSpec(1 << draw(st.integers(0, pair.n - 1)), small)


# The blocks compared per draw: all of them, or a window that starts at a
# drawn block.  Up to 2^18 blocks at rank 20, at a few microseconds each
# for the search.
BLOCK_WINDOW = 2048


@PROPERTY_SETTINGS
@given(st.one_of(core_specs(ALL_RANKS), core_specs_with_an_index_below_3()), st.data())
def test_solver_matches_the_search(case, data):
    pair, cores = case
    solution = solve_b(pair, cores)
    assert solution.heads == searched_heads(pair, cores)
    blocks = len(solution.r_values) * len(solution.heads) * len(solution.b_values)
    start = data.draw(st.integers(0, max(0, blocks - BLOCK_WINDOW)))
    stop = start + BLOCK_WINDOW
    keys = islice(product(solution.r_values, solution.heads, solution.b_values), start, stop)
    assert list(islice(solution.blocks(), start, stop)) == list(searched_blocks(pair, keys))
    if solution.count <= 1 << 16:
        assert solution.histograms() == counted_histograms(solution)


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
        want = reference_listing(args, enumerate_b(pair, cores), TupleB._fields)
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
    cases.  crosscheck has no --format, so --format text or json is a
    usage error there."""
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
