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
"""

from functools import lru_cache
from itertools import groupby

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
