"""Property tests over random ranks in [4, 7], random tuples and core specs.

The hand-picked grids elsewhere stop at ranks (5, 5); these properties
reach (7, 7).  Uniform tuples are almost never valid, so each field is
drawn either uniformly or from a biased pool (multiples of powers of two,
and for a and s the residues whose successor is a square root of unity),
and half the core specs are the ones the tuple's r and b select (capped
at the largest valid spec).  That makes valid tuples common enough for
both sides of each equivalence to be exercised.
"""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

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
)
from sdprod.pcgroup import check_consistency, pc_from_tuple_b

RANKS = st.integers(4, 7)
PROPERTY_SETTINGS = settings(max_examples=300, deadline=None)


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
