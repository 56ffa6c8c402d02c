"""Unit tests for the 2-adic arithmetic helpers."""

import pytest

from sdprod.arith import (
    SdPair,
    additive_order,
    admissible_s_values,
    derive_pair,
    sqrt1_units,
)
from sdprod.errors import CapacityError, DomainError


def brute_sqrt1(modulus):
    return {u for u in range(modulus) if u % 2 and u * u % modulus == 1}


def test_derive_pair_small():
    pair = derive_pair(4, 4)
    assert pair == SdPair(n=4, m=4, N=8, M=8, alpha=3, beta=3)


def test_derive_pair_mixed():
    pair = derive_pair(4, 5)
    assert (pair.N, pair.M, pair.alpha, pair.beta) == (8, 16, 3, 7)
    pair = derive_pair(6, 4)
    assert (pair.N, pair.M, pair.alpha, pair.beta) == (32, 8, 15, 3)


def test_alpha_is_a_square_root_of_unity():
    for n in range(4, 13):
        pair = derive_pair(n, 4)
        assert pair.alpha * pair.alpha % pair.N == 1
        assert pair.alpha % 4 == 3


def test_rank_too_small():
    with pytest.raises(DomainError):
        derive_pair(3, 4)
    with pytest.raises(DomainError):
        derive_pair(4, 2)


def test_rank_cap():
    with pytest.raises(CapacityError):
        derive_pair(21, 4)
    with pytest.raises(CapacityError):
        derive_pair(4, 23)
    assert derive_pair(20, 20).N == 1 << 19


def test_sqrt1_units_matches_brute_force():
    for n in range(4, 13):
        modulus = 1 << (n - 1)
        units = sqrt1_units(modulus)
        assert units == brute_sqrt1(modulus)
        assert len(units) == 4


def test_sqrt1_units_examples():
    assert sqrt1_units(8) == {1, 3, 5, 7}
    assert sqrt1_units(16) == {1, 7, 9, 15}


def test_sqrt1_units_bad_modulus():
    with pytest.raises(DomainError):
        sqrt1_units(12)
    with pytest.raises(DomainError):
        sqrt1_units(4)
    with pytest.raises(DomainError):
        sqrt1_units(0)


def test_admissible_s_values():
    assert admissible_s_values(8) == {0, 2, 4, 6}
    for n in range(4, 13):
        modulus = 1 << (n - 1)
        values = admissible_s_values(modulus)
        assert values == {(u - 1) % modulus for u in sqrt1_units(modulus)}
        assert all(s % 2 == 0 for s in values)


def test_additive_order_examples():
    assert additive_order(0, 8) == 1
    assert additive_order(4, 8) == 2
    assert additive_order(6, 16) == 8
    assert additive_order(1, 8) == 8


def test_additive_order_is_minimal():
    for modulus in (8, 16, 32):
        for v in range(modulus):
            k = additive_order(v, modulus)
            assert k * v % modulus == 0
            assert all(j * v % modulus for j in range(1, k))
