"""Exact 2-adic arithmetic underlying the semidihedral product machinery.

Everything here is integer arithmetic on residues modulo powers of two.
No floating point is used anywhere in the package.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import CapacityError, DomainError

MIN_RANK = 4
MAX_RANK = 20


class SdPair(NamedTuple):
    """Derived parameters for a pair of semidihedral 2-groups.

    The first group has order 2^n with cyclic subgroup of order N = 2^(n-1)
    and twisting unit alpha = 2^(n-2) - 1; the second has order 2^m with
    M = 2^(m-1) and beta = 2^(m-2) - 1.
    """

    n: int
    m: int
    N: int
    M: int
    alpha: int
    beta: int


def derive_pair(n: int, m: int) -> SdPair:
    """Validate the ranks and derive (N, M, alpha, beta)."""
    for name, value in (("n", n), ("m", m)):
        if not isinstance(value, int):
            raise DomainError(f"rank {name} must be an integer, got {value!r}")
        if value < MIN_RANK:
            raise DomainError(f"rank too small: {name}={value} (need {name} >= {MIN_RANK})")
        if value > MAX_RANK:
            raise CapacityError(f"rank too large: {name}={value} (cap is {MAX_RANK})")
    N = 1 << (n - 1)
    M = 1 << (m - 1)
    return SdPair(n=n, m=m, N=N, M=M, alpha=(1 << (n - 2)) - 1, beta=(1 << (m - 2)) - 1)


def _check_modulus(modulus: int) -> None:
    if not isinstance(modulus, int) or modulus < 1 or modulus & (modulus - 1):
        raise DomainError(f"modulus not a power of two: {modulus!r}")
    if modulus < 8:
        raise DomainError(f"modulus too small: {modulus} (need at least 8)")


def sqrt1_units(modulus: int) -> set[int]:
    """Units u with u*u = 1 modulo a power of two 2^(n-1), n >= 4.

    There are exactly four: 1, 1 + 2^(n-2), -1 and -1 + 2^(n-2).
    """
    _check_modulus(modulus)
    half = modulus >> 1
    return {1, 1 + half, modulus - 1, half - 1}


def admissible_s_values(modulus: int) -> set[int]:
    """Residues s such that 1 + s is a square root of unity; all are even."""
    return {(u - 1) % modulus for u in sqrt1_units(modulus)}


def additive_order(v: int, modulus: int) -> int:
    """Order of v in the additive group of residues (order of 0 is 1)."""
    return modulus // math.gcd(modulus, v % modulus)
