"""Congruence systems classifying exact products of two semidihedral groups.

A parameter tuple describes how the two factors act on each other.  The
four-field tuple (a, s, t, c) covers the regime where the distinguished
cyclic subgroups commute elementwise; the six-field tuple (r, a, s, b, t, c)
adds the cross-action exponents r and b, whose additive orders select the
normal cores of the two cyclic subgroups.

All checks reduce their inputs into the proper residue rings first, so
callers may pass arbitrary integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .arith import SdPair, additive_order
from .errors import CapacityError, DomainError

# Full six-field scans are gated above this product-space size, reached at
# ranks (5, 5): (16 * 16) ** 3.
LARGE_SCAN_GATE = 1 << 24


class TupleA(NamedTuple):
    """Parameters (a, s, t, c) of a product with commuting cyclic subgroups."""

    a: int
    s: int
    t: int
    c: int

    def reduced(self, pair: SdPair) -> "TupleA":
        return TupleA(self.a % pair.M, self.s % pair.N, self.t % pair.N, self.c % pair.M)

    def to_tuple_b(self) -> "TupleB":
        """Embed with trivial cross-action (r = b = 0)."""
        return TupleB(0, self.a, self.s, 0, self.t, self.c)


class TupleB(NamedTuple):
    """Parameters (r, a, s, b, t, c) of a general product."""

    r: int
    a: int
    s: int
    b: int
    t: int
    c: int

    def reduced(self, pair: SdPair) -> "TupleB":
        return TupleB(
            self.r % pair.N,
            self.a % pair.M,
            self.s % pair.N,
            self.b % pair.M,
            self.t % pair.N,
            self.c % pair.M,
        )


class CoreSpec(NamedTuple):
    """Requested core indices: the cores are generated by x^n1 and z^m1."""

    n1: int
    m1: int


class Failure(NamedTuple):
    """A violated condition together with its residual.

    For congruences the residual is the left side reduced modulo the ring
    (zero means satisfied); for the order conditions it is the computed
    additive order.
    """

    condition: str
    residual: int


@dataclass(frozen=True)
class Verdict:
    failures: tuple[Failure, ...]

    @property
    def valid(self) -> bool:
        return not self.failures

    def failed_conditions(self) -> tuple[str, ...]:
        return tuple(f.condition for f in self.failures)


def validate_cores(pair: SdPair, cores: CoreSpec) -> None:
    n1, m1 = cores
    for name, value, bound in (("n1", n1, pair.N), ("m1", m1, pair.M)):
        if not isinstance(value, int) or value < 1 or value & (value - 1):
            raise DomainError(f"invalid core spec: {name}={value!r} is not a power of two")
        if bound % value:
            raise DomainError(f"invalid core spec: {name}={value} does not divide {bound}")


def check_a(pair: SdPair, t: TupleA) -> Verdict:
    """Evaluate the six conditions C1..C6 on a four-field tuple."""
    a, s, tt, c = TupleA(*t).reduced(pair)
    N, M = pair.N, pair.M
    conditions = (
        ("C1", ((1 + a) * (1 + a) - 1) % M),
        ("C2", ((1 + s) * (1 + s) - 1) % N),
        ("C3", tt * (2 + s) % N),
        ("C4", c * (1 + pair.beta) % M),
        ("C5", tt * (1 + pair.alpha) % N),
        ("C6", c * (2 + a) % M),
    )
    return Verdict(tuple(Failure(tag, res) for tag, res in conditions if res))


def check_b_congruences(pair: SdPair, t: TupleB) -> Verdict:
    """Evaluate the twelve conditions D1..D12 on a six-field tuple.

    The additive-order conditions tied to a core spec are not included
    here; see check_b.
    """
    r, a, s, b, tt, c = TupleB(*t).reduced(pair)
    N, M = pair.N, pair.M
    alpha, beta = pair.alpha, pair.beta
    conditions = (
        ("D1", r * (alpha + 1 + a) % N),
        ("D2", ((1 + a) * (1 + a) - 1) % M),
        ("D3", ((1 + s) * (1 + s) - 1) % N),
        ("D4", b * (1 + s + beta) % M),
        ("D5", r * (beta - 1 - s) % N),
        ("D6", b * r % M),
        ("D7", b * (alpha - 1 - a) % M),
        ("D8", r * b % N),
        ("D9", tt * (2 + s) % N),
        ("D10", (c * (1 + beta) + tt * b) % M),
        ("D11", (tt * (1 + alpha) + c * r) % N),
        ("D12", c * (2 + a) % M),
    )
    return Verdict(tuple(Failure(tag, res) for tag, res in conditions if res))


def check_b(pair: SdPair, cores: CoreSpec, t: TupleB) -> Verdict:
    """Evaluate D1..D12 plus the core-selecting order conditions.

    ORD-R requires the additive order of r modulo N to equal m1, and
    ORD-B requires the additive order of b modulo M to equal n1.
    """
    validate_cores(pair, cores)
    t = TupleB(*t).reduced(pair)
    failures = list(check_b_congruences(pair, t).failures)
    ord_r = additive_order(t.r, pair.N)
    ord_b = additive_order(t.b, pair.M)
    if ord_r != cores.m1:
        failures.append(Failure("ORD-R", ord_r))
    if ord_b != cores.n1:
        failures.append(Failure("ORD-B", ord_b))
    return Verdict(tuple(failures))


def enumerate_a(pair: SdPair) -> list[TupleA]:
    """All valid four-field tuples, lexicographic in (a, s, t, c).

    The nested loops reject on exactly the conditions of check_a, each
    tested as soon as its fields are bound, so the result is the filter
    of check_a over the whole product space.
    """
    N, M = pair.N, pair.M
    alpha, beta = pair.alpha, pair.beta
    out = []
    for a in range(M):
        if ((1 + a) * (1 + a) - 1) % M:
            continue
        for s in range(N):
            if ((1 + s) * (1 + s) - 1) % N:
                continue
            for t in range(N):
                if t * (2 + s) % N or t * (1 + alpha) % N:
                    continue
                for c in range(M):
                    if c * (1 + beta) % M or c * (2 + a) % M:
                        continue
                    out.append(TupleA(a, s, t, c))
    return out


def enumerate_b(pair: SdPair, cores: CoreSpec, allow_large: bool = False) -> list[TupleB]:
    """All valid six-field tuples for the given cores, lexicographic order.

    The full product space has (N*M)**3 points; scans beyond the size
    reached at ranks (5, 5) must be requested explicitly via allow_large.
    Same filter-of-checker structure as enumerate_a: every reject
    corresponds to one of D1..D12 or an order condition.
    """
    validate_cores(pair, cores)
    space = (pair.N * pair.M) ** 3
    if space > LARGE_SCAN_GATE and not allow_large:
        raise CapacityError(
            f"six-field scan of {space} points exceeds the gate "
            f"({LARGE_SCAN_GATE}); pass allow_large to run it"
        )
    n1, m1 = cores
    N, M = pair.N, pair.M
    alpha, beta = pair.alpha, pair.beta
    out = []
    for r in range(N):
        if additive_order(r, N) != m1:
            continue
        for a in range(M):
            if ((1 + a) * (1 + a) - 1) % M or r * (alpha + 1 + a) % N:
                continue
            for s in range(N):
                if ((1 + s) * (1 + s) - 1) % N or r * (beta - 1 - s) % N:
                    continue
                for b in range(M):
                    if additive_order(b, M) != n1:
                        continue
                    if (
                        b * (1 + s + beta) % M
                        or b * r % M
                        or b * (alpha - 1 - a) % M
                        or r * b % N
                    ):
                        continue
                    for t in range(N):
                        if t * (2 + s) % N:
                            continue
                        for c in range(M):
                            if (
                                (c * (1 + beta) + t * b) % M
                                or (t * (1 + alpha) + c * r) % N
                                or c * (2 + a) % M
                            ):
                                continue
                            out.append(TupleB(r, a, s, b, t, c))
    return out


def parity_audit(pair: SdPair, tuples: Iterable[tuple]) -> bool:
    """True iff every field of every tuple is even.

    The rings have even moduli, so parity survives reduction and the
    audit does not depend on whether the tuples were reduced via pair.
    """
    assert pair.N % 2 == 0 and pair.M % 2 == 0
    return all(all(field % 2 == 0 for field in t) for t in tuples)
