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

import math
from typing import Iterable, Iterator, NamedTuple

from .arith import SdPair, additive_order, admissible_s_values
from .errors import CapacityError, DomainError

# Listings are gated above this many tuples.
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


class Verdict(NamedTuple):
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


_C_OF_D = {"D2": "C1", "D3": "C2", "D9": "C3", "D10": "C4", "D11": "C5", "D12": "C6"}


def check_a(pair: SdPair, t: TupleA) -> Verdict:
    """Evaluate the six conditions C1..C6 on a four-field tuple.

    They are D2, D3, D9, D10, D11 and D12 of its six-field embedding
    (r = b = 0), with the same residuals.  D1 and D4..D8 are multiples
    of r or b, so they vanish there.
    """
    failures = check_b_congruences(pair, TupleA(*t).to_tuple_b()).failures
    return Verdict(tuple(Failure(_C_OF_D[f.condition], f.residual) for f in failures))


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


def _of_order(order: int, modulus: int) -> range:
    """Residues modulo a power of two of the given additive order: the odd
    multiples of modulus/order, or 0 alone for order 1."""
    if order > modulus:
        return range(0)
    step = modulus // order
    return range(step if order > 1 else 0, modulus, 2 * step)


def _coset(u: int, v: int, modulus: int) -> tuple[int, int] | None:
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


def _meet(*cosets: tuple[int, int] | None) -> tuple[int, int] | None:
    """Intersection of cosets x0 + step*Z whose steps are powers of two.

    Every step divides the largest, so the intersection is the coset of
    the largest step if that coset lies in all the others, else empty.
    """
    if None in cosets:
        return None
    x0, step = max(cosets, key=lambda coset: coset[1])
    if any((x0 - x) % s for x, s in cosets):
        return None
    return x0, step


def _c_coset(pair: SdPair, r: int, a: int, b: int, t: int) -> tuple[int, int] | None:
    """The c that satisfy D10, D11 and D12 once r, a, b and t are fixed."""
    return _meet(
        _coset(1 + pair.beta, -t * b, pair.M),
        _coset(r, -t * (1 + pair.alpha), pair.N),
        _coset(2 + a, 0, pair.M),
    )


class SolutionSet:
    """The valid six-field tuples of one core spec, in closed form.

    A tuple (r, a, s, b, t, c) is valid iff r is in r_values, b is in
    b_values, heads holds some (a, s, t_step, c_step), t is a multiple of
    t_step below N, and c lies in the coset that `blocks` gives for t.
    `count` is their number and `histograms` the number taking each value
    of each field, both found without listing them.
    """

    def __init__(
        self,
        pair: SdPair,
        r_values: range,
        b_values: range,
        heads: tuple[tuple[int, int, int, int], ...],
    ):
        self.pair, self.r_values, self.b_values, self.heads = pair, r_values, b_values, heads
        per_rb = sum(pair.N // t_step * (pair.M // c_step) for _, _, t_step, c_step in heads)
        self.count = len(r_values) * len(b_values) * per_rb

    def blocks(self) -> Iterator[tuple[int, int, int, int, int, int, int]]:
        """(r, a, s, b, t_step, c_unit, c_step) per block, in lexicographic
        order of (r, a, s, b).

        For fixed (r, a, s, b) the pairs (t, c) passing D9..D12 form a
        subgroup, since those congruences are homogeneous in t and c.  Its
        t values are the multiples of t_step below N, and the c that go
        with t = k*t_step are the c below M that are k*c_unit modulo c_step,
        where c_unit is one c that goes with t_step.
        """
        N = self.pair.N
        for r in self.r_values:
            for a, s, t_step, c_step in self.heads:
                for b in self.b_values:
                    c_unit = _c_coset(self.pair, r, a, b, t_step)[0] if t_step < N else 0
                    yield r, a, s, b, t_step, c_unit, c_step

    def groups(self) -> Iterator[tuple[tuple[int, int, int, int, int], range]]:
        """Prefixes (r, a, s, b, t) with the range of their valid c, in
        lexicographic order: each block's t values in turn."""
        N, M = self.pair.N, self.pair.M
        for r, a, s, b, t_step, c_unit, c_step in self.blocks():
            for k, t in enumerate(range(0, N, t_step)):
                yield (r, a, s, b, t), range(k * c_unit % c_step, M, c_step)

    def histograms(self) -> dict[str, dict[int, int]]:
        """Per field name of TupleB, how many tuples take each value, in
        increasing order of the value; values no tuple takes are left out.

        A block has K*M/c_step tuples, K = N/t_step, for each r, a, s and b
        it holds, and M/c_step for each of its t.  Its c are read off the
        projection of its subgroup of pairs (t, c) onto c, a homomorphism:
        the image is generated by c_unit and c_step, so it is the multiples
        of g = gcd(c_unit, c_step) below M, and each is hit by
        K*(M/c_step)/(M/g) = K/p tuples, p = c_step/g.  K/p is a whole
        number: t = K*t_step = N is t = 0, whose c are the multiples of
        c_step, so c_step divides K*c_unit, and p divides K.
        """
        if not self.count:
            return {name: {} for name in TupleB._fields}
        N, M = self.pair.N, self.pair.M
        rb = len(self.r_values) * len(self.b_values)
        a_hist: dict[int, int] = {}
        s_hist: dict[int, int] = {}
        per_t: dict[int, int] = {}  # t_step -> tuples for each multiple of it
        for a, s, t_step, c_step in self.heads:
            per_t[t_step] = per_t.get(t_step, 0) + rb * (M // c_step)
            in_heads = rb * (N // t_step) * (M // c_step)
            a_hist[a] = a_hist.get(a, 0) + in_heads
            s_hist[s] = s_hist.get(s, 0) + in_heads
        per_c: dict[int, int] = {}  # g -> tuples for each multiple of it
        for *_, t_step, c_unit, c_step in self.blocks():
            g = math.gcd(c_unit, c_step)
            per_c[g] = per_c.get(g, 0) + N // t_step * g // c_step
        per_r = self.count // len(self.r_values)
        per_b = self.count // len(self.b_values)
        return {
            "r": dict.fromkeys(self.r_values, per_r),
            "a": dict(sorted(a_hist.items())),
            "s": dict(sorted(s_hist.items())),
            "b": dict.fromkeys(self.b_values, per_b),
            "t": _on_multiples(per_t, N),
            "c": _on_multiples(per_c, M),
        }


def _on_multiples(weights: dict[int, int], modulus: int) -> dict[int, int]:
    """The histogram that gives each multiple of step below modulus
    weights[step], summed over the steps, in increasing order."""
    hist: dict[int, int] = {}
    for step, weight in weights.items():
        for v in range(0, modulus, step):
            hist[v] = hist.get(v, 0) + weight
    return dict(sorted(hist.items()))


def solve_b(pair: SdPair, cores: CoreSpec, allow_large: bool = False) -> SolutionSet:
    """Solve D1..D12, ORD-R and ORD-B for one core spec.

    ORD-R and ORD-B fix r and b up to an odd factor, a unit.  D1 and D4..D8
    ask that a product of constants with r and/or b vanish, which a unit
    does not change.  Which t admit a c, and the step of those c, depend
    on r and b only through their powers of two as well: a unit in r or b
    multiplies the solutions of D10 and D11 by an odd number, which keeps
    their parity and the power of two dividing them, and D10 and D12 ask
    nothing else of c.  So each (a, s) that D2 and D3 admit is decided,
    and its t and c steps found, once at the smallest r and b,
    r_values[0] and b_values[0].

    A solution set of more than LARGE_SCAN_GATE tuples is refused unless
    allow_large is set.
    """
    validate_cores(pair, cores)
    N, M = pair.N, pair.M
    r_values = _of_order(cores.m1, N)
    b_values = _of_order(cores.n1, M)
    heads = []
    if r_values and b_values:
        r, b = r_values[0], b_values[0]
        for a in sorted(admissible_s_values(M)):
            for s in sorted(admissible_s_values(N)):
                if not check_b_congruences(pair, TupleB(r, a, s, b, 0, 0)).valid:
                    continue
                # the t with a solution c form a subgroup: the smallest power
                # of two among them generates it
                t_step = next(
                    (
                        t
                        for t in (1 << j for j in range(pair.n - 1))
                        if t * (2 + s) % N == 0 and _c_coset(pair, r, a, b, t)
                    ),
                    N,
                )
                heads.append((a, s, t_step, _c_coset(pair, r, a, b, 0)[1]))
    solution = SolutionSet(pair, r_values, b_values, tuple(heads))
    if solution.count > LARGE_SCAN_GATE and not allow_large:
        raise CapacityError(
            f"listing of {solution.count} tuples exceeds the gate "
            f"({LARGE_SCAN_GATE}); pass --allow-large to run it"
        )
    return solution


def enumerate_a(pair: SdPair) -> list[TupleA]:
    """All valid four-field tuples, lexicographic in (a, s, t, c).

    C1..C6 are D1..D12 at r = b = 0, the only r and b of additive order 1,
    so these are the six-field tuples of cores (1, 1) with r and b dropped.
    The four-field listing has no gate.
    """
    solution = solve_b(pair, CoreSpec(1, 1), allow_large=True)
    return [TupleA(a, s, t, c) for (_, a, s, _, t), cs in solution.groups() for c in cs]


def enumerate_b(pair: SdPair, cores: CoreSpec, allow_large: bool = False) -> list[TupleB]:
    """All valid six-field tuples for the given cores, lexicographic order.

    Listings of more than LARGE_SCAN_GATE tuples must be requested
    explicitly via allow_large.
    """
    solution = solve_b(pair, cores, allow_large)
    return [TupleB(*prefix, c) for prefix, cs in solution.groups() for c in cs]


def parity_audit(pair: SdPair, tuples: Iterable[tuple]) -> bool:
    """True iff every field of every tuple is even.

    The rings have even moduli, so parity survives reduction and the
    audit does not depend on whether the tuples were reduced via pair.
    """
    assert pair.N % 2 == 0 and pair.M % 2 == 0
    return all(all(field % 2 == 0 for field in t) for t in tuples)
