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
from .errors import DomainError


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


# The condition names, in the order verdicts report them: C1..C6 of a
# four-field tuple, and D1..D12, ORD-R and ORD-B of a six-field one.
A_CONDITIONS = tuple(f"C{i}" for i in range(1, 7))
B_CONDITIONS = tuple(f"D{i}" for i in range(1, 13)) + ("ORD-R", "ORD-B")
_D_TAGS = B_CONDITIONS[:12]
# C1..C6 are D2, D3 and D9..D12
_C_OF_D = dict(zip(_D_TAGS[1:3] + _D_TAGS[8:], A_CONDITIONS))


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
    residuals = _residuals(pair, r, a, s, b, tt, c)
    return Verdict(tuple(Failure(tag, res) for tag, res in zip(_D_TAGS, residuals) if res))


def _residuals(pair: SdPair, r: int, a: int, s: int, b: int, t: int, c: int) -> tuple[int, ...]:
    """The residuals of D1..D12, in that order, at reduced fields; zero
    means the condition holds.  This is the one statement of the twelve
    congruences: check_b_congruences reports them and solve_b decides its
    heads and t steps with them."""
    N, M = pair.N, pair.M
    alpha, beta = pair.alpha, pair.beta
    return (
        r * (alpha + 1 + a) % N,
        ((1 + a) * (1 + a) - 1) % M,
        ((1 + s) * (1 + s) - 1) % N,
        b * (1 + s + beta) % M,
        r * (beta - 1 - s) % N,
        b * r % M,
        b * (alpha - 1 - a) % M,
        r * b % N,
        t * (2 + s) % N,
        (c * (1 + beta) + t * b) % M,
        (t * (1 + alpha) + c * r) % N,
        c * (2 + a) % M,
    )


def check_b(pair: SdPair, cores: CoreSpec, t: TupleB) -> Verdict:
    """Evaluate D1..D12 plus the core-selecting order conditions.

    ORD-R requires the additive order of r modulo N to equal m1, and
    ORD-B requires the additive order of b modulo M to equal n1.
    """
    validate_cores(pair, cores)
    # check_b_congruences reduces t, and additive_order reduces r and b
    failures = list(check_b_congruences(pair, t).failures)
    r, _, _, b, _, _ = t
    ord_r = additive_order(r, pair.N)
    ord_b = additive_order(b, pair.M)
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


def _steps(pair: SdPair, r: int, a: int, s: int, b: int) -> tuple[int, int, int]:
    """(t_step, c_unit, c_step) of a head (r, a, s, b) that passes D1..D8,
    with b of an additive order that divides N: its pairs (t, c) that pass
    D9..D12 are generated by (t_step, c_unit) and (0, c_step).

    With t fixed, D10, D11 and D12 are congruences u*c = v modulo a power
    of two q: (1 + beta)*c = -t*b mod M, r*c = -t*(1 + alpha) mod N and
    (2 + a)*c = 0 mod M.  One has a solution iff g = gcd(u, q) divides v,
    and its c then lie in one coset of the multiples of its step q/g.  At
    t = 0 that coset is the multiples, so c_step is the largest of the
    three steps; D10's is 2, as 1 + beta = M/2.

    The t that pass D9, t*(2 + s) = 0 mod N, are the multiples of
    t0 = N/gcd(2 + s, N), at most N/2 as s is even.  At t0 each v is a
    multiple of q/2: D11's as 1 + alpha = N/2, and D10's as t0*b = 0 mod
    M/2.  (If s is 0 or N/2, t0 is N/2, so t0*b is a multiple of
    (M/2)*(N/n1), n1 the order of b; else s + M/2 is twice an odd number,
    and D4, b*(s + M/2) = 0 mod M, makes b a multiple of M/2.)  So a
    congruence's c are the multiples of its step (v = 0 mod q), its odd
    multiples of half its step (u*step/2 = (u/g)*q/2 = q/2 mod q, u/g
    odd), or none (r = 0 and t0 odd).  In terms of the power of two 2^e
    dividing c exactly, they ask e >= k or e = k - 1, 2^k the step, so the
    c of all three, if any, are the multiples of c_step or its odd
    multiples of c_step/2.  The least of them is 0 if (t0, 0) passes D10
    and D11, that is t0*b = 0 mod M and t0*(1 + alpha) = t0*N/2 = 0 mod N,
    else c_step/2; D12 holds at c = 0.  So t0 has a c iff (t0, that least
    c) passes D9..D12, and if not, 2*t0 does with c = 0, since 2v = 0 mod q.
    """
    N, M = pair.N, pair.M
    c_step = max(2, N // math.gcd(r, N), M // math.gcd(2 + a, M))
    t = N // math.gcd(2 + s, N)
    c_unit = c_step // 2 if t % 2 or t * b % M else 0
    # c = 0 passes D10 and D11 by the test above
    if c_unit and any(_residuals(pair, r, a, s, b, t, c_unit)):
        return 2 * t, 0, c_step
    return t, c_unit, c_step


class SolutionSet:
    """The valid six-field tuples of one core spec, in closed form.

    A tuple (r, a, s, b, t, c) is valid iff r is in r_values, b is in
    b_values, and heads holds some (a, s, t_step, c_unit, c_step) whose
    lattice holds (t, c).  For fixed (r, a, s, b) the pairs (t, c) passing
    D9..D12 form a subgroup, since those congruences are homogeneous in t
    and c, and a head's lattice is that subgroup, generated by
    (t_step, c_unit) and (0, c_step): t = k*t_step below N, and c below M
    with c = k*c_unit modulo c_step.  c_unit, the least c that goes with
    t_step, is 0 or c_step/2.  `count` is the number of valid tuples and
    `histograms` the number taking each value of each field, both found
    without listing them.  The state is O(heads): no block or tuple is
    stored.
    """

    def __init__(
        self,
        pair: SdPair,
        r_values: range,
        b_values: range,
        heads: tuple[tuple[int, int, int, int, int], ...],
    ):
        self.pair, self.r_values, self.b_values, self.heads = pair, r_values, b_values, heads
        per_rb = sum(pair.N // t_step * (pair.M // c_step) for _, _, t_step, _, c_step in heads)
        self.count = len(r_values) * len(b_values) * per_rb

    def blocks(self) -> Iterator[tuple[int, int, int, int, int, int, int]]:
        """(r, a, s, b, t_step, c_unit, c_step) per block, in lexicographic
        order of (r, a, s, b).  A block's lattice is its head's, so each
        block costs one yield."""
        for r in self.r_values:
            for a, s, t_step, c_unit, c_step in self.heads:
                for b in self.b_values:
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

        Every block of a head is alike but for r and b, so the work is per
        head, not per block, plus one entry per value written.  A block has
        K*M/c_step tuples, K = N/t_step, for each r, a, s and b it holds,
        and M/c_step for each of its t.  Its c are read off the projection
        of its subgroup of pairs (t, c) onto c, a homomorphism: the image
        is generated by c_unit and c_step, so it is the multiples of
        g = c_unit or c_step below M (c_unit is 0 or c_step/2), each hit by
        K*(M/c_step)/(M/g) = K/p tuples, p = c_step/g.  p divides K: t =
        K*t_step = N is t = 0, so c_step divides its c, K*c_unit.
        """
        if not self.count:
            return {name: {} for name in TupleB._fields}
        N, M = self.pair.N, self.pair.M
        rb = len(self.r_values) * len(self.b_values)
        a_hist: dict[int, int] = {}
        s_hist: dict[int, int] = {}
        per_t: dict[int, int] = {}  # t_step -> tuples for each multiple of it
        per_c: dict[int, int] = {}  # g -> tuples for each multiple of it
        for a, s, t_step, c_unit, c_step in self.heads:
            per_t[t_step] = per_t.get(t_step, 0) + rb * (M // c_step)
            in_heads = rb * (N // t_step) * (M // c_step)
            a_hist[a] = a_hist.get(a, 0) + in_heads
            s_hist[s] = s_hist.get(s, 0) + in_heads
            g = c_unit or c_step
            per_c[g] = per_c.get(g, 0) + rb * (N // t_step) * g // c_step
        per_r = self.count // len(self.r_values)
        per_b = self.count // len(self.b_values)
        return {
            "r": dict.fromkeys(self.r_values, per_r),
            "a": dict(sorted(a_hist.items())),  # at most four keys each
            "s": dict(sorted(s_hist.items())),
            "b": dict.fromkeys(self.b_values, per_b),
            "t": _on_multiples(per_t, N),
            "c": _on_multiples(per_c, M),
        }


def _on_multiples(weights: dict[int, int], modulus: int) -> dict[int, int]:
    """The histogram that gives each multiple of step below modulus
    weights[step], summed over the steps, in increasing order.  weights
    is not empty: histograms asks only for a set with a tuple.

    The steps are powers of two, so each is a multiple of the least: the
    keys are the multiples of the least step, built in order, and each
    larger step adds its weight to every (step/least)-th count."""
    least = min(weights)
    counts = [weights[least]] * (modulus // least)
    for step, weight in weights.items():
        if step > least:
            stride = step // least
            counts[::stride] = [count + weight for count in counts[::stride]]
    return dict(zip(range(0, modulus, least), counts))


def solve_b(pair: SdPair, cores: CoreSpec) -> SolutionSet:
    """Solve D1..D12, ORD-R and ORD-B for one core spec.

    ORD-R and ORD-B fix r and b up to an odd factor, a unit.  D1 and D4..D8
    ask that a product of constants with r and/or b vanish, which a unit
    does not change.  Which t admit a c, the step of those c, and the
    least c that goes with t_step depend on r and b only through their
    powers of two as well: a unit in r or b multiplies the solutions of
    D10 and D11 by an odd number, which keeps their parity and the power
    of two dividing them, and D10 and D12 ask nothing else of c.  So each
    (a, s) that D2 and D3 admit is decided, and its head
    (a, s, t_step, c_unit, c_step) found, once at the smallest r and b,
    r_values[0] and b_values[0], and it holds for every block of every r
    and b: its D1..D8 residuals decide it (D9..D12 vanish at t = c = 0),
    and _steps finds its steps and its least c from three gcds and at
    most one more evaluation of the residuals.  So the set-up is a few
    integer operations for each of the at most 16 heads, whatever the
    ranks, and nothing is searched.  No tuple is listed, so the set has
    no size limit: its count and histograms answer at any ranks.
    """
    validate_cores(pair, cores)
    r_values = _of_order(cores.m1, pair.N)
    b_values = _of_order(cores.n1, pair.M)
    heads = []
    if r_values and b_values:
        r, b = r_values[0], b_values[0]
        for a in sorted(admissible_s_values(pair.M)):
            for s in sorted(admissible_s_values(pair.N)):
                if not any(_residuals(pair, r, a, s, b, 0, 0)):
                    heads.append((a, s, *_steps(pair, r, a, s, b)))
    return SolutionSet(pair, r_values, b_values, tuple(heads))


def enumerate_a(pair: SdPair) -> list[TupleA]:
    """All valid four-field tuples, lexicographic in (a, s, t, c).

    C1..C6 are D1..D12 at r = b = 0, the only r and b of additive order 1,
    so these are the six-field tuples of cores (1, 1) with r and b dropped.
    """
    solution = solve_b(pair, CoreSpec(1, 1))
    return [TupleA(a, s, t, c) for (_, a, s, _, t), cs in solution.groups() for c in cs]


def enumerate_b(pair: SdPair, cores: CoreSpec) -> list[TupleB]:
    """All valid six-field tuples for the given cores, lexicographic order,
    as one list whatever its size."""
    solution = solve_b(pair, cores)
    return [TupleB(*prefix, c) for prefix, cs in solution.groups() for c in cs]


def parity_audit(pair: SdPair, tuples: Iterable[tuple]) -> bool:
    """True iff every field of every tuple is even.

    The rings have even moduli, so parity survives reduction and the
    audit does not depend on whether the tuples were reduced via pair.
    """
    assert pair.N % 2 == 0 and pair.M % 2 == 0
    return all(all(field % 2 == 0 for field in t) for t in tuples)
