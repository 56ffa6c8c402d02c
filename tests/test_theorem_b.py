"""Theorem B at every rank pair: the sixteen overlap identities of the pc
presentation hold exactly when D1..D12 do, for all n, m >= 4.

Write N = 2P, M = 2Q, alpha = P - 1 and beta = Q - 1, with P = 2^(n-2) and
Q = 2^(m-2).  pcgroup's own pc_from_tuple_b and check_consistency run
here, unchanged, on polynomials over Z in the symbols P, Q, r, a, s, b,
t, c, whose `%` keeps every term, so each residual comes out unreduced;
congruence._residuals gives D1..D12 on the same symbols.  Then:

- twelve residual components are D1..D12 as polynomials;
- with P = 2p and Q = 2q (n, m >= 4 make P and Q even), every other
  component is a multiple of its modulus, 4q for a z part and 4p for an
  x part, except W(1,4)'s z part N*b and W(2,3)'s x part M*r;
- those two say that W and Y are well defined, N*b = 0 mod M and
  M*r = 0 mod N, and they follow from D2 with D7 and from D3 with D5:
  the 2-adic step below.

pcgroup reduces W's and Y's entries first, and each residual at the
end.  Once N*b = 0 mod M and M*r = 0 mod N hold, that moves a residual
only by a multiple of its modulus: an exponent changed by M or N meets,
at worst, the other part's b or r.  Consistent (all sixteen reduced
residuals 0) includes those two, since pcgroup computes them exactly, so
it gives D1..D12; D1..D12 give the two and then all sixteen.  A
consistent presentation defines a group of order 4NM (Sims, Computation
with Finitely Presented Groups, CUP 1994, ch. 9).  The grid tests in
test_pcgroup.py stay as evidence on the reduced arithmetic.
"""

import time

from sdprod.arith import SdPair
from sdprod.congruence import _residuals
from sdprod.pcgroup import check_consistency, pc_from_tuple_b


class Poly:
    """A polynomial over Z: monomials, sorted tuples of (symbol, exponent),
    mapped to nonzero coefficients."""

    def __init__(self, terms=()):
        self.terms = {m: k for m, k in dict(terms).items() if k}

    @staticmethod
    def lift(v):
        return v if isinstance(v, Poly) else Poly({(): v})

    def __add__(self, other):
        out = dict(self.terms)
        for m, k in Poly.lift(other).terms.items():
            out[m] = out.get(m, 0) + k
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly({m: -k for m, k in self.terms.items()})

    def __sub__(self, other):
        return self + -Poly.lift(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        out = {}
        for m1, k1 in self.terms.items():
            for m2, k2 in Poly.lift(other).terms.items():
                powers = dict(m1)
                for x, e in m2:
                    powers[x] = powers.get(x, 0) + e
                m = tuple(sorted(powers.items()))
                out[m] = out.get(m, 0) + k1 * k2
        return Poly(out)

    __rmul__ = __mul__

    def __mod__(self, modulus):
        return self  # unreduced: the proof keeps every term

    def __rmod__(self, value):
        return value

    def __eq__(self, other):
        return self.terms == Poly.lift(other).terms

    def __repr__(self):
        return repr(self.terms)

    def subs(self, **values):
        """Substitute a polynomial or integer for each named symbol."""
        out = Poly()
        for m, k in self.terms.items():
            term = Poly({(): k})
            for x, e in m:
                term = term * (Poly.lift(values[x]) if x in values else var(x)) ** e
            out = out + term
        return out

    def __pow__(self, e):
        out = Poly({(): 1})
        for _ in range(e):
            out = out * self
        return out

    def over(self, d):
        """self / d for a one-term d, or None if d does not divide it."""
        ((dm, dk),) = Poly.lift(d).terms.items()
        out = {}
        for m, k in self.terms.items():
            powers = dict(m)
            for x, e in dm:
                powers[x] = powers.get(x, 0) - e
            if k % dk or min(powers.values(), default=0) < 0:
                return None
            out[tuple((x, e) for x, e in sorted(powers.items()) if e)] = k // dk
        return Poly(out)

    def is_odd(self):
        """Odd at every integer point: an odd constant, all else even."""
        return all(k % 2 == (m == ()) for m, k in self.terms.items()) and () in self.terms


def var(name):
    return Poly({((name, 1),): 1})


P, Q, p, q, R = map(var, "PQpqR")
r, a, s, b, t, c = map(var, "rasbtc")
PAIR = SdPair(n=None, m=None, N=2 * P, M=2 * Q, alpha=P - 1, beta=Q - 1)
EVEN = {"P": 2 * p, "Q": 2 * q}  # n, m >= 4 make P and Q even


def symbolic_residuals():
    report = check_consistency(pc_from_tuple_b(PAIR, (r, a, s, b, t, c)))
    return {(e.family, e.index): e.residual for e in report.entries}


def test_twelve_residuals_are_d1_to_d12_as_polynomials():
    start = time.perf_counter()
    res = symbolic_residuals()
    D = dict(enumerate(_residuals(PAIR, r, a, s, b, t, c), 1))
    assert len(res) == 16
    expected = {
        ("P", (1, 2)): (D[10], D[9]),
        ("P", (1, 4)): (D[4], D[3]),
        ("P", (2, 3)): (D[2], D[1]),
        ("W", (1, 2)): (D[12], D[11]),
        ("C", (1, 2, 3)): (D[6], -D[5]),
        ("C", (1, 2, 4)): (D[7], -D[8]),
    }
    for key, parts in expected.items():
        assert res[key] == parts, key

    # every other component is a multiple of its modulus, but two
    left = []
    for key, (z_part, x_part) in res.items():
        if key in expected:
            continue
        if Poly.lift(z_part).subs(**EVEN).over(4 * q) is None:
            left.append((key, "z", z_part))
        if Poly.lift(x_part).subs(**EVEN).over(4 * p) is None:
            left.append((key, "x", x_part))
    assert left == [(("W", (1, 4)), "z", 2 * P * b), (("W", (2, 3)), "x", 2 * Q * r)]
    assert time.perf_counter() - start < 1


def test_the_maps_are_well_defined_under_d2_with_d7_and_d3_with_d5():
    # N*b = 0 mod M from D2 with D7; M*r = 0 mod N from D3 with D5, the
    # same with the factors swapped.  D2 makes 1 + a one of the four square
    # roots of 1 mod M, a power of two of at least 8 (the units mod M are
    # Z_2 x Z_(M/4)), so a is 0, Q, -2 or Q - 2 mod M; D7 is b*f for a
    # factor f read off D7 itself, and it depends on a mod M only.  Put
    # P = 4p and Q = 4q (n, m >= 4) and split over p = q, p = 2qR and
    # q = 2pR (R a power of two).  In each case f is 0, where N = M, or
    # d*u with d one of 2, P and Q and u odd, so a unit mod M: then D7
    # gives d*b = 0 mod M, and N is a multiple of d, so N*b = 0 mod M.
    start = time.perf_counter()
    D = dict(enumerate(_residuals(PAIR, r, a, s, b, t, c), 1))
    fourfold = {"P": 4 * p, "Q": 4 * q}
    for name, half, square, linear, field, multiple, modulus in (
        ("a", Q, D[2], D[7], b, PAIR.N, PAIR.M),
        ("s", P, D[3], D[5], r, PAIR.M, PAIR.N),
    ):
        for root in (0, half, -2, half - 2):
            at = {name: root}
            assert square.subs(**at).subs(**EVEN).over(modulus.subs(**EVEN)) is not None, root
            f = linear.subs(**at).over(field)
            assert f is not None, root
            for order in ({"q": p}, {"p": 2 * q * R}, {"q": 2 * p * R}):
                def case(x):
                    return Poly.lift(x).subs(**fourfold).subs(**order)

                f_case = case(f)
                if f_case == 0:
                    assert case(multiple) == case(modulus), (name, root, order)
                    continue
                split = [(d, f_case.over(d)) for d in map(case, (2, P, Q))]
                parts = [d for d, u in split if u is not None and u.is_odd()]
                assert parts, (name, root, order)
                assert case(multiple).over(parts[0]) is not None, (name, root, order)
    assert time.perf_counter() - start < 1
