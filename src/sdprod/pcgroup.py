"""Polycyclic presentations of the four-generator products and their tables.

Generators are ordered w, y, z, x with relative orders 2, 2, M, N.  Every
element has a unique normal form w^a1 y^a2 z^a3 x^a4 with a1, a2 in {0, 1},
a3 modulo M and a4 modulo N.  A presentation is its conjugation data

    y^w = y z^c x^t      z^w = z^beta      x^w = z^b x^(1+s)
    z^y = z^(1+a) x^r    x^y = x^alpha     x^z = x

x^z = x is hard-wired: z and x always commute here, so w and y act on
the abelian tail Z_M + Z_N of the z^i x^j by linear maps W and Y, and a
presentation is the triple (W, Y, v) with v = (c, t) the tail of y^w:
PcData holds it, each map spelled by its images of z and x; the table
and its certificate apply the maps through _apply, and the consistency
check and the core orders are closed formulas in their entries.  Once
the presentation is consistent, those maps are its relations, and the
group table keeps only them (see GroupTable).

Consistency of such a presentation is decided by sixteen overlap
identities; on the tail they say that W and Y are well defined, W^2 =
Y^2 = I, WY = YW and (I + W)v = (I + Y)v = 0 for the tail v of y^w
(Sims, *Computation with Finitely Presented Groups*, CUP 1994, ch. 9).
The module deliberately never consults the congruence module for this;
the two are independent routes to the same classification and are played
against each other in the tests.

Associativity of a built table is certified from its three maps in
O(|G|) (verify_associativity_extension): the table is an extension of
the tail by the Klein four-group {1, w, y, wy}, and the factor-set
condition of such an extension is a few dozen identities once each map
is known to be affine.  The certificate reads the maps, not the
presentation, so it checks build_table independently of
check_consistency.  The cubic scan (verify_associativity_exhaustive)
is the tests' oracle.
"""

from __future__ import annotations

from itertools import accumulate
from math import gcd
from typing import Iterator, NamedTuple, Sequence

from .arith import SdPair
from .congruence import TupleA, TupleB
from .errors import CapacityError, DomainError

DEFAULT_MAX_ORDER = 1 << 20
DEFAULT_ASSOC_CAP = 512
ASSOC_CAP_MESSAGE = "table too large for the cubic scan: order {order} exceeds cap {cap}"


class PcData(NamedTuple):
    """A presentation as its tail action: the maps W and Y by which w and y
    act on the tail, each as its pair (image of z, image of x) of (z
    exponent, x exponent) pairs, and v = (c, t), the tail of y^w, all
    reduced.  W(z) = z^beta, W(x) = z^b x^(1+s), Y(z) = z^(1+a) x^r and
    Y(x) = x^alpha (pc_from_tuple_b).  check_consistency evaluates the
    overlap identities on W, Y and v, core_orders reads the core orders
    off the z exponents of W(x), Y(x) and the x exponents of W(z), Y(z),
    and build_table tabulates W and Y."""

    pair: SdPair
    W: tuple[tuple[int, int], tuple[int, int]]
    Y: tuple[tuple[int, int], tuple[int, int]]
    v: tuple[int, int]

    def core_orders(self) -> tuple[int, int]:
        """Orders of the cores of <x> and <z> in a consistent presentation,
        in closed form and with no table.

        z and x act trivially on the abelian tail <z, x>, and y^w =
        y z^c x^t, so the conjugations by the involutions w and y commute
        there: G acts on the tail through {1, w, y, wy}, and a subgroup of
        the tail is normal once w and y map it into itself.  The subgroups
        of <x> are the chain <x^d>, d a power of two, one of each order, and
        a conjugate of x^d has the order of x^d; so <x^d> is normal exactly
        when d W(x) and d Y(x) have z exponent 0.  Then so is every <x^2d>,
        and the core is <x^d> for the least such d, capped at N, of order
        N/d.  Likewise <z^e>, with the x exponents of e W(z) and e Y(z).

        That least d is min(N, M / gcd(M, W(x)_z, Y(x)_z)).  The d with
        d h = 0 mod M are the multiples of M / gcd(M, h), so the d that
        pass for both exponents h = W(x)_z, Y(x)_z are the common
        multiples of two divisors of M, the multiples of their lcm, which is
        M / gcd(M, W(x)_z, Y(x)_z).  That lcm divides M, a power of two, so
        it is a power of two itself and the least one that passes.  The
        least e is min(M, N / gcd(N, W(z)_x, Y(z)_x)) the same way.
        """
        pair, W, Y = self.pair, self.W, self.Y
        d = min(pair.N, pair.M // gcd(pair.M, W[1][0], Y[1][0]))
        e = min(pair.M, pair.N // gcd(pair.N, W[0][1], Y[0][1]))
        return pair.N // d, pair.M // e


class ConsistencyEntry(NamedTuple):
    family: str  # "P" (power-conjugate), "W" (power of image), "C" (mixed)
    index: tuple[int, ...]  # generator positions, 1=w 2=y 3=z 4=x
    residual: tuple[int, int]  # exponent discrepancy (z part mod M, x part mod N)

    @property
    def passed(self) -> bool:
        return self.residual == (0, 0)


class ConsistencyReport(NamedTuple):
    entries: tuple[ConsistencyEntry, ...]

    @property
    def overall(self) -> bool:
        """Every identity holds: each residual is read once, here, and
        compared with (0, 0)."""
        return all(residual == (0, 0) for _, _, residual in self.entries)

    def failed(self) -> tuple[ConsistencyEntry, ...]:
        return tuple(e for e in self.entries if not e.passed)

    def require(self) -> None:
        """Raise DomainError naming the failed identities, if any failed.
        A consistent report is read once, by `overall`."""
        if not self.overall:
            raise DomainError(
                "inconsistent presentation: "
                + ", ".join(f"{e.family}{e.index}" for e in self.failed())
            )


class GroupTable(NamedTuple):
    """Multiplication table over element indices, stored implicitly.

    index(w^a1 y^a2 z^a3 x^a4) = ((a1*2 + a2)*M + a3)*N + a4.  Write the
    (w, y) part of an index as its head, 2*a1 + a2, and the (z, x) part as
    its tail.  Row u is fixed by its four prefixes u, u*y, u*w, u*w*y, in
    head order: u*v is the prefix that v's head selects with v's tail
    added on, because x^z = x.  The table is its pair and the three tail
    maps that give those prefixes (see `prefixes`), each the action of w
    or y on the tail as the presentation writes it, NM entries each, so it
    costs 3|G|/4 entries; `mul` looks up one product and `row` yields one
    row.  The pair fixes the rest: the order 4NM, and by the index layout
    the generators w = 2NM, y = NM, z = N and x = 1.
    In this form the table is an extension of the tail by the Klein
    four-group of heads, and `verify_associativity_extension` checks
    associativity on the three maps alone, in O(|G|).

    `text_rows` spells the table as text, the rows of `build --output`'s
    table file.  Row a lists a*v over v in index order, in four quarters,
    one per prefix p of a.  Quarter p lists p*v over the NM v of head 0:
    for each z exponent k of v, the x-run of p*z^k, its x-coset run from
    it onward and wrapping around.  The quarters of the M elements of one
    head and one x exponent are rotations of one sequence of M x-runs, so
    each is one slice of a strip, that sequence spelled twice.  Each x-run
    is itself spelled once as "run run", so its rotation by x is one slice
    too, and a strip is one join of M slices.  The 4N strips hold 2N
    numerals per element.

    The prefixes are found one head at a time, not one row at a time: the
    rows of head h take prefix 1 from the y map, prefix 2 from the w map
    (the one past y when h holds y) and prefix 3 from both, so three list
    comprehensions over the maps give the quarters of all order/4 rows of
    the head, and a row is four slices.  Every row lists each numeral
    once, so all rows have one length.  The rows are made from O(N*order)
    text, never from the table's order**2 entries.
    """

    pair: SdPair
    ty: list[int]  # tail of z^i x^j y, at position i*N + j
    tw: list[int]  # tail of z^i x^j w
    tw_past_y: list[int]  # tail of y z^i x^j w

    @property
    def order(self) -> int:
        return 4 * self.pair.N * self.pair.M

    def prefixes(self, u: int) -> tuple[int, int, int, int]:
        """The prefixes of u: u, u*y, u*w and u*w*y, prefix k at position k.

        Prefix k has u's head xor k.  Its tail is u's tail sent through the
        w map if k holds w (the one past y when u's head holds y), and
        then through the y map if k holds y.  All four come from one call,
        which reads the maps once: `row` needs every prefix of u."""
        block, ty = self.order // 4, self.ty
        head, tail = divmod(u, block)
        w_tail = (self.tw_past_y if head & 1 else self.tw)[tail]
        return (
            u,
            (head ^ 1) * block + ty[tail],
            (head ^ 2) * block + w_tail,
            (head ^ 3) * block + ty[w_tail],
        )

    def text_rows(self) -> Iterator[str]:
        """Row a of the table as text, for a = 0, 1, ..., order - 1: its
        numerals joined by spaces and ended by a newline.  See the class
        docstring for the strips and quarters they are sliced from."""
        N, block = self.pair.N, self.order // 4
        numerals = [str(i) for i in range(self.order)]
        widths = [len(s) + 1 for s in numerals]  # a numeral and the space after it
        quarters: list = [None] * self.order  # element -> (strip, start, stop)
        for first in range(0, self.order, block):  # the first element of each head
            runs = []  # (an x-run spelled twice, its length, where each numeral starts)
            for base in range(first, first + block, N):
                run = " ".join(numerals[base : base + N])
                at = list(accumulate(widths[base : base + N - 1], initial=0))
                runs.append((f"{run} {run}", len(run), at))
            starts = list(accumulate([n + 1 for _, n, _ in runs], initial=0))
            length = starts.pop() - 1
            for x in range(N):
                sequence = " ".join([twice[at[x] : at[x] + n] for twice, n, at in runs])
                strip = f"{sequence} {sequence}"
                quarters[first + x : first + block : N] = [(strip, s, s + length) for s in starts]

        ty = self.ty
        for head in range(4):
            w_map = self.tw_past_y if head & 1 else self.tw
            y_at, w_at, wy_at = (head ^ 1) * block, (head ^ 2) * block, (head ^ 3) * block
            for (s0, b0, e0), (s1, b1, e1), (s2, b2, e2), (s3, b3, e3) in zip(
                quarters[head * block : (head + 1) * block],
                [quarters[y_at + i] for i in ty],
                [quarters[w_at + i] for i in w_map],
                [quarters[wy_at + ty[i]] for i in w_map],
            ):
                yield f"{s0[b0:e0]} {s1[b1:e1]} {s2[b2:e2]} {s3[b3:e3]}\n"

    def mul(self, a: int, b: int) -> int:
        """Index of a * b: the prefix of a that b's head selects, with b's
        tail added on.  Only the maps that prefix needs are read.  The tail
        is reduced modulo (M, N), so a map entry outside its block does not
        show here; it shows in `row`, the tests' reader of whole rows."""
        N, M = self.pair.N, self.pair.M
        head, tail = divmod(b, M * N)
        ahead, ptail = divmod(a, M * N)
        if head & 2:
            ptail = (self.tw_past_y if ahead & 1 else self.tw)[ptail]
        if head & 1:
            ptail = self.ty[ptail]
        return ((ahead ^ head) * M + (ptail // N + tail // N) % M) * N + (ptail + tail) % N

    def row(self, a: int) -> list[int]:
        """Row a of the table: a * v for v = 0, 1, ..., order - 1.

        The products of prefix p with the v of one head and one z exponent
        are the x-range of one z-coset, rotated to start at p's x
        exponent: two ranges of indices.
        """
        N, M = self.pair.N, self.pair.M
        out: list[int] = []
        for p in self.prefixes(a):
            phead, ptail = divmod(p, M * N)
            pz, px = divmod(ptail, N)
            for vz in range(M):
                base = (phead * M + (pz + vz) % M) * N
                out += range(base + px, base + N)
                out += range(base, base + px)
        return out


def pc_from_tuple_a(pair: SdPair, t: TupleA) -> PcData:
    """The presentation of a four-field tuple: that of its six-field
    embedding, with no cross-action (r = b = 0)."""
    return pc_from_tuple_b(pair, TupleA(*t).to_tuple_b())


def pc_from_tuple_b(pair: SdPair, t: TupleB) -> PcData:
    r, a, s, b, tt, c = TupleB(*t).reduced(pair)
    return PcData(
        pair=pair,
        W=((pair.beta, 0), (b, (1 + s) % pair.N)),
        Y=(((1 + a) % pair.M, r), (0, pair.alpha)),
        v=(c, tt),
    )


def _apply(pair: SdPair, lin, v) -> tuple[int, int]:
    """The image of the tail v = (z exponent, x exponent) under the linear
    map lin = (image of z, image of x), reduced mod (M, N)."""
    (zz, zx), (xz, xx) = lin
    return (v[0] * zz + v[1] * xz) % pair.M, (v[0] * zx + v[1] * xx) % pair.N


def _compose(pair: SdPair, outer, inner):
    """The linear map outer after inner, as its (image of z, image of x)."""
    return _apply(pair, outer, inner[0]), _apply(pair, outer, inner[1])


def check_consistency(pc: PcData) -> ConsistencyReport:
    """Evaluate the sixteen overlap identities on the tail maps W and Y, in
    one pass.

    Three families, with e = (2, 2, M, N) the relative orders:
      P(i, j): conjugating g_j by g_i e_i times returns g_j;
      W(i, j): the e_j-th power of the image g_j^(g_i) is trivial;
      C(i, j, k): (g_k^(g_j))^(g_i) equals (g_k^(g_i))^(g_j^(g_i)).
    A tail is conjugated by a word through the word's w/y letters only,
    which is exact because the tail commutes with z and x: w acts as W, y
    as Y and z as I.  With u_3, u_4 the tails of z and x and v = (c, t)
    that of y^w, P(1, 2) = (I + W)v, W(1, 2) = (I + Y)v, P(i, j) =
    g_i^2 u_j - u_j, W(i, j) = e_j g_i(u_j) and C(i, j, k) = g_i g_j u_k -
    g_j g_i u_k, as the inner conjugator g_j^(g_i) acts on a tail as g_j
    does: y^w acts as y, while z^w and z^y lie in the tail.  Each residual
    is the leftover (z exponent, x exponent) pair, z part mod M and x part
    mod N.  As z acts as I, P(3, 4), W(3, 4) = (0, N), C(1, 3, 4) and
    C(2, 3, 4) vanish for every presentation.

    Each residual is written out from the entries of W, Y and v and
    reduced once, at the end.  A map is applied to v or to a stored image,
    never to another application's output, and each part is reduced by
    the modulus it ends in, so reducing only at the end gives the same
    residual as reducing after every step.  Only + - * % are used, so the
    function runs unchanged on any number type with them.
    """
    pair, ((wzz, wzx), (wxz, wxx)), ((yzz, yzx), (yxz, yxx)), (c, t) = pc
    M, N = pair.M, pair.N
    E = ConsistencyEntry
    return ConsistencyReport((
        E("P", (1, 2), ((c + c * wzz + t * wxz) % M, (t + c * wzx + t * wxx) % N)),
        E("P", (1, 3), ((wzz * wzz + wzx * wxz - 1) % M, (wzz * wzx + wzx * wxx) % N)),
        E("P", (1, 4), ((wxz * wzz + wxx * wxz) % M, (wxz * wzx + wxx * wxx - 1) % N)),
        E("P", (2, 3), ((yzz * yzz + yzx * yxz - 1) % M, (yzz * yzx + yzx * yxx) % N)),
        E("P", (2, 4), ((yxz * yzz + yxx * yxz) % M, (yxz * yzx + yxx * yxx - 1) % N)),
        E("P", (3, 4), (0, 0)),
        E("W", (1, 2), ((c + c * yzz + t * yxz) % M, (t + c * yzx + t * yxx) % N)),
        E("W", (1, 3), (M * wzz % M, M * wzx % N)),
        E("W", (1, 4), (N * wxz % M, N * wxx % N)),
        E("W", (2, 3), (M * yzz % M, M * yzx % N)),
        E("W", (2, 4), (N * yxz % M, N * yxx % N)),
        E("W", (3, 4), (0, 0)),
        E("C", (1, 2, 3), (
            (yzz * wzz + yzx * wxz - wzz * yzz - wzx * yxz) % M,
            (yzz * wzx + yzx * wxx - wzz * yzx - wzx * yxx) % N,
        )),
        E("C", (1, 2, 4), (
            (yxz * wzz + yxx * wxz - wxz * yzz - wxx * yxz) % M,
            (yxz * wzx + yxx * wxx - wxz * yzx - wxx * yxx) % N,
        )),
        E("C", (1, 3, 4), (0, 0)),
        E("C", (2, 3, 4), (0, 0)),
    ))


def _tail_map(pair: SdPair, lin, shift: Sequence[int] = (0, 0)) -> list[int]:
    """Image of every tail z^i x^j under the linear map lin (W or Y of a
    PcData), at position i*N + j, as a tail index.

    The images of z^i and of x^j come from _apply, and each image adds
    shift: the (z, x) exponents of each are given as a pair."""
    N, M = pair.N, pair.M
    run = [_apply(pair, lin, (0, j)) for j in range(N)]
    out: list[int] = []
    for i in range(M):
        iz, ix = _apply(pair, lin, (i, 0))
        iz, ix = iz + shift[0], ix + shift[1]
        out += [(iz + a) % M * N + (ix + b) % N for a, b in run]
    return out


def build_table(pc: PcData, consistency: ConsistencyReport | None = None) -> GroupTable:
    """Build the implicit multiplication table: three tail maps of NM entries.

    Requires a consistent presentation: `consistency` is the report of
    check_consistency(pc), computed here when the caller has none.  Right
    multiplication by y flips the head's y and conjugates the tail z^i x^j
    by y; by w it flips the head's w and conjugates the tail by w, adding
    the (c, t) of y^w = y z^c x^t when the head holds y.  Both conjugations
    are linear maps of the abelian tail, W and Y of the PcData: Y makes ty,
    W makes tw, and tw_past_y is tw shifted by its v, the z^c x^t of y^w.
    The consistency check above is what makes these relations a
    well-defined action on the tail.  The product u*v is then the prefix of
    u that v's (w, y) head k selects (GroupTable.prefixes), shifted by v's
    tail z^vz x^vx.  `audit_table` checks that every row and every column of
    that table is a permutation, in O(|G|):

    - Row u is the four blocks {prefix_k(u) z^i x^j}, one per (w, y)
      head, since prefix_k(u) has u's head xor k.  So row u is a
      permutation once each prefix lies in G.
    - Column v is u -> shift(prefix_k(u), vz, vx), and the shift is a
      bijection of G.  So column v is a permutation iff the tail maps
      that k applies are permutations of range(NM), which also puts every
      prefix in G.  The audit thus accepts exactly the tables that the
      full row and column scans accept.
    """
    if consistency is None:
        consistency = check_consistency(pc)
    consistency.require()
    pair, W, Y, v = pc
    N, M = pair.N, pair.M
    order = 4 * N * M
    if order > DEFAULT_MAX_ORDER:
        raise CapacityError(f"table too large: order {order} exceeds cap {DEFAULT_MAX_ORDER}")
    g = GroupTable(
        pair=pair,
        ty=_tail_map(pair, Y),
        tw=_tail_map(pair, W),
        tw_past_y=_tail_map(pair, W, shift=v),
    )
    audit_table(g)
    return g


def audit_table(g: GroupTable) -> None:
    """Raise RuntimeError unless every row and every column of g is a
    permutation; build_table's docstring shows why it suffices that each
    tail map is a permutation of range(NM).

    Each map is range-checked and then marked in a bytearray.  A failure
    names the first failing column of the table by its element's index:
    y (NM) when ty fails, else w (2NM), the first column that reads tw and
    tw_past_y."""
    block = g.order // 4
    for column, tails in ((block, g.ty), (2 * block, g.tw), (2 * block, g.tw_past_y)):
        seen = bytearray(block)
        if len(tails) == block and min(tails) >= 0 and max(tails) < block:
            for t in tails:
                seen[t] = 1
        if 0 in seen:
            raise RuntimeError(
                f"internal: column {column} of the product table is not a permutation"
            )


def _check_index(g: GroupTable, e: int) -> None:
    if not isinstance(e, int) or not 0 <= e < g.order:
        raise DomainError(f"element index out of range: {e!r}")


def subgroup_closure(g: GroupTable, generators: tuple[int, ...] | list[int]) -> tuple[int, ...]:
    """Sorted element indices of the closure of the generators, breadth
    first from the identity."""
    for e in generators:
        _check_index(g, e)
    mul = g.mul
    seen = {0}
    queue = [0]
    for cur in queue:  # queue grows while iterating
        for gen in generators:
            nxt = mul(cur, gen)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return tuple(sorted(seen))


def is_normal(g: GroupTable, h: tuple[int, ...]) -> bool:
    """h is normal exactly when it is its own core."""
    return len(core_of(g, h)) == len(h)


def core_of(g: GroupTable, h: tuple[int, ...]) -> tuple[int, ...]:
    """Largest normal subgroup inside h, as sorted element indices: one
    pass of K <- K meet K^s over s = w, y, z, x, in that order.  Each step
    keeps every normal subgroup inside K, and the result is normal, so it
    is the core.  w and y are involutions, z^-1 = z^(M-1), x^-1 = x^(N-1).

    The result is normal.  T = <z, x> is abelian and normal, G/T is {1, w,
    y, wy}, and yw = wyv, v the tail of y^w.  With T written additively, an
    e of head k has e^tau = e [e, tau], [e, tau] = (I - L_k)tau for a
    linear L_k.  The w and y steps give K2 = h meet h^w meet h^y meet h^wy,
    so K2^y = K2, and w and y map A = K2 meet T into itself.  Meeting K
    with K^tau keeps K meet T and the e in K with (I - L_k)tau in it, so
    the z and x steps keep A and the e whose head sends z and x, hence all
    of T, into A: the result K4 is mapped into itself by z and x.  As K2^w
    is h^w meet h meet (h^wy)^v meet (h^y)^v, and e^w for e in K4 differs
    from elements of h^y and h^wy by (I - L_k)v in A, K4^w lies in K4; so
    does K4^y, as K2^y = K2.  The proof needs w and y first, so that the z
    and x steps test heads against A, which w and y map into itself.
    """
    mul = g.mul
    N, M = g.pair.N, g.pair.M
    w, y = 2 * M * N, M * N  # the indices of w, y, z = N and x = 1
    core = set(h)
    for si, s in ((w, w), (y, y), ((M - 1) * N, N), (N - 1, 1)):
        core &= {mul(mul(si, e), s) for e in core}
    return tuple(sorted(core))


def verify_associativity_exhaustive(g: GroupTable, max_order: int = DEFAULT_ASSOC_CAP) -> bool:
    """Check (ab)c == a(bc) for all order**3 triples, on rows built here."""
    if g.order > max_order:
        raise CapacityError(ASSOC_CAP_MESSAGE.format(order=g.order, cap=max_order))
    product = [g.row(a) for a in range(g.order)]
    rng = range(len(product))
    for a in range(g.order):
        row_a = product[a]
        get_a = row_a.__getitem__
        for b in rng:
            if product[row_a[b]] != list(map(get_a, product[b])):
                return False
    return True


def _affine_part(g: GroupTable, tails: list[int]):
    """(c, L(z), L(x)) when the tail map `tails` is tau -> c + L tau, with
    L a well-defined linear map of the tail Z_M x Z_N; else None.  Tails
    are (z exponent, x exponent) pairs.

    c, L(z) and L(x) are read off the images of 1, z and x.  L is well
    defined when M L(z) = 0 and N L(x) = 0: otherwise z^M = 1 and x^N = 1
    would have images other than 1.  Then each z-row i of the map must
    be c + i L(z) plus the run j L(x), entry by entry."""
    N, M = g.pair.N, g.pair.M
    c = divmod(tails[0], N)
    lz = ((tails[N] // N - c[0]) % M, (tails[N] - c[1]) % N)
    lx = ((tails[1] // N - c[0]) % M, (tails[1] - c[1]) % N)
    if M * lz[1] % N or N * lx[0] % M:
        return None
    run = [(j * lx[0], j * lx[1]) for j in range(N)]
    for i in range(M):
        rz, rx = c[0] + i * lz[0], c[1] + i * lz[1]
        if tails[i * N : i * N + N] != [(rz + a) % M * N + (rx + b) % N for a, b in run]:
            return None
    return c, lz, lx


def verify_associativity_extension(g: GroupTable) -> bool:
    """Associativity of g as an extension of the abelian tail T = <z, x>
    by the Klein four-group {1, w, y, wy} of heads, read off the three
    tail maps: 3 * order / 4 lookups and O(1) identities.

    Write u = (h, tau) with head h and tail tau.  By GroupTable.prefixes,
    u * v for v = (k, sigma) is (h xor k, phi_hk(tau) + sigma), where
    phi_h0 is the identity, phi_h1 is ty, phi_h2 is tw, or tw_past_y when
    h holds y, and phi_h3 is ty after phi_h2.  Then (uv)v' = u(vv') for
    v' = (l, rho) reads

        phi_(h xor k)l(phi_hk(tau) + sigma) = phi_h(k xor l)(tau) + phi_kl(sigma).

    h = k = 0 makes each L_l = phi_0l additive, so linear on T.  k = 0
    then gives phi_hl(sigma) = c_hl + L_l sigma with c_hl = phi_hl(0).
    With every phi affine, the two sides are affine in tau and sigma, and
    they are equal exactly when their coefficients are:

    (a) ty, tw and tw_past_y are affine, with well-defined linear parts,
        and tw and tw_past_y have the same one (so phi_hk has linear part
        L_k for every h; L_3 = L_1 L_2);
    (b) L_l L_k = L_(k xor l) for all k, l: 16 identities on the images
        of z and x;
    (c) c_(h xor k)l + L_l c_hk = c_h(k xor l) + c_kl for all 64 triples.

    This is the factor-set condition of a group extension (Brown,
    *Cohomology of Groups*, GTM 87, section IV.3).  (c) with k = 0 puts
    c_0l = 0, so the element 0 is an identity.  The certificate reads the
    built maps, never the presentation's exponents, so it checks
    build_table against check_consistency.
    """
    pair = g.pair
    N, M = pair.N, pair.M
    parts = [_affine_part(g, tails) for tails in (g.ty, g.tw, g.tw_past_y)]
    if None in parts or parts[1][1:] != parts[2][1:]:
        return False
    (cy, *ly), (cw, *lw), (cwy, _, _) = parts

    def add(u, v):
        return (u[0] + v[0]) % M, (u[1] + v[1]) % N

    lin = [((1, 0), (0, 1)), ly, lw, _compose(pair, ly, lw)]
    const = [
        [(0, 0), cy, c2, add(cy, _apply(pair, ly, c2))] for c2 in (cw, cwy, cw, cwy)
    ]
    return all(
        _apply(pair, lin[l], lin[k][i]) == lin[k ^ l][i]
        for k in range(4)
        for l in range(4)
        for i in (0, 1)
    ) and all(
        add(const[h ^ k][l], _apply(pair, lin[l], const[h][k])) == add(const[h][k ^ l], const[k][l])
        for h in range(4)
        for k in range(4)
        for l in range(4)
    )
