"""Polycyclic collection engine for the four-generator presentations.

Generators are ordered w, y, z, x with relative orders 2, 2, M, N.  Every
element has a unique normal form w^a1 y^a2 z^a3 x^a4 with a1, a2 in {0, 1},
a3 modulo M and a4 modulo N.  The engine stores the conjugation data

    y^w = y z^c x^t      z^w = z^beta      x^w = z^b x^(1+s)
    z^y = z^(1+a) x^r    x^y = x^alpha     x^z = x

and multiplies normal forms by moving the right factor's letters into
place.  x^z = x is hard-wired: z and x always commute here.

Consistency of such a presentation is decided by sixteen overlap
identities, evaluated below by actually iterating the conjugation maps.
The module deliberately never consults the congruence module for this;
the two are independent routes to the same classification and are played
against each other in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .arith import SdPair
from .congruence import TupleA, TupleB
from .errors import CapacityError, DomainError

DEFAULT_MAX_ORDER = 1 << 20
DEFAULT_ASSOC_CAP = 512
ASSOC_CAP_MESSAGE = "table too large for the cubic scan: order {order} exceeds cap {cap}"


class NormalForm(NamedTuple):
    w: int
    y: int
    z: int
    x: int


@dataclass(frozen=True)
class PcData:
    """Conjugation exponents of one presentation, everything reduced."""

    pair: SdPair
    yw_zexp: int  # c  in y^w = y z^c x^t
    yw_xexp: int  # t
    xw_zexp: int  # b  in x^w = z^b x^(1+s)
    xw_xexp: int  # 1+s
    zy_zexp: int  # 1+a in z^y = z^(1+a) x^r
    zy_xexp: int  # r


class ConsistencyEntry(NamedTuple):
    family: str  # "P" (power-conjugate), "W" (power of image), "C" (mixed)
    index: tuple[int, ...]  # generator positions, 1=w 2=y 3=z 4=x
    passed: bool
    residual: tuple[int, int]  # exponent discrepancy (z part mod M, x part mod N)


@dataclass(frozen=True)
class ConsistencyReport:
    entries: tuple[ConsistencyEntry, ...]

    @property
    def overall(self) -> bool:
        return all(e.passed for e in self.entries)

    def failed(self) -> tuple[ConsistencyEntry, ...]:
        return tuple(e for e in self.entries if not e.passed)


@dataclass
class GroupTable:
    """Multiplication table over element indices, stored implicitly.

    index(w^a1 y^a2 z^a3 x^a4) = ((a1*2 + a2)*M + a3)*N + a4.  Write the
    (w, y) part of an index as its head, 2*a1 + a2, and the (z, x) part as
    its tail.  Row u is fixed by its four prefixes u, u*y, u*w, u*w*y,
    stored as indices in head order: u*v is the prefix that v's head
    selects with v's tail added on, because x^z = x.  So the table costs
    O(|G|) memory; `mul` looks up one product and `row` yields one row.
    """

    pair: SdPair
    order: int
    prefixes: list[tuple[int, int, int, int]]
    consistency: ConsistencyReport  # the check build_table made before building
    gen_w: int
    gen_y: int
    gen_z: int
    gen_x: int

    def mul(self, a: int, b: int) -> int:
        """Index of a * b."""
        N, M = self.pair.N, self.pair.M
        head, tail = divmod(b, M * N)
        phead, ptail = divmod(self.prefixes[a][head], M * N)
        return (phead * M + (ptail // N + tail // N) % M) * N + (ptail + tail) % N

    def row(self, a: int) -> list[int]:
        """Row a of the table: a * v for v = 0, 1, ..., order - 1."""
        N, M = self.pair.N, self.pair.M
        out: list[int] = []
        for p in self.prefixes[a]:
            phead, ptail = divmod(p, M * N)
            pz, px = divmod(ptail, N)
            xs = [(px + vx) % N for vx in range(N)]
            for vz in range(M):
                zpart = (phead * M + (pz + vz) % M) * N
                out += [zpart + x for x in xs]
        return out


@dataclass(frozen=True)
class SubgroupHandle:
    elements: tuple[int, ...]  # sorted element indices
    generators: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def pc_from_tuple_a(pair: SdPair, t: TupleA) -> PcData:
    a, s, tt, c = TupleA(*t).reduced(pair)
    return PcData(
        pair=pair,
        yw_zexp=c,
        yw_xexp=tt,
        xw_zexp=0,
        xw_xexp=(1 + s) % pair.N,
        zy_zexp=(1 + a) % pair.M,
        zy_xexp=0,
    )


def pc_from_tuple_b(pair: SdPair, t: TupleB) -> PcData:
    r, a, s, b, tt, c = TupleB(*t).reduced(pair)
    return PcData(
        pair=pair,
        yw_zexp=c,
        yw_xexp=tt,
        xw_zexp=b,
        xw_xexp=(1 + s) % pair.N,
        zy_zexp=(1 + a) % pair.M,
        zy_xexp=r,
    )


def _conj_by_w(pc: PcData, ze: int, xe: int) -> tuple[int, int]:
    """Image of z^ze x^xe under conjugation by w."""
    return (
        (pc.pair.beta * ze + pc.xw_zexp * xe) % pc.pair.M,
        pc.xw_xexp * xe % pc.pair.N,
    )


def _conj_by_y(pc: PcData, ze: int, xe: int) -> tuple[int, int]:
    """Image of z^ze x^xe under conjugation by y."""
    return (
        pc.zy_zexp * ze % pc.pair.M,
        (pc.zy_xexp * ze + pc.pair.alpha * xe) % pc.pair.N,
    )


def collect_multiply(pc: PcData, u: NormalForm, v: NormalForm) -> NormalForm:
    """Normal form of u * v.

    The letters of v are absorbed left to right: its w moves past u's
    tail (conjugating the tail, and turning a y it passes into y z^c x^t),
    then its y, then the abelian tail adds up.  w and y are involutions,
    so conjugation by the generator equals conjugation by its inverse.
    """
    N, M = pc.pair.N, pc.pair.M
    uw, uy, uz, ux = u
    vw, vy, vz, vx = v
    if vw:
        uz, ux = _conj_by_w(pc, uz, ux)
        if uy:
            uz = (uz + pc.yw_zexp) % M
            ux = (ux + pc.yw_xexp) % N
        uw ^= 1
    if vy:
        uz, ux = _conj_by_y(pc, uz, ux)
        uy ^= 1
    return NormalForm(uw, uy, (uz + vz) % M, (ux + vx) % N)


def _iterate_conj(fn, ze: int, xe: int, times: int) -> tuple[int, int]:
    """Apply a conjugation map repeatedly; a fixed point ends the walk early."""
    for _ in range(times):
        nze, nxe = fn(ze, xe)
        if (nze, nxe) == (ze, xe):
            return ze, xe
        ze, xe = nze, nxe
    return ze, xe


def check_consistency(pc: PcData) -> ConsistencyReport:
    """Evaluate the sixteen overlap identities by iterated conjugation.

    Three families, with e = (2, 2, M, N) the relative orders:
      P(i, j): conjugating g_j by g_i e_i times returns g_j;
      W(i, j): the e_j-th power of the image g_j^(g_i) is trivial;
      C(i, j, k): (g_k^(g_j))^(g_i) equals (g_k^(g_i))^(g_j^(g_i)).
    A tail in the abelian part is conjugated by a word through the word's
    w/y letters only, which is exact because the tail commutes with z and x.
    Each residual is the leftover (z exponent, x exponent) pair.
    """
    N, M = pc.pair.N, pc.pair.M
    cw = lambda ze, xe: _conj_by_w(pc, ze, xe)  # noqa: E731
    cy = lambda ze, xe: _conj_by_y(pc, ze, xe)  # noqa: E731
    cz = lambda ze, xe: (ze, xe)  # noqa: E731  x^z = x, tails are fixed
    c, t = pc.yw_zexp, pc.yw_xexp
    entries = []

    def add(family: str, index: tuple[int, ...], residual: tuple[int, int]) -> None:
        residual = (residual[0] % M, residual[1] % N)
        entries.append(ConsistencyEntry(family, index, residual == (0, 0), residual))

    # P(1,2): w-conjugating y twice must give back y; track the tail.
    ze, xe = 0, 0
    for _ in range(2):
        ze, xe = cw(ze, xe)
        ze, xe = (ze + c) % M, (xe + t) % N
    add("P", (1, 2), (ze, xe))
    for index, fn, start, times in (
        ((1, 3), cw, (1, 0), 2),
        ((1, 4), cw, (0, 1), 2),
        ((2, 3), cy, (1, 0), 2),
        ((2, 4), cy, (0, 1), 2),
        ((3, 4), cz, (0, 1), M),
    ):
        ze, xe = _iterate_conj(fn, *start, times)
        add("P", index, (ze - start[0], xe - start[1]))

    # W(1,2): the square of y^w = y z^c x^t; the y letters meet and the
    # tail picks up its own y-conjugate.
    ze, xe = cy(c, t)
    add("W", (1, 2), (ze + c, xe + t))
    for index, image, power in (
        ((1, 3), (pc.pair.beta, 0), M),  # z^w raised to the order of z
        ((1, 4), (pc.xw_zexp, pc.xw_xexp), N),  # x^w raised to the order of x
        ((2, 3), (pc.zy_zexp, pc.zy_xexp), M),
        ((2, 4), (0, pc.pair.alpha), N),
        ((3, 4), (0, 1), N),
    ):
        add("W", index, (power * image[0], power * image[1]))

    # C family: conjugate the element two ways.  The inner conjugator
    # g_j^(g_i) acts on a tail through its w/y part: y^w acts as y,
    # while z^w and z^y lie in the tail and act trivially.
    for index, first, second, inner in (
        ((1, 2, 3), cy, cw, cy),  # (z^y)^w vs (z^w)^(y^w)
        ((1, 2, 4), cy, cw, cy),  # (x^y)^w vs (x^w)^(y^w)
        ((1, 3, 4), cz, cw, cz),  # (x^z)^w vs (x^w)^(z^w)
        ((2, 3, 4), cz, cy, cz),  # (x^z)^y vs (x^y)^(z^y)
    ):
        start = (1, 0) if index[2] == 3 else (0, 1)
        lz, lx = second(*first(*start))
        rz, rx = inner(*second(*start))
        add("C", index, (lz - rz, lx - rx))

    report = ConsistencyReport(tuple(entries))
    assert len(report.entries) == 16
    return report


def nf_index(pair: SdPair, nf: NormalForm) -> int:
    return ((nf.w * 2 + nf.y) * pair.M + nf.z) * pair.N + nf.x


def index_nf(pair: SdPair, idx: int) -> NormalForm:
    x = idx % pair.N
    idx //= pair.N
    z = idx % pair.M
    idx //= pair.M
    return NormalForm(idx // 2, idx % 2, z, x)


def build_table(pc: PcData, max_order: int = DEFAULT_MAX_ORDER) -> GroupTable:
    """Build the implicit multiplication table: four prefixes per element.

    Requires a consistent presentation.  The prefixes u, u*y, u*w, u*w*y
    come from collect_multiply; the product u*v is then the prefix that
    v's (w, y) head k selects, shifted by v's tail z^vz x^vx, which is
    exactly collect_multiply unrolled.  `audit_table` checks that every
    row and every column of that table is a permutation, in O(|G|):

    - Column v is u -> shift(prefix_k(u), vz, vx), and the shift is a
      bijection of G.  So every column is a permutation iff each of the
      four prefix maps u -> prefix_k(u) is a bijection on G.
    - Row u is the four blocks {prefix_k(u) z^i x^j}, the block of
      prefix_k(u) being every element with that prefix's (w, y) head.  So
      row u is a permutation iff the heads of its four prefixes are
      pairwise distinct, that is, exactly 0, 1, 2 and 3.

    The row check runs first and puts every prefix inside G, so the
    column check may count distinct prefixes.  Both accept exactly the
    tables that the full row and column scans accept, and they name the
    same first failing row or column.
    """
    report = check_consistency(pc)
    if not report.overall:
        raise DomainError(
            "inconsistent presentation: "
            + ", ".join(f"{e.family}{e.index}" for e in report.failed())
        )
    N, M = pc.pair.N, pc.pair.M
    order = 4 * N * M
    if order > max_order:
        raise CapacityError(f"table too large: order {order} exceeds cap {max_order}")
    elements = (
        NormalForm(w, y, z, x)
        for w in range(2)
        for y in range(2)
        for z in range(M)
        for x in range(N)
    )
    w_letter = NormalForm(1, 0, 0, 0)
    y_letter = NormalForm(0, 1, 0, 0)
    prefixes = []
    for i, u in enumerate(elements):  # u is index_nf(pc.pair, i)
        uw = collect_multiply(pc, u, w_letter)
        prefixes.append((
            i,
            nf_index(pc.pair, collect_multiply(pc, u, y_letter)),
            nf_index(pc.pair, uw),
            nf_index(pc.pair, collect_multiply(pc, uw, y_letter)),
        ))
    g = GroupTable(
        pair=pc.pair,
        order=order,
        prefixes=prefixes,
        consistency=report,
        gen_w=2 * M * N,
        gen_y=M * N,
        gen_z=N,
        gen_x=1,
    )
    audit_table(g)
    return g


def audit_table(g: GroupTable) -> None:
    """Raise RuntimeError unless every row and every column of g is a
    permutation; build_table's docstring shows why these checks suffice."""
    block = g.order // 4
    for i, prefix in enumerate(g.prefixes):
        if {p // block for p in prefix} != {0, 1, 2, 3}:
            raise RuntimeError(f"internal: row {i} of the product table is not a permutation")
    for k in range(4):
        if len({prefix[k] for prefix in g.prefixes}) != g.order:
            raise RuntimeError(
                f"internal: column {k * block} of the product table is not a permutation"
            )


def _check_index(g: GroupTable, e: int) -> None:
    if not isinstance(e, int) or not 0 <= e < g.order:
        raise DomainError(f"element index out of range: {e!r}")


def subgroup_closure(g: GroupTable, generators: tuple[int, ...] | list[int]) -> SubgroupHandle:
    """Closure of the generators, breadth first from the identity."""
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
    return SubgroupHandle(elements=tuple(sorted(seen)), generators=tuple(generators))


def inverse_of(g: GroupTable, e: int) -> int:
    """e * v is the identity only where v's head selects the prefix of e
    with head 0; v's tail then cancels that prefix's tail."""
    _check_index(g, e)
    N, M = g.pair.N, g.pair.M
    prefix = g.prefixes[e]
    head = [p // (M * N) for p in prefix].index(0)
    pz, px = divmod(prefix[head], N)
    return (head * M + -pz % M) * N + -px % N


def element_order(g: GroupTable, e: int) -> int:
    _check_index(g, e)
    cur, k = e, 1
    while cur != 0:
        cur = g.mul(cur, e)
        k += 1
    return k


def is_normal(g: GroupTable, h: SubgroupHandle) -> bool:
    """h is normal exactly when it is its own core."""
    return core_of(g, h).order == h.order


def core_of(g: GroupTable, h: SubgroupHandle) -> SubgroupHandle:
    """Largest normal subgroup inside h, from the four generators only:
    K <- K meet K^s over s = w, y, z, x until a full pass leaves K unchanged.
    Then K^s = K for every generator, so K is normal; and a normal subgroup
    inside K lies inside every K^s, so it survives each step."""
    mul = g.mul
    conjugators = [(inverse_of(g, s), s) for s in (g.gen_w, g.gen_y, g.gen_z, g.gen_x)]
    core = set(h.elements)
    while True:
        size = len(core)
        for si, s in conjugators:
            core &= {mul(mul(si, e), s) for e in core}
        if len(core) == size:
            elems = tuple(sorted(core))
            return SubgroupHandle(elements=elems, generators=elems)


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
