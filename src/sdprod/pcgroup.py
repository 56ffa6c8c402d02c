"""Polycyclic presentations of the four-generator products and their tables.

Generators are ordered w, y, z, x with relative orders 2, 2, M, N.  Every
element has a unique normal form w^a1 y^a2 z^a3 x^a4 with a1, a2 in {0, 1},
a3 modulo M and a4 modulo N.  A presentation is its conjugation data

    y^w = y z^c x^t      z^w = z^beta      x^w = z^b x^(1+s)
    z^y = z^(1+a) x^r    x^y = x^alpha     x^z = x

x^z = x is hard-wired: z and x always commute here, so w and y act on
the abelian tail z^i x^j by fixed linear maps.  Once the presentation is
consistent, those maps are its relations: z and x go to the images
written above, and every other tail follows linearly.  The group table
keeps only those maps (see GroupTable).  The images of z and x under w
and y are spelled once, in _conjugations: check_consistency,
PcData.core_orders and build_table all read the tail action from there.

Consistency of such a presentation is decided by sixteen overlap
identities, evaluated below by actually iterating the conjugation maps.
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

from typing import NamedTuple, Sequence

from .arith import SdPair
from .congruence import TupleA, TupleB
from .errors import CapacityError, DomainError

DEFAULT_MAX_ORDER = 1 << 20
DEFAULT_ASSOC_CAP = 512
ASSOC_CAP_MESSAGE = "table too large for the cubic scan: order {order} exceeds cap {cap}"


class PcData(NamedTuple):
    """Conjugation exponents of one presentation, everything reduced."""

    pair: SdPair
    yw_zexp: int  # c  in y^w = y z^c x^t
    yw_xexp: int  # t
    xw_zexp: int  # b  in x^w = z^b x^(1+s)
    xw_xexp: int  # 1+s
    zy_zexp: int  # 1+a in z^y = z^(1+a) x^r
    zy_xexp: int  # r

    def core_orders(self) -> tuple[int, int]:
        """Orders of the cores of <x> and <z> in a consistent presentation,
        in at most log N + log M steps and with no table.

        z and x act trivially on the abelian tail <z, x>, and y^w =
        y z^c x^t, so the conjugations by the involutions w and y commute
        there: G acts on the tail through {1, w, y, wy}, and a subgroup of
        the tail is normal once w and y map it into itself.  The subgroups
        of <x> are the chain <x^d>, d a power of two, one of each order, and
        a conjugate of x^d has the order of x^d; so <x^d> is normal exactly
        when the conjugates of x^d by w and y have z exponent 0.  Then so is
        every <x^2d>, and the core is <x^d> for the least such d, of order
        N/d.  Likewise <z^e>, with x exponent 0.
        """
        N, M = self.pair.N, self.pair.M
        cw, cy = _conjugations(self)
        d = 1
        while d < N and (cw(0, d)[0] or cy(0, d)[0]):
            d *= 2
        e = 1
        while e < M and (cw(e, 0)[1] or cy(e, 0)[1]):
            e *= 2
        return N // d, M // e


class ConsistencyEntry(NamedTuple):
    family: str  # "P" (power-conjugate), "W" (power of image), "C" (mixed)
    index: tuple[int, ...]  # generator positions, 1=w 2=y 3=z 4=x
    passed: bool
    residual: tuple[int, int]  # exponent discrepancy (z part mod M, x part mod N)


class ConsistencyReport(NamedTuple):
    entries: tuple[ConsistencyEntry, ...]

    @property
    def overall(self) -> bool:
        return all(e.passed for e in self.entries)

    def failed(self) -> tuple[ConsistencyEntry, ...]:
        return tuple(e for e in self.entries if not e.passed)

    def require(self) -> None:
        """Raise DomainError naming the failed identities, if any failed."""
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
    added on, because x^z = x.  The table keeps only the three tail maps
    that give those prefixes (see `prefixes`), each the action of w or y on
    the tail as the presentation writes it, NM entries each, so it costs
    3|G|/4 entries; `mul` looks up one product and `row` yields one row.
    In this form the table is an extension of the tail by the Klein
    four-group of heads, and `verify_associativity_extension` checks
    associativity on the three maps alone, in O(|G|).
    """

    pair: SdPair
    order: int
    ty: list[int]  # tail of z^i x^j y, at position i*N + j
    tw: list[int]  # tail of z^i x^j w
    tw_past_y: list[int]  # tail of y z^i x^j w
    gen_w: int
    gen_y: int
    gen_z: int
    gen_x: int

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

    def mul(self, a: int, b: int) -> int:
        """Index of a * b: the prefix of a that b's head selects, with b's
        tail added on.  Only the maps that prefix needs are read."""
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
        yw_zexp=c,
        yw_xexp=tt,
        xw_zexp=b,
        xw_xexp=(1 + s) % pair.N,
        zy_zexp=(1 + a) % pair.M,
        zy_xexp=r,
    )


def _conjugations(pc: PcData):
    """The conjugations by w and by y of the tail, as functions that take
    the exponents (ze, xe) of z^ze x^xe to those of its image.

    This is the one statement of the tail action: check_consistency
    iterates and composes these maps, PcData.core_orders reads the
    conjugates of x^d and z^e off them, and build_table tabulates them
    from the images of z and x.  The exponents are bound once: the checks
    call these maps in loops."""
    N, M, alpha, beta = pc.pair.N, pc.pair.M, pc.pair.alpha, pc.pair.beta
    b, s1, a1, r = pc.xw_zexp, pc.xw_xexp, pc.zy_zexp, pc.zy_xexp

    def by_w(ze: int, xe: int) -> tuple[int, int]:
        return (beta * ze + b * xe) % M, s1 * xe % N

    def by_y(ze: int, xe: int) -> tuple[int, int]:
        return a1 * ze % M, (r * ze + alpha * xe) % N

    return by_w, by_y


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
    cw, cy = _conjugations(pc)
    fixed = lambda ze, xe: (ze, xe)  # noqa: E731  x^z = x, tails are fixed
    # per generator position 1=w 2=y 3=z 4=x: its conjugation of a tail,
    # its relative order, and, for z and x, its exponents as a tail
    conj = {1: cw, 2: cy, 3: fixed, 4: fixed}
    order = {1: 2, 2: 2, 3: M, 4: N}
    unit = {3: (1, 0), 4: (0, 1)}
    tail_pairs = ((1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
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
    for i, j in tail_pairs:
        ze, xe = _iterate_conj(conj[i], *unit[j], order[i])
        add("P", (i, j), (ze - unit[j][0], xe - unit[j][1]))

    # W(1,2): the square of y^w = y z^c x^t; the y letters meet and the
    # tail picks up its own y-conjugate.
    ze, xe = cy(c, t)
    add("W", (1, 2), (ze + c, xe + t))
    for i, j in tail_pairs:
        ze, xe = conj[i](*unit[j])
        add("W", (i, j), (order[j] * ze, order[j] * xe))

    # C family: conjugate the element two ways.  The inner conjugator
    # g_j^(g_i) acts on a tail through its w/y part, as g_j does: y^w
    # acts as y, while z^w and z^y lie in the tail and act trivially.
    for i, j, k in ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)):
        lz, lx = conj[i](*conj[j](*unit[k]))
        rz, rx = conj[j](*conj[i](*unit[k]))
        add("C", (i, j, k), (lz - rz, lx - rx))

    report = ConsistencyReport(tuple(entries))
    assert len(report.entries) == 16
    return report


def _tail_map(pair: SdPair, conj, shift: Sequence[int] = (0, 0)) -> list[int]:
    """Image of every tail z^i x^j under the conjugation conj (one of
    _conjugations), at position i*N + j, as a tail index.

    The map sends z and x to their images under conj, extended linearly
    over the abelian tail, and adds shift to every image: the (z, x)
    exponents of each are given as a pair."""
    N, M = pair.N, pair.M
    z_image, x_image = conj(1, 0), conj(0, 1)
    jz = [j * x_image[0] % M for j in range(N)]
    jx = [j * x_image[1] % N for j in range(N)]
    out: list[int] = []
    for i in range(M):
        iz, ix = i * z_image[0] + shift[0], i * z_image[1] + shift[1]
        out += [(iz + a) % M * N + (ix + b) % N for a, b in zip(jz, jx)]
    return out


def build_table(pc: PcData, consistency: ConsistencyReport | None = None) -> GroupTable:
    """Build the implicit multiplication table: three tail maps of NM entries.

    Requires a consistent presentation: `consistency` is the report of
    check_consistency(pc), computed here when the caller has none.  Right
    multiplication by y flips the head's y and conjugates the tail z^i x^j
    by y; by w it flips the head's w and conjugates the tail by w, adding
    the (c, t) of y^w = y z^c x^t when the head holds y.  Both conjugations
    are linear maps of the abelian tail, given by _conjugations: the y map
    makes ty, the w map makes tw, and tw_past_y is tw shifted by the z^c x^t
    of y^w.  The consistency check above is what makes these relations a
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
    N, M = pc.pair.N, pc.pair.M
    order = 4 * N * M
    if order > DEFAULT_MAX_ORDER:
        raise CapacityError(f"table too large: order {order} exceeds cap {DEFAULT_MAX_ORDER}")
    cw, cy = _conjugations(pc)
    g = GroupTable(
        pair=pc.pair,
        order=order,
        ty=_tail_map(pc.pair, cy),
        tw=_tail_map(pc.pair, cw),
        tw_past_y=_tail_map(pc.pair, cw, shift=(pc.yw_zexp, pc.yw_xexp)),
        gen_w=2 * M * N,
        gen_y=M * N,
        gen_z=N,
        gen_x=1,
    )
    audit_table(g)
    return g


def audit_table(g: GroupTable) -> None:
    """Raise RuntimeError unless every row and every column of g is a
    permutation; build_table's docstring shows why it suffices that each
    tail map is a permutation of range(NM).

    Each map is range-checked and then marked in a bytearray.  A failure
    names the first failing column of the table: y when ty fails, else w,
    the first column that reads tw and tw_past_y."""
    block = g.order // 4
    for column, tails in ((g.gen_y, g.ty), (g.gen_w, g.tw), (g.gen_w, g.tw_past_y)):
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
    """Largest normal subgroup inside h, as sorted element indices, from
    the four generators only: K <- K meet K^s over s = w, y, z, x until a
    full pass leaves K unchanged.  Then K^s = K for every generator, so K
    is normal; and a normal subgroup inside K lies inside every K^s, so it
    survives each step.  The inverses come from the presentation: w and y
    are involutions, z^-1 = z^(M-1) and x^-1 = x^(N-1).

    For every h inside the abelian tail <z, x>, <x> and <z> among them, the
    first pass already reaches the core, and the second only confirms it:
    G acts on the tail through {1, w, y, wy} (see PcData.core_orders), so
    the core is K meet K^w meet K^y meet K^wy, and the w and y steps of one
    pass make exactly that.  Subgroups outside the tail have no such bound.
    """
    mul = g.mul
    N, M = g.pair.N, g.pair.M
    conjugators = [
        (g.gen_w, g.gen_w), (g.gen_y, g.gen_y), ((M - 1) * N, g.gen_z), (N - 1, g.gen_x)
    ]
    core = set(h)
    while True:
        size = len(core)
        for si, s in conjugators:
            core &= {mul(mul(si, e), s) for e in core}
        if len(core) == size:
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
    N, M = g.pair.N, g.pair.M
    parts = [_affine_part(g, tails) for tails in (g.ty, g.tw, g.tw_past_y)]
    if None in parts or parts[1][1:] != parts[2][1:]:
        return False
    (cy, *ly), (cw, *lw), (cwy, _, _) = parts

    def apply(lin, v):
        (zz, zx), (xz, xx) = lin
        return (v[0] * zz + v[1] * xz) % M, (v[0] * zx + v[1] * xx) % N

    def add(u, v):
        return (u[0] + v[0]) % M, (u[1] + v[1]) % N

    lin = [((1, 0), (0, 1)), ly, lw, (apply(ly, lw[0]), apply(ly, lw[1]))]
    const = [
        [(0, 0), cy, c2, add(cy, apply(ly, c2))] for c2 in (cw, cwy, cw, cwy)
    ]
    return all(
        apply(lin[l], lin[k][i]) == lin[k ^ l][i]
        for k in range(4)
        for l in range(4)
        for i in (0, 1)
    ) and all(
        add(const[h ^ k][l], apply(lin[l], const[h][k])) == add(const[h][k ^ l], const[k][l])
        for h in range(4)
        for k in range(4)
        for l in range(4)
    )
