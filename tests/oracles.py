"""Oracles for the tests.

Associativity: Light's test, beside the package's cubic scan
(`pcgroup.verify_associativity_exhaustive`); and the indices of the four
generators in a table, which the tests read from `generators`.  The
package checks associativity with the group-extension certificate
(`pcgroup.verify_associativity_extension`), in O(|G|).  Light's test
costs 4 * order**2 lookups; it stays here, as an independent second
answer that reads the table through its rows and columns only.

The presentation: the sixteen overlap identities evaluated step by step
(`consistency_entries`) and the core orders found by doubling
(`doubled_core_orders`), the forms that `pcgroup.check_consistency` and
`PcData.core_orders` had before each became one pass of closed formulas.

The rewrite of coset enumeration: the relators compiled run by run
through `itertools.groupby` and `append_run` (`compiled_relators`), and
a subgroup word spelt one letter at a time (`spelt_subgroup_word`), the
forms that `fpcoset._compile_relators` and `_Enumeration.run` had before
both spelt their words through `fpcoset._spell`.
"""

import itertools
from typing import NamedTuple


class Generators(NamedTuple):
    w: int
    y: int
    z: int
    x: int


def generators(g) -> Generators:
    """The element indices of w, y, z and x in a table g of `g.pair`:
    2NM, NM, N and 1, by the index ((a1*2 + a2)*M + a3)*N + a4 of
    w^a1 y^a2 z^a3 x^a4 (see pcgroup.GroupTable)."""
    N, M = g.pair.N, g.pair.M
    return Generators(2 * N * M, N * M, N, 1)


def generator_columns(g):
    """The columns b -> b*c of c = w, y, z, x of a GroupTable, read off
    its tail maps.

    b*w and b*y are prefixes 2 and 1 of b.  z and x have head 0, so
    b*z and b*x are b, its own prefix 0, with the tail's z or x
    exponent moved on by one: a shift inside b's head block, or inside
    its x-coset."""
    N, block = g.pair.N, g.pair.N * g.pair.M
    prefixes = list(map(g.prefixes, range(g.order)))
    return [
        [p[2] for p in prefixes],
        [p[1] for p in prefixes],
        [b - b % block + (b + N) % block for b in range(g.order)],
        [b - b % N + (b + 1) % N for b in range(g.order)],
    ]


def verify_associativity_generators(g) -> bool:
    """Light's associativity test (Clifford and Preston, *The Algebraic
    Theory of Semigroups* I, 1961, section 1.2): 4 * order**2 lookups in
    O(order) memory.

    Call c good when (ab)c = a(bc) for all a, b.  The good elements are
    closed under products: for good c and d,
    (ab)(cd) = ((ab)c)d = (a(bc))d = a((bc)d) = a(b(cd)).
    So the table is associative once w, y, z and x are good and every
    element is a product of them, that is, once the closure of
    {w, y, z, x} under right multiplication by the four is all of G.
    With R_a the row of a and rho_c the column of c (b -> bc), c is good
    when rho_c after R_a equals R_a after rho_c, for every a.

    False also answers a table that the four do not generate, where the
    test decides nothing.  build_table's tables are all generated: prefix
    0 is u itself by construction, so z and x move through a whole head
    block, and y and w take each block to two others.

    A table that is no GroupTable (the tests' PrefixTable) brings its own
    `generator_columns`, since its prefix 0 need not be the element.
    """
    own = getattr(g, "generator_columns", None)
    columns = own() if own else generator_columns(g)
    products = set(generators(g))
    queue = list(products)
    for cur in queue:  # queue grows while iterating
        for col in columns:
            nxt = col[cur]
            if nxt not in products:
                products.add(nxt)
                queue.append(nxt)
    if len(products) != g.order:
        return False
    for a in range(g.order):
        row = g.row(a)
        for col in columns:
            if [col[v] for v in row] != [row[v] for v in col]:
                return False
    return True


def _apply(pair, lin, v):
    """The image of the tail v = (z exponent, x exponent) under the linear
    map lin = (image of z, image of x), reduced mod (M, N)."""
    (zz, zx), (xz, xx) = lin
    return (v[0] * zz + v[1] * xz) % pair.M, (v[0] * zx + v[1] * xx) % pair.N


def consistency_entries(pc):
    """(family, index, residual) of the sixteen overlap identities of a
    PcData, in `check_consistency`'s order, each map applied and reduced
    one step at a time: P(1, 2) = (I + W)v, W(1, 2) = (I + Y)v, P(i, j) =
    g_i^2 u_j - u_j, W(i, j) = e_j g_i(u_j) and C(i, j, k) = g_i g_j u_k -
    g_j g_i u_k, with w acting as W, y as Y and z as I."""
    pair, W, Y, v = pc
    M, N = pair.M, pair.N
    I = ((1, 0), (0, 1))  # its images z and x are u_3 and u_4
    tail_pairs = ((1, 3, W), (1, 4, W), (2, 3, Y), (2, 4, Y), (3, 4, I))  # (i, j, g_i)
    entries = []

    def add(family, index, residual):
        entries.append((family, index, (residual[0] % M, residual[1] % N)))

    wv, yv = _apply(pair, W, v), _apply(pair, Y, v)
    add("P", (1, 2), (v[0] + wv[0], v[1] + wv[1]))
    for i, j, g in tail_pairs:
        (uz, ux), (gz, gx) = I[j - 3], _apply(pair, g, g[j - 3])
        add("P", (i, j), (gz - uz, gx - ux))
    add("W", (1, 2), (v[0] + yv[0], v[1] + yv[1]))
    for i, j, g in tail_pairs:
        e, (gz, gx) = (M, N)[j - 3], g[j - 3]
        add("W", (i, j), (e * gz, e * gx))
    for i, j, k, gi, gj in ((1, 2, 3, W, Y), (1, 2, 4, W, Y), (1, 3, 4, W, I), (2, 3, 4, Y, I)):
        (lz, lx), (rz, rx) = _apply(pair, gi, gj[k - 3]), _apply(pair, gj, gi[k - 3])
        add("C", (i, j, k), (lz - rz, lx - rx))
    return entries


def doubled_core_orders(pc):
    """The core orders of <x> and <z> of a PcData: the least power of two
    d, capped at N, with z exponent 0 in d W(x) and d Y(x), found by
    doubling d from 1, and e likewise with the x exponents of e W(z) and
    e Y(z); the cores have orders N/d and M/e."""
    pair, W, Y, _ = pc
    d = 1
    while d < pair.N and any(_apply(pair, g, (0, d))[0] for g in (W, Y)):
        d *= 2
    e = 1
    while e < pair.M and any(_apply(pair, g, (e, 0))[1] for g in (W, Y)):
        e *= 2
    return pair.N // d, pair.M // e


def public_column(letter):
    """The public column of a letter as in FpPres.relators: g and g^-1
    take columns 2(g - 1) and 2(g - 1) + 1."""
    return 2 * (abs(letter) - 1) + (letter < 0)


def append_run(cols, col, n, inverse):
    """Append n letters col to the freely reduced cols, keeping it freely
    reduced: each cancels a trailing inverse, and an involution's run
    leaves n mod 2 letters."""
    inv = inverse[col]
    while n and cols and cols[-1] == inv:
        cols.pop()
        n -= 1
    if inv == col:
        n %= 2
    cols += [col] * n


def compiled_relators(ngens, relators):
    """(columns, inverse, compiled, fill) of a presentation: the column
    layout, the relators in internal columns, power-reduced, freely
    reduced and sorted by length, and the words g g^-1, one per internal
    column.  Each run of one letter is found by groupby, reduced modulo
    the least pure power of its generator (unless it is that relator) to
    the shorter equal power, and appended in internal columns through
    append_run."""
    involutions = {abs(rel[0]) for rel in relators if len(rel) == 2 and rel[0] == rel[1]}
    columns, inverse = [], []
    for g in range(1, ngens + 1):
        col = len(inverse)
        if g in involutions:
            columns += [col, col]
            inverse.append(col)
        else:
            columns += [col, col + 1]
            inverse += [col + 1, col]
    period = {}  # g -> (k, index of the relator g^k)
    for i, rel in enumerate(relators):
        g = abs(rel[0])
        if (g not in period or len(rel) < period[g][0]) and rel.count(rel[0]) == len(rel):
            period[g] = (len(rel), i)
    compiled = []
    for i, rel in enumerate(relators):
        cols = []
        for letter, run in itertools.groupby(rel):
            n = len(list(run))
            power = period.get(abs(letter))
            if power is not None and power[1] != i:
                k = power[0]
                n %= k
                if 2 * n > k:
                    letter, n = -letter, k - n
            append_run(cols, columns[public_column(letter)], n, inverse)
        if cols:
            compiled.append(tuple(cols))
    compiled.sort(key=len)
    fill = [(col, inverse[col]) for col in range(len(inverse))]
    return tuple(columns), tuple(inverse), compiled, fill


def spelt_subgroup_word(word, columns, inverse):
    """A subgroup word in internal columns, freely reduced, appended one
    letter at a time."""
    cols = []
    for g in word:
        append_run(cols, columns[public_column(g)], 1, inverse)
    return cols
