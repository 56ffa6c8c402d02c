"""Coset enumeration over finite presentations, plus structure reporting.

This module is the second, deliberately independent route to the groups
built by the collection engine: a presentation on (at most) the four
generators w, y, z, x is enumerated with a Todd-Coxeter procedure over
a subgroup given by generating words, the trivial subgroup by default.
Coset 0 is the subgroup itself, and a word sends it to the coset of the
word's element.  Over the trivial subgroup the cosets are the elements
of the group, so two words are equal exactly when they end at the same
coset, and the structure report is read straight off that table.
Nothing here is shared with the collection engine in pcgroup; keeping
the two implementations apart is what makes the cross-checks meaningful.

The enumeration strategy is the relator-driven (HLT) variant with row
filling: each subgroup word is first scanned and filled at coset 0;
then cosets are processed in definition order; every relator is
scanned and filled at every live coset; coincidences are merged
immediately, always keeping the smaller coset number; after each coset's
relator scans, its remaining undefined generator images are defined in
column order.  HLT and the lookahead below share one scan
(_Enumeration.scan), which walks a relator from both ends: at a gap of
more than one letter HLT defines the next coset, and the lookahead
stops.  The relators scanned are a rewritten copy, compiled once
per presentation to the table columns they walk: runs of a generator
with a power relator g^k are reduced modulo k, and the relators are
taken shortest first (see _compile_relators).  A doubling lookahead
bounds the waste: when the number of cosets defined reaches a mark
(LOOKAHEAD_FIRST at first), every relator is scanned without defining,
which only fills deductions and merges coincidences, at each live coset
HLT has not processed yet, and the mark is set to twice the number
defined.  A scan at a processed coset could change nothing: HLT left
every relator closed there, definitions only add edges, and coincidence
processing maps closed paths to closed paths.  Runs below the first
mark make the exact sequence of definitions of plain HLT on the
rewritten relators.  The procedure is deterministic, and the finished
table is renumbered in breadth-first order from the identity coset, so
it does not depend on the strategy; it is then audited against the
relators as given: every column must be a permutation, every relator
must close at every coset (a pure power g^k by the cycle lengths of g),
and every subgroup word must fix coset 0.
"""

from __future__ import annotations

import codecs
import functools
import itertools
import re
from typing import Iterable, NamedTuple, Sequence

from .arith import SdPair
from .congruence import CoreSpec, TupleB
from .errors import CapacityError, DomainError

DEFAULT_MAX_COSETS = 10**6
# cosets defined when the first lookahead pass runs; each pass sets the
# next mark to twice the number defined.  Runs that stay below it, such as
# example-6-5 (1,095 definitions), define exactly what plain HLT does on
# the rewritten, shortest-first relators.
LOOKAHEAD_FIRST = 8192
# letters a relator file may spell, ^k repetitions summed.  The relators
# of fp_from_extended spell at most 6(N + M) + 26, under this to (20, 20).
MAX_RELATOR_LETTERS = 1 << 23
GEN_NAMES = ("w", "y", "z", "x")


class RelatorSyntaxError(ValueError):
    """A relator file line that does not parse."""


class _FpFields(NamedTuple):
    ngens: int
    names: tuple[str, ...]
    relators: tuple[tuple[int, ...], ...]


class FpPres(_FpFields):
    """Finite presentation: positive letters 1..ngens, negative inverses.

    The constructor checks the fields; _replace and _make do not."""

    __slots__ = ()

    def __new__(cls, ngens: int, names: tuple[str, ...], relators: tuple[tuple[int, ...], ...]):
        if ngens < 1 or len(names) != ngens:
            raise DomainError("generator names must match the generator count")
        for rel in relators:
            if not rel:
                raise DomainError("empty relator")
            if any(g == 0 or abs(g) > ngens for g in rel):
                raise DomainError(f"relator letter out of range: {rel}")
            if free_reduce(rel) != rel:
                raise DomainError(f"relator not freely reduced: {rel}")
        return super().__new__(cls, ngens, names, relators)


class CosetTable(NamedTuple):
    rows: list[list[int]]  # per coset: images under g1, g1^-1, g2, g2^-1, ...
    count: int

    def walk(self, word: Iterable[int]) -> int:
        """The coset that word (letters as in FpPres.relators) reaches from coset 0."""
        rows, coset = self.rows, 0
        for letter in word:
            coset = rows[coset][_col(letter)]
        return coset


class StructureReport(NamedTuple):
    """Facts read off the coset table of the trivial subgroup."""

    order: int
    gen_orders: dict[str, int]
    h_order: int  # subgroup generated by x and y
    k_order: int  # subgroup generated by z and w
    intersection_order: int
    xz_commutator: tuple[int, int] | None  # [x,z] written as x^e1 z^e2
    core_x_order: int | None
    core_z_order: int | None
    sd_h: bool  # x, y satisfy the defining semidihedral relations
    sd_k: bool


def free_reduce(word: Sequence[int]) -> tuple[int, ...]:
    out: list[int] = []
    for g in word:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def _pow_word(letter: int, e: int) -> tuple[int, ...]:
    if e >= 0:
        return (letter,) * e
    return (-letter,) * (-e)


def fp_from_extended(pair: SdPair, t: TupleB, e1: int, e2: int) -> FpPres:
    """The ten-relator presentation for a six-field tuple.

    [x,z] is set to x^e1 z^e2; with e1 = e2 = 0 this is the presentation
    matching pc_from_tuple_b, which is what the order cross-check uses.
    """
    r, a, s, b, tt, c = TupleB(*t).reduced(pair)
    e1 %= pair.N
    e2 %= pair.M
    W, Y, Z, X = 1, 2, 3, 4
    relators = (
        _pow_word(X, pair.N),
        _pow_word(Y, 2),
        _pow_word(Z, pair.M),
        _pow_word(W, 2),
        (-Y, X, Y) + _pow_word(X, -pair.alpha),
        (-W, Z, W) + _pow_word(Z, -pair.beta),
        (-X, -Z, X, Z) + _pow_word(Z, -e2) + _pow_word(X, -e1),
        (-Z, -Y, Z, Y) + _pow_word(Z, -a) + _pow_word(X, -r),
        (-X, -W, X, W) + _pow_word(Z, -b) + _pow_word(X, -s),
        (-Y, -W, Y, W) + _pow_word(Z, -c) + _pow_word(X, -tt),
    )
    return FpPres(ngens=4, names=GEN_NAMES, relators=tuple(free_reduce(r) for r in relators))


_TOKEN_RE = re.compile(r"^([wyzxWYZX])(?:\^(\d+))?$")


def parse_relator_lines(lines: Iterable[str]) -> FpPres:
    """Parse the relator file format.

    One relator per line; tokens from w, y, z, x with uppercase meaning
    the inverse letter and an optional ^k repetition (k >= 1).  Blank
    lines and # comments are skipped.  Generators are numbered in the
    fixed order w, y, z, x restricted to the letters that appear.  More
    than MAX_RELATOR_LETTERS letters raise CapacityError before expansion.
    """
    tokenized: list[list[tuple[str, bool, int]]] = []
    seen: set[str] = set()
    total = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        word: list[tuple[str, bool, int]] = []
        for token in line.split():
            match = _TOKEN_RE.match(token)
            if not match:
                raise RelatorSyntaxError(f"line {lineno}: bad token {token!r}")
            letter, power = match.groups()
            try:
                count = int(power) if power else 1
            except ValueError:  # more digits than int() converts
                count = MAX_RELATOR_LETTERS + 1
            if count < 1:
                raise RelatorSyntaxError(f"line {lineno}: bad repetition in {token!r}")
            total += count
            word.append((letter.lower(), letter.isupper(), count))
            seen.add(letter.lower())
        if not word:
            raise RelatorSyntaxError(f"line {lineno}: empty relator")
        tokenized.append(word)
    if not tokenized:
        raise RelatorSyntaxError("no relators found")
    if total > MAX_RELATOR_LETTERS:
        raise CapacityError(f"relator file too long: over {MAX_RELATOR_LETTERS} letters")
    names = tuple(g for g in GEN_NAMES if g in seen)
    number = {g: i + 1 for i, g in enumerate(names)}
    relators = []
    for word in tokenized:
        letters: list[int] = []
        for sym, inverse, count in word:
            letters.extend(_pow_word(-number[sym] if inverse else number[sym], count))
        reduced = free_reduce(letters)
        if not reduced:
            raise RelatorSyntaxError(f"relator reduces to the empty word: {word}")
        relators.append(reduced)
    return FpPres(ngens=len(names), names=names, relators=tuple(relators))


def parse_relator_file(path: str) -> FpPres:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8-sig")  # a leading byte-order mark is dropped
    except UnicodeDecodeError as exc:
        # utf-8-sig counts from after the mark; the offset is the file's
        offset = exc.start + (len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0)
        raise RelatorSyntaxError(f"not UTF-8 text at byte {offset}") from None
    return parse_relator_lines(text.splitlines())


def _col(letter: int) -> int:
    # columns come in generator/inverse pairs, so col ^ 1 is the inverse
    return 2 * (abs(letter) - 1) + (letter < 0)


@functools.lru_cache(maxsize=1)
def _compile_relators(relators: tuple[tuple[int, ...], ...]) -> list[list[int]]:
    """The relators as the columns HLT scans: power-reduced, shortest first.

    For each generator g with a pure-power relator g^k or g^-k (the least
    such k, the first relator spelling it), a run a^n of a = g or g^-1 in
    the other relators becomes a^e with e = n mod k taken in (-k/2, k/2],
    so only runs longer than k/2 change, and a relator that becomes empty
    is dropped.  These are Tietze transformations, so the group is
    unchanged, and no relator grows.  The result is sorted by length,
    stably: short relators close and deduce first.

    The last presentation's columns are kept: crosscheck enumerates one
    presentation two or three times, and each run scans the same columns
    without changing them, so callers must not change them either.
    """
    period: dict[int, tuple[int, int]] = {}  # g -> (k, index of the relator g^k)
    for i, rel in enumerate(relators):
        g = abs(rel[0])
        if (g not in period or len(rel) < period[g][0]) and rel.count(rel[0]) == len(rel):
            period[g] = (len(rel), i)
    compiled = []
    for i, rel in enumerate(relators):
        cols: list[int] = []
        for letter, run in itertools.groupby(rel):
            n = len(list(run))
            power = period.get(abs(letter))
            if power is not None and power[1] != i:
                k = power[0]
                n %= k
                if 2 * n > k:
                    letter, n = -letter, k - n
            cols += [_col(letter)] * n
        if cols:
            compiled.append(cols)
    compiled.sort(key=len)
    return compiled


def _ends(compiled: list[list[int]]) -> list[tuple[list[int], int, int, int]]:
    """What _Enumeration.scan reads of each compiled relator: its columns,
    the column its scan leaves a coset by at either end, and its length."""
    return [(cols, cols[0], cols[-1] ^ 1, len(cols)) for cols in compiled]


class _Enumeration:
    """Working state of one Todd-Coxeter run."""

    def __init__(self, fp: FpPres, max_cosets: int):
        self.ncols = 2 * fp.ngens
        self.max_cosets = max_cosets
        self.relators = _compile_relators(fp.relators)
        self.rows: list[list[int | None]] = [[None] * self.ncols]
        self.parent = [0]  # union-find over coset numbers, parent[i] <= i
        self.live = 1  # cosets i with parent[i] == i

    def rep(self, k: int) -> int:
        parent = self.parent
        root = k
        while parent[root] != root:
            root = parent[root]
        while parent[k] != root:
            parent[k], k = root, parent[k]
        return root

    def define(self, coset: int, col: int) -> int:
        rows = self.rows
        new = len(rows)
        if new >= self.max_cosets:
            raise CapacityError(
                f"coset limit exceeded: more than {self.max_cosets} cosets defined"
            )
        row = [None] * self.ncols
        row[col ^ 1] = coset
        rows.append(row)
        self.parent.append(new)
        self.live += 1
        rows[coset][col] = new
        return new

    def _merge(self, a: int, b: int, queue: list[int]) -> None:
        parent = self.parent
        if parent[a] != a:
            a = self.rep(a)
        if parent[b] != b:
            b = self.rep(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        parent[b] = a
        self.live -= 1
        queue.append(b)

    def coincidence(self, a: int, b: int) -> None:
        """Identify two cosets and propagate, smaller number survives."""
        rows, parent, rep, merge = self.rows, self.parent, self.rep, self._merge
        queue: list[int] = []
        merge(a, b, queue)
        for dead in queue:  # the queue grows while it is walked
            for col, target in enumerate(rows[dead]):
                if target is None:
                    continue
                inv = col ^ 1
                rows[target][inv] = None
                mu = rep(dead)
                nu = target if parent[target] == target else rep(target)
                mu_row, nu_row = rows[mu], rows[nu]
                if mu_row[col] is not None:
                    merge(nu, mu_row[col], queue)
                elif nu_row[inv] is not None:
                    merge(mu, nu_row[inv], queue)
                else:
                    mu_row[col] = nu
                    nu_row[inv] = mu

    def scan(self, cosets: Iterable[int], relators: list[tuple], defining: bool) -> None:
        """Scan each relator of relators (see _ends) from both ends at each
        coset of cosets, while that coset is live.  A closed scan may give
        a coincidence and a one-letter gap a deduction.  At a longer gap a
        defining scan (HLT) defines the next forward coset and goes on,
        while any other scan (lookahead) stops: it only fills deductions
        and merges coincidences.

        A scan that does not define skips a relator of length at least 2
        at a coset whose row defines neither its first column nor the
        inverse of its last: neither end of that scan can move, so it
        would stop at once, at a gap of the whole relator."""
        rows, parent, coincidence, define = self.rows, self.parent, self.coincidence, self.define
        for coset in cosets:
            row = rows[coset]
            for cols, first, last, n in relators:
                if parent[coset] != coset:
                    break
                if not defining and row[first] is None and row[last] is None and n > 1:
                    continue
                f, i = coset, 0
                b, j = coset, n
                while True:
                    while i < j:
                        nxt = rows[f][cols[i]]
                        if nxt is None:
                            break
                        f = nxt
                        i += 1
                    if i == j:
                        if f != b:
                            coincidence(f, b)
                        break
                    while j > i:
                        nxt = rows[b][cols[j - 1] ^ 1]
                        if nxt is None:
                            break
                        b = nxt
                        j -= 1
                    if j == i:
                        coincidence(f, b)
                        break
                    col = cols[i]
                    if j == i + 1:
                        rows[f][col] = b
                        rows[b][col ^ 1] = f
                        break
                    if not defining:
                        break
                    f = define(f, col)
                    i += 1

    def run(self, subgroup: Sequence[Sequence[int]] = ()) -> None:
        rows, parent, ends, scan = self.rows, self.parent, _ends(self.relators), self.scan
        # coset 0 survives every merge
        scan((0,), _ends([[_col(g) for g in word] for word in subgroup if word]), True)
        mark = LOOKAHEAD_FIRST
        coset = 0
        while coset < len(rows):
            if len(rows) >= mark:
                self.lookahead(coset)
                mark = 2 * len(rows)
            if parent[coset] == coset:  # same as rep(coset) == coset, as parent[i] <= i
                scan((coset,), ends, True)
                if parent[coset] == coset:
                    row = rows[coset]
                    for col in range(self.ncols):
                        if row[col] is None:
                            self.define(coset, col)
            coset += 1

    def lookahead(self, start: int) -> None:
        """Scan every relator without defining at each live coset from
        start, the first one HLT has not processed.

        The cosets below start are skipped because no scan there can
        change anything.  HLT left every relator closed at each of them:
        its scans there were filled, and its missing images defined.
        Definitions only add edges, and coincidence processing maps each
        closed path to a closed path through the representatives, so
        every relator still closes at each live coset below start, and a
        scan there returns to where it began."""
        self.scan(range(start, len(self.rows)), _ends(self.relators), False)

    def compact(self) -> list[list[int]]:
        """Renumber the live cosets breadth first from the identity coset."""
        rep = self.rep
        order: list[int] = [rep(0)]
        new_index = {order[0]: 0}  # coset number, live or merged -> new number
        table = []
        for cur in order:
            new_row = []
            for target in self.rows[cur]:
                if target is None:
                    raise RuntimeError("internal: incomplete row survived the enumeration")
                k = new_index.get(target)
                if k is None:
                    root = rep(target)
                    k = new_index.get(root)
                    if k is None:
                        k = new_index[root] = len(order)
                        order.append(root)
                    new_index[target] = k
                new_row.append(k)
            table.append(new_row)
        if len(order) != self.live:
            raise RuntimeError("internal: coset graph is not connected")
        return table


def coset_enumerate(
    fp: FpPres,
    max_cosets: int = DEFAULT_MAX_COSETS,
    subgroup: Sequence[Sequence[int]] = (),
) -> CosetTable:
    """Enumerate the cosets of the subgroup the words of subgroup generate
    (letters as in FpPres.relators; none for the trivial subgroup) by HLT
    over power-reduced relators taken shortest first, with a doubling
    lookahead: one relator scan, which defines cosets in HLT and does
    not in the lookahead; see the module docstring for the strategy.  The
    count is the subgroup's index, and coset 0 is the subgroup; the table
    is audited against fp's own relators.  Raises CapacityError if the run
    needs more than max_cosets coset definitions, counting every coset
    defined, including ones later merged away."""
    if max_cosets < 1:
        raise DomainError(f"max_cosets must be positive, got {max_cosets}")
    if any(g == 0 or abs(g) > fp.ngens for word in subgroup for g in word):
        raise DomainError(f"subgroup letter out of range: {subgroup}")
    state = _Enumeration(fp, max_cosets)
    state.run(subgroup)
    rows = state.compact()
    table = CosetTable(rows=rows, count=len(rows))
    _audit(fp, table, subgroup)
    return table


def _audit(fp: FpPres, table: CosetTable, subgroup: Sequence[Sequence[int]]) -> None:
    """Check every subgroup word at coset 0 and column bijectivity, then
    re-scan every relator at every coset.

    A pure-power relator g^k is checked in one pass over g's column: as
    that column is a permutation, g^k closes at every coset exactly when
    every cycle of g has a length dividing k."""
    for word in subgroup:
        if table.walk(word) != 0:
            raise RuntimeError("internal: subgroup word does not fix coset 0")
    rows = table.rows
    size = range(table.count)
    for col in range(2 * fp.ngens):
        if {row[col] for row in rows} != set(size):
            raise RuntimeError(f"internal: column {col} is not a permutation")
    for rel in fp.relators:
        cols = [_col(g) for g in rel]
        if cols.count(cols[0]) == len(cols):
            k, col = len(cols), cols[0]
            seen = [False] * table.count
            for start in size:
                if seen[start]:
                    continue
                length, cur = 0, start
                while not seen[cur]:
                    seen[cur] = True
                    cur = rows[cur][col]
                    length += 1
                if k % length:
                    raise RuntimeError("internal: relator does not close on the final table")
            continue
        for start in size:
            cur = start
            for col in cols:
                cur = rows[cur][col]
            if cur != start:
                raise RuntimeError("internal: relator does not close on the final table")


# ---------------------------------------------------------------------------
# Structure read off the table of the trivial subgroup: an element of G is
# the coset it sends coset 0 to.


def _powers(rows: list[list[int]], letter: int) -> list[int]:
    """The cosets of g^0, g^1, ..., g^(k-1), where k is the order of g."""
    col = _col(letter)
    out = [0]
    cur = rows[0][col]
    while cur != 0:
        out.append(cur)
        cur = rows[cur][col]
    return out


def _orbit(rows: list[list[int]], letters: Iterable[int]) -> set[int]:
    """The cosets of the subgroup the letters generate: the orbit of coset 0."""
    cols = [_col(letter) for letter in letters]
    seen = {0}
    queue = [0]
    for cur in queue:  # queue grows while iterating
        for col in cols:
            nxt = rows[cur][col]
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def _core_order(table: CosetTable, powers: list[int], letter: int, ngens: int) -> int:
    """Order of the core of <g>, the largest normal subgroup of G inside <g>.

    The subgroups of <g> are the <g^d> for the divisors d of k = ord(g),
    and <g^d> lies inside <g^e> exactly when e divides d.  A product of
    normal subgroups inside <g> is again one, so the core is the <g^d>
    whose d divides every d' with <g^d'> normal: the least such d.  And
    <g^d> is normal exactly when s^-1 g^d s lies in <g> for every
    generator s.  That conjugate has the order k/d of g^d, and every
    element of <g> of that order generates <g^d>, so then s^-1 <g^d> s =
    <g^d>; conjugation by any element is a product of these conjugations
    and their inverses.
    """
    members = set(powers)
    k = len(powers)

    def normal(d: int) -> bool:
        return all(table.walk((-s, *[letter] * d, s)) in members for s in range(1, ngens + 1))

    # d = k always qualifies: <g^k> is the trivial subgroup
    return k // next(d for d in range(1, k + 1) if k % d == 0 and normal(d))


def _as_x_z_power(rows: list[list[int]], target: int, x_powers: list[int], z: int, z_order: int):
    """The first (i, j) in lexicographic order with x^i z^j at coset target, or None."""
    col = _col(z)
    for i, cur in enumerate(x_powers):
        for j in range(z_order):
            if cur == target:
                return i, j
            cur = rows[cur][col]
    return None


def _is_semidihedral(
    table: CosetTable, powers: dict[int, list[int]], x: int, y: int, pair_order: int
) -> bool:
    """Do x, y generate a semidihedral group of order 2 * order(x)?"""
    n_half = len(powers[x])
    if n_half < 8 or n_half & (n_half - 1) or len(powers[y]) != 2:
        return False
    if pair_order != 2 * n_half:
        return False
    twist = pow(2, n_half.bit_length() - 2) - 1  # 2^(n-2) - 1 for N = 2^(n-1)
    return table.walk((-y, x, y)) == powers[x][twist % n_half]


def structure_report(table: CosetTable, fp: FpPres) -> StructureReport:
    """Read the invariants of the enumerated group off its coset table."""
    rows = table.rows
    letter = {name: i for i, name in enumerate(fp.names, start=1)}
    powers = {g: _powers(rows, g) for g in letter.values()}
    x, y, z, w = (letter.get(name) for name in ("x", "y", "z", "w"))
    h = _orbit(rows, [g for g in (x, y) if g])
    k = _orbit(rows, [g for g in (z, w) if g])
    xz_pair = None
    if x and z:
        commutator = table.walk((-x, -z, x, z))
        xz_pair = _as_x_z_power(rows, commutator, powers[x], z, len(powers[z]))
    return StructureReport(
        order=table.count,
        gen_orders={name: len(powers[g]) for name, g in letter.items()},
        h_order=len(h),
        k_order=len(k),
        intersection_order=len(h & k),
        xz_commutator=xz_pair,
        core_x_order=_core_order(table, powers[x], x, fp.ngens) if x else None,
        core_z_order=_core_order(table, powers[z], z, fp.ngens) if z else None,
        sd_h=bool(x and y) and _is_semidihedral(table, powers, x, y, len(h)),
        sd_k=bool(z and w) and _is_semidihedral(table, powers, z, w, len(k)),
    )


def verify_xz_commutator_location(report: StructureReport, cores: CoreSpec) -> bool:
    """True iff the reported [x,z] lies in the product of the requested cores.

    With trivial intersection of the two factors, x^e1 z^e2 lies in the
    product of the subgroups generated by x^n1 and z^m1 exactly when n1
    divides e1 and m1 divides e2.
    """
    if cores.n1 < 1 or cores.m1 < 1:
        raise DomainError(f"invalid core spec: {cores}")
    if report.xz_commutator is None:
        return False
    e1, e2 = report.xz_commutator
    return e1 % cores.n1 == 0 and e2 % cores.m1 == 0
