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
relator scans, a row that still has a gap is filled by a defining scan
of the words g g^-1, one per column in column order, which defines each
missing image as a new coset.  HLT and the lookahead below share one
scan (_Enumeration.scan), the only code that creates a coset, which
walks a relator from both ends: at a gap of more than one letter a
defining scan (HLT) defines the gap's missing cosets, and the lookahead
stops.  The run works in internal columns, laid out once per
presentation with the relators it scans (see _compile_relators): a
generator named by a relator g g or g^-1 g^-1, an involution, has one
column that is its own inverse, and every other generator one column
for itself and one for its inverse.  The relators scanned are a
rewritten copy in those columns: runs of a generator with a power
relator g^k are reduced modulo k, every relator is freely reduced in
the columns, and the relators are taken shortest first.  As the
relators are freely reduced, a defining scan, once it has defined the
first coset of a gap, defines the rest straight through and deduces
the last letter (see _Enumeration.scan).  A doubling lookahead
bounds the waste: when the number of cosets defined reaches a mark
(LOOKAHEAD_FIRST at first), every relator that uses two or more columns
is scanned without defining, which only fills deductions and merges
coincidences, at each live coset HLT has not processed yet, and the mark
is set to twice the number defined.  A scan at a processed coset could
change nothing: HLT left every relator closed there, definitions only
add edges, and coincidence processing maps closed paths to closed paths.
A relator in one column, such as a pure power g^k, is left to HLT: its
defining scan closes the whole g-cycle it walks, which then stays
closed, so a lookahead scan of it would nearly always walk a closed
cycle and find nothing.  Runs below the first mark make the exact
sequence of definitions of plain HLT on the rewritten relators in the
internal columns.  The procedure is deterministic, and the finished
table is renumbered in breadth-first order from the identity coset and
written in the public layout, two columns per generator, so it does not
depend on the strategy; it is then audited against the relators as
given: every column must be a permutation, every generator's inverse
column must invert its column, every relator must close at every coset
(a pure power g^k by the cycle lengths of g), and every subgroup word
must fix coset 0.

The kernel is written to spend few interpreted operations on each
definition and coincidence.  Merged cosets form a union-find over coset
numbers whose representatives coincidence finds inline, with path
halving; a defining scan appends the new coset's row itself; the scan's
view of the relators (_ends) is built once per presentation; compact
flattens the union-find in one pass, renumbers through a list indexed
by coset number and writes each public row with one itemgetter; and the
audit reads the columns in one pass over the rows and walks each
relator from every coset at once, one letter (one itemgetter) at a
time.  Around the
kernel, one loop (_spell) writes a word in internal columns, run by run,
power-reducing and freely reducing it as it goes: it spells both the
relators of the rewrite and the subgroup words.  The audit spells the
relators as given in public columns, once per presentation
(_public_words), and on purpose not through _spell or the rewrite: it
vouches for the rewrite, so it reads nothing the rewrite made.
"""

from __future__ import annotations

import codecs
import functools
import operator
import re
from typing import Iterable, NamedTuple, Sequence

from .arith import SdPair
from .congruence import TupleB
from .errors import CapacityError, DomainError

DEFAULT_MAX_COSETS = 10**6
# cosets defined when the first lookahead pass runs; each pass sets the
# next mark to twice the number defined.  Runs that stay below it, such as
# example-6-5 (1,058 definitions), define exactly what plain HLT does on
# the rewritten, shortest-first relators in the internal columns.
LOOKAHEAD_FIRST = 8192
# letters a relator file may spell, ^k repetitions summed.  The relators
# of fp_from_extended spell at most 6(N + M) + 26, under this to (20, 20).
MAX_RELATOR_LETTERS = 1 << 23
GEN_NAMES = ("w", "y", "z", "x")


class RelatorSyntaxError(ValueError):
    """A relator file line that does not parse."""


class _FpFields(NamedTuple):
    names: tuple[str, ...]
    relators: tuple[tuple[int, ...], ...]


class FpPres(_FpFields):
    """Finite presentation: positive letters 1..ngens, negative inverses,
    one generator per name.

    The constructor checks the fields; _replace and _make do not."""

    __slots__ = ()

    def __new__(cls, names: tuple[str, ...], relators: tuple[tuple[int, ...], ...]):
        if not names:
            raise DomainError("a presentation needs at least one generator")
        # the letters +-1..+-ngens; a freely reduced relator holds no pair
        # g g^-1, whose sum is 0 (free_reduce(rel) == rel exactly then)
        letters = {*range(1, len(names) + 1), *range(-len(names), 0)}
        for rel in relators:
            if not rel:
                raise DomainError("empty relator")
            if not letters.issuperset(rel):
                raise DomainError(f"relator letter out of range: {rel}")
            if 0 in map(operator.add, rel, rel[1:]):
                raise DomainError(f"relator not freely reduced: {rel}")
        return super().__new__(cls, names, relators)

    @property
    def ngens(self) -> int:
        return len(self.names)


class CosetTable(NamedTuple):
    rows: list[list[int]]  # per coset: images under g1, g1^-1, g2, g2^-1, ...

    @property
    def count(self) -> int:
        return len(self.rows)

    def walk(self, word: Iterable[int]) -> int:
        """The coset that word (letters as in FpPres.relators) reaches from coset 0."""
        rows, coset = self.rows, 0
        for letter in word:
            coset = rows[coset][_col(letter)]
        return coset


class StructureReport(NamedTuple):
    """Facts read off the coset table of the trivial subgroup.  The fields,
    in order, are the keys of tc's report."""

    order: int
    generator_orders: dict[str, int]
    h_order: int  # subgroup generated by x and y
    k_order: int  # subgroup generated by z and w
    intersection_order: int
    xz_commutator: tuple[int, int] | None  # [x,z] written as x^e1 z^e2
    core_x_order: int | None
    core_z_order: int | None
    h_semidihedral: bool  # x, y satisfy the defining semidihedral relations
    k_semidihedral: bool


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
    return FpPres(names=GEN_NAMES, relators=tuple(free_reduce(r) for r in relators))


# [0-9], not \d: \d matches every Unicode decimal digit, which int() reads
_TOKEN_RE = re.compile(r"^([wyzxWYZX])(?:\^([0-9]+))?$")


def parse_relator_lines(lines: Iterable[str]) -> FpPres:
    """Parse the relator file format.

    One relator per line; tokens from w, y, z, x with uppercase meaning
    the inverse letter and an optional ^k repetition (k >= 1, in ASCII
    digits).  Blank
    lines and # comments are skipped.  Generators are numbered in the
    fixed order w, y, z, x restricted to the letters that appear.  More
    than MAX_RELATOR_LETTERS letters raise CapacityError before expansion.
    """
    tokenized: list[tuple[int, list[tuple[str, bool, int]]]] = []
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
        tokenized.append((lineno, word))
    if not tokenized:
        raise RelatorSyntaxError("no relators found")
    if total > MAX_RELATOR_LETTERS:
        raise CapacityError(f"relator file too long: over {MAX_RELATOR_LETTERS} letters")
    names = tuple(g for g in GEN_NAMES if g in seen)
    number = {g: i + 1 for i, g in enumerate(names)}
    relators = []
    for lineno, word in tokenized:
        letters: list[int] = []
        for sym, inverse, count in word:
            letters.extend(_pow_word(-number[sym] if inverse else number[sym], count))
        reduced = free_reduce(letters)
        if not reduced:
            raise RelatorSyntaxError(f"line {lineno}: relator reduces to the empty word")
        relators.append(reduced)
    return FpPres(names=names, relators=tuple(relators))


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
    # public columns come in generator/inverse pairs
    return 2 * (abs(letter) - 1) + (letter < 0)


def _spell(
    word: Sequence[int],
    columns: Sequence[int],
    inverse: Sequence[int],
    period: dict[int, tuple[int, int]] | None = None,
    own: int = -1,
) -> list[int]:
    """word, letters as in FpPres.relators, in internal columns and freely
    reduced there.  Each run a^n of one letter, found by index, cancels
    the trailing inverses it meets, and an involution's run leaves n mod 2
    letters.  period maps a generator g to (k, i), its pure-power relator
    g^k and that relator's index: a run of g or g^-1 in any word but the
    relator own becomes a^e with e = n mod k taken in (-k/2, k/2], and a
    negative e is a run of a's inverse."""
    out: list[int] = []
    i, size = 0, len(word)
    while i < size:
        letter = word[i]
        j = i + 1
        while j < size and word[j] == letter:
            j += 1
        n, i = j - i, j
        col = columns[2 * abs(letter) - 2 + (letter < 0)]  # as _col
        power = period.get(abs(letter)) if period else None
        if power is not None and power[1] != own:
            k = power[0]
            n %= k
            if 2 * n > k:
                n -= k
            if n < 0:
                col, n = inverse[col], -n
        inv = inverse[col]
        while n and out and out[-1] == inv:
            out.pop()
            n -= 1
        if inv == col:
            n %= 2
        out += [col] * n
    return out


_Ends = tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]  # (cols, back, n) per word


@functools.lru_cache(maxsize=1)
def _compile_relators(
    ngens: int, relators: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], tuple[int, ...], _Ends, _Ends]:
    """What every run on one presentation scans: (columns, inverse, ends,
    fill), all tuples.

    A generator named by a relator g g or G G, an involution, has one
    internal column, its own inverse; every other generator has a column
    for itself and one for its inverse.  columns maps each public column
    (see _col) to its internal column, and inverse each internal column to
    its inverse's.  ends holds the relators HLT scans, as _ends gives them:
    in internal columns, power-reduced, freely reduced, shortest first;
    fill holds the words g g^-1, one per internal column in column order,
    likewise.  A defining scan of g g^-1 at a coset whose g-image is
    missing defines that image as a new coset, with its g^-1 edge back,
    and then closes; where the image is defined, it walks there and back.

    For each generator g with a pure-power relator g^k or g^-k (the least
    such k, the first relator spelling it), a run a^n of a = g or g^-1 in
    the other relators becomes a^e with e = n mod k taken in (-k/2, k/2],
    so only runs longer than k/2 change.  Each relator is spelt in
    internal columns and freely reduced there in the same pass (_spell,
    once per relator), where an involution is its own inverse: so g g
    and G G vanish, and so does a run reduced to nothing between a
    letter and its inverse.  A relator that becomes empty is dropped.
    These are Tietze transformations, so the group is unchanged, and no
    relator grows.  The result is sorted by length, stably: short
    relators close and deduce first.

    The last presentation's result is kept: crosscheck enumerates one
    presentation two or three times, and each run scans the same tuples.
    """
    involutions = {abs(rel[0]) for rel in relators if len(rel) == 2 and rel[0] == rel[1]}
    columns: list[int] = []
    inverse: list[int] = []
    for g in range(1, ngens + 1):
        col = len(inverse)
        if g in involutions:
            columns += [col, col]
            inverse.append(col)
        else:
            columns += [col, col + 1]
            inverse += [col + 1, col]
    period: dict[int, tuple[int, int]] = {}  # g -> (k, index of the relator g^k)
    for i, rel in enumerate(relators):
        g = abs(rel[0])
        if (g not in period or len(rel) < period[g][0]) and rel.count(rel[0]) == len(rel):
            period[g] = (len(rel), i)
    compiled = []
    for i, rel in enumerate(relators):
        cols = _spell(rel, columns, inverse, period, i)
        if cols:
            compiled.append(cols)
    compiled.sort(key=len)
    fill = [(col, inverse[col]) for col in range(len(inverse))]
    return tuple(columns), tuple(inverse), _ends(compiled, inverse), _ends(fill, inverse)


def _ends(compiled: Iterable[Sequence[int]], inverse: Sequence[int]) -> _Ends:
    """What _Enumeration.scan reads of each word of internal columns: its
    columns; back, where back[j] is the column a backward scan leaves the
    coset at position j by (the inverse of column j - 1); and its length.
    The scan is slower reading inverse[cols[j - 1]] or len(cols) instead."""
    return tuple(
        (tuple(cols), (-1, *(inverse[col] for col in cols)), len(cols)) for cols in compiled
    )


class _Enumeration:
    """Working state of one Todd-Coxeter run, in internal columns."""

    def __init__(self, fp: FpPres, max_cosets: int):
        self.max_cosets = max_cosets
        self.columns, self.inverse, self.ends, self.fill = _compile_relators(fp.ngens, fp.relators)
        self.rows: list[list[int | None]] = [[None] * len(self.inverse)]
        self.parent = [0]  # union-find over coset numbers, parent[i] <= i

    def coincidence(self, a: int, b: int) -> None:
        """Identify two cosets and propagate, smaller number survives.

        a and b must be distinct live cosets (their own representatives).
        scan reaches both through rows of live cosets, which point only at
        live cosets once a coincidence has been processed, and calls this
        only with two different cosets.  The representatives met while
        propagating are found inline, with path halving: each step up a
        chain points the coset it leaves at its grandparent."""
        rows, parent, inverse = self.rows, self.parent, self.inverse
        if a > b:
            a, b = b, a
        parent[b] = a
        queue = [b]
        for dead in queue:  # the queue grows while it is walked
            mu = dead  # dead's representative, each find starting from the last
            for col, target in enumerate(rows[dead]):
                if target is None:
                    continue
                inv = inverse[col]
                rows[target][inv] = None
                while parent[mu] != mu:
                    parent[mu] = mu = parent[parent[mu]]
                nu = target
                while parent[nu] != nu:
                    parent[nu] = nu = parent[parent[nu]]
                mu_row, nu_row = rows[mu], rows[nu]
                # merge nu with mu's col image, or else mu with nu's inv image
                keep, other = nu, mu_row[col]
                if other is None:
                    keep, other = mu, nu_row[inv]
                    if other is None:
                        mu_row[col] = nu
                        nu_row[inv] = mu
                        continue
                while parent[other] != other:
                    parent[other] = other = parent[parent[other]]
                if keep == other:
                    continue
                if keep > other:
                    keep, other = other, keep
                parent[other] = keep
                queue.append(other)

    def scan(self, cosets: Iterable[int], relators: Sequence[tuple], defining: bool) -> None:
        """Scan each relator of relators, its (cols, back, n) as _ends
        gives it, from both ends at each coset of cosets, while that coset
        is live.  A closed scan may give a coincidence and a one-letter gap
        a deduction.  At a longer gap a defining scan (HLT) defines cosets,
        while any other scan (lookahead) stops: it only fills deductions
        and merges coincidences.  This is the only place a coset is
        created, with the one --max-cosets check.

        A defining scan defines the gap's first image, f·col, as a new
        coset whose row holds only its edge back to f.  As the relator is
        freely reduced, the forward walk cannot go on from the new coset,
        and the backward walk cannot move unless b is f and the gap's last
        letter is col's inverse.  Outside that case neither walk can move
        until one letter is left, so the gap is defined straight through
        up to its last letter, which is deduced; in that case both walks
        are tried again after the one definition."""
        rows, parent, coincidence = self.rows, self.parent, self.coincidence
        inverse, max_cosets = self.inverse, self.max_cosets
        width = len(inverse)
        for coset in cosets:
            if parent[coset] != coset:
                continue
            for cols, back, n in relators:
                if parent[coset] != coset:
                    break
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
                        nxt = rows[b][back[j]]
                        if nxt is None:
                            break
                        b = nxt
                        j -= 1
                    if j == i:
                        coincidence(f, b)
                        break
                    if j > i + 1:
                        if not defining:
                            break
                        # all but the gap's last letter, or only its first
                        stop = i + 1 if b == f and back[j] == cols[i] else j - 1
                        while i < stop:
                            new = len(rows)
                            if new >= max_cosets:
                                raise CapacityError(
                                    f"coset limit exceeded: more than {max_cosets} cosets defined"
                                )
                            col = cols[i]
                            new_row = [None] * width
                            new_row[inverse[col]] = f
                            rows.append(new_row)
                            parent.append(new)
                            rows[f][col] = f = new
                            i += 1
                        if i < j - 1:  # b may move now: walk again
                            continue
                    # a gap of one letter: a deduction
                    rows[f][cols[i]] = b
                    rows[b][back[j]] = f
                    break

    def run(self, subgroup: Sequence[Sequence[int]] = ()) -> None:
        rows, parent, scan = self.rows, self.parent, self.scan
        ends, fill, inverse = self.ends, self.fill, self.inverse
        words = (_spell(word, self.columns, inverse) for word in subgroup)
        # coset 0 survives every merge
        scan((0,), _ends(filter(None, words), inverse), True)
        mark = LOOKAHEAD_FIRST
        coset = 0
        while coset < len(rows):
            if len(rows) >= mark:
                self.lookahead(coset)
                mark = 2 * len(rows)
            if parent[coset] == coset:  # coset is live: its own root
                scan((coset,), ends, True)
                if parent[coset] == coset and None in rows[coset]:
                    scan((coset,), fill, True)
            coset += 1

    def lookahead(self, start: int) -> None:
        """Scan every relator that uses two or more columns without
        defining at each live coset from start, the first one HLT has not
        processed.

        The cosets below start are skipped because no scan there can
        change anything.  HLT left every relator closed at each of them:
        its scans there were filled, and its missing images defined.
        Definitions only add edges, and coincidence processing maps each
        closed path to a closed path through the representatives, so
        every relator still closes at each live coset below start, and a
        scan there returns to where it began.

        A relator in one column, a pure power g^k or a single letter, is
        left out.  HLT's defining scan of g^k at a coset closes the whole
        g-cycle through it, which coincidence processing keeps closed, so
        such a scan in the lookahead nearly always walks a closed cycle
        for nothing; HLT still scans it at every coset it processes."""
        relators = [rel for rel in self.ends if len(set(rel[0])) > 1]
        self.scan(range(start, len(self.rows)), relators, False)

    def compact(self) -> list[list[int]]:
        """Renumber the live cosets breadth first from the identity coset,
        each row in the public layout: an involution's column is both of
        its public columns."""
        parent, rows = self.parent, self.rows
        # a tuple of a row's public entries: ngens >= 1 gives two columns at least
        public = operator.itemgetter(*self.columns)
        for k, p in enumerate(parent):  # parent[p] is a root already, as p <= k
            parent[k] = parent[p]
        new_index = [-1] * len(rows)  # live coset number -> new number
        new_index[0] = 0
        order = [0]
        table = []
        for cur in order:  # the order grows while it is walked
            row = rows[cur]
            if None in row:
                raise RuntimeError("internal: incomplete row survived the enumeration")
            new_row = []
            for target in row:
                root = parent[target]
                k = new_index[root]
                if k < 0:
                    k = new_index[root] = len(order)
                    order.append(root)
                new_row.append(k)
            table.append(list(public(new_row)))
        if len(order) != len(set(parent)):  # set(parent) holds the live cosets now
            raise RuntimeError("internal: coset graph is not connected")
        return table


def coset_enumerate(
    fp: FpPres,
    max_cosets: int = DEFAULT_MAX_COSETS,
    subgroup: Sequence[Sequence[int]] = (),
) -> CosetTable:
    """Enumerate the cosets of the subgroup the words of subgroup generate
    (letters as in FpPres.relators; none for the trivial subgroup) by HLT
    over power-reduced, freely reduced relators taken shortest first, in
    one column per involution and two per other generator, with a doubling
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
    table = CosetTable(rows)
    _audit(fp, table, subgroup)
    return table


@functools.lru_cache(maxsize=1)
def _public_words(
    relators: tuple[tuple[int, ...], ...]
) -> tuple[tuple[tuple[int, ...], bool], ...]:
    """What _audit walks of each relator as given: its public columns (see
    _col), and whether it is a pure power g^k.

    This stays apart from _compile_relators on purpose: the audit vouches
    for the rewrite, so it reads nothing the rewrite made.  The last
    presentation's result is kept, as crosscheck audits the tables of two
    or three runs on one presentation."""
    return tuple((tuple(map(_col, rel)), rel.count(rel[0]) == len(rel)) for rel in relators)


def _audit(fp: FpPres, table: CosetTable, subgroup: Sequence[Sequence[int]]) -> None:
    """Check every subgroup word at coset 0, column bijectivity and that
    each generator's inverse column inverts its column, then re-scan every
    relator at every coset.

    The inverse check is what vouches for compact writing an involution's
    one internal column into both of its public columns, and for every
    walk that reads a g^-1 column.  The columns are read in one pass over
    the rows (each row has 2 * ngens entries).  A relator that is not a
    pure power is walked from every coset at once, one letter at a time,
    each step one itemgetter lookup of the whole coset tuple in one
    column.  A pure-power relator g^k is checked in one pass over g's
    column: as that column is a permutation, g^k closes at every coset
    exactly when every cycle of g has a length dividing k."""
    for word in subgroup:
        if table.walk(word) != 0:
            raise RuntimeError("internal: subgroup word does not fix coset 0")
    size = tuple(range(table.count))
    cosets = set(size)
    columns = list(zip(*table.rows))
    for col, column in enumerate(columns):
        if set(column) != cosets:
            raise RuntimeError(f"internal: column {col} is not a permutation")
    if table.count == 1:
        # every column is (0,), so every check below passes; and an
        # itemgetter of one index would return no tuple
        return
    for col in range(0, len(columns), 2):
        if operator.itemgetter(*columns[col])(columns[col + 1]) != size:
            raise RuntimeError(f"internal: column {col + 1} does not invert column {col}")
    for cols, pure_power in _public_words(fp.relators):
        if pure_power:
            k, column = len(cols), columns[cols[0]]
            seen = [False] * table.count
            for start in size:
                if seen[start]:
                    continue
                length, cur = 0, start
                while not seen[cur]:
                    seen[cur] = True
                    cur = column[cur]
                    length += 1
                if k % length:
                    raise RuntimeError("internal: relator does not close on the final table")
            continue
        ends = size
        for col in cols:  # ends[i] = columns[col][ends[i]]
            ends = operator.itemgetter(*ends)(columns[col])
        if ends != size:
            raise RuntimeError("internal: relator does not close on the final table")


# ---------------------------------------------------------------------------
# Structure read off the table of the trivial subgroup: an element of G is
# the coset it sends coset 0 to.


def _orbit(rows: list[list[int]], letters: Iterable[int]) -> list[int]:
    """The cosets of the subgroup the letters generate: the orbit of coset 0,
    in breadth-first order.  For one letter g that is the cosets of g^0,
    g^1, ..., g^(k-1), where k is the order of g."""
    cols = [_col(letter) for letter in letters]
    seen = {0}
    queue = [0]
    for cur in queue:  # queue grows while iterating
        for col in cols:
            nxt = rows[cur][col]
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return queue


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
    powers = {g: _orbit(rows, [g]) for g in letter.values()}
    x, y, z, w = (letter.get(name) for name in ("x", "y", "z", "w"))
    h = _orbit(rows, [g for g in (x, y) if g])
    k = _orbit(rows, [g for g in (z, w) if g])
    xz_pair = None
    if x and z:
        commutator = table.walk((-x, -z, x, z))
        xz_pair = _as_x_z_power(rows, commutator, powers[x], z, len(powers[z]))
    return StructureReport(
        order=table.count,
        generator_orders={name: len(powers[g]) for name, g in letter.items()},
        h_order=len(h),
        k_order=len(k),
        intersection_order=len(set(h) & set(k)),
        xz_commutator=xz_pair,
        core_x_order=_core_order(table, powers[x], x, fp.ngens) if x else None,
        core_z_order=_core_order(table, powers[z], z, fp.ngens) if z else None,
        h_semidihedral=bool(x and y) and _is_semidihedral(table, powers, x, y, len(h)),
        k_semidihedral=bool(z and w) and _is_semidihedral(table, powers, z, w, len(k)),
    )
