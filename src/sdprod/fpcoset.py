"""Coset enumeration over finite presentations, plus structure reporting.

This module is the second, deliberately independent route to the groups
built by the collection engine: a presentation on (at most) the four
generators w, y, z, x is enumerated over the trivial subgroup with a
Todd-Coxeter procedure, and the resulting regular permutation action is
interrogated directly.  None of the permutation routines here are shared
with the table-based ones in pcgroup; keeping the two implementations
apart is what makes the cross-checks meaningful.

The enumeration strategy is the relator-driven (HLT) variant with row
filling: cosets are processed in definition order; every relator is
scanned and filled at every live coset; coincidences are merged
immediately, always keeping the smaller coset number; after each coset's
relator scans, its remaining undefined generator images are defined in
column order.  The procedure is deterministic, and the finished table is
renumbered in breadth-first order from the identity coset, then audited:
every relator must close at every coset and every column must be a
permutation.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .arith import SdPair
from .congruence import CoreSpec, TupleB, check_b_congruences
from .errors import CapacityError, DomainError
from .pcgroup import build_table, pc_from_tuple_b

DEFAULT_MAX_COSETS = 10**6
GEN_NAMES = ("w", "y", "z", "x")


class RelatorSyntaxError(ValueError):
    """A relator file line that does not parse."""


@dataclass(frozen=True)
class FpPres:
    """Finite presentation: positive letters 1..ngens, negative inverses."""

    ngens: int
    names: tuple[str, ...]
    relators: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.ngens < 1 or len(self.names) != self.ngens:
            raise DomainError("generator names must match the generator count")
        for rel in self.relators:
            if not rel:
                raise DomainError("empty relator")
            if any(g == 0 or abs(g) > self.ngens for g in rel):
                raise DomainError(f"relator letter out of range: {rel}")
            if free_reduce(rel) != rel:
                raise DomainError(f"relator not freely reduced: {rel}")


@dataclass
class CosetTable:
    rows: list[list[int]]  # per coset: images under g1, g1^-1, g2, g2^-1, ...
    complete: bool
    count: int


@dataclass
class StructureReport:
    """Facts read off the regular permutation representation."""

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
    fixed order w, y, z, x restricted to the letters that appear.
    """
    tokenized: list[list[tuple[str, bool, int]]] = []
    seen: set[str] = set()
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
            count = int(power) if power else 1
            if count < 1:
                raise RelatorSyntaxError(f"line {lineno}: bad repetition in {token!r}")
            word.append((letter.lower(), letter.isupper(), count))
            seen.add(letter.lower())
        if not word:
            raise RelatorSyntaxError(f"line {lineno}: empty relator")
        tokenized.append(word)
    if not tokenized:
        raise RelatorSyntaxError("no relators found")
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
    with open(path, "r", encoding="utf-8") as fh:
        return parse_relator_lines(fh.read().splitlines())


def _col(letter: int) -> int:
    # columns come in generator/inverse pairs, so col ^ 1 is the inverse
    return 2 * (abs(letter) - 1) + (letter < 0)


class _Enumeration:
    """Working state of one Todd-Coxeter run."""

    def __init__(self, fp: FpPres, max_cosets: int):
        self.fp = fp
        self.ncols = 2 * fp.ngens
        self.max_cosets = max_cosets
        self.rows: list[list[int | None]] = [[None] * self.ncols]
        self.parent = [0]  # union-find over coset numbers, parent[i] <= i

    def rep(self, k: int) -> int:
        parent = self.parent
        root = k
        while parent[root] != root:
            root = parent[root]
        while parent[k] != root:
            parent[k], k = root, parent[k]
        return root

    def define(self, coset: int, col: int) -> int:
        if len(self.rows) >= self.max_cosets:
            raise CapacityError(
                f"coset limit exceeded: more than {self.max_cosets} cosets defined"
            )
        new = len(self.rows)
        self.rows.append([None] * self.ncols)
        self.parent.append(new)
        self.rows[coset][col] = new
        self.rows[new][col ^ 1] = coset
        return new

    def _merge(self, a: int, b: int, queue: list[int]) -> None:
        a, b = self.rep(a), self.rep(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        self.parent[b] = a
        queue.append(b)

    def coincidence(self, a: int, b: int) -> None:
        """Identify two cosets and propagate, smaller number survives."""
        queue: list[int] = []
        self._merge(a, b, queue)
        qi = 0
        while qi < len(queue):
            dead = queue[qi]
            qi += 1
            row = self.rows[dead]
            for col in range(self.ncols):
                target = row[col]
                if target is None:
                    continue
                self.rows[target][col ^ 1] = None
                mu, nu = self.rep(dead), self.rep(target)
                if self.rows[mu][col] is not None:
                    self._merge(nu, self.rows[mu][col], queue)
                elif self.rows[nu][col ^ 1] is not None:
                    self._merge(mu, self.rows[nu][col ^ 1], queue)
                else:
                    self.rows[mu][col] = nu
                    self.rows[nu][col ^ 1] = mu

    def scan_and_fill(self, coset: int, word: tuple[int, ...]) -> None:
        rows = self.rows
        f, i = coset, 0
        b, j = coset, len(word)
        while True:
            while i < j and rows[f][_col(word[i])] is not None:
                f = rows[f][_col(word[i])]
                i += 1
            if i == j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j > i and rows[b][_col(-word[j - 1])] is not None:
                b = rows[b][_col(-word[j - 1])]
                j -= 1
            if j == i:
                self.coincidence(f, b)
                return
            if j == i + 1:
                col = _col(word[i])
                rows[f][col] = b
                rows[b][col ^ 1] = f
                return
            self.define(f, _col(word[i]))

    def run(self) -> None:
        coset = 0
        while coset < len(self.rows):
            if self.rep(coset) != coset:
                coset += 1
                continue
            for rel in self.fp.relators:
                self.scan_and_fill(coset, rel)
                if self.rep(coset) != coset:
                    break
            if self.rep(coset) == coset:
                for col in range(self.ncols):
                    if self.rows[coset][col] is None:
                        self.define(coset, col)
            coset += 1

    def compact(self) -> list[list[int]]:
        """Renumber the live cosets breadth first from the identity coset."""
        order: list[int] = [self.rep(0)]
        new_index = {order[0]: 0}
        for cur in order:
            for col in range(self.ncols):
                target = self.rows[cur][col]
                if target is None:
                    raise RuntimeError("internal: incomplete row survived the enumeration")
                target = self.rep(target)
                if target not in new_index:
                    new_index[target] = len(order)
                    order.append(target)
        live = sum(1 for i in range(len(self.parent)) if self.parent[i] == i)
        if len(order) != live:
            raise RuntimeError("internal: coset graph is not connected")
        return [
            [new_index[self.rep(self.rows[old][col])] for col in range(self.ncols)]
            for old in order
        ]


def coset_enumerate(fp: FpPres, max_cosets: int = DEFAULT_MAX_COSETS) -> CosetTable:
    """Enumerate the cosets of the trivial subgroup; see the module docstring
    for the strategy.  Raises CapacityError if the run needs more than
    max_cosets coset definitions (including ones later merged away)."""
    if max_cosets < 1:
        raise DomainError(f"max_cosets must be positive, got {max_cosets}")
    state = _Enumeration(fp, max_cosets)
    state.run()
    rows = state.compact()
    table = CosetTable(rows=rows, complete=True, count=len(rows))
    _audit(fp, table)
    return table


def _audit(fp: FpPres, table: CosetTable) -> None:
    """Re-scan every relator at every coset and check column bijectivity."""
    rows = table.rows
    size = range(table.count)
    for col in range(2 * fp.ngens):
        if {row[col] for row in rows} != set(size):
            raise RuntimeError(f"internal: column {col} is not a permutation")
    for rel in fp.relators:
        cols = [_col(g) for g in rel]
        for start in size:
            cur = start
            for col in cols:
                cur = rows[cur][col]
            if cur != start:
                raise RuntimeError("internal: relator does not close on the final table")


# ---------------------------------------------------------------------------
# Permutation view of a complete table.


def perm_of_gen(table: CosetTable, gen: int) -> tuple[int, ...]:
    """Right action of generator gen (1-based) on the cosets."""
    col = _col(gen)
    return tuple(row[col] for row in table.rows)


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # apply p first, then q
    return tuple(q[i] for i in p)


def _inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, image in enumerate(p):
        out[image] = i
    return tuple(out)


def _perm_order(p: tuple[int, ...]) -> int:
    seen = [False] * len(p)
    order = 1
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        cur = start
        while not seen[cur]:
            seen[cur] = True
            cur = p[cur]
            length += 1
        order = math.lcm(order, length)
    return order


def _closure(gens: Sequence[tuple[int, ...]], degree: int) -> set[tuple[int, ...]]:
    identity = tuple(range(degree))
    seen = {identity}
    queue = [identity]
    for cur in queue:
        for g in gens:
            nxt = _compose(cur, g)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def _core(subgroup: set[tuple[int, ...]], gens: Iterable[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """Largest normal subgroup inside subgroup, from the generators only:
    K <- K meet K^g over the generators g until a full pass leaves K
    unchanged.  Then K^g = K for every generator, so K is normal; and a
    normal subgroup inside K lies inside every K^g, so it is never removed."""
    conjugators = [(_inverse(g), g) for g in gens]
    core = set(subgroup)
    while True:
        size = len(core)
        for gi, g in conjugators:
            core &= {_compose(_compose(gi, p), g) for p in core}
        if len(core) == size:
            return core


def _cyclic_powers(p: tuple[int, ...]) -> list[tuple[int, ...]]:
    identity = tuple(range(len(p)))
    out = [identity]
    cur = p
    while cur != identity:
        out.append(cur)
        cur = _compose(cur, p)
    return out


def _is_semidihedral(px: tuple[int, ...], py: tuple[int, ...], pair_order: int) -> bool:
    """Do x, y generate a semidihedral group of order 2 * order(x)?"""
    n_half = _perm_order(px)
    if n_half < 8 or n_half & (n_half - 1) or _perm_order(py) != 2:
        return False
    if pair_order != 2 * n_half:
        return False
    twist = pow(2, n_half.bit_length() - 2) - 1  # 2^(n-2) - 1 for N = 2^(n-1)
    powers = _cyclic_powers(px)
    return _compose(_compose(_inverse(py), px), py) == powers[twist % n_half]


def structure_report(table: CosetTable, fp: FpPres) -> StructureReport:
    """Read the invariants of the enumerated group off its regular action."""
    if not table.complete:
        raise DomainError("incomplete table: cannot build a structure report")
    degree = table.count
    identity = tuple(range(degree))
    perms: dict[str, tuple[int, ...]] = {}
    for idx, name in enumerate(fp.names, start=1):
        perms[name] = perm_of_gen(table, idx)
    gen_orders = {name: _perm_order(p) for name, p in perms.items()}

    h_gens = [perms[g] for g in ("x", "y") if g in perms]
    k_gens = [perms[g] for g in ("z", "w") if g in perms]
    h_set = _closure(h_gens, degree) if h_gens else {identity}
    k_set = _closure(k_gens, degree) if k_gens else {identity}

    xz_pair: tuple[int, int] | None = None
    core_x_order: int | None = None
    core_z_order: int | None = None
    if "x" in perms:
        core_x_order = len(_core(set(_cyclic_powers(perms["x"])), perms.values()))
    if "z" in perms:
        core_z_order = len(_core(set(_cyclic_powers(perms["z"])), perms.values()))
    if "x" in perms and "z" in perms:
        px, pz = perms["x"], perms["z"]
        commutator = _compose(_compose(_compose(_inverse(px), _inverse(pz)), px), pz)
        x_powers = _cyclic_powers(px)
        z_powers = _cyclic_powers(pz)
        for i, xp in enumerate(x_powers):
            for j, zp in enumerate(z_powers):
                if _compose(xp, zp) == commutator:
                    xz_pair = (i, j)
                    break
            if xz_pair is not None:
                break

    sd_h = (
        "x" in perms
        and "y" in perms
        and _is_semidihedral(perms["x"], perms["y"], len(h_set))
    )
    sd_k = (
        "z" in perms
        and "w" in perms
        and _is_semidihedral(perms["z"], perms["w"], len(k_set))
    )
    return StructureReport(
        order=degree,
        gen_orders=gen_orders,
        h_order=len(h_set),
        k_order=len(k_set),
        intersection_order=len(h_set & k_set),
        xz_commutator=xz_pair,
        core_x_order=core_x_order,
        core_z_order=core_z_order,
        sd_h=sd_h,
        sd_k=sd_k,
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


def crosscheck_order(pair: SdPair, t: TupleB, max_cosets: int = DEFAULT_MAX_COSETS) -> bool:
    """Agreement of the two pipelines on the group order.

    The tuple must satisfy the twelve congruences; the collection side
    then builds its table while the enumeration side runs on the
    ten-relator presentation with [x,z] = 1, and the coset count must
    equal the table order.
    """
    t = TupleB(*t).reduced(pair)
    verdict = check_b_congruences(pair, t)
    if not verdict.valid:
        raise DomainError(
            "tuple fails the congruence system: " + ", ".join(verdict.failed_conditions())
        )
    collected = build_table(pc_from_tuple_b(pair, t)).order
    enumerated = coset_enumerate(fp_from_extended(pair, t, 0, 0), max_cosets).count
    return collected == enumerated
