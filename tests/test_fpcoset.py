"""Unit tests for coset enumeration and the structure report read off the table."""

import ast
import itertools
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from sdprod import fpcoset
from sdprod.arith import MAX_RANK, derive_pair
from sdprod.cli import crosscheck_order
from sdprod.congruence import TupleA, TupleB, enumerate_a
from sdprod.errors import CapacityError, DomainError
from sdprod.fpcoset import (
    LOOKAHEAD_FIRST,
    MAX_RELATOR_LETTERS,
    CosetTable,
    FpPres,
    RelatorSyntaxError,
    StructureReport,
    _audit,
    _col,
    _compile_relators,
    _ends,
    _Enumeration,
    _public_words,
    _spell,
    coset_enumerate,
    fp_from_extended,
    free_reduce,
    parse_relator_lines,
    structure_report,
)
from oracles import compiled_relators, spelt_subgroup_word
from test_properties import DistinctRoots, ReferenceHLT, reference_run, roots

PAIR44 = derive_pair(4, 4)
FLAGSHIP_TUPLE = TupleB(4, 0, 0, 4, 0, 0)

SD16_LINES = ["x^8", "y^2", "Y x y X^3"]
# the modular and dihedral groups of order 16: like SD16, an x of order 8
# and an involution y, but x^y is x^5 or x^-1, where SD16's is x^3
M16_LINES = ["x^8", "y^2", "Y x y X^5"]
D16_LINES = ["x^8", "y^2", "Y x y x"]
M16_ZW_LINES = ["z^8", "w^2", "W z w Z^5"]
# Two non-2-groups where <x> has order 6, so its subgroups do not form a
# chain.  The core of <x> is <x^3> in A4 x Z2 and <x^2> in S3 x S3: a core
# that only tries the powers x^(2^i) fails on the first.
A4_Z2_LINES = ["w^2", "x w x w x w", "y^2", "x w y x w y x w y", "X W x w", "Y W y w"]
S3_S3_LINES = [
    "x w x w x w", "y^2", "y x w y x w", "z^3", "w^2",
    "w z w z", "W X Z x w z", "W X W x w w", "Y Z y z", "Y W y w",
]
SRC = Path(__file__).resolve().parents[1] / "src" / "sdprod"


def flagship_pres():
    return fp_from_extended(PAIR44, FLAGSHIP_TUPLE, 2, 2)


def test_free_reduce():
    assert free_reduce((4, -4)) == ()
    assert free_reduce((3, 4, -4, -3, 2)) == (2,)
    assert free_reduce((1, 2, 3)) == (1, 2, 3)
    assert free_reduce(()) == ()


def test_fp_from_extended_flagship_relators():
    fp = flagship_pres()
    assert fp.names == ("w", "y", "z", "x")
    assert fp.relators == (
        (4, 4, 4, 4, 4, 4, 4, 4),
        (2, 2),
        (3, 3, 3, 3, 3, 3, 3, 3),
        (1, 1),
        (-2, 4, 2, -4, -4, -4),
        (-1, 3, 1, -3, -3, -3),
        (-4, -3, 4, -3, -4, -4),
        (-3, -2, 3, 2, -4, -4, -4, -4),
        (-4, -1, 4, 1, -3, -3, -3, -3),
        (-2, -1, 2, 1),
    )


def test_fp_from_extended_plain_commutator_when_untwisted():
    fp = fp_from_extended(PAIR44, TupleA(0, 2, 0, 0).to_tuple_b(), 0, 0)
    assert fp.relators[6] == (-4, -3, 4, 3)
    assert len(fp.relators) == 10
    for rel in fp.relators:
        assert rel
        assert free_reduce(rel) == rel


def test_fp_pres_validation():
    for fields, match in (
        ((("y", "x"), ((),)), "empty relator"),
        ((("y", "x"), ((3,),)), "out of range"),
        ((("y", "x"), ((1, -1),)), "not freely reduced"),
        (((), ()), "^a presentation needs at least one generator$"),
    ):
        with pytest.raises(DomainError, match=match):
            FpPres(*fields)
        with pytest.raises(DomainError, match=match):
            FpPres(names=fields[0], relators=fields[1])
    assert FpPres(("y", "x"), ((2, 2),)).ngens == 2


def test_parse_relator_lines():
    fp = parse_relator_lines(SD16_LINES)
    assert fp.names == ("y", "x")
    assert fp.relators == (
        (2, 2, 2, 2, 2, 2, 2, 2),
        (1, 1),
        (-1, 2, 1, -2, -2, -2),
    )


def test_parse_relator_lines_comments_and_blanks():
    fp = parse_relator_lines(["# a comment", "", "w^2", "   ", "# tail"])
    assert fp.names == ("w",)
    assert fp.relators == ((1, 1),)


def test_parse_relator_lines_canonical_order():
    fp = parse_relator_lines(["x z", "w^2"])
    assert fp.names == ("w", "z", "x")


def test_parse_relator_errors():
    with pytest.raises(RelatorSyntaxError):
        parse_relator_lines(["q^2"])
    with pytest.raises(RelatorSyntaxError):
        parse_relator_lines(["x^0"])
    with pytest.raises(RelatorSyntaxError, match=r"^line 2: relator reduces to the empty word$"):
        parse_relator_lines(["x^4", "x X"])
    with pytest.raises(RelatorSyntaxError):
        parse_relator_lines([])


def test_parse_relator_letter_cap():
    # each is refused while tokenising, before a letter is written out
    for lines in (
        [f"x^{sys.maxsize + 1}"],
        [f"x^{MAX_RELATOR_LETTERS + 1}"],
        [f"x^{MAX_RELATOR_LETTERS}", "y"],
        ["x^" + "1" * 5000],  # more digits than int() converts
    ):
        with pytest.raises(CapacityError, match="relator file too long"):
            parse_relator_lines(lines)


def test_relator_letter_cap_fits_every_presentation():
    # the longest relators fp_from_extended writes stay within 6(N + M) + 26
    # letters, and the cap holds that bound at the largest ranks
    for n, m in ((4, 4), (5, 9), (10, 10)):
        pair = derive_pair(n, m)
        N, M = pair.N, pair.M
        t = TupleB(N - 1, M - 1, N - 1, M - 1, N - 1, M - 1)
        fp = fp_from_extended(pair, t, N - 1, M - 1)
        assert sum(map(len, fp.relators)) <= 6 * (N + M) + 26
    top = derive_pair(MAX_RANK, MAX_RANK)
    assert 6 * (top.N + top.M) + 26 <= MAX_RELATOR_LETTERS


def test_enumerate_order_two():
    fp = parse_relator_lines(["w^2"])
    table = coset_enumerate(fp, 100)
    assert table.count == 2


def test_enumerate_sd16():
    table = coset_enumerate(parse_relator_lines(SD16_LINES), 10**6)
    assert table.count == 16


def test_enumerate_flagship():
    table = coset_enumerate(flagship_pres(), 10**6)
    assert table.count == 256


def test_enumerate_deterministic():
    fp = flagship_pres()
    t1 = coset_enumerate(fp, 10**6)
    t2 = coset_enumerate(fp, 10**6)
    assert t1.rows == t2.rows


def test_enumerate_coset_limit():
    with pytest.raises(CapacityError):
        coset_enumerate(flagship_pres(), 100)
    with pytest.raises(DomainError, match=r"^max_cosets must be positive, got 0$"):
        coset_enumerate(flagship_pres(), max_cosets=0)


def test_enumerate_over_a_subgroup():
    # SD16 = <x, y>: <x> has index 2, <y> index 8, <x^4> (the centre) index 8
    fp = parse_relator_lines(SD16_LINES)
    y, x = 1, 2
    assert coset_enumerate(fp, subgroup=((x,),)).count == 2
    assert coset_enumerate(fp, subgroup=((y,),)).count == 8
    assert coset_enumerate(fp, subgroup=((x,) * 4,)).count == 8
    assert coset_enumerate(fp, subgroup=((x,), (y,))).count == 1
    over_y = coset_enumerate(fp, subgroup=((y,),))
    assert over_y.walk((y,)) == 0
    assert over_y.walk((x,) * 4) != 0  # the centre meets <y> trivially
    assert coset_enumerate(fp, subgroup=()).rows == coset_enumerate(fp).rows
    with pytest.raises(DomainError):
        coset_enumerate(fp, subgroup=((3,),))


def test_audit_catches_a_subgroup_word_that_moves_coset_0(monkeypatch):
    fp = parse_relator_lines(SD16_LINES)
    x = 2
    table = coset_enumerate(fp)
    _audit(fp, table, ((x,) * 8,))
    with pytest.raises(RuntimeError, match="subgroup word does not fix coset 0"):
        _audit(fp, table, ((x,),))
    # a run that drops its subgroup words is caught by its own audit
    run = _Enumeration.run
    monkeypatch.setattr(_Enumeration, "run", lambda self, subgroup=(): run(self))
    with pytest.raises(RuntimeError, match="subgroup word does not fix coset 0"):
        coset_enumerate(fp, subgroup=((x,),))


@pytest.mark.parametrize("lines", [["x^4"], ["X^4"], ["x x x x"]])
def test_audit_checks_a_power_relator_on_every_cycle(lines):
    # columns x, X.  x = (0 1)(2 3) satisfies x^4; x = (0 1)(2 3 4) closes
    # x^4 at cosets 0 and 1 but not on its 3-cycle
    fp = parse_relator_lines(lines)
    _audit(fp, CosetTable(rows=[[1, 1], [0, 0], [3, 3], [2, 2]]), ())
    table = CosetTable(rows=[[1, 1], [0, 0], [3, 4], [4, 2], [2, 3]])
    assert table.walk((1,) * 4) == 0
    with pytest.raises(RuntimeError, match="relator does not close"):
        _audit(fp, table, ())


def test_audit_catches_a_column_with_a_repeated_image():
    # columns y 0, Y 1, x 2, X 3.  x sends cosets 2 and 3 to coset 0 and
    # none to coset 3; x^3 still closes at coset 0, and X is a permutation
    fp = parse_relator_lines(["x^3", "y"])
    x, inv = [1, 2, 0, 0], [2, 0, 1, 3]
    table = CosetTable(rows=[[k, k, x[k], inv[k]] for k in range(4)])
    assert table.walk((2, 2, 2)) == 0
    with pytest.raises(RuntimeError, match=r"^internal: column 2 is not a permutation$"):
        _audit(fp, table, ())


def test_audit_walks_a_relator_to_the_last_coset():
    # columns y 0, Y 1, x 2, X 3.  With x the identity and y = Y swapping
    # the last two cosets, x y closes at every coset but those two.  A
    # permutation moves no coset or at least two, so on columns that pass
    # the permutation check no relator fails at exactly one coset
    fp = parse_relator_lines(["x y"])
    n = 6
    y = list(range(n - 2)) + [n - 1, n - 2]
    table = CosetTable(rows=[[y[k], y[k], k, k] for k in range(n)])
    assert table.walk((2, 1)) == 0
    with pytest.raises(RuntimeError, match=r"^internal: relator does not close on the final table$"):
        _audit(fp, table, ())
    _audit(fp, CosetTable(rows=[[k, k, k, k] for k in range(n)]), ())


def test_audit_catches_an_inverse_column_that_does_not_invert():
    # columns x 0, X 1.  x is a 3-cycle, so x^3 closes at every coset, and
    # both columns are permutations, but X is the identity; with X = x^-1
    # the table passes
    fp = parse_relator_lines(["x^3"])
    table = CosetTable(rows=[[1, 0], [2, 1], [0, 2]])
    assert table.walk((1, 1, 1)) == 0
    with pytest.raises(RuntimeError, match=r"^internal: column 1 does not invert column 0$"):
        _audit(fp, table, ())
    _audit(fp, CosetTable(rows=[[1, 2], [2, 0], [0, 1]]), ())


def test_an_involution_has_one_internal_column():
    # y^2 names y an involution: the run keeps one column for it, its own
    # inverse, and the table writes that column as both y and Y
    fp = parse_relator_lines(SD16_LINES)
    state = _Enumeration(fp, 10**6)
    assert (state.columns, state.inverse) == ((0, 0, 1, 2), (0, 2, 1))
    state.run()
    assert all(len(row) == 3 for row in state.rows)
    table = coset_enumerate(fp)
    assert all(row[0] == row[1] for row in table.rows)
    assert table.rows == reference_run(fp, 10**6)[0]


def test_definitions_below_the_lookahead_mark():
    # below the first lookahead mark the enumerator makes the exact
    # sequence of definitions of plain HLT on the compiled relators, in
    # the enumerator's columns, so --max-cosets bites where plain HLT would
    # stop.  The flagship's [x,z] is x^2 z^2; at x^6 z^6 its runs Z^5 and
    # X^6 shrink.
    for e, defined in (((2, 2), 1058), ((6, 6), 1454)):
        fp = fp_from_extended(PAIR44, FLAGSHIP_TUPLE, *e)
        state = _Enumeration(fp, 10**6)
        state.run()
        ref = ReferenceHLT([cols for cols, *_ in state.ends], state.inverse, 10**6)
        ref.run()
        assert len(state.rows) == defined < LOOKAHEAD_FIRST
        assert state.rows == ref.rows
        assert roots(state.parent, defined) == roots(ref.parent, defined)


# y has no power relator, so HLT's relator scans leave images of y or Y
# undefined at some cosets, and the fill defines them
FILL_LINES = ["x^6", "Y x y^2 X"]
FILL_MAX_COSETS = 2000  # below LOOKAHEAD_FIRST: no lookahead pass runs


class Fills(DistinctRoots):
    """The enumerator, recording the cosets its fill defines: those a
    defining scan of the words g g^-1, one per internal column, creates."""

    def __init__(self, fp, max_cosets):
        super().__init__(fp, max_cosets)
        self.filled = []

    def scan(self, cosets, relators, defining):
        before = len(self.rows)
        super().scan(cosets, relators, defining)
        if relators is self.fill:
            self.filled += range(before, len(self.rows))


def test_fill_definitions_and_their_coset_limit():
    # of the 683 cosets defined on the way to 378, the fill defines 98,
    # the first of them coset 9, so --max-cosets 9 stops the run in the fill
    fp = parse_relator_lines(FILL_LINES)
    assert fp.names == ("y", "x")
    state = Fills(fp, 10**6)
    state.run()
    assert (len(state.rows), len(state.filled), state.filled[0]) == (683, 98, 9)
    assert len(state.compact()) == 378
    assert coset_enumerate(fp, 683).count == 378
    for cap in (9, 682):
        message = rf"^coset limit exceeded: more than {cap} cosets defined$"
        with pytest.raises(CapacityError, match=message):
            coset_enumerate(fp, cap)


@st.composite
def fill_relator_files(draw):
    """Relator files on 2-4 generators, one of which has no power relator,
    so that HLT's relator scans can leave a column of a row undefined."""
    names = draw(st.sampled_from(["yx", "yzx", "wyzx"]))
    bare = draw(st.sampled_from(names))
    lines = [f"{g}^{draw(st.integers(2, 8))}" for g in names if g != bare]
    letters = st.sampled_from(names + names.upper())
    words = draw(st.lists(st.lists(letters, min_size=2, max_size=8), min_size=1, max_size=3))
    return lines + [" ".join(word) for word in words]


@settings(max_examples=200, deadline=None)
@example(lines=FILL_LINES)
@given(fill_relator_files())
def test_fill_matches_plain_hlt_below_the_lookahead_mark(lines):
    # the fill is one defining scan of g g^-1 per internal column; it must
    # define what plain HLT's fill defines, and a capped run must stop
    # where plain HLT stops, with the same rows
    try:
        fp = parse_relator_lines(lines)
    except RelatorSyntaxError:  # a word that reduces to the empty word
        reject()
    state = Fills(fp, FILL_MAX_COSETS)
    ref = ReferenceHLT([cols for cols, *_ in state.ends], state.inverse, FILL_MAX_COSETS)
    capped = []
    for enumeration in (state, ref):
        try:
            enumeration.run()
        except CapacityError:
            capped.append(enumeration)
    assert capped in ([], [state, ref])
    defined = len(state.rows)
    assert state.rows == ref.rows
    assert roots(state.parent, defined) == roots(ref.parent, defined)


VANISHING_MAX_COSETS = 2000


@st.composite
def vanishing_run_files(draw):
    """Relator files with a power relator g^k for each generator and one or
    two relators in which a run h^(jk) that the power reduction removes
    sits between a letter and its inverse, as X z^6 x z does beside z^3.
    The compiled relator is freely reduced only once that run is gone;
    some pairs of generators commute, so that most groups are finite."""
    names = draw(st.sampled_from(["yx", "zx", "yzx", "wyzx"]))
    period = {g: draw(st.integers(2, 6)) for g in names}
    lines = [f"{g}^{k}" for g, k in period.items()]
    for g, h in itertools.combinations(names, 2):
        if draw(st.booleans()):
            lines.append(f"{g.upper()} {h.upper()} {g} {h}")
    letters = st.sampled_from(names + names.upper())
    for _ in range(draw(st.integers(1, 2))):
        h = draw(st.sampled_from(names))
        g = draw(st.sampled_from([v for v in names + names.upper() if v.lower() != h]))
        run = draw(st.sampled_from([h, h.upper()])) + f"^{period[h] * draw(st.integers(1, 2))}"
        ends = draw(st.lists(letters, max_size=3)), draw(st.lists(letters, max_size=3))
        lines.append(" ".join([*ends[0], g, run, g.swapcase(), *ends[1]]))
    return lines


@settings(max_examples=200, deadline=None)
@example(lines=["z^3", "x^5", "X z^6 x z"])
@example(lines=["x^4", "y^2", "Y x^4 y X y x"])
@given(vanishing_run_files())
def test_runs_that_vanish_between_a_letter_and_its_inverse(lines):
    # the defining scan defines a gap straight through only because the
    # compiled relators are freely reduced: a relator compiled to
    # ... g h^(jk) g^-1 ... without the last reduction would let both walks
    # move after a definition that the scan steps over
    try:
        # ends around g run G may cancel the whole line, as X Y x X y^2 x X Y x
        fp = parse_relator_lines(lines)
    except RelatorSyntaxError:
        reject()
    try:
        want, _ = reference_run(fp, VANISHING_MAX_COSETS)
        got = coset_enumerate(fp, VANISHING_MAX_COSETS)
    except CapacityError:
        reject()
    assert got.rows == want


def test_coset_limit_past_the_lookahead_mark():
    # the costliest twisted relator file of the benchmark's verify workload
    # defines 10,078 cosets, past the first mark, on its way to 256
    fp = fp_from_extended(derive_pair(5, 5), TupleB(8, 0, 8, 0, 8, 0), 2, 14)
    assert coset_enumerate(fp, 10_078).count == 256
    with pytest.raises(CapacityError, match=r"^coset limit exceeded: more than 10077 cosets defined$"):
        coset_enumerate(fp, 10_077)


def test_lookahead_scans_no_one_column_relator():
    # HLT's defining scan of x^16 or z^16 closes the cycle it walks, so the
    # lookahead's one pass on this file scans every relator but those two
    passes = []

    class Recorded(_Enumeration):
        def scan(self, cosets, relators, defining):
            if not defining:
                passes.append([cols for cols, *_ in relators])
            super().scan(cosets, relators, defining)

    fp = fp_from_extended(derive_pair(5, 5), TupleB(8, 0, 8, 0, 8, 0), 2, 14)
    state = Recorded(fp, 10**6)
    state.run()
    one_column = [cols for cols, *_ in state.ends if len(set(cols)) == 1]
    assert len(one_column) == 2 and {len(cols) for cols in one_column} == {16}
    assert len(passes) == 1
    assert passes[0] == [cols for cols, *_ in state.ends if cols not in one_column]


SD32_LINES = ["x^16", "y^2", "Y x y X^7"]


# y^2 makes y an involution: columns y 0 (its own inverse), x 1, X 2
INVOLUTION_Y = (0, 2, 1)


def holds_a_list(value):
    return isinstance(value, list) or isinstance(value, tuple) and any(map(holds_a_list, value))


@pytest.mark.parametrize(
    "lines, inverse, compiled, same_group",
    [
        # an inverted power relator: x^9 becomes X^7, and y^2 vanishes
        (["X^16", "y^2", "Y x y x^9"], INVOLUTION_Y, ((0, 1, 0) + (2,) * 7, (2,) * 16), SD32_LINES),
        # x^16 and x^8: runs reduce modulo 8, and x^16 vanishes
        (["x^16", "y^2", "x^8", "Y x y x^5"], INVOLUTION_Y, ((0, 1, 0, 2, 2, 2), (1,) * 8), SD16_LINES),
        # x^32 beside x^16 vanishes; the audit still checks it
        (SD32_LINES + ["x^32"], INVOLUTION_Y, ((0, 1, 0) + (2,) * 7, (1,) * 16), SD32_LINES),
        # x^4 vanishes between Y and y, which then cancel: y is its own inverse
        (["x^4", "y^2", "Y x^4 y X y x"], INVOLUTION_Y, ((2, 0, 1), (1,) * 4), ["x^4", "y"]),
        # no power relator and no involution, columns y 0, Y 1, x 2, X 3:
        # only reordered
        (["x y x", "x Y"], (1, 0, 3, 2), ((2, 1), (2, 0, 2)), ["x^3", "x Y"]),
    ],
    ids=["inverted-power", "two-powers", "x^32-beside-x^16", "vanishing-run", "no-power"],
)
def test_compile_relators(lines, inverse, compiled, same_group):
    fp = parse_relator_lines(lines)
    cached = _compile_relators(fp.ngens, fp.relators)
    assert cached[1] == inverse
    assert tuple(cols for cols, *_ in cached[2]) == compiled
    # every run on the presentation shares the cached result: it holds no list
    assert not holds_a_list(cached)
    assert coset_enumerate(fp).rows == coset_enumerate(parse_relator_lines(same_group)).rows


@st.composite
def rewrite_presentations(draw):
    """(ngens, relators) on 1-4 generators, for the rewrite alone (the
    group need not be finite).  A generator may have a pure power g^k or
    G^k, sometimes beside a second one of two or three times its length,
    or be an involution, g g or G G.  The other relators are words of runs
    of 1-20 letters, so runs of every length up to past twice a period,
    and sometimes a relator g h^(jk) g^-1 that vanishes, h^(jk) reduced
    to nothing between a letter and its inverse."""
    ngens = draw(st.integers(1, 4))
    letters = [*range(1, ngens + 1), *range(-ngens, 0)]
    relators, period = [], {}
    for g in range(1, ngens + 1):
        kind = draw(st.sampled_from(["power", "involution", "free"]))
        sign = draw(st.sampled_from([1, -1]))
        if kind == "power":
            period[g] = k = draw(st.integers(1, 12))
            relators.append((sign * g,) * k)
            if draw(st.booleans()):
                relators.append((draw(st.sampled_from([g, -g])),) * (k * draw(st.integers(2, 3))))
        elif kind == "involution":
            relators.append((sign * g,) * 2)
    runs = st.tuples(st.sampled_from(letters), st.integers(1, 20))
    for word_runs in draw(st.lists(st.lists(runs, min_size=1, max_size=6), max_size=4)):
        word: list[int] = []
        for letter, n in word_runs:
            if not word or abs(word[-1]) != abs(letter):  # freely reduced, one run per letter
                word += [letter] * n
        relators.append(tuple(word))
    others = [g for g in letters if abs(g) not in period]
    if period and others and draw(st.booleans()):
        h, g = draw(st.sampled_from(sorted(period))), draw(st.sampled_from(others))
        run = (draw(st.sampled_from([h, -h])),) * (period[h] * draw(st.integers(1, 2)))
        relators.append((g, *run, -g))
    order = draw(st.permutations(range(len(relators))))
    return ngens, tuple(relators[i] for i in order)


@settings(max_examples=300, deadline=None)
@given(rewrite_presentations())
def test_compile_relators_matches_the_groupby_oracle(presentation):
    # the one spelling loop rewrites every presentation exactly as runs
    # found by groupby and appended through append_run did
    ngens, relators = presentation
    columns, inverse, compiled, fill = compiled_relators(ngens, relators)
    assert _compile_relators(ngens, relators) == (
        columns, inverse, _ends(compiled, inverse), _ends(fill, inverse)
    )


@settings(max_examples=300, deadline=None)
@given(rewrite_presentations(), st.data())
def test_subgroup_words_spell_as_one_letter_at_a_time(presentation, data):
    # subgroup words need not be freely reduced: runs that cancel across
    # runs, and g G of an involution, reduce as letter by letter
    ngens, relators = presentation
    columns, inverse, *_ = _compile_relators(ngens, relators)
    letters = st.sampled_from([*range(1, ngens + 1), *range(-ngens, 0)])
    for word in data.draw(st.lists(st.lists(letters, max_size=16), max_size=4)):
        assert _spell(word, columns, inverse) == spelt_subgroup_word(word, columns, inverse)


@settings(max_examples=300, deadline=None)
@given(rewrite_presentations())
def test_public_words_spell_each_relator_as_given(presentation):
    _, relators = presentation
    want = []
    for rel in relators:
        cols = [_col(g) for g in rel]
        want.append((tuple(cols), cols.count(cols[0]) == len(cols)))
    assert _public_words(relators) == tuple(want)


@pytest.mark.parametrize("n, m", [(4, 4), (5, 5), (4, 5)])
def test_compiled_relators_are_no_longer_than_their_source(n, m):
    pair = derive_pair(n, m)
    shrunk = 0
    for e1 in range(pair.N):
        for e2 in range(pair.M):
            fp = fp_from_extended(pair, TupleB(4, 0, 0, 4, 0, 0), e1, e2)
            powers = fp.relators[:4]  # x^N, y^2, z^M, w^2: y^2 and w^2 vanish
            power_cols = [cols for cols, *_ in _compile_relators(fp.ngens, powers)[2]]
            for rel in fp.relators[4:]:
                rest = [cols for cols, *_ in _compile_relators(fp.ngens, powers + (rel,))[2]]
                for cols in power_cols:
                    rest.remove(cols)
                assert len(rest) == 1 and len(rest[0]) <= len(rel)
                shrunk += len(rest[0]) < len(rel)
    assert shrunk


def test_audit_catches_a_rewrite_that_drops_a_relator(monkeypatch):
    # x^6 and x^4 give x^2 = 1; a rewrite that loses the x^2 it derives
    # from x^6 enumerates Z4, where x^6 does not close
    fp = parse_relator_lines(["x^6", "x^4"])
    assert coset_enumerate(fp).count == 2
    compile_relators = fpcoset._compile_relators

    def drop_the_first(ngens, relators):
        columns, inverse, ends, fill = compile_relators(ngens, relators)
        return columns, inverse, ends[1:], fill

    monkeypatch.setattr(fpcoset, "_compile_relators", drop_the_first)
    with pytest.raises(RuntimeError, match="relator does not close"):
        coset_enumerate(fp)


def test_generators_act_as_permutations():
    fp = parse_relator_lines(SD16_LINES)
    table = coset_enumerate(fp, 10**6)
    for col in range(2 * fp.ngens):
        assert sorted(row[col] for row in table.rows) == list(range(table.count))


def test_structure_report_flagship():
    fp = flagship_pres()
    report = structure_report(coset_enumerate(fp, 10**6), fp)
    assert report.order == 256
    assert report.generator_orders == {"w": 2, "y": 2, "z": 8, "x": 8}
    assert report.h_order == 16
    assert report.k_order == 16
    assert report.intersection_order == 1
    assert report.xz_commutator == (2, 2)
    assert report.core_x_order == 4
    assert report.core_z_order == 4
    assert report.h_semidihedral and report.k_semidihedral


def test_structure_report_zero_tuple():
    fp = fp_from_extended(PAIR44, TupleB(0, 0, 0, 0, 0, 0), 0, 0)
    report = structure_report(coset_enumerate(fp, 10**6), fp)
    assert report.order == 256
    assert report.xz_commutator == (0, 0)
    assert report.core_x_order == 8
    assert report.core_z_order == 8


def test_structure_report_sd16():
    fp = parse_relator_lines(SD16_LINES)
    report = structure_report(coset_enumerate(fp, 10**6), fp)
    assert report.order == 16
    assert report.h_order == 16
    assert report.k_order == 1
    assert report.xz_commutator is None
    assert report.core_x_order == 8
    assert report.core_z_order is None
    assert report.h_semidihedral and not report.k_semidihedral


TWISTED_CORES = [
    (5, 5, (8, 0, 8, 0, 8, 0), 2, 14, 256, (4, 4)),
    (5, 5, (0, 6, 6, 8, 0, 2), 2, 12, 512, (2, 8)),
    (4, 5, (4, 6, 6, 8, 2, 4), 6, 10, 256, (4, 2)),
]


@pytest.mark.parametrize("n, m, t, e1, e2, order, cores", TWISTED_CORES)
def test_structure_report_twisted_cores(n, m, t, e1, e2, order, cores):
    # With [x,z] != 1 these cores shrink under conjugation by x or z, not
    # only by w and y.  The expected orders are the intersections of the
    # conjugates over every element of the group.
    fp = fp_from_extended(derive_pair(n, m), TupleB(*t), e1, e2)
    report = structure_report(coset_enumerate(fp), fp)
    assert report.order == order
    assert (report.core_x_order, report.core_z_order) == cores


def test_regular_representation_is_faithful():
    for fp in (parse_relator_lines(SD16_LINES), flagship_pres()):
        table = coset_enumerate(fp, 10**6)
        report = structure_report(table, fp)
        gens = [tuple(row[2 * i] for row in table.rows) for i in range(fp.ngens)]
        seen = {tuple(range(table.count))}
        frontier = [tuple(range(table.count))]
        while frontier:
            nxt = []
            for p in frontier:
                for q in gens:
                    composed = tuple(q[v] for v in p)
                    if composed not in seen:
                        seen.add(composed)
                        nxt.append(composed)
            frontier = nxt
        assert len(seen) == table.count == report.order


def test_commutator_location_trivial_commutator():
    fp = fp_from_extended(PAIR44, TupleB(0, 0, 0, 0, 0, 0), 0, 0)
    report = structure_report(coset_enumerate(fp, 10**6), fp)
    assert report.xz_commutator == (0, 0)


def test_crosscheck_order_examples():
    assert crosscheck_order(PAIR44, TupleA(0, 2, 0, 0).to_tuple_b()) == (256, 256)
    assert crosscheck_order(derive_pair(4, 5), TupleB(0, 0, 0, 0, 0, 0)) == (512, 512)


def test_crosscheck_order_rejects_invalid_tuple():
    with pytest.raises(DomainError):
        crosscheck_order(PAIR44, TupleB(1, 1, 1, 1, 1, 1))


def test_crosscheck_order_limit_is_capacity_not_disagreement():
    with pytest.raises(CapacityError):
        crosscheck_order(PAIR44, TupleA(0, 2, 0, 0).to_tuple_b(), max_cosets=10)


def test_crosscheck_order_every_valid_tuple_a():
    """Both pipelines agree on the group order for every valid four-field
    tuple at ranks (4,4) and (4,5), and the order read off the cosets of
    H and K is the number of elements that full enumeration finds."""
    for n, m in ((4, 4), (4, 5)):
        pair = derive_pair(n, m)
        for t4 in enumerate_a(pair):
            t = t4.to_tuple_b()
            collected, enumerated = crosscheck_order(pair, t)
            full = coset_enumerate(fp_from_extended(pair, t, 0, 0)).count
            assert collected == enumerated == full == 4 * pair.N * pair.M, (n, m, t4)


# what tc reads off M16 and off D16 on <x, y> alike: neither is semidihedral
M16_REPORT = StructureReport(
    order=16,
    generator_orders={"y": 2, "x": 8},
    h_order=16,
    k_order=1,
    intersection_order=1,
    xz_commutator=None,
    core_x_order=8,
    core_z_order=None,
    h_semidihedral=False,
    k_semidihedral=False,
)
# and off M16 on <z, w>
M16_ZW_REPORT = M16_REPORT._replace(
    generator_orders={"w": 2, "z": 8},
    h_order=1,
    k_order=16,
    core_x_order=None,
    core_z_order=8,
)


@pytest.mark.parametrize(
    "lines, want",
    [
        (
            A4_Z2_LINES,
            StructureReport(
                order=24,
                generator_orders={"w": 2, "y": 2, "x": 6},
                h_order=24,
                k_order=2,
                intersection_order=2,
                xz_commutator=None,
                core_x_order=2,
                core_z_order=None,
                h_semidihedral=False,
                k_semidihedral=False,
            ),
        ),
        (
            S3_S3_LINES,
            StructureReport(
                order=36,
                generator_orders={"w": 2, "y": 2, "z": 3, "x": 6},
                h_order=12,
                k_order=6,
                intersection_order=2,
                xz_commutator=(0, 2),
                core_x_order=3,
                core_z_order=3,
                h_semidihedral=False,
                k_semidihedral=False,
            ),
        ),
        (M16_LINES, M16_REPORT),
        (D16_LINES, M16_REPORT),
        (M16_ZW_LINES, M16_ZW_REPORT),
    ],
    ids=["A4xZ2", "S3xS3", "M16", "D16", "M16-zw"],
)
def test_structure_report_cores_off_a_chain(lines, want):
    fp = parse_relator_lines(lines)
    assert structure_report(coset_enumerate(fp), fp) == want


def _imported_names(path):
    """Every module name (split at the dots) and name the file at path imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names.update(alias.name.split("."))
    return names


def test_fpcoset_and_pcgroup_share_no_code():
    # the cross-check is evidence only while the two pipelines are independent
    assert "pcgroup" not in _imported_names(SRC / "fpcoset.py")
    assert "fpcoset" not in _imported_names(SRC / "pcgroup.py")


def test_pcgroup_takes_only_types_from_arith_and_congruence():
    # the collection side reads its cores off its own tail maps: it may take
    # the parameter types from the arithmetic and congruence layers, never
    # additive_order or the solver, whose answers it is checked against
    assert "sdprod" not in _imported_names(SRC / "pcgroup.py")
    imported = {}
    for node in ast.walk(ast.parse((SRC / "pcgroup.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported.setdefault(node.module, set()).update(alias.name for alias in node.names)
    assert imported == {
        "arith": {"SdPair"},
        "congruence": {"TupleA", "TupleB"},
        "errors": {"CapacityError", "DomainError"},
    }
