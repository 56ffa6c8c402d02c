"""Command line front end.

Exit codes: 0 success / valid; 1 domain-level invalidity (bad ranks, bad
cores, a tuple failing its checks, disagreeing pipelines); 2 a resource
cap was hit; 3 usage errors (unknown flags, malformed tuples, unparsable
relator files).

JSON documents are written from their fixed layouts, byte for byte as
json.dumps(doc, indent=2) would write them, because with indent set
json.dumps runs CPython's pure-Python encoder.  json is imported only to
write a string value (_json_scalar): a build --output path or tc's phrase
for an [x,z] that is no x^i z^j.  Verdicts, listings and the other
documents hold none, so they never load it, and importing this module
stays cheap.

Each subcommand's flags are declared once, in SUBCOMMANDS.  build_parser
adds them to argparse, and a well-formed command line (each flag spelled
out once, each value one its type and choices accept) is read straight
from the same declaration, with no parser built.  Every other command
line, help and every error among them, goes to build_parser's parser, so
argparse writes every help, usage and error byte (see _parse_args).
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from itertools import accumulate, islice
from typing import Sequence

from .arith import SdPair, additive_order, derive_pair
from .congruence import (
    CoreSpec,
    TupleA,
    TupleB,
    Verdict,
    check_a,
    check_b,
    check_b_congruences,
    solve_b,
)
from .errors import CapacityError, DomainError
from .fpcoset import (
    DEFAULT_MAX_COSETS,
    RelatorSyntaxError,
    StructureReport,
    coset_enumerate,
    fp_from_extended,
    parse_relator_file,
    structure_report,
)
from .pcgroup import (
    DEFAULT_ASSOC_CAP,
    build_table,
    check_consistency,
    pc_from_tuple_a,
    pc_from_tuple_b,
    verify_associativity_extension,
)

# Not called here.  perfbench's tracer wraps each library function at its
# sdprod.cli name, so these names stay importable from this module.
from .congruence import enumerate_a, enumerate_b, parity_audit  # noqa: F401
from .pcgroup import (  # noqa: F401
    core_of,
    is_normal,
    subgroup_closure,
    verify_associativity_exhaustive,
)

A_CONDITIONS = ("C1", "C2", "C3", "C4", "C5", "C6")
B_CONDITIONS = tuple(f"D{i}" for i in range(1, 13)) + ("ORD-R", "ORD-B")
PRESET_NAMES = ("example-6-5",)
# the table file holds order**2 entries: about 79 MB at order 4096
TABLE_FILE_CAP = 4096
TABLE_FILE_CAP_MESSAGE = "table file too large: order {order} exceeds cap {cap}"
CROSSCHECK_MAX_RANK = 12
# [x,z] in a tc report when x and z are named but [x,z] is no x^i z^j
XZ_NOT_A_PRODUCT = "not a product of an x power and a z power"
# The buffer of an --output file.  Python's default is the file system's
# block size (often 4 KiB), which sends a file to the OS in pieces of about
# that size.  On perfbench's construct workload, buffers of 64 KiB to 1 MiB
# saved about the same time, and from 256 KiB up they raised peak RSS.
# The table file's writer hands the buffer chunks of at least twice its
# size, which go to the OS one write each: 32 for the 4.1 MB order-1024
# file.  Chunks of one buffer's size (65-77 KB) put construct's peak RSS
# 1.5 MB higher in every run measured; chunks of two did not.
OUTPUT_BUFFER = 64 * 1024


class UsageError(Exception):
    """Command-level misuse that argparse cannot see (exit code 3)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 3, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _parse_tuple(text: str, arity: tuple[int, ...]) -> tuple[int, ...]:
    parts = text.split(",")
    try:
        values = tuple(int(p.strip()) for p in parts)
    except ValueError:
        raise UsageError(f"malformed tuple {text!r}: fields must be integers")
    if len(values) not in arity:
        wanted = " or ".join(str(k) for k in arity)
        raise UsageError(f"malformed tuple {text!r}: expected {wanted} fields, got {len(values)}")
    return values


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


@contextlib.contextmanager
def _sink(args):
    """The primary output: the --output file, or stdout.

    Every --output file is opened here, when the sink is entered, so a
    command that fails before then leaves no file.  Its bytes reach the OS
    through a buffer of OUTPUT_BUFFER bytes; the table file's writer hands
    it larger chunks, which go to the OS one write each."""
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8", buffering=OUTPUT_BUFFER) as fh:
            yield fh
    else:
        yield sys.stdout


def _emit(args, text: str) -> None:
    with _sink(args) as out:
        out.write(text)


# The JSON writers below give the bytes of json.dumps(doc, indent=2): a
# member or item on its own line, two spaces deeper per level, and {} or []
# for an empty container.  Keys are plain ASCII names written as they are.


def _json_scalar(value) -> str:
    """None, a bool, an int or a str as json.dumps writes it."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        import json  # the only value that json itself writes

        return json.dumps(value)
    return str(value)


def _json_container(open_close: str, lines: Sequence[str], indent: str) -> str:
    """A list or object at this indent, from its already written lines."""
    if not lines:
        return open_close
    return f"{open_close[0]}\n" + ",\n".join(lines) + f"\n{indent}{open_close[1]}"


def _json_flat(doc: dict) -> str:
    """A document whose values are scalars, lists of scalars, or dicts of
    ints (tc's generator orders)."""
    lines = []
    for key, value in doc.items():
        if isinstance(value, list):
            text = _json_container("[]", [f"    {_json_scalar(v)}" for v in value], "  ")
        elif isinstance(value, dict):
            text = _json_container("{}", [f'    "{k}": {v}' for k, v in value.items()], "  ")
        else:
            text = _json_scalar(value)
        lines.append(f'  "{key}": {text}')
    return _json_container("{}", lines, "") + "\n"


# Per format: the separator between fields, the text before and after a
# row, and the separator between rows.  The JSON layout is that of
# json.dumps(indent=2) for a row inside the document's "tuples" list.
_ROW_LAYOUT = {
    "text": (",", "", "\n", ""),
    "csv": (",", "", "\r\n", ""),
    "json": (",\n      ", "\n    [\n      ", "\n    ]", ","),
}


def cmd_enumerate(args) -> int:
    """Write the listing one prefix group (r, a, s, b, t) at a time.

    The count, the histograms and the parity come from the solution set in
    closed form, so the gate is checked before anything is written and
    the loop over the groups only writes.  A block's (r, a, s, b) text is
    rendered once, the t and c text once per listing, and each group is
    one join and one write, so memory is bounded by one group's rows and
    one block's c text.
    """
    pair = derive_pair(args.n, args.m)
    if args.command == "enumerate-a":
        # the four-field listing is the cores (1, 1) listing with r and b dropped
        cores, fields, kept = CoreSpec(1, 1), TupleA._fields, (1, 2)
    else:
        cores, fields, kept = CoreSpec(args.n1, args.m1), TupleB._fields, (0, 1, 2, 3)
    solution = solve_b(pair, cores, allow_large=args.allow_large)
    field_sep, row_start, row_end, row_sep = _ROW_LAYOUT[args.format]
    # each row is written after the end of the row before it (before_row),
    # so a group is one join; the listing's first row drops it (skip)
    before_row = row_end + row_sep
    skip = len(before_row)
    t_text = [str(t) + field_sep for t in range(pair.N)]
    c_text = [str(c) for c in range(pair.M)]
    with _sink(args) as out:
        if args.format == "csv":
            out.write(",".join(fields) + "\r\n")
        elif args.format == "json":
            head = {"n": args.n, "m": args.m, "count": solution.count, "fields": list(fields)}
            # the document stays open: its "\n}\n" is cut, the tail closes it
            out.write(_json_flat(head)[:-3] + ',\n  "tuples": [')
        for block in solution.blocks():
            t_step, c_unit, c_step = block[4:]
            lead = before_row + row_start + "".join(str(block[i]) + field_sep for i in kept)
            # the c of t = k*t_step start at k*c_unit modulo c_step, which
            # repeats with period p; joining [""] + cs puts a lead before each c
            p = c_step // math.gcd(c_unit, c_step)
            c_rows = [["", *c_text[k * c_unit % c_step :: c_step]] for k in range(p)]
            for k, t in enumerate(range(0, pair.N, t_step)):
                out.write((lead + t_text[t]).join(c_rows[k % p])[skip:])
                skip = 0
        if solution.count:
            out.write(row_end)
        histograms = solution.histograms()
        all_even = all(v % 2 == 0 for name in fields for v in histograms[name])
        if args.format == "json":
            counts = []
            for name in fields:
                lines = [f'      "{v}": {k}' for v, k in histograms[name].items()]
                counts.append(f'    "{name}": ' + _json_container("{}", lines, "    "))
            tail = [
                f'  "histograms": {_json_container("{}", counts, "  ")}',
                f'  "all_fields_even": {_json_scalar(all_even)}',
            ]
            if args.command == "enumerate-b":
                tail += [f'  "n1": {args.n1}', f'  "m1": {args.m1}']
            closing = "\n  ]" if solution.count else "]"
            out.write(closing + ",\n" + ",\n".join(tail) + "\n}\n")
        elif args.format == "text":
            lines = [f"count: {solution.count}"]
            for name in fields:
                text = " ".join(f"{v}={k}" for v, k in histograms[name].items())
                lines.append(f"histogram {name}: {text or '(empty)'}")
            lines.append(f"parity: {'all fields even' if all_even else 'ODD FIELD PRESENT'}")
            out.write("\n".join(lines) + "\n")
    return 0


def _verdict_text(verdict: Verdict, conditions: Sequence[str], fmt: str) -> str:
    failed = {f.condition: f.residual for f in verdict.failures}
    if fmt == "json":
        # {"conditions": {tag: {"passed", "residual"}}, "valid"}, one line
        # group per condition
        groups = ",\n".join(
            f'    "{tag}": {{\n      "passed": {"false" if tag in failed else "true"},\n'
            f'      "residual": {failed.get(tag, 0)}\n    }}'
            for tag in conditions
        )
        valid = "true" if verdict.valid else "false"
        return f'{{\n  "conditions": {{\n{groups}\n  }},\n  "valid": {valid}\n}}\n'
    lines = []
    for tag in conditions:
        if tag in failed:
            kind = "order" if tag.startswith("ORD") else "residual"
            lines.append(f"{tag}: FAIL ({kind} {failed[tag]})")
        else:
            lines.append(f"{tag}: pass")
    lines.append(f"verdict: {'valid' if verdict.valid else 'invalid'}")
    return "\n".join(lines) + "\n"


def cmd_check(args) -> int:
    pair = derive_pair(args.n, args.m)
    if args.command == "check-a":
        t = TupleA(*_parse_tuple(args.tuple, (4,)))
        verdict = check_a(pair, t)
        conditions = A_CONDITIONS
    else:
        t = TupleB(*_parse_tuple(args.tuple, (6,)))
        verdict = check_b(pair, CoreSpec(args.n1, args.m1), t)
        conditions = B_CONDITIONS
    _emit(args, _verdict_text(verdict, conditions, args.format))
    return 0 if verdict.valid else 1


def _write_table(fh, g, t) -> None:
    """Write the table file: it holds order**2 entries.

    Row a lists a*v over v in index order, in four quarters, one per
    prefix p of a (see GroupTable.row).  Quarter p lists p*v over the NM
    v of head 0: for each z exponent k of v, the x-run of p*z^k, its
    x-coset run from it onward and wrapping around.  The quarters of the M
    elements of one head and one x exponent are rotations of one sequence
    of M x-runs, so each is one slice of a strip, that sequence spelled
    twice.  Each x-run is itself spelled once as "run run", so its
    rotation by x is one slice too, and a strip is one join of M slices.
    The 4N strips hold 2N numerals per element.

    The prefixes are found one head at a time, not one row at a time:
    the rows of head h take prefix 1 from the y map, prefix 2 from the w
    map (the one past y when h holds y) and prefix 3 from both, so three
    list comprehensions over the maps give the quarters of all order/4
    rows of the head, and a row is four slices.  Every row lists each
    numeral once, so all rows have one length, and they are joined in
    chunks of a fixed number of rows, the header in the first.  Each
    chunk holds at least 2 * OUTPUT_BUFFER characters and is one
    fh.write: larger than _sink's buffer, it passes the buffer by and
    reaches the OS as one write.  The file is streamed in O(N*order)
    text."""
    lines = [
        "# sdprod group table v1",
        f"n: {g.pair.n}",
        f"m: {g.pair.m}",
        f"tuple: {','.join(str(v) for v in t)}",
        f"order: {g.order}",
    ]
    N, block = g.pair.N, g.pair.N * g.pair.M
    numerals = [str(i) for i in range(g.order)]
    widths = [len(s) + 1 for s in numerals]  # a numeral and the space after it
    quarters: list = [None] * g.order  # element -> (strip, start, stop)
    for first in range(0, g.order, block):  # the first element of each head
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

    def prefix_quarters(head):
        """The quarters of prefixes 0-3 of the rows of one head."""
        ty, w_map = g.ty, (g.tw_past_y if head & 1 else g.tw)
        y_at, w_at, wy_at = (head ^ 1) * block, (head ^ 2) * block, (head ^ 3) * block
        return (
            quarters[head * block : (head + 1) * block],
            [quarters[y_at + i] for i in ty],
            [quarters[w_at + i] for i in w_map],
            [quarters[wy_at + ty[i]] for i in w_map],
        )

    rows = (
        f"{s0[b0:e0]} {s1[b1:e1]} {s2[b2:e2]} {s3[b3:e3]}\n"
        for head in range(4)
        for (s0, b0, e0), (s1, b1, e1), (s2, b2, e2), (s3, b3, e3) in zip(*prefix_quarters(head))
    )
    per_chunk = -(-2 * OUTPUT_BUFFER // sum(widths))  # sum(widths): a row's length
    chunk = "\n".join(lines) + "\n" + "".join(islice(rows, per_chunk))
    while chunk:
        fh.write(chunk)
        chunk = "".join(islice(rows, per_chunk))


def cmd_build(args) -> int:
    pair = derive_pair(args.n, args.m)
    values = _parse_tuple(args.tuple, (4, 6))
    if len(values) == 4:
        t = TupleA(*values).reduced(pair)
        verdict = check_a(pair, t)
        conditions: Sequence[str] = A_CONDITIONS
        pc = pc_from_tuple_a(pair, t)
        requested_cores = CoreSpec(1, 1)
    else:
        t = TupleB(*values).reduced(pair)
        # clamped, so that a b or r of larger order fails ORD-B or ORD-R
        requested_cores = CoreSpec(
            min(additive_order(t.b, pair.M), pair.N), min(additive_order(t.r, pair.N), pair.M)
        )
        verdict = check_b(pair, requested_cores, t)
        conditions = B_CONDITIONS
        pc = pc_from_tuple_b(pair, t)
    if not verdict.valid:
        # --output names the table file, so the verdict always goes to stdout
        sys.stdout.write(_verdict_text(verdict, conditions, args.format))
        return 1
    order = 4 * pair.N * pair.M
    # The certificate is linear in the order, so this cap guards nothing
    # costly; it keeps the documented exit 2 until the cap is lifted.
    if args.verify_associativity and order > DEFAULT_ASSOC_CAP:  # refused before the table
        raise CapacityError(
            f"table too large for the associativity check: order {order} "
            f"exceeds cap {DEFAULT_ASSOC_CAP}"
        )
    if args.output and order > TABLE_FILE_CAP:
        raise CapacityError(TABLE_FILE_CAP_MESSAGE.format(order=order, cap=TABLE_FILE_CAP))
    # checked once: the report is printed and handed to build_table
    consistency = check_consistency(pc)
    consistency.require()
    # 4NM distinct normal forms w^a y^b z^c x^d: H = <x, y> has the 2N with
    # a = c = 0, K = <z, w> the 2M with b = d = 0, and they share only the identity.
    core_x, core_z = pc.core_orders()
    doc = {
        "tuple": list(t),
        "valid": True,
        "consistency_passed": sum(1 for e in consistency.entries if e.passed),
        "consistency_total": len(consistency.entries),
        "order": order,
        "h_order": 2 * pair.N,
        "k_order": 2 * pair.M,
        "intersection_order": 1,
        "x_normal": core_x == pair.N,
        "z_normal": core_z == pair.M,
        "core_x_order": core_x,
        "core_z_order": core_z,
        "requested_cores": [requested_cores.n1, requested_cores.m1],
    }
    if args.verify_associativity or args.output:
        g = build_table(pc, consistency)
        if args.verify_associativity:
            doc["associative"] = verify_associativity_extension(g)
        if args.output:
            with _sink(args) as fh:
                _write_table(fh, g, t)
            doc["table_written_to"] = args.output
    if args.format == "json":
        sys.stdout.write(_json_flat(doc))
    else:
        lines = [
            f"tuple: {','.join(str(v) for v in t)} (valid)",
            f"consistency: {doc['consistency_passed']}/{doc['consistency_total']} identities hold",
            f"order: {order}",
            f"|H| = {doc['h_order']}  |K| = {doc['k_order']}  "
            f"|H meet K| = {doc['intersection_order']}",
            f"<x> normal: {'yes' if doc['x_normal'] else 'NO'}  "
            f"<z> normal: {'yes' if doc['z_normal'] else 'NO'}",
            f"core of <x>: order {doc['core_x_order']}  core of <z>: order {doc['core_z_order']}",
        ]
        if "associative" in doc:
            lines.append(f"associativity: {'verified' if doc['associative'] else 'FAILED'}")
        if "table_written_to" in doc:
            lines.append(f"table written to: {args.output}")
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _preset_presentation(name: str):
    if name != "example-6-5":
        raise UsageError(f"unknown preset {name!r} (available: {', '.join(PRESET_NAMES)})")
    pair = derive_pair(4, 4)
    return fp_from_extended(pair, TupleB(4, 0, 0, 4, 0, 0), 2, 2)


def _xz_value(rep: StructureReport) -> list[int] | str | None:
    """[x,z] as (e1, e2) of x^e1 z^e2, XZ_NOT_A_PRODUCT, or None when the
    presentation does not name both x and z."""
    if "x" not in rep.gen_orders or "z" not in rep.gen_orders:
        return None
    return XZ_NOT_A_PRODUCT if rep.xz_commutator is None else list(rep.xz_commutator)


def _report_doc(rep: StructureReport) -> dict:
    return {
        "order": rep.order,
        "generator_orders": rep.gen_orders,
        "h_order": rep.h_order,
        "k_order": rep.k_order,
        "intersection_order": rep.intersection_order,
        "xz_commutator": _xz_value(rep),
        "core_x_order": rep.core_x_order,
        "core_z_order": rep.core_z_order,
        "h_semidihedral": rep.sd_h,
        "k_semidihedral": rep.sd_k,
    }


def _report_text(rep: StructureReport) -> str:
    orders = "  ".join(f"order({g})={rep.gen_orders[g]}" for g in ("x", "y", "z", "w") if g in rep.gen_orders)
    xz = _xz_value(rep)
    if xz is None:
        xz = "n/a"
    elif xz == [0, 0]:
        xz = "1"
    elif isinstance(xz, list):
        xz = f"x^{xz[0]} z^{xz[1]}"
    lines = [
        f"cosets: {rep.order}",
        orders or "generators: none named",
        f"|<x,y>| = {rep.h_order} (semidihedral: {'yes' if rep.sd_h else 'no'})",
        f"|<z,w>| = {rep.k_order} (semidihedral: {'yes' if rep.sd_k else 'no'})",
        f"intersection: {rep.intersection_order}",
        f"[x,z] = {xz}",
        # a core order is at least 1; None means the generator is not named
        f"core of <x>: {rep.core_x_order or 'n/a'}  core of <z>: {rep.core_z_order or 'n/a'}",
    ]
    return "\n".join(lines) + "\n"


def cmd_tc(args) -> int:
    if bool(args.preset) == bool(args.relators):
        raise UsageError("exactly one of --preset and --relators is required")
    fp = _preset_presentation(args.preset) if args.preset else parse_relator_file(args.relators)
    table = coset_enumerate(fp, max_cosets=args.max_cosets)
    rep = structure_report(table, fp)
    if args.format == "json":
        _emit(args, _json_flat(_report_doc(rep)))
    else:
        _emit(args, _report_text(rep))
    return 0


def crosscheck_order(
    pair: SdPair, t: TupleB, max_cosets: int = DEFAULT_MAX_COSETS
) -> tuple[int, int]:
    """The group order from each pipeline: (collection, enumeration).

    The collection side builds no table: it is the consistency check,
    which agrees with the twelve congruences and raises DomainError when
    they fail, and 4NM, the number of normal forms.

    The enumeration side runs on the ten-relator presentation with
    [x,z] = 1, over H = <x, y> and then over K = <z, w>, and reads the
    order off the two indices where it can.  H is a quotient of SD_2N,
    as x^N, y^2 and x^y = x^alpha are relators, and every nontrivial
    normal subgroup of SD_2N contains its centre <x^(N/2)>.  So if
    x^(N/2) moves the coset K, it is not 1, |H| = 2N, and |G| =
    |G:H|*|H| = 4NM when |G:H| = 2M.  For a valid tuple H meets K
    trivially, so the two runs decide.  Any other outcome falls back to
    enumerating the elements of G, so a presentation that collapses
    still reports its true order.  max_cosets caps each run on its own.
    The runs scan x^N and z^M at every coset, so their work grows with
    max(N, M)^2, not 4NM, and ranks above CROSSCHECK_MAX_RANK are refused.
    """
    if max(pair.n, pair.m) > CROSSCHECK_MAX_RANK:
        raise CapacityError(f"rank too large for crosscheck (cap is {CROSSCHECK_MAX_RANK})")
    check_consistency(pc_from_tuple_b(pair, t)).require()
    collected = 4 * pair.N * pair.M
    fp = fp_from_extended(pair, t, 0, 0)
    w, y, z, x = (1 + fp.names.index(name) for name in "wyzx")
    if coset_enumerate(fp, max_cosets, subgroup=((x,), (y,))).count == 2 * pair.M:
        over_k = coset_enumerate(fp, max_cosets, subgroup=((z,), (w,)))
        if over_k.walk((x,) * (pair.N // 2)) != 0:
            return collected, 4 * pair.N * pair.M
    return collected, coset_enumerate(fp, max_cosets).count


def cmd_crosscheck(args) -> int:
    pair = derive_pair(args.n, args.m)
    values = _parse_tuple(args.tuple, (4, 6))
    if len(values) == 4:
        t4 = TupleA(*values).reduced(pair)
        verdict = check_a(pair, t4)
        t = t4.to_tuple_b()
    else:
        t = TupleB(*values).reduced(pair)
        verdict = check_b_congruences(pair, t)
    if not verdict.valid:
        _emit(args, "tuple invalid: " + ", ".join(verdict.failed_conditions()) + "\n")
        return 1
    collected, enumerated = crosscheck_order(pair, t, args.max_cosets)
    agree = collected == enumerated
    _emit(
        args,
        f"collection: {collected}, enumeration: {enumerated}, "
        f"{'AGREE' if agree else 'DISAGREE'}\n",
    )
    return 0 if agree else 1


_PAIR = (
    ("--n", {"type": int, "required": True, "help": "rank of the first factor (>= 4)"}),
    ("--m", {"type": int, "required": True, "help": "rank of the second factor (>= 4)"}),
)
_FORMAT = ("--format", {"choices": ("text", "json"), "default": "text"})
_OUTPUT = ("--output", {"help": "write the primary output to this file"})
_LISTING = (
    ("--format", {"choices": ("text", "json", "csv"), "default": "text"}),
    _OUTPUT,
    ("--allow-large", {"action": "store_true", "help": "permit listings beyond the gate"}),
)
_MAX_COSETS = ("--max-cosets", {"type": _positive_int, "default": DEFAULT_MAX_COSETS})
_EITHER_TUPLE = ("--tuple", {"required": True, "help": "a,s,t,c or r,a,s,b,t,c"})

# Subcommand -> (help line, command function, flags in argparse order).
# Each flag is (option, add_argument keywords): a "--" option that stores
# one value, or is store_true, with no str default next to a type.  The
# direct parse reads these declarations as they are (see _FLAG_TABLES).
SUBCOMMANDS = {
    "enumerate-a": ("list valid four-field tuples", cmd_enumerate, (*_PAIR, *_LISTING)),
    "enumerate-b": (
        "list valid six-field tuples for given cores",
        cmd_enumerate,
        (
            *_PAIR,
            ("--n1", {"type": int, "required": True, "help": "x-side core index (power of two)"}),
            ("--m1", {"type": int, "required": True, "help": "z-side core index (power of two)"}),
            *_LISTING,
        ),
    ),
    "check-a": (
        "check one four-field tuple",
        cmd_check,
        (*_PAIR, ("--tuple", {"required": True, "help": "a,s,t,c"}), _FORMAT, _OUTPUT),
    ),
    "check-b": (
        "check one six-field tuple",
        cmd_check,
        (
            *_PAIR,
            ("--n1", {"type": int, "required": True}),
            ("--m1", {"type": int, "required": True}),
            ("--tuple", {"required": True, "help": "r,a,s,b,t,c"}),
            _FORMAT,
            _OUTPUT,
        ),
    ),
    "build": (
        "build the multiplication table and report structure",
        cmd_build,
        (
            *_PAIR,
            _EITHER_TUPLE,
            _FORMAT,
            ("--output", {"help": "write the table to this file"}),
            ("--verify-associativity", {"action": "store_true"}),
        ),
    ),
    "tc": (
        "enumerate cosets of a presentation and report structure",
        cmd_tc,
        (
            ("--preset", {"help": f"compiled-in presentation ({', '.join(PRESET_NAMES)})"}),
            ("--relators", {"help": "path to a relator file"}),
            _MAX_COSETS,
            _FORMAT,
            _OUTPUT,
        ),
    ),
    "crosscheck": (
        "compare collection and enumeration group orders",
        cmd_crosscheck,
        (
            *_PAIR,
            _EITHER_TUPLE,
            _MAX_COSETS,
            ("--format", {"choices": ("text",), "default": "text"}),
            ("--output", {}),
        ),
    ),
}


def build_parser() -> _Parser:
    # the tool and its exit codes: the docstring's first two paragraphs,
    # not its notes on the code
    parser = _Parser(prog="sdprod", description="\n\n".join((__doc__ or "").split("\n\n")[:2]))
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help_text, func, flags) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for option, keywords in flags:
            p.add_argument(option, **keywords)
        p.set_defaults(func=func)
    return parser


def _flag_table(name: str):
    """What the direct parse needs of SUBCOMMANDS[name], by argparse's rules.

    Per option: its dest ("--allow-large" -> allow_large), whether it is
    store_true, its type and its choices.  Then the namespace before any
    flag is read, in the order build_parser().parse_args fills it: command,
    each dest's default (False for store_true), func.  Then the required
    options.
    """
    _, func, flags = SUBCOMMANDS[name]
    options = {}
    defaults: dict[str, object] = {"command": name}
    for option, keywords in flags:
        dest = option[2:].replace("-", "_")
        store_true = keywords.get("action") == "store_true"
        options[option] = (dest, store_true, keywords.get("type"), keywords.get("choices"))
        defaults[dest] = keywords.get("default", False if store_true else None)
    defaults["func"] = func
    required = frozenset(option for option, keywords in flags if keywords.get("required"))
    return options, defaults, required


_FLAG_TABLES = {name: _flag_table(name) for name in SUBCOMMANDS}


def _parse_direct(argv: Sequence[str]) -> argparse.Namespace | None:
    """The Namespace that build_parser().parse_args(argv) gives, read in one
    pass off the named subcommand's flag table, or None (decline) where
    argparse would do anything more than store what the table spells out.

    It declines an unknown or missing command, and then a token that is
    not an exact option string (an abbreviation, --flag=value, -h, an
    unknown flag or a positional), a repeated flag, a missing value or
    one that starts with "-" (argparse may read it as an option or a
    negative number; "--" among them), a value its type rejects
    (ValueError, TypeError or ArgumentTypeError) or one outside its
    choices, and a missing required flag.  On every other input argparse
    stores the same values in the same order.
    """
    table = _FLAG_TABLES.get(argv[0]) if argv else None
    if table is None:
        return None
    options, defaults, required = table
    values = dict(defaults)
    seen: set[str] = set()
    tokens = iter(argv[1:])
    for token in tokens:
        flag = options.get(token)
        if flag is None or token in seen:
            return None
        seen.add(token)
        dest, store_true, kind, choices = flag
        if store_true:
            values[dest] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        if kind is not None:
            try:
                value = kind(value)
            except (ValueError, TypeError, argparse.ArgumentTypeError):
                return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    if not required <= seen:
        return None
    return argparse.Namespace(**values)


def _parse_args(argv: Sequence[str] | None) -> argparse.Namespace:
    """Parse argv as build_parser() does.

    A well-formed command line, each flag spelled out once and each value
    one its type and choices accept, is read straight from the
    subcommand's declaration in SUBCOMMANDS (_parse_direct), and no parser
    is built.  Every other command line goes to build_parser().parse_args:
    the choice is made from argv alone, and the direct parse writes
    nothing, so help, usage and error messages, and their exit codes, are
    argparse's bytes.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_direct(argv)
    return build_parser().parse_args(argv) if args is None else args


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"sdprod: error: {exc}", file=sys.stderr)
        return 3
    except RelatorSyntaxError as exc:
        print(f"sdprod: relator file error: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"sdprod: invalid input: {exc}", file=sys.stderr)
        return 1
    except CapacityError as exc:
        print(f"sdprod: limit: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"sdprod: i/o error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
