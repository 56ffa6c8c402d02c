"""Command line front end.

Exit codes: 0 success / valid; 1 domain-level invalidity (bad ranks, bad
cores, a tuple failing its checks, disagreeing pipelines); 2 a resource
cap was hit; 3 usage errors (unknown flags, malformed tuples, unparsable
relator files).

json is imported by the functions that write it, on first use: a text
command never loads it, and importing this module stays cheap.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
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
    verify_associativity_generators,
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
# the table file holds order**2 entries: about 84 MB at order 4096
TABLE_FILE_CAP = 4096
TABLE_FILE_CAP_MESSAGE = "table file too large: order {order} exceeds cap {cap}"
CROSSCHECK_MAX_RANK = 12
# [x,z] in a tc report when x and z are named but [x,z] is no x^i z^j
XZ_NOT_A_PRODUCT = "not a product of an x power and a z power"


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
    """The primary output: the --output file, or stdout."""
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            yield fh
    else:
        yield sys.stdout


def _emit(args, text: str) -> None:
    with _sink(args) as out:
        out.write(text)


# Per format: the separator between fields, the text before and after a
# row, and the separator between rows.  The JSON layout is that of
# json.dumps(indent=2) for a row inside the document's "tuples" list.
_ROW_LAYOUT = {
    "text": (",", "", "\n", ""),
    "csv": (",", "", "\r\n", ""),
    "json": (",\n      ", "\n    [\n      ", "\n    ]", ","),
}


def cmd_enumerate(args) -> int:
    """Write the listing one prefix group at a time.

    The count is known before the first row, so the gate is checked
    before anything is written; histograms and parity are summed per
    group and follow the rows.
    """
    pair = derive_pair(args.n, args.m)
    if args.command == "enumerate-a":
        # the four-field listing is the cores (1, 1) listing with r and b dropped
        cores, fields, kept = CoreSpec(1, 1), TupleA._fields, (1, 2, 4)
    else:
        cores, fields, kept = CoreSpec(args.n1, args.m1), TupleB._fields, (0, 1, 2, 3, 4)
    solution = solve_b(pair, cores, allow_large=args.allow_large)
    field_sep, row_start, row_end, row_sep = _ROW_LAYOUT[args.format]
    c_text = [str(c) for c in range(pair.M)]
    histograms: list[dict[int, int]] = [{} for _ in kept]
    c_cosets: dict[tuple[int, int], int] = {}  # (first c, step) -> number of groups
    with _sink(args) as out:
        if args.format == "csv":
            out.write(",".join(fields) + "\r\n")
        elif args.format == "json":
            import json  # also for the tail below

            head = {"n": args.n, "m": args.m, "count": solution.count, "fields": list(fields)}
            out.write(json.dumps(head, indent=2)[:-2] + ',\n  "tuples": [')
        sep = ""
        for prefix, cs in solution.groups():
            values = [prefix[i] for i in kept]
            for hist, v in zip(histograms, values):
                hist[v] = hist.get(v, 0) + len(cs)
            key = (cs.start, cs.step)
            c_cosets[key] = c_cosets.get(key, 0) + 1
            lead = row_start + field_sep.join(map(str, values)) + field_sep
            rows = (row_end + row_sep + lead).join(c_text[cs.start::cs.step])
            out.write(sep + lead + rows + row_end)
            sep = row_sep
        c_hist: dict[int, int] = {}
        for (start, step), groups in c_cosets.items():
            for c in range(start, pair.M, step):
                c_hist[c] = c_hist.get(c, 0) + groups
        histograms.append(c_hist)
        histograms = [dict(sorted(h.items())) for h in histograms]
        all_even = all(v % 2 == 0 for h in histograms for v in h)
        if args.format == "json":
            tail = {
                "histograms": {
                    name: {str(v): k for v, k in h.items()} for name, h in zip(fields, histograms)
                },
                "all_fields_even": all_even,
            }
            if args.command == "enumerate-b":
                tail["n1"], tail["m1"] = args.n1, args.m1
            closing = "\n  ]" if solution.count else "]"
            out.write(closing + "," + json.dumps(tail, indent=2)[1:] + "\n")
        elif args.format == "text":
            lines = [f"count: {solution.count}"]
            for name, hist in zip(fields, histograms):
                text = " ".join(f"{v}={k}" for v, k in hist.items())
                lines.append(f"histogram {name}: {text or '(empty)'}")
            lines.append(f"parity: {'all fields even' if all_even else 'ODD FIELD PRESENT'}")
            out.write("\n".join(lines) + "\n")
    return 0


def _verdict_text(verdict: Verdict, conditions: Sequence[str], fmt: str) -> str:
    failed = {f.condition: f.residual for f in verdict.failures}
    if fmt == "json":
        import json

        doc = {
            "conditions": {
                tag: {"passed": tag not in failed, "residual": failed.get(tag, 0)}
                for tag in conditions
            },
            "valid": verdict.valid,
        }
        return json.dumps(doc, indent=2) + "\n"
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
    """Write the table file one row at a time: it holds order**2 entries.

    Row a lists a*v over v in index order: for each prefix p of a and each
    z exponent of v, the x-coset of one element run from that element
    onward and wrapping around (see GroupTable.row).  Each element's x-run
    is spelled once, so row a is a join of 4M pre-joined runs: those of p,
    p + N, ... taken along p's z-coset inside its head block, wrapping."""
    lines = [
        "# sdprod group table v1",
        f"n: {g.pair.n}",
        f"m: {g.pair.m}",
        f"tuple: {','.join(str(v) for v in t)}",
        f"order: {g.order}",
    ]
    fh.write("\n".join(lines) + "\n")
    N, block, prefixes = g.pair.N, g.pair.N * g.pair.M, g.prefixes
    runs: list[str] = []
    for base in range(0, g.order, N):
        coset = [str(i) for i in range(base, base + N)]
        runs += [" ".join(coset[j:] + coset[:j]) for j in range(N)]
    for a in range(g.order):
        parts: list[str] = []
        for p in prefixes(a):
            head = p - p % block
            parts += runs[p : head + block : N]
            parts += runs[head + p % N : p : N]
        fh.write(" ".join(parts))
        fh.write("\n")  # apart, so that the row is not copied once more to end it


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
    if args.verify_associativity and order > DEFAULT_ASSOC_CAP:  # refused before the table
        raise CapacityError(
            f"table too large for the associativity check: order {order} "
            f"exceeds cap {DEFAULT_ASSOC_CAP}"
        )
    if args.output and order > TABLE_FILE_CAP:
        raise CapacityError(TABLE_FILE_CAP_MESSAGE.format(order=order, cap=TABLE_FILE_CAP))
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
        g = build_table(pc)
        if args.verify_associativity:
            doc["associative"] = verify_associativity_generators(g)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                _write_table(fh, g, t)
            doc["table_written_to"] = args.output
    if args.format == "json":
        import json

        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
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
        import json

        _emit(args, json.dumps(_report_doc(rep), indent=2) + "\n")
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


def _add_pair_flags(p) -> None:
    p.add_argument("--n", type=int, required=True, help="rank of the first factor (>= 4)")
    p.add_argument("--m", type=int, required=True, help="rank of the second factor (>= 4)")


def _add_common(p, formats=("text", "json")) -> None:
    p.add_argument("--format", choices=formats, default="text")
    p.add_argument("--output", help="write the primary output to this file")


def _add_listing_flags(p) -> None:
    _add_common(p, ("text", "json", "csv"))
    p.add_argument("--allow-large", action="store_true", help="permit listings beyond the gate")
    p.set_defaults(func=cmd_enumerate)


def _enumerate_a_args(p) -> None:
    _add_pair_flags(p)
    _add_listing_flags(p)


def _enumerate_b_args(p) -> None:
    _add_pair_flags(p)
    p.add_argument("--n1", type=int, required=True, help="x-side core index (power of two)")
    p.add_argument("--m1", type=int, required=True, help="z-side core index (power of two)")
    _add_listing_flags(p)


def _check_a_args(p) -> None:
    _add_pair_flags(p)
    p.add_argument("--tuple", required=True, help="a,s,t,c")
    _add_common(p)
    p.set_defaults(func=cmd_check)


def _check_b_args(p) -> None:
    _add_pair_flags(p)
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--m1", type=int, required=True)
    p.add_argument("--tuple", required=True, help="r,a,s,b,t,c")
    _add_common(p)
    p.set_defaults(func=cmd_check)


def _build_args(p) -> None:
    _add_pair_flags(p)
    p.add_argument("--tuple", required=True, help="a,s,t,c or r,a,s,b,t,c")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", help="write the table to this file")
    p.add_argument("--verify-associativity", action="store_true")
    p.set_defaults(func=cmd_build)


def _tc_args(p) -> None:
    p.add_argument("--preset", help=f"compiled-in presentation ({', '.join(PRESET_NAMES)})")
    p.add_argument("--relators", help="path to a relator file")
    p.add_argument("--max-cosets", type=_positive_int, default=DEFAULT_MAX_COSETS)
    _add_common(p)
    p.set_defaults(func=cmd_tc)


def _crosscheck_args(p) -> None:
    _add_pair_flags(p)
    p.add_argument("--tuple", required=True, help="a,s,t,c or r,a,s,b,t,c")
    p.add_argument("--max-cosets", type=_positive_int, default=DEFAULT_MAX_COSETS)
    p.add_argument("--format", choices=("text",), default="text")
    p.add_argument("--output")
    p.set_defaults(func=cmd_crosscheck)


# Subcommand -> (help line, function that adds its arguments).
SUBCOMMANDS = {
    "enumerate-a": ("list valid four-field tuples", _enumerate_a_args),
    "enumerate-b": ("list valid six-field tuples for given cores", _enumerate_b_args),
    "check-a": ("check one four-field tuple", _check_a_args),
    "check-b": ("check one six-field tuple", _check_b_args),
    "build": ("build the multiplication table and report structure", _build_args),
    "tc": ("enumerate cosets of a presentation and report structure", _tc_args),
    "crosscheck": ("compare collection and enumeration group orders", _crosscheck_args),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="sdprod", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help_text, add_arguments) in SUBCOMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


@functools.lru_cache(maxsize=None)
def _subparser(name: str) -> _Parser:
    """The parser of one subcommand, as build_parser() would add it.

    Built on first use and kept for the process: main() may be called
    many times in one process, and building a parser costs several times
    what parsing with it does.  Parsing leaves the parser as it was and
    returns a new Namespace, and help reads the terminal width when it is
    formatted, so a kept parser answers as a new one would.  Callers pass
    only names in SUBCOMMANDS, which bounds the cache.
    """
    parser = _Parser(prog=f"sdprod {name}")
    SUBCOMMANDS[name][1](parser)
    return parser


def _parse_args(argv: Sequence[str] | None) -> argparse.Namespace:
    """Parse argv as build_parser() does, using only the subparser that
    argv[0] names when that gives the same result.

    That subparser is built once per process (_subparser), so a process
    that calls main() many times builds each subcommand's parser at most
    once, and the console script, which parses once, builds only the one
    it needs.  A subparser prints its own help, usage and errors, the same
    bytes in both parsers.  The full parser is built on each call that
    needs it: for a missing or unknown command and for top-level help,
    which the top level answers, and for arguments the subparser leaves
    over, which the top level reports as unrecognized.  Each of these
    ends in SystemExit, so the full parser is not kept.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in SUBCOMMANDS:
        args, extra = _subparser(argv[0]).parse_known_args(argv[1:])
        if not extra:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


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
