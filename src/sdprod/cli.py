"""Command line front end.

Exit codes: 0 success / valid; 1 domain-level invalidity (bad ranks, bad
cores, a tuple failing its checks, disagreeing pipelines); 2 a resource
cap was hit; 3 usage errors (unknown flags, malformed tuples, unparsable
relator files).
"""

from __future__ import annotations

import argparse
import contextlib
import json
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
    ASSOC_CAP_MESSAGE,
    DEFAULT_ASSOC_CAP,
    DEFAULT_MAX_ORDER,
    build_table,
    core_of,
    is_normal,
    pc_from_tuple_a,
    pc_from_tuple_b,
    subgroup_closure,
    verify_associativity_exhaustive,
)

# Not called here.  perfbench's tracer wraps each library function at its
# sdprod.cli name, so these names stay importable from this module.
from .congruence import enumerate_a, enumerate_b, parity_audit  # noqa: F401
from .pcgroup import check_consistency  # noqa: F401

A_CONDITIONS = ("C1", "C2", "C3", "C4", "C5", "C6")
B_CONDITIONS = tuple(f"D{i}" for i in range(1, 13)) + ("ORD-R", "ORD-B")
PRESET_NAMES = ("example-6-5",)
# the table file holds order**2 entries: about 84 MB at order 4096
TABLE_FILE_CAP = 4096
TABLE_FILE_CAP_MESSAGE = "table file too large: order {order} exceeds cap {cap}"


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
        # the four-field listing is the cores (1, 1) listing with r and b
        # dropped, and has no gate
        solution = solve_b(pair, CoreSpec(1, 1), allow_large=True)
        fields, kept = TupleA._fields, (1, 2, 4)
    else:
        solution = solve_b(pair, CoreSpec(args.n1, args.m1), allow_large=args.allow_large)
        fields, kept = TupleB._fields, (0, 1, 2, 3, 4)
    field_sep, row_start, row_end, row_sep = _ROW_LAYOUT[args.format]
    c_text = [str(c) for c in range(pair.M)]
    histograms: list[dict[int, int]] = [{} for _ in kept]
    c_cosets: dict[tuple[int, int], int] = {}  # (first c, step) -> number of groups
    with _sink(args) as out:
        if args.format == "csv":
            out.write(",".join(fields) + "\r\n")
        elif args.format == "json":
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


def _verdict_lines(verdict: Verdict, conditions: Sequence[str]) -> list[str]:
    failed = {f.condition: f.residual for f in verdict.failures}
    lines = []
    for tag in conditions:
        if tag in failed:
            kind = "order" if tag.startswith("ORD") else "residual"
            lines.append(f"{tag}: FAIL ({kind} {failed[tag]})")
        else:
            lines.append(f"{tag}: pass")
    lines.append(f"verdict: {'valid' if verdict.valid else 'invalid'}")
    return lines


def _verdict_doc(verdict: Verdict, conditions: Sequence[str]) -> dict:
    failed = {f.condition: f.residual for f in verdict.failures}
    return {
        "conditions": {
            tag: {"passed": tag not in failed, "residual": failed.get(tag, 0)}
            for tag in conditions
        },
        "valid": verdict.valid,
    }


def _verdict_text(verdict: Verdict, conditions: Sequence[str], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(_verdict_doc(verdict, conditions), indent=2) + "\n"
    return "\n".join(_verdict_lines(verdict, conditions)) + "\n"


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
    """Write the table file one row at a time: it holds order**2 entries."""
    lines = [
        "# sdprod group table v1",
        f"n: {g.pair.n}",
        f"m: {g.pair.m}",
        f"tuple: {','.join(str(v) for v in t)}",
        f"order: {g.order}",
    ]
    fh.write("\n".join(lines) + "\n")
    for a in range(g.order):
        fh.write(" ".join(map(str, g.row(a))) + "\n")


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
        requested_cores = CoreSpec(
            additive_order(t.b, pair.M), additive_order(t.r, pair.N)
        )
        verdict = check_b(pair, requested_cores, t)
        conditions = B_CONDITIONS
        pc = pc_from_tuple_b(pair, t)
    if not verdict.valid:
        # --output names the table file, so the verdict always goes to stdout
        sys.stdout.write(_verdict_text(verdict, conditions, args.format))
        return 1
    order = 4 * pair.N * pair.M
    if args.verify_associativity and order > DEFAULT_ASSOC_CAP:
        # refuse before the table is built: the scan's cap would refuse it anyway
        raise CapacityError(ASSOC_CAP_MESSAGE.format(order=order, cap=DEFAULT_ASSOC_CAP))
    if args.output and order > TABLE_FILE_CAP:
        raise CapacityError(TABLE_FILE_CAP_MESSAGE.format(order=order, cap=TABLE_FILE_CAP))

    g = build_table(pc, max_order=args.max_table)
    h = subgroup_closure(g, (g.gen_x, g.gen_y))
    k = subgroup_closure(g, (g.gen_z, g.gen_w))
    sub_x = subgroup_closure(g, (g.gen_x,))
    sub_z = subgroup_closure(g, (g.gen_z,))
    meet = len(set(h.elements) & set(k.elements))
    doc = {
        "tuple": list(t),
        "valid": True,
        "consistency_passed": sum(1 for e in g.consistency.entries if e.passed),
        "consistency_total": len(g.consistency.entries),
        "order": g.order,
        "h_order": h.order,
        "k_order": k.order,
        "intersection_order": meet,
        "x_normal": is_normal(g, sub_x),
        "z_normal": is_normal(g, sub_z),
        "core_x_order": core_of(g, sub_x).order,
        "core_z_order": core_of(g, sub_z).order,
        "requested_cores": [requested_cores.n1, requested_cores.m1],
    }
    if args.verify_associativity:
        doc["associative"] = verify_associativity_exhaustive(g)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            _write_table(fh, g, t)
        doc["table_written_to"] = args.output
    if args.format == "json":
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    else:
        lines = [
            f"tuple: {','.join(str(v) for v in t)} (valid)",
            f"consistency: {doc['consistency_passed']}/{doc['consistency_total']} identities hold",
            f"order: {g.order}",
            f"|H| = {h.order}  |K| = {k.order}  |H meet K| = {meet}",
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


def _report_doc(rep: StructureReport) -> dict:
    return {
        "order": rep.order,
        "generator_orders": rep.gen_orders,
        "h_order": rep.h_order,
        "k_order": rep.k_order,
        "intersection_order": rep.intersection_order,
        "xz_commutator": list(rep.xz_commutator) if rep.xz_commutator else None,
        "core_x_order": rep.core_x_order,
        "core_z_order": rep.core_z_order,
        "h_semidihedral": rep.sd_h,
        "k_semidihedral": rep.sd_k,
    }


def _report_text(rep: StructureReport) -> str:
    orders = "  ".join(f"order({g})={rep.gen_orders[g]}" for g in ("x", "y", "z", "w") if g in rep.gen_orders)
    if rep.xz_commutator is None:
        xz = "not a product of an x power and a z power"
    elif rep.xz_commutator == (0, 0):
        xz = "1"
    else:
        xz = f"x^{rep.xz_commutator[0]} z^{rep.xz_commutator[1]}"
    lines = [
        f"cosets: {rep.order}",
        orders or "generators: none named",
        f"|<x,y>| = {rep.h_order} (semidihedral: {'yes' if rep.sd_h else 'no'})",
        f"|<z,w>| = {rep.k_order} (semidihedral: {'yes' if rep.sd_k else 'no'})",
        f"intersection: {rep.intersection_order}",
        f"[x,z] = {xz}",
        f"core of <x>: {rep.core_x_order}  core of <z>: {rep.core_z_order}",
    ]
    return "\n".join(lines) + "\n"


def cmd_tc(args) -> int:
    if bool(args.preset) == bool(args.relators):
        raise UsageError("exactly one of --preset and --relators is required")
    fp = _preset_presentation(args.preset) if args.preset else parse_relator_file(args.relators)
    table = coset_enumerate(fp, max_cosets=args.max_cosets)
    rep = structure_report(table, fp)
    if args.format == "json":
        _emit(args, json.dumps(_report_doc(rep), indent=2) + "\n")
    else:
        _emit(args, _report_text(rep))
    return 0


def crosscheck_order(
    pair: SdPair, t: TupleB, max_cosets: int = DEFAULT_MAX_COSETS
) -> tuple[int, int]:
    """The group order from each pipeline: (collection, enumeration).

    The enumeration side runs on the ten-relator presentation with
    [x,z] = 1.  A tuple that fails the twelve congruences makes
    build_table raise DomainError: its consistency check agrees with them.
    """
    collected = build_table(pc_from_tuple_b(pair, t)).order
    enumerated = coset_enumerate(fp_from_extended(pair, t, 0, 0), max_cosets).count
    return collected, enumerated


def cmd_crosscheck(args) -> int:
    pair = derive_pair(args.n, args.m)
    values = _parse_tuple(args.tuple, (4, 6))
    if len(values) == 4:
        t = TupleA(*values).reduced(pair).to_tuple_b()
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


def _enumerate_a_args(p) -> None:
    _add_pair_flags(p)
    _add_common(p, ("text", "json", "csv"))
    p.set_defaults(func=cmd_enumerate)


def _enumerate_b_args(p) -> None:
    _add_pair_flags(p)
    p.add_argument("--n1", type=int, required=True, help="x-side core index (power of two)")
    p.add_argument("--m1", type=int, required=True, help="z-side core index (power of two)")
    _add_common(p, ("text", "json", "csv"))
    p.add_argument("--allow-large", action="store_true", help="permit listings beyond the gate")
    p.set_defaults(func=cmd_enumerate)


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
    p.add_argument("--max-table", type=_positive_int, default=DEFAULT_MAX_ORDER)
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


def _parse_args(argv: Sequence[str] | None) -> argparse.Namespace:
    """Parse argv as build_parser() does, building only the subparser
    that argv[0] names when that gives the same result.

    A subparser prints its own help, usage and errors, the same bytes in
    both builds.  The full parser is built for a missing or unknown
    command and for top-level help, which the top level answers, and for
    arguments the subparser leaves over, which the top level reports as
    unrecognized.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in SUBCOMMANDS:
        parser = _Parser(prog=f"sdprod {argv[0]}")
        SUBCOMMANDS[argv[0]][1](parser)
        args, extra = parser.parse_known_args(argv[1:])
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
