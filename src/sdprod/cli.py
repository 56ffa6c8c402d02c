"""Command line front end.

Exit codes: 0 success / valid; 1 domain-level invalidity (bad ranks, bad
cores, a tuple failing its checks, disagreeing pipelines); 2 a resource
cap was hit; 3 usage errors (unknown flags, malformed tuples, unparsable
relator files).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Sequence

from .arith import additive_order, derive_pair
from .congruence import (
    CoreSpec,
    TupleA,
    TupleB,
    Verdict,
    check_a,
    check_b,
    check_b_congruences,
    enumerate_a,
    enumerate_b,
    parity_audit,
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
    check_consistency,
)

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


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _histogram(values: Sequence[int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for v in values:
        out[v] = out.get(v, 0) + 1
    return dict(sorted(out.items()))


def cmd_enumerate(args) -> int:
    pair = derive_pair(args.n, args.m)
    if args.command == "enumerate-a":
        tuples = enumerate_a(pair)
        fields = TupleA._fields
    else:
        cores = CoreSpec(args.n1, args.m1)
        tuples = enumerate_b(pair, cores, allow_large=args.allow_large)
        fields = TupleB._fields
    histograms = {
        name: _histogram([t[i] for t in tuples]) for i, name in enumerate(fields)
    }
    all_even = parity_audit(pair, tuples)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(fields)
        writer.writerows(tuples)
        _emit(args, buf.getvalue())
    elif args.format == "json":
        doc = {
            "n": args.n,
            "m": args.m,
            "count": len(tuples),
            "fields": list(fields),
            "tuples": [list(t) for t in tuples],
            "histograms": {k: {str(v): c for v, c in h.items()} for k, h in histograms.items()},
            "all_fields_even": all_even,
        }
        if args.command == "enumerate-b":
            doc["n1"], doc["m1"] = args.n1, args.m1
        _emit(args, json.dumps(doc, indent=2) + "\n")
    else:
        lines = [",".join(str(v) for v in t) for t in tuples]
        lines.append(f"count: {len(tuples)}")
        for name in fields:
            hist = " ".join(f"{v}={c}" for v, c in histograms[name].items())
            lines.append(f"histogram {name}: {hist or '(empty)'}")
        lines.append(f"parity: {'all fields even' if all_even else 'ODD FIELD PRESENT'}")
        _emit(args, "\n".join(lines) + "\n")
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

    report = check_consistency(pc)
    g = build_table(pc, max_order=args.max_table)
    h = subgroup_closure(g, (g.gen_x, g.gen_y))
    k = subgroup_closure(g, (g.gen_z, g.gen_w))
    sub_x = subgroup_closure(g, (g.gen_x,))
    sub_z = subgroup_closure(g, (g.gen_z,))
    meet = len(set(h.elements) & set(k.elements))
    doc = {
        "tuple": list(t),
        "valid": True,
        "consistency_passed": sum(1 for e in report.entries if e.passed),
        "consistency_total": len(report.entries),
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
    collected = build_table(pc_from_tuple_b(pair, t)).order
    enumerated = coset_enumerate(fp_from_extended(pair, t, 0, 0), args.max_cosets).count
    agree = collected == enumerated
    _emit(
        args,
        f"collection: {collected}, enumeration: {enumerated}, "
        f"{'AGREE' if agree else 'DISAGREE'}\n",
    )
    return 0 if agree else 1


def build_parser() -> _Parser:
    parser = _Parser(prog="sdprod", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_pair_flags(p) -> None:
        p.add_argument("--n", type=int, required=True, help="rank of the first factor (>= 4)")
        p.add_argument("--m", type=int, required=True, help="rank of the second factor (>= 4)")

    def add_common(p, formats=("text", "json")) -> None:
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--output", help="write the primary output to this file")

    pa = sub.add_parser("enumerate-a", help="list valid four-field tuples")
    add_pair_flags(pa)
    add_common(pa, ("text", "json", "csv"))
    pa.set_defaults(func=cmd_enumerate)

    pb = sub.add_parser("enumerate-b", help="list valid six-field tuples for given cores")
    add_pair_flags(pb)
    pb.add_argument("--n1", type=int, required=True, help="x-side core index (power of two)")
    pb.add_argument("--m1", type=int, required=True, help="z-side core index (power of two)")
    add_common(pb, ("text", "json", "csv"))
    pb.add_argument("--allow-large", action="store_true", help="permit scans beyond the gate")
    pb.set_defaults(func=cmd_enumerate)

    ca = sub.add_parser("check-a", help="check one four-field tuple")
    add_pair_flags(ca)
    ca.add_argument("--tuple", required=True, help="a,s,t,c")
    add_common(ca)
    ca.set_defaults(func=cmd_check)

    cb = sub.add_parser("check-b", help="check one six-field tuple")
    add_pair_flags(cb)
    cb.add_argument("--n1", type=int, required=True)
    cb.add_argument("--m1", type=int, required=True)
    cb.add_argument("--tuple", required=True, help="r,a,s,b,t,c")
    add_common(cb)
    cb.set_defaults(func=cmd_check)

    bd = sub.add_parser("build", help="build the multiplication table and report structure")
    add_pair_flags(bd)
    bd.add_argument("--tuple", required=True, help="a,s,t,c or r,a,s,b,t,c")
    bd.add_argument("--format", choices=("text", "json"), default="text")
    bd.add_argument("--output", help="write the table to this file")
    bd.add_argument("--max-table", type=_positive_int, default=DEFAULT_MAX_ORDER)
    bd.add_argument("--verify-associativity", action="store_true")
    bd.set_defaults(func=cmd_build)

    tc = sub.add_parser("tc", help="enumerate cosets of a presentation and report structure")
    tc.add_argument("--preset", help=f"compiled-in presentation ({', '.join(PRESET_NAMES)})")
    tc.add_argument("--relators", help="path to a relator file")
    tc.add_argument("--max-cosets", type=_positive_int, default=DEFAULT_MAX_COSETS)
    add_common(tc)
    tc.set_defaults(func=cmd_tc)

    cc = sub.add_parser("crosscheck", help="compare collection and enumeration group orders")
    add_pair_flags(cc)
    cc.add_argument("--tuple", required=True, help="a,s,t,c or r,a,s,b,t,c")
    cc.add_argument("--max-cosets", type=_positive_int, default=DEFAULT_MAX_COSETS)
    cc.add_argument("--format", choices=("text",), default="text")
    cc.add_argument("--output")
    cc.set_defaults(func=cmd_crosscheck)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
