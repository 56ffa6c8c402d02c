"""Spans around the library calls that `sdprod.cli` makes.

The tracer measures every layer from outside: it replaces each library
function at the name `sdprod.cli` looks it up by (`sdprod.cli.build_table`,
...) with a wrapper that records a span.  Calls a library function makes
to another library function are not seen and count in the caller's time.

A span records its name, start, end, the id of the enclosing command span
(`cli.main`) and a few counts taken from the arguments and the result.
Spans stay in memory; the metrics are computed from them at the end.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass, field
from time import perf_counter

# Library function -> (layer, phase).  Metric names are "<layer>.<phase>.s".
LAYER_OF = {
    "enumerate_a": ("congruence", "enumerate"),
    "enumerate_b": ("congruence", "enumerate"),
    "parity_audit": ("congruence", "audit"),
    "check_a": ("congruence", "check"),
    "check_b": ("congruence", "check"),
    "check_b_congruences": ("congruence", "check"),
    "pc_from_tuple_a": ("pcgroup", "presentation"),
    "pc_from_tuple_b": ("pcgroup", "presentation"),
    "check_consistency": ("pcgroup", "consistency"),
    "build_table": ("pcgroup", "build_table"),
    "subgroup_closure": ("pcgroup", "analysis"),
    "is_normal": ("pcgroup", "analysis"),
    "core_of": ("pcgroup", "analysis"),
    "verify_associativity_exhaustive": ("pcgroup", "assoc"),
    "parse_relator_file": ("fpcoset", "parse"),
    "fp_from_extended": ("fpcoset", "parse"),
    "coset_enumerate": ("fpcoset", "enumerate"),
    "structure_report": ("fpcoset", "structure"),
}

# arith calls cost under a microsecond; they stay unwrapped and count in
# cli.self_s.
UNWRAPPED = frozenset({"derive_pair", "additive_order"})

# Functions whose peak traced allocation is measured, in memory probes only.
MEMORY = frozenset({"build_table", "coset_enumerate", "structure_report"})

# Exceptions counted in <layer>.errors, by class name.
ERRORS = frozenset({"DomainError", "CapacityError"})


@dataclass
class Span:
    name: str
    start: float
    end: float
    cmd_id: int
    parent: int | None  # cmd_id of the enclosing command span; None for a command
    kind: str = ""  # the command's kind: "twisted" / "untwisted" / ""
    order: int = 0  # the group order the command works at
    error: str | None = None
    counts: dict = field(default_factory=dict)
    peak_bytes: int | None = None


def _counts(name: str, args: tuple, result) -> dict:
    """Work counts read off a call's arguments and result."""
    if name in ("enumerate_a", "enumerate_b") and result is not None:
        return {"tuples_out": len(result)}
    if name == "build_table" and result is not None:
        return {"elements": result.order, "table_entries": result.order ** 2}
    if name == "verify_associativity_exhaustive":
        return {"triples": args[0].order ** 3}
    if name == "coset_enumerate" and result is not None:
        return {"cosets": result.count}
    return {}


class Tracer:
    """Installs the wrappers on a `sdprod.cli` module and collects spans."""

    def __init__(self, cli_module):
        self.cli = cli_module
        self.spans: list[Span] = []
        self.cmd_id = 0
        self.kind = ""
        self.order = 0
        self.measure_memory = False
        self._originals: dict[str, object] = {}

    def install(self) -> None:
        for name in LAYER_OF:
            fn = getattr(self.cli, name)
            self._originals[name] = fn
            setattr(self.cli, name, self._wrap(name, fn))

    def uninstall(self) -> None:
        for name, fn in self._originals.items():
            setattr(self.cli, name, fn)
        self._originals.clear()

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            memory = self.measure_memory and name in MEMORY and not tracemalloc.is_tracing()
            if memory:
                tracemalloc.start()
            span = Span(name, perf_counter(), 0.0, self.cmd_id, self.cmd_id, self.kind, self.order)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                if memory:
                    span.peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                span.counts = _counts(name, args, result)
                self.spans.append(span)

        traced.__wrapped__ = fn
        return traced

    def begin(self, cmd_id: int, kind: str, order: int) -> None:
        """Make the next library spans children of command cmd_id."""
        self.cmd_id, self.kind, self.order = cmd_id, kind, order

    def command(self, start: float, end: float) -> None:
        """Record the current command's span, once the call has returned."""
        self.spans.append(Span("cli.main", start, end, self.cmd_id, None, self.kind, self.order))


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Self time of each span: its duration minus the part of it that its
    child spans cover.

    The wrappers sit only at the names `sdprod.cli` calls, so library spans
    are children of their command span and have no children themselves.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        (s.end - s.start) - (covered(children.get(s.cmd_id, [])) if s.parent is None else 0.0)
        for s in spans
    ]


def layer_metrics(spans: list[Span], stderr_by_cmd: dict[int, str]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    Times are self times summed over the pass.  `stderr_by_cmd` holds each
    command's standard error, to count the domain and capacity errors
    that `cli` raised itself (those no library span raised).
    """
    selfs = self_times(spans)
    m: dict[str, float] = {
        "cli.self_s": 0.0, "cli.calls": 0, "cli.errors": 0,
        "congruence.enumerate.s": 0.0, "congruence.enumerate.calls": 0,
        "congruence.tuples_out": 0, "congruence.check.s": 0.0, "congruence.check.calls": 0,
        "congruence.audit.s": 0.0, "congruence.errors": 0,
        "pcgroup.presentation.s": 0.0, "pcgroup.consistency.s": 0.0,
        "pcgroup.build_table.s": 0.0, "pcgroup.build_table.elements": 0,
        "pcgroup.table_entries": 0, "pcgroup.analysis.s": 0.0, "pcgroup.assoc.s": 0.0,
        "pcgroup.assoc.triples": 0, "pcgroup.errors": 0,
        "fpcoset.parse.s": 0.0,
        "fpcoset.enumerate.s.twisted": 0.0, "fpcoset.enumerate.s.untwisted": 0.0,
        "fpcoset.enumerate.cosets.twisted": 0, "fpcoset.enumerate.cosets.untwisted": 0,
        "fpcoset.structure.s": 0.0, "fpcoset.errors": 0,
        "trace.commands_s": 0.0,
    }
    library_errors: set[int] = set()
    for i, s in enumerate(spans):
        if s.parent is None:
            m["cli.self_s"] += selfs[i]
            m["cli.calls"] += 1
            m["trace.commands_s"] += s.end - s.start
            continue
        layer, phase = LAYER_OF[s.name]
        suffix = f".{s.kind or 'untwisted'}" if s.name == "coset_enumerate" else ""
        m[f"{layer}.{phase}.s{suffix}"] += selfs[i]
        if phase in ("enumerate", "check") and layer == "congruence":
            m[f"congruence.{phase}.calls"] += 1
        if s.error in ERRORS:
            m[f"{layer}.errors"] += 1
            library_errors.add(s.cmd_id)
        c = s.counts
        m["congruence.tuples_out"] += c.get("tuples_out", 0)
        m["pcgroup.build_table.elements"] += c.get("elements", 0)
        m["pcgroup.table_entries"] += c.get("table_entries", 0)
        m["pcgroup.assoc.triples"] += c.get("triples", 0)
        if "cosets" in c:
            m[f"fpcoset.enumerate.cosets{suffix}"] += c["cosets"]
    for cmd_id, err in stderr_by_cmd.items():
        if cmd_id not in library_errors and err.startswith(("sdprod: invalid input", "sdprod: limit")):
            m["cli.errors"] += 1
    return m


def memory_metrics(spans: list[Span]) -> dict[str, float]:
    """Largest traced allocation peak per memory-measured function, in MB."""
    m = {
        "pcgroup.build_table.peak_mb": 0.0,
        "fpcoset.enumerate.peak_mb.twisted": 0.0,
        "fpcoset.enumerate.peak_mb.untwisted": 0.0,
        "fpcoset.structure.peak_mb": 0.0,
    }
    for s in spans:
        if s.peak_bytes is None:
            continue
        if s.name == "build_table":
            key = "pcgroup.build_table.peak_mb"
        elif s.name == "coset_enumerate":
            key = f"fpcoset.enumerate.peak_mb.{s.kind or 'untwisted'}"
        else:
            key = "fpcoset.structure.peak_mb"
        m[key] = max(m[key], s.peak_bytes / 2**20)
    return m
