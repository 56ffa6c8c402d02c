"""sdprod benchmark: closed-loop CLI workloads with per-layer tracing.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload classify --seed 1 --seconds 5 --trace 0

One client in this one process calls `sdprod.cli.main(argv)` for each
command of the workload's fixed list, one after another (a closed loop),
and checks every output.  The list is run in whole passes until
`--seconds` have elapsed; every run makes at least one pass.

`--trace 0` prints the end-to-end metrics.  `--trace 1` makes untraced
passes, then traced passes with a span around every library call the CLI
makes, then memory probes, and prints the per-layer metrics.  The last
line of standard output is the result object; lines before it are
human-readable summaries, and failed commands are named on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from checks import check
from inputs import WORKLOADS, Command
from tracer import Tracer, layer_metrics, memory_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Fresh interpreters started to time set-up; the median is reported.
SETUP_REPEATS = 11
# Speed correction.  On a shared host the machine's speed can change by
# 2x within seconds, and every interpreted workload changes with it.  A
# fixed stdlib workload (calibrate) is timed before each command; each
# time is reported at a reference speed: raw * CAL_REF_S / local time.
CAL_REF_S = 4.0e-3
# Calibration samples on each side of a command that give its local speed.
CAL_WINDOW = 8
# Memory probes cover group orders up to this: tracemalloc slows
# build_table 12-22x, which is too slow at order 4096.
PROBE_MAX_ORDER = 1024

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import sdprod
from sdprod import cli
cli.build_parser()
print(time.perf_counter() - t0)
"""

UNITS = {
    "wall_s": "s", "cmd_p50_ms": "ms", "peak_rss_mb": "MB",
    "ok_rate": "ratio", "setup_s": "s",
}


class CommandTimeout(BaseException):
    """Raised by SIGALRM in a command that ran past its limit_s.

    A BaseException, so that no handler in the CLI can swallow it."""


def _on_alarm(signum, frame):
    raise CommandTimeout()


def calibrate() -> float:
    """Time of a fixed stdlib workload: the machine's current speed.

    Half of it is integer arithmetic in a Python loop, half is the kind of
    work the CLI does around every command (argparse, json).  It touches
    no sdprod code, so no change to the program can move it."""
    start = perf_counter()
    acc = 0
    for i in range(15000):
        acc += i * i % 7
    parser = argparse.ArgumentParser(prog="calibrate")
    sub = parser.add_subparsers(dest="command")
    for k in range(7):
        p = sub.add_parser(f"c{k}")
        for flag in ("--n", "--m", "--tuple"):
            p.add_argument(flag)
        p.add_argument("--format", choices=("text", "json"))
    parser.parse_args(["c3", "--n", "4", "--m", "5", "--tuple", "1,2", "--format", "json"])
    json.dumps({"x": [list(range(20))] * 20, "y": {str(i): i for i in range(50)}}, indent=2)
    return perf_counter() - start


def corrected(results: list[Result]) -> list[float]:
    """Each command's time at the reference speed, using the median
    calibration time of the commands around it.  A command stopped at the
    limit keeps its raw time: the limit is a wall-clock time."""
    cals = [r.cal for r in results]
    out = []
    for i, r in enumerate(results):
        local = statistics.median(cals[max(0, i - CAL_WINDOW): i + CAL_WINDOW + 1])
        out.append(r.seconds if r.rc is None else r.seconds * CAL_REF_S / local)
    return out


def percentile(values: list[float], q: float) -> float:
    """q-quantile (0 <= q <= 1), interpolating linearly between ranks."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def ok_rate(attempted: int, failed: int) -> float:
    """Share of the attempted commands that succeeded."""
    return (attempted - failed) / attempted


@dataclass
class Result:
    """One command: its time, exit code (None past the limit) and the
    check's reason for failing it (None when it passed)."""

    cmd: Command
    seconds: float
    rc: int | None
    reason: str | None
    stderr: str
    out_bytes: int
    cal: float  # calibrate() just before the command
    cmd_id: int = 0


def run_command(cli, cmd: Command, tracer: Tracer | None = None) -> Result:
    """Time one cli.main call, then check its output (untimed)."""
    gc.collect()
    cal = calibrate()
    out, err = io.StringIO(), io.StringIO()
    rc: int | None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, cmd.limit_s)
            try:
                rc = cli.main(list(cmd.argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except CommandTimeout:
            rc = None
        end = perf_counter()
    if tracer is not None:
        tracer.command(start, end)
    text = out.getvalue()
    out_bytes = len(text.encode())
    if rc is None:
        reason = f"ran past its {cmd.limit_s:g} s command limit"
    else:
        reason = check(cmd, rc, text)
    table = cmd.expect.get("table")
    if table and os.path.exists(table):
        out_bytes += os.path.getsize(table)
        os.remove(table)
    return Result(cmd, end - start, rc, reason, err.getvalue(), out_bytes, cal)


def run_pass(cli, cmds: list[Command], tracer: Tracer | None = None) -> list[Result]:
    results = []
    for cmd in cmds:
        if tracer is not None:
            tracer.begin(tracer.cmd_id + 1, cmd.kind, cmd.order)
        results.append(run_command(cli, cmd, tracer))
        if tracer is not None:
            results[-1].cmd_id = tracer.cmd_id
    return results


def run_passes(cli, cmds: list[Command], seconds: float, tracer: Tracer | None = None):
    """Whole passes over cmds until `seconds` have elapsed, at least one.

    With a tracer, each pass comes with the spans it recorded."""
    passes = []
    t0 = perf_counter()
    while not passes or perf_counter() - t0 < seconds:
        first = len(tracer.spans) if tracer else 0
        results = run_pass(cli, cmds, tracer)
        passes.append((results, tracer.spans[first:] if tracer else []))
    return passes


def summarize(passes) -> tuple[float, list[float]]:
    """The median corrected wall time of the passes, and the corrected
    times in ms of every successful command."""
    walls, ok_ms = [], []
    for results, _ in passes:
        times = corrected(results)
        walls.append(sum(times))
        ok_ms += [t * 1000 for r, t in zip(results, times) if r.reason is None]
    return statistics.median(walls), ok_ms


def measure_setup() -> float:
    """Median time of `import sdprod` plus build_parser in fresh
    interpreters, at the reference speed."""
    argv = [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)]
    subprocess.run(argv, cwd=ROOT, check=True, capture_output=True, timeout=60)  # writes .pyc
    times = []
    for _ in range(SETUP_REPEATS):
        cal = statistics.median(calibrate() for _ in range(3))
        done = subprocess.run(argv, cwd=ROOT, check=True, capture_output=True, text=True, timeout=60)
        times.append(float(done.stdout) * CAL_REF_S / cal)
    return statistics.median(times)


def end_to_end(cli, cmds: list[Command], seconds: float, setup_s: float):
    passes = run_passes(cli, cmds, seconds)
    results = [r for p, _ in passes for r in p]
    wall, ok_ms = summarize(passes)
    failed = len(results) - len(ok_ms)
    metrics = {
        "wall_s": wall,
        "cmd_p50_ms": percentile(ok_ms, 0.5),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_rate": ok_rate(len(results), failed),
        "setup_s": setup_s,
    }
    raw = statistics.median(sum(r.seconds for r in p) for p, _ in passes)
    cal_ms = statistics.median(r.cal for r in results) * 1000
    # How close the slowest successful command came to its limit.
    margin = min((r.cmd.limit_s / r.seconds for r in results if r.reason is None), default=0.0)
    print(f"passes={len(passes)} commands={len(results)} cmd_count={len(ok_ms)} failed={failed} "
          f"raw_wall_s={raw:.4f} calibration_ms={cal_ms:.4f} limit_margin_x={margin:.2f}")
    return {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}, results


def probe_commands(cmds: list[Command]) -> list[Command]:
    """The first command of each (subcommand, kind, order) up to
    PROBE_MAX_ORDER among those that reach a memory-measured function."""
    seen, out = set(), []
    for cmd in cmds:
        key = (cmd.argv[0], cmd.kind, cmd.order)
        if cmd.argv[0] in ("build", "tc", "crosscheck") and cmd.order <= PROBE_MAX_ORDER and key not in seen:
            seen.add(key)
            out.append(cmd)
    return out


def baseline_rows(spans) -> dict[str, float]:
    """Median span time of the library calls in the baseline table."""
    rows: dict[str, list[float]] = {}
    for s in spans:
        if s.parent is None:
            continue
        if s.name == "enumerate_a" and s.counts.get("tuples_out") == 266256:
            key = "enumerate_a (10,10)"
        elif s.name == "build_table" and "elements" in s.counts:
            key = f"build_table order {s.order}"
        elif s.name in ("coset_enumerate", "structure_report") and s.kind == "untwisted":
            key = f"{s.name} order {s.order}"
        else:
            continue
        rows.setdefault(key, []).append(s.end - s.start)
    return {k: statistics.median(v) for k, v in sorted(rows.items())}


def _layer_unit(name: str) -> str:
    if name == "cli.out_bytes":
        return "bytes"
    if name.endswith("_ms"):
        return "ms"
    if ".peak_mb" in name:
        return "MB"
    if name.endswith(("_s", ".s")) or ".s." in name:
        return "s"
    return "count"


def traced(cli, cmds: list[Command], seconds: float):
    """Untraced passes, traced passes, then memory probes.

    Returns the per-layer metrics, every result, and whether the layer
    self times add up to the traced command times."""
    untraced = run_passes(cli, cmds, seconds)
    tracer = Tracer(cli)
    tracer.install()
    try:
        traced_passes = run_passes(cli, cmds, seconds, tracer)
        tracer.measure_memory = True
        ((probes, probe_spans),) = run_passes(cli, probe_commands(cmds), 0, tracer)
    finally:
        tracer.uninstall()

    per_pass = []
    adds_up = True
    for results, spans in traced_passes:
        m = layer_metrics(spans, {r.cmd_id: r.stderr for r in results})
        m["cli.out_bytes"] = sum(r.out_bytes for r in results)
        times = sum(v for k, v in m.items() if _layer_unit(k) == "s" and k != "trace.commands_s")
        adds_up &= abs(times - m["trace.commands_s"]) <= 1e-9 * max(1.0, m["trace.commands_s"])
        per_pass.append(m)
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    metrics.update(memory_metrics(probe_spans))
    # Both walls at the reference speed, so that drift between the two
    # phases does not show as overhead.
    untraced_wall, ok_ms = summarize(untraced)
    traced_wall, _ = summarize(traced_passes)
    metrics["trace_overhead_s"] = traced_wall - untraced_wall
    # The p90 latency spreads too much between runs to gate on; it is
    # reported here, from the untraced passes.
    metrics["cli.cmd_p90_ms"] = percentile(ok_ms, 0.9)

    info = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": f"{platform.machine()} {platform.platform()}",
        "untraced_wall_s": untraced_wall,
        "baseline_s": baseline_rows(traced_passes[0][1]),
    }
    print("baseline " + json.dumps(info))
    results = [r for p, _ in untraced for r in p] + [r for p, _ in traced_passes for r in p] + probes
    out = {k: {"value": v, "unit": _layer_unit(k)} for k, v in metrics.items()}
    return out, results, adds_up


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "sdprod" / "cli.py").is_file():
        print(f"perfbench: no sdprod sources under {SRC}", file=sys.stderr)
        return 2
    setup_s = measure_setup() if args.trace == 0 else 0.0
    sys.path.insert(0, str(SRC))
    from sdprod import cli

    signal.signal(signal.SIGALRM, _on_alarm)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        cmds = WORKLOADS[args.workload](args.seed, workdir)
        for cmd in cmds:
            for path, text in cmd.files:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
        adds_up = True
        if args.trace == 0:
            metrics, results = end_to_end(cli, cmds, args.seconds, setup_s)
        else:
            metrics, results, adds_up = traced(cli, cmds, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for r in results:
        if r.reason:
            print(f"FAIL {r.cmd.label}: {r.reason}", file=sys.stderr)
    if not adds_up:
        print("FAIL trace: layer self times do not add up to the command times", file=sys.stderr)
    # A command stopped at the limit failed; it gave no wrong answer.
    correct = adds_up and all(r.reason is None or r.rc is None for r in results)
    failed = sum(1 for r in results if r.reason)
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
