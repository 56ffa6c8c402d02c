"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import random
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import inputs  # noqa: E402
import run  # noqa: E402
import steadiness  # noqa: E402
import tracer  # noqa: E402
from sdprod import cli  # noqa: E402
from sdprod.arith import derive_pair  # noqa: E402
from sdprod.congruence import CoreSpec, TupleA, TupleB, check_a, check_b  # noqa: E402
from sdprod.fpcoset import fp_from_extended, parse_relator_lines  # noqa: E402


# --- arithmetic of the reported numbers ------------------------------------


def test_percentile_interpolates_between_ranks():
    xs = list(range(1, 11))  # 1..10
    assert run.percentile(xs, 0.5) == 5.5
    assert run.percentile(xs, 0.9) == pytest.approx(9.1)
    assert run.percentile(xs, 0.0) == 1
    assert run.percentile(xs, 1.0) == 10
    assert run.percentile([7.0], 0.9) == 7.0
    assert run.percentile([3, 1, 2], 0.5) == 2


def test_p90_leaves_ten_samples_above_at_one_hundred():
    xs = list(range(100))
    p90 = run.percentile(xs, 0.9)
    assert sum(1 for x in xs if x > p90) == 10


def test_ok_rate():
    assert run.ok_rate(114, 1) == pytest.approx(113 / 114)
    assert run.ok_rate(5, 0) == 1.0
    assert run.ok_rate(4, 4) == 0.0


def test_spread_is_interquartile_distance_over_median():
    values = [10.0, 11.0, 9.0, 10.0, 10.5, 9.5, 10.0, 12.0, 8.0, 10.0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert steadiness.spread(values) == pytest.approx((q3 - q1) / med)


def test_covered_merges_overlaps():
    assert tracer.covered([]) == 0.0
    assert tracer.covered([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert tracer.covered([(0.0, 2.0), (1.0, 3.0), (1.5, 1.7)]) == 3.0


def test_self_times_add_up_to_the_command():
    spans = [
        tracer.Span("check_a", 1.0, 2.0, 1, 1),
        tracer.Span("build_table", 2.5, 4.0, 1, 1),
        tracer.Span("cli.main", 0.0, 5.0, 1, None),
        tracer.Span("cli.main", 5.0, 6.0, 2, None),
    ]
    selfs = tracer.self_times(spans)
    assert selfs == [1.0, 1.5, 2.5, 1.0]
    m = tracer.layer_metrics(spans, {1: "", 2: ""})
    layer_s = sum(v for k, v in m.items() if run._layer_unit(k) == "s" and k != "trace.commands_s")
    assert layer_s == pytest.approx(m["trace.commands_s"]) == pytest.approx(6.0)
    assert m["cli.self_s"] == pytest.approx(3.5)
    assert m["congruence.check.calls"] == 1


# --- seeded inputs -----------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    make = inputs.WORKLOADS[workload]
    first, again, other = make(1, "w"), make(1, "w"), make(2, "w")
    assert first == again
    assert first != other
    # The slots do not depend on the seed: same subcommands and orders.
    assert [(c.argv[0], c.order, c.kind) for c in first] == [(c.argv[0], c.order, c.kind) for c in other]


def test_every_workload_has_at_least_one_hundred_commands():
    for make in inputs.WORKLOADS.values():
        assert len(make(3, "w")) >= 100


def test_only_the_known_defect_has_the_short_limit():
    # Every other command keeps the generous limit, so a slow host does
    # not change how many commands fail.
    for make in inputs.WORKLOADS.values():
        short = [c.label for c in make(1, "w") if c.limit_s != inputs.COMMAND_LIMIT_S]
        assert short in ([], ["assoc1024-cap"])
    assert inputs.DEFECT_LIMIT_S < inputs.COMMAND_LIMIT_S


def _tuple_of(argv: tuple[str, ...]) -> tuple[int, ...]:
    return tuple(int(v) for v in argv[argv.index("--tuple") + 1].split(","))


def _flag(argv, name) -> int:
    return int(argv[argv.index(name) + 1])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_constructed_tuples_pass_the_library_checks(seed):
    checked = 0
    for make in inputs.WORKLOADS.values():
        for c in make(seed, "w"):
            sub = c.argv[0]
            if sub in ("check-a", "check-b") and not c.label.endswith("(valid)"):
                continue
            if sub not in ("check-a", "check-b", "build", "crosscheck"):
                continue
            t = _tuple_of(c.argv)
            n, m = _flag(c.argv, "--n"), _flag(c.argv, "--m")
            pair = derive_pair(n, m)
            if len(t) == 4:
                assert check_a(pair, TupleA(*t)).valid, c.label
            else:
                cores = CoreSpec(*inputs.tuple_cores(inputs.Ring(n, m), t))
                assert check_b(pair, cores, TupleB(*t)).valid, c.label
            checked += 1
    assert checked > 200


def test_local_conditions_agree_with_the_library_on_random_tuples():
    rng = random.Random(5)
    for _ in range(400):
        n, m = rng.randint(4, 12), rng.randint(4, 12)
        ring, pair = inputs.Ring(n, m), derive_pair(n, m)
        t = inputs.random_a(rng, ring)
        assert inputs.failed_a(ring, t) == check_a(pair, TupleA(*t)).failed_conditions()
        cores = (1 << rng.randrange(4), 1 << rng.randrange(4))
        t = inputs.random_b(rng, ring)
        assert inputs.failed_b(ring, cores, t) == check_b(pair, CoreSpec(*cores), TupleB(*t)).failed_conditions()


def test_enumeration_counts_from_the_solution_sets():
    assert inputs.count_a(inputs.Ring(4, 4)) == 144
    assert inputs.count_a(inputs.Ring(10, 10)) == 266256


def test_relator_files_parse_to_the_library_presentation():
    rng = random.Random(11)
    for n, m in [(4, 4), (4, 5), (5, 5)]:
        ring, pair = inputs.Ring(n, m), derive_pair(n, m)
        for e in [(0, 0), (2, 2), (4, 6)]:
            t = inputs.valid_b(rng, ring, (2, 2))
            parsed = parse_relator_lines(inputs.relator_text(ring, t, *e).splitlines())
            assert parsed == fp_from_extended(pair, TupleB(*t), *e)


# --- tracer coverage ---------------------------------------------------------


def _library_functions_cli_uses() -> set[str]:
    return {
        name
        for name, obj in vars(cli).items()
        if callable(obj) and not isinstance(obj, type)
        and getattr(obj, "__module__", "").startswith("sdprod.")
        and obj.__module__ != "sdprod.cli"
    }


def test_every_library_function_cli_calls_is_wrapped():
    used = _library_functions_cli_uses()
    assert used, "found no library functions in sdprod.cli"
    assert used <= set(tracer.LAYER_OF) | tracer.UNWRAPPED, used - set(tracer.LAYER_OF) - tracer.UNWRAPPED
    for name in tracer.UNWRAPPED:
        assert getattr(cli, name).__module__ == "sdprod.arith"


def test_install_wraps_and_uninstall_restores():
    originals = {name: getattr(cli, name) for name in tracer.LAYER_OF}
    t = tracer.Tracer(cli)
    t.install()
    try:
        for name, fn in originals.items():
            assert getattr(cli, name) is not fn and getattr(cli, name).__wrapped__ is fn
        t.begin(1, "", 256)
        assert cli.main(["check-a", "--n", "4", "--m", "4", "--tuple", "0,2,0,0"]) == 0
    finally:
        t.uninstall()
    assert {name: getattr(cli, name) for name in tracer.LAYER_OF} == originals
    assert [s.name for s in t.spans] == ["check_a"]


# --- the metric names the contract lists --------------------------------------


def _spec() -> dict:
    import json

    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_end_to_end_metrics_match_the_contract():
    spec = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert spec == run.UNITS


def test_per_layer_metrics_match_the_contract():
    produced = set(tracer.layer_metrics([], {})) | set(tracer.memory_metrics([]))
    produced |= {"cli.out_bytes", "cli.cmd_p90_ms", "trace_overhead_s"}
    spec = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert set(spec) == produced
    assert all(run._layer_unit(name) == unit for name, unit in spec.items())
