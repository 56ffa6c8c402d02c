"""Seeded inputs and expected results for the sdprod benchmark workloads.

Everything here is the benchmark's own code: the congruence conditions,
the construction of valid tuples and the relator files are written out
again instead of being taken from `sdprod`, so that a parent commit and
a change receive byte-identical inputs and the expected answers do not
move with the code under test.

A workload is a list of `Command`s.  The list has the same shape for
every seed: each slot fixes the subcommand, the ranks, the requested
cores and the output format, and the seed only picks the tuple inside
that slot.  Slots of one kind cost about the same, so a different seed
changes the inputs but not the amount of work.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field

# Command-line ranks are capped at 20 by the CLI.
MAX_RANK = 20
# A command that runs longer than its limit is stopped and fails.  The
# slowest command that should succeed, build at order 4096, takes 8-11 s
# on a 2-core shared VM and was once seen at 36 s; the limit leaves room
# for such a host, so that a slow machine never turns a success into a
# failure and the number of failed commands is the same on every run.
COMMAND_LIMIT_S = 90.0
# Limit of the one command that runs into the known associativity-cap
# defect.  Its scan takes minutes at any speed, so it always fails; a
# short limit keeps the run short.
DEFECT_LIMIT_S = 15.0


@dataclass(frozen=True)
class Ring:
    """Derived parameters of the rank pair (n, m)."""

    n: int
    m: int

    @property
    def N(self) -> int:
        return 1 << (self.n - 1)

    @property
    def M(self) -> int:
        return 1 << (self.m - 1)

    @property
    def alpha(self) -> int:
        return (1 << (self.n - 2)) - 1

    @property
    def beta(self) -> int:
        return (1 << (self.m - 2)) - 1

    @property
    def order(self) -> int:
        return 4 * self.N * self.M


def additive_order(v: int, modulus: int) -> int:
    return modulus // math.gcd(modulus, v % modulus)


def _unit_roots_minus_one(modulus: int) -> list[int]:
    """Residues v with (1 + v)^2 = 1 modulo a power of two >= 8."""
    half = modulus >> 1
    return sorted({(u - 1) % modulus for u in (1, 1 + half, modulus - 1, half - 1)})


# ---------------------------------------------------------------------------
# The conditions C1..C6 and D1..D12 (and the two core-selecting order
# conditions), returned as the names of the conditions that fail.


def failed_a(ring: Ring, t: tuple[int, int, int, int]) -> tuple[str, ...]:
    N, M = ring.N, ring.M
    a, s, tt, c = t[0] % M, t[1] % N, t[2] % N, t[3] % M
    residuals = (
        ("C1", ((1 + a) * (1 + a) - 1) % M),
        ("C2", ((1 + s) * (1 + s) - 1) % N),
        ("C3", tt * (2 + s) % N),
        ("C4", c * (1 + ring.beta) % M),
        ("C5", tt * (1 + ring.alpha) % N),
        ("C6", c * (2 + a) % M),
    )
    return tuple(tag for tag, res in residuals if res)


def failed_b(ring: Ring, cores: tuple[int, int] | None, t: tuple[int, ...]) -> tuple[str, ...]:
    """D1..D12, plus ORD-R and ORD-B when cores = (n1, m1) is given."""
    N, M, alpha, beta = ring.N, ring.M, ring.alpha, ring.beta
    r, a, s, b, tt, c = t[0] % N, t[1] % M, t[2] % N, t[3] % M, t[4] % N, t[5] % M
    residuals = (
        ("D1", r * (alpha + 1 + a) % N),
        ("D2", ((1 + a) * (1 + a) - 1) % M),
        ("D3", ((1 + s) * (1 + s) - 1) % N),
        ("D4", b * (1 + s + beta) % M),
        ("D5", r * (beta - 1 - s) % N),
        ("D6", b * r % M),
        ("D7", b * (alpha - 1 - a) % M),
        ("D8", r * b % N),
        ("D9", tt * (2 + s) % N),
        ("D10", (c * (1 + beta) + tt * b) % M),
        ("D11", (tt * (1 + alpha) + c * r) % N),
        ("D12", c * (2 + a) % M),
    )
    failed = [tag for tag, res in residuals if res]
    if cores is not None:
        n1, m1 = cores
        if additive_order(r, N) != m1:
            failed.append("ORD-R")
        if additive_order(b, M) != n1:
            failed.append("ORD-B")
    return tuple(failed)


def tuple_cores(ring: Ring, t: tuple[int, ...]) -> tuple[int, int]:
    """Core indices (n1, m1) selected by a six-field tuple: ord(b), ord(r)."""
    return additive_order(t[3], ring.M), additive_order(t[0], ring.N)


# ---------------------------------------------------------------------------
# Valid tuples, built from the solution sets of the conditions.


def _step(modulus: int, *coefficients: int) -> int:
    """Smallest step of the residues v with v * k = 0 for every k given."""
    return math.lcm(*(modulus // math.gcd(k % modulus, modulus) for k in coefficients))


def count_a(ring: Ring) -> int:
    """Number of valid four-field tuples, from the solution sets."""
    N, M = ring.N, ring.M
    total = 0
    for a in _unit_roots_minus_one(M):
        for s in _unit_roots_minus_one(N):
            total += (N // _step(N, 2 + s, 1 + ring.alpha)) * (M // _step(M, 1 + ring.beta, 2 + a))
    return total


def valid_a(rng: random.Random, ring: Ring) -> tuple[int, int, int, int]:
    N, M = ring.N, ring.M
    a = rng.choice(_unit_roots_minus_one(M))
    s = rng.choice(_unit_roots_minus_one(N))
    step_t = _step(N, 2 + s, 1 + ring.alpha)
    step_c = _step(M, 1 + ring.beta, 2 + a)
    return (a, s, step_t * rng.randrange(N // step_t), step_c * rng.randrange(M // step_c))


def _of_order(order: int, modulus: int) -> list[int]:
    """Residues of the given additive order modulo a power of two."""
    if order == 1:
        return [0]
    return [k * (modulus // order) for k in range(1, order, 2)]


def valid_b(rng: random.Random, ring: Ring, cores: tuple[int, int]) -> tuple[int, ...]:
    """A six-field tuple satisfying D1..D12 whose cores are (n1, m1)."""
    N, M = ring.N, ring.M
    n1, m1 = cores
    heads = [
        (r, a, s, b)
        for r in _of_order(m1, N)
        for a in _unit_roots_minus_one(M)
        for s in _unit_roots_minus_one(N)
        for b in _of_order(n1, M)
        if not failed_b(ring, None, (r, a, s, b, 0, 0))
    ]
    if not heads:
        raise ValueError(f"no tuple with cores {cores} at ranks ({ring.n}, {ring.m})")
    r, a, s, b = rng.choice(heads)
    # D9 and D12 fix the lattices of t and c; D10/D11 couple them.  (0, 0)
    # always solves the coupled pair, so the search ends either way.
    step_t = _step(N, 2 + s)
    step_c = _step(M, 2 + a)
    for _ in range(64):
        t = step_t * rng.randrange(N // step_t)
        c = step_c * rng.randrange(M // step_c)
        if not failed_b(ring, None, (r, a, s, b, t, c)):
            return (r, a, s, b, t, c)
    return (r, a, s, b, 0, 0)


def random_a(rng: random.Random, ring: Ring) -> tuple[int, int, int, int]:
    return (rng.randrange(ring.M), rng.randrange(ring.N), rng.randrange(ring.N), rng.randrange(ring.M))


def random_b(rng: random.Random, ring: Ring) -> tuple[int, ...]:
    N, M = ring.N, ring.M
    return tuple(rng.randrange(k) for k in (N, M, N, M, N, M))


# ---------------------------------------------------------------------------
# Relator files.


def _token(letter: str, exponent: int) -> list[str]:
    """x^e as file tokens; negative exponents use the uppercase letter."""
    if exponent == 0:
        return []
    sym = letter if exponent > 0 else letter.upper()
    k = abs(exponent)
    return [sym if k == 1 else f"{sym}^{k}"]


def relator_text(ring: Ring, t: tuple[int, ...], e1: int, e2: int) -> str:
    """The ten relators of the product with [x,z] = x^e1 z^e2, one a line."""
    N, M = ring.N, ring.M
    r, a, s, b, tt, c = t[0] % N, t[1] % M, t[2] % N, t[3] % M, t[4] % N, t[5] % M
    e1, e2 = e1 % N, e2 % M
    words = [
        _token("x", N),
        _token("y", 2),
        _token("z", M),
        _token("w", 2),
        ["Y", "x", "y"] + _token("x", -ring.alpha),
        ["W", "z", "w"] + _token("z", -ring.beta),
        ["X", "Z", "x", "z"] + _token("z", -e2) + _token("x", -e1),
        ["Z", "Y", "z", "y"] + _token("z", -a) + _token("x", -r),
        ["X", "W", "x", "w"] + _token("z", -b) + _token("x", -s),
        ["Y", "W", "y", "w"] + _token("z", -c) + _token("x", -tt),
    ]
    head = f"# ranks ({ring.n}, {ring.m}) tuple {','.join(map(str, t))} [x,z] = x^{e1} z^{e2}"
    return "\n".join([head] + [" ".join(w) for w in words]) + "\n"


# Twisted presentations ([x,z] = x^e1 z^e2 != 1) that collapse below 4NM,
# with the coset counts recorded at the seed commit: (n, m, tuple, e1, e2,
# cosets).  The same thirteen run for every seed, so that their cost,
# which varies a lot between presentations, does not vary with the seed.
# `tc` times on a 2-core VM: the first two about 1.1 s (enumeration bound
# by coincidences), the next three 0.45-0.6 s, the rest 0.12-0.25 s.
TWISTED = (
    (5, 5, (8, 0, 8, 0, 8, 0), 2, 14, 256),
    (5, 5, (12, 8, 14, 0, 2, 0), 8, 10, 512),
    (5, 5, (0, 6, 6, 8, 0, 2), 2, 12, 512),
    (5, 5, (8, 6, 14, 0, 12, 12), 4, 12, 512),
    (5, 5, (8, 14, 6, 8, 10, 0), 4, 4, 512),
    (4, 5, (2, 8, 2, 0, 0, 0), 4, 14, 128),
    (4, 5, (4, 6, 6, 8, 2, 4), 6, 10, 256),
    (4, 5, (4, 14, 4, 4, 0, 0), 6, 8, 256),
    (5, 4, (4, 4, 14, 0, 8, 0), 14, 2, 256),
    (5, 5, (0, 14, 8, 8, 8, 14), 14, 2, 256),
    (5, 5, (8, 14, 14, 8, 9, 5), 6, 8, 128),
    (5, 5, (12, 8, 6, 0, 8, 8), 10, 14, 256),
    (5, 5, (12, 8, 14, 0, 2, 0), 12, 12, 256),
)


# ---------------------------------------------------------------------------
# Commands.


@dataclass(frozen=True)
class Command:
    """One timed `sdprod` call and what its output must show."""

    label: str
    argv: tuple[str, ...]
    expect: dict
    order: int = 0  # group order the command works at; 0 when it builds none
    kind: str = ""  # "twisted" / "untwisted" for coset enumerations
    files: tuple[tuple[str, str], ...] = field(default=())  # inputs written before timing
    limit_s: float = COMMAND_LIMIT_S  # wall-clock seconds before the command is stopped


def _tuple_arg(t: tuple[int, ...]) -> str:
    return ",".join(str(v) for v in t)


def _interleave(stream: list[Command], extra: list[Command]) -> list[Command]:
    """Spread the extra commands evenly through the stream."""
    every = len(stream) // len(extra)
    out: list[Command] = []
    for i, cmd in enumerate(stream):
        if i % every == 0 and i // every < len(extra):
            out.append(extra[i // every])
        out.append(cmd)
    return out


def _check_cmd(rng: random.Random, index: int) -> Command:
    """One point query: check-a or check-b, valid by construction or random."""
    n, m = rng.randint(4, MAX_RANK), rng.randint(4, MAX_RANK)
    ring = Ring(n, m)
    fmt = "json" if index % 4 >= 2 else "text"
    constructed = index % 2 == 0
    if index % 8 < 4:
        t = valid_a(rng, ring) if constructed else random_a(rng, ring)
        argv = ("check-a", "--n", str(n), "--m", str(m), "--tuple", _tuple_arg(t))
        failed = failed_a(ring, t)
    else:
        if constructed:
            cores = rng.choice([(1, 1), (2, 2), (1, 2), (2, 1)])
            t = valid_b(rng, ring, cores)
        else:
            cores = (1 << rng.randrange(4), 1 << rng.randrange(4))
            t = random_b(rng, ring)
        argv = ("check-b", "--n", str(n), "--m", str(m), "--n1", str(cores[0]),
                "--m1", str(cores[1]), "--tuple", _tuple_arg(t))
        failed = failed_b(ring, cores, t)
    if constructed and failed:
        raise AssertionError(f"constructed tuple {t} fails {failed}")
    label = f"{argv[0]}#{index}({'valid' if constructed else 'random'})"
    return Command(label, argv + ("--format", fmt), {"failed": failed, "format": fmt})


def _enumerate_a_cmd(n: int, fmt: str, m: int | None = None) -> Command:
    m = n if m is None else m
    ring = Ring(n, m)
    expect = {"count": count_a(ring), "format": fmt, "fields": ("a", "s", "t", "c")}
    if (n, m) == (4, 4):
        expect["s_hist"] = {0: 24, 2: 48, 4: 24, 6: 48}
    argv = ("enumerate-a", "--n", str(n), "--m", str(m), "--format", fmt)
    return Command(f"enumerate-a({n},{m},{fmt})", argv, expect)


# enumerate-b counts at the seed commit: (10,10) cores (1,1) and (2,2).
ENUMERATE_B_COUNTS = {(1, 1): 266256, (2, 2): 331792}


def _enumerate_b_cmd(cores: tuple[int, int], fmt: str) -> Command:
    argv = ("enumerate-b", "--n", "10", "--m", "10", "--n1", str(cores[0]),
            "--m1", str(cores[1]), "--allow-large", "--format", fmt)
    expect = {"count": ENUMERATE_B_COUNTS[cores], "format": fmt,
              "fields": ("r", "a", "s", "b", "t", "c")}
    return Command(f"enumerate-b(10,10,cores={cores[0]}/{cores[1]},{fmt})", argv, expect)


def classify(seed: int, workdir: str) -> list[Command]:
    """Listings at the reference ranks plus a stream of point queries."""
    rng = random.Random(f"classify:{seed}")
    listings = [_enumerate_a_cmd(n, fmt) for n in range(4, 11) for fmt in ("text", "json", "csv")]
    listings += [_enumerate_b_cmd((1, 1), "text"), _enumerate_b_cmd((2, 2), "csv")]
    # Listings of about 17,500 tuples (order 2^16) at seeded rank pairs:
    # a block of like commands where p90 falls.
    for _ in range(36):
        n = rng.choice((7, 8, 9))
        listings.append(_enumerate_a_cmd(n, "text", 16 - n))
    return _interleave([_check_cmd(rng, i) for i in range(300)], listings)


def _build_cmd(
    rng: random.Random, label: str, n: int, m: int, cores: tuple[int, int] | None,
    fmt: str, workdir: str | None = None, assoc: bool = False, expect_exit: int = 0,
    limit_s: float = COMMAND_LIMIT_S,
) -> Command:
    """build on a seeded valid tuple; cores None means a four-field tuple."""
    ring = Ring(n, m)
    t = valid_a(rng, ring) if cores is None else valid_b(rng, ring, cores)
    n1, m1 = (1, 1) if cores is None else cores
    argv = ["build", "--n", str(n), "--m", str(m), "--tuple", _tuple_arg(t), "--format", fmt]
    expect: dict = {
        "exit": expect_exit, "format": fmt, "order": ring.order, "h": 2 * ring.N,
        "k": 2 * ring.M, "core_x": ring.N // n1, "core_z": ring.M // m1,
    }
    if workdir is not None:
        path = os.path.join(workdir, f"{label}.table")
        argv += ["--output", path]
        expect["table"] = path
    if assoc:
        argv.append("--verify-associativity")
        expect["assoc"] = True
    return Command(label, tuple(argv), expect, order=ring.order, limit_s=limit_s)


def construct(seed: int, workdir: str) -> list[Command]:
    """build at orders 256 to 4096, with table files and associativity scans."""
    rng = random.Random(f"construct:{seed}")
    cmds: list[Command] = []
    shapes = [None, (2, 2), (1, 2), (2, 1)]
    for i in range(96):
        table_dir = workdir if i % 5 == 0 else None
        cmds.append(_build_cmd(rng, f"build256#{i}", 4, 4, shapes[i % 4],
                               ("text", "json")[i // 4 % 2], table_dir))
    for i, (n, m) in enumerate([(4, 5), (5, 4)] * 4):
        cmds.append(_build_cmd(rng, f"build512#{i}", n, m, shapes[i % 4], ("text", "json")[i % 2]))
    for i, cores in enumerate([None, (2, 2), None, (4, 2), (1, 2), (2, 4)]):
        table_dir = workdir if i in (1, 2) else None
        cmds.append(_build_cmd(rng, f"build1024#{i}", 5, 5, cores, ("text", "json")[i % 2], table_dir))
    cmds.append(_build_cmd(rng, "build4096", 6, 6, (2, 2), "text"))
    cmds.append(_build_cmd(rng, "assoc256#0", 4, 4, None, "text", assoc=True))
    cmds.append(_build_cmd(rng, "assoc256#1", 4, 4, (2, 2), "json", assoc=True))
    # Order 1024 is past the associativity cap (512): the documented
    # answer is exit 2 without a scan.
    cmds.append(_build_cmd(rng, "assoc1024-cap", 5, 5, None, "text", assoc=True, expect_exit=2,
                           limit_s=DEFECT_LIMIT_S))
    return _interleave(cmds[:96], cmds[96:])


def _tc_file_cmd(label: str, workdir: str, ring: Ring, t: tuple[int, ...], e: tuple[int, int],
                 fmt: str, expect: dict, kind: str) -> Command:
    path = os.path.join(workdir, f"{label}.rel")
    argv = ("tc", "--relators", path, "--format", fmt)
    return Command(label, argv, dict(expect, format=fmt), order=ring.order, kind=kind,
                   files=((path, relator_text(ring, t, *e)),))


def verify(seed: int, workdir: str) -> list[Command]:
    """Coset enumeration: the preset, relator files and crosschecks."""
    rng = random.Random(f"verify:{seed}")
    cmds: list[Command] = []
    preset = {"cosets": 256, "xz": (2, 2), "core_x": 4, "core_z": 4}
    for fmt in ("text", "json"):
        cmds.append(Command(f"tc-example-6-5({fmt})", ("tc", "--preset", "example-6-5", "--format", fmt),
                            dict(preset, format=fmt), order=256, kind="twisted"))
    shapes = [(1, 1), (2, 2), (1, 2), (2, 1)]
    plan = [(4, 4)] * 16 + [(4, 5), (5, 4)] + [(5, 5)]
    for i, (n, m) in enumerate(plan):
        ring = Ring(n, m)
        cores = shapes[i % 4]
        t = valid_b(rng, ring, cores)
        expect = {"cosets": ring.order, "h": 2 * ring.N, "k": 2 * ring.M, "meet": 1,
                  "xz": (0, 0), "core_x": ring.N // cores[0], "core_z": ring.M // cores[1],
                  "sd": True}
        cmds.append(_tc_file_cmd(f"tc{ring.order}#{i}", workdir, ring, t, (0, 0),
                                 ("text", "json")[i % 2], expect, "untwisted"))
    for i, (n, m, t, e1, e2, cosets) in enumerate(TWISTED):
        cmds.append(_tc_file_cmd(f"tc-twisted#{i}", workdir, Ring(n, m), t, (e1, e2),
                                 ("text", "json")[i % 2], {"cosets": cosets}, "twisted"))
    # Order 256 uses the cores (1,2) and (2,1) only: they cost alike, and
    # the median command lies in this block.
    plan = [(4, 4)] * 80 + [(4, 5), (5, 4)] * 3 + [(5, 5)] * 8
    for i, (n, m) in enumerate(plan):
        ring = Ring(n, m)
        if n == m == 4:
            t = valid_b(rng, ring, ((1, 2), (2, 1))[i % 2])
        else:
            t = valid_a(rng, ring) if i % 3 == 0 else valid_b(rng, ring, shapes[i % 4])
        argv = ("crosscheck", "--n", str(n), "--m", str(m), "--tuple", _tuple_arg(t))
        cmds.append(Command(f"crosscheck{ring.order}#{i}", argv, {"order": ring.order},
                            order=ring.order, kind="untwisted"))
    return cmds


WORKLOADS = {"classify": classify, "construct": construct, "verify": verify}
