"""Output checks: every timed command's exit code and output against the
values its `Command.expect` pins.

Text and JSON outputs are parsed into one dictionary shape first, so the
comparison is the same for both formats.  A check returns None when the
output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import json
import re

from inputs import Command


def _kv_lines(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def _check_enumerate(cmd: Command, rc: int, out: str) -> str | None:
    e = cmd.expect
    if rc != 0:
        return f"exit {rc}, expected 0"
    fmt = e["format"]
    if fmt == "json":
        doc = json.loads(out)
        count, listed = doc["count"], len(doc["tuples"])
        fields = tuple(doc["fields"])
        even = doc["all_fields_even"]
        s_hist = {int(k): v for k, v in doc["histograms"]["s"].items()}
    elif fmt == "csv":
        lines = out.splitlines()
        fields = tuple(lines[0].split(","))
        count = listed = len(lines) - 1
        even, s_hist = True, None
    else:
        lines = out.splitlines()
        kv = _kv_lines("\n".join(lines[-8:]))
        count = int(kv["count"])
        listed = sum(1 for line in lines if line[:1].isdigit())
        fields = e["fields"]
        even = kv.get("parity") == "all fields even"
        s_hist = {int(k): int(v) for k, v in (p.split("=") for p in kv["histogram s"].split())}
    if fields != e["fields"]:
        return f"fields {fields}, expected {e['fields']}"
    if count != e["count"] or listed != e["count"]:
        return f"count {count} with {listed} listed, expected {e['count']}"
    if not even:
        return "parity audit reports an odd field"
    if "s_hist" in e and s_hist is not None and s_hist != e["s_hist"]:
        return f"s-histogram {s_hist}, expected {e['s_hist']}"
    return None


def _check_verdict(cmd: Command, rc: int, out: str) -> str | None:
    failed = cmd.expect["failed"]
    want_rc = 1 if failed else 0
    if rc != want_rc:
        return f"exit {rc}, expected {want_rc}"
    if cmd.expect["format"] == "json":
        doc = json.loads(out)
        got = tuple(tag for tag, v in doc["conditions"].items() if not v["passed"])
        valid = doc["valid"]
    else:
        kv = _kv_lines(out)
        got = tuple(tag for tag, v in kv.items() if v.startswith("FAIL"))
        valid = kv.get("verdict") == "valid"
    if got != failed or valid == bool(failed):
        return f"failed conditions {got}, expected {failed}"
    return None


_BUILD_TEXT = re.compile(
    r"consistency: (\d+)/(\d+) identities hold\n"
    r"order: (\d+)\n"
    r"\|H\| = (\d+)  \|K\| = (\d+)  \|H meet K\| = (\d+)\n"
    r"<x> normal: (yes|NO)  <z> normal: (yes|NO)\n"
    r"core of <x>: order (\d+)  core of <z>: order (\d+)\n"
)


def _parse_build(fmt: str, out: str) -> dict:
    if fmt == "json":
        return json.loads(out)
    m = _BUILD_TEXT.search(out)
    if m is None:
        raise ValueError("unrecognised build output")
    g = m.groups()
    doc = {
        "consistency_passed": int(g[0]), "consistency_total": int(g[1]), "order": int(g[2]),
        "h_order": int(g[3]), "k_order": int(g[4]), "intersection_order": int(g[5]),
        "x_normal": g[6] == "yes", "z_normal": g[7] == "yes",
        "core_x_order": int(g[8]), "core_z_order": int(g[9]),
    }
    kv = _kv_lines(out)
    if "associativity" in kv:
        doc["associative"] = kv["associativity"] == "verified"
    if "table written to" in kv:
        doc["table_written_to"] = kv["table written to"]
    return doc


def _check_table(path: str, order: int) -> str | None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines[0] != "# sdprod group table v1" or lines[4] != f"order: {order}":
        return "table file header"
    if len(lines) != order + 5:
        return f"table file has {len(lines) - 5} rows, expected {order}"
    if lines[5] != " ".join(map(str, range(order))):
        return "table file: the identity row is not 0..order-1"
    return None


def _check_build(cmd: Command, rc: int, out: str) -> str | None:
    e = cmd.expect
    if rc != e["exit"]:
        return f"exit {rc}, expected {e['exit']}"
    if rc != 0:
        return None
    doc = _parse_build(e["format"], out)
    want = {
        "consistency_passed": 16, "consistency_total": 16, "order": e["order"],
        "h_order": e["h"], "k_order": e["k"], "intersection_order": 1,
        "x_normal": e["core_x"] * 2 == e["h"], "z_normal": e["core_z"] * 2 == e["k"],
        "core_x_order": e["core_x"], "core_z_order": e["core_z"],
    }
    if "assoc" in e:
        want["associative"] = True
    if "table" in e:
        want["table_written_to"] = e["table"]
    for key, value in want.items():
        if doc.get(key) != value:
            return f"{key} = {doc.get(key)!r}, expected {value!r}"
    if "table" in e:
        return _check_table(e["table"], e["order"])
    return None


_TC_TEXT = re.compile(
    r"cosets: (\d+)\n.*\n"
    r"\|<x,y>\| = (\d+) \(semidihedral: (yes|no)\)\n"
    r"\|<z,w>\| = (\d+) \(semidihedral: (yes|no)\)\n"
    r"intersection: (\d+)\n"
    r"\[x,z\] = (.*)\n"
    r"core of <x>: (\d+)  core of <z>: (\d+)\n"
)


def _parse_tc(fmt: str, out: str) -> dict:
    if fmt == "json":
        doc = json.loads(out)
        xz = doc["xz_commutator"]
        return {
            "cosets": doc["order"], "h": doc["h_order"], "k": doc["k_order"],
            "meet": doc["intersection_order"], "xz": tuple(xz) if xz is not None else None,
            "core_x": doc["core_x_order"], "core_z": doc["core_z_order"],
            "sd": doc["h_semidihedral"] and doc["k_semidihedral"],
        }
    m = _TC_TEXT.search(out)
    if m is None:
        raise ValueError("unrecognised tc output")
    g = m.groups()
    if g[6] == "1":
        xz = (0, 0)
    else:
        p = re.fullmatch(r"x\^(\d+) z\^(\d+)", g[6])
        xz = (int(p.group(1)), int(p.group(2))) if p else None
    return {
        "cosets": int(g[0]), "h": int(g[1]), "k": int(g[3]), "meet": int(g[5]), "xz": xz,
        "core_x": int(g[7]), "core_z": int(g[8]), "sd": g[2] == "yes" and g[4] == "yes",
    }


def _check_tc(cmd: Command, rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit {rc}, expected 0"
    doc = _parse_tc(cmd.expect["format"], out)
    for key, value in cmd.expect.items():
        if key != "format" and doc[key] != value:
            return f"{key} = {doc[key]!r}, expected {value!r}"
    return None


def _check_crosscheck(cmd: Command, rc: int, out: str) -> str | None:
    order = cmd.expect["order"]
    want = f"collection: {order}, enumeration: {order}, AGREE\n"
    if rc != 0 or out != want:
        return f"exit {rc}, output {out.strip()!r}, expected {want.strip()!r}"
    return None


_CHECKERS = {
    "enumerate-a": _check_enumerate,
    "enumerate-b": _check_enumerate,
    "check-a": _check_verdict,
    "check-b": _check_verdict,
    "build": _check_build,
    "tc": _check_tc,
    "crosscheck": _check_crosscheck,
}


def check(cmd: Command, rc: int, out: str) -> str | None:
    """None if the exit code and output match cmd.expect, else the reason."""
    try:
        return _CHECKERS[cmd.argv[0]](cmd, rc, out)
    except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
        return f"unreadable output ({type(exc).__name__}: {exc})"
