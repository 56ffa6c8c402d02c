"""The benchmark workloads' outputs, pinned byte for byte.

Each of the three workloads in perfbench/inputs.py is run in process
through cli.main at seeds 1 to 3, and everything its commands give is
hashed into one sha256 per workload and seed: each command's argv, exit
code, stdout, stderr and table file, with the work directory replaced
by a placeholder.  A change that is meant to keep outputs the same
passes unchanged; one that changes an output on purpose updates the
constant and says so.  The inputs are read from perfbench/inputs.py and
nothing there is changed.
"""

import contextlib
import hashlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from sdprod.cli import main

ROOT = Path(__file__).resolve().parents[1]
WORKDIR_PLACEHOLDER = "<workdir>"

# sha256 over every command of the workload at the seed, as
# workload_digest computes it.
DIGESTS = {
    ("classify", 1): "c891bbdbc37306b527038232740405cabd7e9dec4b7434f020ab6bcc862bc126",
    ("classify", 2): "1cff5e2c604db0fec93d3e79ac9333ac173093e68e17ae75b6d2e439fc85c9bb",
    ("classify", 3): "9f40979799c459955ce99b2440f560248288fedd986fc84a719efd213d4f03cb",
    ("construct", 1): "cf068ea6323a69b0b69b6fd9ecd0d02666a8bb702c5fa228d0172f975bfc4a52",
    ("construct", 2): "cfa786a4b4d6efe78e9ebe040f68af6adea2a5c0ad041536f9278a8965de77ec",
    ("construct", 3): "f89a6f0ed6fb7acd681304109201a1f2b943c4218284507bcd45cb3ab964c725",
    ("verify", 1): "4d4edbf2f826a21f0aa7ff91987e47ba9ad8ab5f784f03bdbc0092f3cb2c4238",
    ("verify", 2): "0102d85b9c603e2566090cee864fe0443ffed867ff7b5ee7b3908024d3c33e18",
    ("verify", 3): "4d33bd0276e75b084c1dfa1885653528061714d075419d5b3e095630f215b233",
}


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", ROOT / "perfbench" / "inputs.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = load_workloads()


def workload_digest(name: str, seed: int, workdir: Path) -> str:
    """Run the workload's commands as perfbench/run.py does, and hash what they give.

    Each field is hashed after its name and byte length, so that no two
    different runs give the same stream."""
    work = str(workdir)
    digest = hashlib.sha256()

    def field(name: str, data: bytes) -> None:
        digest.update(f"{name} {len(data)}\n".encode())
        digest.update(data)

    def text(value: str) -> bytes:
        return value.replace(work, WORKDIR_PLACEHOLDER).encode()

    cmds = WORKLOADS[name](seed, work)
    for cmd in cmds:
        for path, content in cmd.files:
            Path(path).write_text(content, encoding="utf-8")
    for cmd in cmds:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(list(cmd.argv))
            except SystemExit as exc:
                rc = exc.code
        field("argv", text("\0".join(cmd.argv)))
        field("exit", str(rc).encode())
        field("stdout", text(out.getvalue()))
        field("stderr", text(err.getvalue()))
        table = cmd.expect.get("table")
        if table and Path(table).exists():
            field("table", Path(table).read_bytes())
            Path(table).unlink()
    return digest.hexdigest()


@pytest.mark.parametrize("name, seed", sorted(DIGESTS))
def test_workload_outputs_are_pinned(tmp_path, name, seed):
    got = workload_digest(name, seed, tmp_path)
    assert got == DIGESTS[name, seed], (
        f"{name} at seed {seed}: the outputs' sha256 is {got}, pinned {DIGESTS[name, seed]}"
    )
