"""Record the reference outcome of every command at the default seed.

    python3 perfbench/record_reference.py

Writes perfbench/reference.json: for each command, the sha256 of its input
bytes, the expected exit code, the exit code observed when recording, and
the sha256 of its stdout.  The expected exit code is the observed one,
except for the shape-malformed inputs, where the CLI's exit-code contract
says 2; while they exit otherwise they are marked as known defects.  Run
it only at a commit whose reports are meant to become the new reference.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys

import gate
import inputs
import run

# the exit-code contract's answer for shape-malformed input
MALFORMED, CONTRACT_EXIT = "malformed/", 2


def record(workload: str) -> dict:
    workdir = run.WORK / f"record-{workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "log").mkdir(parents=True)
    out = {}
    for cmd in sorted(inputs.generate(workload, inputs.DEFAULT_SEED, run.ROOT, workdir),
                      key=lambda c: c.id):
        o = run.run_command(cmd, workdir)
        expected = CONTRACT_EXIT if cmd.id.startswith(MALFORMED) else o.code
        entry = {"input_sha256": cmd.input_digest(workdir), "exit": expected,
                 "observed_exit": o.code,
                 "stdout_sha256": hashlib.sha256(o.stdout.encode()).hexdigest()}
        found = gate.problems(cmd, o.code, o.stdout, o.stderr, expected)
        if found:
            if cmd.id.startswith(MALFORMED):
                entry["known_defect"] = "; ".join(found)
            else:
                print(f"{cmd.id}: fails the gate: {'; '.join(found)}", file=sys.stderr)
        out[cmd.id] = entry
        print(f"{o.wall:7.3f}s exit {o.code} {cmd.id}", file=sys.stderr)
    shutil.rmtree(workdir)
    return out


def main() -> int:
    body = {"seed": inputs.DEFAULT_SEED,
            "workloads": {w: record(w) for w in inputs.WORKLOADS}}
    run.REFERENCE.write_text(json.dumps(body, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
