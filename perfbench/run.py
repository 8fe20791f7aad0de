"""End-to-end and per-layer benchmark of the crossedcat CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each command of the workload runs as a
fresh `python -m crossedcat.cli ...` process, one at a time, with the
default `--jobs`.  A run makes a fixed number of passes over the command
list, the most that fit in S seconds at the seed commit's speed on a quiet
host (`passes`), alternating the order.  The count depends on S and the
workload only, never on how fast this run goes, so every command gets the
same number of samples in every run.  While a command runs it is paused
every 20 ms for a probe of the host's speed (hostspeed.py), and
its wall and CPU times are scaled to a reference host speed.  Per-command
figures are the median over a command's samples, and a pass's figures are
built from them.  Every execution goes through the correctness gate in
gate.py.

With `--trace 0` the last stdout line reports the end-to-end metrics.  With
`--trace 1` it runs one pass under traced_cli.py and reports the per-layer
metrics, the tracer's own time included.  Metric units come from
BENCHMARK.json.  Generated inputs and logs go to perfbench/_work/.
"""

from __future__ import annotations

import argparse
import compileall
import ctypes
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import gate
import hostspeed
import inputs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 3  # before the first pass and again after every pass
SETUP_PROBES = 8  # host-speed probes just before and just after each set-up
# wall_s of one pass on a quiet host at the benchmark's seed commit: the
# fastest runs of ten-run sets 801-1010 on a 2-vCPU Xeon VM at 2.0 GHz
# (README.md)
SEED_PASS_S = {"center-large": 11.97, "small-inputs": 13.60}


@dataclass
class Outcome:
    cmd: inputs.Command
    code: int
    wall: float  # measured, pauses for probing and steal left out
    cpu: float
    rss_mb: float
    stdout: str
    stderr: str
    scale: float = 1.0  # hostspeed scale factor of this execution
    stolen: float = 0.0


def _die_with_parent() -> None:
    """In the child: get SIGKILL when the benchmark dies, even while paused."""
    ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_command(cmd: inputs.Command, workdir: Path, trace_out: Path | None = None) -> Outcome:
    """Run one command in a fresh process; rusage is that child's alone.
    Untraced runs are probed for host speed (hostspeed.py)."""
    out_path, err_path = workdir / "log" / "stdout", workdir / "log" / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        if trace_out is None:
            argv = [sys.executable, "-m", "crossedcat.cli", *cmd.argv]
        else:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(trace_out), cmd.id,
                    repr(t0), "--", *cmd.argv]
        proc = subprocess.Popen(argv, cwd=workdir, env=_env(), stdout=out, stderr=err,
                                start_new_session=True, preexec_fn=_die_with_parent)
        w = hostspeed.watch(proc.pid, t0, sample=trace_out is None)
        proc.returncode = w.code
    return Outcome(cmd, w.code, w.wall, w.usage.ru_utime + w.usage.ru_stime,
                   w.usage.ru_maxrss / 1024.0, out_path.read_text(), err_path.read_text(),
                   w.scale, w.stolen)


def passes(workload: str, seconds: float) -> int:
    """How many passes fit in `seconds` at the seed commit's quiet-host speed,
    at least one."""
    return max(1, int(seconds // SEED_PASS_S[workload]))


def measure(cmds: list[inputs.Command], workdir: Path, k: int,
            after_pass=lambda: None) -> list[Outcome]:
    """k passes over the list, every other one in reverse, so that slow
    stretches of the host fall on different commands."""
    outcomes = []
    for p in range(k):
        outcomes += [run_command(c, workdir) for c in (cmds if p % 2 == 0 else cmds[::-1])]
        after_pass()
    return outcomes


# -- set-up --------------------------------------------------------------------

def check_checkout() -> None:
    for need in (ROOT / "src" / "crossedcat" / "cli.py", ROOT / "fixtures", REFERENCE,
                 ROOT / "BENCHMARK.json"):
        if not need.exists():
            raise SystemExit(f"perfbench: {need.relative_to(ROOT)} is missing; "
                             "run from the root of a crossedcat checkout")


def setup(workload: str, seed: int) -> tuple[list[inputs.Command], dict]:
    """Warm bytecode, generate the seeded inputs and load the reference outcomes."""
    compileall.compile_dir(str(ROOT / "src" / "crossedcat"), quiet=1)
    subprocess.run([sys.executable, "-m", "crossedcat.cli", "--help"], env=_env(),
                   stdout=subprocess.DEVNULL, check=True)
    workdir = WORK / workload
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "log").mkdir(parents=True)
    cmds = inputs.generate(workload, seed, ROOT, workdir)
    reference = json.loads(REFERENCE.read_text())["workloads"][workload]
    expected = {}
    for c in cmds:
        ref = reference.get(c.id)
        if ref is not None and ref["input_sha256"] == c.input_digest(workdir):
            expected[c.id] = ref
    return cmds, expected


# -- metrics -------------------------------------------------------------------

def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated as statistics.quantiles(method='inclusive')."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(outcomes: list[Outcome], setup_s: float) -> dict:
    """Pass figures from each command's median figures over the run's
    samples, times scaled to the reference host speed."""
    samples: dict[str, list[Outcome]] = {}
    for o in outcomes:
        samples.setdefault(o.cmd.id, []).append(o)

    def per_cmd(value):
        return [statistics.median(value(o) for o in s) for s in samples.values()]

    walls = per_cmd(lambda o: o.wall * o.scale)
    return {
        "wall_s": sum(walls),
        "cmd_p50_s": percentile(walls, 50),
        "cmd_p90_s": percentile(walls, 90),
        "cpu_s": sum(per_cmd(lambda o: o.cpu * o.scale)),
        "peak_rss_mb": max(per_cmd(lambda o: o.rss_mb)),
        "setup_s": setup_s,
    }


def per_layer(traced: list[Outcome], trace_dir: Path, expected: dict) -> dict:
    records = [json.loads((trace_dir / f"{i}.json").read_text()) for i in range(len(traced))]
    m = spans.layer_metrics(records)
    m["report.changed"] = sum(
        1 for o in traced if o.cmd.id in expected
        and hashlib.sha256(o.stdout.encode()).hexdigest() != expected[o.cmd.id]["stdout_sha256"])
    return m


def declared_units(kind: str) -> dict[str, str]:
    """name -> unit of BENCHMARK.json's `end_to_end` or `per_layer` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def gate_all(outcomes: list[Outcome], expected: dict) -> tuple[int, bool]:
    """(failed, correct); only recorded known defects may fail and stay correct."""
    failed = 0
    correct = True
    for o in outcomes:
        ref = expected.get(o.cmd.id)
        found = gate.problems(o.cmd, o.code, o.stdout, o.stderr,
                              None if ref is None else ref["exit"])
        if found:
            failed += 1
            known = ref is not None and "known_defect" in ref
            correct = correct and known
            print(f"gate {'known defect' if known else 'FAIL'}: {o.cmd.id}: "
                  + "; ".join(found), file=sys.stderr)
    return failed, correct


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    check_checkout()

    setup_times = []

    def set_up():
        for _ in range(SETUP_REPEATS):
            before = [hostspeed.probe() for _ in range(SETUP_PROBES)]
            t0 = time.perf_counter()
            made = setup(args.workload, args.seed)
            took = time.perf_counter() - t0
            after = [hostspeed.probe() for _ in range(SETUP_PROBES)]
            setup_times.append(took * hostspeed.REF_PROBE_S / statistics.fmean(before + after))
        return made

    cmds, expected = set_up()
    workdir = WORK / args.workload

    if args.trace:
        trace_dir = workdir / "spans"
        trace_dir.mkdir()
        outcomes = [run_command(c, workdir, trace_dir / f"{i}.json") for i, c in enumerate(cmds)]
        metrics = per_layer(outcomes, trace_dir, expected)
    else:
        # setting up again after every pass spreads the set-up samples over
        # the whole run, so their median sees the host as the passes did
        outcomes = measure(cmds, workdir, passes(args.workload, args.seconds), set_up)
        metrics = end_to_end(outcomes, statistics.median(setup_times))
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} "
                         "are not both measured and declared in BENCHMARK.json")
    failed, correct = gate_all(outcomes, expected)

    print(f"workload {args.workload} seed {args.seed}: {len(outcomes)} executions of "
          f"{len(cmds)} commands, {failed} failed the gate")
    for name, value in metrics.items():
        print(f"  {name:30s} {value:14.6f} {units[name]}")
    if not args.trace:
        print(f"  measured wall time {sum(o.wall for o in outcomes):.3f} s over the run "
              f"({sum(o.stolen for o in outcomes):.3f} s of steal left out), "
              f"scale {min(o.scale for o in outcomes):.3f}-{max(o.scale for o in outcomes):.3f}")
    print("  slowest commands (first pass, measured):")
    for o in sorted(outcomes[:len(cmds)], key=lambda o: -o.wall)[:5]:
        print(f"    {o.wall:8.3f} s  scale {o.scale:5.3f}  exit {o.code}  {o.cmd.id}")
    print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
