"""Tests of the benchmark's own code: input generation, the gate, self time,
the computed work counters and the host-speed probe.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gate  # noqa: E402
import hostspeed  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
import traced_cli  # noqa: E402


def _files(workdir: Path) -> dict[str, bytes]:
    return {str(p.relative_to(workdir)): p.read_bytes()
            for p in sorted(workdir.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_generation_is_deterministic_per_seed(tmp_path, workload):
    a = inputs.generate(workload, 7, ROOT, tmp_path / "a")
    b = inputs.generate(workload, 7, ROOT, tmp_path / "b")
    assert a == b
    assert _files(tmp_path / "a") == _files(tmp_path / "b")


def test_seed_changes_small_inputs(tmp_path):
    a = inputs.generate("small-inputs", 1, ROOT, tmp_path / "a")
    b = inputs.generate("small-inputs", 2, ROOT, tmp_path / "b")
    assert len(a) == len(b) >= 100
    assert _files(tmp_path / "a") != _files(tmp_path / "b")


def test_program_sees_only_generated_files(tmp_path):
    for cmd in inputs.generate("small-inputs", 3, ROOT, tmp_path):
        assert all(not a.startswith(("/", "fixtures")) for a in cmd.argv)
        assert all((tmp_path / rel).is_file() for rel in cmd.inputs)


VERIFY = inputs.Command("verify/x", ("verify", "category", "in/x.json"), ("in/x.json",))
PASS = json.dumps({"pass": True, "checks": [{"name": "a", "pass": True}]})
FAIL = json.dumps({"pass": False, "checks": [{"name": "a", "pass": False, "witness": [1, 2]}]})


def test_gate_accepts_well_formed_outcomes():
    assert gate.problems(VERIFY, 0, PASS, "") == []
    assert gate.problems(VERIFY, 1, FAIL, "", expected_exit=1) == []
    assert gate.problems(VERIFY, 2, "", '{"error": "bad"}\n') == []
    zs = inputs.Command("zappa-szep/x", ("zappa-szep", "in/x.json", "-o", "out/x.json"), ())
    assert gate.problems(zs, 0, '{"order": 6, "written": "out/x.json"}', "") == []


def test_gate_flags_traceback():
    err = 'Traceback (most recent call last):\n  File "x"\nTypeError: nope\n'
    assert any("traceback" in p for p in gate.problems(VERIFY, 1, "", err))


def test_gate_flags_wrong_exit_code():
    assert gate.problems(VERIFY, 0, PASS, "", expected_exit=1) == ["exit 0, reference 1"]
    assert gate.problems(VERIFY, 3, "", "")


def test_gate_flags_pass_exit_mismatch():
    assert any("does not match" in p for p in gate.problems(VERIFY, 1, PASS, ""))
    assert any("does not match" in p for p in gate.problems(VERIFY, 0, FAIL, ""))


def test_gate_flags_exit_1_without_witness_and_exit_2_without_error():
    bare = json.dumps({"pass": False, "checks": [{"name": "a", "pass": False}]})
    assert any("witness" in p for p in gate.problems(VERIFY, 1, bare, ""))
    assert any("error" in p for p in gate.problems(VERIFY, 2, "", "oops\n"))


def _span(name, start, end, parent=None):
    return {"name": name, "cmd": "c", "start": start, "end": end, "parent": parent, "count": {}}


def test_self_time_on_hand_built_tree():
    tree = [
        _span("center.verify_self", 0.0, 10.0),             # 0
        _span("center.enumerate", 1.0, 3.0, parent=0),      # 1
        _span("pointed.verify_center_cat", 4.0, 9.0, 0),    # 2
        _span("matched.verify", 5.0, 6.5, parent=2),        # 3
        _span("groups.validate", 6.0, 7.0, parent=2),       # 4, overlaps 3
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 3.0, 1.5, 1.0])
    m = spans.layer_metrics([{"spawn": -0.5, "main_end": 10.0, "install_s": 0.125,
                              "overhead_s": 0.25, "spans": tree}])
    assert m["center.verify_self_s"] == pytest.approx(3.0)
    assert m["pointed.verify_center_cat_s"] == pytest.approx(3.0)
    assert m["cli.startup_s"] == pytest.approx(0.375)  # installing the tracer is not start-up
    assert m["trace.overhead_s"] == pytest.approx(0.25)


def test_counters_reproduce_turaev_s3_word_graph():
    import crossedcat.words
    from crossedcat import jsonio

    cat = jsonio.load_category(ROOT / "fixtures" / "cat-vec-turaev-s3.json", validate=False)
    tracer = traced_cli.Tracer("t")
    tracer.install()
    try:
        rep = crossedcat.words.check_coherence(cat, 6, (1,))
        crossedcat.words.check_coherence(cat, 6, (2,))
    finally:
        tracer.uninstall()
    assert crossedcat.words.check_coherence.__name__ == "check_coherence"
    assert not hasattr(crossedcat.words.check_coherence, "__wrapped__")
    assert tracer.overhead > 0.0
    m = spans.layer_metrics([{"spawn": 0.0, "main_end": 0.0, "install_s": 0.0,
                              "overhead_s": tracer.overhead, "spans": tracer.spans}])
    assert rep.stats["words"] == 14829 and rep.stats["edges"] == 57282
    assert m["words.words"] == 2 * 14829 and m["words.edges"] == 2 * 57282
    assert m["words.cycles"] == 2 * (57282 - 14829 + rep.stats["components"])
    assert m["words.skeleton_reuse_share"] == 0.5  # second call reuses (6, 1, G)


def test_pass_count_depends_on_seconds_only(monkeypatch):
    import run

    assert run.passes("center-large", 30) == 2
    assert run.passes("small-inputs", 30) == 2
    assert run.passes("center-large", 40) == 3
    assert run.passes("small-inputs", 27) == 1
    assert run.passes("small-inputs", 1) == 1
    cmds = [inputs.Command(f"c{i}", ("verify", "group", f"in/{i}.json"), ()) for i in range(3)]
    calls = []
    monkeypatch.setattr(run, "run_command", lambda c, workdir: calls.append(c.id))
    run.measure(cmds, Path("."), 3)
    assert calls == ["c0", "c1", "c2", "c2", "c1", "c0", "c0", "c1", "c2"]


def _busy_child(seconds: float, code: int = 0) -> tuple[subprocess.Popen, float]:
    """A child that computes for `seconds` of CPU time, then exits with `code`."""
    src = ("import time, sys\nt = time.process_time()\n"
           f"while time.process_time() - t < {seconds}: pass\nsys.exit({code})")
    t0 = time.perf_counter()
    return subprocess.Popen([sys.executable, "-c", src], start_new_session=True), t0


def test_watch_probes_and_leaves_pauses_out():
    proc, t0 = _busy_child(0.3, code=1)
    w = hostspeed.watch(proc.pid, t0)
    proc.returncode = w.code
    assert w.code == 1
    # one probe per PERIOD_S of running or being stolen from, plus one at exit
    assert 2 <= len(w.probes) <= (w.wall + w.stolen) / hostspeed.PERIOD_S + 2
    cpu = w.usage.ru_utime + w.usage.ru_stime
    assert 0.3 <= cpu <= w.wall + 0.05  # the child's own CPU; probing is not in its wall
    assert w.scale == hostspeed.REF_PROBE_S / (sum(w.probes) / len(w.probes))


def test_watch_without_sampling_only_waits():
    proc, t0 = _busy_child(0.05)
    w = hostspeed.watch(proc.pid, t0, sample=False)
    proc.returncode = w.code
    assert w.code == 0 and w.probes == [] and w.scale == 1.0


def test_end_to_end_scales_times_and_takes_per_command_medians():
    import run

    def o(cid, wall, scale, rss=10.0):
        return run.Outcome(inputs.Command(cid, ("verify",), ()), 0, wall, wall, rss, "", "",
                           scale)

    m = run.end_to_end([o("a", 1.0, 0.5), o("a", 4.0, 0.5), o("a", 2.0, 0.5),
                        o("b", 3.0, 1.0, rss=20.0)], setup_s=0.1)
    assert m["wall_s"] == pytest.approx(1.0 + 3.0)
    assert m["cpu_s"] == pytest.approx(4.0)
    assert m["cmd_p50_s"] == pytest.approx(2.0)
    assert m["peak_rss_mb"] == 20.0
