"""Correctness gate applied to every command of every pass.

A command passes when its exit code is 0, 1 or 2; stderr holds no Python
traceback; on exit 0 or 1 stdout is JSON whose `pass` field matches the
exit code; exit 1 names a failing check with a witness; exit 2 prints
`{"error": ...}` on stderr; and, where a reference outcome was recorded
for the same command on the same input bytes, the exit code equals it.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from inputs import Command

TRACEBACK = "Traceback (most recent call last)"


def _json(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


def _last_line_json(text: str) -> Any:
    lines = text.strip().splitlines()
    return _json(lines[-1]) if lines else None


def _names_witness(payload: dict) -> bool:
    checks = payload.get("checks") or []
    if any(isinstance(c, dict) and c.get("pass") is False and c.get("witness") is not None
           for c in checks):
        return True
    failures = payload.get("failures") or []
    return any(isinstance(f, dict) and f.get("witness") for f in failures)


def problems(cmd: Command, code: int, stdout: str, stderr: str,
             expected_exit: Optional[int] = None) -> list[str]:
    """Every way this outcome breaks the gate; empty when it passes."""
    found = []
    if code not in (0, 1, 2):
        found.append(f"exit code {code} is not 0, 1 or 2")
    if TRACEBACK in stderr:
        found.append("Python traceback on stderr")
    if code in (0, 1):
        payload = _json(stdout)
        if not isinstance(payload, dict):
            found.append("stdout is not a JSON object")
        else:
            if (cmd.verdict or "pass" in payload) and payload.get("pass") is not (code == 0):
                found.append(f"pass field {payload.get('pass')!r} does not match exit {code}")
            if code == 1 and not _names_witness(payload):
                found.append("exit 1 names no failing check with a witness")
    if code == 2:
        err = _last_line_json(stderr)
        if not (isinstance(err, dict) and "error" in err):
            found.append('exit 2 without {"error": ...} on stderr')
    if expected_exit is not None and code != expected_exit:
        found.append(f"exit {code}, reference {expected_exit}")
    return found
