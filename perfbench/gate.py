"""Correctness gate: run one case through ``qdepth.cli.main`` in-process
and judge the JSON report it prints.

A case fails on a raised exception (the traceback is kept), a non-zero
exit code, a report that does not parse or names another construction,
``pass`` other than true, ``max_error`` or ``max_leakage`` above the
report's own tolerance, or ``inputs_checked`` below what the case must
check.
"""
from __future__ import annotations

import io
import json
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from time import perf_counter

from workloads import Case


@dataclass(frozen=True)
class Outcome:
    """What one CLI call left behind."""
    exit_code: int | None
    stdout: str
    stderr: str
    traceback: str | None
    seconds: float


@dataclass(frozen=True)
class Verdict:
    """The gate's judgement of one case; `reason` is empty when ok."""
    ok: bool
    reason: str
    passed: bool | None = None
    inputs_checked: int = 0
    basis_checked: int = 0


def call_cli(cli, case: Case) -> Outcome:
    """Run ``qdepth verify`` for the case through ``cli.main``, looked up
    at call time so that tracing wrappers apply."""
    out, err = io.StringIO(), io.StringIO()
    code, tb = None, None
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(case.argv)
    except SystemExit as e:  # argparse rejects bad arguments this way
        code = e.code if isinstance(e.code, int) else 2
    except Exception:  # any traceback fails the case; the gate reports it
        tb = traceback.format_exc()
    return Outcome(code, out.getvalue(), err.getvalue(), tb,
                   perf_counter() - start)


def _fail(reason: str) -> Verdict:
    return Verdict(False, reason)


def _number(report: dict, key: str) -> float | None:
    value = report.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def judge(case: Case, outcome: Outcome) -> Verdict:
    if outcome.traceback is not None:
        return _fail("raised " + outcome.traceback.strip().splitlines()[-1])
    if outcome.exit_code != 0:
        detail = outcome.stderr.strip().splitlines()[-1:] or [""]
        return _fail(f"exit code {outcome.exit_code} {detail[0]}".rstrip())
    lines = outcome.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return _fail("no JSON report on stdout")
    if not isinstance(report, dict):
        return _fail("report is not a JSON object")
    if report.get("construction") != case.construction or report.get("n") != case.n:
        return _fail(f"report is for {report.get('construction')} "
                     f"n={report.get('n')}")
    if report.get("pass") is not True:
        return _fail(f"pass={report.get('pass')}")
    for value_key, tol_key in (("max_error", "error_tol"),
                               ("max_leakage", "leakage_tol")):
        value, tol = _number(report, value_key), _number(report, tol_key)
        if value is None or tol is None or not value <= tol:  # NaN fails too
            return _fail(f"{value_key}={report.get(value_key)} over "
                         f"{tol_key}={report.get(tol_key)}")
    checked = report.get("inputs_checked")
    if isinstance(checked, bool) or not isinstance(checked, int):
        return _fail(f"inputs_checked={checked!r} is not a count")
    if checked < case.required_inputs:
        return _fail(f"inputs_checked={checked} below the "
                     f"{case.required_inputs} this case must check")
    basis = min(checked - case.superpositions, case.basis_inputs)
    return Verdict(True, "", True, checked, basis)
