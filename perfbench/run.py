"""Benchmark of qdepth's verifier, run through ``qdepth.cli.main``.

    python3 perfbench/run.py --workload modq_edge --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it times whole passes over the workload, at least two
and until ``--seconds`` have elapsed, and prints the end-to-end metrics:
``setup_s`` (median of nine fresh-interpreter set-ups spread over the run),
``inputs_per_s`` (inputs checked in a pass over the sum of each case's
median verification time), ``peak_rss_mb``, ``coverage`` (basis inputs
checked over the data registers' basis inputs, cat excluded) and, on its
own line only, ``fail_ratio``.

With ``--trace 1`` it runs one untraced and one traced pass, which must
give the same reports, then the layer probes, and prints the per-layer
metrics. The traced run does a fixed amount of work so that its counts
repeat exactly; it writes its spans to ``perfbench/out/``.

Every case goes through the correctness gate (gate.py). The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Exit code 0 when everything passed, 1 on any failure (named
on stderr), 2 when the checkout holds no qdepth sources.
"""
from __future__ import annotations

import common  # first: pins the BLAS threads before numpy loads

import argparse
import dataclasses
import json
import os
import platform
import resource
import subprocess
import sys
from dataclasses import dataclass
from statistics import median
from time import perf_counter

import numpy as np

import gate
import spans
import workloads

SETUP_GROUP = 3
MIN_PASSES = 2
SETUP_TIMEOUT_S = 120
E2E_UNITS = {"setup_s": "s", "inputs_per_s": "1/s", "peak_rss_mb": "MB",
             "coverage": "ratio"}


class SetupFailed(RuntimeError):
    pass


@dataclass
class PassResult:
    verdicts: list   # (case, Verdict) in pass order
    seconds: list    # wall time of each case's verification call

    @property
    def inputs(self) -> int:
        return sum(v.inputs_checked for _, v in self.verdicts)

    @property
    def failures(self) -> list:
        return [(c, v) for c, v in self.verdicts if not v.ok]


def run_pass(cli, cases, recorder=None) -> PassResult:
    verdicts, seconds = [], []
    for i, case in enumerate(cases):
        if recorder is not None:
            recorder.case = i
        outcome = gate.call_cli(cli, case)
        seconds.append(outcome.seconds)
        verdicts.append((case, gate.judge(case, outcome)))
    return PassResult(verdicts, seconds)


def measure_setup(cases, runs: int) -> list[float]:
    """Wall times from starting a fresh interpreter until it has built
    every circuit of the workload, one per set-up run."""
    cmd = [sys.executable, str(common.BENCH_DIR / "setup_child.py")]
    payload = json.dumps([dataclasses.asdict(c) for c in cases])
    times = []
    for _ in range(runs):
        start = perf_counter()
        with subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              cwd=common.ROOT) as proc:
            try:
                proc.stdin.write(payload)
                proc.stdin.close()
                line = proc.stdout.readline()
                times.append(perf_counter() - start)
                proc.wait(timeout=SETUP_TIMEOUT_S)
                err = proc.stderr.read()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        if proc.returncode != 0 or line.strip() != "ready":
            raise SetupFailed(f"set-up exited {proc.returncode}: {err.strip()}")
    return times


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git; None
    outside a git checkout."""
    git = common.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": common.BLAS_THREADS,
            "python": platform.python_version(), "numpy": np.__version__,
            "commit": git_commit()}


def report_failures(label: str, failures) -> None:
    for case, verdict in failures:
        print(f"FAIL {label}: {case.label}: {verdict.reason}", file=sys.stderr)


def timed_run(args, cli, cases):
    """Returns (metrics, attempted, failed) with tracing off."""
    # Set-up is sampled at three points of the run, so that one slow
    # spell of a shared machine does not set the median; the very first
    # set-up only warms the file cache and is dropped.
    setup = measure_setup(cases, SETUP_GROUP + 1)[1:]
    runs = [run_pass(cli, cases)]
    setup += measure_setup(cases, SETUP_GROUP)
    while not runs[-1].failures and (len(runs) < MIN_PASSES or sum(
            map(sum, (p.seconds for p in runs))) < args.seconds):
        runs.append(run_pass(cli, cases))
    setup += measure_setup(cases, SETUP_GROUP)
    failed = 0
    for i, p in enumerate(runs):
        report_failures(f"pass {i}", p.failures)
        failed += len(p.failures)
    attempted = len(runs) * len(cases)
    checked = sum(v.basis_checked for p in runs for _, v in p.verdicts)
    possible = len(runs) * sum(c.basis_inputs for c in cases)
    values = {
        "setup_s": median(setup),
        # each case's median time over the passes damps a disturbed call
        "inputs_per_s": runs[0].inputs / sum(
            median(times) for times in zip(*(p.seconds for p in runs))),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "coverage": checked / possible,
    }
    metrics = {k: (v, E2E_UNITS[k]) for k, v in values.items()}
    print(f"{args.workload} seed={args.seed}: {len(runs)} passes of "
          f"{len(cases)} cases, {sum(p.inputs for p in runs)} inputs in "
          f"{sum(map(sum, (p.seconds for p in runs))):.2f} s of verification")
    return metrics, attempted, failed


def traced_run(args, cli, cases):
    """Returns (metrics, attempted, failed) of the traced run."""
    import probes  # imports qdepth, so only once it is loaded

    base = run_pass(cli, cases)
    recorder = spans.Recorder()
    with recorder.installed(spans.targets()):
        traced = run_pass(cli, cases, recorder)
    report_failures("untraced", base.failures)
    report_failures("traced", traced.failures)
    failed = len(base.failures) + len(traced.failures)
    for (case, a), (_, b) in zip(base.verdicts, traced.verdicts):
        if (a.passed, a.inputs_checked) != (b.passed, b.inputs_checked):
            print(f"FAIL traced: {case.label}: report differs from the untraced "
                  f"run (pass {a.passed}/{b.passed}, inputs "
                  f"{a.inputs_checked}/{b.inputs_checked})", file=sys.stderr)
            failed += 1
    metrics = spans.layer_metrics(recorder.spans)
    metrics["trace.overhead"] = (sum(traced.seconds) / sum(base.seconds) - 1, "ratio")
    rng = np.random.default_rng(args.seed)
    try:
        metrics.update(probes.gate_probes(rng))
        metrics.update(probes.reference_layers(rng))
    except probes.ProbeError as e:
        print(f"FAIL probe: {e}", file=sys.stderr)
        failed += 1
    out = common.BENCH_DIR / "out" / f"spans_{args.workload}_seed{args.seed}.json"
    spans.write(recorder.spans, out, {"workload": args.workload, "seed": args.seed,
                                      "cases": [c.label for c in cases]})
    print(f"{args.workload} seed={args.seed}: traced pass "
          f"{sum(traced.seconds):.2f} s, untraced {sum(base.seconds):.2f} s, "
          f"{len(recorder.spans)} spans in {out.relative_to(common.ROOT)}")
    return metrics, 2 * len(cases) + 1, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="qdepth verification benchmark (see the module docstring)")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        common.load_qdepth()
    except common.ProgramMissing as e:
        print(f"error: {e}", file=sys.stderr)
        return common.EXIT_NO_PROGRAM
    from qdepth import cli

    print("environment " + json.dumps(environment()))
    with workloads.workdir() as workdir:
        cases = workloads.make_cases(args.workload, args.seed, workdir)
        run = traced_run if args.trace else timed_run
        try:
            metrics, attempted, failed = run(args, cli, cases)
        except SetupFailed as e:
            print(f"FAIL setup: {e}", file=sys.stderr)
            return common.EXIT_FAILED
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_ratio {failed / attempted:.6g} ratio")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return common.EXIT_OK if failed == 0 else common.EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
