"""Self-tests of the benchmark's own machinery: the correctness gate, the
span arithmetic, the tracing wrappers and the layer probes.

    python3 perfbench/selftest.py

The file name keeps it out of the library's pytest collection.
"""
from __future__ import annotations

import common  # first: pins the BLAS threads before numpy loads

import json
import shutil
import subprocess
import sys
import unittest
from dataclasses import replace

common.load_qdepth()

import numpy as np  # noqa: E402

import gate  # noqa: E402
import probes  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from qdepth import classical, cli, sim, synth, verify  # noqa: E402
from workloads import Case  # noqa: E402

COUNTS = ("synth.gates", "synth.calls", "oracle.apply_calls", "oracle.calls",
          "sim.run_calls", "sim.amp_gates", "sim.purity_calls",
          "classical.eval_calls", "verify.cases", "verify.inputs_checked")


def mini_cases(workdir) -> list[Case]:
    """Small cases that reach every traced layer in well under a second."""
    rng = np.random.default_rng(3)
    circuit = workloads._shaped_circuit(rng, 3, 2, 2)
    path = workdir / "mini.json"
    path.write_text(classical.to_json(circuit), encoding="utf-8")
    return [Case("fanout", n=3),
            Case("modq-const", n=2, q=3, discipline="strict", superpositions=2),
            Case("modq-seq", n=3, q=3),
            Case("ctrl-u", n=3, u="h"),
            Case("parity-cat", n=3, builder="log-cat"),
            Case("cat", n=4, builder="fanout"),
            Case("rev-embed", n=3, classical=str(path), n_outputs=2)]


def traced_pass(cases):
    recorder = spans.Recorder()
    with recorder.installed(spans.targets()):
        outcomes = []
        for i, case in enumerate(cases):
            recorder.case = i
            outcomes.append(gate.call_cli(cli, case))
    return outcomes, recorder.spans


class GateTest(unittest.TestCase):
    case = Case("fanout", n=3)

    def outcome(self, **changes):
        good = gate.call_cli(cli, self.case)
        report = json.loads(good.stdout)
        report.update(changes)
        return replace(good, stdout=json.dumps(report) + "\n")

    def test_accepts_a_real_report(self):
        verdict = gate.judge(self.case, gate.call_cli(cli, self.case))
        self.assertTrue(verdict.ok, verdict.reason)
        self.assertEqual((verdict.inputs_checked, verdict.basis_checked), (16, 16))

    def test_rejects_doctored_reports(self):
        doctored = {"pass false": {"pass": False},
                    "pass missing": {"pass": None},
                    "short inputs": {"inputs_checked": 15},
                    "inputs not a count": {"inputs_checked": "16"},
                    "error over tolerance": {"max_error": 2e-9},
                    "error is NaN": {"max_error": float("nan")},
                    "leakage over tolerance": {"max_leakage": 1e-3},
                    "another construction": {"construction": "cat"},
                    "another n": {"n": 4}}
        for what, change in doctored.items():
            with self.subTest(what):
                self.assertFalse(gate.judge(self.case, self.outcome(**change)).ok)

    def test_rejects_exit_codes_tracebacks_and_garbage(self):
        good = gate.call_cli(cli, self.case)
        for what, bad in {"exit 1": replace(good, exit_code=1),
                          "traceback": replace(good, traceback="Traceback\nKeyError: 1"),
                          "no report": replace(good, stdout=""),
                          "not json": replace(good, stdout="pass\n")}.items():
            with self.subTest(what):
                self.assertFalse(gate.judge(self.case, bad).ok)

    def test_usage_errors_and_raises_become_failures(self):
        bad_args = replace(self.case, construction="no-such-construction")
        outcome = gate.call_cli(cli, bad_args)
        self.assertEqual(outcome.exit_code, 2)
        self.assertFalse(gate.judge(bad_args, outcome).ok)

        class Raising:
            @staticmethod
            def main(argv):
                raise KeyError("boom")
        outcome = gate.call_cli(Raising, self.case)
        self.assertIn("KeyError", outcome.traceback)
        self.assertFalse(gate.judge(self.case, outcome).ok)

    def test_required_inputs(self):
        self.assertEqual(Case("fanout", n=3, superpositions=4).required_inputs, 20)
        self.assertEqual(Case("rev-embed", n=5, n_outputs=3).required_inputs, 256)
        # n + m > 12: the embedding checker's y in {0, 1...1} floor
        wide = Case("rev-embed", n=11, n_outputs=2)
        self.assertEqual((wide.required_inputs, wide.basis_inputs), (4096, 8192))
        self.assertEqual(Case("cat", n=20).basis_inputs, 0)


def span(name, start, end, parent=-1, info=None):
    return spans.Span(name, start, end, parent, 0, info)


class SpanArithmeticTest(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_children(self):
        s = [span("verify.verify_built", 0.0, 10.0),
             span("sim.run", 1.0, 3.0, 0, (True, 8)),
             span("sim.run", 2.0, 4.0, 0, (False, 8)),      # overlaps the first
             span("oracle.oracle_unitary", 9.0, 12.0, 0, (64,)),  # clipped at 10
             span("oracle.oracle_apply", 9.5, 9.75, 3),
             span(spans.HOOK, 4.0, 4.5, 0)]
        own = spans.self_times(s)
        self.assertAlmostEqual(own[0], 10.0 - 3.0 - 1.0 - 0.5)
        self.assertAlmostEqual(own[3], 3.0 - 0.25)
        self.assertAlmostEqual(own[4], 0.25)

    def test_layer_metrics_on_synthetic_spans(self):
        s = [span("cli.main", 0.0, 20.0),
             span("synth.build_construction", 0.5, 1.5, 0, (5, 3)),
             span("synth.modq_constant_depth", 0.6, 1.4, 1, (5, 3)),
             span("verify.verify_built", 2.0, 18.0, 0, (4, False)),
             span("verify.verify_construction", 2.0, 17.0, 3),
             span("oracle.oracle_unitary", 2.5, 3.5, 4, (256,)),
             span("sim.run", 4.0, 6.0, 4, (True, 16)),
             span("sim.run", 7.0, 11.0, 4, (False, 48)),
             span(spans.HOOK, 11.0, 12.0, 4)]
        m = {k: v for k, (v, _) in spans.layer_metrics(s).items()}
        self.assertAlmostEqual(m["cli.self_s"], 20.0 - 1.0 - 16.0)
        self.assertAlmostEqual(m["verify.self_s"], 16.0 - 1.0 - 2.0 - 4.0 - 1.0)
        self.assertAlmostEqual(m["synth.build_s"], 1.0)
        self.assertEqual((m["synth.calls"], m["synth.gates"], m["synth.layers"]), (1, 5, 3))
        self.assertAlmostEqual(m["sim.run_basis_s"], 2.0)
        self.assertAlmostEqual(m["sim.run_dense_s"], 4.0)
        self.assertEqual((m["sim.run_calls"], m["sim.amp_gates"]), (2, 64))
        self.assertAlmostEqual(m["sim.ns_per_amp_gate"], 6.0e9 / 64)
        self.assertEqual((m["oracle.calls"], m["oracle.bytes"]), (1, 256))
        self.assertEqual((m["verify.cases"], m["verify.inputs_checked"],
                          m["verify.failed"]), (1, 4, 0))


class TracingTest(unittest.TestCase):
    def test_wrappers_are_installed_everywhere_and_restored(self):
        originals = (sim.run, verify.run, verify.oracle_unitary,
                     synth.CAT_BUILDERS["log-cat"],
                     vars(classical.ClassicalCircuit)["evaluate"], cli.main)
        recorder = spans.Recorder()
        with recorder.installed(spans.targets()):
            self.assertIs(sim.run, verify.run)
            self.assertIsNot(verify.run, originals[0])
            self.assertIsNot(synth.CAT_BUILDERS["log-cat"], originals[3])
            self.assertIsNot(vars(classical.ClassicalCircuit)["evaluate"], originals[4])
        after = (sim.run, verify.run, verify.oracle_unitary,
                 synth.CAT_BUILDERS["log-cat"],
                 vars(classical.ClassicalCircuit)["evaluate"], cli.main)
        for a, b in zip(originals, after):
            self.assertIs(a, b)

    def test_exceptions_pass_through_and_still_restore(self):
        original = verify.build_construction
        recorder = spans.Recorder()
        with self.assertRaises(ValueError):
            with recorder.installed(spans.targets()):
                verify.build_construction("cat", n=0)
        self.assertEqual(recorder.spans[-1].name, "synth.build_construction")
        self.assertIs(verify.build_construction, original)

    def test_traced_reports_match_and_counts_repeat(self):
        with workloads.workdir() as workdir:
            cases = mini_cases(workdir)
            plain = [gate.call_cli(cli, c) for c in cases]
            first, spans_a = traced_pass(cases)
            second, spans_b = traced_pass(cases)
        for case, a, b in zip(cases, plain, first):
            self.assertTrue(gate.judge(case, a).ok, case.label)
            self.assertEqual(a.stdout, b.stdout, case.label)
        ma, mb = spans.layer_metrics(spans_a), spans.layer_metrics(spans_b)
        for name in COUNTS:
            self.assertEqual(ma[name], mb[name], name)
            self.assertGreater(ma[name][0], 0, name)
        self.assertEqual(ma["verify.inputs_checked"][0],
                         sum(gate.judge(c, o).inputs_checked for c, o in zip(cases, plain)))
        self.assertEqual(sorted({s.case for s in spans_a}), list(range(len(cases))))


class ProbeTest(unittest.TestCase):
    def test_gate_probe_with_wrong_output_fails(self):
        def wrong(circuit, state, workspace):
            return sim.run(circuit, state, workspace) * 1.000001
        with self.assertRaises(probes.ProbeError):
            probes.gate_probes(np.random.default_rng(0), runner=wrong)

    def test_reference_probe_that_skips_a_layer_fails(self):
        calls = []

        def skipping(circuit, state, workspace):
            calls.append(1)
            if len(calls) == 3:
                return state.copy()
            return sim.run(circuit, state, workspace)
        with self.assertRaises(probes.ProbeError):
            probes.reference_layers(np.random.default_rng(0), runner=skipping)

    def test_probe_gates_match_the_oracle_on_basis_states(self):
        from qdepth.oracle import oracle_apply
        rng = np.random.default_rng(0)
        for kind in ("x", "cnot", "toffoli", "modq", "fanout", "phase"):
            g = probes.probe_gate(kind, 16, rng)
            for index in (0, 0x00FF, 0x8001, 0xFFFF, 0x1234):
                out = sim.apply_gate(sim.basis_state(16, index), g)
                image, phase = oracle_apply(g, index, 16)
                self.assertAlmostEqual(out[image], phase, msg=kind)


class MissingProgramTest(unittest.TestCase):
    def test_exits_non_zero_without_a_result(self):
        with workloads.workdir() as workdir:
            shutil.copytree(common.BENCH_DIR, workdir / "perfbench",
                            ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
            shutil.copy(common.ROOT / "BENCHMARK.json", workdir)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "embed_random",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=workdir, capture_output=True, text=True, timeout=60)
        self.assertEqual(proc.returncode, common.EXIT_NO_PROGRAM, proc.stderr)
        self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()
