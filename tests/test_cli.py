import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qdepth.cli import main
from qdepth.classical import ClassicalCircuit, ClassicalGate, to_json
from qdepth.ir import circuit_from_json, circuit_to_json
from qdepth.verify import build_construction


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSynth:
    def test_empty_cat_circuit(self, tmp_path, capsys):
        out = tmp_path / "cat.json"
        code, text, _ = run_cli(capsys, "synth", "--construction", "cat",
                                "--n", "1", "--out", str(out))
        assert code == 0 and "depth=0" in text
        assert circuit_from_json(out.read_text()).depth == 0

    def test_modq_summary_reports_ancillae(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        code, text, _ = run_cli(capsys, "synth", "--construction", "modq-const",
                                "--n", "4", "--q", "3", "--out", str(out))
        assert code == 0
        assert "ancillae=8" in text and "work=2" in text

    def test_round_trip_preserves_circuit_exactly(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        for args, kw in (
            (("modq-const",), {"n": 3, "q": 5}),
            (("parity-cat",), {"n": 4}),
            (("ctrl-u",), {"n": 2}),
        ):
            name = args[0]
            argv = ["synth", "--construction", name, "--n", str(kw["n"]),
                    "--out", str(out)]
            if "q" in kw:
                argv += ["--q", str(kw["q"])]
            assert main(argv) == 0
            capsys.readouterr()
            built = build_construction(name, **kw)
            assert circuit_from_json(out.read_text()) == built.circuit

    def test_unknown_construction_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--construction", "nope", "--n", "2", "--out", "x"])
        assert exc.value.code == 2

    def test_missing_q_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "synth", "--construction", "modq-const",
                               "--n", "4", "--out", str(tmp_path / "x.json"))
        assert code == 2 and "q" in err


class TestSim:
    def test_cat_plus_input(self, tmp_path, capsys):
        out = tmp_path / "cat.json"
        run_cli(capsys, "synth", "--construction", "cat", "--n", "4",
                "--builder", "log-cat", "--out", str(out))
        code, text, _ = run_cli(capsys, "sim", str(out), "--input", "plus@0")
        assert code == 0
        lines = text.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("0000 0.707106781")
        assert lines[1].startswith("1111 0.707106781")

    def test_empty_circuit_zero_input(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        run_cli(capsys, "synth", "--construction", "cat", "--n", "3",
                "--builder", "log-cat", "--out", str(out))
        # overwrite with an empty circuit of width 3
        built = build_construction("cat", n=1)
        out.write_text(circuit_to_json(built.circuit))
        code, text, _ = run_cli(capsys, "sim", str(out), "--input", "0")
        assert code == 0 and text.strip() == "0 1 0"

    def test_modq_flips_target_for_nonmultiple(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        run_cli(capsys, "synth", "--construction", "modq-const", "--n", "3",
                "--q", "3", "--out", str(out))
        width = 3 + 1 + 2 + 6
        bits = "110" + "0" + "0" * (width - 4)  # qubit 0 first
        code, text, _ = run_cli(capsys, "sim", str(out), "--input", bits)
        assert code == 0
        index = text.split()[0]
        # two true inputs, 2 mod 3 != 0: target (qubit 3) reads 1
        assert index[::-1][3] == "1"
        assert index[::-1][:3] == "110"

    def test_width_mismatch_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        run_cli(capsys, "synth", "--construction", "fanout", "--n", "2",
                "--out", str(out))
        code, _, err = run_cli(capsys, "sim", str(out), "--input", "01")
        assert code == 2 and "3 bits" in err

    def test_plus_input_outside_width_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        run_cli(capsys, "synth", "--construction", "fanout", "--n", "2",
                "--out", str(out))
        code, text, err = run_cli(capsys, "sim", str(out), "--input", "plus@-1")
        assert (code, text, err) == (2, "", "error: qubit -1 outside width 3\n")

    def test_over_the_cap_exits_three(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "c.json"
        run_cli(capsys, "synth", "--construction", "fanout", "--n", "4",
                "--out", str(out))
        monkeypatch.setenv("QDEPTH_SIM_CAP", "4")
        code, text, err = run_cli(capsys, "sim", str(out), "--input", "00000")
        assert (code, text, err) == (
            3, "", "error: 5 qubits exceeds simulation cap 4\n")

    def test_unparseable_file_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _, _ = run_cli(capsys, "sim", str(bad), "--input", "0")
        assert code == 2


class TestVerify:
    def test_pass_exit_zero(self, capsys):
        code, text, _ = run_cli(capsys, "verify", "--construction",
                                "modq-const", "--n", "4", "--q", "3")
        assert code == 0 and "pass" in text

    def test_parity_cat_pipes_from_synth_parameters(self, capsys):
        code, text, _ = run_cli(capsys, "verify", "--construction",
                                "parity-cat", "--n", "5", "--builder", "fanout")
        assert code == 0 and "pass" in text

    def test_cap_exit_three_and_structural_fallback(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--construction", "modq-const",
                               "--n", "20", "--q", "3")
        assert code == 3 and "cap" in err
        code, text, _ = run_cli(capsys, "verify", "--construction", "modq-const",
                                "--n", "20", "--q", "3", "--structural-only")
        assert code == 0 and "structural" in text and "depth=12" in text

    def test_json_report(self, capsys):
        code, text, _ = run_cli(capsys, "verify", "--construction", "fanout",
                                "--n", "3", "--json")
        doc = json.loads(text)
        assert code == 0 and doc["pass"] is True and doc["depth"] == 1

    def test_rev_embed_from_file(self, tmp_path, capsys):
        c = ClassicalCircuit(2, (
            (ClassicalGate("and", (0, 1)), ClassicalGate("or", (0, 1))),
            (ClassicalGate("xor", (2, 3)),),
        ))
        path = tmp_path / "classical.json"
        path.write_text(to_json(c))
        code, text, _ = run_cli(capsys, "verify", "--construction", "rev-embed",
                                "--classical", str(path))
        assert code == 0 and "pass" in text and "depth=3" in text


class TestBadSettings:
    @pytest.mark.parametrize("value", ["abc", "nan", "-1", "inf"])
    def test_bad_tolerance_env_is_usage_error(self, monkeypatch, capsys, value):
        monkeypatch.setenv("QDEPTH_TOL", value)
        code, out, err = run_cli(capsys, "verify", "--construction", "fanout",
                                 "--n", "2")
        assert code == 2 and out == "" and err.startswith("error: QDEPTH_TOL")

    @pytest.mark.parametrize("value", ["nan", "-1", "inf"])
    def test_bad_tolerance_flag_is_usage_error(self, capsys, value):
        code, out, err = run_cli(capsys, "verify", "--construction", "fanout",
                                 "--n", "2", "--tolerance", value)
        assert code == 2 and out == "" and err.startswith("error: tolerance")

    def test_tolerance_flag_overrides_env(self, monkeypatch, capsys):
        monkeypatch.setenv("QDEPTH_TOL", "abc")
        code, text, _ = run_cli(capsys, "verify", "--construction", "fanout",
                                "--n", "2", "--tolerance", "0")
        assert code == 0 and "pass" in text

    @pytest.mark.parametrize("value", ["abc", "0", "-1", "1.5"])
    def test_bad_sim_cap_is_usage_error(self, tmp_path, monkeypatch, capsys, value):
        out = tmp_path / "f.json"
        run_cli(capsys, "synth", "--construction", "fanout", "--n", "2",
                "--out", str(out))
        monkeypatch.setenv("QDEPTH_SIM_CAP", value)
        for argv in (("verify", "--construction", "fanout", "--n", "2"),
                     ("sim", str(out), "--input", "000")):
            code, _, err = run_cli(capsys, *argv)
            assert code == 2 and err.startswith("error: QDEPTH_SIM_CAP"), argv

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_theta_is_usage_error(self, capsys, value):
        code, out, err = run_cli(capsys, "verify", "--construction", "ctrl-u",
                                 "--n", "2", "--u", "phase", f"--theta={value}")
        assert (code, out, err) == (2, "", "error: phase requires a finite theta\n")

    def test_negative_superpositions_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--construction", "fanout",
                                 "--n", "2", "--superpositions", "-3")
        assert code == 2 and out == "" and err.startswith("error: superpositions")


def _circuit_doc(gate, **top):
    doc = {"width": 2, "discipline": "strict", "roles": ["input"] * 2,
           "layers": [[gate]]}
    doc.update(top)
    return doc


class TestBadCircuitJson:
    @pytest.mark.parametrize("doc, field", [
        (_circuit_doc({"kind": "cnot", "controls": [0.7], "targets": [True]},
                      width=2.9), "qubit"),
        (_circuit_doc({"kind": "cnot", "controls": [0], "targets": [1]},
                      width=2.9), "width"),
        (_circuit_doc({"kind": "cnot", "controls": [0], "targets": [True]}),
         "qubit"),
        (_circuit_doc({"kind": "modq", "controls": [0], "targets": [1],
                       "q": 2.5}), "q"),
        (_circuit_doc({"kind": "cnot", "controls": [0], "targets": [1]},
                      width="2"), "width"),
        (_circuit_doc({"kind": "cnot", "controls": [0], "neg": [1.0],
                       "targets": [1]}), "qubit"),
        (_circuit_doc({"kind": "phase", "controls": [0], "targets": [1],
                       "theta": True}), "theta"),
    ])
    def test_non_integer_fields_are_usage_errors(self, tmp_path, capsys, doc,
                                                 field):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "sim", str(path), "--input", "00")
        assert code == 2 and out == "" and err.startswith(f"error: {field} must be")

    @pytest.mark.parametrize("entry, message", [
        (float("nan"), "error: matrix is not unitary"),
        (True, "error: matrix entry must be a real number"),
    ], ids=["nan", "bool"])
    def test_bad_matrix_entries_are_usage_errors(self, tmp_path, capsys, entry,
                                                 message):
        # the identity with one entry replaced; JSON carries NaN as a literal
        doc = _circuit_doc({"kind": "u", "targets": [0],
                            "matrix": [[entry, 0], [0, 0], [0, 0], [1, 0]]},
                           width=1, roles=["input"])
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "sim", str(path), "--input", "0")
        assert code == 2 and out == "" and err.startswith(message)


    @pytest.mark.parametrize("gate, message", [
        ({"kind": "toffoli", "controls": [0, 1], "targets": [2], "q": 2},
         "error: toffoli does not take q\n"),
        ({"kind": "cnot", "controls": [0], "targets": [1], "theta": 0.3},
         "error: cnot does not take theta\n"),
    ], ids=["q-on-toffoli", "theta-on-cnot"])
    def test_stray_gate_fields_are_usage_errors(self, tmp_path, capsys, gate,
                                                message):
        doc = _circuit_doc(gate, width=3, roles=["input"] * 3)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "sim", str(path), "--input", "000")
        assert (code, out, err) == (2, "", message)


class TestBadClassicalJson:
    @pytest.mark.parametrize("doc", [
        {"inputs": 2, "layers": [[{"op": "and", "args": [0, 1.5]}]]},
        {"inputs": 2, "layers": [[{"op": "and", "args": "01"}]]},
        {"inputs": 2, "layers": [[{"op": "and", "args": [True, 0]}]]},
        {"inputs": 2.7, "layers": [[{"op": "and", "args": [0, 1]}]]},
    ])
    def test_non_integer_wires_are_usage_errors(self, tmp_path, capsys, doc):
        path = tmp_path / "classical.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", "--construction", "rev-embed",
                                 "--classical", str(path))
        assert code == 2 and out == "" and err.startswith("error: ")


def _limit_memory():
    import resource  # POSIX only, like preexec_fn
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def run_cli_limited(cwd, *argv):
    """Run the CLI in a subprocess under a 1 GiB address-space limit."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-m", "qdepth.cli", *argv], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=60, preexec_fn=_limit_memory)


class TestWideRevEmbed:
    """A 30-input rev-embed is far over the simulation cap. Commands that
    do no amplitude work must not list its 2^31 admissible inputs, so each
    runs under a 1 GiB address-space limit."""

    @pytest.mark.parametrize("argv, exit_code", [
        (("synth", "--out", "c.json"), 0),
        (("verify", "--structural-only"), 0),
        (("verify",), 3),
    ])
    def test_returns_promptly(self, tmp_path, argv, exit_code):
        c = ClassicalCircuit(30, ((ClassicalGate("and", (0, 1)),),))
        (tmp_path / "classical.json").write_text(to_json(c))
        proc = run_cli_limited(tmp_path, *argv, "--construction", "rev-embed",
                               "--classical", "classical.json")
        assert proc.returncode == exit_code, proc.stderr
        assert "width=32" in proc.stdout or "32-qubit" in proc.stderr


class TestNoHugeAllocation:
    """Requests that would need a matrix far beyond memory end in one
    error line before anything is allocated; each runs under the same
    1 GiB limit, so an attempted allocation shows up as a traceback."""

    @pytest.mark.parametrize("argv, exit_code, message", [
        # a 15-qubit data register under the 22-qubit simulation cap: its
        # block-matrix gate oracle would be a 16 GiB dense matrix
        (("verify", "--construction", "ctrl-u", "--n", "14", "--u", "h"), 3,
         "15-qubit data register exceeds the 12-qubit dense oracle cap; "
         "rerun structural-only"),
        (("verify", "--construction", "modq-const", "--n", "2",
          "--q", "1048576"), 2,
         "modulus 1048576 needs a 20-qubit block, cap is 4"),
        (("scale", "--construction", "modq-seq", "--q", "1048576",
          "--n-min", "1", "--n-max", "2"), 2,
         "modulus 1048576 needs a 20-qubit block, cap is 4"),
    ], ids=["block-oracle", "modq-const-modulus", "modq-seq-scale-modulus"])
    def test_one_error_line(self, tmp_path, argv, exit_code, message):
        proc = run_cli_limited(tmp_path, *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            exit_code, "", f"error: {message}\n")

    def test_row_key_overflow_exits_as_a_cap(self, tmp_path, monkeypatch):
        # with the cap raised, 2^14 inputs at width 56 would need a 70-bit
        # (id, index) row key: a limit of the simulator, not a usage error
        monkeypatch.setenv("QDEPTH_SIM_CAP", "63")
        proc = run_cli_limited(tmp_path, "verify", "--construction", "modq-const",
                               "--n", "13", "--q", "5")
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            3, "", "error: 56-qubit rows of 16384 inputs overflow an int64 "
                   "(id, index) key\n")

    @pytest.mark.parametrize("command", [
        ("verify",), ("verify", "--structural-only"), ("synth", "--out", "c.json"),
    ], ids=["verify", "structural-only", "synth"])
    @pytest.mark.parametrize("request_args", [
        ("--construction", "fanout", "--n", "1000000000000"),
        ("--construction", "rev-embed", "--classical", "classical.json"),
    ], ids=["fanout-n1e12", "rev-embed-1e12-inputs"])
    def test_huge_register_is_one_error_line(self, tmp_path, command, request_args):
        # 10^12 qubits: the register's role tuple alone would take 8 TB, so
        # its allocation fails at once, before anything is held
        (tmp_path / "classical.json").write_text(json.dumps(
            {"inputs": 10 ** 12, "layers": [[{"op": "and", "args": [0, 1]}]]}))
        proc = run_cli_limited(tmp_path, *command, *request_args)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            3, "", "error: out of memory: the register is too large to build\n")

    @pytest.mark.parametrize("argv", [
        # a permutation oracle needs no matrix: each input's image is one
        # basis state, and the sparse engine holds 2^15 rows
        ("--construction", "fanout", "--n", "14"),
        # H on every qubit fills the register: the sparse engine gives up
        # before its rows outgrow one dense state, and the dense engine
        # runs each input
        ("--construction", "parity-fanout", "--n", "11"),
    ], ids=["fanout-n14", "parity-fanout-n11"])
    def test_wide_gate_oracles_verify(self, tmp_path, argv):
        proc = run_cli_limited(tmp_path, "verify", *argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.endswith(" pass\n")


class TestScaleAndIdentities:
    def test_constant_verdict(self, capsys):
        code, text, _ = run_cli(capsys, "scale", "--construction", "modq-const",
                                "--q", "3", "--n-min", "2", "--n-max", "12")
        assert code == 0 and text.strip().endswith("verdict: constant")

    def test_cat_depth_column(self, capsys):
        code, text, _ = run_cli(capsys, "scale", "--construction", "cat",
                                "--builder", "log-cat",
                                "--n-min", "2", "--n-max", "16")
        assert code == 0
        depths = [int(line.split("\t")[1])
                  for line in text.strip().splitlines()[1:-1]]
        assert depths == [1, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4]
        assert text.strip().endswith("verdict: logarithmic")

    def test_bad_range_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scale", "--construction", "cat", "--n-min", "5",
                  "--n-max", "2"])
        assert exc.value.code == 2

    def test_identities_pass(self, capsys):
        code, text, _ = run_cli(capsys, "identities")
        lines = text.strip().splitlines()
        assert code == 0 and len(lines) == 2
        assert all("pass" in line for line in lines)

    def test_identities_json(self, capsys):
        code, text, _ = run_cli(capsys, "identities", "--json")
        doc = json.loads(text)
        assert code == 0 and len(doc) == 2 and all(d["pass"] for d in doc)
