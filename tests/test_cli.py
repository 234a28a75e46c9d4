import cmath
import dataclasses
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from qdepth import cli, synth
from qdepth.cli import main
from qdepth.classical import ClassicalCircuit, ClassicalGate, to_json
from qdepth.ir import (Circuit, Layer, Role, circuit_from_json, circuit_to_json,
                       pauli_x, symmetric_phase)
from qdepth.verify import build_construction


README = Path(__file__).resolve().parent.parent / "README.md"

# qdepth sim's output, byte for byte, as it was when the CLI ran a flat
# input: construction arguments, then each input and its stdout
SIM_OUTPUTS = {
    ("modq-const", "--n", "2", "--q", "3", "--discipline", "strict"): {
        "100000000": "000000101 1.0000000000000004 1.6510956406039898e-17\n",
        "110000000": "000000111 1.0000000000000004 3.2919152429189317e-17\n",
        "011101001": "100101010 1.0000000000000004 2.3461773124865072e-17\n",
        "plus@1": "000000000 0.70710678118654768 0\n"
                  "000000110 0.70710678118654779 -8.5692557257900968e-18\n",
        "plus@5": "000000000 0.70710678118654768 0\n000100000 0.70710678118654768 0\n",
    },
    ("parity-cat", "--n", "3"): {
        "101000": "000101 0.99999999999999978 -1.224646799147353e-16\n",
        "111000": "001111 0.99999999999999978 -1.8369701987210294e-16\n",
        "010110": "010010 -0.99999999999999978 6.1232339957367648e-17\n",
        "plus@0": "000000 0.70710678118654735 0\n"
                  "001001 0.70710678118654735 -4.3297802811774652e-17\n",
        "plus@4": "000000 0.70710678118654735 0\n010000 0.70710678118654735 0\n",
    },
    ("ctrl-u", "--n", "3", "--u", "h"): {
        "11100": "00111 0.70710678118654746 0\n01111 0.70710678118654746 0\n",
        "11101": "10111 1 0\n",
        "01110": "01110 1 0\n",
        "plus@0": "00000 0.70710678118654746 0\n00001 0.70710678118654746 0\n",
        "plus@3": "00000 0.70710678118654746 0\n01000 0.70710678118654746 0\n",
    },
    ("cat", "--n", "4"): {
        "0000": "0000 1 0\n",
        "1000": "1111 1 0\n",
        "0110": "0110 1 0\n",
        "plus@0": "0000 0.70710678118654746 0\n1111 0.70710678118654746 0\n",
        "plus@2": "0000 0.70710678118654746 0\n0100 0.70710678118654746 0\n",
    },
    ("modq-const", "--n", "10", "--q", "2"): {
        "1011001110100000000000": "0000000000010111001101 0.99999999999999967 "
                                  "2.4980931727906038e-32\n",
        "plus@3": "0000000000000000000000 0.70710678118654724 0\n"
                  "0000000000010000001000 0.70710678118654724 -2.0898406490967821e-33\n",
    },
}

# qdepth verify's and identities' stdout, byte for byte: a change to the
# engines that moves the last bit of an error shows here. The superpositions
# of ctrl-u with z and with phase hold every qubit and run a lone diagonal gate
VERIFY = ("verify", "--json", "--superpositions", "10", "--construction")
OUTPUTS = {
    (*VERIFY, "modq-const", "--n", "4", "--q", "5"): (
        '{"construction": "modq-const", "n": 4, "q": 5, "discipline": "wf", "depth": 12'
        ', "width": 20, "copy_ancillae": 12, "work_qubits": 3'
        ', "max_error": 3.609444140986297e-16, "max_leakage": 1.7699296188918697e-31'
        ', "pass": true, "inputs_checked": 42, "coverage": 1.0, "structural_only": false'
        ', "error_tol": 1e-09, "leakage_tol": 1e-10}\n'),
    (*VERIFY, "modq-const", "--n", "4", "--q", "5", "--discipline", "strict"): (
        '{"construction": "modq-const", "n": 4, "q": 5, "discipline": "strict"'
        ', "depth": 20, "width": 20, "copy_ancillae": 12, "work_qubits": 3'
        ', "max_error": 3.609444140986297e-16, "max_leakage": 1.7699296188918697e-31'
        ', "pass": true, "inputs_checked": 42, "coverage": 1.0, "structural_only": false'
        ', "error_tol": 1e-09, "leakage_tol": 1e-10}\n'),
    (*VERIFY, "modq-const", "--n", "6", "--q", "4", "--discipline", "strict"): (
        '{"construction": "modq-const", "n": 6, "q": 4, "discipline": "strict"'
        ', "depth": 24, "width": 21, "copy_ancillae": 12, "work_qubits": 2'
        ', "max_error": 3.5892263697634707e-16, "max_leakage": 2.108321078449431e-31'
        ', "pass": true, "inputs_checked": 138, "coverage": 1.0, "structural_only": false'
        ', "error_tol": 1e-09, "leakage_tol": 1e-10}\n'),
    (*VERIFY, "modq-const", "--n", "3", "--q", "16"): (
        '{"construction": "modq-const", "n": 3, "q": 16, "discipline": "wf", "depth": 12'
        ', "width": 20, "copy_ancillae": 12, "work_qubits": 4'
        ', "max_error": 3.3498855919713264e-15, "max_leakage": 1.2483001885521511e-29'
        ', "pass": true, "inputs_checked": 26, "coverage": 1.0, "structural_only": false'
        ', "error_tol": 1e-09, "leakage_tol": 1e-10}\n'),
    (*VERIFY, "ctrl-u", "--n", "5", "--u", "h"): (
        '{"construction": "ctrl-u", "n": 5, "q": null, "discipline": "strict", "depth": 3'
        ', "width": 7, "copy_ancillae": 0, "work_qubits": 1'
        ', "max_error": 1.9968166761095518e-17, "max_leakage": 0.0, "pass": true'
        ', "inputs_checked": 74, "coverage": 1.0, "structural_only": false'
        ', "error_tol": 1e-09, "leakage_tol": 1e-10}\n'),
    (*VERIFY, "ctrl-u", "--n", "6", "--u", "s"): (
        '{"construction": "ctrl-u", "n": 6, "q": null, "discipline": "strict", "depth": 3'
        ', "width": 8, "copy_ancillae": 0, "work_qubits": 1, "max_error": 0.0'
        ', "max_leakage": 0.0, "pass": true, "inputs_checked": 138, "coverage": 1.0'
        ', "structural_only": false, "error_tol": 1e-09, "leakage_tol": 1e-10}\n'),
    (*VERIFY, "parity-fanout", "--n", "6"): (
        '{"construction": "parity-fanout", "n": 6, "q": 2, "discipline": "wf", "depth": 3'
        ', "width": 7, "copy_ancillae": 0, "work_qubits": 0'
        ', "max_error": 1.2986745805193028e-15, "max_leakage": 0.0, "pass": true'
        ', "inputs_checked": 138, "coverage": 1.0, "structural_only": false'
        ', "error_tol": 1e-09, "leakage_tol": 1e-10}\n'),
    (*VERIFY, "modq-seq", "--n", "5", "--q", "3"): (
        '{"construction": "modq-seq", "n": 5, "q": 3, "discipline": "strict", "depth": 12'
        ', "width": 8, "copy_ancillae": 0, "work_qubits": 2, "max_error": 0.0'
        ', "max_leakage": 0.0, "pass": true, "inputs_checked": 74, "coverage": 1.0'
        ', "structural_only": false, "error_tol": 1e-09, "leakage_tol": 1e-10}\n'),
    (*VERIFY, "cat", "--n", "12"): (
        '{"construction": "cat", "n": 12, "q": null, "discipline": "wf", "depth": 1'
        ', "width": 12, "copy_ancillae": 0, "work_qubits": 0, "max_error": 0.0'
        ', "max_leakage": 0.0, "pass": true, "inputs_checked": 12, "coverage": 1.0'
        ', "structural_only": false, "error_tol": 1e-09, "leakage_tol": 1e-10}\n'),
    (*VERIFY, "fanout", "--n", "6"): (
        '{"construction": "fanout", "n": 6, "q": null, "discipline": "wf", "depth": 1'
        ', "width": 7, "copy_ancillae": 0, "work_qubits": 0, "max_error": 0.0'
        ', "max_leakage": 0.0, "pass": true, "inputs_checked": 138, "coverage": 1.0'
        ', "structural_only": false, "error_tol": 1e-09, "leakage_tol": 1e-10}\n'),
    (*VERIFY, "parity-cat", "--n", "5", "--builder", "log-cat"): (
        '{"construction": "parity-cat", "n": 5, "q": 2, "discipline": "strict"'
        ', "depth": 9, "width": 10, "copy_ancillae": 4, "work_qubits": 0'
        ', "max_error": 3.7820469721128436e-16, "max_leakage": 0.0, "pass": true'
        ', "inputs_checked": 74, "coverage": 1.0, "structural_only": false'
        ', "error_tol": 1e-09, "leakage_tol": 1e-10}\n'),
    (*VERIFY, "ctrl-u", "--n", "5", "--u", "z"): (
        '{"construction": "ctrl-u", "n": 5, "q": null, "discipline": "strict", "depth": 3'
        ', "width": 7, "copy_ancillae": 0, "work_qubits": 1, "max_error": 0.0'
        ', "max_leakage": 0.0, "pass": true, "inputs_checked": 74, "coverage": 1.0'
        ', "structural_only": false, "error_tol": 1e-09, "leakage_tol": 1e-10}\n'),
    (*VERIFY, "ctrl-u", "--n", "5", "--u", "phase", "--theta", "0.7"): (
        '{"construction": "ctrl-u", "n": 5, "q": null, "discipline": "strict", "depth": 3'
        ', "width": 7, "copy_ancillae": 0, "work_qubits": 1'
        ', "max_error": 1.3877787807814457e-17, "max_leakage": 0.0, "pass": true'
        ', "inputs_checked": 74, "coverage": 1.0, "structural_only": false'
        ', "error_tol": 1e-09, "leakage_tol": 1e-10}\n'),
    ("identities", "--json"): (
        '[{"identity": "cnot-h-conjugation-is-controlled-pi-shift"'
        ', "max_error": 2.535772158592562e-16, "pass": true}'
        ', {"identity": "fanout-h-conjugation-is-parity"'
        ', "max_error": 6.661338147750939e-16, "pass": true}]\n'),
}


# --help of the top level and of verify, byte for byte at 80 columns: main
# builds a lone sub-command's parser, or all five, and each prints the same
HELP = {
    ("--help",): (
        "usage: qdepth [-h] {synth,sim,verify,scale,identities} ...\n\n"
        "Synthesize, simulate, and verify constant-depth fanout/parity/counting\n"
        "circuits.\n\n"
        "positional arguments:\n"
        "  {synth,sim,verify,scale,identities}\n"
        "    synth               synthesize a construction to a JSON file\n"
        "    sim                 run a circuit file on a basis or plus input\n"
        "    verify              check a construction against its oracle\n"
        "    scale               tabulate depth/width/ancillae over n\n"
        "    identities          run the Hadamard-conjugation matrix identity checks\n\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"),
    ("verify", "--help"): (
        "usage: qdepth verify [-h] --construction\n"
        "                     {cat,fanout,parity-fanout,parity-cat,modq-seq,modq-const,ctrl-u,rev-embed}\n"
        "                     [--n N] [--q Q] [--discipline {strict,wf}]\n"
        "                     [--builder {fanout,log-cat}] [--u {x,z,h,s,phase}]\n"
        "                     [--theta THETA] [--classical FILE] [--structural-only]\n"
        "                     [--tolerance TOLERANCE] [--superpositions SUPERPOSITIONS]\n"
        "                     [--json]\n\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --construction {cat,fanout,parity-fanout,parity-cat,modq-seq,modq-const,ctrl-u,rev-embed}\n"
        "  --n N                 number of inputs / register size; n is read only by\n"
        "                        cat, fanout, parity-fanout, parity-cat, modq-seq,\n"
        "                        modq-const and ctrl-u\n"
        "  --q Q                 modulus; q is read only by modq-seq and modq-const\n"
        "  --discipline {strict,wf}\n"
        "                        layering discipline; discipline is read only by modq-\n"
        "                        const\n"
        "  --builder {fanout,log-cat}\n"
        "                        cat-state builder; builder is read only by cat and\n"
        "                        parity-cat\n"
        "  --u {x,z,h,s,phase}   one-qubit unitary; u is read only by ctrl-u\n"
        "  --theta THETA         angle for --u phase; theta is read only by ctrl-u with\n"
        "                        u=phase\n"
        "  --classical FILE      classical circuit JSON; classical is read only by rev-\n"
        "                        embed\n"
        "  --structural-only     skip amplitude checks; report resources only\n"
        "  --tolerance TOLERANCE\n"
        "                        max amplitude error (default $QDEPTH_TOL or 1e-09)\n"
        "  --superpositions SUPERPOSITIONS\n"
        "                        extra random superposition inputs to check\n"
        "  --json\n"),
}


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

    def test_json_summary(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli(capsys, "synth", "--construction", "modq-const", "--n", "4",
                       "--q", "3", "--out", "m.json", "--json") == (
            0, '{"construction": "modq-const", "n": 4, "q": 3, "discipline": "wf"'
               ', "depth": 12, "width": 15, "ancillae": 8, "work": 2, "out": "m.json"}\n', "")

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
            3, "", "error: 5-qubit register exceeds the 4-qubit simulation cap\n")

    def test_a_33_qubit_basis_input(self, tmp_path, monkeypatch, capsys):
        # one numpy axis per qubit of the shaped form: 33, past the 32 that
        # an array's .flat takes
        out = tmp_path / "m.json"
        run_cli(capsys, "synth", "--construction", "modq-const", "--n", "10", "--q", "3",
                "--out", str(out))
        monkeypatch.setenv("QDEPTH_SIM_CAP", "40")
        code, text, err = run_cli(capsys, "sim", str(out), "--input", "1" * 10 + "0" * 23)
        assert (code, err) == (0, "")
        index, re, im = text.split()
        assert index == "0" * 22 + "1" * 11  # 10 is no multiple of 3: the target flips
        assert abs(complex(float(re), float(im)) - 1) <= 1e-12

    def test_past_63_qubits_exits_three(self, tmp_path, monkeypatch, capsys):
        # whatever the cap, a basis index is one int64: 63 qubits at most
        monkeypatch.setenv("QDEPTH_SIM_CAP", "80")
        for n in (64, 70):
            out = tmp_path / f"c{n}.json"
            run_cli(capsys, "synth", "--construction", "cat", "--n", str(n), "--out", str(out))
            message = f"error: {n}-qubit register exceeds the simulator's 63-qubit ceiling\n"
            assert run_cli(capsys, "sim", str(out), "--input", "1" + "0" * (n - 1)) == (
                3, "", message)
            assert run_cli(capsys, "verify", "--construction", "cat", "--n", str(n)) == (
                3, "", message)

    def test_unparseable_file_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _, _ = run_cli(capsys, "sim", str(bad), "--input", "0")
        assert code == 2

    @pytest.mark.parametrize("args, spec", [
        (args, spec) for args, outputs in SIM_OUTPUTS.items() for spec in outputs])
    def test_output_is_that_of_the_flat_run(self, tmp_path, capsys, args, spec):
        out = tmp_path / "c.json"
        run_cli(capsys, "synth", "--construction", *args, "--out", str(out))
        assert run_cli(capsys, "sim", str(out), "--input", spec) == (
            0, SIM_OUTPUTS[args][spec], "")

    def test_a_circuit_of_no_qubit(self, tmp_path, capsys):
        # input "" is the shaped state of 0 qubits, a 0-d array: one
        # amplitude, at index 0
        out = tmp_path / "c.json"
        out.write_text(circuit_to_json(Circuit(0, (), ())))
        assert run_cli(capsys, "sim", str(out), "--input", "") == (0, "0 1 0\n", "")

    def test_a_wide_basis_input_allocates_little(self, tmp_path, capsys):
        # modq-const n=4 q=5, 20 qubits, on inputs 1,1,0,1: the run holds
        # the inputs it sets and the qubits the circuit moves, at most 2^8
        # amplitudes, and never a 2^20-amplitude (16 MiB) state
        out = tmp_path / "m.json"
        run_cli(capsys, "synth", "--construction", "modq-const", "--n", "4",
                "--q", "5", "--out", str(out))
        tracemalloc.start()
        try:
            code = main(["sim", str(out), "--input", "1101" + "0" * 16])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        text = capsys.readouterr().out
        assert code == 0 and text.split()[0] == "00000000000000011011"
        assert peak < 1 << 20, peak

    def test_one_qubit_circuit_with_its_qubit_idle(self, tmp_path, capsys):
        # a lone phase on qubit 0: input 0 holds no qubit, a state of
        # shape (1,)
        c = Circuit(1, (Role.INPUT,), (Layer((symmetric_phase(0.3, (), 0),)),))
        out = tmp_path / "c.json"
        out.write_text(circuit_to_json(c))
        assert run_cli(capsys, "sim", str(out), "--input", "0") == (0, "0 1 0\n", "")
        code, text, _ = run_cli(capsys, "sim", str(out), "--input", "1")
        index, re, im = text.split()
        assert (code, index) == (0, "1")
        assert abs(complex(float(re), float(im)) - cmath.exp(0.3j)) <= 1e-15

    def test_readme_example(self, tmp_path, capsys, monkeypatch):
        # every `$ qdepth ...` line of the README's command-line block, run
        # in order as it shows them: exit 0 and the output it shows, less
        # its `#` comments, with `...` read as a gap
        lines = README.read_text(encoding="utf-8").split("## Command line")[1].splitlines()
        block = lines[lines.index("```sh") + 1:]
        block = [line.split("#")[0].rstrip() for line in block[:block.index("```")]]
        starts = [i for i, line in enumerate(block) if line.startswith("$ qdepth ")]
        assert {block[i].split()[2] for i in starts} == {"synth", "sim", "verify", "scale"}
        monkeypatch.chdir(tmp_path)
        for start, end in zip(starts, [*starts[1:], len(block)]):
            assert main(block[start].split()[2:]) == 0, block[start]
            shown = "\n".join(block[start + 1:end]) + "\n"
            pattern = ".*".join(map(re.escape, shown.split("...")))
            assert re.fullmatch(pattern, capsys.readouterr().out, re.DOTALL), block[start]

    @pytest.mark.parametrize("spec, message", [
        ("10000000", "error: input must be 9 bits (qubit 0 first) or plus@i, got '10000000'\n"),
        ("plus@9", "error: qubit 9 outside width 9\n"),
        ("plus@-0", "error: qubit -0 outside width 9\n"),
        ("1000x0000", "error: input must be 9 bits (qubit 0 first) or plus@i, got '1000x0000'\n"),
        ("plus@x", "error: input must be 9 bits (qubit 0 first) or plus@i, got 'plus@x'\n"),
        ("plus@", "error: input must be 9 bits (qubit 0 first) or plus@i, got 'plus@'\n"),
        ("plus@1.5", "error: input must be 9 bits (qubit 0 first) or plus@i, got 'plus@1.5'\n"),
        ("plus@1_0", "error: input must be 9 bits (qubit 0 first) or plus@i, got 'plus@1_0'\n"),
        ("plus@ 3", "error: input must be 9 bits (qubit 0 first) or plus@i, got 'plus@ 3'\n"),
        ("plus@+3", "error: input must be 9 bits (qubit 0 first) or plus@i, got 'plus@+3'\n"),
        ("plus@\u0663", "error: input must be 9 bits (qubit 0 first) or plus@i, got 'plus@\u0663'\n"),
    ])
    def test_bad_input_on_a_restricted_circuit_is_one_error_line(
            self, tmp_path, capsys, spec, message):
        # modq-const n=2 q=3 on input 1 runs restricted, on 4 of its 9
        # qubits, and prints the full basis index; a bad input still ends
        # in one error line and exit 2
        out = tmp_path / "c.json"
        run_cli(capsys, "synth", "--construction", "modq-const", "--n", "2",
                "--q", "3", "--out", str(out))
        code, text, _ = run_cli(capsys, "sim", str(out), "--input", "100000000")
        assert (code, text.split()[0]) == (0, "000000101")
        assert run_cli(capsys, "sim", str(out), "--input", spec) == (2, "", message)


class TestVerify:
    def test_width_one_superpositions(self, capsys):
        code, text, _ = run_cli(capsys, "verify", "--construction", "cat", "--n", "1",
                                "--superpositions", "3")
        assert code == 0 and text.endswith(" inputs=5 pass\n")

    def test_a_33_qubit_superposition(self, monkeypatch, capsys):
        # the superposition is written into a 33-axis shaped state
        monkeypatch.setenv("QDEPTH_SIM_CAP", "40")
        code, text, _ = run_cli(capsys, "verify", "--construction", "modq-const",
                                "--n", "10", "--q", "3", "--superpositions", "1")
        assert code == 0 and text.endswith(" inputs=2049 pass\n")

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


class TestOutputs:
    @pytest.mark.parametrize("argv", OUTPUTS, ids=" ".join)
    def test_stdout_is_unchanged(self, capsys, argv):
        assert run_cli(capsys, *argv) == (0, OUTPUTS[argv], "")

    @pytest.mark.parametrize("argv", HELP, ids=" ".join)
    def test_help_is_unchanged(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert (exc.value.code, *capsys.readouterr()) == (0, HELP[argv], "")


class TestOneSubCommand:
    """main builds the parser of the sub-command that its first argument
    names, and every sub-command's when it names none."""

    CHOICES = "{synth,sim,verify,scale,identities}"

    def test_verify_runs_no_other_argument_adder(self, monkeypatch, capsys):
        def refuse(p):
            raise AssertionError("built another sub-command's arguments")
        for name, (what, _, fn) in cli.COMMANDS.items():
            if name != "verify":
                monkeypatch.setitem(cli.COMMANDS, name, (what, refuse, fn))
        code, out, _ = run_cli(capsys, "verify", "--construction", "fanout", "--n", "3", "--json")
        assert code == 0 and json.loads(out)["pass"] is True
        with pytest.raises(AssertionError, match="another sub-command"):
            main(["--help"])

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        out = capsys.readouterr().out
        assert exc.value.code == 0 and self.CHOICES in out
        assert all(f"\n    {name} " in out for name in cli.COMMANDS)

    @pytest.mark.parametrize("argv, message", [
        ((), "the following arguments are required: command"),
        (("bogus",), "argument command: invalid choice: 'bogus' (choose from 'synth', "
                     "'sim', 'verify', 'scale', 'identities')"),
        (("identities", "--json", "x"), "unrecognized arguments: x"),
        (("scale", "--construction", "cat", "--n-min", "5", "--n-max", "2"),
         "--n-min must be <= --n-max"),
    ])
    def test_a_usage_error_lists_every_command(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert capsys.readouterr().err == (f"usage: qdepth [-h] {self.CHOICES} ...\n"
                                           f"qdepth: error: {message}\n")


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

    @pytest.mark.parametrize("argv", [
        ("verify", "--construction", "ctrl-u", "--n", "3", "--u", "h", "--theta", "0.5"),
        ("synth", "--construction", "cat", "--n", "3", "--theta", "1", "--out", "c.json"),
    ], ids=["ctrl-u-h", "synth-cat"])
    def test_a_theta_no_gate_reads_is_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert run_cli(capsys, *argv) == (
            2, "", "error: theta is read only by ctrl-u with u=phase\n")
        assert not (tmp_path / "c.json").exists()

    @pytest.mark.parametrize("argv", [
        ("verify", "--construction", "fanout", "--n", "2", "--q", "7"),
        ("scale", "--construction", "cat", "--q", "3", "--n-min", "1", "--n-max", "3",
         "--json"),
        # parity-* set their own q = 2
        ("verify", "--construction", "parity-fanout", "--n", "2", "--q", "2"),
    ], ids=["verify-fanout", "scale-cat", "parity-fanout"])
    def test_a_q_no_gate_reads_is_usage_error(self, capsys, argv):
        assert run_cli(capsys, *argv) == (
            2, "", "error: q is read only by modq-seq and modq-const\n")

    @pytest.mark.parametrize("argv, message", [
        (("verify", "--construction", "modq-seq", "--n", "3", "--q", "3",
          "--discipline", "wf"), "discipline is read only by modq-const"),
        (("verify", "--construction", "rev-embed", "--n", "9", "--classical", "c.json"),
         "n is read only by cat, fanout, parity-fanout, parity-cat, modq-seq,"
         " modq-const and ctrl-u"),
        # refused before the file, which does not exist, is read
        (("verify", "--construction", "fanout", "--n", "2", "--classical", "none.json"),
         "classical is read only by rev-embed"),
        (("verify", "--construction", "fanout", "--n", "2", "--u", "h"),
         "u is read only by ctrl-u"),
        (("synth", "--construction", "fanout", "--n", "2", "--builder", "log-cat",
          "--out", "f.json"), "builder is read only by cat and parity-cat"),
        (("scale", "--construction", "cat", "--discipline", "strict", "--n-min", "1",
          "--n-max", "3"), "discipline is read only by modq-const"),
    ], ids=["modq-seq-discipline", "rev-embed-n", "fanout-classical", "fanout-u",
            "synth-fanout-builder", "scale-cat-discipline"])
    def test_a_setting_the_construction_does_not_read_is_usage_error(
            self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        c = ClassicalCircuit(2, ((ClassicalGate("and", (0, 1)),),))
        (tmp_path / "c.json").write_text(to_json(c))
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")
        assert not (tmp_path / "f.json").exists()

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
        (float("inf"), "error: matrix is not unitary (deviation nan)"),
        (1e308, "error: matrix is not unitary (deviation inf)"),
    ], ids=["nan", "bool", "inf", "1e308"])
    def test_bad_matrix_entries_are_usage_errors(self, tmp_path, capsys, entry,
                                                 message):
        # the identity with one entry replaced; JSON carries NaN and
        # Infinity as literals. 1e308 overflows the unitarity check
        doc = _circuit_doc({"kind": "u", "targets": [0],
                            "matrix": [[entry, 0], [0, 0], [0, 0], [1, 0]]},
                           width=1, roles=["input"])
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "sim", str(path), "--input", "0")
        assert code == 2 and out == "" and err.startswith(message)
        assert len(err.splitlines()) == 1, err


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

    @pytest.mark.parametrize("doc, message", [
        # the Gate field name in place of "neg" loaded as a plain CNOT
        (_circuit_doc({"kind": "cnot", "controls": [0], "negated": [0],
                       "targets": [1]}), "error: unknown gate key 'negated'\n"),
        (_circuit_doc({"kind": "cnot", "controls": [0], "targets": [1]},
                      comment="x"), "error: unknown circuit key 'comment'\n"),
        # and fields of a known key that hold no valid value
        (_circuit_doc({"kind": "phase", "controls": [0], "targets": [1],
                       "theta": float("inf")}), "error: phase requires a finite theta\n"),
        (_circuit_doc({"kind": "u", "targets": [0], "matrix": [[1, 0], [0, 0], [1, 0]]}),
         "error: matrix of length 3 is not square\n"),
        (_circuit_doc({"kind": "u", "targets": [0], "matrix": [[1, 0]] * 16}),
         "error: matrix must be 2x2, got (4, 4)\n"),
        (_circuit_doc({"kind": "toffoli", "controls": [0, 0], "targets": [1]}),
         "error: duplicate qubit in controls or targets\n"),
        (_circuit_doc({"kind": "cnot", "controls": [0], "targets": [1]}, width=-1),
         "error: width must be nonnegative\n"),
        # and fields of the wrong JSON type, each refused by its name
        (_circuit_doc({"kind": "cnot", "controls": 1.5, "targets": [1]}),
         "error: controls must be a JSON array, got float\n"),
        (_circuit_doc({"kind": "u", "targets": [0], "matrix": 5}),
         "error: matrix must be a JSON array, got int\n"),
        (_circuit_doc({"kind": "u", "targets": [0], "matrix": [[1], [0, 0], [0, 0], [1, 0]]}),
         "error: matrix entry must be a [re, im] pair\n"),
        (_circuit_doc(None, layers=[{"kind": "x", "targets": [0]}]),
         "error: layer must be a JSON array, got dict\n"),
        (_circuit_doc(None, layers=None), "error: layers must be a JSON array, got NoneType\n"),
        ({"width": 2, "discipline": "strict", "roles": ["input"] * 2},
         "error: invalid circuit JSON: missing field 'layers'\n"),
    ], ids=["gate", "document", "theta-infinity", "matrix-of-3", "matrix-of-16-on-u",
            "duplicate-control", "width-minus-1", "controls-float", "matrix-int",
            "matrix-entry-of-1", "layer-object", "layers-null", "no-layers"])
    def test_unknown_keys_are_usage_errors(self, tmp_path, capsys, doc, message):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "sim", str(path), "--input", "00")
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

    @pytest.mark.parametrize("doc, message", [
        ({"inputs": 2, "layers": [[{"op": "and", "args": [0, 1], "negate": True}]]},
         "error: unknown classical gate key 'negate'\n"),
        ({"inputs": 2, "layers": [[{"op": "and", "args": [0, 1]}]], "outputs": [2]},
         "error: unknown classical circuit key 'outputs'\n"),
        # and documents that are no classical circuit; a str is written as is
        ("not json", "error: invalid classical circuit JSON: Expecting value:"
                     " line 1 column 1 (char 0)\n"),
        ({"inputs": 2, "layers": [[{"op": "nand", "args": [0, 1]}]]},
         "error: unknown op 'nand'\n"),
        ({"inputs": 2, "layers": [[{"op": "and", "args": []}]]},
         "error: and needs at least one argument\n"),
        ({"inputs": 0, "layers": [[{"op": "and", "args": [0, 1]}]]},
         "error: need at least one input\n"),
        ({"inputs": 2, "layers": []}, "error: need at least one nonempty layer\n"),
        ([{"inputs": 2}], "error: classical circuit must be a JSON object, got list\n"),
        # and fields missing or of the wrong JSON type, each refused by its name
        ({"inputs": 2, "layers": [[{"op": "and"}]]},
         "error: invalid classical circuit JSON: missing field 'args'\n"),
        ({"inputs": 2, "layers": [[{"op": "and", "args": 3}]]},
         "error: args must be a JSON array, got int\n"),
        ({"inputs": 2, "layers": [{"op": "and", "args": [0, 1]}]},
         "error: layer must be a JSON array, got dict\n"),
        ({"inputs": 2}, "error: invalid classical circuit JSON: missing field 'layers'\n"),
    ], ids=["gate", "document", "not-json", "nand", "and-of-none", "no-inputs",
            "no-layers", "list", "no-args", "args-int", "layer-object", "layers-missing"])
    def test_unknown_keys_are_usage_errors(self, tmp_path, capsys, doc, message):
        path = tmp_path / "classical.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", "--construction", "rev-embed",
                                 "--classical", str(path))
        assert (code, out, err) == (2, "", message)


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
        # registers whose size does not fit an index
        (("verify", "--construction", "modq-const", "--n", str(2 ** 64), "--q", "3",
          "--structural-only"), 3, "out of memory: the register is too large to build"),
        (("scale", "--construction", "cat", "--n-min", str(2 ** 64 - 1),
          "--n-max", str(2 ** 64)), 3, "out of memory: the register is too large to build"),
        # a count of superpositions that no loop could finish
        (("verify", "--construction", "fanout", "--n", "2", "--superpositions",
          str(2 ** 64)), 2, f"superpositions must be in 0..{sys.maxsize}, got {2 ** 64}"),
        # a construction missing a setting it needs
        (("verify", "--construction", "fanout", "--n", "0"), 2, "fanout requires n >= 1"),
        (("verify", "--construction", "rev-embed"), 2,
         "rev-embed requires a classical circuit"),
    ], ids=["block-oracle", "modq-const-modulus", "modq-seq-scale-modulus",
            "modq-const-n2e64", "scale-cat-n2e64", "superpositions-2e64",
            "fanout-n0", "rev-embed-no-classical"])
    def test_one_error_line(self, tmp_path, argv, exit_code, message):
        proc = run_cli_limited(tmp_path, *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            exit_code, "", f"error: {message}\n")

    def test_rows_past_an_int64_key_pass(self, tmp_path, monkeypatch):
        # with the cap raised, 2^14 inputs at width 56 run on rows whose
        # (id, index) pairs would take 70 bits as one key: the merge sorts
        # on the pair and needs none
        monkeypatch.setenv("QDEPTH_SIM_CAP", "63")
        proc = run_cli_limited(tmp_path, "verify", "--construction", "modq-const",
                               "--n", "13", "--q", "5")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert "width=56" in proc.stdout and proc.stdout.endswith(" inputs=16384 pass\n")

    @pytest.mark.parametrize("argv, message", [
        # a 63-qubit data register: np.arange gave its 2^63 inputs as none,
        # and the verdict passed on zero inputs
        (("verify", "--construction", "fanout", "--n", "62", "--json"),
         f"a range of {2 ** 63} inputs exceeds the largest numpy array"),
        (("verify", "--construction", "fanout", "--n", "61"),
         f"a range of {2 ** 62} inputs exceeds the largest numpy array"),
        # cat's two inputs fit, but a superposition of them fills 63 qubits
        (("verify", "--construction", "cat", "--n", "63", "--superpositions", "2"),
         "a batch of 1 x 2^63 amplitudes exceeds the largest numpy array"),
    ], ids=["fanout-n62", "fanout-n61", "cat-n63-superpositions"])
    def test_past_the_largest_array_exits_three(self, tmp_path, monkeypatch, argv, message):
        monkeypatch.setenv("QDEPTH_SIM_CAP", "63")
        proc = run_cli_limited(tmp_path, *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", f"error: {message}\n")

    def test_a_workspace_past_the_largest_array_exits_three(self, tmp_path, monkeypatch):
        # plus@0 on a 62-qubit cat holds every qubit: 2^62 amplitudes
        monkeypatch.setenv("QDEPTH_SIM_CAP", "63")
        run_cli_limited(tmp_path, "synth", "--construction", "cat", "--n", "62",
                        "--out", "c.json").check_returncode()
        proc = run_cli_limited(tmp_path, "sim", "c.json", "--input", "plus@0")
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            3, "", "error: a workspace of 2^62 amplitudes exceeds the largest numpy array\n")

    @pytest.mark.parametrize("command", [
        ("verify",), ("verify", "--structural-only"), ("synth", "--out", "c.json"),
    ], ids=["verify", "structural-only", "synth"])
    @pytest.mark.parametrize("request_args", [
        ("--construction", "fanout", "--n", "1000000000000"),
        ("--construction", "rev-embed", "--classical", "classical-1e12.json"),
        ("--construction", "fanout", "--n", str(2 ** 64)),
        ("--construction", "rev-embed", "--classical", "classical-2e64.json"),
    ], ids=["fanout-n1e12", "rev-embed-1e12-inputs", "fanout-n2e64",
            "rev-embed-2e64-inputs"])
    def test_huge_register_is_one_error_line(self, tmp_path, command, request_args):
        # 10^12 qubits: the register's role tuple alone would take 8 TB, so
        # its allocation fails at once, before anything is held; 2^64 does
        # not even fit an index, and numpy or Python say so by OverflowError
        for name, inputs in (("classical-1e12.json", 10 ** 12),
                             ("classical-2e64.json", 2 ** 64)):
            (tmp_path / name).write_text(json.dumps(
                {"inputs": inputs, "layers": [[{"op": "and", "args": [0, 1]}]]}))
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

    @pytest.mark.parametrize("args", [
        ("--construction", "parity-cat", "--builder", "log-cat"),
        ("--construction", "modq-const", "--q", "3", "--discipline", "strict"),
    ], ids=["parity-cat-log-cat", "modq-const-strict"])
    def test_several_log_phases_read_logarithmic(self, capsys, args):
        code, text, _ = run_cli(capsys, "scale", *args, "--n-min", "1", "--n-max", "9")
        assert code == 0 and text.strip().endswith("verdict: logarithmic")

    def test_a_mismatch_names_its_row(self, capsys, monkeypatch):
        # one layer too many at n=5 only: the first row and column that differ
        build = synth.modq_sequential

        def one_layer_more(n, q):
            c = build(n, q)
            extra = (Layer((pauli_x(0),)),) if n == 5 else ()
            return dataclasses.replace(c, layers=c.layers + extra)
        monkeypatch.setattr(synth, "modq_sequential", one_layer_more)
        argv = ("scale", "--construction", "modq-seq", "--q", "3", "--n-min", "2",
                "--n-max", "8")
        code, text, _ = run_cli(capsys, *argv)
        assert code == 0 and text.endswith("\nverdict: mismatch at n=5: depth 13, claimed 12\n")
        code, text, _ = run_cli(capsys, *argv, "--json")
        doc = json.loads(text)
        assert code == 0 and doc["verdict"] == "mismatch at n=5: depth 13, claimed 12"
        assert [row[1] for row in doc["rows"]] == [6, 8, 10, 13, 14, 16, 18]

    @pytest.mark.parametrize("args, n_max, discipline", [
        (("modq-seq", "--q", "3"), 3, "strict"),
        (("modq-const", "--q", "3"), 3, "wf"),
        (("modq-const", "--q", "3", "--discipline", "strict"), 3, "strict"),
        (("ctrl-u",), 3, "strict"),
        (("cat",), 3, "wf"),
        (("cat", "--builder", "log-cat"), 3, "strict"),
        (("parity-cat", "--builder", "log-cat"), 3, "strict"),
        # a fanout-built parity-cat needs no fanout for one qubit
        (("parity-cat",), 1, "strict"),
        (("parity-cat",), 2, "wf"),
    ], ids=["modq-seq", "modq-const", "modq-const-strict", "ctrl-u", "cat",
            "cat-log-cat", "parity-cat-log-cat", "parity-cat-n1", "parity-cat-n2"])
    def test_json_reports_the_discipline_of_its_circuits(self, capsys, args, n_max,
                                                         discipline):
        # wf if any row's circuit is wf, as verify reports it at the last row
        code, text, _ = run_cli(capsys, "scale", "--construction", *args,
                                "--n-min", "1", "--n-max", str(n_max), "--json")
        assert code == 0 and json.loads(text)["discipline"] == discipline
        code, text, _ = run_cli(capsys, "verify", "--construction", *args,
                                "--n", str(n_max), "--structural-only", "--json")
        assert code == 0 and json.loads(text)["discipline"] == discipline

    def test_bad_range_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scale", "--construction", "cat", "--n-min", "5",
                  "--n-max", "2"])
        assert exc.value.code == 2

    def test_rev_embed_is_no_scale_choice(self, capsys):
        # scale takes no classical circuit to embed
        with pytest.raises(SystemExit) as exc:
            main(["scale", "--construction", "rev-embed", "--n-min", "1", "--n-max", "2"])
        assert exc.value.code == 2
        assert "invalid choice: 'rev-embed'" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["scale", "--help"])
        assert "rev-embed" not in capsys.readouterr().out

    def test_identities_pass(self, capsys):
        code, text, _ = run_cli(capsys, "identities")
        lines = text.strip().splitlines()
        assert code == 0 and len(lines) == 2
        assert all("pass" in line for line in lines)

    def test_identities_json(self, capsys):
        code, text, _ = run_cli(capsys, "identities", "--json")
        doc = json.loads(text)
        assert code == 0 and len(doc) == 2 and all(d["pass"] for d in doc)
