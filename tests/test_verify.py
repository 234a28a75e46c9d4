import dataclasses
import json
import math

import pytest

import numpy as np

from qdepth import verify
from qdepth.classical import ClassicalCircuit, ClassicalGate
from qdepth.ir import (
    Circuit, Discipline, GateKind, Layer, hadamard, modq_gate, pauli_x, toffoli,
)
from qdepth.oracle import oracle_unitary
from qdepth.sim import (
    PURITY_TOL, basis_state, check_ancilla_purity, embed_index, run,
)
from qdepth.synth import parity_via_catstate
from qdepth.verify import (
    SimulationCapExceeded, VerificationReport, build_construction,
    depth_scaling_table, identity_checks, verify_built, verify_construction,
)


@pytest.fixture
def engine_used(monkeypatch):
    """Records whether each verify_construction call ran its basis inputs
    on the sparse engine (True) or fell back to the dense one (False)."""
    used, run_basis = [], verify.run_basis

    def spy(circuit, starts):
        rows = run_basis(circuit, starts)
        used.append(rows is not None)
        return rows
    monkeypatch.setattr(verify, "run_basis", spy)
    return used


class TestVerifyConstruction:
    def test_parity_from_fanout_passes(self):
        b = build_construction("parity-fanout", n=3)
        report = verify_built(b)
        assert report.passed and report.max_error <= 1e-12

    def test_modq_const_passes_and_depth_matches_small_n(self):
        r4 = verify_built(build_construction("modq-const", n=4, q=3))
        r2 = verify_built(build_construction("modq-const", n=2, q=3))
        assert r4.passed and r2.passed
        assert r4.depth == r2.depth

    def test_dropped_cnot_detected(self):
        c = parity_via_catstate(3, "log-cat")
        # remove one controlled-not from the copy phase
        broken_layers = []
        dropped = False
        for layer in c.layers:
            gates = layer.gates
            if not dropped and any(g.kind.value == "cnot" for g in gates):
                gates = gates[1:]
                dropped = True
            broken_layers.append(Layer(gates))
        assert dropped
        broken = Circuit(c.width, c.roles, tuple(broken_layers), c.discipline)
        assert broken.data_qubits == (0, 1, 2, 3)
        err, leak, _ = verify_construction(broken, modq_gate(2, (0, 1, 2), 3))
        assert err >= 0.5

    def test_nan_error_fails(self):
        # a NaN on one input only: max(0.0, nan) would keep 0.0 and pass
        b = build_construction("fanout", n=2)
        u = oracle_unitary(b.oracle, len(b.circuit.data_qubits))
        image = lambda x: [(y, math.nan if x == 5 else u[y, x])
                           for y in range(u.shape[0]) if u[y, x]]
        err, leak, checked = verify_construction(b.circuit, image,
                                                 superpositions=2)
        assert math.isnan(err) and leak == 0.0 and checked == 10
        report = verify_built(dataclasses.replace(b, oracle=image))
        assert math.isnan(report.max_error) and not report.passed

    def test_nan_error_fails_on_the_sparse_path(self, engine_used):
        # no superpositions: the NaN can only come through the sparse merge
        b = build_construction("fanout", n=2)
        image = lambda x: [(x ^ (0b110 if x & 1 else 0), math.nan if x == 5 else 1.0)]
        err, leak, checked = verify_construction(b.circuit, image)
        assert engine_used == [True]
        assert math.isnan(err) and leak == 0.0 and checked == 8

    def test_dense_fallback_matches_a_dense_loop(self, engine_used):
        # H on every qubit: the sparse engine gives up, and the fallback
        # must give the numbers of a plain per-input dense loop
        b = build_construction("parity-fanout", n=6)
        c, d = b.circuit, len(b.circuit.data_qubits)
        u = oracle_unitary(b.oracle, d)
        err = leak = 0.0
        for x in range(1 << d):
            out = run(c, basis_state(c.width, embed_index(x, c.data_qubits)))
            want = np.zeros(1 << c.width, dtype=complex)
            want[embed_index(np.arange(1 << d), c.data_qubits)] = u[:, x]
            err = max(err, float(np.abs(out - want).max()))
            leak = max(leak, check_ancilla_purity(out, c.ancillae).leakage)
        assert verify_construction(c, b.oracle) == (err, leak, 1 << d)
        assert engine_used == [False]

    def test_uncompute_mutant_fails_on_leakage(self, engine_used):
        # drop one unfan gate of the uncompute half (the second-to-last
        # layer): its copies stay entangled with the counter
        built = build_construction("modq-const", n=2, q=3)
        c = built.circuit
        layers = list(c.layers)
        assert layers[-2].gates[0].kind is GateKind.FANOUT
        layers[-2] = Layer(layers[-2].gates[1:])
        broken = dataclasses.replace(
            built, circuit=Circuit(c.width, c.roles, tuple(layers), c.discipline))
        report = verify_built(broken)
        assert engine_used == [True]
        assert not report.passed and report.max_leakage > PURITY_TOL

    def test_cap_exceeded_raises(self):
        b = build_construction("modq-const", n=20, q=3)
        with pytest.raises(SimulationCapExceeded):
            verify_built(b)

    def test_structural_only_skips_amplitudes(self):
        b = build_construction("modq-const", n=20, q=3)
        report = verify_built(b, structural_only=True)
        assert report.structural_only and report.max_error is None
        assert report.depth == verify_built(
            build_construction("modq-const", n=2, q=3)).depth
        assert report.copy_ancillae == 40

    def test_report_json_is_flat(self):
        report = verify_built(build_construction("fanout", n=3))
        doc = json.loads(report.to_json())
        assert doc["pass"] is True
        assert all(not isinstance(v, (dict, list)) for v in doc.values())

    def test_determinism(self):
        b = build_construction("modq-const", n=3, q=3)
        r1 = verify_built(b, superpositions=5)
        r2 = verify_built(b, superpositions=5)
        assert r1.max_error == r2.max_error and r1.max_leakage == r2.max_leakage


def _with_gate_changed(built, kind, change):
    """`built` with its first gate of `kind` replaced by change(gate), or
    dropped when that returns None."""
    layers, done = [], False
    for layer in built.circuit.layers:
        gates = []
        for g in layer.gates:
            if not done and g.kind is kind:
                done = True
                g = change(g)
            if g is not None:
                gates.append(g)
        layers.append(Layer(tuple(gates)))
    assert done
    c = built.circuit
    return dataclasses.replace(
        built, circuit=Circuit(c.width, c.roles, tuple(layers), c.discipline))


def _rev_embed(n_inputs, layers):
    return build_construction("rev-embed", classical=ClassicalCircuit(
        n_inputs, tuple(tuple(ClassicalGate(op, args) for op, args in layer)
                        for layer in layers)))


def _register_table():
    """(built, data register size, copy ancillae, work qubits) for every
    construction. Cat's n-1 copies are outputs, so cat has no ancillae,
    like fanout, which is the same gate."""
    for n in range(1, 7):
        yield build_construction("fanout", n=n), n + 1, 0, 0
        yield build_construction("parity-fanout", n=n), n + 1, 0, 0
        yield build_construction("ctrl-u", n=n), n + 1, 0, 1
        for builder in ("fanout", "log-cat"):
            yield build_construction("cat", n=n, builder=builder), n, 0, 0
            yield (build_construction("parity-cat", n=n, builder=builder),
                   n + 1, n - 1, 0)
        for q in range(2, 6):
            k = (q - 1).bit_length()
            yield build_construction("modq-seq", n=n, q=q), n + 1, 0, k
            for disc in Discipline:
                yield (build_construction("modq-const", n=n, q=q,
                                          discipline=disc), n + 1, n * k, k)
    # 3 inputs, 2 outputs, two layers of width 2: 2 * 2 ancilla slots
    yield (_rev_embed(3, [[("and", (0, 1)), ("or", (1, 2))],
                          [("xor", (3, 4)), ("not", (0,))]]), 5, 0, 4)


def test_registers_and_counts_come_from_roles():
    cases = 0
    for built, d, copies, work in _register_table():
        c = built.circuit
        assert c.data_qubits == tuple(range(d)), built.name
        assert c.ancillae == tuple(range(d, c.width)), built.name
        report = VerificationReport.of(built)
        assert (report.copy_ancillae, report.work_qubits) == (copies, work), (
            built.name, built.n, built.q)
        cases += 1
    assert cases == 6 * (3 + 2 * 2 + 4 * 3) + 1


class TestSinglePath:
    def test_cat_is_exact_on_two_inputs(self):
        for builder in ("fanout", "log-cat"):
            report = verify_built(build_construction("cat", n=5, builder=builder))
            assert report.passed and report.max_error == 0.0
            assert report.inputs_checked == 2 and report.coverage == 1

    def test_cat_with_a_fanout_target_dropped_fails(self):
        built = build_construction("cat", n=4, builder="fanout")
        broken = _with_gate_changed(built, GateKind.FANOUT, lambda g: dataclasses.replace(
            g, targets=g.targets[:-1]))
        report = verify_built(broken)
        assert not report.passed and report.max_error == 1.0

    def test_log_cat_with_a_cnot_dropped_fails(self):
        built = build_construction("cat", n=4, builder="log-cat")
        report = verify_built(_with_gate_changed(built, GateKind.CNOT, lambda g: None))
        assert not report.passed and report.max_error == 1.0

    def test_rev_embed_with_a_target_moved_fails(self):
        # 2 inputs, 1 output, two level-0 slots (qubits 3, 4) and two
        # unused level-1 slots (5, 6); the and-gate's value goes to slot 6
        built = _rev_embed(2, [[("and", (0, 1)), ("or", (0, 1))],
                               [("xor", (2, 3))]])
        assert verify_built(built).passed
        broken = _with_gate_changed(built, GateKind.TOFFOLI, lambda g: dataclasses.replace(
            g, targets=(6,)))
        report = verify_built(broken)
        assert not report.passed and report.max_error == 1.0
        assert report.max_leakage > 0

    def test_rev_embed_checks_every_input(self):
        n, m = 11, 2
        built = _rev_embed(n, [[("and", (0, 1)), ("not", (2,))]])
        report = verify_built(built)
        assert report.passed
        assert report.inputs_checked == 1 << (n + m)
        assert json.loads(report.to_json())["coverage"] == 1
        assert "coverage=" not in report.to_text()
        # flips x0 only where y0 is set and y1 clear: y = 1, neither 0 nor 1...1
        c = built.circuit
        flip = Layer((toffoli((n, n + 1), 0, negated=(n + 1,)),))
        mutant = dataclasses.replace(built, circuit=Circuit(
            c.width, c.roles, (flip,) + c.layers, c.discipline))
        report = verify_built(mutant)
        assert not report.passed and report.max_error == 1.0

    def test_basis_map_matches_an_image_function_on_both_engines(self, engine_used):
        # rev-embed's BasisMap against the same map as a per-input image
        # function, on the circuit and on two mutants. One prepends X on
        # y1 and H on y0, so no output has a row at its image and every
        # row holds 1/sqrt(2). The other prepends H on every data qubit:
        # 2^5 inputs times 2^5 rows each outnumber the 2^9 amplitudes, so
        # the dense engine takes its inputs.
        classical = ClassicalCircuit(3, (
            (ClassicalGate("and", (0, 1)), ClassicalGate("or", (1, 2))),
            (ClassicalGate("xor", (3, 4)), ClassicalGate("not", (0,)))))
        built = build_construction("rev-embed", classical=classical)

        def image(x):
            bits = classical.evaluate([(x >> i) & 1 for i in range(3)])
            return ((x ^ (sum(b << j for j, b in enumerate(bits)) << 3), 1.0),)
        c = built.circuit
        results = []
        for first in ((), (Layer((pauli_x(4), hadamard(3))),),
                      (Layer(tuple(hadamard(q) for q in c.data_qubits)),)):
            circuit = Circuit(c.width, c.roles, first + c.layers, c.discipline)
            pair = [verify_construction(circuit, oracle)
                    for oracle in (built.oracle, image)]
            assert pair[0] == pair[1]
            results.append(pair[0])
        assert results[0][0] == 0.0 and results[1][0] == 1.0 and results[2][0] > 0.1
        assert engine_used == [True] * 4 + [False] * 2

    def test_image_function_superpositions_match_the_gate_oracle(self):
        # the same oracle as a Gate and as an image function, on a circuit
        # with its last layer dropped, must give the same verdict numbers,
        # and the whole circuit must pass on superpositions. ctrl-u with H
        # has two images of amplitude +-1/sqrt(2) per column, so a linear
        # extension that drops or repeats amplitude weights fails there.
        for built in (build_construction("parity-fanout", n=3),
                      build_construction("ctrl-u", n=3, u="h")):
            c = built.circuit
            broken = Circuit(c.width, c.roles, c.layers[:-1], c.discipline)
            u = oracle_unitary(built.oracle, len(c.data_qubits))
            image = lambda x: [(y, u[y, x]) for y in range(u.shape[0]) if u[y, x]]
            results = [verify_construction(circuit, oracle, superpositions=4,
                                           seed=3)
                       for circuit in (broken, c) for oracle in (built.oracle, image)]
            assert results[0][0] > 0.1
            assert results[0] == pytest.approx(results[1], rel=1e-12)
            assert results[2][0] <= 1e-12 and results[3][0] <= 1e-12

    def test_full_coverage_is_not_shown_in_text(self):
        report = verify_built(build_construction("fanout", n=2))
        assert report.coverage == 1 and "coverage" not in report.to_text()


class TestScalingTables:
    def test_constant_depth_verdict(self):
        table = depth_scaling_table("modq-const", 3, range(2, 17))
        assert table.verdict == "constant"
        assert len({d for _, d, _, _ in table.rows}) == 1

    def test_cat_is_logarithmic(self):
        table = depth_scaling_table("cat", None, range(2, 17), builder="log-cat")
        assert table.verdict == "logarithmic"
        for n, depth, _, _ in table.rows:
            assert depth == math.ceil(math.log2(n))

    def test_sequential_is_linear(self):
        table = depth_scaling_table("modq-seq", 3, range(2, 17))
        assert table.verdict == "linear"
        depths = [d for _, d, _, _ in table.rows]
        assert all(b > a for a, b in zip(depths, depths[1:]))

    def test_text_output_is_tab_separated(self):
        table = depth_scaling_table("fanout", None, range(2, 5))
        lines = table.to_text().splitlines()
        assert lines[0] == "n\tdepth\twidth\tancillae"
        assert lines[1] == "2\t1\t3\t0"
        assert lines[-1].startswith("verdict:")


class TestIdentities:
    def test_both_identities_pass(self):
        results = identity_checks()
        assert len(results) == 2
        for name, err, ok in results:
            assert ok and err <= 1e-12, name
