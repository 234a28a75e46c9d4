import dataclasses
import itertools
import json
import math
import tracemalloc

import pytest

import numpy as np

from qdepth import verify
from qdepth.classical import ClassicalCircuit, ClassicalGate
from qdepth.ir import (
    Circuit, CircuitError, Discipline, GateKind, Layer, Role, hadamard, modq_gate, pauli_x, toffoli,
)
from qdepth.oracle import oracle_unitary
from qdepth.sim import (
    PURITY_TOL, WidthCapExceeded, basis_state, check_ancilla_purity,
    embed_index, held_shape, run,
)
from qdepth.synth import parity_via_catstate
from qdepth.verify import (
    VerificationReport, build_construction,
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


def _matrix_oracle(u, nan_at=-1):
    """An array oracle read from a dense oracle matrix: input x's entries
    are the nonzero entries of column x, by row, and the amplitudes of
    input nan_at are NaN."""
    def oracle(xs):
        ids, ys = np.nonzero(u[:, xs].T)
        return ids, ys, np.where(xs[ids] == nan_at, math.nan, u[ys, xs[ids]])
    return oracle


def _dense_loop(c, u):
    """(max error, max leakage, inputs) of a plain per-input dense loop over
    the data register, against its oracle matrix u."""
    d = len(c.data_qubits)
    err = leak = 0.0
    for x in range(1 << d):
        out = run(c, basis_state(c.width, embed_index(x, c.data_qubits)))
        want = np.zeros(1 << c.width, dtype=complex)
        want[embed_index(np.arange(1 << d), c.data_qubits)] = u[:, x]
        err = max(err, float(np.abs(out - want).max()))
        leak = max(leak, check_ancilla_purity(out, c.ancillae).leakage)
    return err, leak, 1 << d


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
        oracle = _matrix_oracle(u, nan_at=5)
        err, leak, checked = verify_construction(b.circuit, oracle,
                                                 superpositions=2)
        assert math.isnan(err) and leak == 0.0 and checked == 10
        report = verify_built(dataclasses.replace(b, oracle=oracle))
        assert math.isnan(report.max_error) and not report.passed

    def test_nan_error_fails_on_the_sparse_path(self, engine_used):
        # no superpositions: the NaN can only come through the sparse
        # comparison, the one-entry one (fanout) or the merged one (ctrl-u
        # with H, two entries per firing input)
        b = build_construction("fanout", n=2)
        for wrong in (0, 0b001):  # with input 5's image right, then missed
            def oracle(xs, wrong=wrong):
                ys = xs ^ np.where(xs & 1, 0b110, 0) ^ (xs == 5) * wrong
                return np.arange(xs.size), ys, np.where(xs == 5, math.nan, 1.0 + 0j)
            err, leak, checked = verify_construction(b.circuit, oracle)
            assert math.isnan(err) and leak == 0.0 and checked == 8
        b = build_construction("ctrl-u", n=2, u="h")
        u = oracle_unitary(b.oracle, len(b.circuit.data_qubits))
        err, leak, checked = verify_construction(b.circuit, _matrix_oracle(u, nan_at=3))
        assert math.isnan(err) and leak == 0.0 and checked == 8
        assert engine_used == [True] * 3

    def test_dense_fallback_matches_a_dense_loop(self, engine_used):
        # H on every qubit: the sparse engine gives up, and the fallback
        # must give the numbers of a plain per-input dense loop
        b = build_construction("parity-fanout", n=6)
        c, d = b.circuit, len(b.circuit.data_qubits)
        want = _dense_loop(c, oracle_unitary(b.oracle, d))
        assert verify_construction(c, b.oracle) == want
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
        with pytest.raises(WidthCapExceeded):
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

    def test_an_unread_classical_is_refused_and_defaults_are_ignored(self):
        # the benchmark's builds pass n, discipline, builder and u to every
        # construction; rev-embed takes its n from the classical circuit
        c = ClassicalCircuit(2, ((ClassicalGate("and", (0, 1)),),))
        with pytest.raises(CircuitError, match="^classical is read only by rev-embed$"):
            build_construction("fanout", n=2, classical=c)
        built = build_construction("rev-embed", n=9, discipline=Discipline.WITH_FANOUT,
                                   builder="fanout", u="x", classical=c)
        assert built.n == 2


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

    def test_one_entry_and_merged_comparisons_match_a_dense_loop(
            self, engine_used, monkeypatch):
        # rev-embed's oracle gives every input one entry, so its sparse rows
        # are compared one by one; ctrl-u with H gives a firing input two,
        # so its rows go through merge_rows. Each must give the numbers of a
        # plain per-input dense loop, on the circuit and on two mutants.
        # Rev-embed's first mutant prepends X on y1 and H on y0, so no
        # output has a row at its image and every row holds 1/sqrt(2);
        # ctrl-u's drops its last layer. The second prepends H on every
        # data qubit: 2^d inputs times 2^d rows each outnumber the 2^width
        # amplitudes, so the dense engine takes its inputs.
        merges, merge_rows = [], verify.merge_rows

        def spy(*args):
            merges.append(args)
            return merge_rows(*args)
        monkeypatch.setattr(verify, "merge_rows", spy)
        classical = ClassicalCircuit(3, (
            (ClassicalGate("and", (0, 1)), ClassicalGate("or", (1, 2))),
            (ClassicalGate("xor", (3, 4)), ClassicalGate("not", (0,)))))
        embed = build_construction("rev-embed", classical=classical)
        ctrl_u = build_construction("ctrl-u", n=3, u="h")

        def image(x):
            bits = classical.evaluate([(x >> i) & 1 for i in range(3)])
            return x ^ (sum(b << j for j, b in enumerate(bits)) << 3)
        results = []
        for built, u, mutant in (
                (embed, np.eye(32, dtype=complex)[:, [image(x) for x in range(32)]],
                 (Layer((pauli_x(4), hadamard(3))),) + embed.circuit.layers),
                (ctrl_u, oracle_unitary(ctrl_u.oracle, 4), ctrl_u.circuit.layers[:-1])):
            c = built.circuit
            everywhere = Layer(tuple(hadamard(q) for q in c.data_qubits))
            for layers in (c.layers, mutant, (everywhere,) + c.layers):
                circuit = Circuit(c.width, c.roles, layers, c.discipline)
                got = verify_construction(circuit, built.oracle)
                assert got == _dense_loop(circuit, u), (built.name, len(results))
                results.append(got)
        assert [r[0] for r in results[:2]] == [0.0, 1.0] and results[2][0] > 0.1
        assert results[3][0] <= 1e-12 and results[4][0] > 0.1 and results[5][0] > 0.1
        assert engine_used == [True, True, False] * 2
        assert len(merges) == 2  # ctrl-u's two sparse runs only

    def test_array_oracle_superpositions_match_the_gate_oracle(self):
        # the same oracle as a Gate and as an explicit array oracle, on a
        # circuit with its last layer dropped, must give the same verdict
        # numbers, and the whole circuit must pass on superpositions.
        # ctrl-u with H has two images of amplitude +-1/sqrt(2) per column,
        # so a linear extension that drops or repeats amplitude weights
        # fails there.
        for built in (build_construction("parity-fanout", n=3),
                      build_construction("ctrl-u", n=3, u="h")):
            c = built.circuit
            broken = Circuit(c.width, c.roles, c.layers[:-1], c.discipline)
            oracle = _matrix_oracle(oracle_unitary(built.oracle, len(c.data_qubits)))
            results = [verify_construction(circuit, o, superpositions=4, seed=3)
                       for circuit in (broken, c) for o in (built.oracle, oracle)]
            assert results[0][0] > 0.1
            assert results[0] == pytest.approx(results[1], rel=1e-12)
            assert results[2][0] <= 1e-12 and results[3][0] <= 1e-12

    def test_full_coverage_is_not_shown_in_text(self):
        report = verify_built(build_construction("fanout", n=2))
        assert report.coverage == 1 and "coverage" not in report.to_text()


class TestShapedSuperpositions:
    """Superpositions run on the data register in sim.run's shaped form:
    the error and leakage are taken over the qubits the run holds."""

    def test_a_dropped_unfan_gate_gives_the_errors_of_flat_runs(self):
        # without one unfan gate of the compute half, copies of the counter
        # stay set; the superpositions' l2 error and leakage must be those
        # of flat runs of the same seeded inputs over the whole register
        built = build_construction("modq-const", n=4, q=5)
        c = built.circuit
        layers = list(c.layers)
        assert layers[3].gates[0].kind is GateKind.FANOUT
        layers[3] = Layer(layers[3].gates[1:])
        broken = Circuit(c.width, c.roles, tuple(layers), c.discipline)
        err, leak, checked = verify_construction(broken, built.oracle, superpositions=10)
        basis_err, basis_leak, _ = verify_construction(broken, built.oracle)
        assert checked == 42 and err > 1e-9 and leak > PURITY_TOL
        data = c.data_qubits
        xs = np.arange(1 << len(data))
        ids, ys, amps = verify._gate_oracle(built.oracle, len(data))(xs)
        rng = np.random.default_rng(0)  # verify_construction's default seed
        errs, leaks = [], []
        for _ in range(10):
            psi = rng.normal(size=xs.size) + 1j * rng.normal(size=xs.size)
            psi /= np.linalg.norm(psi)
            state = np.zeros(1 << c.width, dtype=complex)
            state[embed_index(xs, data)] = psi
            out = run(broken, state).copy()
            leaks.append(check_ancilla_purity(out, c.ancillae).leakage)
            np.add.at(out, embed_index(ys, data), -amps * psi[ids])
            errs.append(float(np.linalg.norm(out)))
        assert max(errs) > basis_err  # the superpositions decide max_error
        assert abs(err - max(errs)) <= 1e-12
        assert abs(leak - max(basis_leak, *leaks)) <= 1e-12

    def test_superpositions_run_in_batches_that_do_not_grow_with_the_count(self):
        # the mutant above holds every qubit, so each of its batches is one
        # state; without the uncompute phase of input 0 (layer 9), copies
        # still cancel, so runs hold 8 qubits and a batch is 256 states:
        # 300 superpositions are batches of 256 and 44. Their max_error and
        # max_leakage are those of lone runs of the same seeded inputs, in
        # the shaped form, and at the first and last state of each batch
        # also of flat runs over the whole register. What a check of 1,200
        # (five batches) allocates peaks where one of 300 does, below what
        # 1,200 outputs of 2^8 amplitudes would take
        built = build_construction("modq-const", n=4, q=5)
        c = built.circuit
        layers = list(c.layers)
        layers[9] = Layer(layers[9].gates[1:])
        broken = Circuit(c.width, c.roles, tuple(layers), c.discipline)
        err, leak, checked = verify_construction(broken, built.oracle, superpositions=300)
        basis_err, basis_leak, _ = verify_construction(broken, built.oracle)
        assert checked == 332 and err > 1e-9 and leak > PURITY_TOL
        data = c.data_qubits
        assert list(data) == list(range(5))  # a data index is a register index
        xs = np.arange(1 << len(data))
        ids, ys, amps = verify._gate_oracle(built.oracle, len(data))(xs)
        rng = np.random.default_rng(0)  # verify_construction's default seed
        errs, leaks = [], []
        for i in range(300):
            psi = rng.normal(size=xs.size) + 1j * rng.normal(size=xs.size)
            psi /= np.linalg.norm(psi)
            out = run(broken, psi.reshape(held_shape(data, c.width)))
            assert out.shape == tuple(held_shape(range(8), c.width))
            leaks.append(check_ancilla_purity(out, c.ancillae).leakage)
            out = out.reshape(-1).copy()
            np.add.at(out, ys, -amps * psi[ids])
            errs.append(float(np.linalg.norm(out)))
            if i in (0, 255, 256, 299):
                flat = np.zeros(1 << c.width, dtype=complex)
                flat[xs] = psi
                full = run(broken, flat)
                assert abs(check_ancilla_purity(full, c.ancillae).leakage - leaks[-1]) <= 1e-12
                np.add.at(full, ys, -amps * psi[ids])
                assert abs(float(np.linalg.norm(full)) - errs[-1]) <= 1e-12
        assert max(errs) > basis_err  # the superpositions decide max_error
        assert abs(err - max(errs)) <= 1e-12
        assert abs(leak - max(basis_leak, *leaks)) <= 1e-12
        peaks = []
        for count in (300, 1200):
            tracemalloc.start()
            try:
                verify_construction(broken, built.oracle, superpositions=count)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + (1 << 12) < 1200 << 12, peaks

    def test_superpositions_allocate_only_the_held_qubits(self):
        # modq-const n=4 q=5 holds 8 of its 20 qubits: a check of ten
        # superpositions, once the plan is built and bound, stays far below
        # one 2^20-amplitude state (16 MiB)
        built = build_construction("modq-const", n=4, q=5)
        assert verify_built(built, superpositions=10).passed
        tracemalloc.start()
        try:
            assert verify_built(built, superpositions=10).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    def test_width_one(self):
        report = verify_built(build_construction("cat", n=1), superpositions=3)
        assert report.passed and report.inputs_checked == 5

    def test_a_batch_fits_under_the_ceiling(self, monkeypatch, engine_used):
        # X on qubit 0 of a wide register whose data register is qubits 0
        # and width-1: its basis inputs run on rows, its superpositions as a
        # batch, which takes an axis more than the width. At the 63-qubit
        # ceiling that is numpy's 64; width 64 exits before any run
        monkeypatch.setenv("QDEPTH_SIM_CAP", "64")
        c63, c64 = (Circuit(width, (Role.INPUT,) + (Role.ANCILLA,) * (width - 2)
                            + (Role.INPUT,), (Layer((pauli_x(0),)),)) for width in (63, 64))
        assert verify_construction(c63, pauli_x(0)) == (0, 0, 4)
        assert verify_construction(c63, pauli_x(0), superpositions=2) == (0, 0, 6)
        assert engine_used == [True, True]

        def no_run(*args):
            raise AssertionError("ran past the ceiling")
        monkeypatch.setattr(verify, "run", no_run)
        for superpositions in (0, 2):
            with pytest.raises(WidthCapExceeded, match="^64-qubit register exceeds "
                                                       "the simulator's 63-qubit ceiling$"):
                verify_construction(c64, pauli_x(0), superpositions=superpositions)
        assert engine_used == [True, True]


class TestScalingTables:
    def test_constant_depth_verdict(self):
        table = depth_scaling_table("modq-const", 3, range(2, 17))
        assert table.verdict == "constant"
        assert len({d for _, d, _, _, _ in table.rows}) == 1

    def test_cat_is_logarithmic(self):
        table = depth_scaling_table("cat", None, range(2, 17), builder="log-cat")
        assert table.verdict == "logarithmic"
        for n, depth, _, _, _ in table.rows:
            assert depth == math.ceil(math.log2(n))

    def test_sequential_is_linear(self):
        table = depth_scaling_table("modq-seq", 3, range(2, 17))
        assert table.verdict == "linear"
        depths = [d for _, d, _, _, _ in table.rows]
        assert all(b > a for a, b in zip(depths, depths[1:]))

    @pytest.mark.parametrize("name,q,kw,slope,offset", [
        ("parity-cat", None, {"builder": "log-cat"}, 2, 3),
        ("modq-const", 3, {"discipline": Discipline.STRICT}, 4, 12),
    ], ids=["parity-cat-log-cat", "modq-const-strict"])
    def test_a_log_slope_above_one_is_logarithmic(self, name, q, kw, slope, offset):
        # two copy phases, or four, each cost ceil(log2 n) layers
        table = depth_scaling_table(name, q, range(1, 10), **kw)
        assert [d for _, d, _, _, _ in table.rows] == [
            offset + slope * math.ceil(math.log2(n)) for n in range(1, 10)]
        assert table.verdict == "logarithmic"

    def test_a_falling_range_is_logarithmic(self):
        for name, builder in (("cat", "log-cat"), ("parity-cat", "log-cat")):
            table = depth_scaling_table(name, None, range(9, 1, -1), builder=builder)
            assert table.verdict == "logarithmic", name

    def test_exact_growth_at_uneven_steps_is_linear(self):
        # depth 2n + 2 whatever the steps between the n
        table = depth_scaling_table("modq-seq", 3, [1, 2, 4])
        assert [d for _, d, _, _, _ in table.rows] == [4, 6, 10]
        assert table.verdict == "linear"

    def test_a_log_depth_on_a_doubling_range_is_logarithmic(self):
        # equal steps in depth over doubling n are a line in ceil(log2 n)
        for name, q, ns, kw, depths in (
                ("parity-cat", None, [1, 2, 4], {"builder": "log-cat"}, [3, 5, 7]),
                ("modq-const", 3, [2, 4, 8, 16], {"discipline": Discipline.STRICT},
                 [16, 20, 24, 28])):
            table = depth_scaling_table(name, q, ns, **kw)
            assert [d for _, d, _, _, _ in table.rows] == depths
            assert table.verdict == "logarithmic", name

    def test_a_fanout_copy_from_one_is_constant(self):
        # one qubit needs no copy layer: depth 3 at n=1, 5 from n=2 on
        table = depth_scaling_table("parity-cat", None, range(1, 4))
        assert [d for _, d, _, _, _ in table.rows] == [3, 5, 5]
        assert table.verdict == "constant"

    @pytest.mark.parametrize("name", [c for c in verify.CONSTRUCTIONS if c != "rev-embed"])
    def test_every_row_matches_its_claim(self, name):
        # the builder is read by cat and parity-cat only, q by modq-* only
        ns = [*range(1, 18), 31, 32, 33, 63, 64, 65, 255, 256, 257, 1024]
        builders = ("fanout", "log-cat") if "cat" in name else ("fanout",)
        qs = (2, 3, 5, 16) if name.startswith("modq") else (None,)
        for builder, discipline, q in itertools.product(builders, Discipline, qs):
            log = (builder == "log-cat" if "cat" in name else
                   name == "modq-const" and discipline is Discipline.STRICT)
            growth = "linear" if name == "modq-seq" else "logarithmic" if log else "constant"
            table = depth_scaling_table(name, q, ns, discipline, builder)
            assert table.verdict == growth, (builder, discipline, q)

    def test_text_output_is_tab_separated(self):
        table = depth_scaling_table("fanout", None, range(2, 5))
        lines = table.to_text().splitlines()
        assert lines[0] == "n\tdepth\twidth\tancillae\twork"
        assert lines[1] == "2\t1\t3\t0\t0"
        assert lines[-1].startswith("verdict:")


class TestIdentities:
    def test_both_identities_pass(self):
        results = identity_checks()
        assert len(results) == 2
        for name, err, ok in results:
            assert ok and err <= 1e-12, name
