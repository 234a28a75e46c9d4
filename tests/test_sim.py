import tracemalloc

import numpy as np
import pytest

from qdepth import sim
from qdepth.classical import ClassicalCircuit, ClassicalGate
from qdepth.ir import (
    Circuit, CircuitError, Discipline, Gate, GateKind, Layer, Role, cnot,
    compose, controlled_u, fanout, hadamard, inverse, modq_gate, pauli_x,
    single_qubit, symmetric_phase, toffoli,
)
from qdepth.oracle import oracle_unitary
from qdepth.sim import (
    WidthCapExceeded, apply_gate, basis_state, check_ancilla_purity,
    data_block_unitary, dense_plan, dump_state, embed_index, make_workspace,
    merge_rows, plus_at, random_state, relabel_qubits, run, run_basis,
    unitary_of, zero_state,
)
from qdepth.synth import (cat_fanout, cat_log_depth, modq_constant_depth,
                          reversible_embed)
from qdepth.verify import build_construction

from common import (MOD2_3INPUT_MATRIX, random_circuit, random_layered_circuit,
                    random_unitary)

U2, U4, U8 = (random_unitary(np.random.default_rng(31), d) for d in (2, 4, 8))


def _in_wide_register(place):
    """apply_gate of place(2) on 12 qubits, and what place(0) does by its
    own oracle on every setting of the qubits below and above it."""
    gate, local = place(2), place(0)
    k = max(local.support) + 1
    state = random_state(12, np.random.default_rng(8))
    want = np.einsum("ij,ajb->aib", oracle_unitary(local, k),
                     state.reshape(-1, 1 << k, 4)).ravel()
    return apply_gate(state, gate), want


class TestApplyGate:
    def test_parity_gate_even_count_leaves_target(self):
        # inputs |110> have an even number of ones
        state = basis_state(4, 0b011)
        out = apply_gate(state, modq_gate(2, (0, 1, 2), 3))
        assert out[0b011] == 1.0

    def test_parity_gate_odd_count_flips_target(self):
        out = apply_gate(basis_state(4, 0b001), modq_gate(2, (0, 1, 2), 3))
        assert out[0b1001] == 1.0

    def test_cnot_copies_onto_zero_ancilla(self):
        a, b = 0.6, 0.8j
        state = np.zeros(4, dtype=complex)
        state[0], state[1] = a, b
        out = apply_gate(state, cnot(0, 1))
        assert abs(out[0b00] - a) < 1e-15 and abs(out[0b11] - b) < 1e-15

    def test_hadamard_squares_to_identity(self):
        for b in range(4):
            state = basis_state(2, b)
            out = apply_gate(apply_gate(state, hadamard(1)), hadamard(1))
            assert np.abs(out - state).max() < 1e-15

    def test_mod3_with_four_true_inputs_flips(self):
        # 4 mod 3 != 0
        state = basis_state(5, 0b01111)
        out = apply_gate(state, modq_gate(3, (0, 1, 2, 3), 4))
        assert out[0b11111] == 1.0

    def test_mod3_with_three_true_inputs_holds(self):
        state = basis_state(5, 0b00111)
        out = apply_gate(state, modq_gate(3, (0, 1, 2, 3), 4))
        assert out[0b00111] == 1.0

    def test_negated_control_fires_on_zero(self):
        out = apply_gate(basis_state(2, 0), cnot(0, 1, negated=(0,)))
        assert out[0b10] == 1.0

    def test_fanout_flips_all_targets(self):
        out = apply_gate(basis_state(4, 0b0001), fanout(0, (1, 2, 3)))
        assert out[0b1111] == 1.0

    def test_symmetric_phase_on_all_ones(self):
        state = np.full(4, 0.5, dtype=complex)
        out = apply_gate(state, symmetric_phase(np.pi / 3, (0,), 1))
        assert abs(out[3] - 0.5 * np.exp(1j * np.pi / 3)) < 1e-15
        assert np.abs(out[:3] - 0.5).max() < 1e-15

    @pytest.mark.parametrize("place", [
        lambda o: pauli_x(o),
        lambda o: cnot(o + 1, o),
        lambda o: toffoli((o + 5, o), o + 3, negated=(o,)),
        lambda o: modq_gate(3, (o, o + 2, o + 3, o + 5), o + 1, negated=(o + 2,)),
        lambda o: Gate(GateKind.FANOUT, (o + 2,), (o + 4, o, o + 3), frozenset({o + 2})),
        # inputs on both sides of the target; a target above its controls
        lambda o: modq_gate(2, (o, o + 8), o + 4),
        lambda o: toffoli((o, o + 1), o + 8),
    ])
    def test_permutation_inside_wide_register_matches_oracle(self, place):
        got, want = _in_wide_register(place)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("place", [
        # staged: targets out of order, apart, or over a control
        lambda o: controlled_u((), U8, (o + 3, o + 1, o + 2)),
        lambda o: controlled_u((), U4, (o, o + 5)),
        lambda o: controlled_u((o, o + 3, o + 7), U4, (o + 2, o + 5),
                               negated=(o + 3,)),
        lambda o: controlled_u((o + 9,), U2, (o,)),
        lambda o: controlled_u((), U8, (o, o + 1, o + 2)),
        # in place at o=2: targets in order up to qubit 5 or above, no
        # control below them
        lambda o: controlled_u((), U8, (o + 4, o + 5, o + 6)),
        lambda o: controlled_u((o + 9,), U8, (o + 4, o + 5, o + 6),
                               negated=(o + 9,)),
        lambda o: single_qubit(U2, o + 9),
        lambda o: hadamard(o + 6),
    ])
    def test_dense_block_inside_wide_register_matches_oracle(self, place):
        got, want = _in_wide_register(place)
        assert np.abs(got - want).max() <= 1e-14

    def test_out_of_range_qubit(self):
        with pytest.raises(CircuitError):
            apply_gate(basis_state(2, 0), cnot(0, 5))


class TestRun:
    def test_empty_circuit_is_identity(self):
        c = Circuit(3, (Role.INPUT,) * 3)
        state = plus_at(3, 1)
        assert np.array_equal(run(c, state), state)

    def test_cat_circuit_with_hadamard_prefix(self):
        cat = cat_log_depth(4)
        h = Circuit(4, cat.roles, (Layer((hadamard(0),)),))
        out = run(compose(h, cat), zero_state(4))
        expected = np.zeros(16, dtype=complex)
        expected[0] = expected[15] = 1 / np.sqrt(2)
        assert np.abs(out - expected).max() < 1e-12

    def test_both_cat_circuits_agree_on_one_qubit_inputs(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 5, 6):
            left, right = cat_log_depth(n), cat_fanout(n)
            a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
            state = np.zeros(1 << n, dtype=complex)
            state[0], state[1] = a, b
            state /= np.linalg.norm(state)
            assert np.abs(run(left, state) - run(right, state)).max() < 1e-12

    def test_width_mismatch(self):
        c = Circuit(3, (Role.INPUT,) * 3)
        with pytest.raises(CircuitError):
            run(c, zero_state(2))

    def test_workspace_buffers_are_half_a_page_apart(self):
        first, second = make_workspace(12)
        assert first.size == second.size == 1 << 12
        assert (second.ctypes.data - first.ctypes.data) % 4096 == 2048

    @pytest.mark.parametrize("gate", [
        pauli_x(7), cnot(3, 12), toffoli((0, 9, 15), 4, negated=(9,)),
        modq_gate(3, (0, 2, 4, 6, 8, 10, 12, 14), 5, negated=(8,)),
        fanout(1, (0, 2, 3, 6, 9, 11, 13, 15)),
        hadamard(8), single_qubit(U2, 3), controlled_u((), U8, (7, 8, 9)),
        controlled_u((0,), U8, (7, 8, 9)), controlled_u((12,), U8, (7, 8, 9)),
        controlled_u((), U4, (2, 13)),
    ])
    def test_permutation_gates_allocate_little(self, gate):
        w = 16
        circuit = Circuit(w, (Role.INPUT,) * w, (Layer((gate,)),))
        initial = random_state(w, np.random.default_rng(5))
        workspace = make_workspace(w)
        run(circuit, initial, workspace)
        tracemalloc.start()
        try:
            run(circuit, initial, workspace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < initial.nbytes / 16, peak

    @pytest.mark.parametrize("layers", [
        modq_constant_depth(3, 5).layers[1:2],  # three 3-way fanouts
        (Layer(tuple(cnot(c, c + 6) for c in range(4, 10))),),
        (Layer(tuple(controlled_u((j,), np.diag(np.exp(1j * np.arange(8) * (j + 1))),
                                  (4 + 3 * j, 5 + 3 * j, 6 + 3 * j))
                     for j in range(4))),),
        # fanout, four diagonal cu on the copies, unfan: two factor tensors
        modq_constant_depth(3, 5).layers[1:4],
    ], ids=["fanout-x3", "cnot-x6", "diagonal-cu-x4", "copy-diagonal-uncopy"])
    def test_multi_gate_layers_allocate_little(self, layers):
        w = 16
        circuit = Circuit(w, (Role.INPUT,) * w, layers, Discipline.WITH_FANOUT)
        initial = random_state(w, np.random.default_rng(5))
        workspace = make_workspace(w)
        run(circuit, initial, workspace)
        tracemalloc.start()
        try:
            run(circuit, initial, workspace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < initial.nbytes / 16, peak


class TestPlan:
    """The dense engine's per-circuit plan (sim.dense_plan)."""

    @pytest.mark.parametrize("discipline", list(Discipline))
    def test_copy_diagonal_uncopy_is_only_the_diagonal(self, discipline):
        # layers: basis change, copy, diagonal, uncopy, basis change, ...
        kinds = [kernel.__name__ for kernel, _ in
                 dense_plan(modq_constant_depth(4, 5, discipline))]
        first = kinds.index("_dense_block")
        second = kinds.index("_dense_block", first + 1)
        assert kinds[first + 1:second] == ["_scale", "_scale"]
        assert len(kinds) == 10

    def test_second_run_reuses_the_plan(self, monkeypatch):
        builds = []
        build = sim._plan
        monkeypatch.setattr(sim, "_plan", lambda *args: builds.append(args) or build(*args))
        c = modq_constant_depth(2, 3)
        state = random_state(c.width, np.random.default_rng(3))
        first = run(c, state).copy()
        assert np.array_equal(run(c, state), first)
        assert len(builds) == 1

    def test_cancelled_copies_leave_only_factors(self):
        copy = Layer((cnot(0, 1, negated=(0,)), pauli_x(2), modq_gate(2, (0, 3), 4)))
        diagonal = Layer((symmetric_phase(0.3, (1,), 4),
                          controlled_u((0,), np.diag(np.exp(1j * np.arange(4))), (2, 3))))
        c = Circuit(5, (Role.INPUT,) * 5, (copy, diagonal, copy), Discipline.WITH_FANOUT)
        assert [k.__name__ for k, _ in dense_plan(c)] == ["_scale"]
        want = np.eye(32, dtype=complex)
        for g in c.gates():
            want = oracle_unitary(g, 5) @ want
        assert np.abs(unitary_of(c) - want).max() <= 1e-14

    def test_q_on_a_toffoli_is_not_a_parity(self):
        # Gate rejects a q on a Toffoli, but the plan must not rely on that:
        # it decides by kind, so a Toffoli that carries q=2 anyway is an AND
        # of its controls, never held back as the parity that MODQ q=2 is
        toffoli_q2 = toffoli((0, 1), 2, negated=(1,))
        object.__setattr__(toffoli_q2, "q", 2)  # past Gate's validation
        c = Circuit(4, (Role.INPUT,) * 4,
                    (Layer((toffoli_q2, pauli_x(3))),
                     Layer((symmetric_phase(0.4, (2,), 3),))))
        want = np.eye(16, dtype=complex)
        for g in c.gates():
            want = oracle_unitary(g, 4) @ want
        assert np.abs(unitary_of(c) - want).max() <= 1e-14
        ids, index, amps = run_basis(c, np.arange(16))
        sparse = np.zeros((16, 16), dtype=complex)
        sparse[index, ids] = amps
        assert np.abs(sparse - want).max() <= 1e-14

    def test_tensors_past_the_budget_are_built_on_each_run(self, monkeypatch):
        # alternating H and two-gate phase layers, one factor tensor per
        # phase layer: past the budget the plan keeps recipes, not tensors
        rng = np.random.default_rng(6)
        layers = []
        for i in range(12):
            a, b, c, d = rng.permutation(8)[:4].tolist()
            layers += [Layer((hadamard(i % 8),)),
                       Layer((symmetric_phase(rng.uniform(0, 6), (a,), b),
                              symmetric_phase(rng.uniform(0, 6), (c,), d)))]
        state = random_state(8, rng)
        kept = run(Circuit(8, (Role.INPUT,) * 8, tuple(layers)), state).copy()
        monkeypatch.setattr(sim, "KEEP_AMPS", 48)
        c = Circuit(8, (Role.INPUT,) * 8, tuple(layers))
        plan = dense_plan(c)
        assert sum(arg.size for kernel, arg in plan if kernel is sim._scale) <= 48
        assert any(kernel is sim._scale_built for kernel, _ in plan)
        assert np.array_equal(run(c, state), kept)

    @pytest.mark.parametrize("layer, w", [
        # four CNOTs on distinct controls, all held back and then run
        (cat_log_depth(8).layers[2], 8),
        # and, or, xor: a Toffoli and two MODQ that share controls pairwise
        (reversible_embed(ClassicalCircuit(3, ((
            ClassicalGate("and", (0, 1)), ClassicalGate("or", (1, 2)),
            ClassicalGate("xor", (0, 2))),))).layers[0], 6),
    ], ids=["cat-doubling", "rev-embed-and-or-xor"])
    def test_each_permutation_gate_is_one_step(self, layer, w):
        c = Circuit(w, (Role.INPUT,) * w, (layer,), Discipline.WITH_FANOUT)
        assert len(layer.gates) > 2
        assert dense_plan(c) == [(sim._flip, gate) for gate in layer.gates]
        state = random_state(w, np.random.default_rng(9))
        apart = state
        for g in layer.gates:
            apart = apply_gate(apart, g)
        assert np.array_equal(run(c, state), apart)

    def test_wide_rewrite_runs_the_copies_first(self):
        # a CNOT chain makes qubit 14's bit the parity of qubits 0..14,
        # wider than a 16-qubit plan's 11-qubit factors: the chain runs
        # before the phase, which then keeps its own slab kernel
        w = 16
        chain = tuple(Layer((cnot(q, q + 1),)) for q in range(14))
        c = Circuit(w, (Role.INPUT,) * w,
                    chain + (Layer((symmetric_phase(0.7, (15,), 14),)),))
        kinds = [k.__name__ for k, _ in dense_plan(c)]
        assert kinds == ["_flip"] * 14 + ["_scale_slab"]
        state = random_state(w, np.random.default_rng(4))
        apart = state
        for g in c.gates():
            apart = apply_gate(apart, g)
        assert np.array_equal(run(c, state), apart)


def _layered_circuits():
    """Random multi-gate-layer circuits over both disciplines: every
    width from 3 to 12, three circuits of four layers each."""
    rng = np.random.default_rng(2025)
    return [random_layered_circuit(rng, width, 4, disc)
            for disc in Discipline for width in range(3, 13) for _ in range(3)]


def _worst_row_error(circuit, starts, rows) -> float:
    """Max |amplitude| of (rows of input i) - run(|starts[i]>) over every
    input, after checking that the rows hold no exact zero and no two rows
    share an (input id, basis index)."""
    ids, index, amps = rows
    assert np.count_nonzero(amps) == amps.size
    keys = ids * (1 << circuit.width) + index
    assert np.unique(keys).size == keys.size
    worst = 0.0
    for i, start in enumerate(starts):
        mine = ids == i
        out = np.zeros(1 << circuit.width, dtype=complex)
        out[index[mine]] = amps[mine]
        dense = run(circuit, basis_state(circuit.width, int(start)))
        worst = max(worst, float(np.abs(out - dense).max()))
    return worst


def _small_constructions():
    """(label, built) for every construction at small n."""
    for disc in Discipline:
        for q in (2, 3, 5):
            yield (f"modq-const-{disc.value}-q{q}",
                   build_construction("modq-const", n=3, q=q, discipline=disc))
    yield "modq-seq", build_construction("modq-seq", n=3, q=3)
    for builder in ("fanout", "log-cat"):
        yield f"cat-{builder}", build_construction("cat", n=4, builder=builder)
        yield (f"parity-cat-{builder}",
               build_construction("parity-cat", n=3, builder=builder))
    yield "parity-fanout", build_construction("parity-fanout", n=3)
    yield "fanout", build_construction("fanout", n=3)
    yield "ctrl-u", build_construction("ctrl-u", n=3, u="h")
    yield "rev-embed", build_construction("rev-embed", classical=ClassicalCircuit(3, (
        (ClassicalGate("and", (0, 1)), ClassicalGate("or", (1, 2))),
        (ClassicalGate("xor", (3, 4)), ClassicalGate("not", (0,))))))


_SMALL_CONSTRUCTIONS = list(_small_constructions())


class TestRunBasis:
    """The sparse engine against the dense one, which shares none of its
    gate arithmetic."""

    def test_matches_run_on_random_circuits(self):
        # batches of four inputs; a batch that outgrows the row budget is
        # driven one input at a time
        rng = np.random.default_rng(2024)
        compared = total = 0
        for width in range(3, 9):
            for _ in range(10):
                c = random_circuit(rng, width, int(rng.integers(1, 10)))
                for lo in range(0, 1 << width, 4):
                    batch = np.arange(lo, lo + 4)
                    total += batch.size
                    rows = run_basis(c, batch)
                    if rows is not None:
                        assert _worst_row_error(c, batch, rows) <= 1e-12
                        compared += batch.size
                        continue
                    for start in batch:
                        rows = run_basis(c, [start])
                        if rows is not None:
                            assert _worst_row_error(c, [start], rows) <= 1e-12
                            compared += 1
        assert compared >= 0.98 * total, (compared, total)

    def test_matches_run_on_layered_circuits(self):
        # one batch of eight inputs per circuit, or one input at a time when
        # the batch outgrows the row budget
        compared = total = 0
        for c in _layered_circuits():
            batch = np.arange(min(8, 1 << c.width))
            total += batch.size
            rows = run_basis(c, batch)
            if rows is not None:
                assert _worst_row_error(c, batch, rows) <= 1e-12
                compared += batch.size
                continue
            for start in batch:
                rows = run_basis(c, [start])
                if rows is not None:
                    assert _worst_row_error(c, [start], rows) <= 1e-12
                    compared += 1
        assert compared >= 0.9 * total, (compared, total)

    @pytest.mark.parametrize("built", [b for _, b in _SMALL_CONSTRUCTIONS],
                             ids=[label for label, _ in _SMALL_CONSTRUCTIONS])
    def test_matches_run_on_constructions(self, built):
        c = built.circuit
        d = 1 if built.name == "cat" else len(c.data_qubits)
        starts = embed_index(np.arange(1 << d), c.data_qubits)
        rows = run_basis(c, starts)
        if built.name == "parity-fanout":
            # H on every qubit fills the register, and the second H layer
            # would double it even for one input: the dense engine's case
            assert rows is None and run_basis(c, starts[:1]) is None
        else:
            assert _worst_row_error(c, starts, rows) <= 1e-12, built.name

    def test_tiny_amplitudes_are_kept(self):
        theta = 1e-20
        rotation = np.array([[np.cos(theta), -np.sin(theta)],
                             [np.sin(theta), np.cos(theta)]])
        c = Circuit(2, (Role.INPUT,) * 2, (Layer((single_qubit(rotation, 0),)),))
        ids, index, amps = run_basis(c, [0, 2])
        got = sorted(zip(ids.tolist(), index.tolist(), amps.tolist()))
        assert got == [(0, 0, 1.0), (0, 1, 1e-20), (1, 2, 1.0), (1, 3, 1e-20)]

    def test_exact_cancellation_is_pruned(self):
        c = Circuit(2, (Role.INPUT,) * 2,
                    (Layer((hadamard(0),)), Layer((hadamard(0),))))
        ids, index, amps = run_basis(c, [1])
        assert (ids.tolist(), index.tolist()) == ([0], [1])
        assert abs(amps[0] - 1) <= 1e-15

    def test_merge_key_must_fit_int64(self):
        ids, index = np.array([0, 15, 15]), np.array([3, 1, 1])
        amps = np.array([1.0, 0.5, 0.25j])
        merged = merge_rows(ids, index, amps, 59)
        assert [a.tolist() for a in merged] == [[0, 15], [3, 1], [1.0, 0.5 + 0.25j]]
        with pytest.raises(WidthCapExceeded):
            merge_rows(ids, index, amps, 60)

    def test_gives_up_beyond_one_dense_state(self):
        w = 5
        c = Circuit(w, (Role.INPUT,) * w, (Layer(tuple(map(hadamard, range(w)))),))
        assert run_basis(c, range(1 << w)) is None
        # one input fills the register exactly: 2^w rows are within budget
        ids, index, amps = run_basis(c, [0])
        assert sorted(index.tolist()) == list(range(1 << w))
        assert np.allclose(amps, 2 ** (-w / 2))


class TestUnitaryOf:
    def test_three_input_parity_gate_matrix(self):
        # layout: target on qubit 0 so the matrix blocks follow the inputs
        c = Circuit(4, (Role.TARGET,) + (Role.INPUT,) * 3,
                    (Layer((modq_gate(2, (1, 2, 3), 0),)),))
        assert np.abs(unitary_of(c) - MOD2_3INPUT_MATRIX).max() <= 1e-12

    def test_single_cnot_matrix(self):
        c = Circuit(2, (Role.INPUT, Role.TARGET), (Layer((cnot(0, 1),)),))
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[2, 2] = 1  # control 0: untouched
        expected[3, 1] = expected[1, 3] = 1  # control 1: target swaps
        assert np.array_equal(unitary_of(c), expected)

    def test_inverse_gives_conjugate_transpose(self):
        rng = np.random.default_rng(12)
        c = random_circuit(rng, 3, 6)
        assert np.abs(unitary_of(inverse(c)) - unitary_of(c).conj().T).max() <= 1e-12

    def test_unitarity_up_to_width_8(self):
        rng = np.random.default_rng(13)
        for width in (2, 4, 8):
            c = random_circuit(rng, width, 6)
            u = unitary_of(c)
            assert np.abs(u.conj().T @ u - np.eye(1 << width)).max() <= 1e-10

    def test_width_cap(self):
        c = Circuit(13, (Role.INPUT,) * 13)
        with pytest.raises(WidthCapExceeded):
            unitary_of(c)


class TestAncillaPurity:
    def test_entangled_copy_leaks(self):
        a, b = np.sqrt(0.3), np.sqrt(0.7)
        state = np.zeros(4, dtype=complex)
        state[0], state[3] = a, b
        res = check_ancilla_purity(state, (1,))
        assert not res.pure and abs(res.leakage - b ** 2) < 1e-15

    def test_product_with_zero_ancilla_is_pure(self):
        rng = np.random.default_rng(14)
        data = random_state(2, rng)
        state = np.zeros(8, dtype=complex)
        state[:4] = data  # qubit 2 = |0>
        res = check_ancilla_purity(state, (2,))
        assert res.pure and res.leakage == 0.0

    def test_no_ancillae_is_trivially_pure(self):
        assert check_ancilla_purity(plus_at(2, 0), ()).pure

    @pytest.mark.parametrize("ancillae", [
        (4, 5), (3, 4, 5), (5,),           # high qubits: contiguous slabs
        (0,), (0, 2, 4), (1, 3), (5, 1), (2, 2, 0), tuple(range(6)),
    ])
    def test_slab_sum_matches_mask_sum(self, ancillae):
        rng = np.random.default_rng(19)
        state = random_state(6, rng)
        mask = sum(1 << a for a in set(ancillae))
        hot = (np.arange(state.size) & mask) != 0
        want = float(np.sum(np.abs(state[hot]) ** 2))
        res = check_ancilla_purity(state, ancillae)
        assert abs(res.leakage - want) <= 1e-15
        state[hot] = 0.0
        assert check_ancilla_purity(state, ancillae).leakage == 0.0

    def test_ancilla_outside_width_raises(self):
        with pytest.raises(CircuitError):
            check_ancilla_purity(zero_state(2), (2,))


class TestProperties:
    def test_norm_preservation(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            width = int(rng.integers(2, 6))
            c = random_circuit(rng, width, int(rng.integers(1, 12)))
            out = run(c, random_state(width, rng))
            assert abs(np.linalg.norm(out) - 1) <= c.depth * 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(16)
        for _ in range(5):
            width = int(rng.integers(2, 5))
            c = random_circuit(rng, width, 6)
            s, t = random_state(width, rng), random_state(width, rng)
            a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
            lhs = run(c, a * s + b * t)
            rhs = a * run(c, s) + b * run(c, t)
            assert np.abs(lhs - rhs).max() <= 1e-10

    def test_within_layer_order_independence(self):
        rng = np.random.default_rng(17)
        # shared-control fanout-style layer, validated under wf
        gates = (cnot(0, 1), cnot(0, 2), toffoli((0, 3), 4), cnot(3, 5))
        c = Circuit(6, (Role.INPUT,) * 6, (Layer(gates),), Discipline.WITH_FANOUT)
        state = random_state(6, rng)
        base = run(c, state)
        for _ in range(5):
            perm = tuple(gates[i] for i in rng.permutation(len(gates)))
            shuffled = Circuit(6, c.roles, (Layer(perm),), Discipline.WITH_FANOUT)
            assert np.abs(run(shuffled, state) - base).max() <= 1e-12

    def test_layer_matches_its_gates_one_per_layer(self):
        # A layer's permutation gates only copy amplitudes, so running them
        # as one layer must not change a bit; diagonal factors multiplied
        # together first may round differently in the last place.
        rng = np.random.default_rng(18)
        for c in _layered_circuits():
            state = random_state(c.width, rng)
            for layer in c.layers:
                flips = tuple(g for g in layer.gates if g.kind in (
                    GateKind.PAULI_X, GateKind.CNOT, GateKind.TOFFOLI,
                    GateKind.FANOUT, GateKind.MODQ))
                for gates in (layer.gates, flips):
                    one = Circuit(c.width, c.roles, (Layer(gates),), c.discipline)
                    apart = Circuit(c.width, c.roles,
                                    tuple(Layer((g,)) for g in gates), c.discipline)
                    got, want = run(one, state), run(apart, state)
                    if gates == flips:
                        assert np.array_equal(got, want), gates
                    assert np.abs(got - want).max() <= 1e-13, gates


class TestDumpAndRelabel:
    def test_dump_format(self):
        lines = dump_state(plus_at(3, 2)).splitlines()
        assert lines[0].split()[0] == "000"
        assert lines[1].split()[0] == "100"  # qubit 2 is leftmost
        assert float(lines[0].split()[1]) == pytest.approx(1 / np.sqrt(2))

    def test_dump_skips_tiny_amplitudes(self):
        state = zero_state(2)
        state[2] = 1e-16
        assert len(dump_state(state).splitlines()) == 1

    def test_relabel_state(self):
        state = basis_state(3, 0b011)  # qubits 0,1 set
        moved = relabel_qubits(state, (2, 0, 1))  # new qubit 0 = old qubit 2
        assert moved[0b110] == 1.0

    def test_relabel_matrix_round_trip(self):
        rng = np.random.default_rng(18)
        u = unitary_of(random_circuit(rng, 3, 4))
        back = relabel_qubits(relabel_qubits(u, (1, 2, 0)), (2, 0, 1))
        assert np.array_equal(back, u)

    def test_data_block_unitary_picks_zero_ancilla_block(self):
        c = Circuit(3, (Role.INPUT, Role.ANCILLA, Role.INPUT),
                    (Layer((cnot(0, 2),)),))
        block = data_block_unitary(unitary_of(c), 3, (0, 2))
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 1] = expected[2, 2] = expected[1, 3] = 1
        assert np.array_equal(block, expected)
