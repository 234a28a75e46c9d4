import dataclasses
import tracemalloc

import numpy as np
import pytest

from qdepth import verify
from qdepth.classical import ClassicalCircuit, ClassicalGate
from qdepth.ir import (
    Circuit, CircuitError, Discipline, Gate, GateKind, Layer, Role, cnot,
    compose, controlled_u, fanout, hadamard, inverse, modq_gate, pauli_x,
    single_qubit, symmetric_phase, toffoli,
)
from qdepth.oracle import oracle_unitary
from qdepth.sim import (
    PURITY_TOL, WidthCapExceeded, apply_gate, basis_state, check_ancilla_purity,
    compact_index, data_block_unitary, dump_state, embed_index, held_qubits,
    held_shape, live_qubits, make_workspace, merge_rows, plus_at, random_state,
    run, run_basis, unitary_of, zero_state,
)
from qdepth.synth import (cat_fanout, cat_log_depth, modq_constant_depth,
                          reversible_embed)
from qdepth.verify import build_construction, verify_built

from common import (MOD2_3INPUT_MATRIX, flat_form, random_circuit,
                    random_layered_circuit, random_unitary, shaped_and_flat)

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


def _traced(f):
    """f() under tracemalloc: its result, the bytes left allocated after it
    and the peak."""
    tracemalloc.start()
    try:
        out = f()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, current, peak


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
        _, _, peak = _traced(lambda: run(circuit, initial, workspace))
        assert peak < initial.nbytes / 16, peak

    @pytest.mark.parametrize("gate", [
        symmetric_phase(0.7, tuple(range(15)), 15),
        controlled_u(tuple(range(8)), np.diag(np.exp(1j * np.arange(8))), (9, 11, 14)),
    ], ids=["phase-15-controls", "cu-8-controls-3-targets"])
    def test_a_lone_diagonal_gate_allocates_little_on_its_first_run(self, gate):
        # the plan is built inside the trace: the gate's diagonal
        # multiplies its firing slab, and no factor over all its qubits
        # (2^16 or 2^11 amplitudes) is ever built
        w = 16
        circuit = Circuit(w, (Role.INPUT,) * w, (Layer((gate,)),))
        initial = random_state(w, np.random.default_rng(5))
        workspace = make_workspace(w)
        _, _, peak = _traced(lambda: run(circuit, initial, workspace))
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
        _, _, peak = _traced(lambda: run(circuit, initial, workspace))
        assert peak < initial.nbytes / 16, peak


def _fresh(c: Circuit) -> Circuit:
    """The same circuit, with no plan kept from earlier runs."""
    return dataclasses.replace(c)


def _signed_zeros(w: int) -> np.ndarray:
    """A flat state of 0-0j amplitudes. A permutation keeps their signs; a
    multiply by any factor, 1+0j too, clears the sign of the real or the
    imaginary part."""
    return np.full(1 << w, complex(-0.0, -0.0))


def _multiplied(state: np.ndarray) -> int:
    """How many amplitudes of a run from _signed_zeros were multiplied."""
    return int(np.count_nonzero(~(np.signbit(state.real) & np.signbit(state.imag))))


def _phase_ladder(rng, w: int, rungs: int, span: int) -> Circuit:
    """`rungs` pairs of layers on w qubits: H on one qubit, then two phase
    gates on `span` random qubits between them. Each phase layer is one
    factor over its `span` qubits."""
    layers, half = [], span // 2
    for i in range(rungs):
        q = rng.permutation(w).tolist()
        layers += [Layer((hadamard(i % w),)),
                   Layer((symmetric_phase(rng.uniform(0, 6), q[:half - 1], q[half - 1]),
                          symmetric_phase(rng.uniform(0, 6), q[half:span - 1], q[span - 1])))]
    return Circuit(w, (Role.INPUT,) * w, tuple(layers))


def _data_superposition(c: Circuit, rng) -> tuple[np.ndarray, np.ndarray]:
    """A random superposition of the data register's basis inputs, every
    other qubit at |0>, shaped and flat."""
    return shaped_and_flat(c.data_qubits, c.width, random_state(len(c.data_qubits), rng))


class TestPlan:
    """The dense engine's per-circuit plan, seen through run: what a run
    moves, multiplies, allocates and keeps."""

    @pytest.mark.parametrize("discipline", list(Discipline))
    def test_copy_diagonal_uncopy_is_only_the_diagonal(self, discipline):
        # layers: basis change, copy, diagonal, uncopy, basis change, ...
        # The copies of the counter cancel, so a data superposition leaves
        # their 12 qubits on length-1 axes. A run on every qubit builds each
        # factor tensor (two of 512 KiB) for its step and frees it after,
        # so each run peaks under 1/16 of the state, and a repeat gives the
        # same state
        c = modq_constant_depth(4, 5, discipline)
        rng = np.random.default_rng(29)
        shaped, flat = _data_superposition(c, rng)
        out = run(c, shaped)
        assert out.shape == tuple(held_shape(range(8), c.width))
        assert np.abs(flat_form(out) - run(_fresh(c), flat)).max() <= 1e-15
        full, workspace = random_state(c.width, rng), make_workspace(c.width)
        first, _, peak = _traced(lambda: run(c, full, workspace))
        first = first.copy()
        assert peak < full.nbytes / 16, peak
        again, _, peak = _traced(lambda: run(c, full, workspace))
        assert np.array_equal(again, first)
        assert peak < full.nbytes / 16, peak

    def test_a_run_leaves_only_the_plan_on_the_circuit(self):
        # the first run of modq-const n=4 q=5 on every qubit builds the
        # plan, which the circuit keeps, and two factors over 15 qubits
        # (512 KiB each), which it frees after their steps
        c = modq_constant_depth(4, 5)
        full = random_state(c.width, np.random.default_rng(33))
        workspace = make_workspace(c.width)
        _, kept, peak = _traced(lambda: run(c, full, workspace))
        assert kept < 1 << 16, kept
        assert peak < full.nbytes / 16, peak

    def test_second_run_reuses_the_plan(self):
        # the first run builds the plan, which the circuit keeps; a second
        # run keeps nothing new and gives the same state. Each run builds
        # its 24 factors of 2^8 amplitudes (4 KiB), the whole state, one
        # step at a time, so the second peaks under four of them
        rng = np.random.default_rng(3)
        c = _phase_ladder(rng, 8, 24, 8)
        state, workspace = random_state(8, rng), make_workspace(8)
        first, kept, _ = _traced(lambda: run(c, state, workspace))
        first = first.copy()
        again, more, peak = _traced(lambda: run(c, state, workspace))
        assert np.array_equal(again, first)
        assert more < 1 << 12 < kept, (more, kept)
        assert peak < 4 << 12, peak

    def test_cancelled_copies_leave_only_factors(self):
        # the copy layer runs twice, so it cancels: a run on inputs that
        # hold qubits 0 and 3 never moves the copies' targets 1, 2 and 4
        copy = Layer((cnot(0, 1, negated=(0,)), pauli_x(2), modq_gate(2, (0, 3), 4)))
        diagonal = Layer((symmetric_phase(0.3, (1,), 4),
                          controlled_u((0,), np.diag(np.exp(1j * np.arange(4))), (2, 3))))
        c = Circuit(5, (Role.INPUT,) * 5, (copy, diagonal, copy), Discipline.WITH_FANOUT)
        want = np.eye(32, dtype=complex)
        for g in c.gates():
            want = oracle_unitary(g, 5) @ want
        assert np.abs(unitary_of(c) - want).max() <= 1e-14
        shaped, flat = shaped_and_flat((0, 3), 5, random_state(2, np.random.default_rng(30)))
        out = run(c, shaped)
        assert out.shape == tuple(held_shape((0, 3), 5))
        assert np.abs(flat_form(out) - want @ flat).max() <= 1e-14

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

    def test_tensors_past_the_budget_are_built_on_each_run(self):
        # 80 phase layers on 16 qubits, each one factor of 2^11 amplitudes
        # (32 KiB): the circuit keeps its plan, under eight of them, where
        # all would take 2.5 MiB, and a second run builds them again
        rng = np.random.default_rng(6)
        c = _phase_ladder(rng, 16, 80, 11)
        state, workspace = random_state(16, rng), make_workspace(16)
        first, kept, _ = _traced(lambda: run(c, state, workspace))
        first = first.copy()
        again, _, peak = _traced(lambda: run(c, state, workspace))
        assert kept < 8 * (1 << 11) * 16, kept
        assert peak >= (1 << 11) * 16, peak
        assert np.array_equal(again, first)
        apart = state
        for g in c.gates():
            apart = apply_gate(apart, g)
        assert np.abs(first - apart).max() <= 1e-12

    @pytest.mark.parametrize("layer, w", [
        # four CNOTs on distinct controls, all held back and then run
        (cat_log_depth(8).layers[2], 8),
        # and, or, xor: a Toffoli and two MODQ that share controls pairwise
        (reversible_embed(ClassicalCircuit(3, ((
            ClassicalGate("and", (0, 1)), ClassicalGate("or", (1, 2)),
            ClassicalGate("xor", (0, 2))),))).layers[0], 6),
    ], ids=["cat-doubling", "rev-embed-and-or-xor"])
    def test_each_permutation_gate_is_one_step(self, layer, w):
        # the layer gives, bit for bit, what its gates give one at a time,
        # on a flat input and on one that holds half the qubits, and it
        # only moves amplitudes: it multiplies none
        c = Circuit(w, (Role.INPUT,) * w, (layer,), Discipline.WITH_FANOUT)
        assert len(layer.gates) > 2
        rng = np.random.default_rng(9)
        shaped, half = shaped_and_flat(range(0, w, 2), w, random_state(w // 2, rng))
        for state in (random_state(w, rng), half):
            apart = state
            for g in layer.gates:
                apart = apply_gate(apart, g)
            assert np.array_equal(run(c, state), apart)
        assert np.array_equal(flat_form(run(c, shaped)), apart)  # `half` run shaped
        assert _multiplied(run(c, _signed_zeros(w))) == 0

    @pytest.mark.parametrize("gate, slab_size", [
        (symmetric_phase(0.7, (0,), 5), 16),
        (single_qubit(np.diag([1, -1]).astype(complex), 2), 32),
        (controlled_u((1, 4), np.diag([1, 1j]), (3,), negated=(4,)), 8),
        (controlled_u((1,), np.diag(np.exp(1j * np.arange(4))), (2, 3)), 32),
        (controlled_u((1,), np.diag(np.exp(1j * np.arange(4))), (3, 0)), 32),
    ], ids=["phase", "z", "s-2-controls", "cu-2-targets", "cu-targets-descending"])
    def test_a_lone_diagonal_multiplies_only_where_it_is_not_1(self, gate, slab_size):
        # in a run on every qubit, a one-target diagonal that is 1 where its
        # target is 0 multiplies only the slab where the target is 1 too
        w = 6
        c = Circuit(w, (Role.INPUT,) * w, (Layer((gate,)),))
        assert _multiplied(run(c, _signed_zeros(w))) == slab_size
        assert np.abs(unitary_of(c) - oracle_unitary(gate, w)).max() <= 1e-15

    def test_wide_rewrite_runs_the_copies_first(self):
        # a CNOT chain makes qubit 14's bit the parity of qubits 0..14,
        # wider than a 16-qubit plan's 11-qubit factors: the chain runs
        # before the phase, which then multiplies only its firing slab, a
        # quarter of the state, and no 2^15-amplitude factor is built
        w = 16
        chain = tuple(Layer((cnot(q, q + 1),)) for q in range(14))
        c = Circuit(w, (Role.INPUT,) * w,
                    chain + (Layer((symmetric_phase(0.7, (15,), 14),)),))
        state = random_state(w, np.random.default_rng(4))
        apart = state
        for g in c.gates():
            apart = apply_gate(apart, g)
        workspace = make_workspace(w)
        got, _, peak = _traced(lambda: run(c, state, workspace))
        assert np.array_equal(got, apart)
        assert peak < state.nbytes / 16, peak
        assert _multiplied(run(c, _signed_zeros(w))) == 1 << 14


class TestLiveQubits:
    """run holds only the live qubits of a shaped input, those it holds and
    those the plan moves, and returns them in the shaped form; a flat input
    holds every qubit."""

    @pytest.mark.parametrize("discipline", list(Discipline))
    def test_data_superposition_of_modq_const_runs_on_eight_qubits(self, discipline):
        # the data register (inputs 0-3, target 4) and the counter (5-7),
        # which H moves; the 12 copies stay at 0
        c = modq_constant_depth(4, 5, discipline)
        rng = np.random.default_rng(7)
        shaped, flat = _data_superposition(c, rng)
        full = random_state(c.width, rng)
        wants = [run(_fresh(c), state) for state in (flat, full)]
        out = run(c, shaped)
        assert out.shape == tuple(held_shape(range(8), c.width))
        assert np.abs(flat_form(out) - wants[0]).max() <= 1e-15
        # the same superposition, flat, and a dense state run on every
        # qubit: each run builds its factors one step at a time, so it
        # peaks under 1/16 of the state, and a repeat gives the same state
        workspace = make_workspace(c.width)
        assert np.array_equal(run(c, flat, workspace), wants[0])
        for _ in range(2):
            got, _, peak = _traced(lambda: run(c, full, workspace))
            assert np.array_equal(got, wants[1])
            assert peak < full.nbytes / 16, peak

    def test_toffoli_on_negated_idle_controls_acts_as_x(self):
        # each negated control's slab is the whole length-1 axis of its idle
        # qubit
        w = 7
        c = Circuit(w, (Role.INPUT,) * w,
                    (Layer((toffoli((3, 4, 5, 6), 1, negated=(3, 4, 5, 6)),)),))
        shaped, flat = shaped_and_flat((0, 2), w, random_state(2, np.random.default_rng(2)))
        out = run(c, shaped)
        assert out.shape == tuple(held_shape((0, 1, 2), w))
        assert np.array_equal(flat_form(out), apply_gate(flat, pauli_x(1)))

    def test_cnot_on_a_plain_idle_control_is_dropped(self):
        # qubit 6 is idle, so the CNOT never fires; its target 0 is held
        w = 7
        c = Circuit(w, (Role.INPUT,) * w, (Layer((cnot(6, 0), hadamard(1))),))
        shaped, flat = shaped_and_flat((2,), w, np.full(2, 1 / np.sqrt(2), dtype=complex))
        out = run(c, shaped)
        assert out.shape == tuple(held_shape((0, 1, 2), w))
        assert np.array_equal(flat_form(out), apply_gate(flat, hadamard(1)))

    @pytest.mark.parametrize("negated", [(), (9,)], ids=["plain", "negated"])
    def test_in_place_block_on_an_idle_control(self, negated):
        # a 16x16 cu on targets 2-5 controlled by idle qubit 9, on inputs
        # that set qubits 0 and 1: a stack of 64-amplitude matrices, the
        # in-place layout. A plain control's slab is empty, so the block
        # never fires; a negated one's is the whole held state
        w = 10
        rng = np.random.default_rng(16)
        block = controlled_u((9,), random_unitary(rng, 16), (2, 3, 4, 5), negated)
        c = Circuit(w, (Role.INPUT,) * w, (Layer((block, hadamard(0))), Layer((block,))))
        shaped, flat = shaped_and_flat((0, 1), w, random_state(2, rng))
        out = run(c, shaped)
        assert out.shape == tuple(held_shape(range(6), w))
        apart = flat
        for g in c.gates():
            apart = apply_gate(apart, g)
        assert np.array_equal(flat_form(out), apart)

    def test_negated_modq_control_on_an_idle_qubit_counts(self):
        # MODQ q=3 on inputs 0 and 1 and idle 5 and 6, 6 negated: nothing
        # moves 6, and as an idle input it reads 0, so it adds 1 to the
        # count, which is a multiple of 3 only where 0 and 1 are both set
        w = 7
        gate = modq_gate(3, (0, 1, 5, 6), 2, negated=(6,))
        c = Circuit(w, (Role.INPUT,) * w, (Layer((gate,)),))
        values = random_state(2, np.random.default_rng(17))
        shaped, flat = shaped_and_flat((0, 1), w, values)
        out = run(c, shaped)
        assert out.shape == tuple(held_shape((0, 1, 2), w))
        assert np.array_equal(flat_form(out), apply_gate(flat, gate))
        assert np.array_equal(out.reshape(-1)[[0b100, 0b101, 0b110, 0b011]], values)

    def test_diagonal_steps_become_factors_on_the_live_qubits(self):
        # H on qubit 0 between phase layers over qubits 0-14 of 20, on
        # inputs that leave 6-19 at 0: the first run, plan built inside the
        # trace, builds its factors on the 6 live qubits, and peaks under
        # half of one factor over the 14 qubits that each of the last ten
        # phase layers reads
        rng = np.random.default_rng(12)
        w = 20
        layers = [Layer((symmetric_phase(0.3, (1, 6), 7),)), Layer((hadamard(0),)),
                  Layer((symmetric_phase(0.5, (2,), 3),))]
        for _ in range(10):
            a = rng.permutation(15).tolist()
            layers += [Layer((hadamard(0),)),
                       Layer((symmetric_phase(rng.uniform(0, 6), a[:6], a[6]),
                              symmetric_phase(rng.uniform(0, 6), a[7:13], a[13])))]
        c = Circuit(w, (Role.INPUT,) * w, tuple(layers))
        live = tuple(range(6))
        shaped, flat = shaped_and_flat(live, w, random_state(6, rng))
        out, _, peak = _traced(lambda: run(c, shaped))
        assert out.shape == tuple(held_shape(live, w))
        assert peak < (1 << 14) * 16 / 2, peak
        assert np.abs(flat_form(out) - run(_fresh(c), flat)).max() <= 1e-14

    def test_no_live_qubit(self):
        # diagonal gates only, on |0...0>: the restricted state is one
        # amplitude
        c = Circuit(5, (Role.INPUT,) * 5,
                    (Layer((symmetric_phase(0.5, (), 0), symmetric_phase(0.2, (1,), 2))),))
        state = np.full((1,) * 5, 1j)
        out = run(c, state)
        assert out.shape == (1,) * 5
        assert np.array_equal(out, state)

    def test_runs_alternate_between_live_sets(self):
        # the circuit keeps its plan alone, for every live set: runs on
        # every qubit, between runs on fewer, give the same state, each
        # builds its factors (two of 512 KiB) one step at a time and peaks
        # under 1/16 of the state, and none leaves anything on the circuit
        c = modq_constant_depth(4, 5)
        rng = np.random.default_rng(5)
        (shaped, flat), full = _data_superposition(c, rng), random_state(c.width, rng)
        wants = run(_fresh(c), flat), run(_fresh(c), full)
        workspace = make_workspace(c.width)

        def two_full_runs():
            for _ in range(2):
                got, kept, peak = _traced(lambda: run(c, full, workspace))
                assert np.array_equal(got, wants[1])
                assert kept < 1 << 16 and peak < full.nbytes / 16, (kept, peak)

        two_full_runs()
        assert np.abs(flat_form(run(c, shaped, workspace)) - wants[0]).max() <= 1e-15
        two_full_runs()
        # |0...0>, with the target at 0: its live set is the counter and
        # the target, which the Toffoli moves
        out = run(c, np.ones((1,) * c.width, dtype=complex), workspace)
        assert out.shape == tuple(held_shape((4, 5, 6, 7), c.width))
        two_full_runs()

    def test_verify_binds_once(self, monkeypatch):
        # the four superpositions of modq-const n=3 q=3 are one batch: one
        # run of the data register (inputs 0-2, target 3) that returns it
        # and the counter (4, 5), which H moves. Its basis inputs run on
        # rows
        built = build_construction("modq-const", n=3, q=3)
        w, runs, dense = built.circuit.width, [], verify.run

        def traced(circuit, state, workspace=None):
            out = dense(circuit, state, workspace)
            runs.append((state.shape, out.shape))
            return out

        monkeypatch.setattr(verify, "run", traced)
        assert verify_built(built, superpositions=4).passed
        assert runs == [((4, *held_shape(range(4), w)), (4, *held_shape(range(6), w)))]

    def test_a_restricted_run_builds_factors_on_the_live_qubits_alone(self):
        # a data-superposition run of modq-const n=4 q=5 builds its plan
        # and its four factors on the 8 live qubits inside the trace, and
        # peaks under 64 KiB; on all 20 qubits two of them span 15 qubits,
        # 512 KiB each
        c = modq_constant_depth(4, 5)
        shaped, flat = _data_superposition(c, np.random.default_rng(14))
        want = run(_fresh(c), flat)
        workspace = make_workspace(8)
        out, _, peak = _traced(lambda: run(c, shaped, workspace))
        assert peak < 1 << 16, peak
        assert np.abs(flat_form(out) - want).max() <= 1e-15
        assert np.abs(flat_form(run(c, shaped, workspace)) - want).max() <= 1e-15

    @pytest.mark.parametrize("gate, slab_size", [
        (symmetric_phase(0.7, tuple(range(15)), 15), 1),
        (controlled_u(tuple(range(8)), np.diag(np.exp(1j * np.arange(8))), (9, 11, 14)), 256),
    ], ids=["phase-15-controls", "cu-8-controls-3-targets"])
    def test_a_lone_diagonal_gate_multiplies_its_slab_of_a_shaped_input(self, gate, slab_size):
        # 20 qubits, on an input that holds qubits 0-15 (1 MiB), alone and
        # as a batch of 2: the first run of each multiplies only the
        # gate's firing slab, with the target fixed at 1 for the phase,
        # and peaks under 1/16 of one state
        w, held = 20, held_shape(range(16), 20)
        for shape in (held, [2, *held]):
            c = Circuit(w, (Role.INPUT,) * w, (Layer((gate,)),))
            zeros = np.full(shape, complex(-0.0, -0.0))
            workspace = make_workspace(16 + len(shape) - w)
            out, _, peak = _traced(lambda: run(c, zeros, workspace))
            assert peak < 1 << 16, peak  # 1/16 of 2^16 amplitudes
            assert _multiplied(out) == slab_size * (out.size >> 16)


class TestShapedForm:
    """run and check_ancilla_purity also take a state in the shaped form:
    one axis per qubit, of length 2 where it is held and 1 where it is
    idle, at 0 (held_shape)."""

    def test_held_qubits_reads_held_shape_back(self):
        # qubit q on axis -1 - q; every subset of 5 qubits, alone and after
        # a batch axis of length 2, which is no qubit
        assert held_shape((2,), 3) == [2, 1, 1]
        for mask in range(1 << 5):
            held = [q for q in range(5) if mask >> q & 1]
            assert held_qubits(held_shape(held, 5), 5) == held
            assert held_qubits((2, *held_shape(held, 5)), 5) == held

    def test_run_holds_the_moved_qubits_and_returns_the_shaped_form(self):
        # modq-const n=4 q=5 on a superposition of inputs 0-3 alone: the run
        # also holds the target and the counter, which the plan moves, at
        # 0 on input, and returns them, as a view of the workspace
        c = modq_constant_depth(4, 5)
        shaped, flat = shaped_and_flat(range(4), c.width,
                                       random_state(4, np.random.default_rng(23)))
        before = shaped.copy()
        workspace = make_workspace(8)
        out = run(c, shaped, workspace)
        assert out.shape == tuple(held_shape(range(8), c.width))
        assert any(np.shares_memory(out, buf) for buf in workspace)
        assert np.array_equal(shaped, before)
        want = run(c, flat)
        assert np.abs(out.reshape(-1) - want[:256]).max() <= 1e-15
        assert not want[256:].any()
        # without a workspace, a run allocates 2^8 amplitudes, not 2^20
        assert np.array_equal(run(c, shaped), out)

    def test_a_single_idle_qubit_keeps_its_axis(self):
        # qubit 5 alone idle: the run holds the other five and returns
        # qubit 5 on its length-1 axis
        c = Circuit(6, (Role.INPUT,) * 6, (Layer((hadamard(0), cnot(1, 2))),))
        shaped, flat = shaped_and_flat((0, 1, 3, 4), 6, random_state(4, np.random.default_rng(25)))
        out = run(c, shaped)
        assert out.shape == (1,) + (2,) * 5
        want = oracle_unitary(cnot(1, 2), 6) @ oracle_unitary(hadamard(0), 6) @ flat
        assert np.abs(flat_form(out) - want).max() <= 1e-15

    @pytest.mark.parametrize("ancillae", [
        (5,), (1,), (4, 1), (2, 3), (1, 2, 4, 5), tuple(range(6)), (),
    ])
    def test_purity_is_that_of_the_flat_state(self, ancillae):
        # qubits 1 and 4 idle: an ancilla on their length-1 axes adds 0
        shaped, flat = shaped_and_flat((0, 2, 3, 5), 6, random_state(4, np.random.default_rng(24)))
        got, want = check_ancilla_purity(shaped, ancillae), check_ancilla_purity(flat, ancillae)
        assert got.pure == want.pure
        assert abs(got.leakage - want.leakage) <= 1e-15
        assert check_ancilla_purity(shaped, (1, 4)).leakage == 0.0

    def test_dump_is_that_of_the_flat_state(self):
        shaped, flat = shaped_and_flat((0, 2, 3, 5), 6, random_state(4, np.random.default_rng(26)))
        assert dump_state(shaped) == dump_state(flat)
        assert len(dump_state(shaped).splitlines()) == 16

    def test_one_qubit_with_its_qubit_idle(self):
        # shape (1,) is a 1-qubit state with its qubit idle, or, for a
        # circuit of no qubit, the flat 0-qubit state
        c = Circuit(1, (Role.INPUT,), (Layer((symmetric_phase(0.3, (), 0),)),))
        out = run(c, np.ones(1, dtype=complex))
        assert out.shape == (1,) and out[0] == 1
        assert dump_state(out) == "0 1 0"
        res = check_ancilla_purity(out, (0,))
        assert res.pure and res.leakage == 0.0
        with pytest.raises(CircuitError, match="outside width 1"):
            check_ancilla_purity(out, (1,))
        assert np.allclose(run(c, np.array([0, 1], dtype=complex)), [0, np.exp(0.3j)])
        empty = Circuit(0, (), ())
        assert np.array_equal(run(empty, np.ones(1, dtype=complex)), [1])

    @pytest.mark.parametrize("shape", [
        (2, 3, 2), (4, 1, 2), (2, 2), (2, 2, 1, 2, 2), (3,), (),
    ], ids=["axis-3", "axis-4", "too-few-axes", "too-many-axes", "flat-3", "scalar"])
    def test_a_malformed_state_raises(self, shape):
        # one leading axis more than the width is a batch; two are too many
        c = Circuit(3, (Role.INPUT,) * 3, (Layer((hadamard(0),)),))
        with pytest.raises(CircuitError):
            run(c, np.zeros(shape, dtype=complex))
        if shape not in ((2, 2), (2, 2, 1, 2, 2), ()):  # shaped states of other widths
            with pytest.raises(CircuitError):
                check_ancilla_purity(np.zeros(shape, dtype=complex), ())


class TestBatch:
    """run also takes a batch: the shaped form with one more leading axis,
    of any length B >= 1, each state holding the same qubits. The states
    share one run, and come back as (B, *held_shape(live, width)). numpy
    may round a BLAS product over more rows apart in the last bit, so a
    batch matches its single runs to 1e-15, not bitwise."""

    @pytest.mark.parametrize("discipline", list(Discipline))
    def test_a_batch_is_the_stack_of_its_single_runs(self, discipline):
        # random layered circuits of widths 1-12, on batches of 1, 3 and 8
        # random states that hold every qubit or a random subset of them
        rng = np.random.default_rng(2026)
        for width in range(1, 13):
            c = random_layered_circuit(rng, width, 4, discipline)
            for b in (1, 3, 8):
                for held in (range(width), [q for q in range(width) if rng.random() < 0.5]):
                    shape = held_shape(held, width)
                    states = np.stack([random_state(len(held), rng).reshape(shape)
                                       for _ in range(b)])
                    before = states.copy()
                    got = run(c, states)
                    want = np.stack([run(c, state) for state in states])
                    assert got.shape == want.shape and got.shape[0] == b
                    assert np.abs(got - want).max() <= 1e-15
                    assert np.array_equal(states, before)

    def test_a_negated_modq_control_on_an_idle_qubit_counts_in_each_state(self):
        # test_negated_modq_control_on_an_idle_qubit_counts on a batch of
        # three: the gate fires where inputs 0 and 1 are not both set
        w = 7
        gate = modq_gate(3, (0, 1, 5, 6), 2, negated=(6,))
        c = Circuit(w, (Role.INPUT,) * w, (Layer((gate,)),))
        rng = np.random.default_rng(17)
        pairs = [shaped_and_flat((0, 1), w, random_state(2, rng)) for _ in range(3)]
        out = run(c, np.stack([shaped for shaped, _ in pairs]))
        assert out.shape == (3, *held_shape((0, 1, 2), w))
        for got, (_, flat) in zip(out, pairs):
            assert np.array_equal(flat_form(got), apply_gate(flat, gate))

    def test_copy_trees_cancel_on_a_batch(self):
        # data-register superpositions of modq-const n=4 q=5, both
        # disciplines: a batch of five holds the 8 live qubits, as each
        # state alone does
        rng = np.random.default_rng(27)
        for discipline in Discipline:
            c = modq_constant_depth(4, 5, discipline)
            assert live_qubits(c, c.data_qubits) == tuple(range(8))
            states = np.stack([_data_superposition(c, rng)[0] for _ in range(5)])
            got = run(c, states)
            assert got.shape == (5, *held_shape(range(8), c.width))
            want = np.stack([run(_fresh(c), state) for state in states])
            assert np.abs(got - want).max() <= 1e-15

    def test_one_qubit_batches_and_the_empty_circuit(self):
        # a 1-qubit batch is (B, 2), or (B, 1) with the qubit idle unless
        # the plan moves it; for a circuit of no qubit, (1,) stays the flat
        # state and (2,) is not a batch of two
        phase = Circuit(1, (Role.INPUT,), (Layer((symmetric_phase(0.3, (), 0),)),))
        states = np.array([[1, 0], [0, 1], [0.6, 0.8j]], dtype=complex)
        out = run(phase, states)
        assert out.shape == (3, 2)
        assert np.abs(out - states * [1, np.exp(0.3j)]).max() <= 1e-15
        assert np.array_equal(run(phase, np.ones((4, 1), dtype=complex)), np.ones((4, 1)))
        flip = Circuit(1, (Role.INPUT,), (Layer((pauli_x(0),)),))
        assert np.array_equal(run(flip, np.ones((2, 1), dtype=complex)), [[0, 1], [0, 1]])
        empty = Circuit(0, (), ())
        out = run(empty, np.full(1, 1j))
        assert out.shape == (1,) and out[0] == 1j
        with pytest.raises(CircuitError, match="state has 1 qubits, circuit 0"):
            run(empty, np.ones(2, dtype=complex))

    def test_an_empty_batch_raises(self):
        c = Circuit(3, (Role.INPUT,) * 3, (Layer((hadamard(0),)),))
        with pytest.raises(CircuitError, match="no state"):
            run(c, np.zeros((0, 2, 2, 2), dtype=complex))

    def test_a_workspace_too_small_for_the_batch_raises(self):
        # three 4-qubit states need 48 amplitudes a buffer: a pair of 32,
        # or one buffer of 32, is refused before either is written, and a
        # pair of 64 serves, the output a view of one of its buffers
        c = Circuit(4, (Role.INPUT,) * 4, (Layer((hadamard(0), cnot(1, 2))),))
        rng = np.random.default_rng(28)
        states = np.stack([random_state(4, rng).reshape([2] * 4) for _ in range(3)])
        small, big = make_workspace(5), make_workspace(6)
        for buf in small + big:
            buf[...] = 7
        for workspace in (small, (big[0], small[1]), (small[0], big[1])):
            with pytest.raises(CircuitError, match="workspace of 32 amplitudes"):
                run(c, states, workspace)
        assert all((buf == 7).all() for buf in small + big)
        with pytest.raises(CircuitError, match="workspace"):
            run(c, states[0].reshape(-1), make_workspace(3))
        out = run(c, states, big)
        assert any(np.shares_memory(out, buf) for buf in big)
        want = np.stack([run(c, state) for state in states])
        assert np.abs(out - want).max() <= 1e-15


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

    def test_merge_needs_no_int64_key(self):
        # ids up to 2^20 and indices near 2^62: an (id << width) | index key
        # would take 83 bits. Each sum adds its rows in the order given, as
        # a dict does, so the sums match exactly
        rng = np.random.default_rng(5)
        ids = rng.choice([0, 1, (1 << 20) - 1, 1 << 20], 300)
        index = rng.choice([0, 5, (1 << 62) - 1, 1 << 62, (1 << 62) + 3], 300)
        amps = rng.normal(size=300) + 1j * rng.normal(size=300)
        want = {}
        for row, amp in zip(zip(ids.tolist(), index.tolist()), amps.tolist()):
            want[row] = want.get(row, 0) + amp
        got_ids, got_index, got_amps = merge_rows(ids, index, amps)
        assert list(zip(got_ids.tolist(), got_index.tolist())) == sorted(want)
        assert got_amps.tolist() == [want[row] for row in sorted(want)]
        empty = merge_rows(np.zeros(0, int), np.zeros(0, int), np.zeros(0, complex))
        assert [a.size for a in empty] == [0, 0, 0]

    @pytest.mark.parametrize("gate", [cnot(0, 63), cnot(63, 0)],
                             ids=["target-63", "control-63"])
    def test_past_63_qubits_raises(self, gate):
        # bit 63 of an int64 basis index is its sign: on input 1, cnot(0,
        # 63) would wrap the index negative and cnot(63, 0) overflow its
        # mask. 63 qubits fit
        c = Circuit(64, (Role.INPUT,) * 64, (Layer((gate,)),))
        with pytest.raises(WidthCapExceeded, match="64-qubit register exceeds the "
                                                   "simulator's 63-qubit ceiling"):
            run_basis(c, [1])
        c = Circuit(63, (Role.INPUT,) * 63, (Layer((cnot(0, 62),)),))
        ids, index, amps = run_basis(c, [1])
        assert (ids.tolist(), index.tolist(), amps.tolist()) == ([0], [1 + (1 << 62)], [1])

    @pytest.mark.parametrize("name, kwargs", [
        ("modq-const", {"n": 3, "q": 3}), ("parity-cat", {"n": 3})])
    def test_keeps_nothing_of_the_dense_engine(self, name, kwargs):
        # the sparse engine walks the gates, so it checks the plan that it
        # is tested against without sharing it: it leaves nothing on the
        # circuit, where a dense run keeps the plan it builds
        c = build_construction(name, **kwargs).circuit
        attributes = set(vars(c))
        ids, _, _ = run_basis(c, embed_index(np.arange(8), c.data_qubits[:3]))
        assert set(ids.tolist()) == set(range(8))
        assert set(vars(c)) == attributes
        run(c, zero_state(c.width))
        assert set(vars(c)) > attributes

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

    def test_keeps_only_the_plan(self):
        # every column runs on every qubit, a batch at a time, and each run
        # builds its 24 factors of 4 KiB and frees them: unitary_of leaves
        # the plan on the circuit and no factor, so a run on a flat input
        # after it keeps nothing new and agrees with the matrix
        rng = np.random.default_rng(32)
        c = _phase_ladder(rng, 8, 24, 8)
        u, kept, _ = _traced(lambda: unitary_of(c))
        assert kept - u.nbytes < 1 << 15 < 24 << 12, kept - u.nbytes
        state, workspace = random_state(8, rng), make_workspace(8)
        got, more, _ = _traced(lambda: run(c, state, workspace))
        assert more < 1 << 12, more
        assert np.abs(got - u @ state).max() <= 1e-13
        assert np.array_equal(unitary_of(c), u)

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

    def test_a_batch_gives_its_largest_leakage(self):
        # random batches of shaped states on random held qubits: the batch's
        # leakage is the largest of its states' lone calls, to the last bit
        # (numpy may add a slab of a batch in another order), and 0 once
        # every held ancilla is cleared
        rng = np.random.default_rng(34)
        for _ in range(200):
            w = int(rng.integers(1, 11))
            held = [q for q in range(w) if rng.random() < 0.7]
            ancillae = tuple(int(a) for a in rng.choice(w, int(rng.integers(0, w + 1)), False))
            batch = np.stack([shaped_and_flat(held, w, random_state(len(held), rng))[0]
                              for _ in range(int(rng.integers(1, 9)))])
            lone = [check_ancilla_purity(state, ancillae).leakage for state in batch]
            got = check_ancilla_purity(batch, ancillae, lead=1)
            assert abs(got.leakage - max(lone)) <= 1e-15
            assert got.pure == (max(lone) <= PURITY_TOL)
            index = embed_index(np.arange(1 << len(held)), held).reshape(batch.shape[1:])
            clean = batch * ((index & sum(1 << a for a in ancillae)) == 0)
            res = check_ancilla_purity(clean, ancillae, lead=1)
            assert res.pure and res.leakage == 0.0

    def test_a_nan_state_makes_a_batch_impure(self):
        # qubit 1 the ancilla: state 0 is NaN there, state 2 leaks 1/2
        batch = np.zeros((3, 2, 2), dtype=complex)
        batch[:, 0, 0] = 1
        batch[0, 1, 0] = np.nan
        batch[2] = np.sqrt(0.5) * np.array([[1, 0], [1, 0]])
        res = check_ancilla_purity(batch, (1,), lead=1)
        assert not res.pure and np.isnan(res.leakage)
        assert check_ancilla_purity(batch[1:], (1,), lead=1).leakage == pytest.approx(0.5)


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
        moved = state[embed_index(np.arange(8), (2, 0, 1))]  # new qubit 0 = old qubit 2
        assert moved[0b110] == 1.0

    def test_relabel_matrix_round_trip(self):
        rng = np.random.default_rng(18)
        u = unitary_of(random_circuit(rng, 3, 4))
        back = data_block_unitary(data_block_unitary(u, (1, 2, 0)), (2, 0, 1))
        assert np.array_equal(back, u)

    def test_data_block_unitary_picks_zero_ancilla_block(self):
        c = Circuit(3, (Role.INPUT, Role.ANCILLA, Role.INPUT),
                    (Layer((cnot(0, 2),)),))
        block = data_block_unitary(unitary_of(c), (0, 2))
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 1] = expected[2, 2] = expected[1, 3] = 1
        assert np.array_equal(block, expected)

    def test_embed_index_keeps_the_callers_qubit_order(self):
        # bit j goes to qubits[j], not to the j-th smallest qubit
        assert embed_index(0b01, (2, 0)) == 0b100
        assert embed_index(0b10, (2, 0)) == 0b001
        assert embed_index(np.arange(4), (2, 0)).tolist() == [0b000, 0b100, 0b001, 0b101]

    def test_compact_index_inverts_embed_index(self):
        # bit j comes from qubits[j]; the bits of other qubits are dropped
        assert compact_index(0b100, (2, 0)) == 0b01
        assert compact_index(0b111, (2, 0)) == 0b11
        index = np.arange(8)
        assert np.array_equal(compact_index(embed_index(index, (4, 0, 2)), (4, 0, 2)), index)

    def test_data_block_unitary_keeps_the_callers_qubit_order(self):
        u = unitary_of(random_circuit(np.random.default_rng(26), 3, 4))
        swapped = data_block_unitary(data_block_unitary(u, (0, 2)), (1, 0))
        assert np.array_equal(data_block_unitary(u, (2, 0)), swapped)
        assert not np.array_equal(data_block_unitary(u, (2, 0)), data_block_unitary(u, (0, 2)))
