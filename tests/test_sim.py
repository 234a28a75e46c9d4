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
from qdepth.verify import build_construction, verify_built

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

    @pytest.mark.parametrize("gate", [
        symmetric_phase(0.7, tuple(range(15)), 15),
        controlled_u(tuple(range(8)), np.diag(np.exp(1j * np.arange(8))), (9, 11, 14)),
    ], ids=["phase-15-controls", "cu-8-controls-3-targets"])
    def test_a_lone_diagonal_gate_allocates_little_on_its_first_run(self, gate):
        # the plan and its binding are built inside the trace: the gate's
        # diagonal multiplies its firing slab, and no factor over all its
        # qubits (2^16 or 2^11 amplitudes) is ever built
        w = 16
        circuit = Circuit(w, (Role.INPUT,) * w, (Layer((gate,)),))
        initial = random_state(w, np.random.default_rng(5))
        workspace = make_workspace(w)
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
        c = modq_constant_depth(4, 5, discipline)
        kinds = [kernel.__name__ for kernel, _ in dense_plan(c)[0]]
        first = kinds.index("_dense_block")
        second = kinds.index("_dense_block", first + 1)
        assert kinds[first + 1:second] == ["_scale", "_scale"]
        assert len(kinds) == 10
        # bound to every qubit and to a data superposition's live qubits,
        # both factors are kept tensors: neither a slab nor a recipe
        for live in (tuple(range(c.width)), tuple(range(8))):
            assert _forms(sim._restriction(c, live)) == {
                "_flip", "_dense_block", "_scale tensor"}

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
        assert [k.__name__ for k, _ in dense_plan(c)[0]] == ["_scale"]
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
        # alternating H and two-gate phase layers, one factor per phase
        # layer: past the budget the binding keeps recipes, not tensors
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
        factors = [arg[1] for kernel, arg in sim._restriction(c, tuple(range(8)))
                   if kernel is sim._scale]
        assert sum(f.size for f in factors if isinstance(f, np.ndarray)) <= 48
        assert any(not isinstance(f, np.ndarray) for f in factors)
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
        assert dense_plan(c)[0] == [(sim._flip, gate) for gate in layer.gates]
        state = random_state(w, np.random.default_rng(9))
        apart = state
        for g in layer.gates:
            apart = apply_gate(apart, g)
        assert np.array_equal(run(c, state), apart)

    @pytest.mark.parametrize("gate, slab_size", [
        (symmetric_phase(0.7, (0,), 5), 16),
        (single_qubit(np.diag([1, -1]).astype(complex), 2), 32),
        (controlled_u((1, 4), np.diag([1, 1j]), (3,), negated=(4,)), 8),
        (controlled_u((1,), np.diag(np.exp(1j * np.arange(4))), (2, 3)), 32),
    ], ids=["phase", "z", "s-2-controls", "cu-2-targets"])
    def test_a_lone_diagonal_multiplies_only_where_it_is_not_1(self, gate, slab_size):
        # in a run on every qubit, a one-target diagonal that is 1 where its
        # target is 0 multiplies only the slab where the target is 1 too
        w = 6
        c = Circuit(w, (Role.INPUT,) * w, (Layer((gate,)),))
        [(kernel, (slab, factor))] = sim._restriction(c, tuple(range(w)))
        assert kernel is sim._scale
        assert np.arange(1 << w).reshape([2] * w)[slab].size == slab_size
        assert factor.size == (4 if len(gate.targets) == 2 else 1)
        assert np.abs(unitary_of(c) - oracle_unitary(gate, w)).max() <= 1e-15

    def test_wide_rewrite_runs_the_copies_first(self):
        # a CNOT chain makes qubit 14's bit the parity of qubits 0..14,
        # wider than a 16-qubit plan's 11-qubit factors: the chain runs
        # before the phase, which then multiplies only its firing slab
        w = 16
        chain = tuple(Layer((cnot(q, q + 1),)) for q in range(14))
        c = Circuit(w, (Role.INPUT,) * w,
                    chain + (Layer((symmetric_phase(0.7, (15,), 14),)),))
        kinds = [_form(k, a) for k, a in sim._restriction(c, tuple(range(w)))]
        assert kinds == ["_flip"] * 14 + ["_scale slab"]
        state = random_state(w, np.random.default_rng(4))
        apart = state
        for g in c.gates():
            apart = apply_gate(apart, g)
        assert np.array_equal(run(c, state), apart)


def _pair(held, w: int, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A state that holds `values` on the `held` qubits, every other qubit
    at |0>: in run's shaped form, and flat."""
    flat = np.zeros(1 << w, dtype=complex)
    flat[embed_index(np.arange(values.size), held)] = values
    return values.reshape(sim._shape(held, w)), flat


def _flat(state: np.ndarray) -> np.ndarray:
    """The flat form of a state in run's shaped form: 0 off its held slab."""
    w = state.ndim
    held = [q for q in range(w) if state.shape[w - 1 - q] == 2]
    return _pair(held, w, state.reshape(-1))[1]


def _data_superposition(c: Circuit, rng) -> tuple[np.ndarray, np.ndarray]:
    """A random superposition of the data register's basis inputs, every
    other qubit at |0>, shaped and flat."""
    return _pair(c.data_qubits, c.width, random_state(len(c.data_qubits), rng))


def _full_plan_run(c: Circuit, state: np.ndarray) -> np.ndarray:
    """The state, flat, advanced by the circuit's whole plan, bound to
    every qubit afresh."""
    everywhere = tuple(range(c.width))
    steps = sim._bind(dense_plan(c)[0], everywhere, c.width)
    out, _ = sim._apply(state.copy(), np.empty_like(state), steps, [2] * c.width)
    return out


def _spy_binds(monkeypatch) -> list:
    """The live sets that sim._bind is called with from now on."""
    builds, bind = [], sim._bind
    monkeypatch.setattr(sim, "_bind", lambda *args: builds.append(args[1]) or bind(*args))
    return builds


def _form(kernel, arg) -> str:
    """The kernel of a bound step, a _scale step as "_scale slab" (a
    gate's diagonal on its firing slab), "_scale tensor" or "_scale
    recipe" (a factor on the whole state, kept or built on each run)."""
    if kernel is not sim._scale:
        return kernel.__name__
    slab, factor = arg
    return ("_scale recipe" if not isinstance(factor, np.ndarray)
            else "_scale tensor" if slab is ... else "_scale slab")


def _forms(steps) -> set:
    return {_form(k, a) for k, a in steps}


class TestLiveQubits:
    """run holds only the live qubits of a shaped input, those it holds and
    those the plan moves, and runs the plan bound to them
    (sim._restriction); a flat input holds every qubit."""

    @pytest.mark.parametrize("discipline", list(Discipline))
    def test_data_superposition_of_modq_const_runs_on_eight_qubits(self, discipline, monkeypatch):
        # the data register (inputs 0-3, target 4) and the counter (5-7),
        # which H moves; the 12 copies stay at 0
        c = modq_constant_depth(4, 5, discipline)
        rng = np.random.default_rng(7)
        shaped, flat = _data_superposition(c, rng)
        full = random_state(c.width, rng)
        wants = [_full_plan_run(c, state) for state in (flat, full)]
        builds = _spy_binds(monkeypatch)
        out = run(c, shaped)
        assert out.shape == tuple(sim._shape(range(8), c.width))
        assert np.abs(_flat(out) - wants[0]).max() <= 1e-15
        # the same superposition, flat, and a dense state run on every
        # qubit, on one binding
        for state, want in zip((flat, full), wants):
            assert np.array_equal(run(c, state), want)
            assert builds == [tuple(range(8)), tuple(range(c.width))]

    def test_toffoli_on_negated_idle_controls_acts_as_x(self):
        w = 7
        c = Circuit(w, (Role.INPUT,) * w,
                    (Layer((toffoli((3, 4, 5, 6), 1, negated=(3, 4, 5, 6)),)),))
        shaped, flat = _pair((0, 2), w, random_state(2, np.random.default_rng(2)))
        out = run(c, shaped)
        assert out.shape == tuple(sim._shape((0, 1, 2), w))
        # the plan's own Toffoli, unrenumbered: each negated control's slab
        # is the whole length-1 axis of its idle qubit
        [(kernel, gate)] = sim._restriction(c, (0, 1, 2))
        assert kernel is sim._flip and gate is c.layers[0].gates[0]
        assert np.array_equal(_flat(out), apply_gate(flat, pauli_x(1)))

    def test_cnot_on_a_plain_idle_control_is_dropped(self):
        w = 7
        c = Circuit(w, (Role.INPUT,) * w, (Layer((cnot(6, 0), hadamard(1))),))
        shaped, flat = _pair((2,), w, np.full(2, 1 / np.sqrt(2), dtype=complex))
        out = run(c, shaped)
        assert out.shape == tuple(sim._shape((0, 1, 2), w))
        assert [k for k, _ in sim._restriction(c, (0, 1, 2))] == [sim._dense_block]
        assert np.array_equal(_flat(out), apply_gate(flat, hadamard(1)))

    @pytest.mark.parametrize("negated", [(), (9,)], ids=["plain", "negated"])
    def test_in_place_block_on_an_idle_control(self, negated):
        # a 16x16 cu on targets 2-5 controlled by idle qubit 9, on inputs
        # that set qubits 0 and 1: a stack of 64-amplitude matrices, the
        # in-place layout. A plain control's slab is empty, so its two
        # steps are dropped; a negated one's is the whole held state
        w = 10
        rng = np.random.default_rng(16)
        block = controlled_u((9,), random_unitary(rng, 16), (2, 3, 4, 5), negated)
        c = Circuit(w, (Role.INPUT,) * w, (Layer((block, hadamard(0))), Layer((block,))))
        shaped, flat = _pair((0, 1), w, random_state(2, rng))
        out = run(c, shaped)
        assert out.shape == tuple(sim._shape(range(6), w))
        assert len(sim._restriction(c, tuple(range(6)))) == (3 if negated else 1)
        apart = flat
        for g in c.gates():
            apart = apply_gate(apart, g)
        assert np.array_equal(_flat(out), apart)

    def test_restricted_steps_are_the_plans_own(self):
        # bound to a data superposition's live qubits, every permutation
        # and dense-block step is the plan's step object itself
        c = modq_constant_depth(4, 5)
        moves = [s for s in sim._restriction(c, tuple(range(8))) if s[0] is not sim._scale]
        plan = [s for s in dense_plan(c)[0] if s[0] is not sim._scale]
        assert moves and len(moves) == len(plan)
        assert all(s is p for s, p in zip(moves, plan))

    def test_negated_modq_control_on_an_idle_qubit_counts(self):
        # MODQ q=3 on inputs 0 and 1 and idle 5 and 6, 6 negated: nothing
        # pins 6, and as an idle input it reads 0, so it adds 1 to the
        # count, which is a multiple of 3 only where 0 and 1 are both set
        w = 7
        gate = modq_gate(3, (0, 1, 5, 6), 2, negated=(6,))
        c = Circuit(w, (Role.INPUT,) * w, (Layer((gate,)),))
        assert dense_plan(c)[1] == 1 << 2
        values = random_state(2, np.random.default_rng(17))
        shaped, flat = _pair((0, 1), w, values)
        out = run(c, shaped)
        assert out.shape == tuple(sim._shape((0, 1, 2), w))
        assert np.array_equal(_flat(out), apply_gate(flat, gate))
        assert np.array_equal(out.reshape(-1)[[0b100, 0b101, 0b110, 0b011]], values)

    def test_diagonal_steps_become_factors_on_the_live_qubits(self, monkeypatch):
        # H on qubit 0 between phase layers over qubits 0-7 of 10, on inputs
        # that leave 6-9 at 0: lone phases (a slab on every qubit, a
        # kept factor on the live ones, also where all their qubits are
        # live), kept factors and, past a budget of 8 amplitudes for 64
        # live ones, recipes built on each run
        monkeypatch.setattr(sim, "KEEP_AMPS", 8)
        rng = np.random.default_rng(12)
        w = 10
        layers = [Layer((symmetric_phase(0.3, (1, 6), 7),)), Layer((hadamard(0),)),
                  Layer((symmetric_phase(0.5, (2,), 3),))]
        for _ in range(10):
            a, b, c, d = rng.permutation(8)[:4].tolist()
            layers += [Layer((hadamard(0),)),
                       Layer((symmetric_phase(rng.uniform(0, 6), (a,), b),
                              symmetric_phase(rng.uniform(0, 6), (c,), d)))]
        c = Circuit(w, (Role.INPUT,) * w, tuple(layers))
        assert {"_scale slab", "_scale tensor", "_scale recipe"} <= _forms(
            sim._restriction(c, tuple(range(w))))
        live = tuple(range(6))
        shaped, flat = _pair(live, w, random_state(6, rng))
        out = run(c, shaped)
        assert out.shape == tuple(sim._shape(live, w))
        steps = sim._restriction(c, live)
        assert _forms(steps) == {"_dense_block", "_scale tensor", "_scale recipe"}
        # kept tensors span every axis, with length 1 on each idle one
        assert all(a[1].ndim == w and a[1].shape[:w - 6] == (1,) * (w - 6)
                   for k, a in steps if k is sim._scale and isinstance(a[1], np.ndarray))
        assert np.abs(_flat(out) - _full_plan_run(c, flat)).max() <= 1e-14

    def test_no_live_qubit(self):
        # diagonal gates only, on |0...0>: the restricted state is one
        # amplitude
        c = Circuit(5, (Role.INPUT,) * 5,
                    (Layer((symmetric_phase(0.5, (), 0), symmetric_phase(0.2, (1,), 2))),))
        state = np.full((1,) * 5, 1j)
        out = run(c, state)
        assert out.shape == (1,) * 5
        assert np.array_equal(out, state)

    def test_one_restriction_is_kept_per_circuit(self, monkeypatch):
        c = modq_constant_depth(4, 5)
        rng = np.random.default_rng(5)
        pairs = _data_superposition(c, rng), _data_superposition(c, rng)
        wants = [_full_plan_run(c, flat) for _, flat in pairs]
        builds = _spy_binds(monkeypatch)
        workspace = make_workspace(8)
        for (shaped, _), want in zip(pairs, wants):
            assert np.abs(_flat(run(c, shaped, workspace)) - want).max() <= 1e-15
        assert builds == [tuple(range(8))]
        # |0...0>, with the target at 0: its live set is the counter and
        # the target, which the Toffoli moves
        run(c, np.ones((1,) * c.width, dtype=complex), workspace)
        assert builds == [tuple(range(8)), (4, 5, 6, 7)]
        assert vars(c)["_dense_binding"][0] == (4, 5, 6, 7)
        run(c, pairs[0][0], workspace)
        assert builds == [tuple(range(8)), (4, 5, 6, 7), tuple(range(8))]

    def test_verify_binds_once(self, monkeypatch):
        # the superpositions of modq-const n=3 q=3 share the live set of
        # the data register and counter; its basis inputs run on rows
        built = build_construction("modq-const", n=3, q=3)
        builds = _spy_binds(monkeypatch)
        assert verify_built(built, superpositions=4).passed
        assert builds == [tuple(range(6))]

    def test_a_restricted_run_builds_factors_on_the_live_qubits_alone(self, monkeypatch):
        # the plan holds recipes, and a data-superposition run builds its
        # four factors on the 8 live qubits, never on all 20; the binding
        # keeps them, so a second run builds none
        c = modq_constant_depth(4, 5)
        assert not any(isinstance(arg, np.ndarray) for _, arg in dense_plan(c)[0])
        shaped, flat = _data_superposition(c, np.random.default_rng(14))
        want = _full_plan_run(c, flat)
        lives = []
        factor = sim._factor
        monkeypatch.setattr(sim, "_factor", lambda *args: lives.append(args[3]) or factor(*args))
        for _ in range(2):
            assert np.abs(_flat(run(c, shaped)) - want).max() <= 1e-15
        assert lives == [tuple(range(8))] * 4


class TestShapedForm:
    """run and check_ancilla_purity also take a state in the shaped form:
    one axis per qubit, of length 2 where it is held and 1 where it is
    idle, at 0 (sim._shape)."""

    def test_run_holds_the_moved_qubits_and_returns_the_shaped_form(self):
        # modq-const n=4 q=5 on a superposition of inputs 0-3 alone: the run
        # also holds the target and the counter, which the plan moves, at
        # 0 on input, and returns them, as a view of the workspace
        c = modq_constant_depth(4, 5)
        shaped, flat = _pair(range(4), c.width, random_state(4, np.random.default_rng(23)))
        before = shaped.copy()
        workspace = make_workspace(8)
        out = run(c, shaped, workspace)
        assert out.shape == tuple(sim._shape(range(8), c.width))
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
        shaped, flat = _pair((0, 1, 3, 4), 6, random_state(4, np.random.default_rng(25)))
        out = run(c, shaped)
        assert out.shape == (1,) + (2,) * 5
        want = oracle_unitary(cnot(1, 2), 6) @ oracle_unitary(hadamard(0), 6) @ flat
        assert np.abs(_flat(out) - want).max() <= 1e-15

    @pytest.mark.parametrize("ancillae", [
        (5,), (1,), (4, 1), (2, 3), (1, 2, 4, 5), tuple(range(6)), (),
    ])
    def test_purity_is_that_of_the_flat_state(self, ancillae):
        # qubits 1 and 4 idle: an ancilla on their length-1 axes adds 0
        shaped, flat = _pair((0, 2, 3, 5), 6, random_state(4, np.random.default_rng(24)))
        got, want = check_ancilla_purity(shaped, ancillae), check_ancilla_purity(flat, ancillae)
        assert got.pure == want.pure
        assert abs(got.leakage - want.leakage) <= 1e-15
        assert check_ancilla_purity(shaped, (1, 4)).leakage == 0.0

    def test_dump_is_that_of_the_flat_state(self):
        shaped, flat = _pair((0, 2, 3, 5), 6, random_state(4, np.random.default_rng(26)))
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
        (2, 3, 2), (4, 1, 2), (2, 2), (2, 1, 2, 2), (3,), (),
    ], ids=["axis-3", "axis-4", "too-few-axes", "too-many-axes", "flat-3", "scalar"])
    def test_a_malformed_state_raises(self, shape):
        c = Circuit(3, (Role.INPUT,) * 3, (Layer((hadamard(0),)),))
        with pytest.raises(CircuitError):
            run(c, np.zeros(shape, dtype=complex))
        if shape not in ((2, 2), (2, 1, 2, 2)):  # shaped states of other widths
            with pytest.raises(CircuitError):
                check_ancilla_purity(np.zeros(shape, dtype=complex), ())


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

    @pytest.mark.parametrize("name, kwargs", [
        ("modq-const", {"n": 3, "q": 3}), ("parity-cat", {"n": 3})])
    def test_does_not_use_the_dense_plan(self, monkeypatch, name, kwargs):
        # the sparse engine walks the gates, so it checks the plan that it
        # is tested against without sharing it
        def refuse(*args):
            raise AssertionError("run_basis built a dense plan")
        monkeypatch.setattr(sim, "_plan", refuse)
        c = build_construction(name, **kwargs).circuit
        ids, _, _ = run_basis(c, embed_index(np.arange(8), c.data_qubits[:3]))
        assert set(ids.tolist()) == set(range(8))

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

    def test_binds_once_on_every_qubit(self, monkeypatch):
        # every column runs on one binding, which the circuit keeps
        c = modq_constant_depth(2, 3)
        builds = _spy_binds(monkeypatch)
        u = unitary_of(c)
        assert builds == [tuple(range(c.width))]
        assert np.array_equal(unitary_of(c), u)
        assert builds == [tuple(range(c.width))]

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
