import hashlib
import math

import numpy as np
import pytest

from qdepth.classical import random_circuit as random_classical
from qdepth.ir import (
    Circuit, CircuitError, Discipline, GateKind, Layer, Role, circuit_to_json,
    cnot, hadamard, modq_gate, symmetric_phase,
)
from qdepth import synth
from qdepth.oracle import oracle_unitary
from qdepth.sim import (
    basis_state, check_ancilla_purity, data_block_unitary, plus_at,
    run, unitary_of, zero_state,
)
from qdepth.synth import (
    CAT_BUILDERS, cat_fanout, cat_log_depth, controlled_u_constant_depth,
    fanout_from_parity, fanout_gate, modq_constant_depth, modq_plan,
    modq_sequential, parity_from_fanout, parity_via_catstate, reversible_embed,
)
from qdepth.verify import build_construction, verify_construction

from common import MOD2_3INPUT_MATRIX, random_unitary

X = np.array([[0, 1], [1, 0]], dtype=complex)


def parity_oracle_unitary(n):
    return oracle_unitary(modq_gate(2, tuple(range(n)), n), n + 1)


class TestCatCircuits:
    def test_n1_is_empty(self):
        assert cat_log_depth(1).depth == 0
        assert cat_fanout(1).depth == 0

    def test_depth_is_ceil_log2(self):
        for n in range(1, 20):
            assert cat_log_depth(n).depth == math.ceil(math.log2(n))

    def test_fanout_route_depth_one(self):
        for n in (2, 5, 9):
            assert cat_fanout(n).depth == 1

    def test_plus_input_gives_cat_state(self):
        c = cat_log_depth(4)
        state = zero_state(4)
        state[0] = state[1] = 1 / np.sqrt(2)
        out = run(c, state)
        assert abs(out[0] - 1 / np.sqrt(2)) < 1e-12
        assert abs(out[15] - 1 / np.sqrt(2)) < 1e-12

    def test_basis_one_maps_to_all_ones(self):
        c = cat_log_depth(5)
        assert c.depth == 3
        out = run(c, basis_state(5, 1))
        assert out[0b11111] == 1.0

    def test_random_superpositions(self):
        rng = np.random.default_rng(31)
        for n in (2, 3, 7, 10):
            for build in (cat_log_depth, cat_fanout):
                a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
                norm = np.hypot(abs(a), abs(b))
                a, b = a / norm, b / norm
                state = zero_state(n)
                state[0], state[1] = a, b
                out = run(build(n), state)
                expected = zero_state(n)
                expected[0], expected[-1] = a, b
                assert np.linalg.norm(out - expected) <= 1e-10

    def test_declared_ancillae_end_clean(self):
        # the copies end in |1...1>, so they are targets, not ancillae
        for build in CAT_BUILDERS.values():
            for n in range(1, 7):
                c = build(n)
                leak = check_ancilla_purity(run(c, plus_at(n, 0)), c.ancillae)
                assert leak.leakage == 0.0, (build.__name__, n)

    def test_rejects_zero(self):
        with pytest.raises(CircuitError):
            cat_log_depth(0)

    def test_laid_on_blocks_each_gate_keeps_its_fields(self):
        # a negated control and a phase angle move with the gate's qubits
        c = Circuit(3, (Role.INPUT,) * 3, (Layer((
            cnot(0, 1, negated=(0,)), symmetric_phase(0.7, (0,), 2))),), Discipline.WITH_FANOUT)
        layers = synth._on_blocks(c, [(4, 5, 6), (9, 8, 7)])
        assert layers == [Layer((
            cnot(4, 5, negated=(4,)), cnot(9, 8, negated=(9,)),
            symmetric_phase(0.7, (4,), 6), symmetric_phase(0.7, (9,), 7)))]


class TestFanoutGate:
    def test_control_one_flips_all_targets(self):
        out = run(fanout_gate(4), basis_state(5, 1))
        assert out[0b11111] == 1.0

    def test_control_zero_is_identity_on_targets(self):
        out = run(fanout_gate(3), basis_state(4, 0b1010))
        assert out[0b1010] == 1.0

    def test_depth_one_any_n(self):
        for n in (1, 4, 12):
            assert fanout_gate(n).depth == 1

    def test_equals_two_chained_cnots(self):
        # one fanout on two targets = two controlled-nots sharing a control
        u = unitary_of(fanout_gate(2))
        c1 = oracle_unitary(cnot(0, 1), 3)
        c2 = oracle_unitary(cnot(0, 2), 3)
        assert np.abs(u - c2 @ c1).max() <= 1e-15


class TestParityConjugations:
    def test_three_input_parity_matches_displayed_matrix(self):
        u = unitary_of(parity_from_fanout(3))
        # reorder so the target is the fast index, inputs the block index
        assert np.abs(data_block_unitary(u, (3, 0, 1, 2)) - MOD2_3INPUT_MATRIX).max() <= 1e-12

    def test_single_input_parity_is_cnot(self):
        u = unitary_of(parity_from_fanout(1))
        assert np.abs(u - oracle_unitary(cnot(0, 1), 2)).max() <= 1e-12

    def test_depth_three_no_extra_ancillae(self):
        for n in (1, 3, 6):
            c = parity_from_fanout(n)
            assert c.depth == 3 and c.ancilla_count == 0

    def test_fanout_from_parity_matches_fanout_gate(self):
        for n in (2, 3, 4):
            u = unitary_of(fanout_from_parity(n))
            v = unitary_of(fanout_gate(n))
            assert np.abs(u - v).max() <= 1e-12

    def test_parity_from_fanout_matches_oracle(self):
        for n in (2, 4, 5):
            err, leak, _ = verify_construction(
                parity_from_fanout(n), modq_gate(2, tuple(range(n)), n))
            assert err <= 1e-12 and leak == 0.0


class TestParityViaCatState:
    def test_three_inputs_fanout_builder_matches_displayed_matrix(self):
        c = parity_via_catstate(3, "fanout")
        block = data_block_unitary(unitary_of(c), (3, 0, 1, 2))
        assert np.abs(block - MOD2_3INPUT_MATRIX).max() <= 1e-12

    def test_single_input_reduces_to_cnot(self):
        c = parity_via_catstate(1)
        assert c.depth == 3
        assert np.abs(unitary_of(c) - oracle_unitary(cnot(0, 1), 2)).max() <= 1e-12

    def test_depth_formula_and_ancilla_count(self):
        for n in (1, 2, 5, 8):
            via_fan = parity_via_catstate(n, "fanout")
            assert via_fan.depth == (5 if n > 1 else 3)
            assert via_fan.ancilla_count == n - 1
            via_log = parity_via_catstate(n, "log-cat")
            assert via_log.depth == 2 * math.ceil(math.log2(n)) + 3

    def test_five_inputs_log_builder_matches_oracle_with_pure_ancillae(self):
        c = parity_via_catstate(5, "log-cat")
        assert c.data_qubits == (0, 1, 2, 3, 4, 5)
        err, leak, checked = verify_construction(
            c, modq_gate(2, (0, 1, 2, 3, 4), 5))
        assert err <= 1e-12 and leak == 0.0 and checked == 64

    def test_unknown_builder_name(self):
        with pytest.raises(CircuitError, match="unknown cat builder 'nope'"):
            parity_via_catstate(3, "nope")
        with pytest.raises(CircuitError, match="unknown cat builder 'nope'"):
            build_construction("cat", n=3, builder="nope")


class TestControlledUConstantDepth:
    def test_controlled_x_on_two_controls_is_toffoli(self):
        c = controlled_u_constant_depth((0, 1), X, 2)
        block = data_block_unitary(unitary_of(c), (0, 1, 2))
        from qdepth.ir import toffoli
        assert np.abs(block - oracle_unitary(toffoli((0, 1), 2), 3)).max() <= 1e-12

    def test_controlled_phase_pi_matches_symmetric_phase(self):
        u = np.diag([1, np.exp(1j * np.pi)])
        c = controlled_u_constant_depth((0, 1, 2), u, 3)
        block = data_block_unitary(unitary_of(c), (0, 1, 2, 3))
        want = oracle_unitary(symmetric_phase(np.pi, (0, 1, 2), 3), 4)
        assert np.abs(block - want).max() <= 1e-12

    def test_definitional_action_and_ancilla_restored(self):
        rng = np.random.default_rng(32)
        u = random_unitary(rng, 2)
        c = controlled_u_constant_depth((0, 1), u, 2)
        assert c.depth == 3
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        norm = np.hypot(abs(a), abs(b))
        a, b = a / norm, b / norm
        state = zero_state(c.width)
        state[0b011], state[0b111] = a, b  # controls on, target a|0>+b|1>
        out = run(c, state)
        ta, tb = u @ np.array([a, b])
        assert abs(out[0b011] - ta) < 1e-12 and abs(out[0b111] - tb) < 1e-12
        assert check_ancilla_purity(out, (3,)).leakage == 0.0

    def test_non_integer_controls_rejected(self):
        with pytest.raises(CircuitError, match="qubit must be an integer"):
            controlled_u_constant_depth((0.7, 1.2), X, 2)


class TestModPlan:
    def test_q3_matrices_match_displayed_values(self):
        plan = modq_plan(3)
        m = np.zeros((4, 4))
        m[0, 1] = m[1, 2] = m[2, 0] = m[3, 3] = 1
        assert np.array_equal(plan.step.real, m)
        assert np.abs(plan.step.imag).max() == 0.0
        want = np.array([1, np.exp(2j * np.pi / 3), np.exp(4j * np.pi / 3), 1])
        assert np.abs(plan.phases - want).max() <= 1e-12

    def test_q2_is_pauli_x_and_hadamard(self):
        plan = modq_plan(2)
        assert np.abs(plan.step - X).max() <= 1e-15
        assert np.abs(plan.phases - np.array([1, -1])).max() <= 1e-15
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.abs(plan.basis_change - h).max() <= 1e-15

    def test_q4_full_cycle(self):
        plan = modq_plan(4)
        assert plan.k == 2
        m4 = np.linalg.matrix_power(plan.step, 4)
        assert np.abs(m4 - np.eye(4)).max() <= 1e-10

    def test_algebra_for_q_2_to_8(self):
        for q in range(2, 9):
            plan = modq_plan(q)
            dim = 1 << plan.k
            mq = np.linalg.matrix_power(plan.step, q)
            assert np.abs(mq - np.eye(dim)).max() <= 1e-10
            recon = plan.basis_change.conj().T @ plan.diagonal_matrix @ plan.basis_change
            assert np.abs(recon - plan.step).max() <= 1e-10

    def test_rejects_q_below_two(self):
        with pytest.raises(CircuitError):
            modq_plan(1)


class TestModSequential:
    def test_count_multiple_of_q_keeps_target(self):
        c = modq_sequential(4, 3)
        out = run(c, basis_state(c.width, 0b0111))  # |1110> qubit-0-first
        assert abs(out[0b0111] - 1) <= 1e-12

    def test_count_not_multiple_flips_target(self):
        c = modq_sequential(4, 3)
        out = run(c, basis_state(c.width, 0b0011))
        assert abs(out[0b10011] - 1) <= 1e-12

    def test_q2_matches_parity_circuit(self):
        for n in (2, 3, 4):
            c = modq_sequential(n, 2)
            block = data_block_unitary(unitary_of(c), tuple(range(n + 1)))
            assert np.abs(block - parity_oracle_unitary(n)).max() <= 1e-10

    def test_depth_grows_linearly(self):
        depths = [modq_sequential(n, 3).depth for n in range(2, 9)]
        assert all(b - a == 2 for a, b in zip(depths, depths[1:]))


class TestModConstantDepth:
    def test_copy_ancilla_count(self):
        for n in (2, 5, 8):
            c = modq_constant_depth(n, 3)
            k = 2
            assert c.width == n + 1 + k + n * k
            assert c.ancilla_count == k + n * k

    def test_depth_independent_of_n(self):
        for q in (2, 3, 5):
            depths = {modq_constant_depth(n, q).depth for n in range(2, 9)}
            assert len(depths) == 1

    def test_matches_sequential_on_all_data_inputs(self):
        c_fast = modq_constant_depth(4, 3)
        c_ref = modq_sequential(4, 3)
        for x in range(1 << 5):
            fast = run(c_fast, basis_state(c_fast.width, x))
            ref = run(c_ref, basis_state(c_ref.width, x))
            # both leave ancillae at |0>, so compare the data block
            assert np.abs(fast[:32] - ref[:32]).max() <= 1e-10

    def test_q5_example_with_purity(self):
        c = modq_constant_depth(3, 5)
        out = run(c, basis_state(c.width, 0b0111))  # all three inputs true
        expect = 0b1111  # 3 mod 5 != 0 so the target flips
        assert abs(out[expect] - 1) <= 1e-9
        assert check_ancilla_purity(out, c.ancillae).pure

    def test_superposition_inputs_match_oracle(self):
        for n, q in ((3, 3), (2, 5), (4, 2)):
            c = modq_constant_depth(n, q)
            assert c.data_qubits == tuple(range(n + 1))
            err, leak, _ = verify_construction(
                c, modq_gate(q, tuple(range(n)), n), superpositions=6, seed=42)
            assert err <= 1e-9 and leak <= 1e-10

    def test_strict_discipline_costs_log_n_per_copy_phase(self):
        for q in (2, 3, 5):
            for n in (1, 2, 3, 6, 11):
                wf = modq_constant_depth(n, q).depth
                strict = modq_constant_depth(n, q, Discipline.STRICT).depth
                assert strict - wf == 4 * math.ceil(math.log2(n))

    def test_strict_circuit_has_no_fanout_gates(self):
        c = modq_constant_depth(5, 3, Discipline.STRICT)
        assert all(g.kind is not GateKind.FANOUT for g in c.gates())
        assert c.discipline is Discipline.STRICT

    def test_strict_variant_matches_oracle(self):
        for n, q in ((1, 3), (3, 3), (3, 5), (4, 2)):
            c = modq_constant_depth(n, q, Discipline.STRICT)
            assert c.data_qubits == tuple(range(n + 1))
            err, leak, _ = verify_construction(
                c, modq_gate(q, tuple(range(n)), n), superpositions=3)
            assert err <= 1e-9 and leak <= 1e-10, (n, q)


class TestIdentities:
    def test_h_conjugated_cnot_is_controlled_pi_shift(self):
        circ = Circuit(2, (Role.INPUT, Role.TARGET),
                       (Layer((hadamard(1),)), Layer((cnot(0, 1),)),
                        Layer((hadamard(1),))))
        want = oracle_unitary(symmetric_phase(np.pi, (0,), 1), 2)
        assert np.abs(unitary_of(circ) - want).max() <= 1e-12

    def test_h_squared_is_identity(self):
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.abs(h @ h - np.eye(2)).max() <= 1e-15

    def test_h_conjugated_fanout_is_parity(self):
        for n in (2, 3, 4):
            u = unitary_of(parity_from_fanout(n))
            assert np.abs(u - parity_oracle_unitary(n)).max() <= 1e-12


# One sha256 of circuit_to_json per construction family over a fixed grid.
# A refactor of synth that changes any gate, order, matrix entry or role of
# any circuit here changes its family's digest.
DIGEST_NS = (1, 2, 3, 4, 5, 8, 16)
DIGEST_QS = (2, 3, 5, 16)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def _embedded_random(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    return reversible_embed(random_classical(
        rng, n, int(rng.integers(1, 6)), int(rng.integers(1, 5))))


DIGEST_FAMILIES = {
    "cat": lambda: [b(n) for b in (cat_fanout, cat_log_depth) for n in DIGEST_NS],
    "fanout": lambda: [fanout_gate(n) for n in DIGEST_NS],
    "parity-fanout": lambda: [parity_from_fanout(n) for n in DIGEST_NS],
    "fanout-from-parity": lambda: [fanout_from_parity(n) for n in DIGEST_NS],
    "parity-cat": lambda: [parity_via_catstate(n, b)
                           for b in ("fanout", "log-cat") for n in DIGEST_NS],
    "ctrl-u": lambda: [controlled_u_constant_depth(tuple(range(n)), u, n)
                       for u in (X, H) for n in DIGEST_NS],
    "modq-seq": lambda: [modq_sequential(n, q) for q in DIGEST_QS for n in DIGEST_NS],
    "modq-const": lambda: [modq_constant_depth(n, q, d)
                           for d in Discipline for q in DIGEST_QS for n in DIGEST_NS],
    "rev-embed": lambda: [_embedded_random(seed) for seed in range(20)],
}

DIGESTS = {
    "cat": "8635c34f0f191d7973cdeabcdafa8f1cbe58bfa5e9476d655bb98c4be9e79d5f",
    "ctrl-u": "0fa2bdf50b211d2dae4d4ea11c7108b043decd43cf2f6ed197e0becdf7727765",
    "fanout": "57511dec0d8ec9a1a647ed9a1c57a4099d8835195efeea6f27e8c7ed2ac2bffb",
    "fanout-from-parity": "7ed4506c18cc4bdd5730590e3702c6329071ff9babe165629abb562222b56393",
    "modq-const": "2538607b93c50a3c540dbdbb533d491b23c205657fa86017b84ff0caba7b2e10",
    "modq-seq": "b1f9d161367629c0c2b699d7e15f72241ac3a96a4e0c0a84b0774834ef3b5126",
    "parity-cat": "1673e92a9147b5cbccc78bfa2e024160ad91bc44a536edd25bfd0f219049ea21",
    "parity-fanout": "fcdce00db3ddd0ead4cdb17ee60905e1093220eb0bbc81ce75e593af558c68f7",
    "rev-embed": "c2daff8b6c781fb17cd1cb154ad857529efac07da10832e6a2aeda824022bcbd",
}


class TestCircuitDigests:
    @pytest.mark.parametrize("family", sorted(DIGEST_FAMILIES))
    def test_every_gate_is_unchanged(self, family):
        h = hashlib.sha256()
        for c in DIGEST_FAMILIES[family]():
            h.update(circuit_to_json(c).encode() + b"\n")
        assert h.hexdigest() == DIGESTS[family], family
