import json

import numpy as np
import pytest

from qdepth.ir import (
    Circuit, CircuitError, Discipline, Gate, GateKind, Layer, LayeringError,
    Role, circuit_from_json, circuit_to_json, cnot, compose, controlled_u,
    hadamard, inverse, modq_gate,
    remap_qubits, single_qubit, symmetric_phase, toffoli, validate_layer,
)
from qdepth.sim import basis_state, run, unitary_of

from common import random_circuit, random_gate

STRICT, WF = Discipline.STRICT, Discipline.WITH_FANOUT


def layer(*gates):
    return Layer(tuple(gates))


class TestGateInvariants:
    def test_controls_targets_disjoint(self):
        with pytest.raises(CircuitError):
            cnot(1, 1)

    def test_negated_subset_of_controls(self):
        with pytest.raises(CircuitError):
            toffoli((0, 1), 2, negated=(3,))

    def test_modq_needs_q_at_least_two(self):
        with pytest.raises(CircuitError):
            modq_gate(1, (0, 1), 2)

    def test_modq_single_target(self):
        g = modq_gate(3, (0, 1), 2)
        assert g.q == 3 and g.targets == (2,)

    def test_fanout_single_control(self):
        with pytest.raises(CircuitError):
            Gate(GateKind.FANOUT, controls=(0, 1), targets=(2,))

    def test_explicit_matrix_must_be_unitary(self):
        with pytest.raises(CircuitError):
            single_qubit(np.array([[1, 0], [0, 2.0]]), 0)
        nan = np.array([[np.nan, 0], [0, 1]])  # NaN deviation fails too
        with pytest.raises(CircuitError, match="not unitary"):
            single_qubit(nan, 0)
        with pytest.raises(CircuitError, match="not unitary"):
            controlled_u((0,), nan, (1,))

    @pytest.mark.parametrize("big", [1e308, np.inf, 1e200], ids=["1e308", "inf", "1e200"])
    def test_a_huge_entry_is_refused_without_a_warning(self, big):
        # U+.U overflows to inf or NaN; under the suite's warning filter a
        # numpy warning there would raise in place of the CircuitError
        with pytest.raises(CircuitError, match="not unitary"):
            single_qubit(np.array([[big, 0], [0, big]]), 0)
        with pytest.raises(CircuitError, match="not unitary"):
            controlled_u((0,), np.full((2, 2), big), (1,))

    def test_block_size_cap(self):
        with pytest.raises(CircuitError):
            controlled_u((0,), np.eye(32), (1, 2, 3, 4, 5))

    def test_negative_index_rejected(self):
        with pytest.raises(CircuitError):
            hadamard(-1)

    def test_q_only_on_modq_and_theta_only_on_phase(self):
        # a stray field is no part of the gate's meaning, so it is refused
        # rather than carried along and written back out
        with pytest.raises(CircuitError, match="toffoli does not take q"):
            Gate(GateKind.TOFFOLI, (0, 1), (2,), q=2)
        with pytest.raises(CircuitError, match="cnot does not take theta"):
            Gate(GateKind.CNOT, (0,), (1,), theta=0.3)
        with pytest.raises(CircuitError, match="modq does not take theta"):
            Gate(GateKind.MODQ, (0,), (1,), q=2, theta=0.3)
        with pytest.raises(CircuitError, match="phase does not take q"):
            Gate(GateKind.PHASE, (0,), (1,), theta=0.3, q=2)
        doc = json.loads(circuit_to_json(Circuit(3, (Role.INPUT,) * 3, (
            layer(toffoli((0, 1), 2)),))))
        doc["layers"][0][0]["q"] = 2
        with pytest.raises(CircuitError, match="toffoli does not take q"):
            circuit_from_json(json.dumps(doc))


# The paper's gate set, written out apart from ir's table: per kind, the
# fewest and most controls, the fewest and most targets (None: no upper
# limit), and the one field the kind requires.
GATE_SET = [
    (GateKind.SINGLE_QUBIT, 0, 0, 1, 1, "matrix"),
    (GateKind.HADAMARD, 0, 0, 1, 1, None),
    (GateKind.PAULI_X, 0, 0, 1, 1, None),
    (GateKind.CNOT, 1, 1, 1, 1, None),
    (GateKind.TOFFOLI, 1, None, 1, 1, None),
    (GateKind.CONTROLLED_U, 0, None, 1, 4, "matrix"),
    (GateKind.MODQ, 1, None, 1, 1, "q"),
    (GateKind.FANOUT, 1, 1, 1, None, None),
    (GateKind.PHASE, 0, None, 1, 1, "theta"),
]


def _gate(kind, n_controls, n_targets, field):
    """A gate of `kind` on qubits 0.. as controls, then targets, carrying
    a valid value of `field` (none if None)."""
    value = {"matrix": np.eye(1 << n_targets), "theta": 0.5, "q": 3}.get(field)
    return Gate(kind, tuple(range(n_controls)),
                tuple(range(n_controls, n_controls + n_targets)),
                **({field: value} if field else {}))


@pytest.mark.parametrize("kind, c_lo, c_hi, t_lo, t_hi, field", GATE_SET,
                         ids=[row[0].value for row in GATE_SET])
class TestGateSet:
    def test_fewest_and_most_counts_build(self, kind, c_lo, c_hi, t_lo, t_hi, field):
        many = 3  # stands for the most where there is no upper limit
        for c, t in ((c_lo, t_lo), (many if c_hi is None else c_hi,
                                    many if t_hi is None else t_hi)):
            g = _gate(kind, c, t, field)
            assert (len(g.controls), len(g.targets)) == (c, t)

    def test_one_past_a_bound_raises(self, kind, c_lo, c_hi, t_lo, t_hi, field):
        counts = [(c_lo, t_lo - 1)]
        counts += [(c_lo - 1, t_lo)] if c_lo else []
        counts += [(c_hi + 1, t_lo)] if c_hi is not None else []
        counts += [(c_lo, t_hi + 1)] if t_hi is not None else []
        for c, t in counts:
            with pytest.raises(CircuitError, match=f"{kind.value} takes"):
                _gate(kind, c, t, field)

    def test_a_missing_field_raises(self, kind, c_lo, c_hi, t_lo, t_hi, field):
        if field is None:
            _gate(kind, c_lo, t_lo, None)
        else:
            with pytest.raises(CircuitError, match=f"{kind.value} requires {field}"):
                _gate(kind, c_lo, t_lo, None)


class TestLayerValidation:
    def test_disjoint_cnots_accepted_under_strict(self):
        validate_layer(layer(cnot(0, 1), cnot(2, 3)), STRICT, 4)

    def test_shared_control_strict_rejects_wf_accepts(self):
        shared = layer(cnot(0, 1), cnot(0, 2))
        with pytest.raises(LayeringError):
            validate_layer(shared, STRICT, 3)
        validate_layer(shared, WF, 3)

    def test_shared_target_rejected_under_wf(self):
        with pytest.raises(LayeringError):
            validate_layer(layer(cnot(0, 1), cnot(2, 1)), WF, 3)

    def test_target_feeding_control_rejected_under_wf(self):
        # these two do not commute, so they cannot share a layer
        with pytest.raises(LayeringError):
            validate_layer(layer(cnot(0, 1), cnot(1, 2)), WF, 3)

    def test_out_of_range_index(self):
        with pytest.raises(CircuitError):
            validate_layer(layer(cnot(0, 5)), STRICT, 3)

    def test_strict_acceptance_implies_wf_acceptance(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            width = int(rng.integers(2, 7))
            gates = [random_gate(rng, width) for _ in range(int(rng.integers(1, 4)))]
            try:
                validate_layer(layer(*gates), STRICT, width)
            except CircuitError:
                continue
            validate_layer(layer(*gates), WF, width)


class TestAccounting:
    def test_empty_circuit_depth_zero(self):
        c = Circuit(3, (Role.INPUT,) * 3)
        assert c.depth == 0 and c.width == 3 and c.ancilla_count == 0

    def test_depth_counts_layers(self):
        c = Circuit(2, (Role.INPUT, Role.TARGET),
                    (layer(hadamard(0)), layer(cnot(0, 1))))
        assert c.depth == 2

    def test_ancilla_count(self):
        c = Circuit(4, (Role.INPUT, Role.ANCILLA, Role.ANCILLA, Role.TARGET))
        assert c.ancilla_count == 2 and c.ancillae == (1, 2)
        assert c.data_qubits == (0, 3)

    def test_roles_length_must_match_width(self):
        with pytest.raises(CircuitError):
            Circuit(3, (Role.INPUT,) * 2)


class TestComposeInverse:
    def test_compose_concatenates_depth(self):
        rng = np.random.default_rng(0)
        a = random_circuit(rng, 3, 4)
        b = random_circuit(rng, 3, 2)
        assert compose(a, b).depth == a.depth + b.depth

    def test_compose_width_mismatch(self):
        rng = np.random.default_rng(1)
        with pytest.raises(CircuitError):
            compose(random_circuit(rng, 3, 1), random_circuit(rng, 4, 1))

    def test_inverse_of_hadamard_is_hadamard(self):
        c = Circuit(1, (Role.INPUT,), (layer(hadamard(0)),))
        assert inverse(c).layers == c.layers

    def test_inverse_negates_phase_angle(self):
        g = symmetric_phase(np.pi, (0,), 1)
        assert g.adjoint().theta == -np.pi

    def test_compose_with_inverse_is_identity_on_basis_states(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            width = int(rng.integers(2, 5))
            c = random_circuit(rng, width, int(rng.integers(1, 6)))
            roundtrip = compose(c, inverse(c))
            for b in range(1 << width):
                out = run(roundtrip, basis_state(width, b))
                assert abs(out[b] - 1) < 1e-12
                assert np.abs(out).max() <= 1 + 1e-12

    def test_inverse_unitary_is_conjugate_transpose(self):
        rng = np.random.default_rng(3)
        for width in (2, 3, 5, 8):
            c = random_circuit(rng, width, 5)
            u = unitary_of(c)
            v = unitary_of(inverse(c))
            assert np.abs(v - u.conj().T).max() <= 1e-12


class TestRemapAndNegationLowering:
    def test_remap_moves_gates(self):
        c = Circuit(2, (Role.INPUT, Role.TARGET), (layer(cnot(0, 1)),))
        r = remap_qubits(c, (3, 1), 4, (Role.INPUT,) * 4)
        assert r.layers[0].gates[0].controls == (3,)
        assert r.layers[0].gates[0].targets == (1,)

    def test_remap_rejects_non_injective(self):
        c = Circuit(2, (Role.INPUT,) * 2, (layer(cnot(0, 1)),))
        with pytest.raises(CircuitError):
            remap_qubits(c, (0, 0), 2, (Role.INPUT,) * 2)

    def test_remap_rejects_non_integer_qubits(self):
        c = Circuit(2, (Role.INPUT,) * 2, (layer(cnot(0, 1)),))
        with pytest.raises(CircuitError, match="qubit must be an integer"):
            remap_qubits(c, (0.5, 1.9), 2, (Role.INPUT,) * 2)


class TestSerialization:
    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            c = random_circuit(rng, int(rng.integers(2, 6)), int(rng.integers(0, 8)))
            back = circuit_from_json(circuit_to_json(c))
            assert back == c

    def test_gate_fields_in_document(self):
        import json
        c = Circuit(4, (Role.INPUT,) * 3 + (Role.TARGET,),
                    (layer(modq_gate(3, (0, 1), 3, negated=(1,))),), WF)
        doc = json.loads(circuit_to_json(c))
        assert doc["width"] == 4 and doc["discipline"] == "wf"
        assert doc["roles"] == ["input"] * 3 + ["target"]
        g = doc["layers"][0][0]
        assert g == {"kind": "modq", "controls": [0, 1], "neg": [1],
                     "targets": [3], "q": 3}

    def test_matrix_round_trip_bit_exact(self):
        rng = np.random.default_rng(7)
        from common import random_unitary
        u = random_unitary(rng, 4)
        c = Circuit(3, (Role.INPUT,) * 3,
                    (layer(controlled_u((2,), u, (0, 1))),))
        back = circuit_from_json(circuit_to_json(c))
        assert np.array_equal(back.layers[0].gates[0].matrix, u)

    def test_bad_json_raises(self):
        with pytest.raises(CircuitError):
            circuit_from_json("{nope")
        with pytest.raises(CircuitError):
            circuit_from_json('{"width": 2}')
