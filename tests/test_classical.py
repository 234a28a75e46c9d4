import numpy as np
import pytest

from qdepth.classical import (
    ClassicalCircuit, ClassicalCircuitError, ClassicalGate, from_json,
    random_circuit, to_json,
)
from qdepth.sim import basis_state, check_ancilla_purity, run
from qdepth.synth import reversible_embed


def gate(op, *args):
    return ClassicalGate(op, tuple(args))


class TestEvaluation:
    def test_gate_ops(self):
        values = [1, 0, 1]
        assert gate("and", 0, 2).eval(values) == 1
        assert gate("and", 0, 1).eval(values) == 0
        assert gate("or", 1, 0).eval(values) == 1
        assert gate("not", 0).eval(values) == 0
        assert gate("xor", 0, 1, 2).eval(values) == 0

    def test_layered_evaluation(self):
        # majority of three inputs out of pairwise ANDs
        c = ClassicalCircuit(3, (
            (gate("and", 0, 1), gate("and", 0, 2), gate("and", 1, 2)),
            (gate("or", 3, 4, 5),),
        ))
        assert c.depth == 2 and c.width == 3 and c.n_outputs == 1
        for x in range(8):
            bits = [(x >> i) & 1 for i in range(3)]
            assert c.evaluate(bits) == (int(sum(bits) >= 2),)

    def test_arrays_evaluate_elementwise(self):
        rng = np.random.default_rng(43)
        x = np.arange(32)
        for _ in range(10):
            c = random_circuit(rng, 5, 3, 3)
            outputs = c.evaluate([(x >> i) & 1 for i in range(5)])
            for v in range(32):
                bits = [(v >> i) & 1 for i in range(5)]
                assert tuple(int(o[v]) for o in outputs) == c.evaluate(bits)

    def test_wire_from_later_layer_rejected(self):
        with pytest.raises(ClassicalCircuitError):
            ClassicalCircuit(2, ((gate("and", 0, 2),),))

    def test_not_takes_one_argument(self):
        with pytest.raises(ClassicalCircuitError):
            gate("not", 0, 1)

    def test_duplicate_wire_read_rejected(self):
        with pytest.raises(ClassicalCircuitError):
            gate("and", 0, 0)

    @pytest.mark.parametrize("args", [(0, 1.5), (True, 0)])
    def test_non_integer_wire_rejected(self, args):
        with pytest.raises(ClassicalCircuitError):
            ClassicalGate("and", args)

    def test_non_integer_input_count_rejected(self):
        with pytest.raises(ClassicalCircuitError):
            ClassicalCircuit(2.0, ((gate("and", 0, 1),),))

    def test_json_round_trip(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            c = random_circuit(rng, 4, 3, 2)
            assert from_json(to_json(c)) == c


class TestReversibleEmbedding:
    def test_single_and_gate(self):
        c = ClassicalCircuit(2, ((gate("and", 0, 1),),))
        circ = reversible_embed(c)
        assert circ.depth == 1 and circ.width == 2 + 1 + 1
        for x in range(4):
            for y in (0, 1):
                out = run(circ, basis_state(circ.width, x | (y << 2)))
                fx = int(x == 3)
                assert out[x | ((y ^ fx) << 2)] == 1.0

    def test_not_after_and_uncomputes(self):
        c = ClassicalCircuit(2, ((gate("and", 0, 1),), (gate("not", 2),)))
        circ = reversible_embed(c)
        assert circ.depth == 3  # two layers forward, one back
        for x in range(4):
            out = run(circ, basis_state(circ.width, x))
            fx = int(x != 3)
            assert out[x | (fx << 2)] == 1.0
            assert check_ancilla_purity(out, circ.ancillae).leakage == 0.0

    def test_random_circuits_match_evaluator(self):
        rng = np.random.default_rng(42)
        for _ in range(15):
            n = int(rng.integers(2, 7))
            c = random_circuit(rng, n, int(rng.integers(1, 5)),
                               int(rng.integers(1, 3)))
            circ = reversible_embed(c)
            assert circ.depth == 2 * c.depth - 1
            assert circ.width == n + c.n_outputs + c.width * c.depth
            m = c.n_outputs
            for x in range(1 << n):
                bits = [(x >> i) & 1 for i in range(n)]
                fx = sum(b << j for j, b in enumerate(c.evaluate(bits)))
                out = run(circ, basis_state(circ.width, x))
                assert out[x | (fx << n)] == 1.0
                assert check_ancilla_purity(out, circ.ancillae).leakage == 0.0

    def test_or_of_or_with_shared_inputs(self):
        # shared reads across gates in one layer need the shared-control rule
        c = ClassicalCircuit(2, (
            (gate("or", 0, 1), gate("xor", 0, 1), gate("not", 0)),
            (gate("or", 2, 3, 4),),
        ))
        circ = reversible_embed(c)
        for x in range(4):
            bits = [(x >> i) & 1 for i in range(2)]
            out = run(circ, basis_state(circ.width, x))
            fx = c.evaluate(bits)[0]
            assert out[x | (fx << 2)] == 1.0
