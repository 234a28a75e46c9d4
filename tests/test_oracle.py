import ast
from pathlib import Path

import numpy as np
import pytest

from qdepth.ir import (
    Gate, GateKind, cnot, controlled_u, fanout, hadamard, modq_gate, pauli_x,
    single_qubit, symmetric_phase, toffoli,
)
from qdepth import oracle
from qdepth.oracle import OracleError, oracle_apply, oracle_unitary
from qdepth.sim import apply_gate, basis_state

from common import random_gate, random_unitary


class TestDefinitionalSemantics:
    def test_mod3_all_three_true_keeps_target(self):
        g = modq_gate(3, (0, 1, 2), 3)
        image, phase = oracle_apply(g, 0b0111, 4)
        assert image == 0b0111 and phase == 1.0

    def test_toffoli_all_true_flips_target(self):
        g = toffoli((0, 1), 2)
        image, phase = oracle_apply(g, 0b011, 3)
        assert image == 0b111 and phase == 1.0

    def test_toffoli_one_false_holds(self):
        image, _ = oracle_apply(toffoli((0, 1), 2), 0b001, 3)
        assert image == 0b001

    def test_phase_pi_on_all_ones(self):
        g = symmetric_phase(np.pi, (0, 1), 2)
        image, phase = oracle_apply(g, 0b111, 3)
        assert image == 0b111 and abs(phase + 1) < 1e-15

    def test_phase_inactive_off_subspace(self):
        g = symmetric_phase(np.pi, (0, 1), 2)
        image, phase = oracle_apply(g, 0b101, 3)
        assert image == 0b101 and phase == 1.0

    def test_fanout_copies_control(self):
        image, _ = oracle_apply(fanout(2, (0, 1)), 0b100, 3)
        assert image == 0b111

    def test_negated_controls(self):
        image, _ = oracle_apply(toffoli((0, 1), 2, negated=(0,)), 0b010, 3)
        assert image == 0b110

    def test_hadamard_is_not_a_permutation(self):
        with pytest.raises(OracleError):
            oracle_apply(hadamard(0), 0, 1)


class TestOracleUnitary:
    def test_permutation_gates_are_exactly_unitary(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            width = int(rng.integers(2, 6))
            g = random_gate(rng, width)
            u = oracle_unitary(g, width)
            dim = 1 << width
            assert np.abs(u.conj().T @ u - np.eye(dim)).max() <= 1e-12
            # permutation/phase gates: one entry per column, unit modulus
            from qdepth.oracle import PERMUTATION_KINDS
            if g.kind in PERMUTATION_KINDS:
                assert np.all(np.sum(np.abs(u) > 0, axis=0) == 1)
                assert np.allclose(np.abs(u[np.abs(u) > 0]), 1.0)

    def test_hadamard_matrix(self):
        u = oracle_unitary(hadamard(0), 1)
        assert np.abs(u - np.array([[1, 1], [1, -1]]) / np.sqrt(2)).max() < 1e-15

    def test_controlled_block_unitary(self):
        rng = np.random.default_rng(22)
        block = random_unitary(rng, 4)
        g = controlled_u((0,), block, (1, 2))
        u = oracle_unitary(g, 3)
        # control clear: identity on those basis states
        for b in (0, 2, 4, 6):
            col = np.zeros(8)
            col[b] = 1
            assert np.allclose(u[:, b], col)
        # control set: block applied to (qubit1, qubit2) as bits (0, 1)
        assert np.allclose(u[1::2, 1::2], block)


class TestSimulatorAgreement:
    def test_apply_gate_matches_oracle_on_all_kinds(self):
        rng = np.random.default_rng(23)
        gates = [
            hadamard(1), pauli_x(0), cnot(0, 2), cnot(2, 0, negated=(2,)),
            toffoli((0, 1, 3), 2, negated=(1,)),
            modq_gate(3, (0, 1, 2, 3), 4), modq_gate(2, (1, 3), 0),
            fanout(3, (0, 1, 2)), symmetric_phase(0.7, (2,), 0),
            symmetric_phase(np.pi, (), 1),
            single_qubit(random_unitary(rng, 2), 2),
            controlled_u((4, 0), random_unitary(rng, 4), (1, 3)),
            modq_gate(3, (5, 0, 4, 1), 2, negated=(4,)),
            Gate(GateKind.FANOUT, (1,), (5, 0, 3), frozenset({1})),
            symmetric_phase(0.9, (), 4),
            symmetric_phase(-1.1, (0, 3), 5, negated=(3,)),
            controlled_u((1, 4), np.diag(np.exp([0.3j, -1.2j, 2j, 0])), (3, 0),
                         negated=(1, 4)),
            pauli_x(5),
        ]
        # every layout the dense-block kernel tells apart: staged (targets
        # out of order, apart, or over a control) or in place (targets in
        # order up to qubit 5 or above, no control below), each controlled
        # or on the whole state
        u2, u4, u8 = (random_unitary(np.random.default_rng(29), d) for d in (2, 4, 8))
        blocks = [
            controlled_u((), u8, (3, 1, 2)), controlled_u((), u4, (0, 4)),
            controlled_u((0, 3, 5), u4, (2, 4), negated=(3,)),
            single_qubit(u2, 0), controlled_u((0,), u2, (5,), negated=(0,)),
            controlled_u((), u8, (0, 1, 2)), controlled_u((), u8, (3, 4, 5)),
            hadamard(5),
        ]
        for g in gates + [random_gate(rng, 6) for _ in range(30)] + blocks:
            width = max(g.support) + 1 if g.support else 1
            width = max(width, int(rng.integers(width, 7)))
            u = oracle_unitary(g, width)
            for b in range(1 << width):
                out = apply_gate(basis_state(width, b), g)
                assert np.abs(out - u[:, b]).max() <= 1e-12, (g, width, b)


def test_oracle_imports_nothing_from_the_simulator():
    # the oracle is the definition the simulator is checked against, so it
    # must not reuse the simulator's code (embed_index, say)
    imported = set()
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ("qdepth" if node.level else None,
                                          node.module)))
            imported.add(base)
            imported.update(f"{base}.{a.name}" for a in node.names)
    assert "qdepth.ir" in imported
    assert not [m for m in imported if m == "qdepth.sim" or m.startswith("qdepth.sim.")]
