"""Shared helpers for the test suite."""
from __future__ import annotations

import numpy as np

from qdepth.ir import (
    Circuit, Discipline, Gate, GateKind, Layer, Role,
    cnot, controlled_u, fanout, hadamard, modq_gate, pauli_x, single_qubit,
    symmetric_phase, toffoli,
)
from qdepth.sim import embed_index, held_shape

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
H2 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def block_diag_gate_matrix(blocks) -> np.ndarray:
    """16x16 matrix from eight 2x2 blocks, block j on basis states 2j, 2j+1.

    This is the layout of the displayed three-input gate matrices: the
    fast (within-block) index is the target qubit, the block index is the
    three input bits.
    """
    u = np.zeros((16, 16), dtype=complex)
    for j, b in enumerate(blocks):
        u[2 * j:2 * j + 2, 2 * j:2 * j + 2] = b
    return u


# The three-input parity matrix as displayed: identity blocks on even
# input-weight patterns, X blocks on odd ones.
MOD2_3INPUT_MATRIX = block_diag_gate_matrix([I2, X2, X2, I2, X2, I2, I2, X2])
TOFFOLI_3INPUT_MATRIX = block_diag_gate_matrix([I2] * 7 + [X2])


def shaped_and_flat(held, w: int, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A state that holds `values` on the `held` qubits, in ascending order,
    every other qubit at |0>: in run's shaped form (held_shape), and flat."""
    flat = np.zeros(1 << w, dtype=complex)
    flat[embed_index(np.arange(values.size), held)] = values
    return values.reshape(held_shape(held, w)), flat


def held_qubits(state: np.ndarray) -> list[int]:
    """The qubits that a state in run's shaped form holds: those whose axis
    has length 2 (qubit 0's axis is the last)."""
    w = state.ndim
    return [q for q in range(w) if state.shape[w - 1 - q] == 2]


def flat_form(state: np.ndarray) -> np.ndarray:
    """The flat form of a state in run's shaped form: 0 off its held slab."""
    return shaped_and_flat(held_qubits(state), state.ndim, state.reshape(-1))[1]


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_gate(rng: np.random.Generator, width: int) -> Gate:
    kind = rng.choice(["h", "x", "u", "cnot", "toffoli", "modq", "fanout",
                       "phase", "cu"])
    qubits = list(rng.permutation(width))
    if kind == "h":
        return hadamard(qubits[0])
    if kind == "x":
        return pauli_x(qubits[0])
    if kind == "u":
        return single_qubit(random_unitary(rng, 2), qubits[0])
    if kind == "cnot":
        neg = (qubits[0],) if rng.random() < 0.3 else ()
        return cnot(qubits[0], qubits[1], negated=neg)
    if kind == "toffoli":
        nc = int(rng.integers(1, width))
        neg = tuple(q for q in qubits[:nc] if rng.random() < 0.3)
        return toffoli(qubits[:nc], qubits[nc], negated=neg)
    if kind == "modq":
        nc = int(rng.integers(1, width))
        return modq_gate(int(rng.integers(2, 6)), qubits[:nc], qubits[nc])
    if kind == "fanout":
        nt = int(rng.integers(1, width))
        return fanout(qubits[0], qubits[1:1 + nt])
    if kind == "phase":
        nc = int(rng.integers(0, width))
        return symmetric_phase(float(rng.uniform(-np.pi, np.pi)),
                               qubits[:nc], qubits[nc])
    nt = int(rng.integers(1, min(3, width)))
    nc = int(rng.integers(0, width - nt + 1))
    return controlled_u(qubits[nt:nt + nc], random_unitary(rng, 1 << nt),
                        qubits[:nt])


def random_circuit(rng: np.random.Generator, width: int, n_gates: int) -> Circuit:
    """Random mixed-kind circuit with one gate per layer."""
    layers = tuple(Layer((random_gate(rng, width),)) for _ in range(n_gates))
    roles = (Role.INPUT,) * width
    return Circuit(width, roles, layers, Discipline.WITH_FANOUT)


# kind: (fewest controls, most controls, most targets)
_LAYER_GATE_SHAPES = {
    "x": (0, 0, 1), "h": (0, 0, 1), "u": (0, 0, 1), "cnot": (1, 1, 1),
    "toffoli": (1, 3, 1), "modq": (1, 4, 1), "fanout": (1, 1, 3),
    "phase": (0, 3, 1), "cu_diag": (0, 2, 2), "cu": (0, 2, 2),
    "parity": (1, 4, 1),
}
LAYER_KINDS = ("x", "h", "u", "cnot", "toffoli", "modq", "fanout", "phase",
               "cu_diag", "cu")
AFFINE_KINDS = ("x", "cnot", "fanout", "parity")  # parity: MODQ with q=2
DIAGONAL_KINDS = ("phase", "cu_diag")


def random_layered_circuit(rng: np.random.Generator, width: int, depth: int,
                           discipline: Discipline,
                           kinds: tuple[str, ...] = LAYER_KINDS) -> Circuit:
    """Random circuit of `depth` layers that hold several gates each, valid
    under `discipline`: by default permutation (X, CNOT, Toffoli, MODQ,
    fanout), diagonal (PHASE, diagonal cu) and dense (H, u, cu) gates side
    by side, with negated controls, and under WITH_FANOUT controls shared
    between gates; `kinds` narrows the draw. When the width allows, the
    first layer of a draw with Toffoli gates has permutation gates that read
    seven controls between them."""
    layers = []
    for i in range(depth):
        free = [int(q) for q in rng.permutation(width)]  # touched by no gate yet
        read = []  # controls of this layer's gates so far
        gates = []
        if i == 0 and width >= 10 and "toffoli" in kinds:
            wide = [free.pop() for _ in range(9)]
            gates += [toffoli(wide[:6], wide[6], negated=wide[:2]),
                      cnot(wide[7], wide[8])]
            read += wide[:6] + wide[7:8]
        for _ in range(width):
            gate = _random_layer_gate(rng, free, read, discipline, kinds)
            if gate is not None:
                gates.append(gate)
                read += [c for c in gate.controls if c not in read]
        layers.append(Layer(tuple(gates)))
    return Circuit(width, (Role.INPUT,) * width, tuple(layers), discipline)


def _random_layer_gate(rng: np.random.Generator, free: list, read: list,
                       discipline: Discipline, kinds) -> Gate | None:
    """One gate of one of `kinds` on qubits of `free`, which it removes
    from there, or None when too few are left. Under WITH_FANOUT a control
    may instead be one that other gates of the layer already read."""
    kind = str(rng.choice(list(kinds)))
    fewest, most, widest = _LAYER_GATE_SHAPES[kind]
    n_targets = int(rng.integers(1, widest + 1))
    targets, pool, controls = free[:n_targets], free[n_targets:], []
    for _ in range(int(rng.integers(fewest, most + 1))):
        shared = [c for c in read if c not in controls]
        if discipline is Discipline.WITH_FANOUT and shared and rng.random() < 0.5:
            controls.append(int(rng.choice(shared)))
        elif pool:
            controls.append(pool.pop())
    if len(targets) < n_targets or len(controls) < fewest:
        return None
    for q in targets + controls:
        if q in free:
            free.remove(q)
    neg = tuple(c for c in controls if rng.random() < 0.3)
    if kind == "x":
        return pauli_x(targets[0])
    if kind == "h":
        return hadamard(targets[0])
    if kind == "u":
        return single_qubit(random_unitary(rng, 2), targets[0])
    if kind == "cnot":
        return cnot(controls[0], targets[0], negated=neg)
    if kind == "toffoli":
        return toffoli(controls, targets[0], negated=neg)
    if kind == "modq":
        return modq_gate(int(rng.integers(2, 6)), controls, targets[0], negated=neg)
    if kind == "parity":
        return modq_gate(2, controls, targets[0], negated=neg)
    if kind == "fanout":
        return Gate(GateKind.FANOUT, tuple(controls), tuple(targets), frozenset(neg))
    if kind == "phase":
        return symmetric_phase(float(rng.uniform(-np.pi, np.pi)), controls,
                               targets[0], negated=neg)
    if kind == "cu_diag":
        phases = np.exp(1j * rng.uniform(-np.pi, np.pi, 1 << n_targets))
        return controlled_u(controls, np.diag(phases), targets, negated=neg)
    return controlled_u(controls, random_unitary(rng, 1 << n_targets), targets,
                        negated=neg)
