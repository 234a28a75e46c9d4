"""
Circuit constructions: cat states, fanout, parity, counting gates for an
arbitrary modulus, wide controlled-U through one ancilla, and embeddings
of classical Boolean circuits into reversible form.

Layer counts are the interesting output here. The parity and mod-q
builders come in two flavors: a sequential reference whose depth grows
with the input count, and a parallelized form whose depth does not.
Every gadget is made of three moves, each built once:
- a cat-style copy of a shared qubit, so that diagonal gates on it can
  fire simultaneously: cat_fanout, one fanout gate, or cat_log_depth, a
  controlled-not doubling tree that costs ceil(log2 n) layers per copy
  phase under the strict discipline; _on_blocks lays either on qubits;
- Hadamards on every qubit around one gate, which turn a fanout into a
  parity gate and back: _h_conjugate;
- compute, act, uncompute, on layer lists: _conjugate.

All builders are pure functions returning validated, immutable circuits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .classical import ClassicalCircuit
from .ir import (
    MAX_BLOCK_QUBITS,
    Circuit,
    CircuitError,
    Discipline,
    Gate,
    Layer,
    Role,
    cnot,
    controlled_u,
    fanout,
    hadamard,
    modq_gate,
    pauli_x,
    remap_gate,
    symmetric_phase,
    toffoli,
    undo,
)

PLAN_TOL = 1e-10


def _conjugate(compute, middle) -> tuple[Layer, ...]:
    """compute, then middle, then compute undone: whatever compute wrote
    to its ancillae for middle to read, the last part erases."""
    return (*compute, *middle, *undo(compute))


# --- cat states and fanout ---

def cat_log_depth(n: int) -> Circuit:
    """Copy qubit 0 onto n-1 fresh qubits by doubling: depth ceil(log2 n).

    Maps (a|0> + b|1>)|0...0> to a|0...0> + b|1...1>. Each round, every
    already-written qubit drives a controlled-not onto a fresh one.
    """
    if n < 1:
        raise CircuitError("cat circuit needs n >= 1 qubits")
    roles = (Role.INPUT,) + (Role.TARGET,) * (n - 1)
    layers = []
    written = 1
    while written < n:
        fresh = min(written, n - written)
        layers.append(Layer(tuple(cnot(i, written + i) for i in range(fresh))))
        written += fresh
    return Circuit(n, roles, tuple(layers), Discipline.STRICT)


def cat_fanout(n: int) -> Circuit:
    """Same map as cat_log_depth in one layer, using the fanout primitive."""
    if n < 1:
        raise CircuitError("cat circuit needs n >= 1 qubits")
    roles = (Role.INPUT,) + (Role.TARGET,) * (n - 1)
    layers = () if n == 1 else (Layer((fanout(0, tuple(range(1, n))),)),)
    return Circuit(n, roles, layers, Discipline.WITH_FANOUT)


CAT_BUILDERS: dict[str, Callable[[int], Circuit]] = {
    "fanout": cat_fanout,
    "log-cat": cat_log_depth,
}


def cat_builder(name: str) -> Callable[[int], Circuit]:
    """The CAT_BUILDERS entry called `name`."""
    if name not in CAT_BUILDERS:
        raise CircuitError(f"unknown cat builder {name!r}")
    return CAT_BUILDERS[name]


def _on_blocks(cat: Circuit, blocks) -> list[Layer]:
    # cat's layers run on every block at once, qubit i of cat on qubit
    # block[i]; each layer lists its gates in cat's order, then by block
    return [Layer(tuple(remap_gate(g, b) for g in layer.gates for b in blocks))
            for layer in cat.layers]


def fanout_gate(n: int) -> Circuit:
    """One fanout gate: |x; t_1..t_n> -> |x; t_1^x, ..., t_n^x>, depth 1."""
    if n < 1:
        raise CircuitError("fanout needs n >= 1 targets")
    return cat_fanout(n + 1)


# --- parity ---

def _h_conjugate(gate: Gate, roles, discipline: Discipline) -> Circuit:
    """`gate` between two layers of H on every qubit; depth 3."""
    hs = (Layer(tuple(hadamard(q) for q in range(len(roles)))),)
    return Circuit(len(roles), roles, _conjugate(hs, (Layer((gate,)),)), discipline)


def parity_from_fanout(n: int) -> Circuit:
    """Parity on inputs 0..n-1 into target n, built from one fanout gate.

    Hadamard conjugation reverses every controlled-not, so a fanout gate
    driven by the target qubit, sandwiched between Hadamard layers on all
    wires, flips the target iff an odd number of inputs are set. Depth 3,
    no extra ancillae.
    """
    if n < 1:
        raise CircuitError("parity needs n >= 1 inputs")
    return _h_conjugate(fanout(n, tuple(range(n))),
                        (Role.INPUT,) * n + (Role.TARGET,), Discipline.WITH_FANOUT)


def fanout_from_parity(n: int) -> Circuit:
    """Fanout from qubit 0 onto 1..n, built from one parity gate.

    The same Hadamard conjugation in the other direction: a parity gate
    reading qubits 1..n into qubit 0, between Hadamard layers. Depth 3.
    """
    if n < 1:
        raise CircuitError("fanout needs n >= 1 targets")
    return _h_conjugate(modq_gate(2, tuple(range(1, n + 1)), 0),
                        (Role.INPUT,) + (Role.TARGET,) * n, Discipline.STRICT)


def parity_via_catstate(n: int, builder: str = "fanout") -> Circuit:
    """Parity on inputs 0..n-1 into target n using n-1 copy ancillae.

    The parity gate is a product of controlled pi-shifts once the target
    is Hadamard-conjugated. Those shifts are diagonal, so they can all
    fire in one layer after the target is copied cat-style onto the
    ancillae: H on target, copy, one layer of controlled pi-shifts from
    input i to copy i, uncopy, H. Depth is 2*depth(copy) + 3 and every
    copy ancilla returns to |0>.

    `builder` names the CAT_BUILDERS entry that makes the n-qubit copy
    circuit (source on qubit 0). Here its qubits 1..n-1 are COPY ancillae.
    """
    if n < 1:
        raise CircuitError("parity needs n >= 1 inputs")
    cat = cat_builder(builder)(n)
    target = n
    block = (target,) + tuple(range(n + 1, 2 * n))  # target plus n-1 copies
    width = 2 * n
    roles = (Role.INPUT,) * n + (Role.TARGET,) + (Role.COPY,) * (n - 1)
    shifts = Layer(tuple(symmetric_phase(math.pi, (i,), block[i]) for i in range(n)))
    layers = _conjugate((Layer((hadamard(target),)), *_on_blocks(cat, [block])), (shifts,))
    # an empty copy (n = 1) needs no fanout
    return Circuit(width, roles, layers, cat.discipline if cat.layers else Discipline.STRICT)


# --- wide controlled-U via one ancilla ---

def controlled_u_constant_depth(controls, u, target: int) -> Circuit:
    """Apply a 2x2 unitary to `target` iff all controls are 1; depth 3.

    A Toffoli ANDs the controls onto a zeroed ancilla, the qubit above the
    highest control or target; a two-qubit controlled-U fires from the
    ancilla, and a second Toffoli restores it.
    """
    controls = tuple(controls)
    if not controls:
        raise CircuitError("need at least one control")
    ancilla = max(controls + (target,)) + 1
    roles = [Role.INPUT] * (ancilla + 1)
    roles[target] = Role.TARGET
    roles[ancilla] = Role.ANCILLA
    layers = _conjugate((Layer((toffoli(controls, ancilla),)),),
                        (Layer((controlled_u((ancilla,), u, (target,)),)),))
    return Circuit(ancilla + 1, tuple(roles), layers, Discipline.STRICT)


# --- counting gates: flip target iff #true inputs is not a multiple of q ---

@dataclass(frozen=True)
class ModCountingPlan:
    """Matrices behind the mod-q counter on k = ceil(log2 q) qubits.

    `step` cycles the first q basis states (entry [x][(x+1) mod q] is 1)
    and fixes the rest, so applying it s times to |0> leaves |0> exactly
    when s is a multiple of q. `basis_change` diagonalizes it:
    basis_change^dagger . diag(phases) . basis_change == step, with the
    cycle eigenvalues being the q-th roots of unity and fixed states 1.
    """
    q: int
    k: int
    step: np.ndarray
    basis_change: np.ndarray
    phases: np.ndarray

    @property
    def diagonal_matrix(self) -> np.ndarray:
        return np.diag(self.phases)

    def validate(self) -> None:
        dim = 1 << self.k
        m = np.linalg.matrix_power(self.step, self.q)
        if np.abs(m - np.eye(dim)).max() > PLAN_TOL:
            raise CircuitError(f"step matrix does not have period {self.q}")
        recon = self.basis_change.conj().T @ self.diagonal_matrix @ self.basis_change
        if np.abs(recon - self.step).max() > PLAN_TOL:
            raise CircuitError("diagonalization does not reproduce the step matrix")
        roots = self.phases ** self.q
        if np.abs(roots - 1).max() > PLAN_TOL:
            raise CircuitError("phases are not q-th roots of unity")


def modq_plan(q: int) -> ModCountingPlan:
    """Build and validate the counting matrices for modulus q."""
    if q < 2:
        raise CircuitError("modulus must be >= 2")
    k = (q - 1).bit_length()  # ceil(log2 q) without float round-off
    if k > MAX_BLOCK_QUBITS:
        raise CircuitError(
            f"modulus {q} needs a {k}-qubit block, cap is {MAX_BLOCK_QUBITS}")
    dim = 1 << k
    step = np.zeros((dim, dim), dtype=complex)
    for x in range(q):
        step[x, (x + 1) % q] = 1.0
    for x in range(q, dim):
        step[x, x] = 1.0
    # Fourier eigenbasis of the q-cycle, identity on the fixed states.
    basis_change = np.eye(dim, dtype=complex)
    jx = np.outer(np.arange(q), np.arange(q))
    basis_change[:q, :q] = np.exp(-2j * np.pi * jx / q) / math.sqrt(q)
    phases = np.ones(dim, dtype=complex)
    phases[:q] = np.exp(2j * np.pi * np.arange(q) / q)
    plan = ModCountingPlan(q, k, step, basis_change, phases)
    plan.validate()
    return plan


def _modq_register(n: int, q: int):
    plan = modq_plan(q)
    if n < 1:
        raise CircuitError("counting gate needs n >= 1 inputs")
    target = n
    work = tuple(range(n + 1, n + 1 + plan.k))
    roles = ((Role.INPUT,) * n + (Role.TARGET,) + (Role.ANCILLA,) * plan.k)
    return plan, target, work, roles


def _or_detect_layers(work, target: int) -> tuple[Layer, Layer]:
    # OR of the work bits onto the target: negate the target, then a
    # Toffoli that fires when every work bit is 0 (all controls negated).
    return (Layer((pauli_x(target),)),
            Layer((toffoli(work, target, negated=work),)))


def modq_sequential(n: int, q: int) -> Circuit:
    """Reference mod-q gate on inputs 0..n-1 into target n; depth 2n + 2.

    Each input advances a k-qubit counter register by one controlled step;
    the register leaves |0> exactly when the count of true inputs is not a
    multiple of q, which an OR detects onto the target. The inverse steps
    then return the counter to |0>. Depth grows linearly with n.
    """
    plan, target, work, roles = _modq_register(n, q)
    steps = [Layer((controlled_u((i,), plan.step, work),)) for i in range(n)]
    layers = _conjugate(steps, _or_detect_layers(work, target))
    return Circuit(n + 1 + plan.k, roles, layers, Discipline.STRICT)


def modq_constant_depth(n: int, q: int,
                        discipline: Discipline = Discipline.WITH_FANOUT) -> Circuit:
    """Mod-q gate whose layer count depends only on q, never on n.

    Layout: inputs 0..n-1, target n, a k-qubit ANCILLA counter register,
    and n k-qubit COPY blocks (n*k copy ancillae in all). The controlled
    counter steps of the sequential form all commute once diagonalized, so
    after a basis change on the counter the circuit fans the counter out
    onto the copy blocks, applies every input's controlled diagonal
    simultaneously in one layer, unfans, and changes basis back. An OR then
    detects a nonzero count onto the target and the whole compute phase is
    reversed to restore all n*k + k ancillae.

    Under Discipline.WITH_FANOUT each copy phase is one layer of k fanout
    gates; under Discipline.STRICT it becomes 1 + ceil(log2 n) layers of
    controlled-nots, and the total depth grows by exactly ceil(log2 n) per
    copy phase (there are four).
    """
    plan, target, work, roles = _modq_register(n, q)
    k = plan.k
    base = n + 1 + k
    copies = [tuple(base + i * k + j for j in range(k)) for i in range(n)]
    width = base + n * k
    roles = roles + (Role.COPY,) * (n * k)

    columns = [tuple(c[j] for c in copies) for j in range(k)]  # copies of work[j]
    if discipline is Discipline.WITH_FANOUT:
        copy_layers = _on_blocks(cat_fanout(n + 1), [(w, *col) for w, col in zip(work, columns)])
    else:
        # a seed layer, then the doubling within the copy blocks
        copy_layers = [Layer(tuple(cnot(w, col[0]) for w, col in zip(work, columns))),
                       *_on_blocks(cat_log_depth(n), columns)]

    diag_layer = Layer(tuple(
        controlled_u((i,), plan.diagonal_matrix, copies[i]) for i in range(n)))
    to_eigen = Layer((controlled_u((), plan.basis_change, work),))
    count = _conjugate((to_eigen, *copy_layers), (diag_layer,))
    layers = _conjugate(count, _or_detect_layers(work, target))
    return Circuit(width, roles, layers, discipline)


# --- classical circuits to reversible form ---

def _embed_gate(cgate, qubits: tuple[int, ...], tq: int) -> Gate:
    if cgate.op == "and":
        return toffoli(qubits, tq)
    if cgate.op == "or":
        # flips the target iff at least one input is true: with fan-in f,
        # any count in 1..f is not a multiple of f+1
        return modq_gate(len(qubits) + 1, qubits, tq)
    if cgate.op == "not":
        return cnot(qubits[0], tq, negated=qubits)
    return modq_gate(2, qubits, tq)  # xor


def reversible_embed(c: ClassicalCircuit) -> Circuit:
    """Reversible form of a classical circuit on n + m + w*d qubits.

    Qubits 0..n-1 keep the input, the next m are xor'ed with the outputs,
    and w*d ancillae (one slot per layer position) hold intermediate gate
    values. Every classical gate becomes a single self-inverse quantum
    gate that xors its value onto its slot; the final layer writes into
    the output qubits directly; then layers d-1..1 replay in reverse to
    erase the ancillae. Depth is exactly 2d - 1.
    """
    n, m, w, d = c.n_inputs, c.n_outputs, c.width, c.depth
    width = n + m + w * d
    roles = (Role.INPUT,) * n + (Role.TARGET,) * m + (Role.ANCILLA,) * (w * d)

    wire_qubit = list(range(n))
    quantum_layers = []
    for level, layer in enumerate(c.layers):
        gates = []
        for slot, cgate in enumerate(layer):
            if level == d - 1:
                tq = n + slot                       # output qubit
            else:
                tq = n + m + level * w + slot       # ancilla slot
            gates.append(_embed_gate(
                cgate, tuple(wire_qubit[a] for a in cgate.args), tq))
            wire_qubit.append(tq)
        quantum_layers.append(Layer(tuple(gates)))

    layers = _conjugate(quantum_layers[:-1], quantum_layers[-1:])
    return Circuit(width, roles, layers, Discipline.WITH_FANOUT)
