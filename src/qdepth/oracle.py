"""
Brute-force gate semantics used as verification oracles.

Every function here evaluates a gate straight from its definition with
per-basis-state bit arithmetic, deliberately sharing no code with the
vectorized simulator in qdepth.sim. Toffoli negates the target iff all
inputs are true; the mod-q gate negates it iff the number of true inputs
is not a multiple of q; fanout xors one control onto every target; the
symmetric phase gate multiplies the all-ones subspace by e^{i theta}.
"""
from __future__ import annotations

import cmath

import numpy as np

from .ir import Gate, GateKind, block_matrix

# Gates whose action on a basis state is a single basis state with a phase.
PERMUTATION_KINDS = frozenset({
    GateKind.PAULI_X, GateKind.CNOT, GateKind.TOFFOLI,
    GateKind.MODQ, GateKind.FANOUT, GateKind.PHASE,
})


class OracleError(ValueError):
    pass


def _bit(index: int, qubit: int) -> int:
    return (index >> qubit) & 1


def _inputs_true(gate: Gate, index: int) -> bool:
    return all(_bit(index, c) ^ (c in gate.negated) for c in gate.controls)


def oracle_apply(gate: Gate, index: int, width: int) -> tuple[int, complex]:
    """Image of one basis state: (basis index, unit-modulus phase)."""
    if index < 0 or index >= 1 << width:
        raise OracleError(f"basis index {index} outside width {width}")
    kind = gate.kind
    if kind is GateKind.PAULI_X:
        return index ^ (1 << gate.targets[0]), 1.0
    if kind in (GateKind.CNOT, GateKind.TOFFOLI):
        if _inputs_true(gate, index):
            return index ^ (1 << gate.targets[0]), 1.0
        return index, 1.0
    if kind is GateKind.MODQ:
        count = sum(_bit(index, c) ^ (c in gate.negated) for c in gate.controls)
        if count % gate.q != 0:
            return index ^ (1 << gate.targets[0]), 1.0
        return index, 1.0
    if kind is GateKind.FANOUT:
        if _inputs_true(gate, index):
            mask = 0
            for t in gate.targets:
                mask |= 1 << t
            return index ^ mask, 1.0
        return index, 1.0
    if kind is GateKind.PHASE:
        if _inputs_true(gate, index) and _bit(index, gate.targets[0]):
            return index, cmath.exp(1j * gate.theta)
        return index, 1.0
    raise OracleError(f"{kind.value} is not a permutation/phase gate")


def oracle_unitary(gate: Gate, width: int) -> np.ndarray:
    """Dense matrix of the gate on a `width`-qubit register.

    Permutation/phase gates come straight from oracle_apply; block-matrix
    gates (Hadamard, explicit unitaries) are assembled entry by entry from
    the controlled-application rule.
    """
    dim = 1 << width
    u = np.zeros((dim, dim), dtype=complex)
    if gate.kind in PERMUTATION_KINDS:
        for b in range(dim):
            image, phase = oracle_apply(gate, b, width)
            u[image, b] = phase
        return u

    block = block_matrix(gate)
    k = len(gate.targets)
    for b in range(dim):
        if not _inputs_true(gate, b):
            u[b, b] = 1.0
            continue
        y = 0
        base = b
        for j, t in enumerate(gate.targets):
            y |= _bit(b, t) << j
            base &= ~(1 << t)
        for y2 in range(1 << k):
            b2 = base
            for j, t in enumerate(gate.targets):
                b2 |= ((y2 >> j) & 1) << t
            u[b2, b] = block[y2, y]
    return u
