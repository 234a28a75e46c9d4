"""
Brute-force gate semantics used as verification oracles.

Every function here evaluates a gate straight from its definition with
bit arithmetic on basis indices, elementwise on an int64 array of them,
deliberately sharing no code with the simulator in qdepth.sim. Toffoli
negates the target iff all inputs are true (a mask test); the mod-q gate
negates it iff the count of true inputs is not a multiple of q; fanout
xors one control onto every target; the symmetric phase gate multiplies
the all-ones subspace by e^{i theta}. Like the simulator, it reads the
gate kinds (FLIP_KINDS) and block matrices from qdepth.ir.
"""
from __future__ import annotations

import cmath

import numpy as np

from .ir import FLIP_KINDS, Gate, GateKind, block_matrix

# Gates whose action on a basis state is a single basis state with a phase.
PERMUTATION_KINDS = FLIP_KINDS | {GateKind.PHASE}


class OracleError(ValueError):
    pass


def _bit(index, qubit: int):
    return (index >> qubit) & 1


def _inputs_true(gate: Gate, index):
    """Whether every control is true (a negated one at 0), elementwise."""
    controls = sum(1 << c for c in gate.controls)
    return (index ^ sum(1 << c for c in gate.negated)) & controls == controls


def oracle_apply(gate: Gate, index, width: int) -> tuple:
    """Image of basis states: (basis index, unit-modulus phase) of each
    entry of an int64 array of indices, as two arrays, or of one int."""
    xs = np.asarray(index)
    if xs.size and not 0 <= xs.min() <= xs.max() < 1 << width:
        raise OracleError(f"basis index {index} outside width {width}")
    if gate.kind not in PERMUTATION_KINDS:
        raise OracleError(f"{gate.kind.value} is not a permutation/phase gate")
    if gate.kind is GateKind.MODQ:
        count = sum(_bit(xs, c) ^ (c in gate.negated) for c in gate.controls)
        fire = count % gate.q != 0
    else:
        fire = _inputs_true(gate, xs)
    if gate.kind is GateKind.PHASE:
        images = xs
        phases = np.where(fire & (_bit(xs, gate.targets[0]) == 1),
                          cmath.exp(1j * gate.theta), 1.0)
    else:
        images = xs ^ np.where(fire, sum(1 << t for t in gate.targets), 0)
        phases = np.ones(xs.shape, dtype=complex)
    if xs.ndim == 0:
        return images.item(), phases.item()
    return images, phases


def oracle_unitary(gate: Gate, width: int) -> np.ndarray:
    """Dense matrix of the gate on a `width`-qubit register.

    Permutation/phase gates come from one oracle_apply call on every basis
    index. A block-matrix gate (Hadamard, explicit unitary) keeps each basis
    index where its controls do not all fire; where they do, the column of
    basis index b holds the block's column for b's target bits, spread over
    the target qubits of b.
    """
    dim = 1 << width
    b = np.arange(dim)
    u = np.zeros((dim, dim), dtype=complex)
    if gate.kind in PERMUTATION_KINDS:
        images, phases = oracle_apply(gate, b, width)
        u[images, b] = phases
        return u

    fire = _inputs_true(gate, b)
    idle = b[~fire]
    u[idle, idle] = 1.0
    cols = b[fire]
    targets = gate.targets
    y = sum(_bit(cols, t) << j for j, t in enumerate(targets))
    rest = cols & ~sum(1 << t for t in targets)
    y2 = np.arange(1 << len(targets))
    spread = sum(_bit(y2, j) << t for j, t in enumerate(targets))
    u[rest | spread[:, None], cols] = block_matrix(gate)[:, y]
    return u
