"""
Dense state-vector simulation and ancilla-purity analysis.

A state is a plain complex128 numpy array of length 2^m, unit norm, in
little-endian basis order: qubit 0 is the least significant bit of the
basis index. Gate application is out of place; the caller keeps the input
state. Gates on few qubits are applied through axis slicing of the state
reshaped to [2]*m, so cost is one pass over the touched amplitudes.

A state is owned by one execution context while being advanced; read-only
states may be shared freely.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ir import Circuit, CircuitError, Gate, GateKind, gate_matrix_2x2

DEFAULT_UNITARY_WIDTH_CAP = 12
PURITY_TOL = 1e-10
DUMP_THRESHOLD = 1e-14


class WidthCapExceeded(CircuitError):
    """A request would allocate more amplitudes than the configured cap."""


def state_width(state: np.ndarray) -> int:
    m = int(state.size).bit_length() - 1
    if state.ndim != 1 or state.size != 1 << m:
        raise CircuitError(f"state length {state.size} is not a power of two")
    return m


def zero_state(width: int) -> np.ndarray:
    return basis_state(width, 0)


def basis_state(width: int, index: int) -> np.ndarray:
    state = np.zeros(1 << width, dtype=complex)
    state[index] = 1.0
    return state


def plus_at(width: int, qubit: int) -> np.ndarray:
    """|0...0> with (|0>+|1>)/sqrt(2) on one qubit."""
    state = np.zeros(1 << width, dtype=complex)
    state[0] = state[1 << qubit] = 1 / np.sqrt(2)
    return state


def random_state(width: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=1 << width) + 1j * rng.normal(size=1 << width)
    return v / np.linalg.norm(v)


def _axis(qubit: int, width: int) -> int:
    # reshape([2]*width) puts qubit width-1 on axis 0
    return width - 1 - qubit


def _control_index(gate: Gate, width: int) -> tuple:
    idx = [slice(None)] * width
    for c in gate.controls:
        idx[_axis(c, width)] = 0 if c in gate.negated else 1
    return tuple(idx)


def _sub_axis(qubit: int, width: int, fixed: tuple[int, ...]) -> int:
    a = _axis(qubit, width)
    return a - sum(1 for f in fixed if _axis(f, width) < a)


_EINSUM_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _block_einsum(view: np.ndarray, out_view: np.ndarray, u: np.ndarray,
                  axes: list[int]) -> None:
    """out_view = u applied to `view` on the given axes (bit j of the block
    index lives on axes[j]); writes into out_view without allocating."""
    k = len(axes)
    nd = view.ndim
    in_sub = list(_EINSUM_LETTERS[:nd])
    fresh = _EINSUM_LETTERS[nd:nd + k]
    out_sub = list(in_sub)
    for j, ax in enumerate(axes):
        out_sub[ax] = fresh[j]
    u_sub = [fresh[j] for j in reversed(range(k))] + \
        [in_sub[axes[j]] for j in reversed(range(k))]
    spec = "".join(u_sub) + "," + "".join(in_sub) + "->" + "".join(out_sub)
    np.einsum(spec, u.reshape((2,) * (2 * k)), view, out=out_view)


def _apply(state: np.ndarray, scratch: np.ndarray, gate: Gate,
           w: int) -> tuple[np.ndarray, np.ndarray]:
    """Advance `state` by one gate, using `scratch` for staging.

    Returns the (state, scratch) pair, swapped when the result landed in
    the scratch buffer. Only the gate's subspace is touched; nothing is
    allocated on the hot paths.
    """
    kind = gate.kind
    if kind is GateKind.MODQ:
        idx = np.arange(state.size)
        count = np.zeros(state.size, dtype=np.int64)
        for c in gate.controls:
            bit = (idx >> c) & 1
            count += bit ^ 1 if c in gate.negated else bit
        flip = (count % gate.q) != 0
        np.take(state, np.where(flip, idx ^ (1 << gate.targets[0]), idx),
                out=scratch)
        return scratch, state

    psi = state.reshape([2] * w)
    stage = scratch.reshape([2] * w)
    sel = _control_index(gate, w)

    if kind in (GateKind.CNOT, GateKind.TOFFOLI, GateKind.PAULI_X):
        view = psi[sel]
        ax = _sub_axis(gate.targets[0], w, gate.controls)
        i0 = [slice(None)] * view.ndim
        i1 = list(i0)
        i0[ax], i1[ax] = slice(0, 1), slice(1, 2)
        a, b = view[tuple(i0)], view[tuple(i1)]
        tmp = stage[sel][tuple(i0)]
        tmp[...] = a
        a[...] = b
        b[...] = tmp
        return state, scratch

    if kind is GateKind.FANOUT:
        view = psi[sel]
        axes = tuple(_sub_axis(t, w, gate.controls) for t in gate.targets)
        staged = stage[sel]
        staged[...] = np.flip(view, axis=axes)
        view[...] = staged
        return state, scratch

    if kind is GateKind.PHASE:
        idx = list(sel)
        idx[_axis(gate.targets[0], w)] = 1
        psi[tuple(idx)] *= np.exp(1j * gate.theta)
        return state, scratch

    if kind in (GateKind.HADAMARD, GateKind.SINGLE_QUBIT):
        u = gate_matrix_2x2(gate)
    else:
        u = gate.matrix
    k = len(gate.targets)

    diag = np.diagonal(u)
    if not np.count_nonzero(u - np.diag(diag)):
        # diagonal block: scale each target bit pattern, skipping factors of 1
        for y in range(1 << k):
            if diag[y] != 1:
                idx = list(sel)
                for j, t in enumerate(gate.targets):
                    idx[_axis(t, w)] = (y >> j) & 1
                psi[tuple(idx)] *= diag[y]
        return state, scratch

    axes = [_sub_axis(t, w, gate.controls) for t in gate.targets]
    if not gate.controls:
        _block_einsum(psi, stage, u, axes)
        return scratch, state
    view = psi[sel]
    staged = stage[sel]
    _block_einsum(view, staged, u, axes)
    view[...] = staged
    return state, scratch


def apply_gate(state: np.ndarray, gate: Gate) -> np.ndarray:
    """Apply one gate; returns a new state, norm preserved."""
    w = state_width(state)
    high = [i for i in gate.support if i >= w]
    if high:
        raise CircuitError(f"gate touches qubit {high[0]} outside width {w}")
    out, _ = _apply(state.copy(), np.empty_like(state), gate, w)
    return out


def make_workspace(width: int) -> tuple[np.ndarray, np.ndarray]:
    """Reusable buffer pair for repeated run() calls at one width."""
    return (np.empty(1 << width, dtype=complex),
            np.empty(1 << width, dtype=complex))


def run(circuit: Circuit, initial: np.ndarray,
        workspace: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Apply the circuit's layers in order; `initial` is left untouched.

    Within a layer the gates commute by the discipline's disjointness
    guarantee, so in-layer application order is unobservable. Passing a
    `workspace` from make_workspace avoids per-call allocations; the
    returned state then aliases one of its buffers and is only valid until
    the next run with the same workspace.
    """
    if state_width(initial) != circuit.width:
        raise CircuitError(
            f"state has {state_width(initial)} qubits, circuit {circuit.width}")
    if workspace is None:
        workspace = make_workspace(circuit.width)
    state, scratch = workspace
    state[...] = initial
    for layer in circuit.layers:
        for gate in layer.gates:
            state, scratch = _apply(state, scratch, gate, circuit.width)
    return state


def unitary_of(circuit: Circuit, max_width: int = DEFAULT_UNITARY_WIDTH_CAP) -> np.ndarray:
    """Full matrix of the circuit; column j is the image of basis state j."""
    if circuit.width > max_width:
        raise WidthCapExceeded(
            f"unitary extraction capped at {max_width} qubits, circuit has {circuit.width}")
    dim = 1 << circuit.width
    u = np.empty((dim, dim), dtype=complex)
    workspace = make_workspace(circuit.width)
    column = np.zeros(dim, dtype=complex)
    for j in range(dim):
        column[j] = 1.0
        u[:, j] = run(circuit, column, workspace)
        column[j] = 0.0
    return u


@dataclass(frozen=True)
class AncillaPurityResult:
    pure: bool
    leakage: float  # probability mass on basis states with any ancilla bit set


def check_ancilla_purity(state: np.ndarray, ancillae, tol: float = PURITY_TOL) -> AncillaPurityResult:
    """Total probability of any ancilla being |1>; pure iff below `tol`.

    Zero leakage means the state factors exactly as (data state) x |0...0>
    on the ancilla block. The sum runs in place over disjoint slabs of the
    [2]*w view (ancilla k at |1>, every higher one at |0>), which are
    contiguous when the ancillae are the high qubits.
    """
    w = state_width(state)
    # real view with a trailing (re, im) axis, so |amp|^2 is a sum of squares
    psi = np.ascontiguousarray(state, dtype=complex).view(float).reshape([2] * w + [2])
    index = [slice(None)] * w
    leakage = 0.0
    for a in sorted(set(ancillae), reverse=True):
        if not 0 <= a < w:
            raise CircuitError(f"ancilla index {a} outside width {w}")
        index[_axis(a, w)] = 1
        slab = psi[tuple(index)]
        axes = list(range(slab.ndim))
        leakage += float(np.einsum(slab, axes, slab, axes, []))
        index[_axis(a, w)] = 0
    return AncillaPurityResult(leakage <= tol, leakage)


def dump_state(state: np.ndarray, threshold: float = DUMP_THRESHOLD) -> str:
    """One line per nonzero amplitude: index (binary, qubit 0 rightmost), re, im."""
    w = state_width(state)
    lines = []
    for b in np.flatnonzero(np.abs(state) > threshold):
        amp = state[b]
        lines.append(f"{b:0{w}b} {amp.real:.17g} {amp.imag:.17g}")
    return "\n".join(lines)


def relabel_qubits(array: np.ndarray, src: tuple[int, ...] | list[int]) -> np.ndarray:
    """Reorder a state or unitary so qubit i of the result is qubit src[i] of the input."""
    w = len(src)
    if sorted(src) != list(range(w)):
        raise CircuitError("src must be a permutation of 0..w-1")
    # basis index j moves to f[j]: its bit src[i] becomes bit i
    f = embed_index(np.arange(1 << w), np.argsort(src))
    if array.ndim == 1:
        out = np.empty_like(array)
        out[f] = array
        return out
    out = np.empty_like(array)
    out[np.ix_(f, f)] = array
    return out


def embed_index(index, data_qubits):
    """Full-register basis index of a data-register basis index, every other
    qubit at |0>: bit j of `index` moves to qubit data_qubits[j]. Works on a
    Python int or elementwise on an integer array."""
    out = index & 0
    for j, qb in enumerate(data_qubits):
        out = out | (((index >> j) & 1) << qb)
    return out


def data_block_unitary(u: np.ndarray, width: int, data_qubits) -> np.ndarray:
    """Restrict a full unitary to the block where all other qubits are |0>."""
    emb = embed_index(np.arange(1 << len(data_qubits)), data_qubits)
    return u[np.ix_(emb, emb)]
