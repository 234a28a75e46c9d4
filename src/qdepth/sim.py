"""
State-vector simulation on two engines, and ancilla-purity analysis.

The dense engine (run) holds a state as a plain complex128 numpy array of
length 2^m, unit norm, in little-endian basis order: qubit 0 is the least
significant bit of the basis index. Gate application is out of place; the
caller keeps the input state. A gate touches only the slab of the state,
reshaped to [2]*m, where its controls fire, through one of three kernels:
permutation (X, CNOT, Toffoli, fanout, MODQ), diagonal (PHASE, diagonal
u/cu) or dense block (H, u, cu), which is one np.matmul of the slab,
staged in scratch with the target axes last unless they already form a
stack of block-sized matrices. Beyond the workspace pair a gate allocates
a few KiB of numpy bookkeeping, except that MODQ builds its 2^inputs count
and mask, and the diagonal kernel's strided in-place scale takes numpy
iterator buffers of up to 256 KiB (0.13x the state for a one-control
3-qubit diagonal block at 16 qubits).

The sparse engine (run_basis) drives many basis inputs at once as rows of
(input id, basis index, amplitude), with the same three gate classes: a
permutation XORs the rows' indices, a diagonal block scales their
amplitudes and a dense block expands each row it acts on into 2^k rows,
then merges rows with equal (id, index). It prunes exact zeros only, and
gives up as soon as it would hold more than 2^m rows, the amplitude count
of one dense state.

A state is owned by one execution context while being advanced; read-only
states may be shared freely.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ir import Circuit, CircuitError, Gate, GateKind, block_matrix

UNITARY_WIDTH_CAP = 12
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


def _slab(gate: Gate, width: int) -> tuple:
    """Index of the slab where the gate's controls fire. Control axes get
    length-1 slices, so the slab keeps every axis where _axis puts it.
    MODQ counts its inputs rather than requiring them: its slab is all."""
    idx = [slice(None)] * width
    if gate.kind is not GateKind.MODQ:
        for c in gate.controls:
            v = 0 if c in gate.negated else 1
            idx[_axis(c, width)] = slice(v, v + 1)
    return tuple(idx)


def _fires(gate: Gate) -> np.ndarray:
    """Where a MODQ gate flips its target, on the [2]*k view of qubits
    0..k-1: an input count that is not a multiple of q. Qubit c is axis
    -1-c, so each input bit has shape (2, 1, ..., 1) with c ones; the
    count broadcasts over 2^inputs entries, not 2^k."""
    count = sum((np.arange(2) ^ (c in gate.negated)).reshape((2,) + (1,) * c)
                for c in gate.controls)
    return count % gate.q != 0


_FLIP_KINDS = frozenset({GateKind.PAULI_X, GateKind.CNOT, GateKind.TOFFOLI,
                         GateKind.FANOUT, GateKind.MODQ})


def _diagonal(u: np.ndarray) -> np.ndarray | None:
    """The diagonal of a block matrix that has no other nonzero entry."""
    d = np.diagonal(u)
    return None if np.count_nonzero(u - np.diag(d)) else d


def _dense_block(state: np.ndarray, scratch: np.ndarray, view: np.ndarray,
                 staged: np.ndarray, u: np.ndarray, gate: Gate,
                 w: int) -> tuple[np.ndarray, np.ndarray]:
    """Multiply the slab `view` of `state` by u on the gate's targets (bit
    j of the block index on target j); `staged` is the same slab of
    scratch. Returns the (state, scratch) pair as _apply does."""
    k, lo = len(gate.targets), min(gate.targets)
    if (gate.targets == tuple(range(lo, lo + k)) and lo + k >= 6
            and min(gate.controls, default=w) > lo):
        # The slab already is a stack of [2^k, 2^lo] matrices: one matmul
        # multiplies each in place of staging. Below 64 amplitudes per
        # matrix the per-matrix BLAS calls cost more than staging does.
        shape = view.shape[:w - lo - k] + (1 << k, 1 << lo)
        np.matmul(u, view.reshape(shape), out=staged.reshape(shape))
        if not gate.controls:
            return scratch, state
        view[...] = staged
        return state, scratch
    # Stage the slab into scratch with the targets innermost, bit 0 last,
    # so the product is one [rows, 2^k] x [2^k, 2^k] matmul. It lands in
    # the half of scratch a controlled slab leaves free, or, for the whole
    # state, in the state itself, whose contents are staged already.
    src, dst = [_axis(t, w) for t in reversed(gate.targets)], range(w - k, w)
    moved = np.moveaxis(view, src, dst)
    m = moved.size
    rows = scratch[:m].reshape(moved.shape)
    rows[...] = moved
    product = scratch[m:2 * m] if gate.controls else state
    np.matmul(rows.reshape(-1, 1 << k), u.T, out=product.reshape(-1, 1 << k))
    home = view if gate.controls else staged
    np.moveaxis(home, src, dst)[...] = product.reshape(moved.shape)
    return (state, scratch) if gate.controls else (scratch, state)


def _apply(state: np.ndarray, scratch: np.ndarray, gate: Gate,
           w: int) -> tuple[np.ndarray, np.ndarray]:
    """Advance `state` by one gate, using `scratch` for staging.

    Returns the (state, scratch) pair, swapped when the result landed in
    the scratch buffer. One of three kernels runs:

    - diagonal (PHASE, and any block_matrix that is diagonal): each target
      bit pattern is scaled in place, skipping factors of 1;
    - permutation (X, CNOT, Toffoli, fanout, MODQ): the slab flipped on
      the target axes is staged in scratch;
    - dense block (H, u, cu): one np.matmul (BLAS) by the block matrix.
      When the targets are in order, reach qubit 5 or above and have no
      control below them, it runs on the slab as a stack of [2^k, 2^lo]
      matrices, writing to scratch. Otherwise the slab is first staged
      in scratch with its target axes last, and the product lands in the
      free half of scratch or, for an uncontrolled gate, in the state.

    A result in scratch is copied back where the gate fires: everywhere,
    or where MODQ's input count is not a multiple of q. An uncontrolled
    gate's slab is the whole state, so the buffers swap instead.

    Beyond the pair, MODQ allocates its 2^inputs mask, and the diagonal
    kernel numpy's iterator buffers (up to 256 KiB).
    """
    psi = state.reshape([2] * w)
    sel = _slab(gate, w)
    axes = tuple(_axis(t, w) for t in gate.targets)
    u = None if gate.kind in _FLIP_KINDS else block_matrix(gate)
    diag = None if u is None else _diagonal(u)
    if diag is not None:
        for y, d in enumerate(diag):
            if d != 1:
                idx = list(sel)
                for j, ax in enumerate(axes):
                    idx[ax] = (y >> j) & 1
                psi[tuple(idx)] *= d
        return state, scratch

    view, staged = psi[sel], scratch.reshape([2] * w)[sel]
    if u is not None:
        return _dense_block(state, scratch, view, staged, u, gate, w)
    staged[...] = np.flip(view, axes)
    if not gate.controls:  # the whole result is in scratch
        return scratch, state
    fires = _fires(gate) if gate.kind is GateKind.MODQ else True
    np.copyto(view, staged, where=fires)
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
    """Reusable buffer pair for repeated run() calls at one width.

    The second buffer starts 2 KiB past a multiple of 4 KiB from the first:
    kernels read one while writing the other, and a load that aliases a
    recent store modulo 4 KiB stalls. Left to malloc, one 17-qubit circuit
    took 1.34 or 1.81 ms per run (Intel Xeon), by the pair's offset.
    """
    n = 1 << width
    first, second = np.empty(n, dtype=complex), np.empty(n + 256, dtype=complex)
    skip = (first.ctypes.data - second.ctypes.data + 2048) % 4096 // 16
    return first, second[skip:skip + n]


def run(circuit: Circuit, initial: np.ndarray,
        workspace: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Apply the circuit's layers in order; `initial` is left untouched.

    Within a layer the gates commute by the discipline's disjointness
    guarantee, so in-layer application order is unobservable. Passing a
    `workspace` from make_workspace avoids per-call state allocations; the
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


Rows = tuple[np.ndarray, np.ndarray, np.ndarray]  # (input id, basis index, amplitude)


def merge_rows(ids: np.ndarray, index: np.ndarray, amps: np.ndarray,
               width: int) -> Rows:
    """Sum the amplitudes of rows with equal (id, index) into one row each,
    sorted by id, then index. Nothing is dropped, not even a zero. The
    rows are keyed by (id << width) | index, which must fit an int64."""
    if width + int(ids.max(initial=0)).bit_length() > 63:
        raise WidthCapExceeded(f"{width}-qubit rows of {int(ids.max()) + 1} "
                               f"inputs overflow an int64 (id, index) key")
    keys, inverse = np.unique((ids << width) | index, return_inverse=True)
    re = np.bincount(inverse, amps.real, keys.size)
    im = np.bincount(inverse, amps.imag, keys.size)
    return keys >> width, keys & ((1 << width) - 1), re + 1j * im


def _row_fires(gate: Gate, index: np.ndarray) -> np.ndarray:
    """Where a gate acts on rows with these basis indices: every control
    set (a negated one clear), or for MODQ a count of them that is not a
    multiple of q."""
    controls = sum(1 << c for c in gate.controls)
    hits = (index ^ sum(1 << c for c in gate.negated)) & controls
    if gate.kind is GateKind.MODQ:
        return sum((hits >> c) & 1 for c in gate.controls) % gate.q != 0
    return hits == controls


def run_basis(circuit: Circuit, starts) -> Rows | None:
    """Run the basis inputs |starts[i]> through the circuit at once.

    Returns the rows (input id i, basis index, amplitude) that hold every
    nonzero amplitude of each input's output, one row per (i, index), in no
    set order. A permutation gate XORs its target mask into the indices of
    the rows where it fires; a diagonal block scales those rows; a dense
    block expands each firing row into 2^k rows and merges duplicates with
    merge_rows. Only exact zeros are pruned, so no amplitude is lost.
    Returns None as soon as the rows would outnumber the 2^width
    amplitudes of one dense state: run is then the cheaper engine.
    """
    w, budget = circuit.width, 1 << circuit.width
    index = np.array(starts, dtype=np.int64)
    ids, amps = np.arange(index.size), np.ones(index.size, dtype=complex)
    for gate in circuit.gates():
        fires = _row_fires(gate, index)
        mask = sum(1 << t for t in gate.targets)
        if gate.kind in _FLIP_KINDS:
            index ^= np.where(fires, mask, 0)
            continue
        u = block_matrix(gate)
        block = sum(((index >> t) & 1) << j for j, t in enumerate(gate.targets))
        diag = _diagonal(u)
        if diag is not None:
            amps *= np.where(fires, diag[block], 1)
            continue
        hit, k = np.flatnonzero(fires), len(gate.targets)
        if index.size + (hit.size << k) - hit.size > budget:
            return None
        spread = embed_index(np.arange(1 << k), gate.targets)
        new = merge_rows(np.repeat(ids[hit], 1 << k),
                         ((index[hit] & ~mask)[:, None] | spread).ravel(),
                         (amps[hit, None] * u.T[block[hit]]).ravel(), w)
        nonzero, rest = new[2] != 0, ~fires
        ids, index, amps = (np.concatenate((old[rest], fresh[nonzero]))
                            for old, fresh in zip((ids, index, amps), new))
    return ids, index, amps


def unitary_of(circuit: Circuit) -> np.ndarray:
    """Full matrix of the circuit; column j is the image of basis state j."""
    if circuit.width > UNITARY_WIDTH_CAP:
        raise WidthCapExceeded(f"unitary extraction capped at {UNITARY_WIDTH_CAP} "
                               f"qubits, circuit has {circuit.width}")
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


def check_ancilla_purity(state: np.ndarray, ancillae) -> AncillaPurityResult:
    """Total probability of any ancilla being |1>; pure iff <= PURITY_TOL.

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
    return AncillaPurityResult(leakage <= PURITY_TOL, leakage)


def dump_state(state: np.ndarray) -> str:
    """One line per nonzero amplitude: index (binary, qubit 0 rightmost), re, im."""
    w = state_width(state)
    lines = []
    for b in np.flatnonzero(np.abs(state) > DUMP_THRESHOLD):
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
