"""
State-vector simulation on two engines, and ancilla-purity analysis.

The dense engine (run) holds a state as a plain complex128 numpy array of
length 2^m, unit norm, in little-endian basis order: qubit 0 is the least
significant bit of the basis index. It runs a plan (dense_plan), built
for each circuit on its first run and kept with the circuit; the caller
keeps the input state. A layer of commuting gates is one time step, as in
the paper, and the plan takes each layer's gates by class. Each step
advances the state, reshaped to [2]*m, in one pass:

- permutation gates (X, CNOT, Toffoli, fanout, MODQ), one gate at a time:
  the slab where the controls fire, flipped on the targets, is staged in
  scratch and copied back (for an uncontrolled gate the buffers swap);
- diagonal gates (PHASE, diagonal u/cu): one in-place multiply by a
  factor tensor of at most 1/32 of the state (or 2^8 amplitudes, below
  13 qubits), which the plan keeps while its tensors stay within 1/8 of
  the state (or 2^16 amplitudes) in all, and builds on each run past that;
- dense blocks (H, u, cu), one gate at a time: one np.matmul of the slab
  where the controls fire, staged in scratch with the target axes last
  unless they already form a stack of block-sized matrices.

Affine permutation gates (X, CNOT, fanout, and MODQ with q=2, the parity)
are held back as one GF(2) affine map of the basis index, and a diagonal
gate that follows them is rewritten through the map into a factor over
the qubits the map reads. The held-back gates run, one step each in
circuit order, only when a layer with a dense block or a non-affine
permutation gate arrives, when a rewritten factor would outgrow its
tensor, or at the end, and not at all when the map composes to the
identity. So the paper's copy, diagonal, uncopy pattern costs only the
diagonal.

Beyond the workspace pair a run allocates a few KiB of numpy
bookkeeping, except that a MODQ step builds its 2^inputs count and mask.

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


class WidthCapExceeded(RuntimeError):
    """A register is too wide for a limit of the simulator: the simulation
    cap, the width of unitary extraction, or the int64 (id, index) key of
    the sparse rows. This is not a malformed request, so it is no
    CircuitError; the CLI exits 3 on it."""


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


def _slab(index: int, qubits, width: int) -> tuple:
    """Index of the slab of the [2]*width view where `qubits` hold their
    bits in the basis index `index`. Their axes get length-1 slices, so
    the slab keeps every axis where _axis puts it."""
    sel = [slice(None)] * width
    for q in qubits:
        b = (index >> q) & 1
        sel[_axis(q, width)] = slice(b, b + 1)
    return tuple(sel)


def _shape(qubits, width: int) -> list[int]:
    """A shape that broadcasts against the [2]*width view: length 2 on the
    axes of `qubits`, 1 on the others."""
    shape = [1] * width
    for q in qubits:
        shape[_axis(q, width)] = 2
    return shape


def _grid(qubits, width: int) -> np.ndarray:
    """The basis index of every setting of `qubits` (every other qubit 0),
    in _shape(qubits, width)."""
    qubits = sorted(qubits)
    return embed_index(np.arange(1 << len(qubits)), qubits).reshape(
        _shape(qubits, width))


def _on(gate: Gate) -> int:
    """The basis index whose control bits fire the gate: set, or clear
    where negated."""
    return sum(1 << c for c in gate.controls if c not in gate.negated)


_FLIP_KINDS = frozenset({GateKind.PAULI_X, GateKind.CNOT, GateKind.TOFFOLI,
                         GateKind.FANOUT, GateKind.MODQ})

# A plan keeps its factor tensors up to 1/8 of the state's amplitudes in
# all, or this many (1 MiB) on fewer than 19 qubits.
KEEP_AMPS = 1 << 16


def _diagonal(u: np.ndarray) -> np.ndarray | None:
    """The diagonal of a block matrix that has no other nonzero entry."""
    d = np.diagonal(u)
    return None if np.count_nonzero(u - np.diag(d)) else d


def _affine(gate: Gate) -> bool:
    """Whether a permutation gate is an affine map of the basis index over
    GF(2): X, CNOT and fanout, a Toffoli or MODQ on one control, or MODQ
    with q=2, which XORs the parity of its controls onto its target."""
    return (gate.kind in (GateKind.PAULI_X, GateKind.CNOT, GateKind.FANOUT)
            or (gate.kind is GateKind.MODQ and gate.q == 2)
            or (gate.kind in _FLIP_KINDS and len(gate.controls) == 1))


def _flip(state: np.ndarray, scratch: np.ndarray, gate: Gate, w: int):
    """One permutation gate (X, CNOT, Toffoli, fanout, MODQ) on its firing
    slab: the slab flipped on the target axes is staged in scratch and
    copied back where it fires (everywhere, or where MODQ's input count is
    not a multiple of q). An uncontrolled gate's slab is the whole state,
    so the buffers swap instead."""
    psi, out = state.reshape([2] * w), scratch.reshape([2] * w)
    modq = gate.kind is GateKind.MODQ
    sel = _slab(_on(gate), () if modq else gate.controls, w)
    view, staged = psi[sel], out[sel]
    staged[...] = np.flip(view, [_axis(t, w) for t in gate.targets])
    if not gate.controls:
        return scratch, state
    fires = _row_fires(gate, _grid(gate.controls, w)) if modq else True
    np.copyto(view, staged, where=fires)
    return state, scratch


def _scale_slab(state: np.ndarray, scratch: np.ndarray, pair, w: int):
    """One diagonal gate, as a (gate, diagonal) pair, in place: each target
    bit pattern of its firing slab is scaled, skipping factors of 1, with
    the small ufunc buffer that _scale explains."""
    gate, diag = pair
    psi, qubits = state.reshape([2] * w), gate.controls + gate.targets
    bufsize = np.setbufsize(512)
    try:
        for y, d in enumerate(diag):
            if d != 1:
                psi[_slab(_on(gate) | embed_index(y, gate.targets), qubits, w)] *= d
    finally:
        np.setbufsize(bufsize)
    return state, scratch


def _scale(state: np.ndarray, scratch: np.ndarray, factor: np.ndarray, w: int):
    """One in-place multiply by a factor tensor that a plan built from
    diagonal gates, broadcast over the qubits it does not span.

    numpy stages a strided or broadcast operand in buffers of bufsize
    elements, 128 KiB by default. 512 (8 KiB) keeps the allocations of a
    step below 1/16 of a 16-qubit state, and it multiplied the 20-qubit
    four-cu layer of modq-const n=4 q=5 in 1.5 ms rather than 2.0.
    """
    psi = state.reshape([2] * w)
    bufsize = np.setbufsize(512)
    try:
        psi *= factor
    finally:
        np.setbufsize(bufsize)
    return state, scratch


def _scale_built(state: np.ndarray, scratch: np.ndarray, recipe, w: int):
    """A factor tensor that the plan does not keep, as a (qubits, gates)
    recipe for _factor: built for this step and freed after it."""
    return _scale(state, scratch, _factor(*recipe, w), w)


def _dense_block(state: np.ndarray, scratch: np.ndarray, pair, w: int):
    """One (gate, u) pair: multiply the slab where the gate's controls
    fire by u on its targets (bit j of the block index on target j), with
    one np.matmul (BLAS). An uncontrolled result in scratch swaps the
    buffers; a controlled one is copied back."""
    gate, u = pair
    sel = _slab(_on(gate), gate.controls, w)
    view, staged = state.reshape([2] * w)[sel], scratch.reshape([2] * w)[sel]
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
    # (a transpose that moves the target axes last, as np.moveaxis would,
    # without its argument checks)
    src = [_axis(t, w) for t in reversed(gate.targets)]
    order = [a for a in range(w) if a not in src] + src
    moved = view.transpose(order)
    m = moved.size
    rows = scratch[:m].reshape(moved.shape)
    rows[...] = moved
    product = scratch[m:2 * m] if gate.controls else state
    np.matmul(rows.reshape(-1, 1 << k), u.T, out=product.reshape(-1, 1 << k))
    home = view if gate.controls else staged
    home.transpose(order)[...] = product.reshape(moved.shape)
    return (state, scratch) if gate.controls else (scratch, state)


class _Pending:
    """Affine permutation gates that a plan holds back, kept as the map
    they compose to: basis index x goes to P(x), whose bit j is the parity
    of x & src[j], flipped where bit j of off is set. `gates` keeps the
    gates themselves, in circuit order, for when they must run; it
    empties whenever the map composes to the identity."""

    def __init__(self, w: int):
        self.src, self.off, self.gates = [1 << j for j in range(w)], 0, []

    def push(self, gates: list) -> None:
        """Compose one layer's affine gates onto the map. No gate of a
        layer reads another's target, so the order does not matter."""
        for gate in gates:
            mask, flip = 0, (len(gate.negated) & 1) if gate.controls else 1
            for c in gate.controls:
                mask ^= self.src[c]
                flip ^= (self.off >> c) & 1
            for t in gate.targets:
                self.src[t] ^= mask
                self.off ^= flip << t
        self.gates.extend(gates)
        if not self.off and all(m == 1 << j for j, m in enumerate(self.src)):
            self.gates = []

    def terms(self, gate: Gate) -> tuple:
        """(qubit, source mask, offset bit) for each qubit of the gate:
        what bit q of P(x) is made of."""
        return tuple((q, self.src[q], (self.off >> q) & 1)
                     for q in sorted(gate.support))


def _reads(terms) -> set:
    """The qubits that the bits described by `terms` read."""
    mask = 0
    for _, source, _ in terms:
        mask |= source
    return {q for q in range(mask.bit_length()) if mask >> q & 1}


def _image(index: np.ndarray, terms) -> np.ndarray:
    """The basis index whose bit q, for each (q, source, offset) of
    `terms`, is the parity of index & source XOR offset; other bits 0."""
    out = index & 0
    for q, source, offset in terms:
        bit = offset
        for r in range(source.bit_length()):
            if source >> r & 1:
                bit = bit ^ ((index >> r) & 1)
        out = out | (bit << q)
    return out


def _factor(qubits, group, w: int) -> np.ndarray:
    """The factor tensor over `qubits` of diagonal gates, given as (gate,
    diagonal, terms) triples: each gate is evaluated at the image of the
    basis index under the map that its terms describe."""
    factor = np.ones(_shape(qubits, w), dtype=complex)
    for gate, diag, terms in group:
        image = _image(_grid(_reads(terms), w), terms)
        factor *= np.where(_row_fires(gate, image), diag[_block(gate, image)], 1)
    return factor


def _plan(layers, w: int) -> list:
    """The kernel calls that advance a state by `layers` (each a tuple of
    gates), as (kernel, argument) pairs.

    A layer's gates commute, so the plan may take them by class. Affine
    permutation gates (_affine) are held back in a _Pending map P, and a
    diagonal gate D that follows them is rewritten through P: D·P = P·D'
    with D'(x) = D(P(x)), a factor over the qubits that P reads on D's
    qubits. Held-back gates run, one _flip step each in circuit order,
    only when a dense block or a non-affine permutation arrives, when a
    rewritten factor would span more than max(w - 5, 8) qubits, or at the
    end; when P composes to the identity they are dropped. So a copy
    tree, a diagonal and the uncopy cost only the diagonal.

    Diagonal gates, rewritten or not, are packed into factor tensors over
    at most max(w - 5, 8) qubits, 1/32 of the state at 13 qubits or more;
    a gate that would overflow the open tensor closes it. A tensor of one
    gate that P leaves as it is becomes a _scale_slab step, which touches
    only its firing slab. The plan keeps its tensors, built once, up to
    KEEP_AMPS or 1/8 of the state's amplitudes in all; a tensor past that
    is a _scale_built step, built on each run and freed after it, so a
    deep circuit's plan does not grow with its depth. Every other gate
    is a step of its own: a _flip for each permutation gate, then a
    _dense_block for each dense block of the layer.
    """
    steps, pending = [], _Pending(w)
    group, held = [], set()  # the open factor: (gate, diagonal, terms)
    limit, keep = max(w - 5, 8), max((1 << w) >> 3, KEEP_AMPS)

    def close():
        nonlocal group, held, keep
        if len(group) == 1 and all(source == 1 << q and not offset
                                   for q, source, offset in group[0][2]):
            steps.append((_scale_slab, group[0][:2]))
        elif group:
            if 1 << len(held) <= keep:
                keep -= 1 << len(held)
                factor = _factor(held, group, w)
                factor.setflags(write=False)
                steps.append((_scale, factor))
            else:
                steps.append((_scale_built, (tuple(sorted(held)), tuple(group))))
        group, held = [], set()

    def flush():
        nonlocal pending
        close()
        steps.extend((_flip, gate) for gate in pending.gates)
        pending = _Pending(w)

    for gates in layers:
        flips, diagonals, blocks = [], [], []
        for gate in gates:
            if gate.kind in _FLIP_KINDS:
                flips.append(gate)
                continue
            u = block_matrix(gate)
            diag = _diagonal(u)
            if diag is None:
                blocks.append((gate, u))
            else:
                diagonals.append((gate, diag))
        deferred = not blocks and all(map(_affine, flips))
        if not deferred:
            flush()
            steps.extend((_flip, gate) for gate in flips)
            steps.extend((_dense_block, pair) for pair in blocks)
        for gate, diag in diagonals:
            terms = pending.terms(gate)
            if len(_reads(terms)) > limit and pending.gates:
                flush()
                terms = pending.terms(gate)
            reads = _reads(terms)
            if group and len(held | reads) > limit:
                close()
            group.append((gate, diag, terms))
            held |= reads
        if deferred and flips:
            pending.push(flips)
    flush()
    return steps


def _apply(state: np.ndarray, scratch: np.ndarray, steps,
           w: int) -> tuple[np.ndarray, np.ndarray]:
    """Advance `state` by the steps of a plan (see _plan), using `scratch`
    for staging. Returns the (state, scratch) pair, swapped when the
    result landed in the scratch buffer.

    Each step is one state pass: one permutation gate (_flip), a factor
    tensor (_scale, or _scale_built for one the plan does not keep) or a
    lone diagonal gate on its firing slab (_scale_slab), or one dense
    block (_dense_block). Beyond the pair, a step allocates a few KiB of
    numpy bookkeeping, except that a MODQ gate builds its 2^inputs count
    and mask and _scale_built its tensor.
    """
    for kernel, arg in steps:
        state, scratch = kernel(state, scratch, arg, w)
    return state, scratch


def dense_plan(circuit: Circuit) -> list:
    """The circuit's plan for the dense engine (see _plan). It is built on
    the first call and then kept on the circuit, so it is freed with it.
    Two threads that ask at once may each build it; either plan serves."""
    plan = vars(circuit).get("_dense_plan")
    if plan is None:
        plan = _plan([layer.gates for layer in circuit.layers], circuit.width)
        object.__setattr__(circuit, "_dense_plan", plan)
    return plan


def apply_gate(state: np.ndarray, gate: Gate) -> np.ndarray:
    """Apply one gate, as the plan of a one-gate layer; returns a new
    state, norm preserved."""
    w = state_width(state)
    high = [i for i in gate.support if i >= w]
    if high:
        raise CircuitError(f"gate touches qubit {high[0]} outside width {w}")
    out, _ = _apply(state.copy(), np.empty_like(state), _plan([(gate,)], w), w)
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

    The state advances by the steps of the circuit's plan (dense_plan),
    built on its first run. The plan takes each layer's gates by class:
    one step per permutation gate and per dense block, and the diagonal
    gates packed into factor tensors. It holds copy trees back and pushes
    them through diagonal gates. That is safe because Circuit validates every layer: a gate's target is
    touched by no other gate of the layer, and under WITH_FANOUT gates
    share only controls, which no gate changes. So the gates of a layer
    commute, and any order or grouping gives the same state. Passing a
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
    state, _ = _apply(state, scratch, dense_plan(circuit), circuit.width)
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
    """Where a gate acts on these basis indices: every control set (a
    negated one clear), or for MODQ a count of them that is not a
    multiple of q."""
    controls = sum(1 << c for c in gate.controls)
    hits = (index ^ sum(1 << c for c in gate.negated)) & controls
    if gate.kind is GateKind.MODQ:
        return sum((hits >> c) & 1 for c in gate.controls) % gate.q != 0
    return hits == controls


def _block(gate: Gate, index: np.ndarray) -> np.ndarray:
    """The block index of each basis index: bit j is target j's bit."""
    return sum(((index >> t) & 1) << j for j, t in enumerate(gate.targets))


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
        block = _block(gate, index)
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
