"""
State-vector simulation on two engines, and ancilla-purity analysis.

The dense engine holds a state as a plain complex128 numpy array of
length 2^m, unit norm, in little-endian basis order: qubit 0 is the least
significant bit of the basis index. run is its one entry: apply_gate runs
a circuit of one gate through it, and unitary_of its basis states, a
batch at a time. It runs a plan (_dense_plan), built for each circuit on
its first run and kept with the circuit; the caller keeps the input
state. A layer of commuting gates is one time step, as in the paper, and
the plan takes each layer's gates by class. A run applies the plan to its
live qubits (see below), and each step advances the held state in one
pass:

- permutation gates (X, CNOT, Toffoli, fanout, MODQ), one gate at a time:
  the slab where the controls fire, flipped on the targets, is staged in
  scratch and copied back (for an uncontrolled gate the buffers swap);
- diagonal gates (PHASE, diagonal u/cu): one in-place multiply of a
  slab by a factor tensor of at most 1/32 of the state (or 2^8
  amplitudes, below 13 qubits), built on the run's live qubits for its
  step and freed after it; a lone gate's slab is where it fires, and
  its factor its diagonal on its other targets;
- dense blocks (H, u, cu), one gate at a time: one np.matmul of the slab
  where the controls fire, staged in scratch with the target axes last
  unless they already form a stack of block-sized matrices.

Affine permutation gates (X, CNOT, fanout, and MODQ with q=2, the parity)
are held back as one GF(2) affine map of the basis index, an offset and
one column per qubit, kept as one row mask per qubit: x goes to the
offset XOR the columns of its set bits. A diagonal gate that follows
them is rewritten through the map into a factor over the qubits whose
columns reach its own, evaluated on the grid that the offset spans over
those columns by doubling. The held-back gates run, one step each in
circuit order, only when a layer with a dense block or a non-affine
permutation gate arrives, when a rewritten factor would outgrow its
tensor, or at the end, and not at all when the map composes to the
identity. So the paper's copy, diagonal, uncopy pattern costs only the
diagonal.

A run holds only the live qubits: those that the input holds and those
that a step moves (permutation and dense-block targets). Every other
qubit is idle and holds 0 for the whole run, since a diagonal step never
changes a basis index. The plan runs on the 2^live amplitudes where the
idle qubits are 0, each on a length-1 axis, with its own gates: an idle
control's slab is empty when plain (the gate never fires) and whole when
negated, and an idle MODQ input reads 0. Factor tensors are built on the
live axes alone. An input says which qubits it holds by its shape: in
the shaped form, one axis per qubit, of length 2 where it is held and 1
where it is idle, qubit q on axis -1 - q (held_shape; held_qubits reads
the qubits back), run takes and returns the held slab alone, so a
data-register superposition of modq-const n=4 q=5 touches 2^8 of its
2^20 amplitudes, input to output. Bit j of the slab's index is the j-th
held qubit (compact_index of a basis index; embed_index maps it back). A
flat input of 2^m amplitudes holds every qubit. A batch of shaped states
that hold the same qubits, stacked on one more leading axis, is one run:
each step acts on every state of the batch at once.

Beyond the workspace pair a run allocates a few KiB of numpy
bookkeeping, except that a MODQ step builds its 2^inputs count and mask
and a diagonal step its factor tensor.

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

from .ir import FLIP_KINDS, Circuit, CircuitError, Discipline, Gate, GateKind, Role, block_matrix

UNITARY_WIDTH_CAP = 12
PURITY_TOL = 1e-10
DUMP_THRESHOLD = 1e-14


class WidthCapExceeded(RuntimeError):
    """A register is too wide for a limit of the simulator (the simulation
    cap, the 63-qubit ceiling, unitary extraction's or the dense gate
    oracle's width), or an array would outgrow numpy's largest (check_size).
    Not a malformed request, so no CircuitError; the CLI exits 3 on it."""


def check_ceiling(width: int) -> None:
    """Raise WidthCapExceeded past the simulator's 63-qubit ceiling, the
    bits of an int64 basis index (a batch then has its axis in numpy's 64)."""
    if width > 63:
        raise WidthCapExceeded(f"{width}-qubit register exceeds the simulator's 63-qubit ceiling")


def check_size(count: int, dtype, what: str) -> None:
    """Raise WidthCapExceeded if `count` entries of `dtype` outgrow the largest numpy array."""
    if count * np.dtype(dtype).itemsize > np.iinfo(np.intp).max:
        raise WidthCapExceeded(f"{what} exceeds the largest numpy array")


def state_width(state: np.ndarray) -> int:
    m = int(state.size).bit_length() - 1
    if state.ndim != 1 or state.size != 1 << m:
        raise CircuitError(f"state length {state.size} is not a power of two")
    return m


def _view_shape(state: np.ndarray, width: int | None = None, lead: int = 0) -> list[int]:
    """The shape a state is viewed in: [2]*m for a flat 2^m vector, else its
    own (run's shaped form), each axis of length 2 (held) or 1 (idle, at 0),
    after `lead` leading axes of any length (a batch). With its `width`
    known, a 1-D state is flat unless the width is 1, where both forms are
    one axis; so a flat 0-qubit state, shape (1,), stays flat. With none, a
    state is shaped unless it has one axis of length other than 1: shape
    (1,) is read as one idle qubit, since as a flat 0-qubit state it would
    hold the same amplitude, and shape () as 0 qubits."""
    if width is None:
        shaped = state.ndim != 1 or state.shape == (1,)
    else:
        shaped = state.ndim != 1 or width == 1
    if not shaped:
        return [2] * state_width(state)
    if not set(state.shape[lead:]) <= {1, 2}:
        raise CircuitError(f"state shape {state.shape} has an axis of length other than 1 or 2")
    return list(state.shape)


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


def _slab(index: int, qubits, width: int) -> tuple:
    """Index of the slab of the [2]*width view where `qubits` hold their
    bits in the basis index `index`. Their axes get length-1 slices, so
    the slab keeps every axis where it was."""
    sel = [slice(None)] * width
    for q in qubits:
        b = (index >> q) & 1
        sel[-1 - q] = slice(b, b + 1)
    return tuple(sel)


def held_shape(qubits, width: int) -> list[int]:
    """The shape of run's shaped form for a state that holds `qubits`: 2 on
    their axes, 1 on the others, qubit q on axis -1 - q. It broadcasts
    against the [2]*width view. held_qubits is its inverse."""
    shape = [1] * width
    for q in qubits:
        shape[-1 - q] = 2
    return shape


def held_qubits(shape, width: int) -> list[int]:
    """The qubits, ascending, that run's shaped form `shape` holds: those
    whose axis, counted from the last past any batch axis, has length 2."""
    return [q for q in range(width) if shape[-1 - q] == 2]


def _grid(qubits, shape: list) -> np.ndarray:
    """The basis index of every setting of those of `qubits` held in `shape`
    (a batch axis is none), every other qubit 0, in held_shape over them."""
    held = sorted(set(qubits).intersection(held_qubits(shape, len(shape))))
    return _span(0, [1 << q for q in held]).reshape(held_shape(held, len(shape)))


def _on(gate: Gate) -> int:
    """The basis index whose control bits fire the gate: set, or clear
    where negated."""
    return sum(1 << c for c in gate.controls if c not in gate.negated)


# A batch of states in one run (verify's superpositions and dense
# fallback, unitary_of's columns) holds this many amplitudes (1 MiB), or
# one state where that is more: more per run measured slower, as the
# batch leaves cache.
KEEP_AMPS = 1 << 16


def _diagonal(u: np.ndarray) -> np.ndarray | None:
    """The diagonal of a block matrix that has no other nonzero entry."""
    d = np.diagonal(u)
    return None if np.count_nonzero(u - np.diag(d)) else d


def _affine(gate: Gate) -> bool:
    """Whether a permutation gate is an affine map of the basis index over
    GF(2): X, CNOT and fanout, a Toffoli or MODQ on one control, or MODQ
    with q=2, which XORs the parity of its controls onto its target."""
    return gate.kind in FLIP_KINDS and (
        len(gate.controls) <= 1 or (gate.kind is GateKind.MODQ and gate.q == 2))


def _flip(state: np.ndarray, scratch: np.ndarray, gate: Gate, shape: list):
    """One permutation gate (X, CNOT, Toffoli, fanout, MODQ) on its firing
    slab of the state viewed in `shape`: the slab flipped on the target
    axes is staged in scratch and copied back where it fires (everywhere,
    or where MODQ's input count, an idle input read as 0, is not a multiple
    of q). A gate other than MODQ whose slab is the whole state swaps the
    buffers instead."""
    w = len(shape)
    psi, out = state.reshape(shape), scratch.reshape(shape)
    modq = gate.kind is GateKind.MODQ
    sel = _slab(_on(gate), () if modq else gate.controls, w)
    view, staged = psi[sel], out[sel]
    staged[...] = np.flip(view, [-1 - t for t in gate.targets])
    if view.size == state.size and not modq:
        return scratch, state
    fires = _row_fires(gate, _grid(gate.controls, shape)) if modq else True
    np.copyto(view, staged, where=fires)
    return state, scratch


def _scale(state: np.ndarray, scratch: np.ndarray, step, shape: list):
    """One in-place multiply of the step's slab of the state viewed in
    `shape`, where its `fixed` qubits hold their bits in `on` (empty where
    an idle one is at 1), by the factor tensor that its recipe (qubits,
    group, w) builds on the live qubits (held_qubits), freed after it."""
    qubits, group, w, on, fixed = step
    live = held_qubits(shape, w)
    view = state.reshape(shape)[(..., *_slab(on, fixed, w))]  # after any batch axis
    view *= _factor(qubits, group, w, live)  # psi[slab] *= would write back in a second pass
    return state, scratch


def _dense_block(state: np.ndarray, scratch: np.ndarray, pair, shape: list):
    """One (gate, u) pair: multiply the slab of the state viewed in `shape`
    where the gate's controls fire by u on its targets (bit j of the block
    index on target j), with one np.matmul (BLAS). A result in scratch swaps
    the buffers when the slab is the whole state, else it is copied back."""
    gate, u = pair
    w = len(shape)
    sel = _slab(_on(gate), gate.controls, w)
    view, staged = state.reshape(shape)[sel], scratch.reshape(shape)[sel]
    if not view.size:  # a plain control on an idle qubit: the gate never fires
        return state, scratch
    whole = view.size == state.size
    k, lo = len(gate.targets), min(gate.targets)
    if (gate.targets == tuple(range(lo, lo + k)) and min(gate.controls, default=w) > lo
            and np.prod(shape[w - lo - k:]) >= 64):
        # The slab already is a stack of [2^k, 2^lo] matrices, less idle
        # axes: one matmul multiplies each in place of staging. Below 64
        # held amplitudes per matrix, BLAS calls cost more than staging.
        stack = view.shape[:w - lo - k] + (1 << k, -1)
        np.matmul(u, view.reshape(stack), out=staged.reshape(stack))
        if whole:
            return scratch, state
        view[...] = staged
        return state, scratch
    # Stage the slab into scratch with the targets innermost, bit 0 last,
    # so the product is one [rows, 2^k] x [2^k, 2^k] matmul. It lands in
    # the half of scratch a partial slab leaves free, or, for the whole
    # state, in the state itself, whose contents are staged already.
    # (a transpose that moves the target axes last, as np.moveaxis would,
    # without its argument checks)
    src = [-1 - t for t in reversed(gate.targets)]
    order = [a for a in range(-w, 0) if a not in src] + src
    moved = view.transpose(order)
    m = moved.size
    rows = scratch[:m].reshape(moved.shape)
    rows[...] = moved
    product = state if whole else scratch[m:2 * m]
    np.matmul(rows.reshape(-1, 1 << k), u.T, out=product.reshape(-1, 1 << k))
    home = staged if whole else view
    home.transpose(order)[...] = product.reshape(moved.shape)
    return (scratch, state) if whole else (state, scratch)


class _Pending:
    """Affine permutation gates that a plan holds back, kept as the map
    they compose to: basis index x goes to P(x), the offset `off` XOR
    column r for each set bit r of x. The map is kept by rows, one per
    qubit: bit r of rows[q] is bit q of column r. So a gate reads and
    writes only its own qubits' rows, and building a plan is linear in its
    gates. `gates` keeps the gates themselves, in circuit order, for when
    they must run; it empties whenever the map composes to the identity."""

    def __init__(self, w: int):
        self.identity = [1 << q for q in range(w)]
        self.off, self.rows, self.gates = 0, self.identity.copy(), []

    def push(self, gates: list) -> None:
        """Compose one layer's affine gates onto the map: each flips its
        targets in each column, and in the offset, where its controls'
        parity is 1; a CNOT c -> t is rows[t] ^= rows[c]. The offset's
        parity also counts the negated controls, and is 1 for an
        uncontrolled X. No gate of a layer reads another's target."""
        for gate in gates:
            flips = 0  # the columns where the controls' parity is 1
            for c in gate.controls:
                flips ^= self.rows[c]
            for t in gate.targets:
                self.rows[t] ^= flips
            controls = sum(1 << c for c in gate.controls)
            if ((self.off & controls).bit_count() + len(gate.negated) + (not gate.controls)) & 1:
                self.off ^= sum(1 << t for t in gate.targets)
        self.gates.extend(gates)
        if not self.off and self.rows == self.identity:
            self.gates = []

    def terms(self, gate: Gate) -> tuple:
        """The map cut to the gate's qubits: (offset, ((r, column), ...))
        over the qubits r that those bits of P(x) read, in ascending order,
        each column the transpose of the gate's own rows."""
        support = sorted(gate.support)
        reads, cols = 0, []
        for q in support:
            reads |= self.rows[q]
        while reads:
            r = (reads & -reads).bit_length() - 1
            cols.append((r, sum(1 << q for q in support if self.rows[q] >> r & 1)))
            reads &= reads - 1
        return self.off & sum(1 << q for q in support), tuple(cols)


def _span(off: int, cols) -> np.ndarray:
    """off XOR every subset of `cols`, by doubling: entry i takes cols[j]
    for each set bit j of i. So with cols[j] = 1 << qubits[j] it maps a
    register index to the basis index that holds its bits on `qubits`."""
    out = np.array([off], dtype=np.int64)
    for col in cols:
        out = np.concatenate((out, out ^ col))
    return out


def _factor(qubits, group, w: int, live) -> np.ndarray:
    """The factor tensor over `qubits` of diagonal gates, given as (gate,
    diagonal, terms) triples: each gate is evaluated at the image of the
    basis index under the map that its terms (_Pending.terms) describe,
    spanned from the offset over the columns of the live qubits it reads.
    Every qubit not in `live` is taken at 0, on a length-1 axis: the
    tensor is the one on all w qubits sliced to where the idle qubits are
    0. A lone gate's terms hold its firing bits in the offset (_plan)."""
    factor = np.ones(held_shape(set(qubits).intersection(live), w), dtype=complex)
    for gate, diag, (off, cols) in group:
        cols = [(r, col) for r, col in cols if r in live]
        image = _span(off, [col for _, col in cols]).reshape(held_shape([r for r, _ in cols], w))
        factor *= np.where(_row_fires(gate, image), diag[compact_index(image, gate.targets)], 1)
    return factor


def _plan(layers, w: int) -> list:
    """The kernel calls that advance a state by `layers` (each a tuple of
    gates), as (kernel, argument) pairs for _apply.

    A layer's gates commute, so the plan may take them by class. Affine
    permutation gates (_affine) are held back in a _Pending map P, and a
    diagonal gate D that follows them is rewritten through P: D·P = P·D'
    with D'(x) = D(P(x)), a factor over the qubits whose columns of P
    reach D's qubits (_Pending.terms). Held-back gates run, one _flip
    step each in circuit order, only when a dense block or a non-affine
    permutation arrives, when a rewritten factor would span more than
    max(w - 5, 8) qubits, or at the end; when P composes to the identity
    they are dropped. So a copy tree, a diagonal and the uncopy cost only
    the diagonal.

    Diagonal gates, rewritten or not, are packed into factors over at
    most max(w - 5, 8) qubits, 1/32 of the state at 13 qubits or more; a
    gate that would overflow the open factor closes it. A factor is a
    _scale step whose argument is its recipe, the (qubits, group) that
    _factor reads, each gate with its terms, the width w, and its slab:
    its `fixed` qubits at their bits in `on`. A factor of one gate that P
    leaves alone fixes the bits where that gate fires, its controls and
    the target at 1 of PHASE, z or s, in its terms' offset. The plan builds
    no tensor, and a run builds each on its own live qubits. Every other
    gate is a step of its own: a _flip for each permutation gate, then a
    _dense_block for each dense block of the layer.
    """
    steps, pending = [], _Pending(w)
    group, held = [], set()  # the open factor: (gate, diagonal, terms)
    limit = max(w - 5, 8)

    def close():
        nonlocal group, held
        on, fixed = 0, ()
        if len(group) == 1 and group[0][2] == (0, tuple((q, 1 << q) for q in sorted(held))):
            gate, diag, _ = group[0]  # a lone gate that P leaves alone
            fixed = gate.controls + (gate.targets if diag.size == 2 and diag[0] == 1 else ())
            on = sum(1 << q for q in fixed if q not in gate.negated)  # where it fires
            held -= set(fixed)
            group = [(gate, diag, (on, tuple((t, 1 << t) for t in sorted(held))))]
        if group:
            steps.append((_scale, (tuple(sorted(held)), tuple(group), w, on, fixed)))
        group, held = [], set()

    def flush():
        nonlocal pending
        close()
        steps.extend((_flip, gate) for gate in pending.gates)
        pending = _Pending(w)

    for gates in layers:
        flips, diagonals, blocks = [], [], []
        for gate in gates:
            if gate.kind in FLIP_KINDS:
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
            if len(terms[1]) > limit and pending.gates:
                flush()
                terms = pending.terms(gate)
            reads = {r for r, _ in terms[1]}
            if group and len(held | reads) > limit:
                close()
            group.append((gate, diag, terms))
            held |= reads
        if deferred and flips:
            pending.push(flips)
    flush()
    return steps


def _apply(state: np.ndarray, scratch: np.ndarray, steps,
           shape: list) -> tuple[np.ndarray, np.ndarray]:
    """Advance `state`, viewed in `shape`, by the steps of a plan (_plan),
    using `scratch` for staging; a step with a plain control on an idle
    qubit (a length-1 axis) has an empty slab and does nothing. Returns
    the (state, scratch) pair, swapped when the result landed in scratch.

    Each step is one state pass: one permutation gate (_flip), a factor
    on a slab (_scale), or one dense block (_dense_block). Beyond the
    pair, a step allocates a few KiB of numpy bookkeeping, except that a
    MODQ gate builds its 2^inputs count and mask and a factor its tensor.

    numpy stages a strided or broadcast operand in buffers of bufsize
    elements, 128 KiB by default. 512 (8 KiB) keeps the allocations of a
    step below 1/16 of a 16-qubit state, and it multiplied the 20-qubit
    four-cu layer of modq-const n=4 q=5 in 1.5 ms rather than 2.0.
    """
    bufsize = np.setbufsize(512)
    try:
        for kernel, arg in steps:
            state, scratch = kernel(state, scratch, arg, shape)
    finally:
        np.setbufsize(bufsize)
    return state, scratch


def _dense_plan(circuit: Circuit) -> tuple[list, int]:
    """The circuit's plan for the dense engine (see _plan), and the qubits,
    as a bit mask, that every run of it holds: the targets of the plan's
    _flip and _dense_block steps, the only steps that change a basis
    index. Both are built on the first call and then kept on the circuit,
    so they are freed with it. Two threads that ask at once may each build
    them; either pair serves."""
    kept = vars(circuit).get("_dense_plan")
    if kept is None:
        plan, pinned = _plan([layer.gates for layer in circuit.layers], circuit.width), 0
        for kernel, arg in plan:
            if kernel is _flip or kernel is _dense_block:
                pinned |= sum(1 << t for t in (arg if kernel is _flip else arg[0]).targets)
        kept = plan, pinned
        object.__setattr__(circuit, "_dense_plan", kept)
    return kept


def apply_gate(state: np.ndarray, gate: Gate) -> np.ndarray:
    """Apply one gate to a flat state: run on a circuit of that one gate;
    returns a new state, norm preserved."""
    w = state_width(state)
    return run(Circuit(w, (Role.INPUT,) * w, ((gate,),), Discipline.WITH_FANOUT), state)


def make_workspace(width: int) -> tuple[np.ndarray, np.ndarray]:
    """Reusable buffer pair of 2^width amplitudes each, for repeated run()
    calls that hold at most that many: 2^live for each state of a batch,
    and a flat input holds every qubit of the circuit (see check_size)."""
    check_size(1 << width, complex, f"a workspace of 2^{width} amplitudes")
    return np.empty(1 << width, dtype=complex), np.empty(1 << width, dtype=complex)


def live_qubits(circuit: Circuit, held) -> tuple[int, ...]:
    """The qubits that a run of the circuit holds when its input holds
    `held`: those, and the qubits that its plan moves (_dense_plan's mask)."""
    pinned, held = _dense_plan(circuit)[1], set(held)
    return tuple(q for q in range(circuit.width) if q in held or pinned >> q & 1)


def run(circuit: Circuit, initial: np.ndarray,
        workspace: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Apply the circuit's layers in order; `initial` is left untouched.
    This is the dense engine's one entry: apply_gate is one gate through
    it, and unitary_of runs the basis states through it in batches.

    The state advances by the steps of the circuit's plan (_dense_plan),
    built on its first run. The plan takes each layer's gates by class:
    one step per permutation gate and per dense block, and the diagonal
    gates packed into factors. It holds copy trees back and pushes them
    through diagonal gates. That is safe because Circuit validates every
    layer: a gate's target is touched by no other gate of the layer, and
    under WITH_FANOUT gates share only controls, which no gate changes.
    So the gates of a layer commute, and any order or grouping gives the
    same state.

    `initial` is flat, 2^width amplitudes, which hold every qubit, or in
    the shaped form, held_shape(qubits, width); for a 1-qubit circuit both
    are one axis, and shape (1,) leaves it idle. A batch of B states that
    hold the same qubits is (B, *held_shape(qubits, width)) (for a 1-qubit
    circuit, (B, 2) or (B, 1)). The states advance together, each kernel
    acting on all of them, and come back as (B, *held_shape(live, width)).

    A run holds its live qubits (live_qubits): the held ones and those the
    plan moves. The circuit keeps its plan alone, for every live set; each
    factor is built on the run's live qubits for its step and freed after
    it. `initial`, with 0 where it leaves a moved qubit idle, is copied
    into the first B * 2^live amplitudes of the workspace and advanced
    there in held_shape(live, width), and comes back in the form it came
    in. Passing a `workspace` from make_workspace avoids per-call state
    allocations; the returned state then aliases one of its buffers and is
    only valid until the next run with the same workspace. A workspace too
    small for the run raises CircuitError.
    """
    w = circuit.width
    lead = int(w > 0 and initial.ndim == w + 1)  # 1 for a batch on axis 0
    shape = _view_shape(initial, w, lead)
    if len(shape) != w + lead:
        raise CircuitError(f"state has {len(shape)} qubits, circuit {w}")
    if not initial.size:
        raise CircuitError("a batch of no state")
    plan = _dense_plan(circuit)[0]
    live = live_qubits(circuit, held_qubits(shape, w))
    batch = shape[0] if lead else 1
    core, n = shape[:lead] + held_shape(live, w), batch << len(live)
    state, scratch = workspace or make_workspace(len(live) + (batch - 1).bit_length())
    if min(state.size, scratch.size) < n:
        raise CircuitError(f"workspace of {min(state.size, scratch.size)} amplitudes "
                           f"cannot hold the run's {n}")
    held, src = state[:n], initial.reshape(shape)
    if src.size < n:  # moved qubits that the input leaves idle: pad at 0
        held[...] = 0
    held.reshape(core)[tuple(map(slice, src.shape))] = src
    out, _ = _apply(held, scratch[:n], plan, core)
    return out.reshape(core) if initial.ndim == w + lead else out


Rows = tuple[np.ndarray, np.ndarray, np.ndarray]  # (input id, basis index, amplitude)


def merge_rows(ids: np.ndarray, index: np.ndarray, amps: np.ndarray) -> Rows:
    """Sum the amplitudes of rows with equal (id, index) into one row each,
    sorted by id, then index. Nothing is dropped, not even a zero. The sort
    is stable, so each sum adds its rows in the order given."""
    order = np.lexsort((index, ids))
    ids, index, amps = ids[order], index[order], amps[order]
    first = np.ones(ids.size, dtype=bool)
    first[1:] = (ids[1:] != ids[:-1]) | (index[1:] != index[:-1])
    group = np.cumsum(first) - 1  # dense, so bincount gives one sum per group
    return (ids[first], index[first],
            np.bincount(group, amps.real) + 1j * np.bincount(group, amps.imag))


def _row_fires(gate: Gate, index: np.ndarray) -> np.ndarray:
    """Where a gate acts on these basis indices: every control set (a
    negated one clear), or for MODQ a count of them that is not a
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
    amplitudes of one dense state: run is then the cheaper engine. Past
    the 63-qubit ceiling (check_ceiling) it raises WidthCapExceeded.
    """
    check_ceiling(circuit.width)
    budget = 1 << circuit.width
    index = np.array(starts, dtype=np.int64)
    ids, amps = np.arange(index.size), np.ones(index.size, dtype=complex)
    for gate in circuit.gates():
        fires = _row_fires(gate, index)
        mask = sum(1 << t for t in gate.targets)
        if gate.kind in FLIP_KINDS:
            index ^= np.where(fires, mask, 0)
            continue
        u = block_matrix(gate)
        block = compact_index(index, gate.targets)
        diag = _diagonal(u)
        if diag is not None:
            amps *= np.where(fires, diag[block], 1)
            continue
        hit, k = np.flatnonzero(fires), len(gate.targets)
        if index.size + (hit.size << k) - hit.size > budget:
            return None
        spread = _span(0, [1 << t for t in gate.targets])
        new = merge_rows(np.repeat(ids[hit], 1 << k),
                         ((index[hit] & ~mask)[:, None] | spread).ravel(),
                         (amps[hit, None] * u.T[block[hit]]).ravel())
        nonzero, rest = new[2] != 0, ~fires
        ids, index, amps = (np.concatenate((old[rest], fresh[nonzero]))
                            for old, fresh in zip((ids, index, amps), new))
    return ids, index, amps


def unitary_of(circuit: Circuit) -> np.ndarray:
    """Full matrix of the circuit: column j is run on basis state j. Every
    column holds every qubit; the columns run a batch of KEEP_AMPS
    amplitudes at a time, one run each, and each run builds its factors."""
    w = circuit.width
    if w > UNITARY_WIDTH_CAP:
        raise WidthCapExceeded(f"unitary extraction capped at {UNITARY_WIDTH_CAP} "
                               f"qubits, circuit has {w}")
    u, step = np.empty((1 << w, 1 << w), dtype=complex), max(KEEP_AMPS >> w, 1)
    workspace = make_workspace(w + (step - 1).bit_length())
    for j in range(0, 1 << w, step):
        columns = np.eye(min(step, (1 << w) - j), 1 << w, j, dtype=complex)
        out = run(circuit, columns.reshape(-1, *[2] * w), workspace)
        u[:, j:j + len(columns)] = out.reshape(len(columns), -1).T
    return u


@dataclass(frozen=True)
class AncillaPurityResult:
    pure: bool
    leakage: float  # mass on basis states with any ancilla bit set; a batch's largest


def check_ancilla_purity(state: np.ndarray, ancillae, lead: int = 0) -> AncillaPurityResult:
    """Total probability of any ancilla being |1>; pure iff <= PURITY_TOL.
    After `lead` leading axes of any length (1 for a batch of run's shaped
    form), each state has its own leakage, and the result is the largest,
    a NaN kept, taken in one pass over the batch.

    Zero leakage means the state factors exactly as (data state) x |0...0>
    on the ancilla block. An ancilla on a length-1 axis of run's shaped
    form is at 0 and adds nothing, and those axes are dropped, so a batch
    at the 63-qubit ceiling stays within numpy's 64 axes. The sum runs in
    place over disjoint slabs of the held qubits (ancilla k at |1>, every
    higher one at |0>), which are contiguous when the ancillae are the
    high qubits. numpy may add a slab of a batch in another order than the
    same slab alone, so a state's leakage in a batch can differ from its
    lone call's in the last bit.
    """
    shape = _view_shape(state, lead=lead)
    w = len(shape) - lead
    # the held qubits' axes, before (re, im), the idle axes dropped
    axis = {q: -2 - k for k, q in enumerate(held_qubits(shape, w))}
    # real view with a trailing (re, im) axis, so |amp|^2 is a sum of squares
    psi = np.ascontiguousarray(state, dtype=complex).reshape(-1).view(float)
    psi = psi.reshape(shape[:lead] + [2] * len(axis) + [2])
    index = [slice(None)] * psi.ndim
    leakage = np.zeros(shape[:lead])
    for a in sorted(set(ancillae), reverse=True):
        if not 0 <= a < w:
            raise CircuitError(f"ancilla index {a} outside width {w}")
        if a not in axis:
            continue
        index[axis[a]] = 1
        slab = psi[tuple(index)]
        axes = list(range(slab.ndim))
        leakage += np.einsum(slab, axes, slab, axes, axes[:lead])
        index[axis[a]] = 0
    worst = float(leakage.max(initial=0.0))
    return AncillaPurityResult(worst <= PURITY_TOL, worst)


def dump_state(state: np.ndarray) -> str:
    """One line per nonzero amplitude: index (binary, qubit 0 rightmost), re, im.
    A state in run's shaped form prints the lines of its flat form, in the
    same ascending order: each held amplitude at its full basis index."""
    shape = _view_shape(state)
    w = len(shape)
    amps = state.reshape(-1)
    hits = np.flatnonzero(np.abs(amps) > DUMP_THRESHOLD)
    index = embed_index(hits, held_qubits(shape, w))
    return "\n".join(f"{b:0{w}b} {amp.real:.17g} {amp.imag:.17g}"
                     for b, amp in zip(index, amps[hits]))


def embed_index(index, data_qubits):
    """Full-register basis index of a data-register basis index, every other
    qubit at |0>: bit j of `index` moves to qubit data_qubits[j]. Works on a
    Python int or elementwise on an integer array, so it maps a few indices
    of a wide register, where _span would build all 2^d."""
    return sum((((index >> j) & 1) << q for j, q in enumerate(data_qubits)), index & 0)


def compact_index(index, qubits):
    """The inverse of embed_index, on a Python int or elementwise on an
    integer array: bit j of the result is qubit qubits[j]'s bit of `index`."""
    return sum((((index >> q) & 1) << j for j, q in enumerate(qubits)), index & 0)


def data_block_unitary(u: np.ndarray, data_qubits) -> np.ndarray:
    """Restrict a full unitary to the block where all other qubits are |0>,
    bit j of the block index on data_qubits[j]. On every qubit, in any
    order, it relabels: qubit j of the result is qubit data_qubits[j]."""
    emb = _span(0, [1 << q for q in data_qubits])
    return u[np.ix_(emb, emb)]
