"""
Oracle-based equivalence checking, named-construction registry, and
depth/width/ancilla scaling reports.

verify_construction is the one drive loop; the circuit's roles give its
data register (INPUT, TARGET) and its ancillae (COPY, ANCILLA), which start
and must end in |0>. Every basis input of the data register runs through
the simulator, and all 2^width output amplitudes are compared with the
oracle's image: oracle_apply for a permutation Gate, a column of
oracle_unitary for a block-matrix Gate (at most sim.UNITARY_WIDTH_CAP data
qubits), an image function, or a BasisMap, which gives the one image of
every input in a single array call (cat, rev-embed). Leakage is the
output's probability mass on basis states with any ancilla bit set. There
are two engines. The basis inputs run together on the sparse engine,
sim.run_basis, as rows of (input id, basis index, amplitude); once those
rows would outnumber the 2^width amplitudes of one dense state, each input
runs alone on the dense engine, sim.run, with sim.check_ancilla_purity.
Amplitudes, not bit patterns: the counting circuits are correct only
because internal phases cancel. Cat is decided exactly by the inputs 0 and
1, by linearity; rev-embed, a permutation, drives every (x, y) at one
sparse row each. Superposition spot checks run on the dense engine with a
fixed seed: a random superposition of the checked basis inputs is expected
to map to the sum of their images, weighted by its amplitudes.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from . import classical as cc
from . import synth
from .ir import (
    _H_MATRIX, Circuit, CircuitError, Discipline, Gate, Layer, Role, cnot,
    fanout, hadamard, modq_gate, symmetric_phase, controlled_u,
)
from .oracle import PERMUTATION_KINDS, oracle_apply, oracle_unitary
from .sim import (
    PURITY_TOL, UNITARY_WIDTH_CAP, check_ancilla_purity, embed_index,
    make_workspace, merge_rows, run, run_basis, unitary_of,
)

SIM_CAP_ENV = "QDEPTH_SIM_CAP"
TOL_ENV = "QDEPTH_TOL"
DEFAULT_SIM_CAP = 22
DEFAULT_ERROR_TOL = 1e-9

CONSTRUCTIONS = ("cat", "fanout", "parity-fanout", "parity-cat",
                 "modq-seq", "modq-const", "ctrl-u", "rev-embed")

# data-register basis index -> its image as [(basis index, amplitude)]
Image = Callable[[int], Sequence[tuple[int, complex]]]


@dataclass(frozen=True)
class BasisMap:
    """An oracle that sends each data-register basis index to one basis
    index with amplitude 1; `apply` maps an int64 array of them
    elementwise, so no input costs a Python call."""
    apply: Callable[[np.ndarray], np.ndarray]


class SimulationCapExceeded(RuntimeError):
    """The register is too wide for amplitude-level verification."""


def sim_cap() -> int:
    """$QDEPTH_SIM_CAP, an integer >= 1, or the default."""
    raw = os.environ.get(SIM_CAP_ENV, str(DEFAULT_SIM_CAP))
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"{SIM_CAP_ENV} must be an integer >= 1, got {raw!r}")
    return int(raw)


def error_tol(tol: float | None = None) -> float:
    """The amplitude-error tolerance: `tol`, else $QDEPTH_TOL, else the
    default. It must be finite and >= 0."""
    what, raw = (("tolerance", tol) if tol is not None
                 else (TOL_ENV, os.environ.get(TOL_ENV, DEFAULT_ERROR_TOL)))
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{what} must be a finite number >= 0, got {raw!r}")
    return value


@dataclass
class VerificationReport:
    """Outcome of checking one synthesized circuit against its oracle."""
    construction: str
    n: int
    q: int | None
    discipline: str
    depth: int
    width: int
    copy_ancillae: int
    work_qubits: int
    max_error: float | None = None
    max_leakage: float | None = None
    passed: bool | None = None
    inputs_checked: int = 0
    coverage: float | None = None  # 1.0 once amplitudes are checked
    structural_only: bool = False
    error_tol: float = DEFAULT_ERROR_TOL
    leakage_tol: float = PURITY_TOL

    @classmethod
    def of(cls, built: Built, **fields) -> VerificationReport:
        """A report on `built` with its resource fields filled in; the copy
        and work counts are its circuit's COPY and ANCILLA roles."""
        c = built.circuit
        return cls(built.name, built.n, built.q, c.discipline.value, c.depth,
                   c.width, c.roles.count(Role.COPY),
                   c.roles.count(Role.ANCILLA), **fields)

    def to_dict(self) -> dict:
        return {"pass" if k == "passed" else k: v
                for k, v in dataclasses.asdict(self).items()}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def to_text(self) -> str:
        head = (f"construction={self.construction} n={self.n}"
                + (f" q={self.q}" if self.q is not None else "")
                + f" discipline={self.discipline} depth={self.depth}"
                  f" width={self.width} ancillae={self.copy_ancillae}"
                  f" work={self.work_qubits}")
        if self.structural_only:
            return head + " (structural only)"
        verdict = "pass" if self.passed else "FAIL"
        return (head + f" max_error={self.max_error:.3g}"
                       f" leakage={self.max_leakage:.3g}"
                       f" inputs={self.inputs_checked} {verdict}")


def _gate_image(gate: Gate, d: int) -> Image:
    """A Gate oracle as an image function on a d-qubit data register: each
    input's image from oracle_apply for a permutation gate, else a column
    of its dense oracle_unitary matrix, capped at UNITARY_WIDTH_CAP."""
    if gate.kind in PERMUTATION_KINDS:
        return lambda x: (oracle_apply(gate, x, d),)
    if d > UNITARY_WIDTH_CAP:
        raise SimulationCapExceeded(
            f"{d}-qubit data register exceeds the {UNITARY_WIDTH_CAP}-qubit "
            f"dense oracle cap; rerun structural-only")
    u = oracle_unitary(gate, d)
    return lambda x: [(y, u[y, x]) for y in np.flatnonzero(u[:, x])]


def verify_construction(circuit: Circuit, oracle: Gate | Image | BasisMap, *,
                        inputs: range | None = None,
                        superpositions: int = 0, seed: int = 0,
                        cap: int | None = None) -> tuple[float, float, int]:
    """Compare the circuit with an oracle (a Gate, an Image function or a
    BasisMap) on its data register: each basis index in the `inputs` range
    (default all 2^d) runs with the ancillae at |0>, and the error is the
    max |amplitude| of (output - expected image) over the whole register;
    random superpositions of those inputs use its l2 norm. Returns (max_error,
    max_leakage, inputs_checked). The folds use np.maximum, which keeps a
    NaN (max() drops one that comes second), so a NaN fails every tolerance.

    The basis inputs run together on the sparse engine, sim.run_basis,
    unless their rows would outnumber the 2^width amplitudes of one dense
    state; then each runs alone on the dense engine, sim.run. Either way
    the leakage is each input's probability mass on basis states with any
    ancilla bit set. Superpositions always run on the dense engine.
    """
    data_qubits, ancillae = circuit.data_qubits, circuit.ancillae
    d, width = len(data_qubits), circuit.width
    if superpositions < 0:
        raise ValueError(f"superpositions must be >= 0, got {superpositions}")
    cap = sim_cap() if cap is None else cap
    if width > cap:
        raise SimulationCapExceeded(
            f"{width}-qubit register exceeds the {cap}-qubit "
            f"simulation cap; rerun structural-only")
    image = _gate_image(oracle, d) if isinstance(oracle, Gate) else oracle

    inputs = range(1 << d) if inputs is None else inputs
    xs = np.arange(inputs.start, inputs.stop, inputs.step, dtype=np.int64)
    # every image entry as (input id, data-register index, amplitude),
    # sorted by input id
    if isinstance(image, BasisMap):
        ids, ys, amps = np.arange(xs.size), image.apply(xs), np.ones(xs.size, complex)
    else:
        images = [image(x) for x in inputs]
        ids = np.repeat(np.arange(xs.size), [len(im) for im in images])
        ys = np.array([y for im in images for y, _ in im], dtype=np.int64)
        amps = np.array([b for im in images for _, b in im], dtype=complex)
    ys = embed_index(ys, data_qubits)
    starts = embed_index(xs, data_qubits)
    max_error = 0.0
    max_leak = 0.0

    rows = run_basis(circuit, starts)
    if rows is not None:
        out_ids, out_index, out = rows
        if isinstance(image, BasisMap):
            # each input expects amplitude 1 at its image and 0 elsewhere;
            # an input with no row at its image misses the whole 1
            hit = out_index == ys[out_ids]
            missed = np.bincount(out_ids[hit], minlength=xs.size).min(initial=1) == 0
            max_error = float(np.maximum(np.abs(out - hit).max(initial=0.0), missed))
        else:
            residual = merge_rows(np.concatenate((out_ids, ids)),
                                  np.concatenate((out_index, ys)),
                                  np.concatenate((out, -amps)), width)[2]
            max_error = float(np.abs(residual).max(initial=0.0))
        dirty = (out_index & sum(1 << a for a in ancillae)) != 0
        leak = np.bincount(out_ids[dirty], out[dirty].real ** 2
                           + out[dirty].imag ** 2, xs.size)
        max_leak = float(leak.max(initial=0.0))
        if not superpositions:
            return max_error, max_leak, xs.size

    workspace = make_workspace(width)
    initial = np.zeros(1 << width, dtype=complex)

    def drive(at, amplitudes) -> np.ndarray:
        nonlocal max_leak
        initial[at] = amplitudes
        out = run(circuit, initial, workspace)
        initial[at] = 0.0
        leak = check_ancilla_purity(out, ancillae).leakage
        max_leak = float(np.maximum(max_leak, leak))
        return out

    if rows is None:
        abs_buf = np.empty(1 << width, dtype=float)
        bounds = np.searchsorted(ids, np.arange(xs.size + 1))
        for i, at in enumerate(starts):
            out = drive(at, 1.0)
            entries = slice(bounds[i], bounds[i + 1])
            np.subtract.at(out, ys[entries], amps[entries])
            np.abs(out, out=abs_buf)
            max_error = float(np.maximum(max_error, abs_buf.max()))

    if superpositions:
        emb = embed_index(np.arange(1 << d), data_qubits)
        v = np.zeros(1 << d, dtype=complex)
        rng = np.random.default_rng(seed)
        for _ in range(superpositions):
            psi = rng.normal(size=xs.size) + 1j * rng.normal(size=xs.size)
            psi /= np.linalg.norm(psi)
            v[xs] = psi
            out = drive(emb, v)
            # the linear extension of the image: each entry's amplitude
            # times its input's weight in v, added at the entry's index
            np.add.at(out, ys, -amps * psi[ids])
            err = math.sqrt(np.vdot(out, out).real)
            max_error = float(np.maximum(max_error, err))

    return max_error, max_leak, xs.size + superpositions


# --- named constructions ---

_U_BY_NAME = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "h": _H_MATRIX,
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
}
U_NAMES = (*_U_BY_NAME, "phase")


def _u_matrix(name: str, theta: float | None) -> np.ndarray:
    if name == "phase":
        if theta is None or not math.isfinite(theta):
            raise CircuitError("phase requires a finite theta")
        return np.array([[1, 0], [0, np.exp(1j * theta)]], dtype=complex)
    try:
        return _U_BY_NAME[name]
    except KeyError:
        raise CircuitError(f"unknown one-qubit unitary {name!r}") from None


@dataclass(frozen=True)
class Built:
    """A named construction with everything needed to verify it, including
    the basis inputs to drive: None for all of the data register, or
    range(2) for cat, which linearity decides on those two."""
    name: str
    n: int
    q: int | None
    circuit: Circuit
    oracle: Gate | Image | BasisMap
    inputs: range | None = None


def _embedding_image(c: cc.ClassicalCircuit) -> BasisMap:
    # |x, y> -> |x, y xor f(x)>, with x the low n bits; the classical
    # circuit runs once, elementwise on all 2^n values of x, into a table
    n = c.n_inputs

    def image(index: np.ndarray) -> np.ndarray:
        x = np.arange(1 << n)
        bits = c.evaluate([(x >> i) & 1 for i in range(n)])
        f = sum(bit << j for j, bit in enumerate(bits))
        return index ^ (f[index & ((1 << n) - 1)] << n)
    return BasisMap(image)


def build_construction(name: str, n: int | None = None, q: int | None = None,
                       discipline: Discipline = Discipline.WITH_FANOUT,
                       builder: str = "fanout", u: str = "x",
                       theta: float | None = None,
                       classical: cc.ClassicalCircuit | None = None) -> Built:
    """Instantiate a construction by name; see CONSTRUCTIONS for the list.

    Its registers and resource counts come from the circuit's qubit roles.
    """
    if name not in CONSTRUCTIONS:
        raise CircuitError(f"unknown construction {name!r}")

    def built(circ, oracle, q=None, **extra) -> Built:
        return Built(name, n, q, circ, oracle, **extra)

    if name == "rev-embed":
        if classical is None:
            raise CircuitError("rev-embed requires a classical circuit")
        n = classical.n_inputs
        return built(synth.reversible_embed(classical),
                     _embedding_image(classical))
    if n is None or n < 1:
        raise CircuitError(f"{name} requires n >= 1")

    if name == "cat":
        # |0...0> stays, |1 0...0> (index 1) becomes |1...1>
        return built(synth.CAT_BUILDERS[builder](n),
                     BasisMap(lambda x: x * ((1 << n) - 1)), inputs=range(2))
    if name == "fanout":
        return built(synth.fanout_gate(n), fanout(0, tuple(range(1, n + 1))))

    parity_oracle = modq_gate(2, tuple(range(n)), n)
    if name == "parity-fanout":
        return built(synth.parity_from_fanout(n), parity_oracle, q=2)
    if name == "parity-cat":
        return built(synth.parity_via_catstate(n, builder), parity_oracle, q=2)
    if name == "ctrl-u":
        mat = _u_matrix(u, theta)
        return built(synth.controlled_u_constant_depth(tuple(range(n)), mat, n),
                     controlled_u(tuple(range(n)), mat, (n,)))

    if q is None or q < 2:
        raise CircuitError(f"{name} requires q >= 2")
    modq_oracle = modq_gate(q, tuple(range(n)), n)
    if name == "modq-seq":
        return built(synth.modq_sequential(n, q), modq_oracle, q=q)
    return built(synth.modq_constant_depth(n, q, discipline), modq_oracle, q=q)


def verify_built(built: Built, *, structural_only: bool = False,
                 tol_err: float | None = None, superpositions: int = 0,
                 seed: int = 0, cap: int | None = None) -> VerificationReport:
    """Check a built construction with verify_construction and fill the report."""
    report = VerificationReport.of(built, structural_only=structural_only,
                                   error_tol=error_tol(tol_err))
    if structural_only:
        return report
    err, leak, checked = verify_construction(
        built.circuit, built.oracle, inputs=built.inputs,
        superpositions=superpositions, seed=seed, cap=cap)
    report.max_error = err
    report.max_leakage = leak
    report.inputs_checked = checked
    report.coverage = 1.0
    report.passed = err <= report.error_tol and leak <= PURITY_TOL
    return report


# --- scaling tables ---

@dataclass
class ScalingTable:
    construction: str
    q: int | None
    discipline: str
    rows: list[tuple[int, int, int, int]]  # (n, depth, width, ancillae)
    verdict: str = field(default="")

    def to_text(self) -> str:
        lines = ["n\tdepth\twidth\tancillae"]
        lines += [f"{n}\t{d}\t{w}\t{a}" for n, d, w, a in self.rows]
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps({"construction": self.construction, "q": self.q,
                           "discipline": self.discipline,
                           "rows": [list(r) for r in self.rows],
                           "verdict": self.verdict})


def _classify_depths(ns, depths) -> str:
    if len(set(depths)) == 1:
        return "constant"
    logs = [d - math.ceil(math.log2(n)) for n, d in zip(ns, depths)]
    if len(set(logs)) == 1:
        return "logarithmic"
    diffs = [b - a for a, b in zip(depths, depths[1:])]
    if len(set(diffs)) == 1 and diffs[0] > 0:
        return "linear"
    if all(d > 0 for d in diffs):
        return "increasing"
    return "irregular"


def depth_scaling_table(name: str, q: int | None, n_range,
                        discipline: Discipline = Discipline.WITH_FANOUT,
                        builder: str = "fanout") -> ScalingTable:
    """Tabulate (n, depth, width, ancillae); no simulation involved."""
    rows = []
    ns = list(n_range)
    for n in ns:
        b = build_construction(name, n=n, q=q, discipline=discipline,
                               builder=builder)
        c = b.circuit
        rows.append((n, c.depth, c.width, c.ancilla_count))
    verdict = _classify_depths(ns, [r[1] for r in rows])
    return ScalingTable(name, q, discipline.value, rows, verdict)


# --- matrix identities ---

def identity_checks() -> list[tuple[str, float, bool]]:
    """The two Hadamard-conjugation identities, checked as matrices.

    1. A controlled-not with its target conjugated by Hadamards equals the
       two-qubit controlled pi-shift.
    2. A fanout gate driven by the last qubit, conjugated by a layer of
       Hadamards on every wire, equals the three-input parity gate.
    Returns (name, max entry error, passed at 1e-12) per identity.
    """
    results = []
    roles = (Role.INPUT, Role.TARGET)
    h_cnot_h = Circuit(2, roles, (Layer((hadamard(1),)),
                                  Layer((cnot(0, 1),)),
                                  Layer((hadamard(1),))))
    want = oracle_unitary(symmetric_phase(math.pi, (0,), 1), 2)
    err = float(np.abs(unitary_of(h_cnot_h) - want).max())
    results.append(("cnot-h-conjugation-is-controlled-pi-shift", err, err <= 1e-12))

    n = 3
    circ = synth.parity_from_fanout(n)
    want = oracle_unitary(modq_gate(2, tuple(range(n)), n), n + 1)
    err = float(np.abs(unitary_of(circ) - want).max())
    results.append(("fanout-h-conjugation-is-parity", err, err <= 1e-12))
    return results
