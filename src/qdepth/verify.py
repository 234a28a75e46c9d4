"""
Oracle-based equivalence checking, named-construction registry, and
scaling reports checked against each construction's exact counts. READS
says which settings each named construction reads; build_construction's
signature gives the defaults of the rest.

verify_construction is the one check loop; the circuit's roles give its
data register (INPUT, TARGET) and its ancillae (COPY, ANCILLA), which start
and must end in |0>. Every basis input of the data register runs through
the simulator, and all 2^width output amplitudes are compared with the
oracle's image. An Oracle maps an int64 array of inputs to the entries of
their images in one call; _gate_oracle makes one of a Gate, cat and
rev-embed build theirs directly. Leakage is the output's probability mass
on basis states with any ancilla bit set. Each check gives its error and
leakage to one fold, and they run in this order. The basis inputs run
together on the sparse engine, sim.run_basis, as rows of (input id, basis
index, amplitude); once those rows would outnumber the 2^width amplitudes
of one dense state, they run on the dense engine, sim.run, and
sim.check_ancilla_purity takes their leakage. Amplitudes, not bit patterns:
the counting circuits are correct only because internal phases cancel. Cat
is decided exactly by the inputs 0 and 1, by linearity; rev-embed, a
permutation, drives every (x, y) at one sparse row each. Then superposition
spot checks run on the dense engine with a fixed seed: a random
superposition of the checked basis inputs is expected to map to the sum of
their images, weighted by its amplitudes. Such an input goes to the dense
engine in its shaped form, and its output comes back on only the qubits
that the input sets or the circuit moves, the only ones not left at 0: for
modq-const n=4 q=5 the data register and the counter, 8 of its 20 qubits.
The dense engine takes these inputs, superpositions and fallback basis
inputs alike, as batches of sim.KEEP_AMPS amplitudes, one run each, and one
check_ancilla_purity call gives each batch's largest leakage.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import classical as cc
from . import synth
from .ir import (
    _H_MATRIX, Circuit, CircuitError, Discipline, Gate, Layer, Role, cnot,
    fanout, hadamard, modq_gate, symmetric_phase, controlled_u,
)
from .oracle import PERMUTATION_KINDS, oracle_apply, oracle_unitary
from .sim import (
    KEEP_AMPS, PURITY_TOL, UNITARY_WIDTH_CAP, WidthCapExceeded,
    check_ancilla_purity, check_ceiling, check_size, compact_index, embed_index,
    held_shape, live_qubits, merge_rows, run, run_basis, unitary_of,
)

SIM_CAP_ENV = "QDEPTH_SIM_CAP"
TOL_ENV = "QDEPTH_TOL"
DEFAULT_SIM_CAP = 22
DEFAULT_ERROR_TOL = 1e-9

# The settings each construction reads, the one statement of who reads what.
# build_construction refuses an unread q, theta or classical; the CLI any flag.
READS = {
    "cat": ("n", "builder"),
    "fanout": ("n",),
    "parity-fanout": ("n",),
    "parity-cat": ("n", "builder"),
    "modq-seq": ("n", "q"),
    "modq-const": ("n", "q", "discipline"),
    "ctrl-u": ("n", "u", "theta"),
    "rev-embed": ("classical",),
}
CONSTRUCTIONS = tuple(READS)

# data-register inputs xs -> (ids, ys, amps), ordered by id: input xs[ids[i]]
# has amplitude amps[i] at data-register basis index ys[i] of its image
Oracle = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]


def check_sim_cap(width: int) -> None:
    """Raise WidthCapExceeded if a register of `width` qubits is wider than
    the 63-qubit ceiling (check_ceiling) or the cap ($QDEPTH_SIM_CAP >= 1)."""
    raw = os.environ.get(SIM_CAP_ENV, str(DEFAULT_SIM_CAP))
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"{SIM_CAP_ENV} must be an integer >= 1, got {raw!r}")
    check_ceiling(width)
    if width > int(raw):
        raise WidthCapExceeded(
            f"{width}-qubit register exceeds the {int(raw)}-qubit simulation cap")


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
        return {"pass" if k == "passed" else k: v for k, v in vars(self).items()}

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


def _one_each(image: Callable[[np.ndarray], np.ndarray]) -> Oracle:
    """The oracle that sends each input x to image(x) with amplitude 1."""
    return lambda xs: (np.arange(xs.size), image(xs), np.ones(xs.size, complex))


def _gate_oracle(gate: Gate, d: int) -> Oracle:
    """A Gate as an oracle on a d-qubit data register: one oracle_apply
    call for a permutation gate, else the nonzero entries of its dense
    oracle_unitary matrix, capped at UNITARY_WIDTH_CAP."""
    if gate.kind in PERMUTATION_KINDS:
        return lambda xs: (np.arange(xs.size), *oracle_apply(gate, xs, d))
    if d > UNITARY_WIDTH_CAP:
        raise WidthCapExceeded(
            f"{d}-qubit data register exceeds the {UNITARY_WIDTH_CAP}-qubit "
            f"dense oracle cap; rerun structural-only")
    u = oracle_unitary(gate, d)
    ys, cols = np.nonzero(u)  # by row; the stable sort keeps that per id
    amps = u[ys, cols]

    def oracle(xs):
        ids = np.full(1 << d, -1)
        ids[xs] = np.arange(xs.size)
        ids = ids[cols]  # -1 for a column not in xs: those sort first, cut
        order = np.argsort(ids, kind="stable")[np.count_nonzero(ids < 0):]
        return ids[order], ys[order], amps[order]
    return oracle


def _superpositions(rng: np.random.Generator, count: int, size: int) -> np.ndarray:
    """`count` random unit vectors of `size` amplitudes, one a row, each
    drawn and normed as a lone draw would be, so a seed gives the same
    vectors however they are batched."""
    psi = np.empty((count, size), dtype=complex)
    for row in psi:
        row[...] = rng.normal(size=size) + 1j * rng.normal(size=size)
        row /= np.linalg.norm(row)
    return psi


def verify_construction(circuit: Circuit, oracle: Gate | Oracle, *,
                        inputs: range | None = None,
                        superpositions: int = 0,
                        seed: int = 0) -> tuple[float, float, int]:
    """Compare the circuit with an oracle (a Gate or an Oracle) on its data
    register: each basis index in the `inputs` range (default all 2^d)
    runs with the ancillae at |0>, and the error is the max |amplitude| of
    (output - expected image) over the whole register; random
    superpositions of those inputs use its l2 norm. Returns (max_error,
    max_leakage, inputs_checked).

    One loop folds each check's (error, leakage) in with np.maximum, which
    keeps a NaN (max() drops one that comes second), so a NaN fails every
    tolerance. The checks, in order: the basis inputs together on the
    sparse engine, sim.run_basis, or, if their rows would outnumber the
    2^width amplitudes of one dense state, on the dense engine, sim.run;
    then the superpositions, on the dense engine. Leakage is each input's
    probability mass on basis states with any ancilla bit set. A dense run
    takes and returns run's shaped form, so its error and leakage are
    taken over the qubits it holds; every other qubit stays at 0. It takes
    a batch of inputs at once, as many as fit KEEP_AMPS amplitudes on the
    qubits the run holds (one from 16 of them on); each superposition is
    drawn in its turn, batch by batch, so the seed gives the same states
    however they are batched, and a large count holds one batch at a
    time. Sparse rows meet the oracle's entries one to one when it gives
    every input one entry, else through a merge_rows residual.
    It raises WidthCapExceeded past check_sim_cap, or for an array past
    numpy's largest (check_size): the inputs, or a batch of dense states.
    """
    data_qubits, ancillae = circuit.data_qubits, circuit.ancillae
    d, width = len(data_qubits), circuit.width
    if not 0 <= superpositions <= sys.maxsize:
        raise ValueError(f"superpositions must be in 0..{sys.maxsize}, got {superpositions}")
    check_sim_cap(width)
    oracle = _gate_oracle(oracle, d) if isinstance(oracle, Gate) else oracle

    inputs = range(1 << d) if inputs is None else inputs
    count = -((inputs.start - inputs.stop) // inputs.step)  # len(), which stops at 2^63
    check_size(count, np.int64, f"a range of {count} inputs")
    xs = np.arange(inputs.start, inputs.stop, inputs.step, dtype=np.int64)
    ids, ys, amps = oracle(xs)
    ys = embed_index(ys, data_qubits)

    def checks():
        """Each check's (error, leakage), in the order given above."""
        rows = run_basis(circuit, embed_index(xs, data_qubits))
        if rows is not None:
            out_ids, out_index, out = rows
            if np.array_equal(ids, np.arange(xs.size)):
                # each input expects amps[id] at its image and 0 elsewhere; an
                # input with no row at its image misses the whole amplitude
                hit = out_index == ys[out_ids]
                at_image = np.zeros(xs.size, dtype=complex)
                at_image[out_ids[hit]] = out[hit]
                residual = np.concatenate((at_image - amps, out[~hit]))
            else:
                residual = merge_rows(np.concatenate((out_ids, ids)),
                                      np.concatenate((out_index, ys)),
                                      np.concatenate((out, -amps)))[2]
            dirty = (out_index & sum(1 << a for a in ancillae)) != 0
            leak = np.bincount(out_ids[dirty], out[dirty].real ** 2
                               + out[dirty].imag ** 2, xs.size)
            yield np.abs(residual).max(initial=0.0), leak.max(initial=0.0)
            if not superpositions:
                return  # no dense run is set up

        shape = held_shape(data_qubits, width)  # run's shaped form
        live = live_qubits(circuit, data_qubits)  # the qubits a run of these inputs holds
        at = compact_index(ys, live)  # where each of the oracle's entries sits in its output
        batch = max(KEEP_AMPS >> len(live), 1)
        check_size(batch << d, complex, f"a batch of {batch} x 2^{d} amplitudes")

        def drive(weights, norm):
            """Run a batch of data-register states, row i of `weights` the
            amplitudes of state i on the inputs xs, in one run. Returns the
            largest `norm` of a state's output less its image, and the
            batch's largest leakage."""
            v = np.zeros((len(weights), 1 << d), dtype=complex)
            v[:, xs] = weights
            out = run(circuit, v.reshape(-1, *shape))
            leak = check_ancilla_purity(out, ancillae, lead=1).leakage
            out = out.reshape(len(v), -1)
            # the linear extension of the image: each of the oracle's entries
            # times its input's weight in the state, added at the entry's index
            weight = weights[:, ids]
            whose, entries = np.nonzero(weight)  # row-major: by state, then entry
            np.add.at(out, (whose, at[entries]), -amps[entries] * weight[whose, entries])
            return np.max([norm(row) for row in out]), leak

        if rows is None:
            for lo in range(0, xs.size, batch):
                yield drive(np.eye(min(batch, xs.size - lo), xs.size, lo, dtype=complex),
                            lambda row: np.abs(row).max())
        rng = np.random.default_rng(seed)
        for lo in range(0, superpositions, batch):
            yield drive(_superpositions(rng, min(batch, superpositions - lo), xs.size),
                        lambda row: math.sqrt(np.vdot(row, row).real))

    max_error = max_leak = 0.0
    for error, leak in checks():
        max_error = float(np.maximum(max_error, error))
        max_leak = float(np.maximum(max_leak, leak))
    return max_error, max_leak, xs.size + superpositions


# --- named constructions ---

_U_BY_NAME = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "h": _H_MATRIX,
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
}
U_NAMES = (*_U_BY_NAME, "phase")


def read_only_by(setting: str) -> str:
    """`<setting> is read only by <the constructions that read it>`."""
    *rest, last = (name for name, reads in READS.items() if setting in reads)
    return (f"{setting} is read only by {', '.join(rest)}{' and ' * bool(rest)}{last}"
            + " with u=phase" * (setting == "theta"))


def refuse_unread(name: str, given: dict) -> None:
    """Raise CircuitError for the first setting in `given` that is not None
    and that construction `name` does not read."""
    for setting, value in given.items():
        if value is not None and setting not in READS[name]:
            raise CircuitError(read_only_by(setting))


def _u_matrix(name: str, theta: float | None) -> np.ndarray:
    if name == "phase":
        if theta is None or not math.isfinite(theta):
            raise CircuitError("phase requires a finite theta")
        return np.array([[1, 0], [0, np.exp(1j * theta)]], dtype=complex)
    if theta is not None:
        raise CircuitError(read_only_by("theta"))
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
    oracle: Gate | Oracle
    inputs: range | None = None


def _embedding_oracle(c: cc.ClassicalCircuit) -> Oracle:
    # |x, y> -> |x, y xor f(x)>, with x the low n bits; the classical
    # circuit runs once, elementwise on all 2^n values of x, into a table
    n = c.n_inputs

    def image(index: np.ndarray) -> np.ndarray:
        x = np.arange(1 << n)
        bits = c.evaluate([(x >> i) & 1 for i in range(n)])
        f = sum(bit << j for j, bit in enumerate(bits))
        return index ^ (f[index & ((1 << n) - 1)] << n)
    return _one_each(image)


def build_construction(name: str, n: int | None = None, q: int | None = None,
                       discipline: Discipline = Discipline.WITH_FANOUT,
                       builder: str = "fanout", u: str = "x",
                       theta: float | None = None,
                       classical: cc.ClassicalCircuit | None = None) -> Built:
    """Instantiate a construction by name; READS lists the constructions
    and the settings each reads, and a theta, q or classical not read is refused.

    Its registers and resource counts come from the circuit's qubit roles.
    """
    if name not in READS:
        raise CircuitError(f"unknown construction {name!r}")
    refuse_unread(name, {"theta": theta, "q": q, "classical": classical})

    def built(circ, oracle, q=None, **extra) -> Built:
        return Built(name, n, q, circ, oracle, **extra)

    if name == "rev-embed":
        if classical is None:
            raise CircuitError("rev-embed requires a classical circuit")
        n = classical.n_inputs
        return built(synth.reversible_embed(classical),
                     _embedding_oracle(classical))
    if n is None or n < 1:
        raise CircuitError(f"{name} requires n >= 1")

    if name == "cat":
        # |0...0> stays, |1 0...0> (index 1) becomes |1...1>
        return built(synth.cat_builder(builder)(n),
                     _one_each(lambda x: x * ((1 << n) - 1)), inputs=range(2))
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


def _claim(name: str, n: int, q: int | None, discipline: Discipline | None, builder: str | None):
    """The depth growth that the builder documents, and the exact (depth,
    width, COPY, ANCILLA) counts at n; a mod-q count takes ceil(log2 q) qubits.
    None is build_construction's default, which is neither strict nor log-cat."""
    k, log_n = (q - 1).bit_length() if q else 0, (n - 1).bit_length()
    c, cat = (log_n, "logarithmic") if builder == "log-cat" else (int(n > 1), "constant")
    strict = discipline is Discipline.STRICT
    return {
        "cat": (cat, (c, n, 0, 0)),
        "fanout": ("constant", (1, n + 1, 0, 0)),
        "parity-fanout": ("constant", (3, n + 1, 0, 0)),
        "parity-cat": (cat, (3 + 2 * c, 2 * n, n - 1, 0)),
        "ctrl-u": ("constant", (3, n + 2, 0, 1)),
        "modq-seq": ("linear", (2 * n + 2, n + 1 + k, 0, k)),
        "modq-const": ("logarithmic" if strict else "constant",
                       (12 + 4 * log_n * strict, n + 1 + k + n * k, n * k, k)),
    }[name]


def verify_built(built: Built, *, structural_only: bool = False,
                 tol_err: float | None = None, superpositions: int = 0,
                 seed: int = 0) -> VerificationReport:
    """Check a built construction with verify_construction and fill the report."""
    report = VerificationReport.of(built, structural_only=structural_only,
                                   error_tol=error_tol(tol_err))
    if structural_only:
        return report
    err, leak, checked = verify_construction(
        built.circuit, built.oracle, inputs=built.inputs,
        superpositions=superpositions, seed=seed)
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
    rows: list[tuple[int, int, int, int, int]]  # (n, depth, width, ancillae, work)
    verdict: str

    def to_text(self) -> str:
        lines = ["n\tdepth\twidth\tancillae\twork"]
        lines += ["\t".join(map(str, row)) for row in self.rows]
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self))


def depth_scaling_table(name: str, q: int | None, n_range,
                        discipline: Discipline | None = None,
                        builder: str | None = None) -> ScalingTable:
    """Tabulate (n, depth, width, ancillae, work), the COPY and ANCILLA
    qubits counted as verify reports them, without simulating; a discipline
    or builder of None takes build_construction's default. The verdict
    is _claim's growth if every row has its claimed counts, else `mismatch
    at n=N: <column> <got>, claimed <want>` for the first that differs.
    Its discipline is wf if any row's circuit is wf, as in ir.compose."""
    given = {k: v for k, v in dict(discipline=discipline, builder=builder).items()
             if v is not None}
    rows, misses, wf = [], [], False
    for n in n_range:
        r = VerificationReport.of(build_construction(name, n=n, q=q, **given))
        wf |= r.discipline == Discipline.WITH_FANOUT.value
        rows.append((n, r.depth, r.width, r.copy_ancillae, r.work_qubits))
        growth, counts = _claim(name, n, q, discipline, builder)
        misses += [f"mismatch at n={n}: {col} {got}, claimed {want}"
                   for col, got, want in zip(("depth", "width", "ancillae", "work"),
                                             rows[-1][1:], counts) if got != want]
    if not rows:
        raise ValueError("n_range is empty")
    disc = Discipline.WITH_FANOUT if wf else Discipline.STRICT
    return ScalingTable(name, q, disc.value, rows, misses[0] if misses else growth)


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
