"""
Layered circuit representation: the gate set, layering disciplines, qubit
roles, and depth/width/ancilla accounting.

Gates, layers, and circuits are immutable once built and safe to share
across threads; all validation happens at construction time. The basis
convention is little-endian everywhere: qubit 0 is the least significant
bit of a basis index, and bitstrings printed by the tools put qubit 0
rightmost.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

# Explicit matrices must satisfy ||U+.U - I||_max <= UNITARY_TOL.
UNITARY_TOL = 1e-12

# Largest target block (in qubits) an explicit-matrix gate may act on;
# keeps serialized matrices at 2^4 x 2^4 or smaller.
MAX_BLOCK_QUBITS = 4


class CircuitError(ValueError):
    """Malformed gate, layer, or circuit."""


class LayeringError(CircuitError):
    """A layer violates its discipline's disjointness condition."""


class GateKind(Enum):
    SINGLE_QUBIT = "u"       # explicit 2x2 unitary on one qubit
    HADAMARD = "h"
    PAULI_X = "x"
    CNOT = "cnot"
    TOFFOLI = "toffoli"      # flip target iff all inputs true
    CONTROLLED_U = "cu"      # explicit 2^k x 2^k unitary on a k-qubit block
    MODQ = "modq"            # flip target iff #true inputs not divisible by q
    FANOUT = "fanout"        # xor one control onto every target at once
    PHASE = "phase"          # multiply the all-ones subspace by e^{i theta}


class Role(Enum):
    INPUT = "input"
    TARGET = "target"
    COPY = "copy"            # holds a cat-style copy; must start and end in |0>
    ANCILLA = "ancilla"      # must start and end in |0>


class Discipline(Enum):
    STRICT = "strict"        # gates in a layer act on pairwise disjoint qubits
    WITH_FANOUT = "wf"       # gates may share controls, never targets


_ZEROED_ROLES = frozenset({Role.COPY, Role.ANCILLA})  # start and end in |0>

# The gate set. Per kind: the fewest and most controls, the fewest and
# most targets (None: no upper limit), and the one field the kind requires
# (a kind that takes none of matrix, theta and q has None).
_SPEC = {
    GateKind.SINGLE_QUBIT: (0, 0, 1, 1, "matrix"),
    GateKind.HADAMARD: (0, 0, 1, 1, None),
    GateKind.PAULI_X: (0, 0, 1, 1, None),
    GateKind.CNOT: (1, 1, 1, 1, None),
    GateKind.TOFFOLI: (1, None, 1, 1, None),
    GateKind.CONTROLLED_U: (0, None, 1, MAX_BLOCK_QUBITS, "matrix"),
    GateKind.MODQ: (1, None, 1, 1, "q"),
    GateKind.FANOUT: (1, 1, 1, None, None),
    GateKind.PHASE: (0, None, 1, 1, "theta"),
}

# Kinds that permute basis states with no phase; each is its own inverse.
FLIP_KINDS = frozenset({GateKind.PAULI_X, GateKind.CNOT, GateKind.TOFFOLI,
                        GateKind.FANOUT, GateKind.MODQ})


def as_int(value, what: str, error: type[ValueError] = CircuitError) -> int:
    """`value` as an int if its type is integral (numpy integers too); a
    bool, float or string raises `error` instead of being truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{what} must be an integer, got {value!r}")
    return int(value)


def as_real(value, what: str):
    """`value` unchanged if it is a real number (numpy floats too); a bool,
    complex number or string raises CircuitError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise CircuitError(f"{what} must be a real number, got {value!r}")
    return value


def json_object(value, keys, what: str, error: type[ValueError] = CircuitError) -> dict:
    """`value` if it is a JSON object with no key outside `keys`, else `error`."""
    if not isinstance(value, dict):
        raise error(f"{what} must be a JSON object, got {type(value).__name__}")
    unknown = value.keys() - keys
    if unknown:
        raise error(f"unknown {what} key {min(unknown)!r}")
    return value


def json_list(value, what: str, error: type[ValueError] = CircuitError) -> list:
    """`value` if it is a JSON array, else `error`."""
    if not isinstance(value, list):
        raise error(f"{what} must be a JSON array, got {type(value).__name__}")
    return value


def _check_unitary(m: np.ndarray, dim: int) -> None:
    if m.shape != (dim, dim):
        raise CircuitError(f"matrix must be {dim}x{dim}, got {m.shape}")
    with np.errstate(all="ignore"):  # a huge or infinite entry gives inf or NaN, refused below
        err = np.abs(m.conj().T @ m - np.eye(dim)).max()
    if not err <= UNITARY_TOL:  # NaN fails too
        raise CircuitError(f"matrix is not unitary (deviation {err:.3g})")


@dataclass(frozen=True, eq=False)
class Gate:
    """One primitive circuit element.

    `controls` and `targets` are disjoint qubit tuples; `negated` marks
    controls whose input is X-conjugated, so they fire on 0 instead of 1.
    _SPEC gives each kind its control and target counts and the one field
    it requires: `theta` for PHASE, `q` for MODQ, and `matrix` for
    SINGLE_QUBIT (2x2) and CONTROLLED_U (2^k x 2^k over the k targets,
    where bit j of the block index is targets[j]); a field is rejected on
    any other kind.
    """
    kind: GateKind
    controls: tuple[int, ...] = ()
    targets: tuple[int, ...] = ()
    negated: frozenset[int] = frozenset()
    theta: float | None = None
    q: int | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "controls", tuple(as_int(c, "qubit") for c in self.controls))
        object.__setattr__(self, "targets", tuple(as_int(t, "qubit") for t in self.targets))
        object.__setattr__(self, "negated", frozenset(as_int(c, "qubit") for c in self.negated))
        if self.q is not None:
            object.__setattr__(self, "q", as_int(self.q, "q"))
        if self.theta is not None:
            as_real(self.theta, "theta")
        if self.matrix is not None:
            m = np.array(self.matrix, dtype=complex)
            m.setflags(write=False)
            object.__setattr__(self, "matrix", m)
        self._validate()

    def _validate(self) -> None:
        k = self.kind
        cs, ts = self.controls, self.targets
        if any(i < 0 for i in cs + ts):
            raise CircuitError("qubit indices must be nonnegative")
        if len(set(cs)) != len(cs) or len(set(ts)) != len(ts):
            raise CircuitError("duplicate qubit in controls or targets")
        if set(cs) & set(ts):
            raise CircuitError(f"controls and targets overlap: {set(cs) & set(ts)}")
        if not self.negated <= set(cs):
            raise CircuitError("negated qubits must be a subset of controls")

        c_lo, c_hi, t_lo, t_hi, field = _SPEC[k]
        for what, count, lo, hi in (("controls", len(cs), c_lo, c_hi),
                                    ("targets", len(ts), t_lo, t_hi)):
            if count < lo or (hi is not None and count > hi):
                want = lo if lo == hi else f">={lo}" if hi is None else f"{lo}..{hi}"
                raise CircuitError(f"{k.value} takes {want} {what}, got {count}")
        for name in ("matrix", "theta", "q"):
            if (getattr(self, name) is None) == (name == field):
                raise CircuitError(f"{k.value} requires {name}" if name == field
                                   else f"{k.value} does not take {name}")
        if field == "matrix":
            _check_unitary(self.matrix, 2 ** len(ts))
        elif field == "q" and self.q < 2:
            raise CircuitError("modq requires q >= 2")
        elif field == "theta" and not math.isfinite(self.theta):
            raise CircuitError("phase requires a finite theta")

    @property
    def support(self) -> frozenset[int]:
        return frozenset(self.controls) | frozenset(self.targets)

    def adjoint(self) -> "Gate":
        if self.kind in FLIP_KINDS or self.kind is GateKind.HADAMARD:
            return self
        if self.kind is GateKind.PHASE:
            return Gate(self.kind, self.controls, self.targets, self.negated,
                        theta=-self.theta)
        # SINGLE_QUBIT / CONTROLLED_U: conjugate transpose
        return Gate(self.kind, self.controls, self.targets, self.negated,
                    matrix=self.matrix.conj().T)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Gate):
            return NotImplemented
        if (self.kind, self.controls, self.targets, self.negated,
                self.theta, self.q) != (other.kind, other.controls,
                                        other.targets, other.negated,
                                        other.theta, other.q):
            return False
        if (self.matrix is None) != (other.matrix is None):
            return False
        return self.matrix is None or np.array_equal(self.matrix, other.matrix)

    def __repr__(self) -> str:
        bits = [self.kind.value]
        if self.controls:
            marks = ",".join(f"!{c}" if c in self.negated else str(c)
                             for c in self.controls)
            bits.append(f"({marks})")
        bits.append("->" + ",".join(map(str, self.targets)))
        if self.theta is not None:
            bits.append(f"theta={self.theta:g}")
        if self.q is not None:
            bits.append(f"q={self.q}")
        return " ".join(bits)


# --- gate constructors ---

_H_MATRIX = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def hadamard(target: int) -> Gate:
    return Gate(GateKind.HADAMARD, targets=(target,))


def pauli_x(target: int) -> Gate:
    return Gate(GateKind.PAULI_X, targets=(target,))


def cnot(control: int, target: int, negated=()) -> Gate:
    return Gate(GateKind.CNOT, (control,), (target,), frozenset(negated))


def toffoli(controls, target: int, negated=()) -> Gate:
    return Gate(GateKind.TOFFOLI, tuple(controls), (target,), frozenset(negated))


def modq_gate(q: int, inputs, target: int, negated=()) -> Gate:
    return Gate(GateKind.MODQ, tuple(inputs), (target,), frozenset(negated), q=q)


def fanout(control: int, targets) -> Gate:
    return Gate(GateKind.FANOUT, (control,), tuple(targets))


def symmetric_phase(theta: float, controls, target: int, negated=()) -> Gate:
    return Gate(GateKind.PHASE, tuple(controls), (target,), frozenset(negated),
                theta=float(theta))


def single_qubit(matrix, target: int) -> Gate:
    return Gate(GateKind.SINGLE_QUBIT, targets=(target,), matrix=matrix)


def controlled_u(controls, matrix, targets, negated=()) -> Gate:
    return Gate(GateKind.CONTROLLED_U, tuple(controls), tuple(targets),
                frozenset(negated), matrix=matrix)


def block_matrix(gate: Gate) -> np.ndarray:
    """The 2^k x 2^k block a gate applies to its k targets where its
    controls fire: H, the explicit u/cu matrix, or PHASE's diag(1, e^{i theta})."""
    if gate.kind is GateKind.HADAMARD:
        return _H_MATRIX
    if gate.kind is GateKind.PHASE:
        return np.diag([1, np.exp(1j * gate.theta)])
    if gate.matrix is not None:
        return gate.matrix
    raise CircuitError(f"{gate.kind.value} is a permutation gate, not a block")


# --- layers and circuits ---

@dataclass(frozen=True)
class Layer:
    """Gates applied simultaneously; validity depends on the discipline."""
    gates: tuple[Gate, ...]

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))


def validate_layer(layer: Layer, discipline: Discipline, width: int) -> None:
    """Raise CircuitError if a qubit is out of range, else LayeringError
    unless each qubit is free of conflict: under STRICT one gate acts on
    it; under WITH_FANOUT several may read it as a control (each is
    diagonal there), but a gate that writes it, as a target, is its only
    gate."""
    gates = layer.gates
    first, clash = {}, None  # qubit -> (its first gate, whether that gate writes it)
    for j, g in enumerate(gates):
        for k, i in enumerate(g.controls + g.targets):
            if i >= width:
                raise CircuitError(f"qubit index {i} out of range for width {width}")
            writes = k >= len(g.controls)
            h, wrote = first.setdefault(i, (j, writes))
            if clash is None and h != j and (discipline is Discipline.STRICT or writes or wrote):
                why = ("overlapping supports" if discipline is Discipline.STRICT else
                       "overlapping targets" if writes and wrote else
                       "target of one gate is a control of the other")
                clash = (f"gates {h} and {j} conflict under {discipline.value}: {why} "
                         f"on qubit {i} ({gates[h]!r} vs {gates[j]!r})")
    if clash:  # raised only once every qubit is known to be in range
        raise LayeringError(clash)


@dataclass(frozen=True)
class Circuit:
    """An ordered list of layers over a register with per-qubit roles.

    depth is the layer count; that is the quantity the constant-depth
    constructions in qdepth.synth are measured by.
    """
    width: int
    roles: tuple[Role, ...]
    layers: tuple[Layer, ...] = ()
    discipline: Discipline = Discipline.STRICT

    def __post_init__(self):
        object.__setattr__(self, "width", as_int(self.width, "width"))
        object.__setattr__(self, "roles", tuple(self.roles))
        object.__setattr__(self, "layers", tuple(
            l if isinstance(l, Layer) else Layer(tuple(l)) for l in self.layers))
        if self.width < 0:
            raise CircuitError("width must be nonnegative")
        if len(self.roles) != self.width:
            raise CircuitError(f"{len(self.roles)} roles for width {self.width}")
        for layer in self.layers:
            validate_layer(layer, self.discipline, self.width)

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def ancillae(self) -> tuple[int, ...]:
        return tuple(i for i, r in enumerate(self.roles) if r in _ZEROED_ROLES)

    @property
    def ancilla_count(self) -> int:
        return len(self.ancillae)

    @property
    def data_qubits(self) -> tuple[int, ...]:
        return tuple(i for i, r in enumerate(self.roles) if r not in _ZEROED_ROLES)

    def gates(self):
        for layer in self.layers:
            yield from layer.gates

    def describe(self) -> str:
        lines = [f"width={self.width} depth={self.depth} "
                 f"ancillae={self.roles.count(Role.COPY)} "
                 f"work={self.roles.count(Role.ANCILLA)} "
                 f"discipline={self.discipline.value}"]
        for i, layer in enumerate(self.layers):
            lines.append(f"layer {i}: " + "; ".join(repr(g) for g in layer.gates))
        return "\n".join(lines)


def compose(a: Circuit, b: Circuit) -> Circuit:
    """Concatenate the layer lists of two circuits over the same register."""
    if a.width != b.width:
        raise CircuitError(f"width mismatch: {a.width} vs {b.width}")
    if a.roles != b.roles:
        raise CircuitError("compose requires identical qubit roles")
    disc = (Discipline.WITH_FANOUT
            if Discipline.WITH_FANOUT in (a.discipline, b.discipline)
            else Discipline.STRICT)
    return Circuit(a.width, a.roles, a.layers + b.layers, disc)


def undo(layers) -> tuple[Layer, ...]:
    """Reverse the layer order and replace each gate by its adjoint."""
    return tuple(Layer(tuple(g.adjoint() for g in layer.gates))
                 for layer in reversed(layers))


def inverse(c: Circuit) -> Circuit:
    """The circuit whose layers undo c's."""
    return Circuit(c.width, c.roles, undo(c.layers), c.discipline)


def remap_gate(g: Gate, mapping) -> Gate:
    """The same gate with qubit i moved to mapping[i]."""
    return Gate(g.kind,
                tuple(mapping[i] for i in g.controls),
                tuple(mapping[i] for i in g.targets),
                frozenset(mapping[i] for i in g.negated),
                theta=g.theta, q=g.q, matrix=g.matrix)


def remap_qubits(c: Circuit, mapping, width: int, roles) -> Circuit:
    """Embed a circuit into a wider register; qubit i becomes mapping[i]."""
    mapping = tuple(as_int(m, "qubit") for m in mapping)
    if len(mapping) != c.width or len(set(mapping)) != len(mapping):
        raise CircuitError("mapping must be injective and cover the circuit width")
    layers = tuple(Layer(tuple(remap_gate(g, mapping) for g in layer.gates))
                   for layer in c.layers)
    return Circuit(width, tuple(roles), layers, c.discipline)


# --- JSON serialization ---
# Document shape: {"width": int, "discipline": "strict"|"wf",
#   "roles": [str per qubit], "layers": [[gate objects]]}; a gate object is
#   {"kind": str, "controls": [int], "neg": [int], "targets": [int],
#    "theta": float?, "q": int?, "matrix": [[re, im], ...] row-major?}.

def _gate_to_obj(g: Gate) -> dict:
    obj = {"kind": g.kind.value, "controls": list(g.controls),
           "neg": sorted(g.negated), "targets": list(g.targets)}
    if g.theta is not None:
        obj["theta"] = g.theta
    if g.q is not None:
        obj["q"] = g.q
    if g.matrix is not None:
        obj["matrix"] = [[float(z.real), float(z.imag)] for z in g.matrix.ravel()]
    return obj


def _gate_from_obj(obj) -> Gate:
    obj = json_object(obj, ("kind", "controls", "neg", "targets", "theta", "q", "matrix"),
                      "gate")
    matrix = None
    if "matrix" in obj:
        pairs = [json_list(z, "matrix entry") for z in json_list(obj["matrix"], "matrix")]
        if any(len(z) != 2 for z in pairs):
            raise CircuitError("matrix entry must be a [re, im] pair")
        flat = np.array([complex(as_real(re, "matrix entry"), as_real(im, "matrix entry"))
                         for re, im in pairs])
        dim = math.isqrt(flat.size)
        if dim * dim != flat.size:
            raise CircuitError(f"matrix of length {flat.size} is not square")
        matrix = flat.reshape(dim, dim)
    qubits = [tuple(json_list(obj.get(key, []), key)) for key in ("controls", "targets", "neg")]
    return Gate(GateKind(obj["kind"]), *qubits, theta=obj.get("theta"), q=obj.get("q"),
                matrix=matrix)


def circuit_to_json(c: Circuit, indent: int | None = None) -> str:
    doc = {"width": c.width,
           "discipline": c.discipline.value,
           "roles": [r.value for r in c.roles],
           "layers": [[_gate_to_obj(g) for g in layer.gates] for layer in c.layers]}
    return json.dumps(doc, indent=indent)


def circuit_from_json(text: str) -> Circuit:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise CircuitError(f"invalid circuit JSON: {e}") from e
    doc = json_object(doc, ("width", "discipline", "roles", "layers"), "circuit")
    try:
        roles = tuple(Role(r) for r in json_list(doc["roles"], "roles"))
        layers = tuple(Layer(tuple(_gate_from_obj(o) for o in json_list(layer, "layer")))
                       for layer in json_list(doc["layers"], "layers"))
        return Circuit(doc["width"], roles, layers,
                       Discipline(doc["discipline"]))
    except KeyError as e:
        raise CircuitError(f"invalid circuit JSON: missing field {e}") from e
