"""
Layered Boolean circuits with AND / OR / NOT / XOR gates of arbitrary
fan-in, used as the source language for reversible embedding.

Wires are numbered: inputs are 0..n-1, then gates in layer order, left to
right. A gate may read any wire defined in an earlier layer (inputs count
as layer zero). The circuit's outputs are the gates of the last layer.
"""
from __future__ import annotations

import functools
import json
import operator
from dataclasses import dataclass

import numpy as np

from .ir import as_int, json_list, json_object

OPS = ("and", "or", "not", "xor")
_BIT_OPS = {"and": operator.and_, "or": operator.or_, "xor": operator.xor}


class ClassicalCircuitError(ValueError):
    pass


@dataclass(frozen=True)
class ClassicalGate:
    op: str
    args: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(
            as_int(a, "wire", ClassicalCircuitError) for a in self.args))
        if self.op not in OPS:
            raise ClassicalCircuitError(f"unknown op {self.op!r}")
        if self.op == "not" and len(self.args) != 1:
            raise ClassicalCircuitError("not takes exactly one argument")
        if not self.args:
            raise ClassicalCircuitError(f"{self.op} needs at least one argument")
        if len(set(self.args)) != len(self.args):
            raise ClassicalCircuitError("gate reads a wire twice")

    def eval(self, values) -> int:
        """The gate's bit from its argument wires' 0/1 values; on int
        arrays of such values it works elementwise."""
        bits = [values[a] for a in self.args]
        if self.op == "not":
            return bits[0] ^ 1
        return functools.reduce(_BIT_OPS[self.op], bits)


@dataclass(frozen=True)
class ClassicalCircuit:
    n_inputs: int
    layers: tuple[tuple[ClassicalGate, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "n_inputs",
                           as_int(self.n_inputs, "inputs", ClassicalCircuitError))
        object.__setattr__(self, "layers", tuple(tuple(l) for l in self.layers))
        if self.n_inputs < 1:
            raise ClassicalCircuitError("need at least one input")
        if not self.layers or any(not l for l in self.layers):
            raise ClassicalCircuitError("need at least one nonempty layer")
        floor = self.n_inputs
        for layer in self.layers:
            for gate in layer:
                bad = [a for a in gate.args if a < 0 or a >= floor]
                if bad:
                    raise ClassicalCircuitError(
                        f"wire {bad[0]} not defined before this layer (limit {floor})")
            floor += len(layer)

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def width(self) -> int:
        return max(len(l) for l in self.layers)

    @property
    def n_outputs(self) -> int:
        return len(self.layers[-1])

    def wire_values(self, bits) -> list[int]:
        """Every wire's bit from the input bits, each an int or an int
        array (then every wire is evaluated elementwise)."""
        values = [b & 1 for b in bits]
        if len(values) != self.n_inputs:
            raise ClassicalCircuitError(
                f"{len(values)} input bits for {self.n_inputs} inputs")
        for layer in self.layers:
            values.extend(gate.eval(values) for gate in layer)
        return values

    def evaluate(self, bits) -> tuple[int, ...]:
        values = self.wire_values(bits)
        return tuple(values[-self.n_outputs:])


def to_json(circuit: ClassicalCircuit) -> str:
    doc = {"inputs": circuit.n_inputs,
           "layers": [[{"op": g.op, "args": list(g.args)} for g in layer]
                      for layer in circuit.layers]}
    return json.dumps(doc)


def _gate_from_obj(obj) -> ClassicalGate:
    obj = json_object(obj, ("op", "args"), "classical gate", ClassicalCircuitError)
    return ClassicalGate(obj["op"], tuple(json_list(obj["args"], "args", ClassicalCircuitError)))


def from_json(text: str) -> ClassicalCircuit:
    try:
        doc = json_object(json.loads(text), ("inputs", "layers"),
                          "classical circuit", ClassicalCircuitError)
        layers = tuple(
            tuple(map(_gate_from_obj, json_list(layer, "layer", ClassicalCircuitError)))
            for layer in json_list(doc["layers"], "layers", ClassicalCircuitError))
        return ClassicalCircuit(doc["inputs"], layers)
    except json.JSONDecodeError as e:
        raise ClassicalCircuitError(f"invalid classical circuit JSON: {e}") from e
    except KeyError as e:
        raise ClassicalCircuitError(f"invalid classical circuit JSON: missing field {e}") from e


def random_circuit(rng: np.random.Generator, n_inputs: int, depth: int,
                   width: int) -> ClassicalCircuit:
    """A random well-formed circuit within the given size bounds, fan-in at most 4."""
    layers = []
    available = n_inputs
    for _ in range(depth):
        count = int(rng.integers(1, width + 1))
        layer = []
        for _ in range(count):
            op = OPS[rng.integers(len(OPS))]
            fanin = 1 if op == "not" else int(
                rng.integers(1, min(4, available) + 1))
            args = rng.choice(available, size=fanin, replace=False)
            layer.append(ClassicalGate(op, tuple(int(a) for a in args)))
        layers.append(tuple(layer))
        available += count
    return ClassicalCircuit(n_inputs, tuple(layers))
