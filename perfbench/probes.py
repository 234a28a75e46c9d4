"""Layer probes of the simulator, timed through the public ``sim.run``.

- Gate probes: one gate of each kind on a dense random state at 16, 20
  and 22 qubits, run as a one-gate circuit with a reused workspace, and
  reported as nanoseconds per amplitude. Every timed output must match
  ``apply_gate`` on the same input to 1e-12.
- Reference layers: ROADMAP's 21-qubit reference circuit, modq-const
  n=6 q=4, run one layer at a time on one basis input. The layer outputs,
  composed in order, must equal one full run of the circuit to 1e-12.

A probe whose output is wrong raises ProbeError instead of being timed.
"""
from __future__ import annotations

import math
from statistics import median
from time import perf_counter

import numpy as np

from qdepth.ir import (Circuit, Discipline, Layer, Role, cnot, controlled_u,
                       fanout, hadamard, modq_gate, pauli_x, single_qubit,
                       symmetric_phase, toffoli)
from qdepth.sim import apply_gate, make_workspace, random_state, run
from qdepth.synth import modq_constant_depth

TOL = 1e-12
GATE_WIDTHS = (16, 20, 22)
GATE_REPEATS = {16: 31, 20: 7, 22: 3}
GATE_KINDS = ("x", "cnot", "toffoli", "modq", "fanout", "phase", "h", "u1",
              "cu_block", "cu_ctrl_block", "cu_diag")
REFERENCE = "modq_const_n6_q4"
REFERENCE_SWEEPS = 5


class ProbeError(RuntimeError):
    """A probe computed a wrong state."""


def _unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def probe_gate(kind: str, w: int, rng: np.random.Generator):
    """One gate of `kind` on a `w`-qubit register, shaped like the gates
    the constructions emit: 3-qubit blocks mid-register as in the mod-q
    counter, an 8-way fanout and an 8-input mod-3 gate."""
    mid = w // 2
    block = (mid - 1, mid, mid + 1)
    if kind == "x":
        return pauli_x(mid)
    if kind == "cnot":
        return cnot(1, w - 2)
    if kind == "toffoli":
        return toffoli((0, mid), w - 1)
    if kind == "modq":
        return modq_gate(3, tuple(range(8)), w - 1)
    if kind == "fanout":
        return fanout(w - 1, tuple(range(8)))
    if kind == "phase":
        return symmetric_phase(math.pi / 3, (0,), w - 1)
    if kind == "h":
        return hadamard(mid)
    if kind == "u1":
        return single_qubit(_unitary(rng, 2), mid)
    if kind == "cu_block":
        return controlled_u((), _unitary(rng, 8), block)
    if kind == "cu_ctrl_block":
        return controlled_u((0,), _unitary(rng, 8), block)
    if kind == "cu_diag":
        phases = np.exp(2j * np.pi * rng.random(8))
        return controlled_u((0,), np.diag(phases), block)
    raise ValueError(f"unknown gate kind {kind!r}")


def _check(got: np.ndarray, want: np.ndarray, what: str) -> None:
    err = float(np.abs(got - want).max())
    if not err <= TOL:
        raise ProbeError(f"{what}: output differs by {err:.3g} (tolerance {TOL})")


def gate_probes(rng: np.random.Generator, runner=run) -> dict[str, tuple[float, str]]:
    """``sim.gate_ns_per_amp.<kind>.w<width>`` for every kind and width.

    `runner` is the run function under test; it defaults to sim.run.
    """
    metrics = {}
    for w in GATE_WIDTHS:
        state = random_state(w, rng)
        workspace = make_workspace(w)
        roles = (Role.INPUT,) * w
        for kind in GATE_KINDS:
            gate = probe_gate(kind, w, rng)
            circuit = Circuit(w, roles, (Layer((gate,)),), Discipline.WITH_FANOUT)
            want = apply_gate(state, gate)
            times = []
            for _ in range(GATE_REPEATS[w]):
                start = perf_counter()
                got = runner(circuit, state, workspace)
                times.append(perf_counter() - start)
                _check(got, want, f"{kind} gate at {w} qubits")
            del want
            metrics[f"sim.gate_ns_per_amp.{kind}.w{w}"] = (
                median(times) * 1e9 / (1 << w), "ns")
        del state, workspace
    return metrics


def reference_layers(rng: np.random.Generator, runner=run) -> dict[str, tuple[float, str]]:
    """``sim.layer_ms.modq_const_n6_q4.L<i>``: per-layer run time on one
    seeded basis input of the data register."""
    circuit = modq_constant_depth(6, 4)
    w = circuit.width
    singles = [Circuit(w, circuit.roles, (layer,), circuit.discipline)
               for layer in circuit.layers]
    data = circuit.data_qubits
    x = int(rng.integers(1 << len(data)))
    initial = np.zeros(1 << w, dtype=complex)
    initial[sum(((x >> j) & 1) << q for j, q in enumerate(data))] = 1.0
    want = run(circuit, initial).copy()
    workspace = make_workspace(w)
    state = np.empty_like(initial)
    times = [[] for _ in singles]
    for _ in range(REFERENCE_SWEEPS):
        state[...] = initial
        for i, single in enumerate(singles):
            start = perf_counter()
            out = runner(single, state, workspace)
            times[i].append(perf_counter() - start)
            state[...] = out
        _check(state, want, f"{REFERENCE} layers composed")
    return {f"sim.layer_ms.{REFERENCE}.L{i:02d}": (median(t) * 1e3, "ms")
            for i, t in enumerate(times)}
