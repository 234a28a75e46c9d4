"""Span recorder for the traced run, kept outside the library.

The recorder wraps public functions of qdepth's modules at their module
attributes (and the one method, ``ClassicalCircuit.evaluate``, at its
class attribute). A function imported by name into another module, such
as ``qdepth.verify.run``, is the same object as ``qdepth.sim.run``, so
every module attribute and module-level dict entry bound to it is
swapped, and all are put back when tracing ends. Wrappers pass arguments,
results and exceptions through unchanged.

A span holds its name, start, end, parent span and case id. The layer of
a span is the part of its name before the first dot. Self time is the
span's duration minus the part of it that its child spans cover.
"""
from __future__ import annotations

import functools
import json
import sys
import types
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

HOOK = "trace.hook"
MODULES = ("qdepth", "qdepth.ir", "qdepth.sim", "qdepth.oracle", "qdepth.synth",
           "qdepth.classical", "qdepth.verify", "qdepth.cli")


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int   # index into the recorder's spans, -1 at top level
    case: int
    info: tuple | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans in memory while its wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.case = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, after=None):
        """A wrapper recording one span per call of `fn`.

        `after(args, kwargs, result)` may derive counts from a call; it
        runs once the span has ended and its cost is recorded as a
        ``trace.hook`` span, so it is charged to no layer.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.case)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if after is not None:
                span.info = after(args, kwargs, result)
                spans.append(Span(HOOK, span.end, perf_counter(), span.parent,
                                  self.case))
            return result
        return traced

    @contextmanager
    def installed(self, targets):
        """Install wrappers for `targets`, a list of (owner, attribute,
        span name, after); restore every original on exit."""
        modules = [sys.modules[m] for m in MODULES]
        before = _snapshot(modules, targets)
        wrappers = {}
        for owner, attr, name, after in targets:
            fn = vars(owner)[attr]
            wrappers[id(fn)] = (fn, self.wrap(name, fn, after))
        undo = []
        try:
            for owner, attr, _, _ in targets:
                if not isinstance(owner, types.ModuleType):  # a class attribute
                    fn, wrapper = wrappers[id(vars(owner)[attr])]
                    undo.append((owner, attr, fn))
                    setattr(owner, attr, wrapper)
            for module in modules:
                for attr, value in list(_public(module)):
                    if id(value) in wrappers and value is wrappers[id(value)][0]:
                        undo.append((module, attr, value))
                        setattr(module, attr, wrappers[id(value)][1])
                    elif isinstance(value, dict):
                        for key, item in list(value.items()):
                            if id(item) in wrappers and item is wrappers[id(item)][0]:
                                undo.append((value, key, item))
                                value[key] = wrappers[id(item)][1]
            yield self
        finally:
            for owner, key, original in reversed(undo):
                if isinstance(owner, dict):
                    owner[key] = original
                else:
                    setattr(owner, key, original)
            if _snapshot(modules, targets) != before:
                raise RuntimeError("tracing wrappers were not all restored")


def _public(module):
    return [(a, v) for a, v in vars(module).items() if not a.startswith("__")]


def _snapshot(modules, targets) -> dict:
    """Identity of every module attribute, module-level dict entry and
    wrapped class attribute, to prove that restoring left nothing behind."""
    ids = {}
    for module in modules:
        for attr, value in _public(module):
            ids[(module.__name__, attr)] = id(value)
            if isinstance(value, dict):
                for key, item in value.items():
                    ids[(module.__name__, attr, key)] = id(item)
    for owner, attr, _, _ in targets:
        ids[(repr(owner), attr)] = id(vars(owner)[attr])
    return ids


# --- what is traced ---

def _circuit_size(circuit) -> tuple[int, int]:
    return sum(len(layer.gates) for layer in circuit.layers), circuit.depth


def _after_run(args, kwargs, result):
    circuit = args[0] if args else kwargs["circuit"]
    initial = args[1] if len(args) > 1 else kwargs["initial"]
    gates, _ = _circuit_size(circuit)
    return (np.count_nonzero(initial) == 1, gates << circuit.width)


def _after_oracle_unitary(args, kwargs, result):
    return (16 * result.size,)


def _after_synth(args, kwargs, result):
    circuit = getattr(result, "circuit", result)  # Built or Circuit
    return _circuit_size(circuit) if hasattr(circuit, "layers") else None


def _after_verify_built(args, kwargs, report):
    return (report.inputs_checked, report.passed is not True)


SYNTH_FUNCTIONS = ("cat_log_depth", "cat_fanout", "fanout_gate",
                   "parity_from_fanout", "fanout_from_parity",
                   "parity_via_catstate", "controlled_u_constant_depth",
                   "modq_plan", "modq_sequential", "modq_constant_depth",
                   "reversible_embed")


def targets() -> list[tuple]:
    """(owner, attribute, span name, after) for every traced function."""
    from qdepth import classical, cli, oracle, sim, synth, verify
    t = [(cli, "main", "cli.main", None),
         # build_construction lives in verify but is the synthesis step
         (verify, "build_construction", "synth.build_construction", _after_synth),
         (verify, "verify_built", "verify.verify_built", _after_verify_built),
         (verify, "verify_construction", "verify.verify_construction", None),
         (classical, "from_json", "classical.from_json", None),
         (classical.ClassicalCircuit, "evaluate", "classical.evaluate", None),
         (oracle, "oracle_unitary", "oracle.oracle_unitary", _after_oracle_unitary),
         (oracle, "oracle_apply", "oracle.oracle_apply", None),
         (sim, "run", "sim.run", _after_run),
         (sim, "make_workspace", "sim.make_workspace", None),
         (sim, "check_ancilla_purity", "sim.check_ancilla_purity", None)]
    t += [(synth, f, f"synth.{f}", _after_synth) for f in SYNTH_FUNCTIONS]
    return t


# --- aggregation ---

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(s.seconds - covered)
    return out


def _under(spans: list[Span], name: str) -> list[bool]:
    """Whether each span is `name` or has it as an ancestor."""
    flags = []
    for s in spans:
        flags.append(s.name == name or (s.parent >= 0 and flags[s.parent]))
    return flags


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics (value, unit) of one traced pass."""
    own = self_times(spans)
    in_verify = _under(spans, "verify.verify_built")

    def named(name):
        return [(s, own[i]) for i, s in enumerate(spans) if s.name == name]

    def total(name):
        return sum(s.seconds for s, _ in named(name))

    def layer_self(layer, where=None):
        return sum(own[i] for i, s in enumerate(spans)
                   if s.layer == layer and (where is None or where[i]))

    runs = named("sim.run")
    run_s = sum(t for _, t in runs)
    amp_gates = sum(s.info[1] for s, _ in runs)
    outer_synth = [s for s in spans if s.layer == "synth"
                   and (s.parent < 0 or spans[s.parent].layer != "synth")]
    built = [s.info for s in outer_synth if s.info is not None]
    verified = [s.info for s, _ in named("verify.verify_built")]
    unitaries = named("oracle.oracle_unitary")
    return {
        "sim.run_s": (run_s, "s"),
        "sim.run_calls": (len(runs), "count"),
        "sim.run_basis_s": (sum(t for s, t in runs if s.info[0]), "s"),
        "sim.run_dense_s": (sum(t for s, t in runs if not s.info[0]), "s"),
        "sim.amp_gates": (amp_gates, "count"),
        "sim.ns_per_amp_gate": (run_s * 1e9 / amp_gates if amp_gates else 0.0, "ns"),
        "sim.workspace_s": (total("sim.make_workspace"), "s"),
        "sim.purity_s": (total("sim.check_ancilla_purity"), "s"),
        "sim.purity_calls": (len(named("sim.check_ancilla_purity")), "count"),
        "oracle.unitary_s": (total("oracle.oracle_unitary"), "s"),
        "oracle.calls": (len(unitaries), "count"),
        "oracle.apply_calls": (len(named("oracle.oracle_apply")), "count"),
        "oracle.bytes": (sum(s.info[0] for s, _ in unitaries), "B"),
        "verify.self_s": (layer_self("verify", in_verify), "s"),
        "verify.cases": (len(verified), "count"),
        "verify.inputs_checked": (sum(v[0] for v in verified), "count"),
        "verify.failed": (sum(v[1] for v in verified), "count"),
        "classical.parse_s": (total("classical.from_json"), "s"),
        "classical.eval_s": (total("classical.evaluate"), "s"),
        "classical.eval_calls": (len(named("classical.evaluate")), "count"),
        "synth.build_s": (layer_self("synth"), "s"),
        "synth.calls": (len(outer_synth), "count"),
        "synth.gates": (sum(b[0] for b in built), "count"),
        "synth.layers": (sum(b[1] for b in built), "count"),
        "cli.self_s": (layer_self("cli"), "s"),
    }


def write(spans: list[Span], path: Path, meta: dict) -> None:
    """Write the spans once, times relative to the first span's start."""
    t0 = spans[0].start if spans else 0.0
    doc = dict(meta, fields=["name", "start_s", "end_s", "parent", "case"],
               spans=[[s.name, s.start - t0, s.end - t0, s.parent, s.case]
                      for s in spans])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc), encoding="utf-8")
