"""The benchmark's workloads: seeded lists of ``qdepth verify`` cases.

Each workload is a closed loop: one client runs its cases one after
another, each call starting when the previous one returned. A pass runs
every case once, in an order drawn from the seed (embed_random's cat cases
always lead); timed runs repeat whole passes, so every pass does the same
work and rates are comparable across passes and seeds.

Why these workloads (the prediction of which layers dominate each is in
README.md, next to the per-layer metrics):

- modq_edge: the paper's headline gadget at the simulation edge, so the
  dense gate kernels at 2^20 amplitudes do almost all the work.
- embed_random: many small seeded classical circuits through the
  reversible-embedding checker plus the cat checker, the two special
  verifier paths, with one circuit wide enough to hit the embedding
  checker's y-downgrade so that ``coverage`` falls below 1.

There is no workload of many narrow basis sweeps, where per-call dispatch
and the dense O(4^d) oracle would dominate: that time is pure interpreter
work, which on a shared 2-vCPU host spreads too much between runs to hold
a 25% bound (README.md, "Workloads").
"""
from __future__ import annotations

import random
import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import BENCH_DIR

WORK_DIR = BENCH_DIR / "work"

# The embedding checker drives every (x, y) while n + m is at most this,
# and only y in {0, 1...1} above it.
EMBED_FULL_LIMIT = 12


@dataclass(frozen=True)
class Case:
    """One ``qdepth verify`` call and what it must check."""
    construction: str
    n: int
    q: int | None = None
    discipline: str = "wf"
    builder: str = "fanout"
    u: str = "x"
    superpositions: int = 0
    classical: str | None = None  # classical-circuit JSON, rev-embed only
    n_outputs: int = 0            # m of the classical circuit

    @property
    def label(self) -> str:
        parts = [self.construction, f"n={self.n}"]
        if self.q is not None:
            parts.append(f"q={self.q}")
        if self.construction == "modq-const":
            parts.append(self.discipline)
        if self.construction in ("cat", "parity-cat"):
            parts.append(self.builder)
        if self.construction == "ctrl-u":
            parts.append(f"u={self.u}")
        if self.construction == "rev-embed":
            parts.append(f"m={self.n_outputs} {Path(self.classical).name}")
        if self.superpositions:
            parts.append(f"sup={self.superpositions}")
        return " ".join(parts)

    @property
    def argv(self) -> list[str]:
        argv = ["verify", "--construction", self.construction]
        if self.construction == "rev-embed":
            argv += ["--classical", self.classical]
        else:
            argv += ["--n", str(self.n)]
        if self.q is not None:
            argv += ["--q", str(self.q)]
        if self.construction == "modq-const":
            argv += ["--discipline", self.discipline]
        if self.construction in ("cat", "parity-cat"):
            argv += ["--builder", self.builder]
        if self.construction == "ctrl-u":
            argv += ["--u", self.u]
        if self.superpositions:
            argv += ["--superpositions", str(self.superpositions)]
        return argv + ["--json"]

    @property
    def basis_inputs(self) -> int:
        """Basis states of the data register; 0 for cat, which is checked
        by samples and so has no exhaustive input set."""
        if self.construction == "cat":
            return 0
        if self.construction == "rev-embed":
            return 1 << (self.n + self.n_outputs)
        return 1 << (self.n + 1)

    @property
    def required_inputs(self) -> int:
        """The fewest inputs the verifier may report for this case.

        Oracle checks must cover every basis input plus each requested
        superposition. The embedding checker may fall back to y in
        {0, 1...1} above EMBED_FULL_LIMIT, as it does today; ``coverage``
        reports that shortfall. Two states decide the cat map by
        linearity, so a cat check needs at least two.
        """
        if self.construction == "cat":
            return 2
        if self.construction == "rev-embed":
            if self.n + self.n_outputs <= EMBED_FULL_LIMIT:
                return self.basis_inputs
            return 1 << (self.n + 1)
        return self.basis_inputs + self.superpositions


def _shuffled(cases: list[Case], seed: int) -> list[Case]:
    random.Random(seed).shuffle(cases)
    return cases


def modq_edge(seed: int, workdir: Path) -> list[Case]:
    return _shuffled([Case("modq-const", n=4, q=5, discipline=d, superpositions=10)
                      for d in ("wf", "strict")], seed)


# (inputs, depth, gates per layer) of the small embedding circuits; every
# one fits in 14 qubits and has n + m <= EMBED_FULL_LIMIT.
EMBED_SHAPES = ((3, 1, 2), (4, 2, 2), (5, 2, 2), (6, 2, 2),
                (4, 3, 2), (5, 2, 3), (4, 2, 3), (7, 1, 3))
EMBED_ROUNDS = 2
# n + m = 13 > EMBED_FULL_LIMIT on 17 qubits: checked for 1,024 of 8,192
# inputs. It takes over half of a pass, so its fan-ins are fixed too.
EMBED_WIDE_SHAPE = (9, 1, 4)
EMBED_WIDE_FANIN = 2


def _shaped_circuit(rng: np.random.Generator, n: int, depth: int, gates: int,
                    fanin: int | None = None):
    """A random_circuit draw with exactly `gates` gates in every layer, a
    fixed mix of operations (the first depth*gates entries of and, or,
    not, xor, and, or, ...) and, if given, one fan-in for every gate but
    the nots.

    Fixing the shape fixes the register width and the input count, and
    fixing the mix fixes how many gates embed as MODQ (or, xor), the
    costly kernel, so the work per pass barely depends on the seed; the
    seed still draws the wiring and the gate order.
    """
    from qdepth.classical import OPS, random_circuit
    mix = sorted(OPS[i % len(OPS)] for i in range(depth * gates))
    while True:
        c = random_circuit(rng, n, depth, gates)
        found = [g for layer in c.layers for g in layer]
        if (all(len(layer) == gates for layer in c.layers)
                and sorted(g.op for g in found) == mix
                and (fanin is None or all(len(g.args) == fanin
                                          for g in found if g.op != "not"))):
            return c


def embed_random(seed: int, workdir: Path) -> list[Case]:
    from qdepth.classical import to_json
    rng = np.random.default_rng(seed)
    shapes = [(shape, None) for shape in EMBED_SHAPES * EMBED_ROUNDS]
    shapes.append((EMBED_WIDE_SHAPE, EMBED_WIDE_FANIN))
    cases = []
    for i, (shape, fanin) in enumerate(shapes):
        circuit = _shaped_circuit(rng, *shape, fanin)
        path = workdir / f"classical_{i:02d}.json"
        path.write_text(to_json(circuit), encoding="utf-8")
        cases.append(Case("rev-embed", n=circuit.n_inputs, classical=str(path),
                          n_outputs=circuit.n_outputs))
    # The cat cases lead every pass. Freeing their 2^20-amplitude states
    # raises glibc's mmap threshold, after which the MODQ kernel's per-call
    # temporaries cost about half as much; with a fixed lead every pass,
    # the first included, runs in that state whatever the seed.
    cats = [Case("cat", n=20, builder=b) for b in ("fanout", "log-cat")]
    return cats + _shuffled(cases, seed)


WORKLOADS = {"modq_edge": modq_edge, "embed_random": embed_random}


def make_cases(workload: str, seed: int, workdir: Path) -> list[Case]:
    """The workload's cases in pass order; writes any input files the
    cases read into `workdir`."""
    return WORKLOADS[workload](seed, workdir)


def build(case: Case):
    """Synthesize and validate the case's circuit as the CLI would,
    parsing its classical JSON first."""
    from qdepth import classical as cc
    from qdepth.ir import Discipline
    from qdepth.verify import build_construction
    classical = None
    if case.classical is not None:
        classical = cc.from_json(Path(case.classical).read_text(encoding="utf-8"))
    return build_construction(
        case.construction, n=case.n, q=case.q,
        discipline=Discipline(case.discipline), builder=case.builder,
        u=case.u, classical=classical)


@contextmanager
def workdir():
    """A fresh directory under the benchmark's own tree, removed on exit."""
    WORK_DIR.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
