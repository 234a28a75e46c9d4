"""Property tests: the three engines agree on random circuits, and the
array oracle agrees with itself one int at a time.

The dense engine (sim.run, through unitary_of), the sparse engine
(sim.run_basis on every basis input) and the product of the per-gate
definitional oracles (oracle.oracle_unitary) share no gate arithmetic.
Hypothesis runs under a fixed profile: derandomized, with no example
database, so the suite stays deterministic. The constants it caches from
the code under test, as soon as tests are collected, go to a temporary
directory removed at exit, not to a .hypothesis directory in the tree.
"""
import cmath
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import configuration, given, settings
from hypothesis import strategies as st

from qdepth.ir import Circuit, Discipline, Gate, GateKind, compose, inverse
from qdepth.oracle import PERMUTATION_KINDS, oracle_apply, oracle_unitary
from qdepth.sim import run_basis, unitary_of

from common import AFFINE_KINDS, DIAGONAL_KINDS, random_layered_circuit

TOL = 1e-12

_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
configuration.set_hypothesis_home_dir(_HOME.name)

PROFILE = settings(derandomize=True, database=None, max_examples=50,
                   deadline=None)


def _oracle_product(c: Circuit) -> np.ndarray:
    """The product of the gates' oracle matrices, each multiplied in by
    its nonzero entries, which are few: 2^k in a column of a k-target
    block, one in a permutation's."""
    u = np.eye(1 << c.width, dtype=complex)
    for gate in c.gates():
        m = oracle_unitary(gate, c.width)
        rows, cols = np.nonzero(m)
        u, before = np.zeros_like(u), u
        np.add.at(u, rows, m[rows, cols, None] * before[cols])
    return u


def _sparse_columns(c: Circuit) -> tuple[np.ndarray, list[int]]:
    """The circuit's matrix from run_basis, and the columns it filled: all
    inputs at once, or one at a time when their rows outgrow the budget
    (an input whose own rows do too is left out)."""
    dim = 1 << c.width
    u = np.zeros((dim, dim), dtype=complex)
    batches = [np.arange(dim)]
    if run_basis(c, batches[0]) is None:
        batches = [np.array([x]) for x in range(dim)]
    filled = []
    for starts in batches:
        rows = run_basis(c, starts)
        if rows is not None:
            ids, index, amps = rows
            u[index, starts[ids]] = amps
            filled += starts.tolist()
    return u, filled


def _shaped(rng, width, discipline, shape) -> Circuit:
    """A random layered circuit, or A·D·A⁻¹ or A·D·B with A and B random
    affine layers (X, CNOT, fanout, MODQ q=2, negated controls) and D
    random diagonal layers."""
    if shape == "layered":
        return random_layered_circuit(rng, width, 4, discipline)
    a, d, b = (random_layered_circuit(rng, width, int(rng.integers(1, 4)),
                                      discipline, kinds)
               for kinds in (AFFINE_KINDS, DIAGONAL_KINDS, AFFINE_KINDS))
    return compose(compose(a, d), inverse(a) if shape == "copy-uncopy" else b)


def test_dense_sparse_and_oracle_agree():
    # run_basis gives up on an input whose own rows outgrow its budget, so
    # a draw may leave columns out, all of them at two qubits; across the
    # draws at least 95% of the basis inputs must be compared (97.7% were)
    counts = []

    @PROFILE
    @given(seed=st.integers(0, 2**32 - 1), width=st.integers(2, 8),
           discipline=st.sampled_from(list(Discipline)),
           shape=st.sampled_from(["layered", "copy-uncopy", "copy-other"]))
    def agree(seed, width, discipline, shape):
        c = _shaped(np.random.default_rng(seed), width, discipline, shape)
        want = _oracle_product(c)
        assert np.abs(unitary_of(c) - want).max() <= TOL
        sparse, filled = _sparse_columns(c)
        assert np.abs(sparse[:, filled] - want[:, filled]).max(initial=0.0) <= TOL
        counts.append((len(filled), 1 << c.width))

    agree()
    compared, total = map(sum, zip(*counts))
    assert compared >= 0.95 * total, (compared, total)


@PROFILE
@given(seed=st.integers(0, 2**32 - 1), width=st.integers(2, 8),
       kind=st.sampled_from(sorted(PERMUTATION_KINDS, key=lambda k: k.value)))
def test_array_oracle_matches_per_int_calls(seed, width, kind):
    # each permutation kind on random qubits, about half of its controls
    # negated: the images and phases of every basis index at once are
    # those of one call per index, and of the gate's definition
    rng = np.random.default_rng(seed)
    qubits = [int(q) for q in rng.permutation(width)]
    n_controls = {GateKind.PAULI_X: 0, GateKind.CNOT: 1, GateKind.FANOUT: 1}.get(
        kind, int(rng.integers(kind is not GateKind.PHASE, width)))
    controls, rest = qubits[:n_controls], qubits[n_controls:]
    n_targets = int(rng.integers(1, len(rest) + 1)) if kind is GateKind.FANOUT else 1
    gate = Gate(kind, tuple(controls), tuple(rest[:n_targets]),
                frozenset(c for c in controls if rng.random() < 0.5),
                theta=float(rng.uniform(-np.pi, np.pi)) if kind is GateKind.PHASE else None,
                q=int(rng.integers(2, 6)) if kind is GateKind.MODQ else None)
    images, phases = oracle_apply(gate, np.arange(1 << width), width)
    for want in ([oracle_apply(gate, x, width) for x in range(1 << width)],
                 [_definition(gate, x) for x in range(1 << width)]):
        assert images.tolist() == [image for image, _ in want]
        assert phases.tolist() == [phase for _, phase in want]


def _definition(gate: Gate, x: int) -> tuple[int, complex]:
    """One basis index's image and phase, bit by bit: MODQ fires on a count
    of true controls that is not a multiple of q, every other kind when all
    of them are true (a negated one at 0)."""
    true = [((x >> c) & 1) ^ (c in gate.negated) for c in gate.controls]
    fires = sum(true) % gate.q != 0 if gate.kind is GateKind.MODQ else all(true)
    if gate.kind is GateKind.PHASE:
        on = fires and (x >> gate.targets[0]) & 1
        return x, cmath.exp(1j * gate.theta) if on else 1
    return x ^ (sum(1 << t for t in gate.targets) if fires else 0), 1


FAILING_PROPERTY = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5
"""


def test_a_failing_property_does_not_abort_the_run(tmp_path):
    # under the project's warning filters, a failing property is reported
    # as one failure and the test file after it still runs
    (tmp_path / "test_a_property.py").write_text(FAILING_PROPERTY)
    (tmp_path / "test_b_plain.py").write_text("def test_passes():\n    pass\n")
    config = Path(__file__).resolve().parent.parent / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "-p", "no:cacheprovider",
         "-q", str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr, proc.stdout
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
