"""Property tests: the three engines agree on random circuits, the dense
engine agrees with the oracles on inputs in its shaped form that leave
qubits idle, and with its own flat runs, to 1e-15 on circuits of
permutations and diagonals, the array oracle agrees with itself one
int at a time, the one-pass layer check accepts exactly the layers
whose gates pass a pairwise check, and circuit JSON gives back every
circuit exactly.

The dense engine (sim.run, through unitary_of), the sparse engine
(sim.run_basis on every basis input) and the product of the per-gate
definitional oracles (oracle.oracle_unitary) share no gate arithmetic.
Hypothesis runs under a fixed profile: derandomized, with no example
database, so the suite stays deterministic. The constants it caches from
the code under test, as soon as tests are collected, go to a temporary
directory removed at exit, not to a .hypothesis directory in the tree.
"""
import cmath
import itertools
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
from hypothesis import configuration, given, settings
from hypothesis import strategies as st

from qdepth.ir import (Circuit, Discipline, Gate, GateKind, Layer, LayeringError, Role,
                       block_matrix, circuit_from_json, circuit_to_json, compose, inverse,
                       validate_layer)
from qdepth.oracle import PERMUTATION_KINDS, oracle_apply, oracle_unitary
from qdepth.sim import embed_index, random_state, run, run_basis, unitary_of
from qdepth.synth import modq_constant_depth

from common import (AFFINE_KINDS, DIAGONAL_KINDS, held_qubits, random_gate,
                    random_layered_circuit, shaped_and_flat)

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


def test_unitary_of_in_several_batches_matches_the_oracle():
    # unitary_of runs its columns 2^16 amplitudes a run: 128 columns a
    # batch at 9 qubits (4 batches), 64 at 10 (16), each batch one run
    rng = np.random.default_rng(9)
    circuits = [random_layered_circuit(rng, 9, 3, discipline) for discipline in Discipline]
    circuits += [random_layered_circuit(rng, 10, 2, Discipline.WITH_FANOUT),
                 modq_constant_depth(2, 3)]
    for c in circuits:
        assert np.abs(unitary_of(c) - _oracle_product(c)).max() <= TOL


# every layer kind and the parity, the kinds that move a qubit under
# controls drawn three times as often as the others
LIVE_KINDS = ("x", "h", "u", "fanout", "phase", "cu_diag") + (
    "cnot", "toffoli", "modq", "parity", "cu") * 3


def _moves(gate: Gate) -> bool:
    """Whether a gate can change a basis index: a permutation other than
    PHASE, or a block that is not diagonal."""
    if gate.kind in PERMUTATION_KINDS:
        return gate.kind is not GateKind.PHASE
    u = block_matrix(gate)
    return bool(np.count_nonzero(u - np.diag(np.diagonal(u))))


def _idle_controls(c: Circuit, held) -> list[str]:
    """How the idle qubits (not in `held`) control the gates that move
    qubits the run holds: "plain", or "negated <kind>"."""
    return [f"negated {gate.kind.value}" if q in gate.negated else "plain"
            for gate in c.gates() if _moves(gate) and set(gate.targets) <= set(held)
            for q in gate.controls if q not in held]


def _held_run(c: Circuit, support, values) -> tuple[np.ndarray, list[int]]:
    """run on `values` held on the `support` qubits, in the shaped form:
    the output, flattened, and the qubits it holds."""
    got = run(c, shaped_and_flat(support, c.width, values)[0])
    return got.reshape(-1), held_qubits(got)


def test_run_on_live_qubits_matches_the_oracle():
    # each draw: a layered circuit of one or two layers and an A·D·A⁻¹ or
    # A·D·B circuit, each run on three shaped inputs that hold random
    # subsets of the qubits, every other qubit restricted away. The
    # width, discipline and shapes come from the seed, since hypothesis
    # draws its own small integers far more often than large ones. The
    # draws must hold idle qubits as every kind of control that the
    # restriction rewrites.
    seen = Counter()

    @PROFILE
    @given(seed=st.integers(0, 2**32 - 1))
    def agree(seed):
        rng = np.random.default_rng(seed)
        width = int(rng.integers(2, 9))
        discipline = list(Discipline)[int(rng.integers(2))]
        layered = random_layered_circuit(rng, width, int(rng.integers(1, 3)),
                                         discipline, LIVE_KINDS)
        shape = ("copy-uncopy", "copy-other")[int(rng.integers(2))]
        for c in (layered, _shaped(rng, width, discipline, shape)):
            want = _oracle_product(c)
            for _ in range(3):
                support = [q for q in range(width) if rng.random() < 0.3]
                values = random_state(len(support), rng)
                state = np.zeros(1 << width, dtype=complex)
                state[embed_index(np.arange(values.size), support)] = values
                got, held = _held_run(c, support, values)
                slab = embed_index(np.arange(got.size), held)
                expected = want @ state
                assert np.abs(got - expected[slab]).max() <= TOL
                assert np.abs(np.delete(expected, slab)).max(initial=0.0) <= TOL
                seen.update(_idle_controls(c, held))

    agree()
    wanted = ["plain", "negated cnot", "negated toffoli", "negated cu", "negated modq"]
    assert all(seen[k] for k in wanted), seen


def test_shaped_and_flat_runs_agree():
    # each draw: a random circuit of every shape and a random input on a
    # random subset of the qubits. run on the input's shaped form returns
    # the flat run's slab on the qubits it holds, the input's and those
    # the plan moves; the flat run is 0 everywhere else, and both match
    # the oracle and the sparse engine. The draws must hold fewer qubits
    # than the width and all of them
    seen = Counter()

    @PROFILE
    @given(seed=st.integers(0, 2**32 - 1))
    def agree(seed):
        rng = np.random.default_rng(seed)
        width = int(rng.integers(2, 9))
        discipline = list(Discipline)[int(rng.integers(2))]
        shape = ("layered", "copy-uncopy", "copy-other")[int(rng.integers(3))]
        c = _shaped(rng, width, discipline, shape)
        support = [q for q in range(width) if rng.random() < 0.4]
        values = random_state(len(support), rng)
        starts = embed_index(np.arange(values.size), support)
        flat = np.zeros(1 << width, dtype=complex)
        flat[starts] = values
        want = _oracle_product(c) @ flat
        got, held = _held_run(c, support, values)
        assert set(support) <= set(held)
        slab = embed_index(np.arange(1 << len(held)), held)
        out = run(c, flat)
        assert np.abs(out - want).max() <= TOL
        assert np.abs(got - out[slab]).max() <= TOL
        assert not np.delete(out, slab).any()
        rows = run_basis(c, starts)
        if rows is not None:
            ids, index, amps = rows
            sparse = np.zeros(1 << width, dtype=complex)
            np.add.at(sparse, index, amps * values[ids])
            assert np.abs(sparse - want).max() <= TOL
            seen["sparse"] += 1
        seen["some held" if len(held) < width else "all held"] += 1

    agree()
    assert seen["some held"] and seen["all held"] and seen["sparse"], seen


def test_shaped_runs_of_permutations_and_diagonals_are_the_flat_runs_cut():
    # each draw: A·D·A⁻¹ or A·D·B (A and B random affine layers, A
    # possibly none, D random diagonal layers or one diagonal gate) and a
    # random input on a random subset of the qubits. A shaped run builds
    # D's factors, rewritten through A where A moves a qubit that D reads,
    # on its live qubits alone; a flat run builds them on every qubit, or
    # multiplies a lone gate's slab. The shaped run is the flat run's held
    # slab to 1e-15 (numpy may round a multiply of one amplitude and of
    # many apart in the last bit), and the flat run is 0 off it. The draws
    # must leave qubits idle, also under rewritten gates, and hold a lone
    # diagonal gate
    seen = Counter()

    @PROFILE
    @given(seed=st.integers(0, 2**32 - 1))
    def agree(seed):
        rng = np.random.default_rng(seed)
        width = int(rng.integers(2, 9))
        discipline = list(Discipline)[int(rng.integers(2))]
        a, d, b = (random_layered_circuit(rng, width, int(rng.integers(low, 4)),
                                          discipline, kinds)
                   for low, kinds in ((0, AFFINE_KINDS), (1, DIAGONAL_KINDS),
                                      (1, AFFINE_KINDS)))
        if rng.random() < 0.25:  # D of one gate
            d = Circuit(width, d.roles, ((next(iter(d.gates())),),), discipline)
        c = compose(compose(a, d), inverse(a) if rng.random() < 0.5 else b)
        support = [q for q in range(width) if rng.random() < 0.5]
        shaped, flat = shaped_and_flat(support, width, random_state(len(support), rng))
        got, out = run(c, shaped), run(c, flat)
        held = held_qubits(got)
        slab = embed_index(np.arange(1 << len(held)), held)
        assert np.abs(got.reshape(-1) - out[slab]).max() <= 1e-15
        assert not np.delete(out, slab).any()
        moved = {t for g in a.gates() for t in g.targets}
        rewritten = any(moved & set(g.support) for g in d.gates())
        if len(held) < width:
            seen["idle"] += 1
            seen["idle, rewritten"] += rewritten
        seen["lone"] += len(list(d.gates())) == 1 and not rewritten

    agree()
    assert seen["idle"] and seen["idle, rewritten"] and seen["lone"], seen


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


def _pair_conflicts(a: Gate, b: Gate, discipline: Discipline) -> bool:
    """Whether two gates may not share a layer: under STRICT when they share
    any qubit, under WITH_FANOUT when either one's target is anywhere in
    the other."""
    if discipline is Discipline.STRICT:
        return bool(a.support & b.support)
    return bool(set(a.targets) & b.support or set(b.targets) & a.support)


def test_one_pass_layer_check_matches_the_pairwise_definition():
    # the gates of a layer valid under WITH_FANOUT, which share controls,
    # mixed with gates of every kind on random qubits
    seen = Counter()

    @PROFILE
    @given(seed=st.integers(0, 2**32 - 1), width=st.integers(2, 8),
           n_gates=st.integers(1, 6), n_random=st.integers(0, 2))
    def agree(seed, width, n_gates, n_random):
        rng = np.random.default_rng(seed)
        shared = random_layered_circuit(rng, width, 1, Discipline.WITH_FANOUT).layers[0]
        n_random = min(n_random, n_gates)
        gates = [*shared.gates[:n_gates - n_random],
                 *(random_gate(rng, width) for _ in range(n_random))]
        rng.shuffle(gates)
        rejected = []
        for discipline in Discipline:
            want = any(_pair_conflicts(a, b, discipline)
                       for a, b in itertools.combinations(gates, 2))
            try:
                validate_layer(Layer(tuple(gates)), discipline, width)
                rejected.append(False)
            except LayeringError:
                rejected.append(True)
            assert rejected[-1] == want, (discipline, gates)
        seen[tuple(rejected)] += 1

    agree()
    assert len(seen) == 3, seen  # none is valid under STRICT alone


def test_json_round_trip_is_exact():
    # every gate kind under both disciplines, with negated controls, theta,
    # q and explicit matrices, on a register of mixed roles
    seen = Counter()

    @PROFILE
    @given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 10),
           depth=st.integers(1, 3), discipline=st.sampled_from(list(Discipline)))
    def round_trip(seed, width, depth, discipline):
        rng = np.random.default_rng(seed)
        c = random_layered_circuit(rng, width, depth, discipline)
        c = Circuit(width, [list(Role)[i] for i in rng.integers(0, len(Role), width)],
                    c.layers, discipline)
        assert circuit_from_json(circuit_to_json(c)) == c
        for g in c.gates():
            seen.update([g.kind, discipline] + ["negated"] * bool(g.negated))

    round_trip()
    assert set(GateKind) | set(Discipline) | {"negated"} <= set(seen), seen


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
