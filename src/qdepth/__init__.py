"""Constant-depth quantum circuit constructions with a verifying simulator.

Builds cat-state, fanout, parity, and mod-q counting circuits plus
classical-to-reversible embeddings; simulates them on dense state vectors;
and checks every construction against brute-force gate semantics while
accounting for depth, width, and ancilla usage.
"""

from .classical import ClassicalCircuit, ClassicalGate
from .ir import (
    Circuit,
    CircuitError,
    Discipline,
    Gate,
    GateKind,
    Layer,
    LayeringError,
    Role,
    circuit_from_json,
    circuit_to_json,
    cnot,
    compose,
    controlled_u,
    fanout,
    hadamard,
    inverse,
    modq_gate,
    pauli_x,
    remap_qubits,
    single_qubit,
    symmetric_phase,
    toffoli,
    validate_layer,
)
from .oracle import oracle_apply, oracle_unitary
from .sim import (
    AncillaPurityResult,
    apply_gate,
    basis_state,
    check_ancilla_purity,
    dump_state,
    plus_at,
    run,
    unitary_of,
    zero_state,
)
from .synth import (
    ModCountingPlan,
    cat_fanout,
    cat_log_depth,
    controlled_u_constant_depth,
    fanout_from_parity,
    fanout_gate,
    modq_constant_depth,
    modq_plan,
    modq_sequential,
    parity_from_fanout,
    parity_via_catstate,
    reversible_embed,
)
from .verify import (
    VerificationReport,
    build_construction,
    depth_scaling_table,
    identity_checks,
    verify_built,
    verify_construction,
)

__version__ = "0.1.0"
