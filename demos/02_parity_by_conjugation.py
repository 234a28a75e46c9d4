"""
Parity and fanout are the same gate seen through Hadamards.

Conjugating a controlled-not with Hadamards on both wires reverses its
direction. A parity gate is a stack of controlled-nots into one target, a
fanout gate is a stack of controlled-nots out of one control, so a layer
of Hadamards turns one into the other. A second route rewrites parity as
controlled pi-shifts (Hadamard-conjugated controlled-nots on the target),
and since phase shifts are diagonal they all fire in a single layer once
the target is copied cat-style onto n-1 ancillae.
"""
import numpy as np

from qdepth import (
    fanout_from_parity, fanout_gate, modq_gate, oracle_unitary,
    parity_from_fanout, parity_via_catstate, unitary_of,
)
from qdepth.sim import data_block_unitary

n = 4
parity_matrix = oracle_unitary(modq_gate(2, tuple(range(n)), n), n + 1)

conj = parity_from_fanout(n)
print(f"H . fanout . H on {n} inputs: depth {conj.depth}, "
      f"matches parity: "
      f"{np.abs(unitary_of(conj) - parity_matrix).max():.2e} max error")

back = fanout_from_parity(n)
print(f"H . parity . H: matches the fanout gate: "
      f"{np.abs(unitary_of(back) - unitary_of(fanout_gate(n))).max():.2e}")

for builder in ("fanout", "log-cat"):
    c = parity_via_catstate(n, builder)
    block = data_block_unitary(unitary_of(c), tuple(range(n + 1)))
    err = np.abs(block - parity_matrix).max()
    print(f"pi-shift route with {builder} copies: depth {c.depth}, "
          f"{c.ancilla_count} ancillae, max error {err:.2e}")

print("\nthe pi-shift layer parallelizes, so depth stays put as n grows:")
print("n      depth (fanout copies)")
for m in (2, 4, 8, 16, 32):
    print(f"{m:<6} {parity_via_catstate(m, 'fanout').depth}")
