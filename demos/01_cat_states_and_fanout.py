"""
Two ways to copy one qubit across a register.

A controlled-not copies a qubit onto a zeroed wire in the computational
basis. Doubling the copies each round (1, 2, 4, ...) spreads one qubit
over n wires in ceil(log2 n) layers; a single fanout gate does the same in
one layer. Starting from (|0> + |1>)/sqrt(2), either route produces the
n-qubit cat state: all wires flip together.
"""
import numpy as np

from qdepth import cat_fanout, cat_log_depth, dump_state, plus_at, run

n = 8

log_route = cat_log_depth(n)
fan_route = cat_fanout(n)
print(f"log route:    depth {log_route.depth} (= ceil(log2 {n}))")
print(f"fanout route: depth {fan_route.depth}")

state = plus_at(n, 0)
out_log = run(log_route, state)
out_fan = run(fan_route, state)

print("\ncat state from the log-depth route (qubit 0 rightmost):")
print(dump_state(out_log))
print("\nsame state from the fanout route:", np.allclose(out_log, out_fan))

# The two circuits are NOT the same operator; they only agree on inputs
# whose copy wires start at |0>. Feed copy wire 1 a |1> to see them split.
probe = np.zeros(1 << n, dtype=complex)
probe[0b11] = 1.0
print("\non |...011> the routes differ:",
      not np.allclose(run(log_route, probe), run(fan_route, probe)))

print("\ndepth growth over n:")
print("n      log route   fanout route")
for m in (2, 4, 8, 16, 32):
    print(f"{m:<6} {cat_log_depth(m).depth:<11} {cat_fanout(m).depth}")
