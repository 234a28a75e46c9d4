"""
Command-line interface: synthesize circuits to JSON, simulate them on
chosen inputs, verify constructions against their oracles, tabulate depth
scaling, and run the matrix identity checks.

Input bitstrings are qubit-0-first ("110" sets qubit 0 and qubit 1); the
state dump prints basis indices in binary with qubit 0 rightmost. Exit
codes: 0 success/pass, 1 verification failure, 2 usage error, 3 register
too wide for a limit of the simulator (sim.WidthCapExceeded): the
simulation cap (QDEPTH_SIM_CAP, default 22), a block-matrix gate oracle
(ctrl-u), or the int64 key of the sparse engine's rows; or a register
too large to build at all (MemoryError).
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import classical as cc
from .ir import CircuitError, Discipline, circuit_from_json, circuit_to_json
from .sim import WidthCapExceeded, basis_state, dump_state, plus_at, run
from .synth import CAT_BUILDERS
from .verify import (
    CONSTRUCTIONS,
    DEFAULT_ERROR_TOL,
    TOL_ENV,
    U_NAMES,
    Built,
    VerificationReport,
    build_construction,
    depth_scaling_table,
    identity_checks,
    sim_cap,
    verify_built,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3

DISCIPLINES = [d.value for d in Discipline]


def _add_construction_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--construction", required=True, choices=CONSTRUCTIONS)
    p.add_argument("--n", type=int, help="number of inputs / register size")
    p.add_argument("--q", type=int, help="modulus for the counting gates")
    p.add_argument("--discipline", choices=DISCIPLINES, default="wf")
    p.add_argument("--builder", choices=list(CAT_BUILDERS), default="fanout",
                   help="cat-state builder for parity-cat")
    p.add_argument("--u", default="x", choices=U_NAMES,
                   help="one-qubit unitary for ctrl-u")
    p.add_argument("--theta", type=float, help="angle for --u phase")
    p.add_argument("--classical", metavar="FILE",
                   help="classical circuit JSON for rev-embed")


def _build_from_args(args) -> Built:
    classical = None
    if args.classical:
        with open(args.classical, encoding="utf-8") as f:
            classical = cc.from_json(f.read())
    return build_construction(
        args.construction, n=args.n, q=args.q,
        discipline=Discipline(args.discipline), builder=args.builder,
        u=args.u, theta=args.theta, classical=classical)


def _parse_input(spec: str, width: int) -> np.ndarray:
    if spec.startswith("plus@"):
        qubit = int(spec[5:])
        if not 0 <= qubit < width:
            raise CircuitError(f"qubit {qubit} outside width {width}")
        return plus_at(width, qubit)
    if len(spec) != width or set(spec) - {"0", "1"}:
        raise CircuitError(
            f"input must be {width} bits (qubit 0 first) or plus@i, got {spec!r}")
    return basis_state(width, sum(1 << i for i, b in enumerate(spec) if b == "1"))


def cmd_synth(args) -> int:
    built = _build_from_args(args)
    with open(args.out, "w", encoding="utf-8") as f:
        f.write(circuit_to_json(built.circuit, indent=2))
        f.write("\n")
    r = VerificationReport.of(built)
    summary = {"construction": r.construction, "n": r.n, "q": r.q,
               "discipline": r.discipline, "depth": r.depth,
               "width": r.width, "ancillae": r.copy_ancillae,
               "work": r.work_qubits, "out": args.out}
    if args.json:
        print(json.dumps(summary))
    else:
        q_part = f" q={r.q}" if r.q is not None else ""
        print(f"construction={r.construction} n={r.n}{q_part} "
              f"depth={r.depth} width={r.width} "
              f"ancillae={r.copy_ancillae} work={r.work_qubits}")
    return EXIT_PASS


def cmd_sim(args) -> int:
    with open(args.circuit, encoding="utf-8") as f:
        circuit = circuit_from_json(f.read())
    cap = sim_cap()
    if circuit.width > cap:
        raise WidthCapExceeded(
            f"{circuit.width} qubits exceeds simulation cap {cap}")
    state = _parse_input(args.input, circuit.width)
    out = run(circuit, state)
    print(dump_state(out))
    return EXIT_PASS


def cmd_verify(args) -> int:
    report = verify_built(
        _build_from_args(args), structural_only=args.structural_only,
        tol_err=args.tolerance, superpositions=args.superpositions)
    print(report.to_json() if args.json else report.to_text())
    return EXIT_PASS if args.structural_only or report.passed else EXIT_FAIL


def cmd_scale(args) -> int:
    table = depth_scaling_table(
        args.construction, args.q, range(args.n_min, args.n_max + 1),
        discipline=Discipline(args.discipline), builder=args.builder)
    print(table.to_json() if args.json else table.to_text())
    return EXIT_PASS


def cmd_identities(args) -> int:
    results = identity_checks()
    if args.json:
        print(json.dumps([{"identity": name, "max_error": err, "pass": ok}
                          for name, err, ok in results]))
    else:
        for name, err, ok in results:
            print(f"identity {name}: {'pass' if ok else 'FAIL'} "
                  f"(max error {err:.3g})")
    return EXIT_PASS if all(ok for _, _, ok in results) else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdepth",
        description="Synthesize, simulate, and verify constant-depth "
                    "fanout/parity/counting circuits.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a construction to a JSON file")
    _add_construction_args(p)
    p.add_argument("--out", required=True, help="output circuit JSON path")
    p.add_argument("--json", action="store_true", help="JSON summary")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("sim", help="run a circuit file on a basis or plus input")
    p.add_argument("circuit", help="circuit JSON path")
    p.add_argument("--input", required=True,
                   help="bitstring, qubit 0 first (e.g. 1100), or plus@i")
    p.set_defaults(fn=cmd_sim)

    p = sub.add_parser("verify", help="check a construction against its oracle")
    _add_construction_args(p)
    p.add_argument("--structural-only", action="store_true",
                   help="skip amplitude checks; report resources only")
    p.add_argument("--tolerance", type=float, default=None,
                   help=f"max amplitude error (default ${TOL_ENV} or {DEFAULT_ERROR_TOL})")
    p.add_argument("--superpositions", type=int, default=0,
                   help="extra random superposition inputs to check")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("scale", help="tabulate depth/width/ancillae over n")
    p.add_argument("--construction", required=True, choices=CONSTRUCTIONS)
    p.add_argument("--q", type=int)
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--discipline", choices=DISCIPLINES, default="wf")
    p.add_argument("--builder", choices=list(CAT_BUILDERS), default="fanout")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_scale)

    p = sub.add_parser("identities", help="run the Hadamard-conjugation "
                                          "matrix identity checks")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_identities)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "scale" and args.n_min > args.n_max:
        parser.error("--n-min must be <= --n-max")  # exits 2
    try:
        return args.fn(args)
    except (CircuitError, cc.ClassicalCircuitError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except WidthCapExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAP
    except MemoryError:
        print("error: out of memory: the register is too large to build",
              file=sys.stderr)
        return EXIT_CAP


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
