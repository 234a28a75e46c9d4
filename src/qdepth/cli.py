"""
Command-line interface: synthesize circuits to JSON, simulate them on
chosen inputs, verify constructions against their oracles, tabulate depth
scaling, and run the matrix identity checks.

A construction setting that the construction does not read (verify.READS)
is a usage error; one not given takes build_construction's default.

Input bitstrings are qubit-0-first ("110" sets qubit 0 and qubit 1); the
state dump prints basis indices in binary with qubit 0 rightmost. Exit
codes: 0 success/pass, 1 verification failure, 2 usage error, 3 register
too wide for a limit of the simulator (sim.WidthCapExceeded): the
simulation cap (QDEPTH_SIM_CAP, default 22), the 63-qubit ceiling, a
dense matrix's width (ctrl-u's gate oracle), or numpy's largest array;
or a register too large to build at all (MemoryError, or OverflowError
where its size does not fit an index).
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import classical as cc
from .ir import CircuitError, Discipline, circuit_from_json, circuit_to_json
from .sim import WidthCapExceeded, dump_state, held_shape, run
from .synth import CAT_BUILDERS
from .verify import (
    CONSTRUCTIONS,
    DEFAULT_ERROR_TOL,
    READS,
    TOL_ENV,
    U_NAMES,
    Built,
    VerificationReport,
    build_construction,
    check_sim_cap,
    depth_scaling_table,
    identity_checks,
    read_only_by,
    refuse_unread,
    verify_built,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3

DISCIPLINES = [d.value for d in Discipline]


def _add_setting(p: argparse.ArgumentParser, setting: str, what: str, **kw) -> None:
    """A flag for one construction setting, with no default."""
    p.add_argument(f"--{setting}", help=f"{what}; {read_only_by(setting)}", **kw)


def _add_construction_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--construction", required=True, choices=CONSTRUCTIONS)
    _add_setting(p, "n", "number of inputs / register size", type=int)
    _add_setting(p, "q", "modulus", type=int)
    _add_setting(p, "discipline", "layering discipline", choices=DISCIPLINES)
    _add_setting(p, "builder", "cat-state builder", choices=list(CAT_BUILDERS))
    _add_setting(p, "u", "one-qubit unitary", choices=U_NAMES)
    _add_setting(p, "theta", "angle for --u phase", type=float)
    _add_setting(p, "classical", "classical circuit JSON", metavar="FILE")


def _given(args) -> dict:
    """The construction settings given on the command line, the discipline
    as a Discipline; refuses one that the construction does not read."""
    given = {k: v for k, v in vars(args).items()
             if v is not None and any(k in reads for reads in READS.values())}
    refuse_unread(args.construction, given)
    if "discipline" in given:
        given["discipline"] = Discipline(given["discipline"])
    return given


def _build_from_args(args) -> Built:
    given = _given(args)
    if "classical" in given:
        with open(given["classical"], encoding="utf-8") as f:
            given["classical"] = cc.from_json(f.read())
    return build_construction(args.construction, **given)


def _parse_input(spec: str, width: int) -> np.ndarray:
    """The input state in run's shaped form: a basis string holds its set
    qubits, each at index 1; plus@i holds qubit i at 1/sqrt(2) on both."""
    usage = f"input must be {width} bits (qubit 0 first) or plus@i, got {spec!r}"
    if spec.startswith("plus@"):
        if not (spec.isascii() and spec[5:].removeprefix("-").isdigit()):
            raise CircuitError(usage)
        qubit = int(spec[5:])
        if not 0 <= qubit < width:
            raise CircuitError(f"qubit {qubit} outside width {width}")
        return np.full(held_shape((qubit,), width), 1 / np.sqrt(2), dtype=complex)
    if len(spec) != width or set(spec) - {"0", "1"}:
        raise CircuitError(usage)
    state = np.zeros(held_shape([i for i, b in enumerate(spec) if b == "1"], width), dtype=complex)
    state.reshape(-1)[-1] = 1.0  # a view; state.flat takes at most 32 axes
    return state


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
    check_sim_cap(circuit.width)
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
    given = _given(args)
    table = depth_scaling_table(args.construction, given.pop("q", None),
                                range(args.n_min, args.n_max + 1), **given)
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
    p.add_argument("--construction", required=True,
                   choices=[c for c in CONSTRUCTIONS if "n" in READS[c]])
    _add_setting(p, "q", "modulus", type=int)
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    _add_setting(p, "discipline", "layering discipline", choices=DISCIPLINES)
    _add_setting(p, "builder", "cat-state builder", choices=list(CAT_BUILDERS))
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
    except (OSError, ValueError) as e:  # CircuitError and ClassicalCircuitError among them
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except WidthCapExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAP
    except (MemoryError, OverflowError):
        print("error: out of memory: the register is too large to build",
              file=sys.stderr)
        return EXIT_CAP


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
