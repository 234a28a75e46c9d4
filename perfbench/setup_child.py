"""One fresh-interpreter set-up of a workload, timed by run.py for setup_s.

Reads the workload's cases as a JSON list on stdin, imports qdepth, then
parses each case's classical JSON and synthesizes and validates its
circuit, as ``qdepth verify`` would, and prints ``ready`` when the first
verification could start. The input files are written beforehand by
run.py, so making the seeded inputs is not timed.
"""
from __future__ import annotations

import json
import sys

import common


def main() -> int:
    raw = json.load(sys.stdin)
    try:
        common.load_qdepth()
    except common.ProgramMissing as e:
        print(f"error: {e}", file=sys.stderr)
        return common.EXIT_NO_PROGRAM
    import workloads
    for fields in raw:
        workloads.build(workloads.Case(**fields))
    print("ready", flush=True)
    return common.EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
