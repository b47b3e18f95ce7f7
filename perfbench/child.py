"""Traced stand-in for ``python -m phaseopt.cli``.

Usage: ``python child.py TRACE_OUT -- CLI_ARGS...``.  Records the clock
at its first instruction, times ``import phaseopt.cli``, installs the
tracer, runs ``phaseopt.cli.main`` on CLI_ARGS and writes the trace
aggregates to TRACE_OUT (JSON) before exiting with the CLI's exit code.
Standard output is the CLI's own, byte for byte.
"""

import time

FIRST_INSTRUCTION = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import sys  # noqa: E402

import tracer  # noqa: E402


def main() -> int:
    out_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py TRACE_OUT -- CLI_ARGS...")
    t0 = time.perf_counter()
    import phaseopt.cli

    import_s = time.perf_counter() - t0
    rec = tracer.Tracer()
    rec.install()
    try:
        code = phaseopt.cli.main(argv)
    finally:
        rec.uninstall()
        snap = rec.snapshot()
        snap["first_instruction"] = FIRST_INSTRUCTION
        snap["import_s"] = import_s
        with open(out_path, "w") as fh:
            json.dump(snap, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
