"""phaseopt benchmark: one workload, one seed, one closed loop.

Usage (from the repository root):

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 33 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.  ``--trace 1``
spends the first half of ``--seconds`` untraced and the second half traced
on the same inputs, and reports the per-layer metrics plus
``trace_overhead_ratio`` (traced over untraced requests per second).
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Details (every latency, digests, failures, the environment) are written to
``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys

import common
import layers
import tracer

common.pin_threads()  # before anything imports numpy

WORKLOADS = {
    "cli-cold": ("cli_cold", "CliCold"),
    "library-verdicts": ("library_verdicts", "LibraryVerdicts"),
    "groupsim-sweeps": ("groupsim_sweeps", "GroupsimSweeps"),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one set-up pass in a fresh process, for setup_s (see common.timed_setup)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_only(workload, seed: int) -> int:
    """Set up as a run would, print the clock when the first request could start."""
    try:
        workload.setup()
        workload.make_round(common.seeded_rng(workload.name, seed), 0)
        print(common.monotonic())
    finally:
        workload.cleanup()
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    common.use_working_tree()
    module, cls = WORKLOADS[args.workload]
    workload = getattr(importlib.import_module(module), cls)()
    common.OUT.mkdir(exist_ok=True)
    if args.setup_only:
        return setup_only(workload, args.seed)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    setup_passes_s = common.timed_setup(args.workload, args.seed, workload.setup_passes)
    setup_s = statistics.median(setup_passes_s)
    try:
        workload.setup()
        seconds = args.seconds / 2 if args.trace else args.seconds
        phases = [common.run_loop(workload, args.seed, seconds)]
        if args.trace:
            rec = tracer.Tracer()
            workload.start_tracing(rec)
            phases.append(common.run_loop(workload, args.seed, seconds))
            extras = workload.stop_tracing()
            extras["trace_overhead_ratio"] = common.rate(phases[1]) / common.rate(phases[0])
            metrics = layers.compute(rec, len(phases[1]["latencies"]), extras)
            record["wrapped"] = rec.wrapped
            record["calls"] = {**rec.calls, **{k: v for k, v in rec.counts.items()
                                               if k in tracer.COUNTED.values()}}
        else:
            metrics = common.end_to_end(phases[0], setup_s, workload.peak_rss_mb())
    finally:
        workload.cleanup()

    attempted = sum(len(p["latencies"]) for p in phases)
    failures = [f for p in phases for f in p["failures"]]
    record.update({
        "setup_s": setup_s,
        "setup_passes_s": setup_passes_s,
        "phases": phases,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "environment": common.environment(),
    })
    out_path = common.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1))

    head = phases[0]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{head['rounds']} rounds x {head['requests_per_round']} requests")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(f"  {'failed_ratio':40s} {len(failures) / attempted:14.6g} ({len(failures)}/{attempted})")
    for i, p in enumerate(phases):
        print(f"  output_sha256[{'traced' if i else 'untraced'} round 0] {p['digest']}")
    for f in failures[:10]:
        print(f"  FAILED {f}")
    env = record["environment"]
    print(f"  env: nproc={env['nproc']} threads={env['threads']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} blas={env['blas']} "
          f"src_lines={env['src_lines_total']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
