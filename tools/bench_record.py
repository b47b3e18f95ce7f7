"""Record one point of the performance trajectory as BENCH_<n>.json.

Exports two git revisions (the parent and the change) into fresh
directories, runs ``perfbench/run.py`` in alternating parent/change
pairs on each workload, one traced run per side, and the tier-1 suite
once per side, then writes the medians and quartiles of every end-to-end
metric, each pair's raw numbers and digests, the per-layer metrics, the
thread settings, both revisions, the tier-1 wall times and
``wc -l src/phaseopt/*.py``.  Run from the repository root:

    python3 tools/bench_record.py --base HEAD~1 --head HEAD --out BENCH_7.json \\
        --workload library-verdicts:10 --workload cli-cold:4 --seed 901

The first pair runs the parent first, the next the change first, and so
on.  ``PAIRS`` must be even, so that each side runs first equally often:
``cli-cold`` ``setup_s`` favours the side that runs first.  An odd count, a
count below 2 or a spec with no colon is an argparse error.  Seeds run from
``--seed`` upward; the traced runs use the next seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=tree, check=True, capture_output=True, text=True).stdout
    summary = json.loads(out.strip().splitlines()[-1])
    record = json.loads((tree / ".perfbench-out" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {
        "metrics": {k: v["value"] for k, v in summary["metrics"].items()},
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "output_sha256": record["phases"][0]["digest"],
        "environment": record["environment"],
    }


def tier1(tree: Path) -> dict:
    env = {**os.environ, **THREADS, "PYTHONPATH": str(tree / "src")}
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"], cwd=tree, env=env,
                          capture_output=True, text=True)
    wall = time.perf_counter() - t0
    return {"wall_s": round(wall, 2), "summary": proc.stdout.strip().splitlines()[-1]}


def src_lines(tree: Path) -> dict:
    files = sorted((tree / "src" / "phaseopt").glob("*.py"))
    lines = {f.name: len(f.read_text().splitlines()) for f in files}
    return {**lines, "total": sum(lines.values())}


def spread(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 \
        else (values[0],) * 3
    return {"median": q2, "q1": q1, "q3": q3}


def summarize(pairs, benchmark) -> dict:
    out = {}
    for spec in benchmark["end_to_end"]:
        name, higher = spec["name"], spec["better"] == "higher"
        base = [p["parent"]["metrics"][name] for p in pairs]
        head = [p["change"]["metrics"][name] for p in pairs]
        wins = sum((h > b) if higher else (h < b) for b, h in zip(base, head))
        out[name] = {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
                     "parent": spread(base), "change": spread(head), "change_wins": wins}
    return out


def workload_spec(text: str) -> tuple:
    """``NAME:PAIRS`` as ``(NAME, PAIRS)``, PAIRS even and positive."""
    name, colon, count = text.partition(":")
    pairs = int(count) if count.isdecimal() else 0
    if not (colon and name and pairs > 0 and pairs % 2 == 0):
        raise argparse.ArgumentTypeError(f"{text!r} is not NAME:PAIRS with PAIRS even and >= 2")
    return name, pairs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git revision of the parent")
    p.add_argument("--head", required=True, help="git revision of the change")
    p.add_argument("--out", required=True, help="file to write, e.g. BENCH_7.json")
    p.add_argument("--workload", action="append", required=True, type=workload_spec,
                   help="NAME:PAIRS with PAIRS even, repeatable")
    p.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    p.add_argument("--seconds", type=float, default=33.0)
    args = p.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    revs = {"parent": git("rev-parse", args.base), "change": git("rev-parse", args.head)}
    with tempfile.TemporaryDirectory(prefix="bench-record-") as tmp:
        trees = {side: Path(tmp) / side for side in revs}
        for side, tree in trees.items():
            export(revs[side], tree)
        result = {
            "revisions": revs,
            "threads": THREADS,
            "seconds": args.seconds,
            "command": ["python3", "perfbench/run.py", "--seconds", str(args.seconds)],
            "src_lines": {side: src_lines(tree) for side, tree in trees.items()},
            "tier1": {side: tier1(tree) for side, tree in trees.items()},
            "workloads": {},
        }
        for name, count in args.workload:
            seeds = [args.seed + i for i in range(count)]
            pairs = []
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                runs = {side: run_bench(trees[side], name, seed, args.seconds, 0)
                        for side in order}
                pairs.append({"seed": seed, "first": order[0], **runs})
                print(name, seed, {s: r["metrics"]["requests_per_s"] for s, r in runs.items()},
                      file=sys.stderr)
            traced = {side: run_bench(trees[side], name, seeds[-1] + 1, args.seconds, 1)
                      for side in trees}
            result["environment"] = pairs[0]["parent"].pop("environment")
            for pair in pairs:
                for side in trees:
                    pair[side].pop("environment", None)
            result["workloads"][name] = {
                "seeds": seeds,
                "digests_equal": all(pair["parent"]["output_sha256"] == pair["change"]["output_sha256"]
                                     for pair in pairs),
                "failed": sum(pair[s]["failed"] for pair in pairs for s in trees),
                "end_to_end": summarize(pairs, benchmark),
                "pairs": pairs,
                "per_layer": {side: {"seed": seeds[-1] + 1, "metrics": traced[side]["metrics"]}
                              for side in trees},
            }
    (ROOT / args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
