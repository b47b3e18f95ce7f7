"""Shared harness pieces: paths, thread pinning, the closed loop, metrics."""

from __future__ import annotations

import hashlib
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CLOCK = time.perf_counter
SETUP_TIMEOUT_S = 120


def pin_threads() -> None:
    """One BLAS/OpenMP thread here and in every child (set before numpy loads)."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("PHASEOPT_DIM", None)
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)


def use_working_tree() -> None:
    """Import phaseopt from this checkout's src/, never from an installed copy."""
    if not (SRC / "phaseopt" / "__init__.py").is_file():
        raise SystemExit(f"error: no phaseopt sources under {SRC}")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)


def seeded_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def split_weights(rng, k: int):
    """k weights on a 1e-3 grid that sum to one, each above 0.05."""
    m = 1000 - 50 * k
    cuts = sorted(rng.sample(range(1, m), k - 1))
    return [(b - a + 50) / 1000.0 for a, b in zip([0] + cuts, cuts + [m])]


def run_loop(workload, seed: int, seconds: float) -> dict:
    """Closed loop, one client, no think time, whole rounds only.

    Every round has the same request mix (the seed changes parameters and
    order, not the mix), and a new round starts only while the run is
    expected to end closest to ``seconds``, so runs of one workload differ
    in how many rounds they hold, never in what a round is.  Each phase
    restarts the seeded generator, so the traced and untraced phases of a
    run see the same inputs.
    """
    rng = seeded_rng(workload.name, seed)
    latencies, failures, round_times = [], [], []
    first_digest = None
    start = CLOCK()
    while not round_times or CLOCK() - start + 0.5 * statistics.fmean(round_times) < seconds:
        requests = workload.make_round(rng, len(round_times))
        digest = hashlib.sha256()
        r0 = CLOCK()
        for req in requests:
            latency, ok, out, note = workload.execute(req)
            latencies.append(latency)
            digest.update(out)
            if not ok:
                failures.append(f"{req[0]}: {note}")
        round_times.append(CLOCK() - r0)
        if first_digest is None:
            first_digest = digest.hexdigest()
    return {
        "latencies": latencies,
        "failures": failures,
        "rounds": len(round_times),
        "requests_per_round": len(latencies) // len(round_times),
        "wall_s": CLOCK() - start,
        "digest": first_digest,
    }


def rate(phase: dict) -> float:
    """Requests completed per second of the phase's wall time."""
    return len(phase["latencies"]) / phase["wall_s"]


def end_to_end(phase: dict, setup_s: float, peak_rss_mb: float) -> dict:
    lat = phase["latencies"]
    return {
        "requests_per_s": (rate(phase), "1/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_p90_s": (statistics.quantiles(lat, n=10)[8], "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def monotonic() -> float:
    """A clock that reads the same in every process of this machine."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def timed_setup(workload: str, seed: int, passes: int) -> list:
    """Times from spawning a fresh benchmark process to the end of its set-up.

    Each pass is a new interpreter, so imports (phaseopt, numpy, scipy),
    input generation and the workload's warm-up all count.
    """
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--setup-only"]
    times = []
    for _ in range(passes):
        t0 = monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True,
                              text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up pass failed: {proc.stderr[-500:]}")
        times.append(float(proc.stdout.split()[-1]) - t0)
    return times


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def environment() -> dict:
    """What the numbers depend on: cores, threads, versions, program size."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    lines = {
        p.name: len(p.read_text().splitlines())
        for p in sorted((SRC / "phaseopt").glob("*.py"))
    }
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }
