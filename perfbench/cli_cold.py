"""Workload ``cli-cold``: README pipelines, one fresh CLI process per request.

Every request pays interpreter and import start-up, the JSON codec on
D^2 entries and a cold special-function kernel.  A round runs every
pipeline at every D in {64, 128, 256} once, plus one README ``oracle-et``
at D=12; the seed picks state weights, chessboard parameters, example4
offsets, coherent amplitudes and the pipeline order.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import shutil
import subprocess
import sys

import common

CHILD = common.ROOT / "perfbench" / "child.py"
DIMS = (64, 128, 256)
# Every pipeline at every D, then one oracle-et at its README dimension.
PIPELINES = [(family, dim) for family in
             ("state", "canonical", "chessboard", "example4", "example5", "norm-sweep")
             for dim in DIMS] + [("oracle-et", 12)]
STATE_LEVELS = (0, 1, 3)
DENSITY_GRID = 720
WARMUP = ["gen", "canonical", "--dim", "4"]
CHILD_TIMEOUT_S = 120


def fmt_complex(z: complex) -> str:
    return f"{z.real!r}{z.imag:+}j"


class CliCold:
    name = "cli-cold"
    setup_passes = 5

    def __init__(self):
        self.work = common.OUT / f"cli-cold-{os.getpid()}"
        self.trace_files = []  # (trace file, spawn clock) per traced request
        self.tracer = None

    # --- set-up ------------------------------------------------------------

    def setup(self):
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        proc = self._spawn(WARMUP + ["--out", "warmup.json"], None)
        if proc.returncode != 0:
            raise SystemExit(f"error: warm-up CLI call failed: {proc.stderr.decode()}")

    def start_tracing(self, tracer):
        self.tracer = tracer

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)

    # --- requests ----------------------------------------------------------

    def make_round(self, rng, index):
        order = list(range(len(PIPELINES)))
        rng.shuffle(order)
        requests = []
        for i in order:
            family, dim = PIPELINES[i]
            requests += getattr(self, "_pipe_" + family.replace("-", "_"))(rng, dim, f"r{index}p{i}")
        return requests

    def _path(self, tag):
        return f"{tag}.json"  # children run in the work directory

    def _pipe_state(self, rng, dim, tag):
        weights = common.split_weights(rng, len(STATE_LEVELS))
        spec = ",".join(f"{w!r}@{s}" for w, s in zip(weights, STATE_LEVELS))
        path = self._path(tag)
        full = [0.0] * (max(STATE_LEVELS) + 1)
        for w, s in zip(weights, STATE_LEVELS):
            full[s] = w
        return [
            ("gen", ["gen", "state", "--levels", spec, "--dim", str(dim), "--out", path], None),
            ("check-extremal", ["check", "extremal", "--in", path], ("not-extremal",)),
            ("check-preclean", ["check", "preclean", "--in", path], ("negative", None)),
            ("recover-state", ["recover-state", "--in", path], ("weights", full)),
        ]

    def _pipe_canonical(self, rng, dim, tag):
        path = self._path(tag)
        z = cmath.rect(rng.uniform(1.0, 4.0), rng.uniform(0.0, 2 * math.pi))
        return [
            ("gen", ["gen", "canonical", "--dim", str(dim), "--out", path], None),
            ("check-preclean", ["check", "preclean", "--in", path], ("positive", 0)),
            ("check-sharp", ["check", "sharp", "--in", path], ("consistent",)),
            ("density", ["density", "--coherent=" + fmt_complex(z), "--grid", str(DENSITY_GRID),
                         "--in", path], ("density",)),
        ]

    def _pipe_chessboard(self, rng, dim, tag):
        xi = cmath.rect(rng.uniform(0.2, 0.8), rng.uniform(0.0, 2 * math.pi))
        rot = xi * cmath.exp(1j * rng.uniform(0.1, 2 * math.pi - 0.1))
        a, b = self._path(tag + "a"), self._path(tag + "b")
        return [
            ("gen", ["gen", "chessboard", "--xi=" + fmt_complex(xi), "--dim", str(dim), "--out", a], None),
            ("gen", ["gen", "chessboard", "--xi=" + fmt_complex(rot), "--dim", str(dim), "--out", b], None),
            ("check-uequiv", ["check", "uequiv", "--in", a, "--other", b], ("equivalent",)),
            ("check-rank", ["check", "rank", "--in", a], ("rank", 2)),
        ]

    def _pipe_example4(self, rng, dim, tag):
        n0 = rng.randint(1, 8)
        path = self._path(tag)
        return [
            ("gen", ["gen", "example4", "--n0", str(n0), "--dim", str(dim), "--out", path], None),
            ("check-preclean", ["check", "preclean", "--in", path], ("positive", n0)),
        ]

    def _pipe_example5(self, rng, dim, tag):
        path = self._path(tag)
        return [
            ("gen", ["gen", "example5", "--dim", str(dim), "--out", path], None),
            ("check-extremal", ["check", "extremal", "--in", path], ("extremal",)),
        ]

    def _pipe_norm_sweep(self, rng, dim, tag):
        return [("norm-sweep", ["norm-sweep", "--dims", f"4,16,64,{dim}", "--arc", "half"],
                 ("norm-sweep",))]

    def _pipe_oracle_et(self, rng, dim, tag):
        return [("oracle-et", ["oracle-et", "--levels", "1.0@0", "--dim", str(dim),
                               "--arc", "half", "--assert"], ("pass",))]

    def _spawn(self, argv, trace_path):
        if trace_path is None:
            cmd = [sys.executable, "-m", "phaseopt.cli", *argv]
        else:
            cmd = [sys.executable, str(CHILD), trace_path, "--", *argv]
        return subprocess.run(cmd, cwd=self.work, stdin=subprocess.DEVNULL, capture_output=True,
                              timeout=CHILD_TIMEOUT_S)

    def execute(self, req):
        kind, argv, expect = req
        trace_path = None
        if self.tracer is not None:
            trace_path = f"trace-{len(self.trace_files)}.json"
        t0 = common.CLOCK()
        spawned = common.monotonic()
        try:
            proc = self._spawn(argv, trace_path)
        except subprocess.TimeoutExpired:
            return common.CLOCK() - t0, False, b"", f"no exit within {CHILD_TIMEOUT_S} s"
        latency = common.CLOCK() - t0
        if trace_path is not None:
            self.trace_files.append((trace_path, spawned))
        if proc.returncode != 0:
            return latency, False, proc.stdout, f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}"
        out = proc.stdout
        try:
            if kind == "gen":
                out = (self.work / argv[argv.index("--out") + 1]).read_bytes()
            ok, note = verdict(kind, proc.stdout.decode(), expect)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            ok, note = False, f"unreadable output: {exc!r}"
        return latency, ok, out, note

    def stop_tracing(self) -> dict:
        """Merge the children's traces into the parent tracer (after timing)."""
        spawn_s = import_s = 0.0
        for path, spawned in self.trace_files:
            if not (self.work / path).exists():  # the child died before writing it
                continue
            with open(self.work / path) as fh:
                snap = json.load(fh)
            self.tracer.merge(snap)
            spawn_s += snap["first_instruction"] - spawned
            import_s += snap["import_s"]
        return {"spawn_s": spawn_s, "import_s": import_s}

    def peak_rss_mb(self):
        return common.children_rss_mb()


def verdict(kind: str, text: str, expect):
    """Check one CLI output against the closed-form expectation."""
    if expect is None:
        return text == "", "gen wrote to stdout"
    if kind == "density":
        rows = text.splitlines()
        values = [float(r.split(",")[1]) for r in rows[1:]]
        mass = sum(values) / len(values) * 2 * math.pi
        ok = rows[0] == "theta,density" and len(values) == DENSITY_GRID and abs(mass - 1) < 1e-8
        return ok, f"density integrates to {mass}"
    if kind == "norm-sweep":
        norms = [float(r.split(",")[1]) for r in text.splitlines()[1:]]
        ok = all(b > a - 1e-13 for a, b in zip(norms, norms[1:]))
        ok = ok and norms[-1] >= 0.99 and max(norms) <= 1 + 1e-10
        return ok, f"norms {norms}"
    data = json.loads(text)
    if kind == "recover-state":
        want = expect[1]
        got = data.get("weights", [])
        size = max(len(got), len(want))
        got, want = got + [0.0] * (size - len(got)), want + [0.0] * (size - len(want))
        dev = max(abs(a - b) for a, b in zip(got, want))
        return data["verdict"] == "ok" and dev < 1e-6, f"weight deviation {dev}"
    if kind == "check-rank":
        return data["rank"] == expect[1], f"rank {data['rank']}"
    if kind == "check-preclean":
        return (data["verdict"], data["n0"]) == expect, f"preclean {data['verdict']} {data['n0']}"
    if kind == "check-sharp":
        u = data["estimated_u"]
        ok = data["verdict"] == "consistent" and abs(complex(*u) - 1) < 1e-9
        return ok, f"sharp {data['verdict']} u={u}"
    if kind == "check-extremal" and expect[0] == "extremal":
        return data["verdict"] == "extremal" and data["span_dim"] == 4, f"extremal {data}"
    return data["verdict"] == expect[0], f"verdict {data['verdict']}"
