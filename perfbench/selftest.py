"""Self-test of the benchmark: short traced runs of every workload.

Usage (from the repository root): ``python3 perfbench/selftest.py``.

For each workload it runs one round traced and untraced, twice with the
same seed, and checks that
- every layer the workload is meant to exercise was called;
- layers the workload is predicted to bypass were never called;
- no request failed;
- both runs, and the traced and untraced phases of each, produced the
  same output bytes.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys

import common

SEED = 7
CLI_COLD = [
    "specfun.c_state_matrix", "specfun.c_state", "specfun.displacement_element",
    "phase_matrix.validate", "phase_matrix.state_generated", "phase_matrix.gram_factor",
    "phase_matrix.u_equivalent", "optimal.extremal_check", "optimal.real_nonextremal_shortcut",
    "optimal.recover_state", "optimal.preclean_check", "optimal.approx_sharp_check",
    "measure.density", "measure.effect_norm", "measure.et_quadrature_oracle",
    "serialize.dumps", "serialize.json.loads", "serialize.phase_matrix.PhaseMatrix.to_dict",
    "serialize.phase_matrix.PhaseMatrix.from_dict", "cli.run",
]
LIBRARY = [
    "specfun.c_state_matrix", "specfun.c_state", "phase_matrix.validate",
    "phase_matrix.state_generated", "phase_matrix.gram_factor", "phase_matrix.u_equivalent",
    "optimal.extremal_check", "optimal.real_nonextremal_shortcut", "optimal.recover_state",
    "optimal.preprocess", "optimal.preclean_check", "optimal.approx_sharp_check",
    "optimal.post_equiv_class", "optimal.smear", "measure.density", "measure.effect_norm",
]
GROUPSIM = [
    "groupsim.convexity_check", "groupsim.pre_norm_check", "groupsim.make_covariant",
    "groupsim.covariantize", "groupsim.norm", "cli.run",
]
MATRIX_CODEC = ("PhaseMatrix.to_dict", "PhaseMatrix.from_dict",
                "DensityMatrix.to_dict", "DensityMatrix.from_dict")
EXPECT = {
    # workload: (layers that must be called, predicate for layers that must not be,
    #            kernel reuse ratio)
    "cli-cold": (CLI_COLD, lambda k: k.startswith("groupsim."), 0.0),
    "library-verdicts": (LIBRARY, lambda k: k.startswith(("groupsim.", "cli.", "serialize.")), 1.0),
    "groupsim-sweeps": (
        GROUPSIM,
        lambda k: k.startswith(("specfun.", "phase_matrix.", "optimal.", "measure."))
        or k.endswith(MATRIX_CODEC),
        0.0,
    ),
}


def traced_run(workload: str) -> dict:
    cmd = [sys.executable, str(common.ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=common.ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: benchmark exited {proc.returncode}\n{proc.stderr}")
    path = common.OUT / f"{workload}-seed{SEED}-trace1.json"
    return json.loads(path.read_text())


def check(workload: str) -> list:
    must, must_not, reuse = EXPECT[workload]
    runs = [traced_run(workload), traced_run(workload)]
    calls = runs[0]["calls"]
    problems = [f"{name} never called" for name in must if not calls.get(name)]
    problems += [f"{name} called {n} times" for name, n in calls.items() if n and must_not(name)]
    metrics = runs[0]["metrics"]
    got = metrics["specfun.c_state_matrix.reuse_ratio"]["value"]
    if got != reuse:
        problems.append(f"kernel reuse ratio {got}, expected {reuse}")
    if workload == "cli-cold":
        for name in ("cli.spawn_s", "cli.import_s"):
            if not metrics[name]["value"] > 0:
                problems.append(f"{name} not measured")
    for i, run in enumerate(runs):
        failures = [f for phase in run["phases"] for f in phase["failures"]]
        problems += [f"run {i}: failed request {f}" for f in failures]
    digests = {phase["digest"] for run in runs for phase in run["phases"]}
    if len(digests) != 1:
        problems.append(f"output digests differ: {sorted(digests)}")
    return problems


def main() -> int:
    bad = 0
    for workload in EXPECT:
        problems = check(workload)
        bad += bool(problems)
        print(f"{workload}: {'PASS' if not problems else 'FAIL'}")
        for p in problems:
            print(f"  {p}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
