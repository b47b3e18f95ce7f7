"""Workload ``groupsim-sweeps``: finite-group scenarios through ``cli.run``.

Each request runs all nine groupsim checks on a seeded scenario, with
exhaustive 2^N - 1 subset sweeps.  This is the only workload that
reaches the ``groupsim`` layer, and it never touches the
special-function kernel or the phase-matrix codec, so it is the "no
change" control for kernel and codec work.  A round holds every group
order N in {8, ..., 14} at every representation dimension 3 to 5 once;
the seed picks weights, seed matrices, measures, subsets,
mixing weights and channel seeds, and the order.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil

import common

CHECKS = [
    "covariance", "additivity", "faithful", "smear-covariance", "norm-bound",
    "mix-inequality", "covariantize", "pre-norm-unitary", "pre-norm-depolarizing",
]
# (N, representation dimension) of every scenario in a round: each order
# at each dimension once.
ROUND = [(order, dim) for order in range(8, 15) for dim in (3, 4, 5)]
SWEEPING = ("mix-inequality", "pre-norm-unitary", "pre-norm-depolarizing")
DECODE = json.JSONDecoder().decode  # bound before any tracer patches json.loads


def psd_seed(rng, dim):
    """g g^* + 0.1 I for a seeded complex g, as [re, im] pairs."""
    g = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(dim)] for _ in range(dim)]
    a = [[sum(g[i][k] * g[j][k].conjugate() for k in range(dim)) + (0.1 if i == j else 0)
          for j in range(dim)] for i in range(dim)]
    return [[[z.real, z.imag] for z in row] for row in a]


class GroupsimSweeps:
    name = "groupsim-sweeps"
    setup_passes = 5

    def __init__(self):
        self.work = common.OUT / f"groupsim-{os.getpid()}"
        self.cli = None
        self.tracer = None
        self.subsets = 0

    def setup(self):
        import phaseopt.cli

        self.cli = phaseopt.cli
        self.work.mkdir(parents=True, exist_ok=True)
        warm = self.work / "warmup.json"
        warm.write_text(json.dumps({"N": 3, "weights": [0, 1], "seed": [[1, 0], [0, 1]],
                                    "checks": ["additivity"]}))
        with contextlib.redirect_stdout(io.StringIO()):
            if self.cli.run(["groupsim", "--scenario", str(warm), "--assert"]) != 0:
                raise SystemExit("error: warm-up groupsim call failed")

    def start_tracing(self, tracer):
        tracer.install()
        self.tracer = tracer

    def stop_tracing(self) -> dict:
        self.tracer.uninstall()
        return {"subsets": self.subsets}

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def make_round(self, rng, index):
        slots = list(ROUND)
        rng.shuffle(slots)
        requests = []
        for i, (order, dim) in enumerate(slots):
            weights = sorted(rng.sample(range(order), dim))
            nu = [rng.random() for _ in range(order)]
            scenario = {
                "N": order,
                "weights": weights,
                "seed": psd_seed(rng, dim),
                "seed2": psd_seed(rng, dim),
                "nu": [w / sum(nu) for w in nu],
                "subset": sorted(rng.sample(range(order), rng.randint(1, order - 1))),
                "alpha": rng.uniform(0.1, 0.9),
                "rng_seed": rng.randrange(2**31),
                "checks": CHECKS,
            }
            path = self.work / f"r{index}s{i}.json"
            path.write_text(json.dumps(scenario))
            requests.append((f"N={order}", str(path)))
        return requests

    def execute(self, req):
        kind, path = req
        buf = io.StringIO()
        t0 = common.CLOCK()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.run(["groupsim", "--scenario", path, "--assert"])
        except Exception as exc:  # a request that raises counts as failed
            return common.CLOCK() - t0, False, b"", f"{type(exc).__name__}: {exc}"
        latency = common.CLOCK() - t0
        out = buf.getvalue()
        if code != 0:
            return latency, False, out.encode(), f"exit {code}"
        try:
            checks = DECODE(out)["checks"]
            ok = list(checks) == CHECKS and all(c["verdict"] == "pass" for c in checks.values())
        except (ValueError, KeyError, TypeError) as exc:
            return latency, False, out.encode(), f"unreadable report: {exc!r}"
        if self.tracer is not None:
            self.subsets += sum(checks[name]["subsets"] for name in SWEEPING)
        return latency, ok, out.encode(), "" if ok else f"checks {checks}"

    def peak_rss_mb(self):
        return common.self_rss_mb()
