"""Workload ``library-verdicts``: every applicable criterion, in one process.

A request builds one phase matrix through the public API and runs every
criterion that applies to it.  There is no process start-up and no JSON
codec, and set-up builds every pool level at D=256, so the kernel cache
is warm: this isolates the decision layers (``optimal``,
``phase_matrix``, ``measure``).  A round is every family at every D in
{64, 128, 256} once, in seeded order; the
seed picks the mixture from the pool and its weights, chessboard
parameters, example4 offsets, translation points, arcs and coherent
amplitudes.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

import common

FAMILIES = ("state", "canonical", "chessboard", "example4", "example5")
DIMS = (64, 128, 256)
ROUND = [(f, d) for f in FAMILIES for d in DIMS]
# level supports of the state mixtures; set-up builds each level at D=256
POOL = ((0,), (0, 1), (1, 3), (0, 2, 5), (2, 3, 5), (0, 1, 2, 3))
POOL_LEVELS = sorted({s for support in POOL for s in support})
WARM_DIM = 256
DENSITY_GRID = 512


class LibraryVerdicts:
    name = "library-verdicts"
    # each pass rebuilds the kernel cache (seconds), so fewer passes
    setup_passes = 3

    def __init__(self):
        self.po = None
        self.tracer = None

    def setup(self):
        import phaseopt

        self.po = phaseopt
        for s in POOL_LEVELS:
            self.po.c_state_matrix(s, WARM_DIM)

    def start_tracing(self, tracer):
        tracer.install()
        tracer.note_kernel_calls((s, WARM_DIM) for s in POOL_LEVELS)
        self.tracer = tracer

    def stop_tracing(self) -> dict:
        self.tracer.uninstall()
        return {}

    def cleanup(self):
        pass

    def make_round(self, rng, index):
        combos = list(ROUND)
        rng.shuffle(combos)
        requests = []
        for family, dim in combos:
            params = {
                "x": cmath.exp(1j * rng.uniform(0.1, 2 * math.pi - 0.1)),
                "arc": (rng.uniform(0, 2 * math.pi), rng.uniform(0.5, 5.5)),
                "z": cmath.rect(rng.uniform(1.0, 4.0), rng.uniform(0, 2 * math.pi)),
            }
            if family == "state":
                support = rng.choice(POOL)
                weights = np.zeros(max(support) + 1)
                weights[list(support)] = common.split_weights(rng, len(support))
                params["weights"] = weights
            elif family == "chessboard":
                params["xi"] = cmath.rect(rng.uniform(0.2, 0.8), rng.uniform(0, 2 * math.pi))
                params["phi"] = rng.uniform(0.1, 2 * math.pi - 0.1)
            elif family == "example4":
                params["n0"] = rng.randint(1, 8)
            requests.append((f"{family}@{dim}", family, dim, params))
        return requests

    def _build(self, family, dim, p):
        po = self.po
        if family == "state":
            return po.state_generated(p["weights"], dim)
        if family == "canonical":
            return po.canonical(dim)
        if family == "chessboard":
            return po.chessboard(p["xi"], dim)
        if family == "example4":
            return po.example4(p["n0"], dim)
        return po.example5(dim)

    def _run(self, family, dim, p):
        """One request: every criterion that applies to the matrix."""
        po = self.po
        m = self._build(family, dim, p)
        r = {"sharp": po.approx_sharp_check(m)}
        r["extremal"] = po.extremal_check(po.gram_factor(m))
        r["certificate"] = po.real_nonextremal_shortcut(m)
        r["preclean"] = po.preclean_check(m)
        if family == "state":
            r["recovered"] = po.recover_state(m).weights
        x = p["x"]
        partner = po.translate(m, x)
        r["smear_gap"] = float(np.abs(po.smear(m, po.CircleMeasure.dirac(x)).entries
                                      - partner.entries).max())
        r["lambda"] = po.u_equivalent(m, partner)
        if family == "chessboard":
            other = po.chessboard(p["xi"] * cmath.exp(1j * p["phi"]), dim)
            r["chessboard_lambda"] = po.u_equivalent(m, other)
        try:
            r["post"] = po.post_equiv_class(m, partner)
        except po.CriterionInapplicableError:
            r["post"] = "inapplicable"
        pre = po.preprocess(m, po.identity_channel_spec(dim))
        r["preprocess_gap"] = float(np.abs(pre.entries - m.entries).max())
        r["norm"] = po.effect_norm(m, po.Arc.interval(*p["arc"]))
        rho = po.CoherentVector(p["z"], dim).density_matrix()
        _, values = po.density(m, rho, DENSITY_GRID)
        r["mass"] = float(values.mean() * 2 * math.pi)
        return r

    def execute(self, req):
        kind, family, dim, params = req
        t0 = common.CLOCK()
        try:
            r = self._run(family, dim, params)
        except Exception as exc:  # a request that raises counts as failed
            return common.CLOCK() - t0, False, b"", f"{type(exc).__name__}: {exc}"
        latency = common.CLOCK() - t0
        try:
            problems = check(family, params, r)
        except (TypeError, ValueError, AttributeError) as exc:
            problems = [f"unreadable result: {exc!r}"]
        return latency, not problems, render(kind, r), "; ".join(problems)

    def peak_rss_mb(self):
        return common.self_rss_mb()


def check(family, p, r) -> list:
    """Closed-form facts each verdict must reproduce; returns the misses."""
    problems = []

    def want(cond, what):
        if not cond:
            problems.append(what)

    sharp, ext = r["sharp"], r["extremal"]
    want(r["lambda"] is not None, "translation not u-equivalent")
    want(r["smear_gap"] <= 1e-12, "Dirac smear differs from translation")
    want(r["preprocess_gap"] <= 1e-12, "identity preprocessing changed the matrix")
    want(-1e-10 <= r["norm"] <= 1 + 1e-10, "effect norm outside [0, 1]")
    want(abs(r["mass"] - 1) < 1e-9, "density does not integrate to 1")
    if r["post"] == "inapplicable":
        want(not sharp.consistent, "post_equiv_class inapplicable to a sharp-consistent pair")
    else:
        want(r["post"] is not None and abs(r["post"] - p["x"]) < 1e-9, "translation point not found")
    if family == "state":
        w, rec = p["weights"], r["recovered"]
        size = max(len(w), len(rec))
        dev = np.abs(np.pad(rec, (0, size - len(rec))) - np.pad(w, (0, size - len(w)))).max()
        want(dev < 1e-6, f"recovered weights off by {dev}")
        want(not ext.extremal, "state-generated matrix reported extremal")
        want(r["preclean"] is None, "state-generated matrix reported preclean")
    elif family == "canonical":
        want(r["preclean"] == 0, "canonical preclean n0 != 0")
        want(sharp.consistent and abs(sharp.estimated_u - 1) < 1e-9, "canonical not sharp at u=1")
        want(ext.extremal, "canonical not extremal")
    elif family == "chessboard":
        want(r["chessboard_lambda"] is not None, "rotated chessboard not u-equivalent")
        want(not ext.extremal, "chessboard reported extremal")
    elif family == "example4":
        want(r["preclean"] == p["n0"], "example4 preclean n0")
    else:
        want(ext.extremal and ext.span_dim == 4, "example5 not extremal with span 4")
        want(r["preclean"] is not None and r["preclean"] <= 4, "example5 preclean n0")
    return problems


def render(kind, r) -> bytes:
    """Deterministic text of a request's verdicts, for the byte digest."""
    sharp, ext = r["sharp"], r["extremal"]
    fields = [
        kind,
        sharp.verdict, repr(sharp.estimated_u), repr(sharp.max_tail_deviation),
        repr((ext.extremal, ext.rank, ext.span_dim)),
        repr(None if r["certificate"] is None else r["certificate"].pair),
        repr(r["preclean"]),
        repr([float(w) for w in r.get("recovered", ())]),
        repr(None if r["lambda"] is None else [complex(z) for z in r["lambda"]]),
        repr(r["post"]), repr(r["norm"]), repr(r["mass"]),
    ]
    return ("|".join(fields) + "\n").encode()
