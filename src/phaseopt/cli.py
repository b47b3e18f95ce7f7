"""Command-line front end.

Subcommands generate phase matrices, run verdict checks, export densities
and norm sweeps, and drive the finite-group scenario runner.  All JSON
output is byte-deterministic (fixed field order, 17-digit floats); phase
matrices travel between subcommands through the JSON schema on
stdin/stdout so checks compose as shell pipes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import groupsim as gs
from ._serialize import (
    complex_from_pairs,
    density_csv,
    dumps,
    is_finite_real,
    is_int,
    is_real,
    matrix_from_dict,
    sweep_csv,
)
from .measure import (
    Arc,
    DEFAULT_GRID,
    CoherentVector,
    DensityMatrix,
    DiagonalState,
    _oracle_window,
    density,
    effect_norm,
    effect_operator,
    et_quadrature_oracle,
)
from .optimal import (
    DEFAULT_SHARP_TOL,
    DEFAULT_TAIL_TOL,
    CircleMeasure,
    CriterionInapplicableError,
    NotStateGeneratedError,
    approx_sharp_check,
    canonical_channel,
    extremal_check,
    post_equiv_class,
    preclean_check,
    real_nonextremal_shortcut,
    recover_state,
    recovery_depth,
    smear,
)
from .phase_matrix import (
    EPS_EQUIV,
    EPS_PSD,
    EPS_RANK,
    LEVEL_CUTOFF,
    PhaseMatrix,
    canonical,
    chessboard,
    example4,
    example5,
    from_eta,
    gram_factor,
    state_generated,
    u_equivalent,
    validate,
)

__all__ = ["main", "run", "CliError"]


# Upper bounds on the size flags, so that a typo is refused instead of exhausting the machine.
# memory: a D x D complex matrix takes 16 D^2 bytes (4 MB at 512) and its JSON text up to
# twice that; 512 is above the index 300 to which the kernel's unit diagonal is guaranteed
MAX_DIM = 512
# output: density prints one CSV line per grid point, 127 KB at 4096, which is 4 points
# per mode of a matrix at MAX_DIM (2D - 1 = 1023 modes); the grid itself is one FFT,
# O(D^2 + grid log grid) time and O(grid) memory
MAX_GRID = 4096
# --tol defaults: the largest density deviation of channel-identity (the matrix against
# the canonical observable after the canonical channel) and the largest entry deviation
# of oracle-et (the quadrature oracle against the closed-form effect) that pass
CHANNEL_IDENTITY_TOL = 1e-10
ORACLE_ET_TOL = 1e-6
# time: each trial draws a random state and evaluates two densities
MAX_TRIALS = 1000
_FLAG_MAX = {"dim": MAX_DIM, "grid": MAX_GRID, "trials": MAX_TRIALS}


class CliError(Exception):
    """Bad input surfaced as a diagnostic and exit code 1."""


def _load(path: str, decode):
    """Decode the JSON object at path (- is stdin); bad input becomes a CliError naming the path."""
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: invalid JSON ({exc})")
    if not isinstance(data, dict):
        raise CliError(f"{path}: expected a JSON object")
    try:
        return decode(data)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}")


def _emit(text: str, out: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _parse_levels(spec: str) -> np.ndarray:
    """Parse 'w@level,w@level' into a weight vector."""
    pairs = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        try:
            w, lvl = chunk.split("@", 1)
            weight, level = float(w), int(lvl)
        except ValueError:
            raise CliError(f"level spec {chunk!r} is not 'weight@level'")
        if level < 0:
            raise CliError(f"level spec {chunk!r} has a negative level")
        if level >= LEVEL_CUTOFF:
            raise CliError(f"state support reaches level {level}, above the cutoff {LEVEL_CUTOFF}")
        pairs.append((weight, level))
    size = max(lvl for _, lvl in pairs) + 1
    weights = np.zeros(size)
    for w, lvl in pairs:
        weights[lvl] += w
    return weights


def _parse_arc(spec: str) -> Arc:
    named = {
        "full": Arc.full(),
        "half": Arc.half(),
        "quarter": Arc.interval(0.0, np.pi / 2),
    }
    if spec in named:
        return named[spec]
    comps = []
    for chunk in spec.split(","):
        try:
            a, b = chunk.split(":", 1)
            comps.append((float(a), float(b)))
        except ValueError:
            raise CliError(f"arc component {chunk!r} is not 'start:length'")
    return Arc(tuple(comps))


def _parse_complex(text: str) -> complex:
    try:
        value = complex(text.replace(" ", ""))
    except ValueError:
        raise CliError(f"cannot parse complex number {text!r}")
    if not np.isfinite(value):
        raise CliError(f"complex number {text!r} is not finite")
    return value


def _report(args, data: dict, failed: bool) -> int:
    _emit(dumps(data), args.out)
    return 2 if (failed and args.assert_) else 0


def _refusal(args, verdict: str, exc: Exception, dim: int) -> int:
    """Negative report for a verdict whose hypotheses the input fails."""
    return _report(args, {"verdict": verdict, "reason": str(exc), "dim": dim}, True)


# --- subcommand handlers ------------------------------------------------------


def _eta_matrix(data: dict) -> PhaseMatrix:
    if "vectors" not in data:
        raise ValueError("missing field 'vectors'")
    return from_eta(complex_from_pairs(data["vectors"], "vectors", depth=2))


def _family_matrix(args, dim: int) -> PhaseMatrix:
    """The phase matrix of ``args.family`` at dimension dim (gen and norm-sweep)."""
    if args.family == "canonical":
        return canonical(dim)
    if args.family == "chessboard":
        return chessboard(_parse_complex(args.xi), dim)
    if args.family == "state":
        return state_generated(_parse_levels(args.levels), dim)
    if args.family == "eta":
        return _load(args.infile, _eta_matrix)
    if args.family == "example4":
        return example4(args.n0, dim)
    return example5(dim)


def _cmd_gen(args) -> int:
    m = _family_matrix(args, args.dim)
    _emit(dumps(m.to_dict()), args.out)
    return 0


def _cmd_validate(args) -> int:
    report = validate(_load(args.infile, matrix_from_dict))
    out = report.to_dict()
    out["tolerances"] = {"eps_psd": EPS_PSD}
    return _report(args, out, not report.ok)


def _cmd_density(args) -> int:
    m = _load(args.infile, PhaseMatrix.from_dict)
    if args.coherent is not None:
        rho = CoherentVector(_parse_complex(args.coherent), m.dim).density_matrix()
    elif args.state_file is not None:
        rho = _load(args.state_file, DensityMatrix.from_dict)
    else:
        raise CliError("density needs --coherent or --state-file")
    thetas, values = density(m, rho, args.grid)
    _emit(density_csv(thetas, values), args.out)
    return 0


def _cmd_norm_sweep(args) -> int:
    arc = _parse_arc(args.arc)
    try:
        dims = [int(d) for d in args.dims.split(",")]
        if min(dims) < 1:
            raise ValueError
    except ValueError:
        raise CliError(f"--dims must list positive integers, got {args.dims!r}")
    if max(dims) > MAX_DIM:
        raise CliError(f"--dims entries must be at most {MAX_DIM}, got {args.dims!r}")
    rows = [(d, effect_norm(_family_matrix(args, d), arc)) for d in dims]
    _emit(sweep_csv(rows), args.out)
    return 0


# per criterion: the --tol default (None: decides at EPS_RANK, refuses --tol)
# and whether it compares against a second matrix given by --other
_CHECKS = {
    "sharp": (DEFAULT_SHARP_TOL, False),
    "extremal": (None, False),
    "rank": (None, False),
    "preclean": (DEFAULT_TAIL_TOL, False),
    "postclass": (EPS_EQUIV, True),
    "uequiv": (EPS_EQUIV, True),
}


def _cmd_check(args) -> int:
    default, binary = _CHECKS[args.criterion]
    if default is None and args.tol is not None:
        raise CliError(f"check {args.criterion} takes no --tol; it uses EPS_RANK = {EPS_RANK}")
    if binary != (args.other is not None):
        raise CliError(f"check {args.criterion} {'requires' if binary else 'takes no'} --other")
    tol = default if args.tol is None else args.tol
    m = _load(args.infile, PhaseMatrix.from_dict)
    if args.criterion == "sharp":
        rep = approx_sharp_check(m, tol=tol)
        data = rep.to_dict()
        return _report(args, data, not rep.consistent)
    if args.criterion == "extremal":
        rep = extremal_check(gram_factor(m))
        data = rep.to_dict()
        data["tolerances"] = {"eps_rank": EPS_RANK}
        cert = real_nonextremal_shortcut(m)
        data["real_certificate"] = (
            None
            if cert is None
            else {"pair": list(cert.pair), "max_residual": cert.max_residual}
        )
        return _report(args, data, not rep.extremal)
    if args.criterion == "rank":
        rank = gram_factor(m).rank
        return _report(args, {"rank": rank, "dim": m.dim, "eps_rank": EPS_RANK}, False)
    if args.criterion == "preclean":
        n0 = preclean_check(m, tol=tol)
        data = {
            "verdict": "positive" if n0 is not None else "negative",
            "n0": n0,
            "dim": m.dim,
            "tolerances": {"tail_modulus": tol},
        }
        return _report(args, data, n0 is None)
    other = _load(args.other, PhaseMatrix.from_dict)
    if args.criterion == "postclass":
        try:
            x = post_equiv_class(m, other, tol=tol)
        except CriterionInapplicableError as exc:
            return _refusal(args, "inapplicable", exc, m.dim)
        key, found = "x", None if x is None else [x.real, x.imag]
    else:
        lam = u_equivalent(m, other, tol=tol)
        key, found = "lambda", None if lam is None else [[z.real, z.imag] for z in lam]
    data = {
        "verdict": "equivalent" if found is not None else "not-equivalent",
        key: found,
        "dim": m.dim,
        "tolerances": {"tol": tol},
    }
    return _report(args, data, found is None)


def _cmd_smear(args) -> int:
    m = _load(args.infile, PhaseMatrix.from_dict)
    nu = _load(args.nu, CircleMeasure.from_dict)
    _emit(dumps(smear(m, nu).to_dict()), args.out)
    return 0


def _cmd_channel_identity(args) -> int:
    m = _load(args.infile, PhaseMatrix.from_dict)
    rng = np.random.default_rng(args.seed)
    chan = canonical_channel(m)
    can = canonical(m.dim)
    worst = 0.0
    for _ in range(args.trials):
        g = rng.normal(size=(m.dim, m.dim)) + 1j * rng.normal(size=(m.dim, m.dim))
        rho_arr = g @ g.conj().T
        rho_arr /= rho_arr.trace()
        rho = DensityMatrix(rho_arr)
        _, d1 = density(m, rho, args.grid)
        _, d2 = density(can, DensityMatrix(chan(rho.entries)), args.grid)
        worst = max(worst, float(np.abs(d1 - d2).max()))
    data = {
        "verdict": "pass" if worst < args.tol else "fail",
        "max_deviation": worst,
        "trials": args.trials,
        "dim": m.dim,
        "tolerances": {"tol": args.tol},
    }
    return _report(args, data, worst >= args.tol)


def _cmd_recover_state(args) -> int:
    m = _load(args.infile, PhaseMatrix.from_dict)
    depth = recovery_depth(m.dim) if args.depth is None else args.depth
    try:
        state = recover_state(m, depth=depth)
    except NotStateGeneratedError as exc:
        return _refusal(args, "not-state-generated", exc, m.dim)
    data = {
        "verdict": "ok",
        "weights": [float(w) for w in state.weights],
        "depth": depth,
        "dim": m.dim,
    }
    return _report(args, data, False)


def _cmd_oracle_et(args) -> int:
    state = DiagonalState(_parse_levels(args.levels))
    arc = _parse_arc(args.arc)
    approx = et_quadrature_oracle(state, arc, args.dim)
    r_max, quad_points = _oracle_window(args.dim, state.support_max)
    exact = effect_operator(state_generated(state.weights, args.dim), arc)
    dev = float(np.abs(approx - exact).max())
    data = {
        "verdict": "pass" if dev < args.tol else "fail",
        "max_entry_deviation": dev,
        "dim": args.dim,
        "r_max": r_max,
        "quad_points": quad_points,
        "tolerances": {"tol": args.tol},
    }
    return _report(args, data, dev >= args.tol)


def _scenario_cell(c):
    """One seed entry: a number, an [re, im] pair of numbers, or null (read as NaN)."""
    if c is None or is_real(c):
        return c
    if isinstance(c, list) and len(c) == 2 and all(map(is_real, c)):
        return complex(*c)
    raise ValueError(f"not a number or [re, im] pair: {c!r}")


def _scenario_matrix(raw, dim: int, key: str = "seed") -> np.ndarray:
    """Scenario seed: a dim x dim list of numbers or [re, im] pairs.

    Bools, strings and lists other than pairs are refused; NaN and null pass
    here and are refused as non-finite by the observable.
    """
    arr = None
    if isinstance(raw, list) and all(isinstance(row, list) for row in raw):
        try:
            arr = np.array([[_scenario_cell(c) for c in row] for row in raw], dtype=np.complex128)
        except (TypeError, ValueError, OverflowError):
            pass
    if arr is None or arr.shape != (dim, dim):
        raise ValueError(f"{key} must be a {dim} x {dim} list of numbers or [re, im] pairs")
    return arr


def _groupsim_inputs(scn: dict) -> tuple:
    """Scenario, observable, measure and second seed; ValueError if malformed.

    Every scenario field is refused here, N and the dimension before any
    effect is built.
    """
    for key in ("N", "weights", "seed"):
        if key not in scn:
            raise ValueError(f"missing field {key!r}")
    n = scn["N"]
    if not is_int(n) or not 1 <= n <= gs.MAX_SCENARIO_ORDER:
        raise ValueError(f"N must be an integer in 1..{gs.MAX_SCENARIO_ORDER}, got {n!r}")
    scn = {"checks": [], "alpha": 0.5, "rng_seed": 7, "subset": [0], **scn}
    for key, ok, what in (
        ("weights", is_int, "integers"),
        ("nu", is_finite_real, "finite numbers"),
        ("checks", gs.SCENARIO_CHECKS.__contains__,
         f"check names ({', '.join(gs.SCENARIO_CHECKS)})"),
    ):
        value = scn.get(key, [])
        if not isinstance(value, list) or not all(map(ok, value)):
            raise ValueError(f"{key} must be a list of {what}, got {value!r}")
    dim = len(scn["weights"])
    if dim > gs.MAX_SCENARIO_DIM:
        raise ValueError(
            f"representation dimension {dim} (the length of weights) "
            f"is above the limit {gs.MAX_SCENARIO_DIM}"
        )
    alpha, rng_seed = scn["alpha"], scn["rng_seed"]
    if not is_finite_real(alpha) or not 0 <= alpha <= 1:
        raise ValueError(f"alpha must be a number in [0, 1], got {alpha!r}")
    if not is_int(rng_seed) or rng_seed < 0:
        raise ValueError(f"rng_seed must be a non-negative integer, got {rng_seed!r}")
    rep = gs.CyclicRep(n, tuple(scn["weights"]))
    seed = _scenario_matrix(scn["seed"], rep.dim)
    seed2 = _scenario_matrix(scn["seed2"], rep.dim, "seed2") if "seed2" in scn else np.eye(rep.dim)
    nu = gs.FiniteMeasure(tuple(scn.get("nu", [1.0] + [0.0] * (n - 1))))
    if nu.order != n:
        raise ValueError(f"nu must have N = {n} weights, got {nu.order}")
    gs.outcome_subset(scn["subset"], n)
    return scn, gs.make_covariant(rep, seed), nu, seed2


def _cmd_groupsim(args) -> int:
    scn, obs, nu, seed2 = _load(args.scenario, _groupsim_inputs)
    results = {}
    failed = False
    rng = np.random.default_rng(scn["rng_seed"])
    for name in scn["checks"]:
        try:
            results[name] = gs.scenario_check(name, obs, nu, seed2, scn["alpha"],
                                              scn["subset"], rng)
        except ValueError as exc:
            results[name] = {"verdict": "fail", "reason": str(exc)}
            failed = True
    data = {"N": obs.rep.order, "dim": obs.rep.dim, "checks": results}
    return _report(args, data, failed)


# --- parser -------------------------------------------------------------------


# built once per process: parse_args fills a fresh Namespace on every call
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phaseopt",
        description="Phase-matrix constructors and optimality verdicts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a phase matrix")
    p.add_argument(
        "family",
        choices=["canonical", "chessboard", "state", "eta", "example4", "example5"],
    )
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--xi", default="0.5", help="chessboard parameter (complex)")
    p.add_argument("--levels", default="1.0@0", help="diagonal state as w@level,...")
    p.add_argument("--n0", type=int, default=3, help="example4 tail offset")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("validate", help="check a matrix against the admissibility rules")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("density", help="outcome density of a state, as CSV")
    p.add_argument("--coherent", default=None, help="coherent amplitude (complex)")
    p.add_argument("--state-file", default=None, help="density-matrix JSON path")
    p.add_argument("--grid", type=int, default=DEFAULT_GRID)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("norm-sweep", help="effect norms across truncations, as CSV")
    p.add_argument("--arc", default="half")
    p.add_argument("--dims", default="4,16,64,256")
    p.add_argument("--family", default="canonical", choices=["canonical", "state"])
    p.add_argument("--levels", default="1.0@0")
    p.set_defaults(func=_cmd_norm_sweep)

    p = sub.add_parser("check", help="run an optimality verdict")
    p.add_argument("criterion", choices=list(_CHECKS))
    p.add_argument("--other", default=None, help="second matrix for binary criteria")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("smear", help="postprocess by a circle measure")
    p.add_argument("--nu", required=True, help="CircleMeasure JSON path")
    p.set_defaults(func=_cmd_smear)

    p = sub.add_parser("channel-identity", help="densities factor through the canonical channel")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--grid", type=int, default=DEFAULT_GRID)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tol", type=float, default=CHANNEL_IDENTITY_TOL)
    p.set_defaults(func=_cmd_channel_identity)

    p = sub.add_parser("recover-state", help="reconstruct the generating diagonal state")
    p.add_argument("--depth", type=int, default=None)
    p.set_defaults(func=_cmd_recover_state)

    p = sub.add_parser("oracle-et", help="quadrature oracle vs closed-form effects")
    p.add_argument("--levels", default="1.0@0")
    p.add_argument("--dim", type=int, default=12)
    p.add_argument("--arc", default="half")
    p.add_argument("--tol", type=float, default=ORACLE_ET_TOL)
    p.set_defaults(func=_cmd_oracle_et)

    p = sub.add_parser("groupsim", help="run a finite-group scenario file")
    p.add_argument("--scenario", required=True)
    p.set_defaults(func=_cmd_groupsim)

    # every subcommand takes the same I/O flags, after its own
    for p in sub.choices.values():
        p.add_argument("--in", dest="infile", default="-", help="input path or - for stdin")
        p.add_argument("--out", default="-", help="output path or - for stdout")
        p.add_argument(
            "--assert",
            dest="assert_",
            action="store_true",
            help="exit nonzero when the verdict is negative",
        )
    return parser


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        for flag in ("dim", "grid", "tol", "trials"):
            value, name = getattr(args, flag, None), "--" + flag
            if value is not None and not value > 0:
                raise CliError(f"{name} must be positive, got {value}")
            if value == np.inf:  # NaN and -inf already failed the sign test
                raise CliError(f"{name} must be finite, got {value}")
            if value is not None and value > _FLAG_MAX.get(flag, value):
                raise CliError(f"{name} must be at most {_FLAG_MAX[flag]}, got {value}")
        return args.func(args)
    except (CliError, ValueError, OSError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
