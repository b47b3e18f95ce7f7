"""Command-line front end: subcommands, piping, determinism, flag validation."""

import ast
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import phaseopt
from phaseopt import groupsim as gs
from phaseopt._serialize import dumps
from phaseopt.cli import main
from phaseopt.phase_matrix import PhaseMatrix, canonical, translate


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_cli_stdin(capsys, monkeypatch, text, *argv):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    return run_cli(capsys, *argv)


# --- gen / validate ---------------------------------------------------------------


def test_gen_canonical_emits_schema(capsys):
    code, out = run_cli(capsys, "gen", "canonical", "--dim", "4")
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 4
    assert len(data["entries"]) == 16
    assert data["entries"][1] == [1.0, 0.0]


def test_gen_output_loads_and_validates(capsys):
    for args in (
        ["gen", "canonical", "--dim", "6"],
        ["gen", "chessboard", "--xi", "0.3+0.4j", "--dim", "6"],
        ["gen", "state", "--levels", "0.5@0,0.5@2", "--dim", "8"],
        ["gen", "example4", "--n0", "2", "--dim", "6"],
        ["gen", "example5", "--dim", "6"],
    ):
        code, out = run_cli(capsys, *args)
        assert code == 0
        m = PhaseMatrix.from_dict(json.loads(out))
        assert m.dim == int(args[args.index("--dim") + 1])


def test_gen_eta_from_file(tmp_path, capsys):
    vecs = {
        "vectors": [
            [[1.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [1.0, 0.0]],
        ]
    }
    path = tmp_path / "vectors.json"
    path.write_text(json.dumps(vecs))
    code, out = run_cli(capsys, "gen", "eta", "--in", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 2
    assert data["entries"][1] == [0.0, 0.0]


def test_validate_pipe_pass_and_fail(capsys, monkeypatch):
    _, gen_out = run_cli(capsys, "gen", "canonical", "--dim", "4")
    code, out = run_cli_stdin(capsys, monkeypatch, gen_out, "validate")
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"

    bad = json.loads(gen_out)
    bad["entries"][1] = [2.0, 0.0]
    bad["entries"][4] = [2.0, 0.0]
    code, out = run_cli_stdin(
        capsys, monkeypatch, json.dumps(bad), "validate", "--assert"
    )
    assert code == 2
    report = json.loads(out)
    assert report["verdict"] == "fail"
    assert "psd" in report["failures"]


def test_every_gen_output_passes_validate(capsys, monkeypatch):
    for family, extra in (
        ("canonical", []),
        ("chessboard", ["--xi", "0.7"]),
        ("state", ["--levels", "1.0@1"]),
        ("example4", ["--n0", "1"]),
        ("example5", []),
    ):
        _, gen_out = run_cli(capsys, "gen", family, "--dim", "8", *extra)
        code, out = run_cli_stdin(capsys, monkeypatch, gen_out, "validate", "--assert")
        assert code == 0, family


# --- checks ------------------------------------------------------------------------


def test_check_extremal_pipe(capsys, monkeypatch):
    _, gen_out = run_cli(capsys, "gen", "state", "--levels", "1.0@0", "--dim", "32")
    code, out = run_cli_stdin(capsys, monkeypatch, gen_out, "check", "extremal")
    report = json.loads(out)
    assert report["verdict"] == "not-extremal"
    assert report["real_certificate"] is not None

    _, gen_out = run_cli(capsys, "gen", "canonical", "--dim", "16")
    code, out = run_cli_stdin(capsys, monkeypatch, gen_out, "check", "extremal")
    assert json.loads(out)["verdict"] == "extremal"


def test_check_extremal_factors_once(capsys, monkeypatch, tmp_path):
    """gram_factor and real_nonextremal_shortcut share one factorization: the one eigh is of
    the pivoted factor's k x k L^*L."""
    path = tmp_path / "state.json"
    assert main(["gen", "state", "--levels", "0.5@0,0.5@1", "--dim", "32", "--out", str(path)]) == 0
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    code, out = run_cli(capsys, "check", "extremal", "--in", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "not-extremal" and report["real_certificate"] is not None
    assert len(calls) == 1 and calls[0][0] == calls[0][1] < 32, calls


def test_check_sharp_and_preclean(capsys, monkeypatch):
    _, gen_out = run_cli(capsys, "gen", "example5", "--dim", "64")
    code, out = run_cli_stdin(capsys, monkeypatch, gen_out, "check", "sharp")
    assert json.loads(out)["verdict"] == "consistent"

    _, gen_out = run_cli(capsys, "gen", "canonical", "--dim", "64")
    code, out = run_cli_stdin(capsys, monkeypatch, gen_out, "check", "preclean")
    report = json.loads(out)
    assert report["verdict"] == "positive" and report["n0"] == 0

    _, gen_out = run_cli(capsys, "gen", "example4", "--n0", "3", "--dim", "64")
    code, out = run_cli_stdin(capsys, monkeypatch, gen_out, "check", "preclean")
    assert json.loads(out)["n0"] == 3


def test_check_preclean_refuses_a_tol_of_one_or_more(capsys, monkeypatch):
    # at tol >= 1 every modulus passes, so the vacuum would read positive with n0 = 0
    _, gen_out = run_cli(capsys, "gen", "state", "--levels", "1@0", "--dim", "64")
    for tol in ("1", "2.5"):
        monkeypatch.setattr("sys.stdin", io.StringIO(gen_out))
        assert main(["check", "preclean", "--tol", tol]) == 1
        assert capsys.readouterr() == ("", f"error: preclean tol must be below 1, got {float(tol)}\n")


def test_check_uequiv_and_postclass_refuse_a_tol_of_one_or_more(tmp_path, capsys, monkeypatch):
    # at tol >= 1 both answered without reading the matrices: a sequence for the vacuum
    # against a chessboard, x = 1 for a translate by i
    _, vacuum = run_cli(capsys, "gen", "state", "--levels", "1@0", "--dim", "32")
    _, board = run_cli(capsys, "gen", "chessboard", "--xi", "0.3", "--dim", "32")
    m = canonical(32)
    shifted = tmp_path / "shifted.json"
    shifted.write_text(dumps(translate(m, 1j).to_dict()))
    board_path = tmp_path / "board.json"
    board_path.write_text(board)
    for criterion, first, other in (("uequiv", vacuum, board_path),
                                    ("postclass", dumps(m.to_dict()), shifted)):
        for tol in ("1", "2"):
            monkeypatch.setattr("sys.stdin", io.StringIO(first))
            assert main(["check", criterion, "--other", str(other), "--tol", tol]) == 1
            message = f"error: equivalence tol must be below 1, got {float(tol)}\n"
            assert capsys.readouterr() == ("", message), (criterion, tol)


def test_check_rank(capsys, monkeypatch):
    _, gen_out = run_cli(capsys, "gen", "chessboard", "--xi", "0.5", "--dim", "12")
    code, out = run_cli_stdin(capsys, monkeypatch, gen_out, "check", "rank")
    assert json.loads(out)["rank"] == 2


@pytest.mark.parametrize("dim", [8, 32])
def test_check_extremal_never_contradicts_its_certificate(tmp_path, capsys, dim):
    """The verdict, the rank and the real certificate all come from one Gram factor."""
    families = [
        ["canonical"],
        ["chessboard", "--xi", "0.5"],
        ["example5"],
        ["state", "--levels", "1.0@0"],
        ["state", "--levels", "0.3@0,0.3@1,0.4@2"],
    ]
    # unit vectors (cos e, sin e), e = linspace(0, 2e-3, 8): relative eigenvalues 1 and 4.3e-7
    eta_path = tmp_path / "vectors.json"
    vectors = [[[math.cos(e), 0.0], [math.sin(e), 0.0]] for e in np.linspace(0.0, 2e-3, 8)]
    eta_path.write_text(json.dumps({"vectors": vectors}))
    gens = [["gen", *family, "--dim", str(dim)] for family in families]
    gens.append(["gen", "eta", "--in", str(eta_path)])
    path = tmp_path / "matrix.json"
    for gen in gens:
        assert main([*gen, "--out", str(path)]) == 0, gen
        _, out = run_cli(capsys, "check", "extremal", "--in", str(path))
        report = json.loads(out)
        assert not (report["verdict"] == "extremal" and report["real_certificate"]), gen
        _, out = run_cli(capsys, "check", "rank", "--in", str(path))
        assert json.loads(out)["rank"] == report["rank"], gen
    assert report["verdict"] == "not-extremal" and report["rank"] == 2


def test_postclass_precheck_agrees_with_check_sharp(tmp_path, capsys):
    path = tmp_path / "matrix.json"
    for levels in ("1.0@0", "1.0@2"):
        assert main(["gen", "state", "--levels", levels, "--dim", "32", "--out", str(path)]) == 0
        _, out = run_cli(capsys, "check", "sharp", "--in", str(path))
        consistent = json.loads(out)["verdict"] == "consistent"
        _, out = run_cli(capsys, "check", "postclass", "--in", str(path), "--other", str(path))
        assert (json.loads(out)["verdict"] != "inapplicable") == consistent, levels
    # max tail deviation 0.246: refused by both at the one sharpness cutoff, 0.2
    assert not consistent


def test_check_uequiv_and_postclass(tmp_path, capsys, monkeypatch):
    m = canonical(16)
    x = complex(math.cos(0.8), math.sin(0.8))
    other = translate(m, x)
    other_path = tmp_path / "other.json"
    other_path.write_text(dumps(other.to_dict()))

    code, out = run_cli_stdin(
        capsys,
        monkeypatch,
        dumps(m.to_dict()),
        "check",
        "uequiv",
        "--other",
        str(other_path),
    )
    assert json.loads(out)["verdict"] == "equivalent"

    code, out = run_cli_stdin(
        capsys,
        monkeypatch,
        dumps(m.to_dict()),
        "check",
        "postclass",
        "--other",
        str(other_path),
    )
    report = json.loads(out)
    assert report["verdict"] == "equivalent"
    got = complex(report["x"][0], report["x"][1])
    assert abs(got - x) < 1e-10


def test_check_postclass_inapplicable(tmp_path, capsys, monkeypatch):
    checker = canonical(32)
    blunt = PhaseMatrix(np.eye(32))
    other_path = tmp_path / "other.json"
    other_path.write_text(dumps(checker.to_dict()))
    code, out = run_cli_stdin(
        capsys,
        monkeypatch,
        dumps(blunt.to_dict()),
        "check",
        "postclass",
        "--other",
        str(other_path),
    )
    report = json.loads(out)
    assert report["verdict"] == "inapplicable"
    assert report["reason"] == "first input fails the approximate-sharpness precheck at tol 0.2"


# --- density / sweeps / smear -------------------------------------------------------


def test_density_csv_output(capsys, monkeypatch):
    _, gen_out = run_cli(capsys, "gen", "canonical", "--dim", "24")
    # the grid must out-resolve the degree-23 trigonometric polynomial
    code, out = run_cli_stdin(
        capsys, monkeypatch, gen_out, "density", "--coherent", "2.0", "--grid", "64"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "theta,density"
    assert len(lines) == 65
    total = sum(float(l.split(",")[1]) for l in lines[1:]) * (2 * math.pi / 64)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_density_from_state_file(tmp_path, capsys, monkeypatch):
    rho = np.diag([0.25, 0.75]).astype(complex)
    state = {
        "dim": 2,
        "entries": [[v.real, v.imag] for v in rho.reshape(-1)],
        "trace": 1.0,
    }
    path = tmp_path / "rho.json"
    path.write_text(json.dumps(state))
    _, gen_out = run_cli(capsys, "gen", "canonical", "--dim", "2")
    code, out = run_cli_stdin(
        capsys, monkeypatch, gen_out, "density", "--state-file", str(path), "--grid", "8"
    )
    assert code == 0
    # diagonal state: uniform density 1/(2 pi)
    for line in out.strip().splitlines()[1:]:
        assert float(line.split(",")[1]) == pytest.approx(1 / (2 * math.pi), abs=1e-12)


def test_gen_eta_rejects_bad_vectors(tmp_path, capsys):
    path = tmp_path / "vectors.json"
    path.write_text(json.dumps({"vectors": [[[2.0, 0.0]], [[1.0, 0.0]]]}))
    code, _ = run_cli(capsys, "gen", "eta", "--in", str(path))
    assert code == 1


def test_norm_sweep_state_family(capsys):
    code, out = run_cli(
        capsys,
        "norm-sweep",
        "--family",
        "state",
        "--levels",
        "1.0@0",
        "--dims",
        "8,16",
        "--arc",
        "half",
    )
    assert code == 0
    norms = [float(l.split(",")[1]) for l in out.strip().splitlines()[1:]]
    assert norms[0] < norms[1] <= 1.0 + 1e-10


def test_norm_sweep_csv(capsys):
    code, out = run_cli(capsys, "norm-sweep", "--dims", "4,8,16", "--arc", "half")
    lines = out.strip().splitlines()
    assert lines[0] == "dim,norm"
    norms = [float(l.split(",")[1]) for l in lines[1:]]
    assert norms[0] < norms[1] < norms[2]


def test_smear_subcommand(tmp_path, capsys, monkeypatch):
    nu_path = tmp_path / "nu.json"
    nu_path.write_text(json.dumps({"atoms": [], "density_coeffs": [[1.0, 0.0]]}))
    _, gen_out = run_cli(capsys, "gen", "canonical", "--dim", "5")
    code, out = run_cli_stdin(capsys, monkeypatch, gen_out, "smear", "--nu", str(nu_path))
    assert code == 0
    m = PhaseMatrix.from_dict(json.loads(out))
    assert np.abs(m.entries - np.eye(5)).max() == 0.0
    # 1 - 1.2 sin(512 theta) dips to -0.2, between the points of a 1024-point grid
    coeffs = [[1.0, 0.0]] + [[0.0, 0.0]] * 511 + [[0.0, 0.6]]
    nu_path.write_text(json.dumps({"atoms": [], "density_coeffs": coeffs}))
    monkeypatch.setattr("sys.stdin", io.StringIO(gen_out))
    assert main(["smear", "--nu", str(nu_path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {nu_path}: density dips to -0.19999999")
    # refused by name before the grid evaluation, with no RuntimeWarning
    for bad, shown in (("Infinity", "(inf+0j)"), ("NaN", "(nan+0j)")):
        nu_path.write_text(f'{{"atoms": [], "density_coeffs": [[1, 0], [{bad}, 0]]}}')
        monkeypatch.setattr("sys.stdin", io.StringIO(gen_out))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["smear", "--nu", str(nu_path)]) == 1
        message = f"error: {nu_path}: density coefficient h_1 = {shown} is not finite\n"
        assert capsys.readouterr() == ("", message), bad


def test_smear_refuses_a_dip_between_grid_points(tmp_path, capsys, monkeypatch):
    """1 + 1.04 cos(128 theta - 7 pi / 8) reads at least 0.039 on the grid, yet dips to -0.04."""
    _, gen_out = run_cli(capsys, "gen", "canonical", "--dim", "5")
    h = 0.52 * complex(math.cos(7 * math.pi / 8), -math.sin(7 * math.pi / 8))
    coeffs = [[1.0, 0.0]] + [[0.0, 0.0]] * 127 + [[h.real, h.imag]]
    nu_path = tmp_path / "nu.json"
    nu_path.write_text(json.dumps({"atoms": [], "density_coeffs": coeffs}))
    monkeypatch.setattr("sys.stdin", io.StringIO(gen_out))
    assert main(["smear", "--nu", str(nu_path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {nu_path}: density dips to -0.0396")
    assert err.endswith(" between the grid points\n")


def test_smear_refuses_coefficient_above_h0(tmp_path, capsys, monkeypatch):
    """A huge density coefficient is refused by name, with no overflow RuntimeWarning."""
    _, gen_out = run_cli(capsys, "gen", "canonical", "--dim", "5")
    nu_path = tmp_path / "nu.json"
    nu_path.write_text('{"atoms": [], "density_coeffs": [[1, 0], [1e308, 1e308]]}')
    monkeypatch.setattr("sys.stdin", io.StringIO(gen_out))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["smear", "--nu", str(nu_path)]) == 1
    message = (f"error: {nu_path}: density coefficient |h_1| = 1.4142135623730951e+308 "
               "exceeds h_0 = 1.0, which no nonnegative density allows\n")
    assert capsys.readouterr() == ("", message)


# --- verdict pipelines ----------------------------------------------------------------


def test_channel_identity_command(capsys, monkeypatch):
    _, gen_out = run_cli(capsys, "gen", "example5", "--dim", "16")
    code, out = run_cli_stdin(
        capsys, monkeypatch, gen_out, "channel-identity", "--trials", "5", "--assert"
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_recover_state_round_trip(capsys, monkeypatch):
    _, gen_out = run_cli(
        capsys, "gen", "state", "--levels", "0.25@0,0.75@3", "--dim", "32"
    )
    code, out = run_cli_stdin(capsys, monkeypatch, gen_out, "recover-state")
    report = json.loads(out)
    assert report["verdict"] == "ok"
    weights = report["weights"]
    assert weights[0] == pytest.approx(0.25, abs=1e-10)
    assert weights[3] == pytest.approx(0.75, abs=1e-10)


def test_recover_state_rejects_canonical(capsys, monkeypatch):
    _, gen_out = run_cli(capsys, "gen", "canonical", "--dim", "32")
    code, out = run_cli_stdin(
        capsys, monkeypatch, gen_out, "recover-state", "--assert"
    )
    assert code == 2
    assert json.loads(out)["verdict"] == "not-state-generated"


def test_recover_state_refuses_when_every_level_reads_zero(capsys, monkeypatch):
    # the noise bound exceeds the whole mass, so no weight can be normalised
    _, gen_out = run_cli(capsys, "gen", "example4", "--n0", "3", "--dim", "64")
    code, out = run_cli_stdin(
        capsys, monkeypatch, gen_out, "recover-state", "--assert"
    )
    assert code == 2
    report = json.loads(out)
    assert report["verdict"] == "not-state-generated"
    assert "noise bound" in report["reason"] and "NaN" not in out


def test_oracle_et_command(capsys):
    code, out = run_cli(
        capsys,
        "oracle-et",
        "--levels",
        "1.0@0",
        "--dim",
        "8",
        "--arc",
        "half",
        "--assert",
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert report["max_entry_deviation"] < 1e-6


@pytest.mark.parametrize("dim", [12, 48, 64, 96, 128])
@pytest.mark.parametrize(
    "levels", ["1.0@0", "0.5@0,0.5@9", "1.0@3", "1.0@40", "1.0@63", "0.5@0,0.5@63"]
)
def test_oracle_et_window_reaches_every_admitted_level(capsys, dim, levels):
    # the window must grow with D and the support: r = 10 misses the radial tail from
    # D = 64 at level 0 and from D = 12 at level 40
    code, out = run_cli(capsys, "oracle-et", "--levels", levels, "--dim", str(dim), "--assert")
    assert code == 0, out
    assert json.loads(out)["max_entry_deviation"] < 1e-12


def test_oracle_et_window_flags_are_retired(capsys):
    # the radial window is derived from --dim and the support: naming it is a usage error
    for argv in (["oracle-et", "--r-max", "10"], ["oracle-et", "--quad-points", "160"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err, argv


# --- groupsim scenario ------------------------------------------------------------------


def scenario_payload():
    return {
        "N": 6,
        "weights": [0, 1, 2],
        "seed": [[0.5, 0.1, 0.0], [0.1, 0.4, 0.05], [0.0, 0.05, 0.3]],
        "nu": [0.5, 0.5, 0, 0, 0, 0],
        "checks": [
            "covariance",
            "additivity",
            "faithful",
            "smear-covariance",
            "norm-bound",
            "mix-inequality",
            "covariantize",
            "pre-norm-unitary",
            "pre-norm-depolarizing",
        ],
    }


def test_groupsim_scenario_runs_all_checks(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_payload()))
    code, out = run_cli(capsys, "groupsim", "--scenario", str(path), "--assert")
    assert code == 0
    report = json.loads(out)
    assert set(report["checks"]) == set(scenario_payload()["checks"])
    for name, res in report["checks"].items():
        assert res["verdict"] == "pass", (name, res)


def raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_groupsim_checks_decide_without_assert(tmp_path, capsys, monkeypatch):
    # python -O strips assert statements, which would pass every check, and the
    # groupsim runner turns only ValueError into a failed verdict
    for path in Path(phaseopt.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        asserts = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
            or (isinstance(node, ast.Raise) and node.exc and raises_assertion_error(node))
        ]
        assert asserts == [], (path.name, asserts)
    monkeypatch.setattr("phaseopt.groupsim.covariantize", lambda rep, chan: 0 * chan)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**scenario_payload(), "checks": ["covariantize"]}))
    code, out = run_cli(capsys, "groupsim", "--scenario", str(path), "--assert")
    assert code == 2
    assert json.loads(out)["checks"]["covariantize"] == {
        "verdict": "fail",
        "reason": "covariantized map is not a channel",
    }
    # a sweep violation: the "mixture" is the sharper component itself
    monkeypatch.setattr("phaseopt.groupsim.mix", lambda e1, e2, alpha: e1)
    path.write_text(json.dumps({**scenario_payload(), "checks": ["mix-inequality"]}))
    code, out = run_cli(capsys, "groupsim", "--scenario", str(path), "--assert")
    assert code == 2
    report = json.loads(out)["checks"]["mix-inequality"]
    assert report["verdict"] == "fail"
    assert report["reason"].startswith("convexity violated on (0,): ")


def test_the_cli_reads_no_private_groupsim_name_and_no_check_name():
    # the scenario checks decide in groupsim, and their names are written there once
    src = Path(phaseopt.__file__).parent
    tree = ast.parse((src / "cli.py").read_text())
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name == "groupsim"
    }
    assert aliases == {"gs"}
    private = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in aliases and node.attr.startswith("_"))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").endswith("groupsim")
            and any(alias.name.startswith("_") for alias in node.names))
    ]
    assert private == []
    for path in src.glob("*.py"):
        if path.name != "groupsim.py":
            spelled = [
                node.lineno
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value in gs.SCENARIO_CHECKS
            ]
            assert spelled == [], (path.name, spelled)
    # test_groupsim_scenario_runs_all_checks covers every name
    assert sorted(gs.SCENARIO_CHECKS) == sorted(scenario_payload()["checks"])


def import_time_nodes(node):
    """Nodes run when the module is imported: all but function bodies."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from import_time_nodes(child)


# modules that phaseopt imports on first use, never with a module: scipy for
# displacement_element, numpy.polynomial for the quadrature oracle's Gauss-Legendre nodes
DEFERRED_IMPORTS = ("scipy", "numpy.polynomial")


def is_deferred(name: str) -> bool:
    return any(name == top or name.startswith(top + ".") for top in DEFERRED_IMPORTS)


def is_deferred_import(node) -> bool:
    if isinstance(node, ast.Import):
        return any(is_deferred(alias.name) for alias in node.names)
    return isinstance(node, ast.ImportFrom) and node.level == 0 and is_deferred(node.module)


def test_importing_the_cli_loads_no_scipy():
    # nor numpy.polynomial: both are deferred to the functions that use them
    for path in Path(phaseopt.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        lines = [node.lineno for node in import_time_nodes(tree) if is_deferred_import(node)]
        assert lines == [], (path.name, lines)
    script = (
        "import phaseopt, phaseopt.cli, sys\n"
        f"deferred = {DEFERRED_IMPORTS!r}\n"
        "loaded = sorted(m for m in sys.modules\n"
        "                if any(m == d or m.startswith(d + '.') for d in deferred))\n"
        "sys.stderr.write(repr(loaded))\n"
        "sys.exit(phaseopt.cli.main(sys.argv[1:]))\n"
    )
    src = str(Path(phaseopt.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["oracle-et", "--levels", "1.0@0", "--dim", "12", "--arc", "half", "--assert"]
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert (proc.returncode, proc.stderr) == (0, "[]")
    # the deviation comes out of LAPACK (Gauss-Legendre nodes) and BLAS, so its
    # digits may differ between builds: only its size is pinned, every other byte is
    assert json.loads(proc.stdout)["max_entry_deviation"] < 1e-13
    assert proc.stdout.startswith('{"verdict": "pass", "max_entry_deviation": ')
    assert proc.stdout.endswith(
        ', "dim": 12, "r_max": 10, "quad_points": 160, "tolerances": {"tol": 9.9999999999999995e-07}}\n'
    )


def test_groupsim_refuses_sweeps_above_the_order_limit(tmp_path, capsys):
    n = gs.MAX_SWEEP_ORDER + 1
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "N": n, "weights": [0], "seed": [[1.0]],
        "checks": ["additivity", "mix-inequality", "pre-norm-depolarizing"],
    }))
    code = main(["groupsim", "--scenario", str(path), "--assert"])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    checks = json.loads(captured.out)["checks"]
    assert checks["additivity"]["verdict"] == "pass"
    reason = (
        f"group order N = {n} is above the subset-sweep limit {gs.MAX_SWEEP_ORDER} "
        "(2^N - 1 subsets)"
    )
    for name in ("mix-inequality", "pre-norm-depolarizing"):
        assert checks[name] == {"verdict": "fail", "reason": reason}


def test_groupsim_refuses_scenarios_above_the_order_limit(tmp_path, capsys, monkeypatch):
    def no_effects(*args):
        raise AssertionError("effects built for a refused scenario")

    monkeypatch.setattr("phaseopt.groupsim.make_covariant", no_effects)
    path = tmp_path / "scenario.json"
    for n in (gs.MAX_SCENARIO_ORDER + 1, 10**9, 0, 6.0, True, "6", [6]):
        path.write_text(json.dumps({"N": n, "weights": [0], "seed": [[1.0]], "checks": ["covariance"]}))
        assert main(["groupsim", "--scenario", str(path)]) == 1, n
        message = f"N must be an integer in 1..{gs.MAX_SCENARIO_ORDER}, got {n!r}"
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n"), n


def test_groupsim_refuses_empty_weights(tmp_path, capsys):
    # this was refused as "seed must be a 0 x 0 list of numbers or [re, im] pairs"
    path = tmp_path / "scenario.json"
    for seed in ([], [[]]):
        path.write_text(json.dumps({"N": 3, "weights": [], "seed": seed, "checks": ["additivity"]}))
        assert main(["groupsim", "--scenario", str(path)]) == 1
        message = "a representation needs at least one weight"
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


@pytest.mark.parametrize(
    "cell", [[5], True, "1", [True, False], [], [1, 2, 3], [None, 0], {"re": 1}, 10**400]
)
@pytest.mark.parametrize("key", ["seed", "seed2"])
def test_groupsim_refuses_seed_cells_that_are_not_numbers_or_pairs(tmp_path, capsys, key, cell):
    # each of these was coerced by numpy (a bool, a string, a one-item list) or
    # read as 0; a huge integer raised OverflowError
    seed = [[cell, 0.0], [0.0, 0.5]]
    scenario = {"N": 3, "weights": [0, 1], "seed": [[0.5, 0.0], [0.0, 0.5]], key: seed,
                "checks": ["additivity", "mix-inequality"]}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert main(["groupsim", "--scenario", str(path)]) == 1
    message = f"{key} must be a 2 x 2 list of numbers or [re, im] pairs"
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


@pytest.mark.parametrize("cell", ["NaN", "null", "[NaN, 0]", "Infinity"])
def test_groupsim_refuses_non_finite_seed_cells_as_non_finite(tmp_path, capsys, cell):
    path = tmp_path / "scenario.json"
    path.write_text(f'{{"N": 3, "weights": [0, 1], "seed": [[{cell}, 0], [0, 0.5]]}}')
    assert main(["groupsim", "--scenario", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {path}: seed entries must be finite\n")


def test_groupsim_accepts_numbers_and_pairs_in_one_seed(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    seed = [[1, [0.25, -0.5]], [[0.25, 0.5], 2.0]]
    path.write_text(json.dumps({"N": 3, "weights": [0, 1], "seed": seed, "checks": ["additivity"]}))
    code, out = run_cli(capsys, "groupsim", "--scenario", str(path), "--assert")
    assert code == 0 and json.loads(out)["checks"]["additivity"]["verdict"] == "pass"


def test_groupsim_refuses_scenarios_above_the_dimension_limit(tmp_path, capsys, monkeypatch):
    def no_effects(*args):
        raise AssertionError("effects built for a refused scenario")

    monkeypatch.setattr("phaseopt.groupsim.make_covariant", no_effects)
    path = tmp_path / "scenario.json"
    for d in (gs.MAX_SCENARIO_DIM + 1, 64):
        # the seed is malformed too: the dimension is refused before it is read
        scenario = {"N": 4, "weights": [0] * d, "seed": "unread", "checks": ["covariantize"]}
        path.write_text(json.dumps(scenario))
        assert main(["groupsim", "--scenario", str(path)]) == 1, d
        message = (
            f"representation dimension {d} (the length of weights) "
            f"is above the limit {gs.MAX_SCENARIO_DIM}"
        )
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n"), d
    monkeypatch.undo()
    d = gs.MAX_SCENARIO_DIM
    path.write_text(json.dumps({"N": 2, "weights": list(range(d)), "seed": np.eye(d).tolist(),
                                "checks": ["covariance", "covariantize"]}))
    code, out = run_cli(capsys, "groupsim", "--scenario", str(path), "--assert")
    assert code == 0, out


# --- determinism ---------------------------------------------------------------------


def test_repeated_runs_are_byte_identical(capsys, monkeypatch):
    _, out1 = run_cli(capsys, "gen", "chessboard", "--xi", "0.25+0.5j", "--dim", "12")
    _, out2 = run_cli(capsys, "gen", "chessboard", "--xi", "0.25+0.5j", "--dim", "12")
    assert out1 == out2

    code, rep1 = run_cli_stdin(capsys, monkeypatch, out1, "check", "sharp")
    code, rep2 = run_cli_stdin(capsys, monkeypatch, out2, "check", "sharp")
    assert rep1 == rep2

    _, csv1 = run_cli(capsys, "norm-sweep", "--dims", "4,8")
    _, csv2 = run_cli(capsys, "norm-sweep", "--dims", "4,8")
    assert csv1 == csv2


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "m.json"
    code, out = run_cli(capsys, "gen", "canonical", "--dim", "3", "--out", str(target))
    assert code == 0 and out == ""
    data = json.loads(target.read_text())
    assert data["dim"] == 3


def test_malformed_input_is_diagnosed(tmp_path, capsys, monkeypatch):
    code, _ = run_cli_stdin(capsys, monkeypatch, "{not json", "validate")
    assert code == 1
    path = tmp_path / "missing_field.json"
    path.write_text(json.dumps({"dim": 3}))
    code, _ = run_cli(capsys, "check", "sharp", "--in", str(path))
    assert code == 1
    for text, message in (
        ('{"dim": 1, "entries": [["a", 0]]}', "pairs of numbers"),
        ('{"dim": 1, "entries": [1]}', "pairs of numbers"),
        ('{"dim": 1, "entries": [[true, false]]}', "pairs of numbers"),
        ('{"dim": 1, "entries": [[1, null]]}', "pairs of numbers"),
        ('{"dim": 0, "entries": []}', "dim must be a positive integer"),
        ('{"dim": 2, "entries": [[1, 0], [0, 0], [0, 0]]}', "entries has 3 pairs, expected 4"),
        ("[1, 2]", "expected a JSON object"),
    ):
        for argv in (["check", "sharp"], ["validate"]):
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            assert main(argv) == 1, (argv, text)
            assert message in capsys.readouterr().err, (argv, text)
    for levels in ("0.5@-1,0.5@0", "0.5@-3,0.5@1"):
        assert main(["gen", "state", "--dim", "8", "--levels", levels]) == 1, levels
        captured = capsys.readouterr()
        assert captured.out == "", levels
        assert captured.err.startswith("error: ") and "negative level" in captured.err
    # refused before a weight vector of the level's size is built
    assert main(["gen", "state", "--dim", "8", "--levels", "1@100000000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: state support reaches level 100000000, above the cutoff 64\n"
    scenario = scenario_payload()
    for seed in ([[1, 0], [0, 1]], np.eye(4).tolist(), [[1, 0, 0], [0, 1], [0, 0, 1]]):
        scenario["seed"] = seed
        path.write_text(json.dumps(scenario))
        assert main(["groupsim", "--scenario", str(path)]) == 1, seed
        assert "seed must be a 3 x 3" in capsys.readouterr().err
    for key, value, message in (
        ("seed2", np.eye(4).tolist(), "seed2 must be a 3 x 3"),
        ("seed", [[1.0, math.nan, 0.0], [math.nan, 1.0, 0.0], [0.0, 0.0, 1.0]], "finite"),
    ):
        path.write_text(json.dumps({**scenario_payload(), key: value}))
        assert main(["groupsim", "--scenario", str(path), "--assert"]) == 1, key
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err, key
    known = (
        "check names (covariance, smear-covariance, additivity, faithful, norm-bound, "
        "mix-inequality, covariantize, pre-norm-unitary, pre-norm-depolarizing)"
    )
    # read mod N, [0, 6, 12] would count outcome 0 three times (rhs 1.5)
    for key, value, message in (
        ("subset", [0, 6, 12], "subset must hold distinct outcomes 0..5, got [0, 6, 12]"),
        ("subset", [1, 1], "subset must hold distinct outcomes 0..5, got [1, 1]"),
        ("subset", [0.5], "subset must hold distinct outcomes 0..5, got [0.5]"),
        ("subset", 3, "subset must hold distinct outcomes 0..5, got 3"),
        ("nu", [0.5, 0.5], "nu must have N = 6 weights, got 2"),
        ("weights", 5, "weights must be a list of integers, got 5"),
        ("weights", [0, 1, 10**30], f"weights must satisfy |w| * max(N - 1, 1) < 2**63, got {10**30}"),
        ("nu", [], "a measure needs at least one weight"),
        ("nu", 3, "nu must be a list of finite numbers, got 3"),
        ("checks", 7, f"checks must be a list of {known}, got 7"),
        ("checks", "covariance", f"checks must be a list of {known}, got 'covariance'"),
        ("checks", ["nope"], f"checks must be a list of {known}, got ['nope']"),
        ("alpha", "x", "alpha must be a number in [0, 1], got 'x'"),
        ("alpha", 1.5, "alpha must be a number in [0, 1], got 1.5"),
        ("rng_seed", "abc", "rng_seed must be a non-negative integer, got 'abc'"),
        ("rng_seed", -1, "rng_seed must be a non-negative integer, got -1"),
    ):
        path.write_text(json.dumps({**scenario_payload(), key: value}))
        assert main(["groupsim", "--scenario", str(path), "--assert"]) == 1, (key, value)
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n"), (key, value)
    for key in ("N", "weights", "seed"):
        scenario = scenario_payload()
        del scenario[key]
        path.write_text(json.dumps(scenario))
        assert main(["groupsim", "--scenario", str(path)]) == 1, key
        assert capsys.readouterr() == ("", f"error: {path}: missing field {key!r}\n"), key
    path.write_text(json.dumps({"dim": 3}))
    assert main(["gen", "eta", "--in", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {path}: missing field 'vectors'\n")
    for argv, message in (
        (["norm-sweep", "--dims", "4,x"], "--dims must list positive integers, got '4,x'"),
        (["norm-sweep", "--dims", "0"], "--dims must list positive integers, got '0'"),
        (["gen", "state", "--levels", "x@0"], "level spec 'x@0' is not 'weight@level'"),
        (["norm-sweep", "--arc", "x:1"], "arc component 'x:1' is not 'start:length'"),
        (["norm-sweep", "--arc", "nan:1.0"], "arc start nan is not finite"),
        (["norm-sweep", "--arc", "inf:1.0"], "arc start inf is not finite"),
        (["norm-sweep", "--arc", "0:1,-inf:1"], "arc start -inf is not finite"),
        (["oracle-et", "--arc", "nan:1.0"], "arc start nan is not finite"),
        (["validate", "--in", str(tmp_path)], f"[Errno 21] Is a directory: '{tmp_path}'"),
        (["gen", "state", "--levels", "nan@0,1@1", "--dim", "4"],
         "weights must be a probability vector, got [nan,  1.]"),
        (["oracle-et", "--levels", "nan@0,1@1"], "weights must be a probability vector, got [nan,  1.]"),
        (["gen", "canonical", "--dim", "513"], "--dim must be at most 512, got 513"),
        (["oracle-et", "--dim", "513"], "--dim must be at most 512, got 513"),
        (["norm-sweep", "--dims", "4,513"], "--dims entries must be at most 512, got '4,513'"),
        (["density", "--coherent", "1.0", "--grid", "4097"], "--grid must be at most 4096, got 4097"),
        (["channel-identity", "--grid", "4097"], "--grid must be at most 4096, got 4097"),
        (["oracle-et", "--tol", "inf"], "--tol must be finite, got inf"),
        (["channel-identity", "--tol", "inf"], "--tol must be finite, got inf"),
        (["check", "sharp", "--tol", "inf"], "--tol must be finite, got inf"),
        (["channel-identity", "--trials", "1001"], "--trials must be at most 1000, got 1001"),
    ):
        assert main(argv) == 1, argv
        assert capsys.readouterr() == ("", f"error: {message}\n"), argv
    matrix_path = tmp_path / "matrix.json"
    matrix_path.write_text(dumps(canonical(4).to_dict()))
    path.write_text('{"dim": 2, "entries": [[0.5, 0], [NaN, 0], [0, 0], [0.5, 0]]}')
    assert main(["density", "--state-file", str(path), "--in", str(matrix_path)]) == 1
    assert capsys.readouterr() == ("", f"error: {path}: state entries must be finite\n")
    for argv, message in (
        (["density", "--coherent=40", "--grid", "8", "--in", str(matrix_path)],
         "the weight of the coherent state at z = (40+0j) in its first 4 levels underflows to 0"),
        (["density", "--coherent=nan", "--grid", "8", "--in", str(matrix_path)],
         "complex number 'nan' is not finite"),
        (["density", "--coherent=1+infj", "--in", str(matrix_path)],
         "complex number '1+infj' is not finite"),
        (["gen", "chessboard", "--dim", "4", "--xi=nan"], "complex number 'nan' is not finite"),
    ):
        assert main(argv) == 1, argv
        assert capsys.readouterr() == ("", f"error: {message}\n"), argv
    for atoms in (
        5,
        [[0.0, 1.0]],
        [{"angle": "x", "weight": 1.0}],
        [{"weight": 1.0}],
        [{"angle": 0.0, "weight": "1"}],
        [{"angle": math.nan, "weight": 1.0}],
        [{"angle": 0.0, "weight": math.nan}],
    ):
        path.write_text(json.dumps({"atoms": atoms}))
        assert main(["smear", "--nu", str(path), "--in", str(matrix_path)]) == 1, atoms
        message = 'atoms must be a list of {"angle": x, "weight": w} with finite numbers'
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n"), atoms


def test_flag_values_must_be_positive(capsys, monkeypatch):
    _, gen_out = run_cli(capsys, "gen", "canonical", "--dim", "8")
    for argv in (
        ["check", "preclean", "--tol", "0"],
        ["check", "sharp", "--tol", "-0.1"],
        ["check", "uequiv", "--other", "-", "--tol", "nan"],
        ["density", "--coherent", "1.0", "--grid", "0"],
        ["channel-identity", "--grid", "0"],
        ["gen", "canonical", "--dim", "0"],
        ["oracle-et", "--dim", "0"],
        ["oracle-et", "--tol=-1e-6"],
        ["channel-identity", "--trials", "0"],
        ["channel-identity", "--trials", "-2"],
    ):
        monkeypatch.setattr("sys.stdin", io.StringIO(gen_out))
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        flag = [a for a in argv if a.startswith("--")][-1].split("=")[0]
        assert captured.out == "" and f"{flag} must be positive" in captured.err, argv
    # the tolerance used is the one reported
    code, out = run_cli_stdin(capsys, monkeypatch, gen_out, "check", "preclean", "--tol", "0.25")
    assert json.loads(out)["tolerances"] == {"tail_modulus": 0.25}
    # extremal and rank decide at EPS_RANK, so a --tol there is refused, not ignored
    for criterion in ("extremal", "rank"):
        monkeypatch.setattr("sys.stdin", io.StringIO(gen_out))
        assert main(["check", criterion, "--tol", "0.5"]) == 1, criterion
        message = f"error: check {criterion} takes no --tol; it uses EPS_RANK = 1e-09\n"
        assert capsys.readouterr() == ("", message), criterion
    # a unary criterion refuses --other without opening it, a binary one needs it
    for criterion in ("sharp", "extremal", "rank", "preclean"):
        monkeypatch.setattr("sys.stdin", io.StringIO(gen_out))
        assert main(["check", criterion, "--other", "/nonexistent.json"]) == 1, criterion
        message = f"error: check {criterion} takes no --other\n"
        assert capsys.readouterr() == ("", message), criterion
    for criterion in ("uequiv", "postclass"):
        monkeypatch.setattr("sys.stdin", io.StringIO(gen_out))
        assert main(["check", criterion]) == 1, criterion
        assert capsys.readouterr() == ("", f"error: check {criterion} requires --other\n")
    # a negative depth is a bad flag, not a not-state-generated verdict
    monkeypatch.setattr("sys.stdin", io.StringIO(gen_out))
    assert main(["recover-state", "--depth", "-1", "--assert"]) == 1
    assert capsys.readouterr() == ("", "error: depth must be non-negative, got -1\n")


def test_settings_come_from_flags_alone(capsys):
    # there is no config file or --config flag: naming one is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["--config", "x", "gen", "canonical"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: phaseopt")


def test_dimension_mismatch_is_explicit(tmp_path, capsys, monkeypatch):
    other_path = tmp_path / "other.json"
    other_path.write_text(dumps(canonical(8).to_dict()))
    code, _ = run_cli_stdin(
        capsys,
        monkeypatch,
        dumps(canonical(4).to_dict()),
        "check",
        "uequiv",
        "--other",
        str(other_path),
    )
    assert code == 1
