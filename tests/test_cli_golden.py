"""Cross-version byte test: sha256 of CLI stdout, pinned.

The digests were captured from an earlier release of the package, so any
change to an emitted byte (float formatting, field order, a tolerance
default, the matrix codec) fails here, not only run-to-run drift.  Outputs
whose floats come out of LAPACK (norm-sweep, extremal residuals) are left
out, because BLAS/LAPACK builds can differ by an ulp there.  A passing
validate report holds none: its min_eigenvalue_bound is the constant
-EPS_PSD that the Cholesky certificate proves.
"""

import contextlib
import hashlib
import io
import json

import pytest

from phaseopt.cli import _build_parser, run

INPUTS = {
    "vectors.json": {
        "vectors": [[[1, 0], [0, 0]], [[0, 0], [1, 0]], [[0.6, 0], [0, 0.8]], [[0, 0], [-1, 0]]]
        * 2
    },
    "dirac.json": {"atoms": [{"angle": 0.7, "weight": 1.0}], "density_coeffs": []},
    "rho.json": {
        "dim": 2,
        "entries": [[0.25, 0.0], [0.1, 0.2], [0.1, -0.2], [0.75, 0.0]],
        "trace": 1.0,
    },
}

# every gen family at D=8; each output is saved as <name>.json for the checks
GEN = {
    "canonical": (
        "gen canonical --dim 8",
        "95fe04892f1c0de45601208078e48eeb2469e7085e48e536b770798b44da8c95",
    ),
    "chessboard": (
        "gen chessboard --xi 0.3+0.4j --dim 8",
        "a7375f510701c431c8c83f1f1c6a14626363bca4e8872367ffcc3e51690cc025",
    ),
    "rotated": (
        "gen chessboard --xi=-0.4+0.3j --dim 8",
        "24cff8ea8bd2c0446ed365ce9f6d2a685352a63def8d59ae84fa21d310c5aa65",
    ),
    "state": (
        "gen state --levels 0.25@0,0.75@3 --dim 8",
        "330573b3afb5b44a1a6ec386181030557812738cbd47fbb57ec9616cc55a34be",
    ),
    "eta": (
        "gen eta --in vectors.json",
        "6d1ca258a960d92cfff9567aa10bdd04a301ae5d73648767047d0bccbad5edb9",
    ),
    "example4": (
        "gen example4 --n0 3 --dim 8",
        "01bc41b5426e21d604ac15a318b136ceccb5d4e0297fa60bc08356bc91396613",
    ),
    "example5": (
        "gen example5 --dim 8",
        "0556dbc6cb61bfb0a4877d4f828f1ef7c9b3ac445063713d337d1200140e7aed",
    ),
    "state16": (
        "gen state --levels 0.25@0,0.75@3 --dim 16",
        "7c8fce77153e4d2321e195fcfef3129b7d44bd69bb878b66d8e8cb8118eb59f1",
    ),
    "canonical2": (
        "gen canonical --dim 2",
        "9c7108cfb4846259fa0991601d8e4a48eaaaabbdeec26de1e587f54fa04e6472",
    ),
}

PIPES = {
    "validate --in canonical.json":
        "34f439b33391ec987b7fc619703b333ccccb561a802a069fdf2d7c7871ed7540",
    "validate --in state.json":
        "34f439b33391ec987b7fc619703b333ccccb561a802a069fdf2d7c7871ed7540",
    "check sharp --in example5.json":
        "9cf8baf33c21935d2a5e0b4068b41fcf1b1914ba3647f996e3e4b282a3ec3cc9",
    "check sharp --tol 0.3 --in chessboard.json":
        "2a1f5656441dcaf0353e31bca0372b4ac301c2dccfa4ea3f2ee181f47762c460",
    "check rank --in chessboard.json":
        "78d4bc41979cd95bcca3fa56e336c6f20359443fed99c13296b154d1bab73f67",
    "check preclean --in example4.json":
        "7825d14092a6a52a9d5afbcd9a0bd95b023319afc806558187ec2bbb1e255143",
    "check preclean --tol 1e-3 --in state.json":
        "32e7d139481128fe1a811bf89d92561ad7f3f8d2e11c9517d85f7ddb3e33de06",
    "check uequiv --in chessboard.json --other rotated.json":
        "28d9c186077a5385bcfa3a7a8343b835aed92578eb3b844cd249fc8e3318a6b3",
    "check uequiv --in canonical.json --other example4.json":
        "1ebe1340affbae93b46b78e01d249fe1baa8bfa2896c3a6f0e2cd5dca240be58",
    "recover-state --in state16.json":
        "4662ba0161f8859f117d109752ff8d51aaf9fef625f9cdfba521aa74a09e5c86",
    "recover-state --depth 1 --in state16.json":
        "ed0694ce5550d1144b4976d896ba38012ee1f52402ac92d7f0868e0c4173189a",
    "smear --nu dirac.json --in chessboard.json":
        "ee6ba4cee7dc8fd36e041a07b1ffa91fa9ffc10b99a7e5a71aad12a5ac6acb62",
    "density --state-file rho.json --grid 16 --in canonical2.json":
        "d06d8cd6388cb0a3bbeca48f6a7d554c4aa4ddd721846c5183ffc0b3016d58b3",
}


def stdout_of(command: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(command.split())
    assert code == 0, command
    return buf.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# every pinned command runs in both settings.  "hostile" is a working
# directory holding a phaseopt.cfg plus PHASEOPT_DIM in the environment, the
# two places an earlier release read defaults from; were either read again,
# the tolerance uequiv reports and the depth recover-state uses would move.
HOSTILE_CFG = "dim = 3\ngrid = 3\ntol_equiv = 0.5\nrecovery_depth = 0\n"
SETTINGS = {"clean": {}, "hostile": {"PHASEOPT_DIM": "5"}}


@pytest.fixture(scope="module")
def workdirs(tmp_path_factory):
    """One input directory per setting; the hostile one also holds a phaseopt.cfg."""
    paths = {}
    for setting in SETTINGS:
        path = paths[setting] = tmp_path_factory.mktemp(f"golden-{setting}")
        for name, payload in INPUTS.items():
            (path / name).write_text(json.dumps(payload))
    (paths["hostile"] / "phaseopt.cfg").write_text(HOSTILE_CFG)
    return paths


def enter(setting, workdirs, monkeypatch):
    monkeypatch.chdir(workdirs[setting])
    monkeypatch.delenv("PHASEOPT_DIM", raising=False)
    for var, value in SETTINGS[setting].items():
        monkeypatch.setenv(var, value)
    return workdirs[setting]


@pytest.mark.parametrize("name", list(GEN))
def test_gen_bytes_are_pinned(name, workdirs, monkeypatch):
    command, expected = GEN[name]
    for setting in SETTINGS:
        workdir = enter(setting, workdirs, monkeypatch)
        out = stdout_of(command)
        (workdir / f"{name}.json").write_text(out)
        assert digest(out) == expected, setting


@pytest.mark.parametrize("command", list(PIPES))
def test_pipeline_bytes_are_pinned(command, workdirs, monkeypatch):
    for setting in SETTINGS:
        workdir = enter(setting, workdirs, monkeypatch)
        for name, (gen, _) in GEN.items():
            if not (workdir / f"{name}.json").exists():
                (workdir / f"{name}.json").write_text(stdout_of(gen))
        assert digest(stdout_of(command)) == PIPES[command], setting


def test_one_process_runs_commands_through_one_parser(tmp_path, monkeypatch):
    # the parser is built once per process, so nothing one command parses
    # may reach the next: groupsim, gen, then the same groupsim again
    monkeypatch.chdir(tmp_path)
    scenario = {
        "N": 6,
        "weights": [0, 1, 2],
        "seed": [[0.5, 0.1, 0.0], [0.1, 0.4, 0.05], [0.0, 0.05, 0.3]],
        "nu": [0.5, 0.5, 0, 0, 0, 0],
        "checks": ["additivity", "norm-bound", "mix-inequality", "pre-norm-depolarizing"],
        "alpha": 0.25,
    }
    (tmp_path / "scenario.json").write_text(json.dumps(scenario))
    first = stdout_of("groupsim --scenario scenario.json")
    assert digest(stdout_of("gen canonical --dim 8")) == GEN["canonical"][1]
    assert stdout_of("groupsim --scenario scenario.json") == first
    assert _build_parser() is _build_parser()
