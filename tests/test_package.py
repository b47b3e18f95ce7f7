"""The public surface of the ``phaseopt`` package."""

import inspect
import re
from dataclasses import fields
from pathlib import Path

import phaseopt

# an addition to or a removal from the package namespace is an API change: it
# must show up here, in review, as a diff
PUBLIC_NAMES = [
    "Arc",
    "CircleMeasure",
    "CoherentVector",
    "Config",
    "CovariantChannelSpec",
    "CriterionInapplicableError",
    "DensityMatrix",
    "DiagonalState",
    "EtaSystem",
    "ExtremalReport",
    "NotStateGeneratedError",
    "PhaseMatrix",
    "SharpnessReport",
    "TruncationError",
    "ValidationReport",
    "approx_sharp_check",
    "c_fock_0_2k",
    "c_state",
    "c_state_matrix",
    "canonical",
    "canonical_channel",
    "chessboard",
    "density",
    "displacement_element",
    "effect_norm",
    "effect_operator",
    "et_quadrature_oracle",
    "example4",
    "example5",
    "extremal_check",
    "fourier_arc",
    "from_eta",
    "gram_factor",
    "identity_channel_spec",
    "load_config",
    "number_unitary",
    "post_equiv_class",
    "preclean_check",
    "preprocess",
    "prob",
    "real_nonextremal_shortcut",
    "recover_state",
    "smear",
    "state_generated",
    "tail_recovery_spec",
    "translate",
    "u_equivalent",
    "validate",
]


def test_package_exports_exactly_the_pinned_names():
    # submodules are skipped: which of them are bound depends on what else ran
    exported = sorted(
        name
        for name, value in vars(phaseopt).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert exported == PUBLIC_NAMES


# each Config field is a user-visible setting (a config-file key); adding or
# retiring one is a CLI change and must show up here as a diff
CONFIG_DEFAULTS = {"dim": 64, "tol_equiv": 1e-10, "grid": 512, "recovery_depth": None}


def test_config_fields_are_pinned():
    assert {f.name: f.default for f in fields(phaseopt.Config)} == CONFIG_DEFAULTS


def test_readme_configuration_table_lists_exactly_the_config_keys():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("| key | default | from |\n", 1)[1].split("\n\n", 1)[0]
    keys = re.findall(r"^\| `(\w+)` \|", table, flags=re.MULTILINE)
    assert keys == list(CONFIG_DEFAULTS)
