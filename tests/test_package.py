"""The public surface of the ``phaseopt`` package."""

import inspect

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
