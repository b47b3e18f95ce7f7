"""Phase matrices for covariant phase observables and their optimality verdicts."""

from .measure import (
    Arc,
    CoherentVector,
    DensityMatrix,
    DiagonalState,
    density,
    effect_norm,
    effect_operator,
    et_quadrature_oracle,
    fourier_arc,
    number_unitary,
    prob,
)
from .optimal import (
    CircleMeasure,
    CovariantChannelSpec,
    CriterionInapplicableError,
    ExtremalReport,
    NotStateGeneratedError,
    SharpnessReport,
    approx_sharp_check,
    canonical_channel,
    extremal_check,
    identity_channel_spec,
    post_equiv_class,
    preclean_check,
    preprocess,
    real_nonextremal_shortcut,
    recover_state,
    smear,
    tail_recovery_spec,
)
from .phase_matrix import (
    EtaSystem,
    PhaseMatrix,
    TruncationError,
    ValidationReport,
    canonical,
    chessboard,
    example4,
    example5,
    from_eta,
    gram_factor,
    state_generated,
    translate,
    u_equivalent,
    validate,
)
from .specfun import c_fock_0_2k, c_state, c_state_matrix, displacement_element

__version__ = "0.1.0"
