"""Smearing, sharpness trends, extremality, recovery and channel criteria."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circle_measures import convolve
# preclean_check with the second tail eigenvalue always read by eigvalsh
from test_bitwise_reference import _reference_preclean_check
from test_gram_factor import mp_spectrum
from phaseopt import optimal
from phaseopt.measure import TWO_PI, Arc, DensityMatrix, density, effect_norm
from phaseopt.optimal import (
    MAX_DENSITY_COEFFS,
    CircleMeasure,
    CovariantChannelSpec,
    CriterionInapplicableError,
    NotStateGeneratedError,
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
from phaseopt.phase_matrix import (
    EPS_RANK,
    PhaseMatrix,
    _lapack_operand,
    _weyl_spectrum,
    canonical,
    chessboard,
    example4,
    example5,
    from_eta,
    gram_factor,
    state_generated,
    translate,
    validate,
)


def unit(angle):
    return complex(math.cos(angle), math.sin(angle))


def random_state(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return DensityMatrix(rho / rho.trace().real)


def random_diagonal_weights(rng, levels=10):
    w = rng.random(levels)
    return w / w.sum()


# --- CircleMeasure --------------------------------------------------------------


def test_circle_measure_haar_and_dirac():
    haar = CircleMeasure(density_coeffs=(1.0,))
    assert haar.fourier(0) == 1.0
    assert haar.fourier(3) == 0.0
    x = unit(0.8)
    delta = CircleMeasure.dirac(x)
    for k in (-2, 1, 4):
        assert delta.fourier(k) == pytest.approx(x ** (-k), abs=1e-14)


def test_circle_measure_mass_validation():
    with pytest.raises(ValueError):
        CircleMeasure(atoms=((1.0, 0.5),))
    with pytest.raises(ValueError):
        CircleMeasure(atoms=((0.5 + 0.5j, 1.0),))  # off the circle
    nan = math.nan
    for atoms, coeffs in (
        (((complex(nan, nan), 1.0),), ()),
        (((1.0, nan),), ()),
        ((), (complex(nan, 0.0),)),
        ((), (1.0, complex(nan, 0.0))),
    ):
        with pytest.raises(ValueError):  # every NaN test fails, so NaN is refused
            CircleMeasure(atoms=atoms, density_coeffs=coeffs)
    # an atom weight may dip below 0 by the probability-vector slack, not further
    CircleMeasure(atoms=((1.0, 1.0 + 5e-13), (-1.0, -5e-13)))
    with pytest.raises(ValueError, match="atom weights must be nonnegative"):
        CircleMeasure(atoms=((1.0, 1.0 + 2e-12), (-1.0, -2e-12)))


def test_circle_measure_rejects_negative_density():
    # h = 1 + 2 cos(theta) dips negative
    with pytest.raises(ValueError):
        CircleMeasure(density_coeffs=(1.0, 1.0))
    # 1 - 1.2 sin(K theta) dips to -0.2 between the points of a 1024-point grid
    for k in (512, 1024):
        with pytest.raises(ValueError, match=r"density dips to -0\.19999999"):
            CircleMeasure(density_coeffs=(1.0,) + (0.0,) * (k - 1) + (0.6j,))
    CircleMeasure(density_coeffs=(1.0, 0.5))  # 1 + cos(theta) touches 0 on the grid
    CircleMeasure(density_coeffs=(1.0,) + (0.0,) * (MAX_DENSITY_COEFFS - 1))
    with pytest.raises(ValueError, match=f"more than {MAX_DENSITY_COEFFS}"):
        CircleMeasure(density_coeffs=(1.0,) + (0.0,) * MAX_DENSITY_COEFFS)
    # a non-finite coefficient is refused by name before the grid sees it: no RuntimeWarning
    nan, inf = math.nan, math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for coeffs, shown in (
            ((1.0, inf), r"h_1 = \(inf\+0j\)"),
            ((1.0, complex(nan, 0.0)), r"h_1 = \(nan\+0j\)"),
            ((1.0, 0.0, complex(0.0, -inf)), "h_2 = -infj"),
            ((complex(1.0, nan),), r"h_0 = \(1\+nanj\)"),
        ):
            with pytest.raises(ValueError, match=f"density coefficient {shown} is not finite"):
                CircleMeasure(density_coeffs=coeffs)


# 1 + 1.04 cos(128 theta - 7 pi / 8): its minimum, -0.04, falls midway between two of the
# 1024 grid points, where the density reads 0.039
BETWEEN_GRID_DIP = (1.0,) + (0.0,) * 127 + (0.52 * unit(-7 * math.pi / 8),)


def test_circle_measure_certifies_positivity_between_grid_points():
    with pytest.raises(ValueError, match=r"density dips to -0\.0396\d* at theta = [\d.]+ "
                                         "between the grid points"):
        CircleMeasure(density_coeffs=BETWEEN_GRID_DIP)
    # with 0.5 for 0.52 it touches 0 between the points, and is accepted
    CircleMeasure(density_coeffs=BETWEEN_GRID_DIP[:-1] + (0.5 * unit(-7 * math.pi / 8),))
    for phi in (0.001, 1.0, 2.5):
        # 1 + cos(theta + phi) touches 0 off the grid; scaled by 1 + 1e-8 it dips to -1e-8
        CircleMeasure(density_coeffs=(1.0, 0.5 * unit(phi)))
        with pytest.raises(ValueError, match="between the grid points"):
            CircleMeasure(density_coeffs=(1.0, 0.5 * (1.0 + 1e-8) * unit(phi)))
    for k in (4, 16, 64, 256, 1024, 4096):
        # the Fejer kernel touches 0 at k points, each a double zero
        CircleMeasure(density_coeffs=tuple(1.0 - j / (k + 1) for j in range(k + 1)))


@pytest.mark.parametrize("seed", range(4))
def test_circle_measure_certificate_matches_a_dense_grid(seed):
    """|f|^2 with some roots of f on the circle touches 0 there and is accepted; lowered
    by a millionth of its maximum, it dips and is refused."""
    rng = np.random.default_rng(seed)
    degree, touching = 300, 4
    roots = np.concatenate([np.exp(1j * rng.uniform(0.0, TWO_PI, touching)),
                            (0.3 + 2.0 * rng.random(degree - touching))
                            * np.exp(1j * rng.uniform(0.0, TWO_PI, degree - touching))])
    f = np.poly(roots)[::-1]
    h = np.array([np.vdot(f[:degree + 1 - k], f[k:]) for k in range(degree + 1)])
    h /= h[0].real
    CircleMeasure(density_coeffs=tuple(h))
    points = 1 << 18
    dense = 2.0 * (points * np.fft.ifft(h, points)).real - 1.0
    assert -1e-12 < dense.min() < 1e-6
    lowered = h.copy()
    lowered[0] -= 1e-6 * dense.max()
    with pytest.raises(ValueError, match="density dips to -"):
        CircleMeasure(density_coeffs=tuple(lowered / lowered[0].real))


def test_circle_measure_refuses_what_it_cannot_certify(monkeypatch):
    monkeypatch.setattr(optimal, "_DENSITY_LEVELS", 1)
    with pytest.raises(ValueError, match="cannot certify that the density is nonnegative"):
        CircleMeasure(density_coeffs=tuple(1.0 - j / 65 for j in range(65)))


def test_circle_measure_refuses_coefficient_above_h0():
    """A nonnegative density has |h_k| <= h_0; a larger one is refused before the grid."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for coeffs, shown in (
            ((1.0, 1e308), r"\|h_1\| = 1e\+308 exceeds h_0 = 1\.0"),
            ((1.0, complex(1e308, 1e308)), r"\|h_1\| = 1\.4142135623730951e\+308 exceeds"),
            ((0.25, 0.0, 0.3), r"\|h_2\| = 0\.3 exceeds h_0 = 0\.25"),
        ):
            with pytest.raises(ValueError, match=shown):
                CircleMeasure(atoms=((1.0, 1.0 - coeffs[0]),), density_coeffs=coeffs)
    # |h_1| = h_0: 1 + cos(theta) touches 0, and it is still accepted
    CircleMeasure(density_coeffs=(1.0, 0.5 + 0.0j))
    CircleMeasure(atoms=((1.0, 0.5),), density_coeffs=(0.5, 0.25j))


def test_smear_names_a_drifting_atom():
    """An atom _unimodular accepts may drift past the matrix slack at large D: named."""
    nu = CircleMeasure(atoms=((1 + 0.9e-12, 1.0),))
    with pytest.raises(ValueError, match=r"atom \(1\.0000000000009\+0j\) has \|x\| - 1 = 9e-13: "
                       r"at D = 256 the modulus of its powers drifts 4\.59e-10 from 1"):
        smear(state_generated([1.0], 256), nu)


def test_circle_measure_convolution_multiplies_fourier():
    nu = CircleMeasure(atoms=((unit(0.3), 0.4), (unit(-1.2), 0.6)))
    mu = CircleMeasure(atoms=((unit(2.0), 0.5),), density_coeffs=(0.5, 0.1 + 0.05j))
    conv = convolve(nu, mu)
    for k in range(-5, 6):
        assert conv.fourier(k) == pytest.approx(nu.fourier(k) * mu.fourier(k), abs=1e-12)


def test_circle_measure_json_round_trip():
    nu = CircleMeasure(atoms=((unit(1.0), 0.25),), density_coeffs=(0.75, 0.2))
    again = CircleMeasure.from_dict(nu.to_dict())
    for k in range(-4, 5):
        assert again.fourier(k) == pytest.approx(nu.fourier(k), abs=1e-12)


# --- smear ----------------------------------------------------------------------


def test_smear_haar_gives_trivial_observable():
    out = smear(example5(8), CircleMeasure(density_coeffs=(1.0,)))
    assert np.abs(out.entries - np.eye(8)).max() == 0.0


def test_smear_dirac_equals_translate():
    m = example5(10)
    x = unit(0.9)
    assert np.abs(smear(m, CircleMeasure.dirac(x)).entries - translate(m, x).entries).max() <= 1e-12


def test_smear_composition_is_convolution():
    m = canonical(10)
    nu = CircleMeasure(atoms=((unit(0.5), 0.5), (unit(-0.5), 0.5)))
    mu = CircleMeasure(density_coeffs=(1.0, 0.3, 0.1))
    twice = smear(smear(m, nu), mu)
    once = smear(m, convolve(nu, mu))
    assert np.abs(twice.entries - once.entries).max() < 1e-12


def test_smear_never_increases_modulus():
    m = example5(12)
    nu = CircleMeasure(atoms=((unit(0.2), 0.5),), density_coeffs=(0.5, 0.2, 0.1))
    out = smear(m, nu)
    assert np.all(np.abs(out.entries) <= np.abs(m.entries) + 1e-13)


def test_smear_nondirac_strictly_blurs_canonical():
    m = canonical(32)
    quarter = Arc.interval(0.0, math.pi / 2)
    # atoms separated further than the arc length: translates of the arc
    # never capture both, so the smeared norm caps near 1/2
    nu = CircleMeasure(atoms=((unit(1.2), 0.5), (unit(-1.2), 0.5)))
    assert effect_norm(smear(m, nu), quarter) < 0.6
    # mild blur still loses norm, just by less
    mild = CircleMeasure(atoms=((unit(0.4), 0.5), (unit(-0.4), 0.5)))
    assert effect_norm(smear(m, mild), quarter) < effect_norm(m, quarter) - 1e-5


def test_smear_output_validates():
    rng = np.random.default_rng(0)
    angles = rng.uniform(0, 2 * math.pi, 3)
    weights = rng.random(3)
    weights /= weights.sum()
    nu = CircleMeasure(atoms=tuple((unit(a), w) for a, w in zip(angles, weights)))
    out = smear(state_generated([0.5, 0.5], 16), nu)
    assert validate(out.entries).ok


# --- sharpness -------------------------------------------------------------------


def test_sharp_canonical_is_consistent():
    rep = approx_sharp_check(canonical(128))
    assert rep.consistent
    assert rep.estimated_u == pytest.approx(1.0, abs=1e-14)
    assert rep.max_tail_deviation == 0.0


def test_sharp_state_generated_is_consistent():
    rep = approx_sharp_check(state_generated([1.0], 256))
    assert rep.consistent
    assert rep.estimated_u == pytest.approx(1.0, abs=1e-12)
    assert all(a >= b - 1e-12 for a, b in zip(rep.trend, rep.trend[1:]))


def test_sharp_chessboard_zero_is_inconsistent():
    rep = approx_sharp_check(chessboard(0.0, 128))
    assert rep.verdict == "inconsistent"


def test_sharp_chessboard_half_is_inconsistent():
    # |c[m, m+1]| = 0.5 throughout: no unimodular limit
    rep = approx_sharp_check(chessboard(0.5, 128))
    assert rep.verdict == "inconsistent"


def test_sharp_translated_estimates_rotated_u():
    x = unit(0.6)
    rep = approx_sharp_check(translate(canonical(128), x))
    assert rep.consistent
    assert rep.estimated_u == pytest.approx(x, abs=1e-12)


def test_sharp_example5_consistent():
    rep = approx_sharp_check(example5(64))
    assert rep.consistent
    assert rep.estimated_u == pytest.approx(1.0, abs=1e-14)


# --- extremality -----------------------------------------------------------------


def test_extremal_canonical():
    rep = extremal_check(gram_factor(canonical(16)))
    assert rep.extremal and rep.rank == 1


def test_extremal_chessboard_fails_span():
    rep = extremal_check(gram_factor(chessboard(0.5, 16)))
    assert not rep.extremal
    assert rep.rank == 2 and rep.span_dim == 2 and rep.required == 4


def test_extremal_example5_spans():
    rep = extremal_check(gram_factor(example5(16)))
    assert rep.extremal
    assert rep.rank == 2 and rep.span_dim == 4


def test_extremal_state_generated_fails():
    rep = extremal_check(gram_factor(state_generated([1.0], 32)))
    assert not rep.extremal


def test_extremal_proper_mixture_is_never_extremal():
    m1 = canonical(16).entries
    m2 = chessboard(0.0, 16).entries
    for alpha in (0.25, 0.5, 0.8):
        mix = PhaseMatrix(alpha * m1 + (1 - alpha) * m2)
        assert not extremal_check(gram_factor(mix)).extremal


def test_extremal_random_eta_mixtures_never_extremal():
    rng = np.random.default_rng(55)
    for _ in range(4):
        fams = []
        for _ in range(2):
            v = rng.normal(size=(24, 2)) + 1j * rng.normal(size=(24, 2))
            v /= np.linalg.norm(v, axis=1)[:, None]
            fams.append(from_eta(v))
        alpha = float(rng.uniform(0.2, 0.8))
        mix = PhaseMatrix(alpha * fams[0].entries + (1 - alpha) * fams[1].entries)
        assert not extremal_check(gram_factor(mix)).extremal


def _svd_span(eta):
    """Reference span count: numerical rank of the D x r^2 stack of flattened projectors."""
    rows = np.array([np.outer(v, v.conj()).reshape(-1) for v in eta.vectors])
    sv = np.linalg.svd(rows, compute_uv=False)
    return int((sv > 1e-8 * sv[0]).sum())


def _random_eta(rng, dim, rank):
    v = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    return from_eta(v / np.linalg.norm(v, axis=1)[:, None])


_SPAN_FAMILIES = {
    "canonical": canonical,
    "chessboard-real": lambda d: chessboard(0.5, d),
    "chessboard-complex": lambda d: chessboard(0.3 + 0.4j, d),
    "example4": lambda d: example4(3, d),
    "example5": example5,
    **{f"state-s{s}": (lambda d, s=s: state_generated([0.0] * s + [1.0], d)) for s in (0, 1, 3, 9)},
    **{
        f"random-rank{r}": (lambda d, r=r: _random_eta(np.random.default_rng(r), d, r))
        for r in (2, 3, 4, 5)
    },
}


@pytest.mark.parametrize("dim", [16, 64])
@pytest.mark.parametrize("family", list(_SPAN_FAMILIES))
def test_extremal_verdict_matches_svd_span(family, dim):
    eta = gram_factor(_SPAN_FAMILIES[family](dim))
    rep = extremal_check(eta)
    assert rep.rank == eta.rank and rep.required == eta.rank ** 2
    assert rep.extremal == (_svd_span(eta) == eta.rank ** 2)


def _dense_whitened_report(eta):
    """``(extremal, rank, span_dim)`` from the D x D matrix |Q Q^*|^2 of the complex QR."""
    q, _ = np.linalg.qr(eta.vectors)
    w = np.linalg.eigvalsh(np.abs(q @ q.conj().T) ** 2)
    span = int((w > EPS_RANK * w[-1]).sum())
    return span == eta.rank ** 2, eta.rank, span


@pytest.mark.parametrize("dim", [16, 64])
def test_extremal_check_matches_dense_whitened_span(dim):
    builds = {name: build(dim) for name, build in _SPAN_FAMILIES.items()}
    if dim == 64:  # ranks 7, 8 and 9: r^2 below, at and above D
        builds.update({f"example4-{n0}": example4(n0, dim) for n0 in (6, 7, 8)})
    routes = set()
    for name, m in builds.items():
        eta = gram_factor(m)
        rep = extremal_check(eta)
        assert (rep.extremal, rep.rank, rep.span_dim) == _dense_whitened_report(eta), name
        routes.add((rep.rank ** 2 > dim) - (rep.rank ** 2 < dim))
    assert routes == {-1, 0, 1}  # r^2 below, at and above D


@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("eps2", [1e-5, 1e-7])
def test_extremal_near_degenerate_complex_family(rank, eps2):
    """Rows (1, eps z_n) normalised: C's kept eigenvalues spread by eps^2.

    The raw |C|^2 Gram matrix spreads them by eps^4, below EPS_RANK, and
    would call these families not extremal.
    """
    rng = np.random.default_rng(17)
    z = rng.normal(size=(32, rank - 1)) + 1j * rng.normal(size=(32, rank - 1))
    v = np.hstack([np.ones((32, 1)), math.sqrt(eps2) * z])
    eta = gram_factor(from_eta(v / np.linalg.norm(v, axis=1)[:, None]))
    rep = extremal_check(eta)
    assert rep.rank == rank and rep.span_dim == rank ** 2 and rep.extremal
    assert _svd_span(eta) == rank ** 2


@pytest.mark.parametrize(
    "matrix",
    [
        chessboard(0.5, 24).entries,
        example4(3, 24).entries,
        state_generated([1.0], 24).entries,
        state_generated([0.3, 0.3, 0.4], 48).entries,
        *(_random_eta(np.random.default_rng(r), 24, r).entries.real for r in (3, 4)),
    ],
    ids=["chessboard", "example4", "vacuum", "mixture", "real-part-rank3", "real-part-rank4"],
)
def test_real_entries_span_at_most_symmetric_dimension(matrix):
    """Real projectors span only symmetric operators: span_dim <= r(r+1)/2 < r^2."""
    rep = extremal_check(gram_factor(PhaseMatrix(matrix)))
    assert rep.span_dim <= rep.rank * (rep.rank + 1) // 2
    assert not rep.extremal or rep.rank == 1


def test_real_shortcut_on_state_generated():
    for weights in ([1.0], [0.3, 0.3, 0.4]):
        cert = real_nonextremal_shortcut(state_generated(weights, 32))
        assert cert is not None
        assert cert.max_residual < 1e-10
        assert cert.rank > 1


def test_real_shortcut_skips_canonical_and_complex():
    assert real_nonextremal_shortcut(canonical(16)) is None
    assert real_nonextremal_shortcut(example5(16)) is None  # complex entries


def test_real_shortcut_witness_traces_vanish():
    m = chessboard(0.5, 12)
    cert = real_nonextremal_shortcut(m)
    assert cert is not None
    eta = gram_factor(m)
    for v in eta.vectors:
        val = np.trace(cert.operator @ np.outer(v, v.conj()))
        assert abs(val) < 1e-10


# --- state recovery --------------------------------------------------------------


def test_recover_point_mass():
    state = recover_state(state_generated([1.0], 32))
    assert state.weights[0] == pytest.approx(1.0, abs=1e-12)
    assert state.support_max == 0


def test_recover_random_mixtures_round_trip():
    rng = np.random.default_rng(17)
    for _ in range(5):
        w = random_diagonal_weights(rng)
        rec = recover_state(state_generated(w, 64), depth=12)
        padded = np.zeros(13)
        padded[: w.size] = w
        got = np.zeros(13)
        got[: rec.weights.size] = rec.weights
        assert np.abs(got - padded).max() < 1e-8


def test_recover_at_default_depth_despite_tiny_denominators():
    # the deepest levels divide by super-exponentially small coefficients;
    # the propagated noise bound must keep them from spurious rejection
    rng = np.random.default_rng(23)
    w = random_diagonal_weights(rng)
    rec = recover_state(state_generated(w, 64))  # default depth 30
    got = np.zeros(31)
    got[: rec.weights.size] = rec.weights
    padded = np.zeros(31)
    padded[: w.size] = w
    assert np.abs(got - padded).max() < 1e-10


def test_recover_depth_out_of_range_is_an_input_error():
    # neither bound is a verdict about the matrix: both raise ValueError
    m = state_generated([1.0], 8)
    for depth, message in ((-1, "depth must be non-negative, got -1"),
                           (3, "depth 3 needs dimension > 8")):
        with pytest.raises(ValueError, match=message) as exc:
            recover_state(m, depth=depth)
        assert not isinstance(exc.value, NotStateGeneratedError)


def test_recover_canonical_is_rejected():
    with pytest.raises(NotStateGeneratedError):
        recover_state(canonical(32))


def test_recover_chessboard_is_rejected():
    with pytest.raises(NotStateGeneratedError):
        recover_state(chessboard(0.5, 32))


# --- postprocessing classes -------------------------------------------------------


def test_postclass_translate_recovers_x():
    m = canonical(64)
    x = unit(0.7)
    got = post_equiv_class(m, translate(m, x))
    assert got is not None
    assert abs(got - x) < 1e-10


def test_postclass_translate_of_state_generated():
    m = state_generated([1.0], 128)
    x = unit(-1.1)
    got = post_equiv_class(m, translate(m, x))
    assert got is not None
    assert abs(got - x) < 1e-10


def test_postclass_canonical_vs_state_generated_is_none():
    assert post_equiv_class(canonical(128), state_generated([1.0], 128)) is None


def test_postclass_distinct_state_generated_is_none():
    m1 = state_generated([0.7, 0.3], 128)
    m2 = state_generated([0.3, 0.7], 128)
    assert post_equiv_class(m1, m2) is None


def test_postclass_requires_sharp_inputs():
    with pytest.raises(CriterionInapplicableError):
        post_equiv_class(chessboard(0.0, 64), canonical(64))


@pytest.mark.parametrize("tol", [1.0, 2.0, math.nan])
def test_postclass_refuses_a_tol_that_reads_no_entry(tol):
    # at tol = 2 no entry exceeds tol, so the pair read as diagonal and x = 1 came back
    m = canonical(32)
    with pytest.raises(ValueError, match="equivalence tol must be below 1"):
        post_equiv_class(m, translate(m, 1j), tol=tol)
    assert abs(post_equiv_class(m, translate(m, 1j), tol=0.5) - 1j) < 1e-12


def test_postclass_example5_vs_canonical_is_none():
    assert post_equiv_class(canonical(64), example5(64)) is None


def test_block_tail_matrix_preclean_but_not_post_equivalent():
    # identity corner + all-ones tail: clean under preprocessing, yet in a
    # different postprocessing class than the all-ones matrix
    m = example4(3, 64)
    assert preclean_check(m) == 3
    assert approx_sharp_check(m).consistent
    assert post_equiv_class(canonical(64), m) is None


# --- canonical channel ------------------------------------------------------------


def test_canonical_channel_is_identity_for_canonical():
    chan = canonical_channel(canonical(8))
    rng = np.random.default_rng(4)
    rho = random_state(rng, 8)
    assert np.abs(chan(rho.entries) - rho.entries).max() == 0.0


def test_canonical_channel_dephases_for_trivial():
    trivial = PhaseMatrix(np.eye(6))
    chan = canonical_channel(trivial)
    rng = np.random.default_rng(8)
    rho = random_state(rng, 6)
    out = chan(rho.entries)
    assert np.abs(out - np.diag(np.diag(rho.entries))).max() < 1e-15


def test_canonical_channel_density_identity():
    rng = np.random.default_rng(12)
    mats = [
        canonical(24),
        chessboard(0.3 + 0.4j, 24),
        state_generated([0.6, 0.4], 24),
        example5(24),
    ]
    can = canonical(24)
    for m in mats:
        chan = canonical_channel(m)
        for _ in range(5):
            rho = random_state(rng, 24)
            _, d1 = density(m, rho, grid=128)
            _, d2 = density(can, DensityMatrix(chan(rho.entries)), grid=128)
            assert np.abs(d1 - d2).max() < 1e-10


def test_canonical_channel_preserves_state_properties():
    rng = np.random.default_rng(21)
    m = state_generated([0.5, 0.5], 12)
    chan = canonical_channel(m)
    for _ in range(100):
        rho = random_state(rng, 12)
        out = chan(rho.entries)
        assert abs(np.trace(out).real - 1.0) < 1e-12
        assert np.abs(out - out.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(out)[0] > -1e-10


# --- preprocessing ----------------------------------------------------------------


def test_preprocess_identity_spec_is_identity():
    m = example5(12)
    out = preprocess(m, identity_channel_spec(12))
    assert np.abs(out.entries - m.entries).max() <= 1e-12


def random_channel_spec(dim: int, rng, aux_dim: int = 2) -> CovariantChannelSpec:
    phi = rng.normal(size=(dim, dim, aux_dim)) + 1j * rng.normal(size=(dim, dim, aux_dim))
    norms = np.sqrt((np.abs(phi) ** 2).sum(axis=(1, 2)))
    return CovariantChannelSpec(phi / norms[:, None, None])


def test_channel_spec_refuses_nan_weight():
    phi = np.zeros((3, 3, 1), dtype=complex)
    phi[np.arange(3), np.arange(3), 0] = 1.0
    phi[1, 2, 0] = np.nan
    with pytest.raises(ValueError, match="unit total weight"):
        CovariantChannelSpec(phi)


def test_preprocess_random_spec_yields_valid_matrix():
    rng = np.random.default_rng(3)
    for _ in range(3):
        spec = random_channel_spec(10, rng)
        out = preprocess(canonical(10), spec)
        assert validate(out.entries).ok


def loop_specs(dim, n0, lam):
    """``identity_channel_spec`` and ``tail_recovery_spec`` as a loop over q, one scalar
    product per row."""
    ident = np.zeros((dim, dim, 1), dtype=np.complex128)
    tail = np.zeros((dim, dim, 1), dtype=np.complex128)
    for q in range(dim):
        ident[q, q, 0] = 1.0
        n = q + n0
        if n < dim:
            tail[q, n, 0] = np.conj(lam[n]) * lam[n0]
        else:
            tail[q, q, 0] = 1.0
    return ident, tail


@pytest.mark.parametrize("dim", [1, 8, 256])
def test_channel_specs_match_the_loop_form_bitwise(dim):
    rng = np.random.default_rng(dim)
    lam = np.exp(2j * np.pi * rng.random(dim))
    for n0 in sorted({0, 1 % dim, dim // 3, dim - 1}):
        ident, tail = loop_specs(dim, n0, lam)
        for got, want in ((identity_channel_spec(dim), ident),
                          (tail_recovery_spec(dim, n0, lam), tail)):
            assert np.array_equal(got.phi.view(np.uint64), want.view(np.uint64)), n0


def test_tail_recovery_spec_refuses_an_offset_or_phases_that_do_not_fit():
    lam = np.exp(1j * np.arange(8))
    for n0 in (-2, -1, 8, 11):
        with pytest.raises(ValueError, match=rf"n0 must lie in \[0, 8\), got {n0}"):
            tail_recovery_spec(8, n0, lam)
    for bad in (lam[:5], np.append(lam, 1.0), lam.reshape(2, 4)):
        message = f"lambdas must hold 8 phases, got shape {bad.shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            tail_recovery_spec(8, 2, bad)


def test_preprocess_tail_spec_recovers_canonical():
    rng = np.random.default_rng(9)
    d, n0 = 24, 3
    lam = np.exp(2j * np.pi * rng.random(d))
    c = np.eye(d, dtype=complex)
    c[n0:, n0:] = np.outer(lam[n0:].conj(), lam[n0:])
    m = PhaseMatrix(c)
    out = preprocess(m, tail_recovery_spec(d, n0, lam))
    bulk = out.entries[: d - n0, : d - n0]
    assert np.abs(bulk - 1.0).max() < 1e-12


# --- preprocessing cleanness -------------------------------------------------------


def test_preclean_canonical_is_zero():
    assert preclean_check(canonical(32)) == 0


def test_preclean_example4():
    assert preclean_check(example4(3, 64)) == 3


def test_preclean_example5():
    n0 = preclean_check(example5(64))
    assert n0 is not None and n0 <= 4


def test_preclean_translated_canonical():
    assert preclean_check(translate(canonical(32), unit(1.0))) == 0


def test_preclean_state_generated_negative():
    assert preclean_check(state_generated([1.0], 128)) is None


def test_preclean_smeared_negative():
    nu = CircleMeasure(atoms=((unit(0.2), 0.5), (unit(-0.2), 0.5)))
    assert preclean_check(smear(canonical(32), nu)) is None


def counting_eigvalsh(monkeypatch) -> list:
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    return calls


@pytest.mark.parametrize("dim", [64, 256])
def test_preclean_rank_one_tails_need_no_eigvalsh(monkeypatch, dim):
    mats = {
        "canonical": canonical(dim),
        "example4": example4(5, dim),
        "example5": example5(dim),
        "translate canonical": translate(canonical(dim), unit(0.7)),
    }
    want = {name: _reference_preclean_check(m, 1e-6) for name, m in mats.items()}
    calls = counting_eigvalsh(monkeypatch)
    for name, m in mats.items():
        assert preclean_check(m) == want[name] == {"example4": 5, "example5": 4}.get(name, 0)
    assert calls == []


def test_preclean_tail_whose_rank_one_bound_fails_takes_one_eigvalsh(monkeypatch):
    """T = (1 + delta) lam lam^* - delta I has unit diagonal, moduli 1 + delta and least
    eigenvalue -delta, within EPS_PSD: at tol = 0 its residual after the first column,
    about delta k, is past the bound 1e-10, so eigvalsh decides, and reads n0 = 0."""
    dim, delta = 64, 5e-11
    lam = np.exp(2j * np.pi * np.random.default_rng(7).random(dim))
    m = PhaseMatrix((1 + delta) * np.outer(lam, lam.conj()) - delta * np.eye(dim))
    want = _reference_preclean_check(m, 0.0)
    calls = counting_eigvalsh(monkeypatch)
    assert preclean_check(m, tol=0.0) == want == 0
    assert calls == [(dim, dim)]


@pytest.mark.parametrize("dim", [8, 16, 24, 32])
def test_preclean_tail_bound_holds_against_the_40_digit_spectrum(dim):
    """The bound preclean_check decides by: every 40-digit eigenvalue of the stored tail but
    the top lies within the e of _weyl_spectrum(tail, tail[:, :1]) of 0, and the top within e
    of the rank-one factor's."""
    mats = {
        "canonical": canonical(dim),
        "example4": example4(3, dim),
        "example5": example5(dim),
        "translate canonical": translate(canonical(dim), unit(0.7)),
    }
    for name, m in mats.items():
        n0 = preclean_check(m)
        assert n0 == {"example4": 3, "example5": 4}.get(name, 0), name
        tail = _lapack_operand(m.entries[n0:, n0:])
        w, _, e = _weyl_spectrum(tail, tail[:, :1])
        lam = mp_spectrum(tail)
        assert max(abs(x) for x in lam[:-1]) <= e, name
        assert abs(lam[-1] - w[0]) <= e, name


@pytest.mark.parametrize("tol", [1.0, 3.0, math.nan])
def test_preclean_refuses_a_tol_that_passes_every_modulus(tol):
    for m in (canonical(16), state_generated([1.0], 16)):
        with pytest.raises(ValueError, match="preclean tol must be below 1"):
            preclean_check(m, tol=tol)


# --- norm convexity (proof inequality, literal form) -------------------------------


def test_effect_norm_convexity_inequality():
    m1 = canonical(16)
    m2 = chessboard(0.0, 16)
    arcs = [Arc.interval(0.8 * i, 0.6) for i in range(5)] + [Arc.half()]
    for alpha in (0.3, 0.5):
        mix = PhaseMatrix(alpha * m1.entries + (1 - alpha) * m2.entries)
        for arc in arcs:
            lhs = effect_norm(mix, arc)
            rhs = alpha * effect_norm(m1, arc) + (1 - alpha) * effect_norm(m2, arc)
            assert lhs <= rhs + 1e-10


# --- property tests ----------------------------------------------------------------


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.floats(min_value=-math.pi, max_value=math.pi))
def test_smear_dirac_translate_property(angle):
    m = chessboard(0.5, 8)
    x = unit(angle)
    assert np.abs(smear(m, CircleMeasure.dirac(x)).entries - translate(m, x).entries).max() <= 1e-12


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=6))
def test_preclean_example4_any_offset(n0):
    assert preclean_check(example4(n0, 32)) == n0
