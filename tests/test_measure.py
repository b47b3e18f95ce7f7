"""Arcs, effects, densities, probabilities and the quadrature oracle."""

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.special import eval_genlaguerre

from phaseopt.measure import (
    _PURE_PSD_BOUND,
    TWO_PI,
    Arc,
    CoherentVector,
    DensityMatrix,
    DiagonalState,
    _centred_arc_table,
    _fourier_arc_table,
    _oracle_window,
    density,
    effect_norm,
    effect_operator,
    et_quadrature_oracle,
    fourier_arc,
    number_unitary,
    prob,
)
from phaseopt.phase_matrix import (
    EPS_PSD, _lapack_operand, _toeplitz, canonical, chessboard, example4, example5,
    state_generated)
from phaseopt.specfun import c_state, displacement_element


def unit(angle):
    return complex(math.cos(angle), math.sin(angle))


def unwrapped(arc):
    """The arc's components as sorted non-wrapping intervals inside [0, 2pi)."""
    out = []
    for start, length in arc.components:
        end = start + length
        if end <= TWO_PI + 1e-15:
            out.append((start, end))
        else:
            out += [(start, TWO_PI), (0.0, end - TWO_PI)]
    return sorted(out)


def arc_complement(arc):
    """The arc of the angles outside ``arc``."""
    merged = []
    for a, b in unwrapped(arc):
        if merged and a <= merged[-1][1] + 1e-15:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    gaps = [(b0, a1 - b0) for (_, b0), (a1, _) in zip(merged, merged[1:]) if a1 - b0 > 1e-15]
    wrap = TWO_PI - merged[-1][1] + merged[0][0]
    if wrap > 1e-15:
        gaps.append((merged[-1][1] % TWO_PI, wrap))
    return Arc(tuple(gaps))


def arc_contains(arc, theta):
    t = theta % TWO_PI
    return any(a <= t < b for a, b in unwrapped(arc))


def arc_measure(arc):
    """Normalized length (Haar measure) of the arc."""
    return sum(length for _, length in arc.components) / TWO_PI


def arc_rotated(arc, phi):
    return Arc(tuple((s + phi, length) for s, length in arc.components))


def number_state_rho(s, dim):
    """The density matrix of the number state |s>."""
    rho = np.zeros((dim, dim), dtype=np.complex128)
    rho[s, s] = 1.0
    return DensityMatrix(rho)


# --- arcs ---------------------------------------------------------------------


def test_arc_normalizes_start():
    a = Arc.interval(-1.0, 0.5)
    assert a.components[0][0] == pytest.approx(TWO_PI - 1.0)


def test_arc_rejects_overlap_and_overflow():
    with pytest.raises(ValueError):
        Arc(((0.0, 1.0), (0.5, 1.0)))
    with pytest.raises(ValueError):
        Arc(((0.0, 5.0), (5.0, 5.0)))
    # a non-finite start is named, not read as an overlap
    for start in (math.nan, math.inf, -math.inf):
        for comps in (((start, 1.0),), ((0.0, 1.0), (start, 0.5))):
            with pytest.raises(ValueError, match=f"arc start {start} is not finite"):
                Arc(comps)


def test_arc_complement_partitions_circle():
    a = Arc(((0.5, 1.0), (3.0, 0.7)))
    b = arc_complement(a)
    assert arc_measure(a) + arc_measure(b) == pytest.approx(1.0, abs=1e-14)
    for theta in np.linspace(0, TWO_PI, 37, endpoint=False):
        assert arc_contains(a, theta) != arc_contains(b, theta)


def test_arc_wrapping_component():
    a = Arc.interval(TWO_PI - 0.5, 1.0)
    assert arc_contains(a, 0.2) and arc_contains(a, TWO_PI - 0.2)
    assert not arc_contains(a, 1.0)
    assert arc_measure(a) == pytest.approx(1.0 / TWO_PI)


# --- fourier_arc ----------------------------------------------------------------


def test_fourier_full_circle():
    full = Arc.full()
    assert fourier_arc(full, 0) == pytest.approx(1.0)
    for k in (1, -1, 5):
        assert abs(fourier_arc(full, k)) < 1e-15


def test_fourier_half_circle_frozen_value():
    assert fourier_arc(Arc.half(), 1) == pytest.approx(1j / math.pi, abs=1e-15)


def test_fourier_conjugate_symmetry_and_additivity():
    a = Arc.interval(0.3, 1.1)
    b = arc_complement(a)
    for k in range(-6, 7):
        assert fourier_arc(a, k) == pytest.approx(np.conj(fourier_arc(a, -k)), abs=1e-14)
        total = fourier_arc(a, k) + fourier_arc(b, k)
        expected = 1.0 if k == 0 else 0.0
        assert total == pytest.approx(expected, abs=1e-14)


def test_fourier_quadrature_cross_check():
    a = Arc(((0.2, 0.9), (4.0, 1.3)))
    thetas = np.linspace(0, TWO_PI, 200001, endpoint=False)
    inside = np.array([arc_contains(a, t) for t in thetas])
    for k in (0, 1, 3):
        riemann = np.exp(1j * k * thetas[inside]).sum() / thetas.size
        assert fourier_arc(a, k) == pytest.approx(riemann, abs=1e-4)


# --- effect operators -----------------------------------------------------------


def test_effect_full_circle_is_identity():
    for m in (canonical(6), example5(6), state_generated([1.0], 6)):
        e = effect_operator(m, Arc.full())
        assert np.abs(e - np.eye(6)).max() < 1e-14


def test_effect_half_circle_canonical2():
    e = effect_operator(canonical(2), Arc.half())
    expected = np.array([[0.5, -1j / math.pi], [1j / math.pi, 0.5]])
    assert np.abs(e - expected).max() < 1e-15


def test_effect_complement_identity():
    m = chessboard(0.4 + 0.2j, 7)
    x = Arc(((0.5, 1.2), (4.4, 0.4)))
    total = effect_operator(m, x) + effect_operator(m, arc_complement(x))
    assert np.abs(total - np.eye(7)).max() < 1e-13


def test_effect_monotone_in_the_outcome_set():
    m = state_generated([0.7, 0.3], 10)
    small = Arc.interval(0.0, 1.0)
    big = Arc.interval(0.0, 2.5)
    diff = effect_operator(m, big) - effect_operator(m, small)
    assert np.linalg.eigvalsh(diff)[0] > -1e-10


def test_effect_covariance_under_number_rotation():
    m = example5(9)
    x = Arc.interval(0.7, 1.4)
    for t in np.exp(2j * np.pi * np.arange(16) / 16):
        u = number_unitary(t, 9)
        rotated = u @ effect_operator(m, x) @ u.conj().T
        shifted = effect_operator(m, arc_rotated(x, float(np.angle(t))))
        assert np.abs(rotated - shifted).max() < 1e-10


def test_effect_norm_basics():
    m = canonical(12)
    assert effect_norm(m, Arc.full()) == pytest.approx(1.0, abs=1e-12)
    tiny = effect_norm(m, Arc.interval(0.0, 1e-9))
    assert tiny < 1e-8
    a = effect_norm(m, Arc.interval(0.0, 1.0))
    b = effect_norm(m, Arc.interval(0.0, 2.0))
    assert a <= b <= 1.0 + 1e-10


_NORM_FAMILIES = {
    "state": lambda d: state_generated([0.5, 0.0, 0.3, 0.2], d),
    "canonical": canonical,
    "chessboard-real": lambda d: chessboard(0.5, d),
    "chessboard-complex": lambda d: chessboard(0.3 + 0.4j, d),
    "example4": lambda d: example4(min(3, d - 1), d),
    "example5": example5,
}
_NORM_ARCS = (
    Arc.interval(1.0, 2.0),
    Arc.interval(5.9, 1.0),  # wraps past 2pi
    Arc(((0.2, 0.9), (4.0, 1.3))),
    Arc(((6.0, 0.5), (1.0, 0.3), (3.0, 2.0))),  # three components, the first wraps
    Arc.full(),
)


@pytest.mark.parametrize("dim", [2, 3, 17, 64, 256])
def test_effect_norm_matches_eigvalsh_of_effect_operator(dim):
    for name, build in _NORM_FAMILIES.items():
        m = build(dim)
        for arc in _NORM_ARCS:
            want = np.linalg.eigvalsh(effect_operator(m, arc))[-1]
            assert abs(effect_norm(m, arc) - want) <= 1e-13, (name, arc)


def test_centred_arc_table_of_one_component_is_real():
    ks = np.arange(-255, 256)
    for arc in (Arc.interval(1.0, 2.0), Arc.interval(5.9, 1.0), Arc.half(), Arc.full()):
        table = _centred_arc_table(arc, ks)
        assert np.all(np.imag(table) == 0), arc
        start, length = arc.components[0]
        rotated = _fourier_arc_table(arc, ks) * np.exp(-1j * ks * (start + 0.5 * length))
        assert np.abs(table - rotated).max() < 1e-14, arc
        # so the effect of a real-entried matrix is handed to real LAPACK
        assert np.isrealobj(_lapack_operand(canonical(256).entries * _toeplitz(table)))
    two = _centred_arc_table(Arc(((0.2, 0.9), (4.0, 1.3))), ks)
    assert np.abs(two.imag).max() > 0.1


def test_effect_norm_increases_with_truncation():
    norms = [effect_norm(canonical(d), Arc.half()) for d in (4, 8, 16)]
    assert norms[0] < norms[1] < norms[2] <= 1.0 + 1e-12


# --- states ---------------------------------------------------------------------


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(3))  # trace 3
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]))
    rho = DensityMatrix(np.diag([0.5, 0.5]))
    assert rho.dim == 2


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_density_matrix_refuses_nonfinite_entries(bad):
    rho = np.diag([0.5, 0.5]).astype(complex)
    rho[1, 0] = bad
    with pytest.raises(ValueError, match="state entries must be finite"):
        DensityMatrix(rho)


def test_diagonal_state_support():
    s = DiagonalState([0.0, 0.25, 0.75, 0.0])
    assert s.support_max == 2
    assert DiagonalState([0.0, 0.0, 0.0, 1.0]).support_max == 3
    with pytest.raises(ValueError):
        DiagonalState([0.7, 0.7])


@pytest.mark.parametrize(
    "weights", [[math.nan, 1.0], [math.nan], [0.5, math.inf], [], [-0.5, 1.5], [0.5, 0.4]]
)
def test_diagonal_state_refuses_non_probability_weights(weights):
    with pytest.raises(ValueError, match="weights must be a probability vector"):
        DiagonalState(weights)


def test_coherent_vector_truncation_guard():
    for z in (1.0, 2.5, 4.0 + 1.0j):
        dim = math.ceil(abs(z) ** 2 + 8 * abs(z) + 16)
        cv = CoherentVector(z, dim)
        assert cv.fidelity >= 1.0 - 1e-8
        assert np.linalg.norm(cv.amplitudes) == pytest.approx(1.0, abs=1e-13)


def test_coherent_vector_matches_exact_amplitudes():
    z = 1.3 - 0.4j
    cv = CoherentVector(z, 24)
    direct = np.array(
        [
            math.exp(-abs(z) ** 2 / 2) * z ** n / math.sqrt(math.factorial(n))
            for n in range(24)
        ]
    )
    direct /= np.linalg.norm(direct)
    assert np.abs(cv.amplitudes - direct).max() < 1e-12


@pytest.mark.parametrize("z", [math.nan, complex(1.0, math.inf), -math.inf])
def test_coherent_vector_refuses_nonfinite_amplitude(z, recwarn):
    with pytest.raises(ValueError, match="coherent amplitude must be finite"):
        CoherentVector(z, 8)
    assert not recwarn.list


@pytest.mark.parametrize("z, dim", [(40.0, 8), (30.0j, 4), (1e200, 16)])
def test_coherent_vector_refuses_a_weightless_truncation(z, dim, recwarn):
    with pytest.raises(ValueError, match="levels underflows to 0"):
        CoherentVector(z, dim)
    assert not recwarn.list


def unfloored_coherent(z, dim):
    """The coherent state with every amplitude kept, subnormal products included."""
    n = np.arange(dim)
    log_mod = -0.5 * abs(z) ** 2 + n * math.log(abs(z)) - 0.5 * np.array(
        [math.lgamma(k + 1.0) for k in range(dim)]
    )
    amps = np.exp(log_mod) * np.exp(1j * n * np.angle(z))
    return DensityMatrix.from_pure(amps / math.sqrt(float(np.exp(2 * log_mod).sum())))


def has_subnormal(entries) -> bool:
    return any(
        ((part != 0) & (np.abs(part) < np.finfo(float).tiny)).any()
        for part in (entries.real, entries.imag)
    )


# at D = 256 the unfloored states of |z| <= 1 hold subnormal products; that of 2.5 + 1j does not
@pytest.mark.parametrize("z, unfloored_subnormal", [(0.5, True), (1.0, True), (2.5 + 1.0j, False)])
def test_coherent_density_matrix_holds_no_subnormal_entry(z, unfloored_subnormal):
    assert not has_subnormal(CoherentVector(z, 256).density_matrix().entries)
    assert has_subnormal(unfloored_coherent(z, 256).entries) is unfloored_subnormal


@pytest.mark.parametrize("dim", [64, 256])
@pytest.mark.parametrize("z", [0.5, 1.0, 2.5 + 1.0j])
def test_amplitude_floor_leaves_density_bitwise(dim, z):
    floored = CoherentVector(z, dim).density_matrix()
    reference = unfloored_coherent(z, dim)
    for m in (state_generated([0.3, 0.7], dim), canonical(dim), chessboard(0.3 + 0.4j, dim)):
        for grid in (16, 512, 720):
            got, want = density(m, floored, grid)[1], density(m, reference, grid)[1]
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (grid, m)


def counting_cholesky(monkeypatch) -> list:
    calls = []
    cholesky = np.linalg.cholesky

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return cholesky(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    return calls


@pytest.mark.parametrize("dim", [64, 256, 512])
@pytest.mark.parametrize("z", [0.7 - 0.2j, 2.0 + 1.5j, -3.0j, 4.5 * unit(2.0)])
def test_pure_state_certified_by_construction_keeps_its_entries(monkeypatch, dim, z):
    """from_pure proves PSD from the rounding bound, not by a Cholesky factorization; its
    entries are those the constructor, which factors, stores from the same outer product."""
    assert _PURE_PSD_BOUND < EPS_PSD
    calls = counting_cholesky(monkeypatch)
    cv = CoherentVector(z, dim)
    rho = cv.density_matrix()
    assert calls == []
    v = cv.amplitudes / np.linalg.norm(cv.amplitudes)
    old = DensityMatrix(np.outer(v, v.conj()))
    assert calls == [(dim, dim)]
    assert np.array_equal(rho.entries.view(np.uint64), old.entries.view(np.uint64))
    assert not rho.entries.flags.writeable
    # the bound holds for the stored matrix; eigvalsh adds its own backward error, D u ||rho||
    assert np.linalg.eigvalsh(rho.entries)[0] >= -_PURE_PSD_BOUND - dim * np.finfo(float).eps


def test_pure_state_keeps_its_other_checks():
    for vec in (np.zeros(4), [1.0, np.inf]):  # normalized to NaN entries
        with pytest.raises(ValueError, match="state entries must be finite"):
            with np.errstate(invalid="ignore"):
                DensityMatrix.from_pure(vec)
    # a state from user entries is still factored
    with pytest.raises(ValueError, match="state is not positive semidefinite"):
        DensityMatrix(np.array([[0.5, 0.9], [0.9, 0.5]]))


# --- density and prob ------------------------------------------------------------


def test_density_number_state_is_uniform():
    m = state_generated([0.2, 0.8], 12)
    rho = number_state_rho(3, 12)
    _, vals = density(m, rho, grid=64)
    assert np.abs(vals - 1.0 / TWO_PI).max() < 1e-14


def test_density_maximally_mixed_is_uniform():
    m = example5(10)
    rho = DensityMatrix(np.eye(10) / 10)
    _, vals = density(m, rho, grid=64)
    assert np.abs(vals - 1.0 / TWO_PI).max() < 1e-14


def test_density_normalization_and_floor():
    m = chessboard(0.6, 16)
    rng = np.random.default_rng(2)
    g = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    rho = DensityMatrix((g @ g.conj().T) / np.trace(g @ g.conj().T).real)
    thetas, vals = density(m, rho, grid=512)
    assert vals.min() > -1e-10
    assert vals.sum() * (TWO_PI / 512) == pytest.approx(1.0, abs=1e-8)


def test_density_coherent_concentrates_at_the_phase():
    z = 4.0 * unit(1.0)
    m = canonical(64)
    rho = CoherentVector(z, 64).density_matrix()
    thetas, vals = density(m, rho, grid=720)
    assert abs(thetas[int(vals.argmax())] - 1.0) < 0.05


def _direct_density(matrix, rho, grid):
    """The outcome density as a direct trig sum over a grid x (2D - 1) table."""
    d = matrix.dim
    a = matrix.entries * rho.entries.T
    modes = np.array([np.trace(a, offset=-k) for k in range(-(d - 1), d)])
    thetas = np.linspace(0.0, TWO_PI, grid, endpoint=False)
    ks = np.arange(-(d - 1), d)
    return thetas, (np.exp(1j * np.outer(thetas, ks)) @ modes).real / TWO_PI


@pytest.mark.parametrize("dim", (2, 64, 256))
def test_density_matches_direct_trig_sum(dim):
    """The folded FFT agrees with the direct sum, also where the grid (16) is below 2D - 1."""
    rng = np.random.default_rng(600 + dim)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mixed = DensityMatrix((g @ g.conj().T) / np.trace(g @ g.conj().T).real)
    coherent = CoherentVector(1.5 * unit(0.7), dim).density_matrix()
    for m in (state_generated([0.3, 0.7], dim), chessboard(0.3 + 0.4j, dim), example5(dim)):
        for rho in (mixed, coherent):
            for grid in (16, 512, 720, 4096):
                thetas, vals = density(m, rho, grid)
                want_thetas, want = _direct_density(m, rho, grid)
                assert np.array_equal(thetas, want_thetas)
                assert np.abs(vals - want).max() <= 1e-13, (grid, np.abs(vals - want).max())


def test_prob_full_circle_and_additivity():
    m = state_generated([0.5, 0.5], 10)
    rho = number_state_rho(1, 10)
    assert prob(m, rho, Arc.full()) == pytest.approx(1.0, abs=1e-12)
    parts = [Arc.interval(2 * np.pi * i / 8, 2 * np.pi / 8) for i in range(8)]
    assert sum(prob(m, rho, p) for p in parts) == pytest.approx(1.0, abs=1e-10)


def test_prob_number_state_gives_arc_measure():
    m = example5(9)
    rho = number_state_rho(2, 9)
    for arc in (Arc.half(), Arc.interval(1.0, 0.7)):
        assert prob(m, rho, arc) == pytest.approx(arc_measure(arc), abs=1e-12)


def test_density_integral_agrees_with_prob():
    m = state_generated([0.8, 0.2], 14)
    cv = CoherentVector(1.0 + 1.0j, 14)
    rho = cv.density_matrix()
    arc = Arc.interval(0.4, 1.1)
    grid = 4096
    thetas, vals = density(m, rho, grid)
    inside = np.array([arc_contains(arc, t) for t in thetas])
    riemann = vals[inside].sum() * (TWO_PI / grid)
    assert riemann == pytest.approx(prob(m, rho, arc), abs=1e-3)


def test_prob_covariance_under_state_rotation():
    m = state_generated([1.0], 12)
    cv = CoherentVector(1.5, 12)
    arc = Arc.interval(0.3, 1.0)
    for t in np.exp(2j * np.pi * np.arange(8) / 8):
        u = number_unitary(t, 12)
        rho_rot = DensityMatrix(u @ cv.density_matrix().entries @ u.conj().T)
        p1 = prob(m, rho_rot, arc_rotated(arc, float(np.angle(t))))
        p2 = prob(m, cv.density_matrix(), arc)
        assert p1 == pytest.approx(p2, abs=1e-12)


# --- quadrature oracle ------------------------------------------------------------


def test_oracle_full_circle_is_identity():
    approx = et_quadrature_oracle(DiagonalState([1.0]), Arc.full(), 8)
    assert np.abs(approx - np.eye(8)).max() < 1e-4


def test_oracle_window_keeps_the_small_default():
    # the floor keeps the window of the README request, (10, 160), at D = 12 and level 0
    assert _oracle_window(12, 0) == (10.0, 160)
    assert _oracle_window(512, 63) == (pytest.approx(36.54, abs=0.01), 585)
    assert et_quadrature_oracle(DiagonalState([1.0]), Arc.half(), 0).shape == (0, 0)


def test_oracle_matches_closed_form_on_half_circle():
    state = DiagonalState([1.0])
    approx = et_quadrature_oracle(state, Arc.half(), 8)
    exact = effect_operator(state_generated([1.0], 8), Arc.half())
    assert np.abs(approx - exact).max() < 1e-6


def test_oracle_mixture_matches_closed_form():
    state = DiagonalState([0.6, 0.4])
    arc = Arc.interval(0.5, 2.0)
    approx = et_quadrature_oracle(state, arc, 6)
    exact = effect_operator(state_generated(state.weights, 6), arc)
    assert np.abs(approx - exact).max() < 1e-6


def test_oracle_recovers_c02_from_quarter_arc():
    # E(X)[0, 2] = c[0, 2] * fourier_arc(X, -2); the quarter arc resolves it
    quarter = Arc.interval(0.0, math.pi / 2)
    approx = et_quadrature_oracle(DiagonalState([1.0]), quarter, 6)
    weight = fourier_arc(quarter, -2)
    recovered = approx[0, 2] / weight
    assert recovered == pytest.approx(c_state(0, 0, 2), abs=1e-6)


def scalar_displacement_element(m, n, z):
    """<m|D(z)|n> one element at a time, through the symmetry for m < n (the reference)."""
    z = complex(z)
    if m < n:
        return scalar_displacement_element(n, m, -z).conjugate()
    if z == 0:
        return 1.0 + 0.0j if m == n else 0.0j
    r2 = z.real * z.real + z.imag * z.imag
    alpha = m - n
    log_amp = 0.5 * (math.lgamma(n + 1) - math.lgamma(m + 1)) + 0.5 * alpha * math.log(r2) - 0.5 * r2
    phase = complex(math.cos(alpha * math.atan2(z.imag, z.real)),
                    math.sin(alpha * math.atan2(z.imag, z.real)))
    return math.exp(log_amp) * phase * float(eval_genlaguerre(n, alpha, r2))


def scalar_quadrature_oracle(state, arc, dim, r_max, quad_points):
    """The phase-space average as a two-variable scalar quadrature (the reference).

    Gauss-Legendre nodes in r and 2D + 1 of them in theta on each arc
    component, one displacement element per node, level and support level.
    """
    support = np.nonzero(state.weights)[0]
    x_r, w_r = leggauss(quad_points)
    radii = 0.5 * r_max * (x_r + 1.0)
    w_radii = 0.5 * r_max * w_r
    x_t, w_t = leggauss(2 * dim + 1)
    out = np.zeros((dim, dim), dtype=np.complex128)
    for start, length in arc.components:
        thetas = start + 0.5 * length * (x_t + 1.0)
        w_thetas = 0.5 * length * w_t
        for theta, wt in zip(thetas, w_thetas):
            phase = complex(math.cos(theta), math.sin(theta))
            for r, wr in zip(radii, w_radii):
                cols = np.array(
                    [[scalar_displacement_element(m, int(s), r * phase) for s in support]
                     for m in range(dim)]
                )
                block = (cols * state.weights[support]) @ cols.conj().T
                out += (wt * wr * r) * block
    return out / math.pi


def test_displacement_element_broadcasts_the_scalar_reference():
    m, n = np.arange(10)[:, None, None], np.arange(10)[None, :, None]
    zs = np.array([0.0, 0.3, -1.2 + 0.7j, 2.5j, -3.1 - 0.4j])
    table = displacement_element(m, n, zs)
    assert table.shape == (10, 10, zs.size)
    for i in range(10):
        for j in range(10):
            for k, z in enumerate(zs):
                want = scalar_displacement_element(i, j, z)
                assert abs(table[i, j, k] - want) < 1e-13 * max(1.0, abs(want)), (i, j, z)
    with pytest.raises(ValueError, match="nonnegative"):
        displacement_element(np.arange(-1, 3), 0, 1.0)


@pytest.mark.parametrize(
    "weights, arc, dim",
    [
        ([1.0], Arc.half(), 12),
        ([1.0], Arc.interval(0.0, math.pi / 2), 8),
        ([0.6, 0.4], Arc.interval(0.5, 2.0), 8),
        ([0.25, 0.0, 0.0, 0.75], Arc(((0.3, 1.0), (2.5, 1.5))), 10),
    ],
    ids=["half", "quarter", "interval", "two-components"],
)
def test_oracle_matches_the_scalar_quadrature(weights, arc, dim):
    # the full circle is left out: there the 2D + 1 angular nodes of the reference err by 6e-6
    state = DiagonalState(weights)
    approx = et_quadrature_oracle(state, arc, dim)
    window = _oracle_window(dim, state.support_max)
    assert np.abs(approx - scalar_quadrature_oracle(state, arc, dim, *window)).max() < 1e-13


def test_oracle_at_dimension_128_matches_closed_form():
    state = DiagonalState([0.25, 0.0, 0.0, 0.75])
    arc = Arc.interval(0.3, 2.0)
    approx = et_quadrature_oracle(state, arc, 128)
    exact = effect_operator(state_generated(state.weights, 128), arc)
    assert np.abs(approx - exact).max() < 1e-12
