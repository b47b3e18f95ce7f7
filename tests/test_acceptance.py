"""Acceptance suite: the fifteen exit criteria, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Tolerances are pinned here; the two calibrated-once values
(the half-circle norm floor and the sharpness trend tolerance) were
frozen from the first measurement run and are annotated inline.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from circle_measures import convolve
from phaseopt.measure import (
    Arc,
    CoherentVector,
    DensityMatrix,
    DiagonalState,
    density,
    effect_norm,
    effect_operator,
    et_quadrature_oracle,
    prob,
)
from phaseopt.groupsim import (
    _EPS_CHANNEL,
    CyclicRep,
    FiniteCovariantObservable,
    FiniteMeasure,
    convexity_check,
    covariantize,
    choi_matrix,
    is_channel,
    make_covariant,
    norm_bound_check,
    pre_norm_check,
    random_channel,
    smear_finite,
    unitary_channel,
)
from phaseopt.optimal import (
    CircleMeasure,
    NotStateGeneratedError,
    approx_sharp_check,
    canonical_channel,
    extremal_check,
    post_equiv_class,
    preclean_check,
    real_nonextremal_shortcut,
    recover_state,
    smear,
)
from phaseopt.phase_matrix import (
    PhaseMatrix,
    canonical,
    chessboard,
    example4,
    example5,
    gram_factor,
    state_generated,
    translate,
    u_equivalent,
)
from phaseopt.specfun import c_fock_0_2k, c_state


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d}: FAIL — {title}")
        raise
    print(f"criterion {number:02d}: PASS — {title}")


def unit(angle):
    return complex(math.cos(angle), math.sin(angle))


def random_weights(rng, levels):
    w = rng.random(levels)
    return w / w.sum()


def random_state_matrix(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return DensityMatrix(rho / rho.trace().real)


def test_criterion_01_exact_entry():
    with criterion(1, "c_state(0,0,2) = 1/sqrt(2) within 1e-12"):
        assert abs(c_state(0, 0, 2) - 1.0 / math.sqrt(2.0)) < 1e-12


def test_criterion_02_vanishing_pattern():
    with criterion(2, "c_state(s,0,2k) = 0 iff 0 < k <= s, for s,k <= 12"):
        for s in range(13):
            for k in range(13):
                val = c_state(s, 0, 2 * k)
                if 0 < k <= s:
                    assert val == 0.0, (s, k, val)
                else:
                    assert abs(val) > 1e-6, (s, k, val)


def test_criterion_03_closed_form_cross_check():
    with criterion(3, "c_fock_0_2k matches c_state within 1e-10 for s,k <= 12"):
        for s in range(13):
            for k in range(1, 13):
                assert abs(c_fock_0_2k(s, k) - c_state(s, 0, 2 * k)) < 1e-10


def test_criterion_04_quadrature_oracle():
    with criterion(4, "phase-space quadrature matches closed form (D=12, half arc)"):
        state = DiagonalState([1.0])
        approx = et_quadrature_oracle(state, Arc.half(), 12)
        exact = effect_operator(state_generated([1.0], 12), Arc.half())
        assert np.abs(approx - exact).max() < 1e-6


def test_criterion_05_state_recovery():
    with criterion(5, "25 random diagonal states recovered at D=64; canonical rejected"):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            w = random_weights(rng, 10)
            rec = recover_state(state_generated(w, 64))  # default depth
            size = max(rec.weights.size, w.size)
            padded = np.zeros(size)
            padded[: w.size] = w
            got = np.zeros(size)
            got[: rec.weights.size] = rec.weights
            assert np.abs(got - padded).max() < 1e-8
        with pytest.raises(NotStateGeneratedError):
            recover_state(canonical(64))


def test_criterion_06_extremality_verdicts():
    with criterion(6, "extremality: canonical, chessboard, example5, state-generated"):
        assert extremal_check(gram_factor(canonical(64))).extremal
        cb = chessboard(0.5, 64)
        assert not extremal_check(gram_factor(cb)).extremal
        cert = real_nonextremal_shortcut(cb)
        assert cert is not None and cert.max_residual < 1e-10
        rep5 = extremal_check(gram_factor(example5(64)))
        assert rep5.extremal and rep5.span_dim == 4
        rng = np.random.default_rng(99)
        for _ in range(5):
            w = random_weights(rng, 10)
            assert not extremal_check(gram_factor(state_generated(w, 64))).extremal


def test_criterion_07_channel_identity():
    with criterion(7, "density factors through the canonical channel (< 1e-10)"):
        rng = np.random.default_rng(7)
        dim = 32
        mats = [
            canonical(dim),
            chessboard(0.3 + 0.4j, dim),
            state_generated([1.0], dim),
            example4(3, dim),
            example5(dim),
        ]
        can = canonical(dim)
        states = [random_state_matrix(rng, dim) for _ in range(20)]
        for m in mats:
            chan = canonical_channel(m)
            for rho in states:
                _, d1 = density(m, rho, grid=256)
                _, d2 = density(can, DensityMatrix(chan(rho.entries)), grid=256)
                assert np.abs(d1 - d2).max() < 1e-10


def test_criterion_08_smearing_laws():
    with criterion(8, "Haar smear trivializes; Dirac smear translates; composition"):
        m = example5(32)
        haar = smear(m, CircleMeasure(density_coeffs=(1.0,)))
        assert np.abs(haar.entries - np.eye(32)).max() == 0.0
        x = unit(1.3)
        dirac = smear(m, CircleMeasure.dirac(x))
        assert np.abs(dirac.entries - translate(m, x).entries).max() <= 1e-12
        nu = CircleMeasure(atoms=((unit(0.4), 0.3), (unit(-0.7), 0.7)))
        mu = CircleMeasure(density_coeffs=(1.0, 0.25, 0.1j))
        twice = smear(smear(m, nu), mu)
        once = smear(m, convolve(nu, mu))
        assert np.abs(twice.entries - once.entries).max() < 1e-12


def test_criterion_09_postprocessing_classes():
    with criterion(9, "postprocessing classes: only translations are equivalent"):
        dim = 128
        can = canonical(dim)
        vac = state_generated([1.0], dim)
        assert post_equiv_class(can, vac) is None
        m1 = state_generated([0.7, 0.3], dim)
        m2 = state_generated([0.3, 0.7], dim)
        assert post_equiv_class(m1, m2) is None
        x = unit(0.9)
        got = post_equiv_class(vac, translate(vac, x))
        assert got is not None and abs(got - x) < 1e-10


def test_criterion_10_preprocessing_clean():
    with criterion(10, "preclean: example4 n0=3; state-generated negative; example5"):
        assert preclean_check(example4(3, 64)) == 3
        assert preclean_check(state_generated([1.0], 128)) is None
        n0 = preclean_check(example5(64))
        assert n0 is not None and n0 <= 4


def test_criterion_11_sharpness_trend():
    with criterion(11, "sharpness consistent with u=1 at D=256; chessboard(0) fails"):
        rng = np.random.default_rng(31)
        suite = [
            canonical(256),
            state_generated([1.0], 256),
            state_generated(np.eye(4)[3], 256),  # number state 3
            state_generated([0.25] * 4, 256),
            state_generated(random_weights(rng, 6), 256),
            state_generated(random_weights(rng, 10), 256),
        ]
        for m in suite:
            rep = approx_sharp_check(m)  # frozen: window 16, k_max 3, tol 0.2
            assert rep.consistent, rep
            assert abs(rep.estimated_u - 1.0) < 1e-9
            assert all(a >= b - 1e-12 for a, b in zip(rep.trend, rep.trend[1:]))
        assert approx_sharp_check(chessboard(0.0, 256)).verdict == "inconsistent"


def test_criterion_12_norm_convergence():
    with criterion(12, "canonical half-circle norm increases over D, >= 0.99 at 256"):
        norms = [effect_norm(canonical(d), Arc.half()) for d in (4, 16, 64, 256)]
        # increments between D=64 and D=256 sit below float64 resolution
        # (measured 1 - norm ~ 1e-15 at both), hence the 1e-13 noise floor
        for a, b in zip(norms, norms[1:]):
            assert b > a - 1e-13
        assert norms[0] < norms[1] < norms[2] + 1e-13
        assert norms[-1] >= 0.99
        assert max(norms) <= 1.0 + 1e-10


def test_criterion_13_coherent_concentration():
    with criterion(13, "coherent state z=5 concentrates: P(|theta|<0.5) > 0.9"):
        cv = CoherentVector(5.0, 150)
        assert cv.fidelity >= 1.0 - 1e-8
        arc = Arc.interval(-0.5, 1.0)
        p = prob(canonical(150), cv.density_matrix(), arc)
        assert p > 0.9


def test_criterion_14_u_equivalence():
    with criterion(14, "U-equivalence: non-equivalent pair detected; rescaling found"):
        z = 0.5
        for dim in (4, 8):
            c1 = np.eye(dim, dtype=complex)
            c1[0, 1], c1[1, 0] = z, z
            c2 = np.eye(dim, dtype=complex)
            c2[2, 3], c2[3, 2] = z, z
            assert u_equivalent(PhaseMatrix(c1), PhaseMatrix(c2)) is None
        rng = np.random.default_rng(14)
        m = example5(16)
        mu = np.exp(2j * np.pi * rng.random(16))
        scaled = PhaseMatrix(np.outer(mu.conj(), mu) * m.entries)
        lam = u_equivalent(scaled, m, tol=1e-10)
        assert lam is not None
        residual = scaled.entries - np.outer(lam.conj(), lam) * m.entries
        assert np.abs(residual).max() < 1e-10


def test_criterion_15_groupsim_suite():
    with criterion(15, "finite-group suite: covariance, bounds, mixing, channels"):
        rng = np.random.default_rng(15)

        # covariance + additivity on a random N=12, d=3 observable
        rep = CyclicRep(12, (0, 2, 5))
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        obs = make_covariant(rep, g @ g.conj().T + 0.1 * np.eye(3))
        for gg in range(12):
            u = rep.unitary(gg)
            for x in range(12):
                lhs = u @ obs.effect(x) @ u.conj().T
                assert np.abs(lhs - obs.effect((gg + x) % 12)).max() < 1e-12
        assert np.abs(obs.effect_set(range(12)) - np.eye(3)).max() < 1e-10

        # smearing norm bound, strict < 1 for non-Dirac measures on singletons
        nu = FiniteMeasure((0.5, 0.5) + (0.0,) * 10)
        for x in range(12):
            lhs, rhs = norm_bound_check(obs, nu, [x])
            assert lhs <= rhs + 1e-10
            assert rhs < 1.0 - 1e-9

        # convex-mix norm inequality over every subset of Z_12 (d=4)
        rep12 = CyclicRep(12, (0, 1, 2, 3))
        g1 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        g2 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        e1 = make_covariant(rep12, g1 @ g1.conj().T + 0.1 * np.eye(4))
        e2 = make_covariant(rep12, g2 @ g2.conj().T + 0.1 * np.eye(4))
        report = convexity_check(e1, e2, 0.4)
        assert report["subsets"] == 4095

        # covariantized channel: Choi PSD, covariance residual < 1e-10
        for drep, dd in ((rep, 3), (rep12, 4)):
            chan = random_channel(dd, rng)
            cov = covariantize(drep, chan)
            assert is_channel(cov) and _EPS_CHANNEL == 1e-10
            assert np.linalg.eigvalsh(choi_matrix(cov))[0] > -1e-10
            for gg in range(12):
                s = drep.state_action(gg)
                assert np.abs(s @ cov - cov @ s).max() < 1e-10

        # unitary preprocessing preserves every norm
        w = np.diag(np.exp(2j * np.pi * rng.random(3)))
        pre = FiniteCovariantObservable(rep, w.conj().T @ obs.seed @ w)
        rep_unitary = pre_norm_check(obs, pre, unitary_channel(w))
        assert rep_unitary["norm_equal_everywhere"]

        # smeared observables stay covariant
        sm = smear_finite(obs, nu)
        for gg in range(12):
            u = rep.unitary(gg)
            for x in range(12):
                lhs = u @ sm.effect(x) @ u.conj().T
                assert np.abs(lhs - sm.effect((gg + x) % 12)).max() < 1e-12
