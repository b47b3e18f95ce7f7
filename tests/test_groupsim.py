"""Finite cyclic-group model: covariance, smearing, channels, norm sweeps."""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from phaseopt import groupsim
from phaseopt.groupsim import (
    MAX_SWEEP_ORDER,
    CyclicRep,
    FiniteCovariantObservable,
    FiniteMeasure,
    _commutation_residual,
    _covariance_residual,
    adjoint_channel_matrix,
    apply_channel,
    choi_matrix,
    convexity_check,
    covariantize,
    depolarizing_channel,
    is_channel,
    kraus_to_superop,
    make_covariant,
    mix,
    norm_bound_check,
    pre_norm_check,
    random_channel,
    smear_finite,
    unitary_channel,
)


def convolve(nu: FiniteMeasure, mu: FiniteMeasure) -> FiniteMeasure:
    """The cyclic convolution nu * mu on Z_N."""
    n = nu.order
    out = [0.0] * n
    for a, wa in enumerate(nu.weights):
        for b, wb in enumerate(mu.weights):
            out[(a + b) % n] += wa * wb
    return FiniteMeasure(tuple(out))


def finite_canonical(n: int) -> FiniteCovariantObservable:
    rep = CyclicRep(n, tuple(range(n)))
    return make_covariant(rep, np.ones((n, n)) / n)


def random_observable(rng, n: int, d: int) -> FiniteCovariantObservable:
    rep = CyclicRep(n, tuple(int(w) for w in rng.integers(0, n, d)))
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return make_covariant(rep, g @ g.conj().T + 0.1 * np.eye(d))


# --- representation -----------------------------------------------------------


def test_rep_is_a_homomorphism():
    rep = CyclicRep(6, (0, 1, 3, 5))
    for g in range(6):
        for h in range(6):
            lhs = rep.unitary(g) @ rep.unitary(h)
            rhs = rep.unitary((g + h) % 6)
            assert np.abs(lhs - rhs).max() < 1e-12
    assert np.abs(rep.unitary(0) - np.eye(4)).max() == 0.0


def test_rep_refuses_weights_beyond_int64_arithmetic():
    # unitary() forms w * (g mod N) in int64; the largest weight that fits still works
    top = (2**63 - 1) // 5
    assert np.isfinite(CyclicRep(6, (0, top)).unitary(5)).all()
    for order, weights in ((6, (0, 1, 10**30)), (6, (0, top + 1)), (1, (-(2**63),))):
        with pytest.raises(ValueError, match=r"\|w\| \* max\(N - 1, 1\) < 2\*\*63"):
            CyclicRep(order, weights)


def test_rep_refuses_empty_weights():
    # make_covariant of such a representation raised IndexError at its least eigenvalue
    with pytest.raises(ValueError, match="^a representation needs at least one weight$"):
        CyclicRep(3, ())


def test_finite_measure_refuses_nan_and_empty_weights():
    for weights in ((math.nan, 1.0), (1.0, math.nan), (math.inf, -math.inf), (-math.inf, 1.0)):
        with pytest.raises(ValueError, match="measure weights"):
            FiniteMeasure(weights)
    with pytest.raises(ValueError, match="at least one weight"):
        FiniteMeasure(())
    assert FiniteMeasure((0.25, 0.75)).weights == (0.25, 0.75)
    # a weight may dip below 0 by the probability-vector slack, not further
    assert FiniteMeasure((1.0 + 5e-13, -5e-13)).weights == (1.0 + 5e-13, -5e-13)
    with pytest.raises(ValueError, match="measure weights must be nonnegative"):
        FiniteMeasure((1.0 + 2e-12, -2e-12))


# --- observables ----------------------------------------------------------------


def test_make_covariant_trivial_seed():
    rep = CyclicRep(5, (0, 1, 2))
    obs = make_covariant(rep, np.eye(3) / 5)
    for x in range(5):
        assert np.abs(obs.effect(x) - np.eye(3) / 5).max() < 1e-12


def test_finite_canonical_has_unit_singleton_norm():
    obs = finite_canonical(6)
    for x in range(6):
        assert obs.norm([x]) == pytest.approx(1.0, abs=1e-10)


def test_make_covariant_rejects_singular_average():
    rep = CyclicRep(4, (0, 1))
    seed = np.diag([1.0, 0.0])
    with pytest.raises(ValueError):
        make_covariant(rep, seed)


def test_observable_covariance_and_additivity():
    rng = np.random.default_rng(1)
    for _ in range(3):
        obs = random_observable(rng, 7, 3)
        n = obs.rep.order
        total = obs.effect_set(range(n))
        assert np.abs(total - np.eye(3)).max() < 1e-10
        for g in range(n):
            u = obs.rep.unitary(g)
            for x in range(n):
                lhs = u @ obs.effect(x) @ u.conj().T
                assert np.abs(lhs - obs.effect((g + x) % n)).max() < 1e-12


def test_norm_refuses_repeated_or_foreign_outcomes():
    obs = finite_canonical(4)
    # read mod 4, [0, 1, 2, 3, 0] would count {0} twice (a norm above 1) and [4] be {0}
    for subset in ([0, 1, 2, 3, 0], [4], [-1], [0.0], 2):
        with pytest.raises(ValueError, match="distinct outcomes 0..3"):
            obs.norm(subset)
    assert obs.norm([]) == 0.0
    assert obs.norm([3, 1]) == obs.norm([1, 3])


def test_effect_set_refuses_repeated_or_foreign_outcomes():
    obs = finite_canonical(4)
    for subset in ([0, 1, 2, 3, 0], [4], [-1], [0.0], 2):
        with pytest.raises(ValueError, match="distinct outcomes 0..3"):
            obs.effect_set(subset)
    assert not obs.effect_set([]).any()
    assert np.array_equal(obs.effect_set([2, 0]), obs.effect(2) + obs.effect(0))


def test_faithful_seed_gives_nonzero_effects():
    rng = np.random.default_rng(23)
    obs = random_observable(rng, 8, 3)
    for x in range(8):
        assert np.abs(obs.effect(x)).max() > 1e-12


# --- smearing -------------------------------------------------------------------


def test_smear_point_mass_translates():
    obs = finite_canonical(5)
    nu = FiniteMeasure((0.0, 0.0, 1.0, 0.0, 0.0))
    sm = smear_finite(obs, nu)
    for x in range(5):
        assert np.abs(sm.effect(x) - obs.effect((x - 2) % 5)).max() < 1e-12


def test_smear_identity_point_mass():
    obs = finite_canonical(5)
    sm = smear_finite(obs, FiniteMeasure((1.0, 0.0, 0.0, 0.0, 0.0)))
    for x in range(5):
        assert np.abs(sm.effect(x) - obs.effect(x)).max() < 1e-14


def test_smear_uniform_trivializes():
    rng = np.random.default_rng(3)
    obs = random_observable(rng, 6, 3)
    sm = smear_finite(obs, FiniteMeasure((1.0 / 6,) * 6))
    for x in range(6):
        assert np.abs(sm.effect(x) - np.eye(3) / 6).max() < 1e-12


def test_smear_composition_is_cyclic_convolution():
    rng = np.random.default_rng(5)
    obs = random_observable(rng, 6, 3)
    w1 = rng.random(6)
    nu = FiniteMeasure(tuple(w1 / w1.sum()))
    w2 = rng.random(6)
    mu = FiniteMeasure(tuple(w2 / w2.sum()))
    twice = smear_finite(smear_finite(obs, nu), mu)
    once = smear_finite(obs, convolve(nu, mu))
    for x in range(6):
        assert np.abs(twice.effect(x) - once.effect(x)).max() < 1e-12


def test_smear_covariance_preserved():
    rng = np.random.default_rng(7)
    obs = random_observable(rng, 6, 3)
    w = rng.random(6)
    sm = smear_finite(obs, FiniteMeasure(tuple(w / w.sum())))
    for g in range(6):
        u = obs.rep.unitary(g)
        for x in range(6):
            lhs = u @ sm.effect(x) @ u.conj().T
            assert np.abs(lhs - sm.effect((g + x) % 6)).max() < 1e-12


def test_norm_bound_dirac_and_two_point():
    obs = finite_canonical(6)
    lhs, rhs = norm_bound_check(obs, FiniteMeasure((0.0, 1.0, 0.0, 0.0, 0.0, 0.0)), [1])
    assert rhs == pytest.approx(1.0)
    nu = FiniteMeasure((0.5, 0.5, 0, 0, 0, 0))
    lhs, rhs = norm_bound_check(obs, nu, [0])
    assert rhs == pytest.approx(0.5)
    assert lhs <= 0.5 + 1e-10
    lhs, rhs = norm_bound_check(obs, FiniteMeasure((1.0 / 6,) * 6), [3])
    assert rhs == pytest.approx(1.0 / 6.0)


def test_norm_bound_strict_for_nondirac_on_singletons():
    rng = np.random.default_rng(11)
    obs = random_observable(rng, 8, 4)
    nu = FiniteMeasure((0.5, 0.5, 0, 0, 0, 0, 0, 0))
    for x in range(8):
        lhs, rhs = norm_bound_check(obs, nu, [x])
        assert rhs < 1.0 - 1e-9


def test_norm_bound_refuses_repeated_or_foreign_outcomes():
    obs = finite_canonical(6)
    nu = FiniteMeasure((0.5, 0.5, 0, 0, 0, 0))
    # mod 6 these are {0} counted three times, and {5}
    for subset in ([0, 6, 12], [0, 0], [-1], [6], [True], [1.0], 3, [[0]]):
        with pytest.raises(ValueError, match="distinct outcomes 0..5"):
            norm_bound_check(obs, nu, subset)
    assert groupsim.outcome_subset(np.arange(6)[::-1], 6) == (5, 4, 3, 2, 1, 0)
    assert norm_bound_check(obs, nu, []) == (0.0, 0)


# --- channels -------------------------------------------------------------------


def test_kraus_superop_application():
    rng = np.random.default_rng(2)
    k = [np.array([[1, 0], [0, 0]], dtype=complex), np.array([[0, 0], [0, 1]], dtype=complex)]
    sup = kraus_to_superop(k)
    rho = np.array([[0.5, 0.3], [0.3, 0.5]], dtype=complex)
    out = apply_channel(sup, rho)
    assert np.abs(out - np.diag([0.5, 0.5])).max() < 1e-14


def test_choi_of_identity_channel():
    sup = kraus_to_superop([np.eye(3)])
    choi = choi_matrix(sup)
    w = np.linalg.eigvalsh(choi)
    assert w[-1] == pytest.approx(3.0, abs=1e-12)
    assert np.abs(w[:-1]).max() < 1e-12
    assert is_channel(sup)


def test_is_channel_flags_non_tp_maps():
    bad = kraus_to_superop([0.5 * np.eye(2)])
    assert not is_channel(bad)


def test_random_channel_is_channel():
    rng = np.random.default_rng(13)
    for d in (2, 3):
        assert is_channel(random_channel(d, rng))


def test_adjoint_channel_duality():
    rng = np.random.default_rng(19)
    sup = random_channel(3, rng)
    adj = adjoint_channel_matrix(sup)
    rho = np.diag([0.2, 0.3, 0.5]).astype(complex)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a = a + a.conj().T
    lhs = np.trace(apply_channel(sup, rho) @ a)
    rhs = np.trace(rho @ apply_channel(adj, a))
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_covariantize_random_channel():
    rng = np.random.default_rng(29)
    rep = CyclicRep(5, (0, 1, 2))
    chan = random_channel(3, rng)
    cov = covariantize(rep, chan)
    assert is_channel(cov)
    for g in range(5):
        s = rep.state_action(g)
        assert np.abs(s @ cov - cov @ s).max() < 1e-10


def test_covariantize_fixes_covariant_channels():
    rep = CyclicRep(4, (0, 1, 2, 3))
    w = np.diag(np.exp(2j * np.pi * np.arange(4) / 7))
    chan = unitary_channel(w)  # diagonal unitary commutes with the action
    cov = covariantize(rep, chan)
    assert np.abs(cov - chan).max() < 1e-12


def test_covariantize_identity_is_identity():
    rep = CyclicRep(3, (0, 1, 2))
    ident = kraus_to_superop([np.eye(3)])
    assert np.abs(covariantize(rep, ident) - ident).max() < 1e-13


def test_covariantized_channel_maps_states_to_states():
    rng = np.random.default_rng(31)
    rep = CyclicRep(5, (0, 1, 4))
    cov = covariantize(rep, random_channel(3, rng))
    for _ in range(100):
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = g @ g.conj().T
        rho /= rho.trace()
        out = apply_channel(cov, rho)
        assert abs(np.trace(out).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(out)[0] > -1e-10


def test_covariantize_rejects_non_channels():
    rep = CyclicRep(3, (0, 1, 2))
    with pytest.raises(ValueError):
        covariantize(rep, np.eye(9) * 0.5)


def test_superoperators_that_are_not_square_in_the_dimension_are_refused():
    # is_channel raised numpy's reshape message, covariantize numpy's matmul message
    for shape in ((8, 8), (4, 9), (0, 0), (1, 4, 4), (16,)):
        want = f"superoperator must be d^2 x d^2 for some d >= 1, got shape {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            is_channel(np.zeros(shape))
    rep = CyclicRep(3, (0, 1, 2))
    for superop in (kraus_to_superop([np.eye(2)]), np.eye(8)):
        want = f"superoperator must be 9 x 9, got shape {superop.shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            covariantize(rep, superop)


# --- mixing -----------------------------------------------------------------------


def test_mix_endpoints_and_self():
    rng = np.random.default_rng(37)
    e1 = random_observable(rng, 6, 3)
    rep = e1.rep
    g = rng.normal(size=(3, 3))
    e2 = make_covariant(rep, g @ g.T + 0.2 * np.eye(3))
    m0 = mix(e1, e2, 0.0)
    for x in range(6):
        assert np.abs(m0.effect(x) - e2.effect(x)).max() < 1e-12
    m_self = mix(e1, e1, 0.5)
    for x in range(6):
        assert np.abs(m_self.effect(x) - e1.effect(x)).max() < 1e-12


def test_mix_rejects_rep_mismatch():
    e1 = finite_canonical(4)
    e2 = finite_canonical(5)
    with pytest.raises(ValueError):
        mix(e1, e2, 0.5)


def test_convexity_check_exhaustive_n8():
    rng = np.random.default_rng(41)
    rep = CyclicRep(8, tuple(range(4)) + (1, 2, 3, 0)[:0])  # weights 0..3
    g1 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    g2 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    e1 = make_covariant(rep, g1 @ g1.conj().T + 0.1 * np.eye(4))
    e2 = make_covariant(rep, g2 @ g2.conj().T + 0.1 * np.eye(4))
    report = convexity_check(e1, e2, 0.35)
    assert report["subsets"] == 2 ** 8 - 1
    assert report["worst_slack"] >= -1e-9


def test_convexity_saturation_inherited_on_canonical():
    obs = finite_canonical(6)
    report = convexity_check(obs, obs, 0.5)
    assert report["saturated"] > 0


# --- preprocessing ----------------------------------------------------------------


def test_pre_norm_identity_channel_equality():
    obs = finite_canonical(5)
    chan = kraus_to_superop([np.eye(5)])
    report = pre_norm_check(obs, obs, chan)
    assert report["norm_equal_everywhere"]


def test_pre_norm_unitary_equality():
    rng = np.random.default_rng(43)
    obs = random_observable(rng, 6, 3)
    w = np.diag(np.exp(2j * np.pi * rng.random(3)))
    chan = unitary_channel(w)
    pre = FiniteCovariantObservable(obs.rep, w.conj().T @ obs.seed @ w)
    report = pre_norm_check(obs, pre, chan)
    assert report["norm_equal_everywhere"]


def test_pre_norm_depolarizing_collapse():
    rng = np.random.default_rng(47)
    obs = random_observable(rng, 6, 3)
    chan = depolarizing_channel(3)
    seed = np.trace(obs.seed).real * np.eye(3) / 3
    pre = FiniteCovariantObservable(obs.rep, seed)
    report = pre_norm_check(obs, pre, chan)
    assert not report["norm_equal_everywhere"]
    expected = np.trace(obs.seed).real / 3
    assert pre.norm([0]) == pytest.approx(expected, abs=1e-12)


def test_pre_norm_rejects_wrong_pullback():
    obs = finite_canonical(4)
    chan = depolarizing_channel(4)
    with pytest.raises(ValueError):
        pre_norm_check(obs, obs, chan)


def test_pre_norm_refuses_observables_and_channels_that_do_not_fit():
    # N = 3 against 6 read "not the pullback ... at x=0", 6 against 3 raised numpy's
    # broadcast message; a channel of another dimension raised numpy's matmul message
    three, six = (make_covariant(CyclicRep(n, (0, 1)), np.eye(2)) for n in (3, 6))
    ident = kraus_to_superop([np.eye(2)])
    for obs, pre, want in ((three, six, "order 6 and dimension 2, obs 3"),
                           (six, three, "order 3 and dimension 2, obs 6"),
                           (three, finite_canonical(3), "order 3 and dimension 3, obs 3")):
        with pytest.raises(ValueError, match=f"^pre_obs has {want} and 2$"):
            pre_norm_check(obs, pre, ident)
    with pytest.raises(ValueError, match=r"^superoperator must be 4 x 4, got shape \(9, 9\)$"):
        pre_norm_check(three, three, kraus_to_superop([np.eye(3)]))
    assert pre_norm_check(three, three, ident)["norm_equal_everywhere"]


# --- batched subset sweeps ----------------------------------------------------------


def loop_convexity_check(e1, e2, alpha, tol=1e-9):
    """Reference: one norm call per subset, in itertools.combinations order."""
    mixed = mix(e1, e2, alpha)
    n = e1.rep.order
    worst_slack = math.inf
    saturated = 0
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            nm, n1, n2 = mixed.norm(subset), e1.norm(subset), e2.norm(subset)
            bound = alpha * n1 + (1 - alpha) * n2
            if nm > bound + tol:
                raise ValueError(f"convexity violated on {subset}: {nm} > {bound}")
            worst_slack = min(worst_slack, bound - nm)
            if nm >= 1.0 - tol:
                saturated += 1
                if n1 < 1.0 - tol or n2 < 1.0 - tol:
                    raise ValueError(f"norm saturation on {subset} not inherited: {n1}, {n2}")
    return {"subsets": 2 ** n - 1, "saturated": saturated, "worst_slack": worst_slack}


def outcome(check, *args):
    try:
        return check(*args)
    except ValueError as exc:
        return str(exc)


def test_subset_norms_match_norm_bit_for_bit():
    # block edges: one block below, at and one above its size, then several blocks
    rng = np.random.default_rng(53)
    block = groupsim._BLOCK_BITS
    for n in (1, 2, 8, block, block + 1, 12):
        for d in range(1, 6):
            obs = random_observable(rng, n, d)
            got = obs.subset_norms()
            assert got.shape == (2 ** n,) and got[0] == 0.0
            for size in range(1, n + 1):
                for subset in itertools.combinations(range(n), size):
                    mask = sum(1 << x for x in subset)
                    want = np.float64(obs.norm(subset))
                    assert got[mask].view(np.uint64) == want.view(np.uint64), (n, d, subset)


def test_subset_norms_are_cached_and_reused(monkeypatch):
    rng = np.random.default_rng(59)
    obs = random_observable(rng, 9, 3)
    other = make_covariant(obs.rep, random_observable(rng, 9, 3).seed)
    first = obs.subset_norms()
    assert obs.subset_norms() is first
    assert not first.flags.writeable
    calls = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or real(a))
    # obs is swept already: only the mixture and the other side are stacked
    convexity_check(obs, other, 0.4)
    pre_norm_check(obs, obs, kraus_to_superop([np.eye(3)]))
    assert obs.subset_norms() is first
    # one row per nonempty cyclic orbit, by Burnside: (2^9 + 2 * 2^3 + 6 * 2) / 9 - 1
    assert [shape for shape in calls if len(shape) == 3] == [(59, 3, 3)] * 2


def test_sweeps_agree_with_the_per_subset_loop(monkeypatch):
    rng = np.random.default_rng(61)
    rep = CyclicRep(11, (0, 2, 3, 7))
    e1 = make_covariant(rep, random_observable(rng, 11, 4).seed)
    e2 = make_covariant(rep, random_observable(rng, 11, 4).seed)
    canon = finite_canonical(7)
    # passing sweeps report the same numbers; failing ones name the same first
    # subset (a negative slack fails on convexity, a large one on saturation)
    for args, tol in (((e1, e2, 0.35), 1e-9), ((canon, canon, 0.5), 1e-9),
                      ((e1, e2, 0.35), -0.02), ((e1, e2, 0.35), 0.6)):
        monkeypatch.setattr(groupsim, "_EPS_SWEEP", tol)
        got = outcome(convexity_check, *args)
        assert got == outcome(loop_convexity_check, *args, tol), (args, tol)
        if tol == -0.02:
            assert "violated on (0, 2, 7)" in got
        if tol == 0.6:
            assert "saturation on (0, 1, 6)" in got


def test_pre_norm_names_the_first_subset_in_sweep_order():
    # no channel can make a norm grow, so plant growth in the cached sweep of
    # pre_obs: mask order would name (1, 2) first, the (size, lex) sweep names
    # (0, 5) and then (3,)
    obs = finite_canonical(6)
    pre = FiniteCovariantObservable(obs.rep, obs.seed)
    chan = kraus_to_superop([np.eye(6)])
    for planted, first in ((((1, 2), (0, 5)), (0, 5)), (((1, 2), (0, 5), (3,)), (3,))):
        norms = obs.subset_norms().copy()
        for subset in planted:
            norms[sum(1 << x for x in subset)] += 1e-6
        pre._subset_norms = norms
        with pytest.raises(ValueError) as info:
            pre_norm_check(obs, pre, chan)
        assert str(info.value) == f"norm grew under preprocessing on {first}"


def oracle_norms(obs):
    """All 2^N subset norms: one einsum of the mask-bit matrix with the effects."""
    n = obs.rep.order
    bits = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
    effects = np.array([obs.effect(x) for x in range(n)])
    return np.linalg.eigvalsh(np.einsum("mk,kij->mij", bits.astype(float), effects))[:, -1]


def necklaces(n):
    """Binary necklaces of length n, by Burnside: (1/n) sum_{k | n} phi(k) 2^(n/k)."""
    phi = [sum(math.gcd(j, k) == 1 for j in range(1, k + 1)) for k in range(n + 1)]
    return sum(phi[k] * 2 ** (n // k) for k in range(1, n + 1) if n % k == 0) // n


def test_subset_norms_sweep_one_row_per_cyclic_orbit(monkeypatch):
    assert [necklaces(n) for n in (1, 2, 3, 8, 9, 12, 14)] == [2, 3, 4, 36, 60, 352, 1182]
    rng = np.random.default_rng(67)
    real = np.linalg.eigvalsh
    for n in (1, 2, 3, 8, 9, 12, 14):
        masks = np.arange(2 ** n)
        for d in range(1, 6):
            obs = random_observable(rng, n, d)
            want = oracle_norms(obs)
            rows = []
            monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: rows.append(a.shape) or real(a))
            got = obs.subset_norms()
            monkeypatch.setattr(np.linalg, "eigvalsh", real)
            assert sum(shape[0] for shape in rows) == necklaces(n) - 1, (n, d)
            assert np.abs(got - want).max() <= 1e-13, (n, d)
            for g in range(1, n):
                turned = ((masks << g) | (masks >> (n - g))) & (2 ** n - 1)
                assert np.array_equal(got[turned].view(np.uint64), got.view(np.uint64)), (n, d, g)


def test_sweep_reports_match_the_oracle():
    rng = np.random.default_rng(71)
    for n in (3, 9, 12):
        canon = finite_canonical(n)
        # a translate of canon: a mixture saturates exactly where X meets X + 1
        shifted = FiniteCovariantObservable(canon.rep, canon.effect(1))
        other = make_covariant(canon.rep, random_observable(rng, n, n).seed)
        for e1, e2, alpha in ((canon, shifted, 0.5), (canon, other, 0.3)):
            o1, o2, om = (oracle_norms(obs)[1:] for obs in (e1, e2, mix(e1, e2, alpha)))
            bound = alpha * o1 + (1 - alpha) * o2
            report = convexity_check(e1, e2, alpha)
            assert report["subsets"] == 2 ** n - 1
            assert report["saturated"] == np.count_nonzero(om >= 1.0 - 1e-9)
            assert abs(report["worst_slack"] - (bound - om).min()) <= 1e-13
        assert 0 < convexity_check(canon, shifted, 0.5)["saturated"] < 2 ** n - 1
        w = np.diag(np.exp(2j * np.pi * rng.random(n)))
        unitary = FiniteCovariantObservable(other.rep, w.conj().T @ other.seed @ w)
        flat = FiniteCovariantObservable(other.rep, np.eye(n) / n)
        for pre, chan, equal in (
            (unitary, unitary_channel(w), True),
            (flat, depolarizing_channel(n), False),
        ):
            report = pre_norm_check(other, pre, chan)
            assert report["subsets"] == 2 ** n - 1
            gap = np.abs(oracle_norms(pre) - oracle_norms(other)).max()
            assert report["norm_equal_everywhere"] == (not gap > 1e-9) == equal


def test_sweep_at_the_order_limit_agrees_with_direct_eigvalsh():
    rng = np.random.default_rng(73)
    n = MAX_SWEEP_ORDER
    obs = random_observable(rng, n, 3)
    got = obs.subset_norms()
    for mask in rng.integers(1, 2 ** n, 50):
        subset = [x for x in range(n) if mask >> x & 1]
        direct = np.linalg.eigvalsh(sum(obs.effect(x) for x in subset))[-1]
        assert abs(got[mask] - direct) <= 1e-13, subset
        assert got[mask] == obs.norm(subset)


def test_orbit_parents_are_earlier_representatives():
    # subset_norms sums each representative from its parent's row and each one
    # above its table from its low bits, so its bits rest on this for every N
    for n in range(1, MAX_SWEEP_ORDER + 1):
        reps, index, parents, bounds = groupsim._orbits(n)
        tops = np.array([1 << (int(r).bit_length() - 1) for r in reps[1:]])
        assert parents[0] == 0 and np.array_equal(reps[parents[1:]], reps[1:] - tops), n
        assert (parents[1:] < np.arange(1, len(reps))).all(), n
        assert np.array_equal(index[reps], np.arange(len(reps))), n
        assert np.array_equal(bounds, np.searchsorted(reps, 1 << np.arange(n + 1))), n


def test_subset_norms_above_the_parent_table_match_bit_for_bit(monkeypatch):
    # a budget of no rows sums every orbit from zeros; a small one leaves a low-bit table
    rng = np.random.default_rng(77)
    for n, d in ((9, 3), (12, 2)):
        obs = random_observable(rng, n, d)
        want = obs.subset_norms()
        rows = min(len(groupsim._orbits(n)[0]) - 1, 1 << groupsim._BLOCK_BITS) + 8
        for budget in (0, rows * d * d * 16):
            monkeypatch.setattr(groupsim, "_SWEEP_BYTES", budget)
            twin = FiniteCovariantObservable(obs.rep, obs.seed)
            assert_bits_equal(twin.subset_norms(), want, (n, d, budget))


def test_sweep_at_the_order_limit_stays_within_its_byte_budget():
    rng = np.random.default_rng(79)
    obs = random_observable(rng, MAX_SWEEP_ORDER, 16)
    groupsim._orbits(MAX_SWEEP_ORDER)  # the orbit index is cached per N, outside the sweep
    tracemalloc.start()
    try:
        norms = obs.subset_norms()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= groupsim._SWEEP_BYTES + norms.nbytes, peak


def test_sweeps_refuse_group_orders_above_the_limit():
    n = MAX_SWEEP_ORDER + 1
    obs = make_covariant(CyclicRep(n, (0,)), np.ones((1, 1)))
    reason = f"group order N = {n} is above the subset-sweep limit {MAX_SWEEP_ORDER}"
    with pytest.raises(ValueError, match=reason):
        convexity_check(obs, obs, 0.5)
    with pytest.raises(ValueError, match=reason):
        pre_norm_check(obs, obs, kraus_to_superop([np.eye(1)]))
    assert obs._subset_norms is None


# --- one U(g) stack per representation, bit for bit against the per-g forms ------------


def loop_unitary(rep, g):
    n = rep.order
    return np.diag(np.exp(2j * math.pi * (np.array(rep.weights) * (g % n)) / n))


def loop_effects(rep, seed):
    return [loop_unitary(rep, x) @ seed @ loop_unitary(rep, x).conj().T for x in range(rep.order)]


def loop_make_covariant_seed(rep, seed):
    avg = sum(loop_effects(rep, seed))
    w, q = np.linalg.eigh(avg)
    inv_sqrt = (q * (1.0 / np.sqrt(w))) @ q.conj().T
    return inv_sqrt @ seed @ inv_sqrt


def loop_covariantize(rep, superop):
    out = np.zeros_like(superop)
    for g in range(rep.order):
        u = loop_unitary(rep, g)
        s = np.kron(u.conj(), u)
        out += s @ superop @ s.conj().T
    out /= rep.order
    return out


def loop_covariance_residual(rep, obs):
    n = rep.order
    worst = 0.0
    for g in range(n):
        u = loop_unitary(rep, g)
        for x in range(n):
            lhs = u @ obs.effect(x) @ u.conj().T
            worst = max(worst, float(np.abs(lhs - obs.effect((g + x) % n)).max()))
    return worst


def loop_pullback_residuals(obs, pre, superop):
    adj = adjoint_channel_matrix(superop)
    n = obs.rep.order
    return np.array(
        [np.abs(apply_channel(adj, obs.effect(x)) - pre.effect(x)).max() for x in range(n)]
    )


def loop_pullback_check(obs, pre, superop):
    for x, residual in enumerate(loop_pullback_residuals(obs, pre, superop)):
        if residual > groupsim._EPS_EFFECT:
            raise ValueError(f"pre_obs is not the pullback of obs through the channel at x={x}")


def loop_commutation_residual(rep, superop):
    worst = 0.0
    for g in range(rep.order):
        u = loop_unitary(rep, g)
        s = np.kron(u.conj(), u)
        worst = max(worst, float(np.abs(s @ superop - superop @ s).max()))
    return worst


def assert_bits_equal(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype, what
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), what


@pytest.mark.parametrize("n", [1, 2, 7, 14, 64])
@pytest.mark.parametrize("d", [1, 3, 5, 16])
def test_unitary_stack_routes_match_the_per_g_forms_bit_for_bit(n, d):
    rng = np.random.default_rng(1000 * n + d)
    # at the int64 edge of test_rep_refuses_weights_beyond_int64_arithmetic the
    # phases are no longer a representation, so only the unitaries are compared
    top = (2**63 - 1) // max(n - 1, 1)
    edge = tuple(int(w) for w in rng.choice([-top, top, -1, 0, 3], d))
    negative = [-1 - int(w) for w in rng.integers(0, 3 * n, d)]
    repeated = tuple(negative[:1] + negative[:-1])  # negative[0] twice when d > 1
    for weights in (edge, tuple(int(w) for w in rng.integers(0, n, d)), repeated):
        rep = CyclicRep(n, weights)
        stack = rep.unitaries
        assert stack.shape == (n, d, d) and not stack.flags.writeable
        for g in range(n):
            want = loop_unitary(rep, g)
            assert_bits_equal(stack[g], want, (weights, g))
            assert_bits_equal(rep.unitary(g), want, (weights, g))
            assert_bits_equal(rep.state_action(g), np.kron(want.conj(), want), (weights, g))
        assert_bits_equal(rep.unitary(-1), rep.unitary(n - 1), weights)
        if weights == edge:
            continue
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        seed = g @ g.conj().T + 0.1 * np.eye(d)
        obs = make_covariant(rep, seed)
        assert_bits_equal(obs.seed, loop_make_covariant_seed(rep, seed), weights)
        assert_bits_equal(obs.effects, np.array(loop_effects(rep, obs.seed)), weights)
        assert_bits_equal(
            _covariance_residual(rep, obs), loop_covariance_residual(rep, obs), weights
        )
        # the pullback through a diagonal unitary channel passes, offsets planted
        # from x = n // 2 on fail first there, and a random channel's residuals are large
        w = np.diag(np.exp(2j * np.pi * rng.random(d)))
        pre = FiniteCovariantObservable(rep, w.conj().T @ obs.seed @ w)
        chan = random_channel(d, rng)
        for superop in (unitary_channel(w), chan):
            assert_bits_equal(
                groupsim._pullback_residuals(obs, pre, superop),
                loop_pullback_residuals(obs, pre, superop),
                weights,
            )
        planted = FiniteCovariantObservable(rep, pre.seed)
        planted._effects = pre.effects + 1e-6 * (np.arange(n) >= n // 2)[:, None, None]
        failed = outcome(pre_norm_check, obs, planted, unitary_channel(w))
        assert failed == outcome(loop_pullback_check, obs, planted, unitary_channel(w))
        assert failed.endswith(f"at x={n // 2}"), weights
        if d <= 5 or n <= 2:
            cov = covariantize(rep, chan)
            assert_bits_equal(cov, loop_covariantize(rep, chan), weights)
            for superop in (cov, chan):
                assert_bits_equal(
                    _commutation_residual(rep, superop),
                    loop_commutation_residual(rep, superop),
                    weights,
                )


def test_unitary_stack_and_effects_are_read_only_and_outside_equality():
    rep, twin = CyclicRep(7, (0, -3, 3, 3)), CyclicRep(7, (0, -3, 3, 3))
    stack = rep.unitaries
    assert rep.unitaries is stack and "unitaries" not in repr(rep)
    assert rep == twin and hash(rep) == hash(twin)
    assert rep != CyclicRep(7, (0, -3, 3, 4)) and rep != CyclicRep(8, (0, -3, 3, 3))
    obs = make_covariant(rep, np.eye(4))
    for view in (stack, rep.unitary(2), obs.effects, obs.effect(3)):
        assert not view.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            view[0, ...] = 0.0
    assert_bits_equal(obs.effect(-1), obs.effect(6), "effect(-1)")
