"""Phase-matrix constructors, validation verdicts and U-equivalence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaseopt.optimal import extremal_check
from phaseopt.phase_matrix import (
    EPS_RANK,
    EtaSystem,
    PhaseMatrix,
    TruncationError,
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
from phaseopt.specfun import c_state


def unit(angle: float) -> complex:
    return complex(math.cos(angle), math.sin(angle))


def same_entries(a: PhaseMatrix, b: PhaseMatrix, tol: float = 1e-12) -> bool:
    """Equal dimensions and entries within ``tol``."""
    return a.dim == b.dim and bool(np.abs(a.entries - b.entries).max() <= tol)


def prop8_pair(dim: int, z: complex):
    """The equivalent-but-not-U-equivalent pair: coupling on (0,1) vs (2,3)."""
    c1 = np.eye(dim, dtype=complex)
    c1[0, 1], c1[1, 0] = z, np.conj(z)
    c2 = np.eye(dim, dtype=complex)
    c2[2, 3], c2[3, 2] = z, np.conj(z)
    return PhaseMatrix(c1), PhaseMatrix(c2)


# --- validation ---------------------------------------------------------------


def test_validate_passes_canonical():
    assert validate(np.ones((8, 8))).ok


def test_validate_passes_identity():
    assert validate(np.eye(6)).ok


def test_validate_flags_modulus_and_psd():
    bad = np.ones((4, 4), dtype=complex)
    bad[0, 1] = 2.0
    bad[1, 0] = 2.0
    report = validate(bad)
    assert not report.ok
    assert "psd" in report.failures and "modulus" in report.failures
    assert report.witness["modulus_entry"] in ([0, 1], [1, 0])


def test_validate_flags_hermiticity():
    bad = np.ones((3, 3), dtype=complex)
    bad[0, 1] = 1j
    report = validate(bad)
    assert "hermitian" in report.failures


def test_validate_flags_nonfinite_entries():
    bad = np.ones((3, 3), dtype=complex)
    bad[0, 2] = np.nan
    report = validate(bad)
    assert not report.ok
    assert report.failures == ("finite",)
    assert report.witness["nonfinite_entry"] == [0, 2]
    bad[0, 2] = np.inf
    assert not validate(bad).ok


def test_validate_flags_diagonal():
    bad = np.ones((3, 3), dtype=complex)
    bad[2, 2] = 0.5
    report = validate(bad)
    assert "unit_diagonal" in report.failures
    assert report.witness["diagonal_index"] == 2


def test_phase_matrix_rejects_invalid():
    with pytest.raises(ValueError):
        PhaseMatrix(np.diag([1.0, 2.0]))


def test_phase_matrix_is_immutable():
    m = canonical(3)
    with pytest.raises(Exception):
        m.entries[0, 0] = 5.0


# --- constructors -------------------------------------------------------------


def test_canonical_shapes_and_rank():
    for d in (1, 3, 17):
        m = canonical(d)
        assert np.all(m.entries == 1.0)
        assert gram_factor(m).rank == 1


def test_chessboard_extremes():
    assert same_entries(chessboard(1.0, 4), canonical(4))
    m = chessboard(0.0, 4)
    expected = np.array(
        [[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1]], dtype=complex
    )
    assert np.abs(m.entries - expected).max() == 0.0


def test_chessboard_rank_two():
    for d in (2, 5, 8):
        assert gram_factor(chessboard(0.5, d)).rank == 2
    assert gram_factor(chessboard(0.3 + 0.4j, 8)).rank == 2


def test_chessboard_rejects_large_xi():
    with pytest.raises(ValueError):
        chessboard(1.2, 4)
    for xi in (math.nan, complex(0.5, math.nan), math.inf):
        with pytest.raises(ValueError, match=r"\|xi\| must be <= 1"):
            chessboard(xi, 4)


def test_state_generated_known_entries():
    m = state_generated([1.0], 8)
    assert m.entries[0, 2].real == pytest.approx(1 / math.sqrt(2), abs=1e-14)
    assert np.abs(m.entries.imag).max() == 0.0
    mix = state_generated([0.5, 0.5], 8)
    assert mix.entries[0, 2].real == pytest.approx(0.5 / math.sqrt(2), abs=1e-14)


def test_state_generated_mixture_formula():
    weights = np.array([0.2, 0.5, 0.3])
    m = state_generated(weights, 10)
    expected = sum(w * c_state(s, 3, 6) for s, w in enumerate(weights))
    assert m.entries[3, 6].real == pytest.approx(expected, abs=1e-14)


def test_state_generated_truncation_error_is_loud():
    weights = np.zeros(80)
    weights[79] = 1.0
    with pytest.raises(TruncationError):
        state_generated(weights, 16)


@pytest.mark.parametrize(
    "weights", [[math.nan, 1.0], [math.nan], [0.5, math.inf], [], [-0.5, 1.5], [0.5, 0.4]]
)
def test_state_generated_refuses_non_probability_weights(weights):
    # a NaN weight once slipped past every comparison and was dropped from the support
    with pytest.raises(ValueError, match="weights must be a probability vector"):
        state_generated(weights, 4)


def test_state_generated_rank_grows_with_dimension():
    ranks = [gram_factor(state_generated([1.0], d)).rank for d in (8, 16, 32, 64)]
    assert all(a < b for a, b in zip(ranks, ranks[1:]))


def counting_eigh(monkeypatch) -> list:
    """Patch np.linalg.eigh to record each call; returns the call log."""
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def test_gram_factor_is_computed_once_per_matrix(monkeypatch):
    calls = counting_eigh(monkeypatch)
    m = state_generated([0.5, 0.5], 32)
    eta = gram_factor(m)
    assert len(calls) == 1
    assert gram_factor(m) is eta
    assert len(calls) == 1
    # a fresh matrix with the same entries factors afresh, to the same bits
    again = gram_factor(state_generated([0.5, 0.5], 32))
    assert len(calls) == 2
    bits = [np.ascontiguousarray(e.vectors).view(np.uint64) for e in (again, eta)]
    assert np.array_equal(*bits)


def test_gram_factor_vectors_are_read_only():
    eta = gram_factor(chessboard(0.3 + 0.4j, 8))
    assert not eta.vectors.flags.writeable
    with pytest.raises(ValueError):
        eta.vectors[0, 0] = 0.0


def complex_route(m):
    """Rank and extremality span of ``m`` from the complex ``eigh`` route."""
    w, q = np.linalg.eigh(m.entries.astype(np.complex128))
    keep = w > EPS_RANK * w[-1]
    vectors = q[:, keep].conj() * np.sqrt(w[keep])
    vectors /= np.linalg.norm(vectors, axis=1)[:, None]
    return extremal_check(EtaSystem(rank=int(keep.sum()), vectors=vectors))


@pytest.mark.parametrize("dim", [17, 64, 256])
def test_real_families_factor_like_the_complex_route(dim):
    rng = np.random.default_rng(dim)
    v = rng.normal(size=(dim, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    for name, m in (
        ("state", state_generated([0.3, 0.0, 0.5, 0.0, 0.0, 0.2], dim)),
        ("canonical", canonical(dim)),
        ("example4", example4(5, dim)),
        ("eta", from_eta(v)),
    ):
        assert not m.entries.imag.any(), name
        eta = gram_factor(m)
        assert eta.vectors.dtype == np.complex128 and not eta.vectors.flags.writeable, name
        report, reference = extremal_check(eta), complex_route(m)
        assert (report.rank, report.span_dim) == (reference.rank, reference.span_dim), name


def test_from_eta_trivial_families():
    v = np.array([[1.0, 0.0]] * 5, dtype=complex)
    assert same_entries(from_eta(v), canonical(5))
    assert same_entries(from_eta(np.eye(4)), PhaseMatrix(np.eye(4)))


def test_from_eta_rejects_non_unit_vectors():
    with pytest.raises(ValueError):
        from_eta(np.array([[1.0, 0.0], [0.5, 0.0]]))


def test_example5_matches_direct_eta_family():
    f1 = np.array([1, 0], dtype=complex)
    f2 = np.array([0, 1], dtype=complex)
    vecs = np.array([f1, f2, (f1 + f2) / np.sqrt(2), (f1 + 1j * f2) / np.sqrt(2), f1, f1])
    assert same_entries(example5(6), from_eta(vecs))
    assert example5(8).entries[2, 3] == pytest.approx((1 + 1j) / 2)


def test_example4_block_structure():
    m = example4(3, 8)
    assert np.all(m.entries[3:, 3:] == 1.0)
    assert np.all(m.entries[:3, :3] == np.eye(3))
    assert np.all(m.entries[:3, 3:] == 0.0)
    assert gram_factor(m).rank == 4  # n0 + 1


def test_every_constructor_passes_validate():
    mats = [
        canonical(12),
        chessboard(0.6 - 0.2j, 12),
        state_generated([0.3, 0.4, 0.3], 12),
        example4(3, 12),
        example5(12),
    ]
    for m in mats:
        report = validate(m.entries)
        assert report.ok
        assert np.abs(m.entries).max() <= 1.0 + 1e-10


# --- gram factorization -------------------------------------------------------


def test_gram_round_trip_on_random_eta_family():
    rng = np.random.default_rng(11)
    v = rng.normal(size=(10, 3)) + 1j * rng.normal(size=(10, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    m = from_eta(v)
    eta = gram_factor(m)
    assert eta.rank == 3
    assert np.abs(eta.vectors.conj() @ eta.vectors.T - m.entries).max() < 1e-10


def test_gram_factor_eta_vectors_are_unit():
    eta = gram_factor(state_generated([1.0], 24))
    norms = np.linalg.norm(eta.vectors, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-10


# --- translate ----------------------------------------------------------------


def test_translate_identity_and_inverse():
    m = example5(10)
    assert same_entries(translate(m, 1.0), m)
    x = unit(0.9)
    assert same_entries(translate(translate(m, x), np.conj(x)), m)


def test_translate_canonical_stays_unimodular():
    x = unit(2.2)
    t = translate(canonical(6), x)
    assert np.abs(np.abs(t.entries) - 1.0).max() < 1e-12
    lam = u_equivalent(canonical(6), t)
    assert lam is not None


def test_translate_preserves_validity_rank_modulus():
    m = state_generated([0.5, 0.5], 16)
    t = translate(m, unit(-1.3))
    assert validate(t.entries).ok
    assert gram_factor(t).rank == gram_factor(m).rank
    assert np.abs(np.abs(t.entries) - np.abs(m.entries)).max() < 1e-12


def test_translate_rejects_off_circle():
    with pytest.raises(ValueError):
        translate(canonical(4), 0.9)


def test_translate_names_a_drifting_point():
    """A point _unimodular accepts may drift past the unit-diagonal slack at large D: named."""
    for scale, shown in ((1 + 0.9e-12, "9e-13"), (1 - 0.9e-12, "-9e-13")):
        x = scale * complex(math.cos(0.3), math.sin(0.3))
        with pytest.raises(ValueError, match=rf"translation point \({x.real!r}\+{x.imag!r}j\) "
                           rf"has \|x\| - 1 = {shown}: at D = 256 the modulus of its powers "
                           r"drifts 4\.59e-10 from 1, past the phase-matrix slack 1e-12"):
            translate(canonical(256), x)
    # a point within rounding of the circle keeps its bytes
    x = complex(math.cos(0.3), math.sin(0.3))
    m = state_generated([0.5, 0.5], 64)
    powers = x ** np.arange(64)
    want = PhaseMatrix(m.entries * np.outer(powers.conj(), powers)).entries
    got = translate(m, x).entries
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# --- u_equivalent -------------------------------------------------------------


def test_u_equivalent_self():
    m = example5(8)
    lam = u_equivalent(m, m)
    assert lam is not None
    assert np.abs(lam - 1.0).max() < 1e-12


def test_u_equivalent_translate_recovers_conjugate_powers():
    m = canonical(8)
    x = unit(0.7)
    lam = u_equivalent(m, translate(m, x))
    assert lam is not None
    # c1 = lam_n conj(lam_m) c2 forces lam_n = conj(x)**n up to a global phase
    expected = np.conj(x) ** np.arange(8)
    ratio = lam / expected
    assert np.abs(ratio - ratio[0]).max() < 1e-10


def test_u_equivalent_rescaled_copy():
    rng = np.random.default_rng(5)
    m = example5(8)
    mu = np.exp(2j * np.pi * rng.random(8))
    scaled = PhaseMatrix(np.outer(mu.conj(), mu) * m.entries)
    lam = u_equivalent(scaled, m)
    assert lam is not None
    residual = scaled.entries - np.outer(lam.conj(), lam) * m.entries
    assert np.abs(residual).max() < 1e-10


def test_u_equivalent_symmetry():
    m1 = example5(8)
    m2 = translate(m1, unit(1.1))
    lam12 = u_equivalent(m1, m2)
    lam21 = u_equivalent(m2, m1)
    assert lam12 is not None and lam21 is not None
    ratio = lam12 * lam21  # conjugate sequences up to component phases
    assert np.abs(np.abs(ratio) - 1.0).max() < 1e-10


def test_unimodular_chessboard_is_u_equivalent_to_canonical():
    # |c| = 1 everywhere characterizes the U-class of the all-ones matrix
    xi = unit(1.3)
    m = chessboard(xi, 10)
    lam = u_equivalent(canonical(10), m)
    assert lam is not None
    residual = np.ones((10, 10)) - np.outer(lam.conj(), lam) * m.entries
    assert np.abs(residual).max() < 1e-12
    assert u_equivalent(canonical(10), chessboard(0.5, 10)) is None


@pytest.mark.parametrize("tol", [1.0, 2.5, math.nan])
def test_u_equivalent_refuses_a_tol_that_reads_no_entry(tol):
    # from tol = 1 on every modulus agrees and no entry fixes a phase: the answer would be a
    # sequence (all ones at NaN) for a pair that is not u-equivalent
    for other in (chessboard(0.3, 32), canonical(32)):
        with pytest.raises(ValueError, match="equivalence tol must be below 1"):
            u_equivalent(state_generated([1.0], 32), other, tol=tol)
    assert u_equivalent(state_generated([1.0], 32), chessboard(0.3, 32), tol=0.5) is None


def test_prop8_pair_not_u_equivalent():
    for d in (4, 6):
        m1, m2 = prop8_pair(d, 0.5)
        assert u_equivalent(m1, m2) is None
        assert u_equivalent(m2, m1) is None


def test_prop8_pair_is_genuinely_equivalent_otherwise():
    # the permutation swapping 0<->2 and 1<->3 conjugates one into the other
    m1, m2 = prop8_pair(5, 0.5)
    w = np.eye(5)[[2, 3, 0, 1, 4]]
    assert np.abs(w @ m1.entries @ w.T - m2.entries).max() == 0.0


# --- JSON schema --------------------------------------------------------------


def test_json_round_trip():
    m = chessboard(0.5 + 0.1j, 6)
    again = PhaseMatrix.from_dict(m.to_dict())
    assert same_entries(again, m)
    assert np.array_equal(again.entries, m.entries)
    # numpy scalars, as a library caller may build the dict, decode as well
    data = {"dim": np.int64(6), "entries": [[z.real, z.imag] for z in m.entries.ravel()]}
    assert np.array_equal(PhaseMatrix.from_dict(data).entries, m.entries)


def test_json_rejects_invalid_entries():
    data = canonical(3).to_dict()
    data["entries"][1] = [2.0, 0.0]
    data["entries"][3] = [2.0, 0.0]
    with pytest.raises(ValueError):
        PhaseMatrix.from_dict(data)


# --- property tests -----------------------------------------------------------


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=2 * math.pi),
    st.integers(min_value=2, max_value=12),
)
def test_chessboard_always_valid(r, phase, d):
    m = chessboard(r * unit(phase), d)
    assert validate(m.entries).ok


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.floats(min_value=-math.pi, max_value=math.pi), st.integers(2, 10))
def test_translate_round_trip_property(angle, d):
    x = unit(angle)
    m = chessboard(0.4, d)
    assert same_entries(translate(translate(m, x), np.conj(x)), m, 1e-11)
