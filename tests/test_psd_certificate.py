"""The Cholesky PSD certificate behind every positivity gate, with eigvalsh as the oracle."""

import numpy as np
import pytest

from phaseopt.groupsim import (
    _EPS_CHANNEL,
    _EPS_EFFECT,
    CyclicRep,
    FiniteCovariantObservable,
    is_channel,
    random_channel,
)
from phaseopt.measure import CoherentVector, DensityMatrix
from phaseopt.optimal import (
    CircleMeasure,
    identity_channel_spec,
    preprocess,
    smear,
    tail_recovery_spec,
)
from phaseopt.phase_matrix import (
    EPS_PSD,
    _hermitian_rebuild,
    _lapack_operand,
    canonical,
    chessboard,
    example4,
    example5,
    psd_certified,
    state_generated,
    translate,
    validate,
)

# each gate's cutoff, read where it is defined; DensityMatrix reads EPS_PSD, as
# validate does, and is tested through the gate alone
GATE_CUTOFFS = {
    "validate": EPS_PSD,
    "seed": _EPS_EFFECT,
    "is_channel": _EPS_CHANNEL,
}


def with_spectrum(w, rng) -> np.ndarray:
    """Hermitian matrix with eigenvalues w in a random unitary basis."""
    d = len(w)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    h = (q * w) @ q.conj().T
    return (h + h.conj().T) / 2


@pytest.mark.parametrize("dim", [8, 64, 256])
@pytest.mark.parametrize("delta", [0.5e-10, 0.9e-10, 1.1e-10, 2e-10])
def test_certificate_decides_at_each_gate_cutoff(dim, delta):
    certified = delta < 1e-10
    rng = np.random.default_rng(dim)
    bulk = rng.uniform(0.5, 1.5, dim - 1)
    h = with_spectrum(np.concatenate([[-delta], bulk]), rng)
    assert np.linalg.eigvalsh(h)[0] == pytest.approx(-delta, abs=1e-12)
    for gate, cutoff in GATE_CUTOFFS.items():
        assert psd_certified(h, cutoff) is certified, gate
    assert ("psd" not in validate(h).failures) is certified

    rho = with_spectrum(np.concatenate([[-delta], bulk * (1 + delta) / bulk.sum()]), rng)
    assert np.linalg.eigvalsh(rho)[0] == pytest.approx(-delta, abs=1e-12)
    if certified:
        DensityMatrix(rho)
    else:
        with pytest.raises(ValueError, match="state is not positive semidefinite"):
            DensityMatrix(rho)

    # the trivial representation: a seed that passes the PSD gate then fails
    # the resolution of the identity, so the message names the gate that refused
    with pytest.raises(ValueError) as refused:
        FiniteCovariantObservable(CyclicRep(2, (0,) * dim), h)
    assert ("positive semidefinite" in str(refused.value)) is not certified


@pytest.mark.parametrize("dim", [64, 256, 512])
def test_every_constructor_is_certified(dim):
    m5 = example5(dim)
    lam = np.exp(2j * np.pi * np.random.default_rng(dim).random(dim))
    two_atoms = CircleMeasure(atoms=((np.exp(0.3j), 0.4), (np.exp(-1.1j), 0.6)))
    mats = {
        "canonical": canonical(dim),
        "chessboard": chessboard(0.3 + 0.4j, dim),
        "vacuum": state_generated([1.0], dim),
        "example4": example4(3, dim),
        "example5": m5,
        "translate": translate(m5, np.exp(0.7j)),
        "smear": smear(m5, two_atoms),
        "preprocess identity": preprocess(m5, identity_channel_spec(dim)),
        "preprocess tail": preprocess(canonical(dim), tail_recovery_spec(dim, 3, lam)),
    }
    # a level-1 kernel at D = 512 takes seconds to build; the vacuum stands
    # for the state family there
    if dim < 512:
        mats["state"] = state_generated([0.5, 0.5], dim)
    for name, m in mats.items():
        assert psd_certified(m.entries, EPS_PSD), name
        assert np.linalg.eigvalsh(m.entries)[0] >= -EPS_PSD, name


@pytest.mark.parametrize("z", [0.0, 1.5, 2.0 - 3.0j, 8.0j])
def test_pure_coherent_states_are_certified_at_512(z):
    rho = CoherentVector(z, 512).density_matrix()
    assert np.linalg.eigvalsh(rho.entries)[0] >= -1e-10
    assert psd_certified(rho.entries, 1e-10)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_nonfinite_input_is_never_certified(bad):
    # (1, 2) sits in the upper triangle, which the factorization never reads
    for i, j in ((0, 0), (2, 1), (1, 2)):
        h = np.eye(4, dtype=np.complex128)
        h[i, j] = bad
        assert not psd_certified(h, EPS_PSD), (i, j)
    assert not psd_certified(np.full((4, 4), bad, dtype=np.complex128), EPS_PSD)


def test_certificate_leaves_its_input_unchanged():
    h = np.ones((5, 5), dtype=np.complex128)
    h.flags.writeable = False
    assert psd_certified(h, EPS_PSD)
    assert np.all(h == 1.0)


def test_is_channel_refuses_nan_superoperator():
    superop = random_channel(3, np.random.default_rng(5))
    assert is_channel(superop)
    superop[4, 4] = np.nan
    assert is_channel(superop) is False
    assert is_channel(np.full((9, 9), np.nan, dtype=np.complex128)) is False


def test_validate_reports_the_certified_bound_or_the_eigvalsh_witness():
    passing = validate(np.ones((6, 6)))
    assert passing.min_eigenvalue_bound == -EPS_PSD
    assert passing.to_dict()["min_eigenvalue_bound"] == -EPS_PSD
    assert "min_eigenvalue" not in passing.witness
    # unit diagonal, moduli at most 1, yet eigenvalue 1 - 3 * 0.9 = -1.7
    bad = np.full((4, 4), -0.9, dtype=np.complex128)
    np.fill_diagonal(bad, 1.0)
    failing = validate(bad)
    assert failing.failures == ("psd",)
    assert failing.min_eigenvalue_bound is None
    assert failing.witness["min_eigenvalue"] == float(np.linalg.eigvalsh(bad)[0])
    assert failing.witness["min_eigenvalue"] == pytest.approx(-1.7)
    nonfinite = bad.copy()
    nonfinite[0, 0] = np.nan
    assert validate(nonfinite).min_eigenvalue_bound is None


def test_lapack_operand_is_the_real_view_only_when_every_imaginary_part_is_zero():
    h = canonical(6).entries.copy()
    h[1, 0] = complex(0.5, -0.0)
    h[0, 1] = complex(0.5, 0.0)
    real = _lapack_operand(h)
    assert real.dtype == np.float64 and np.shares_memory(real, h)
    assert np.array_equal(real, h.real)
    for tiny in (5e-324, -5e-324):
        g = h.copy()
        g[3, 1], g[1, 3] = complex(1.0, tiny), complex(1.0, -tiny)
        assert _lapack_operand(g) is g
    plain = np.eye(3)
    assert _lapack_operand(plain) is plain


@pytest.mark.parametrize("dim", [8, 64, 256])
@pytest.mark.parametrize("delta", [0.9e-10, 1.1e-10])
def test_real_and_complex_certificates_agree_across_the_cutoff(dim, delta):
    rng = np.random.default_rng(dim)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    h = (q * np.concatenate([[-delta], rng.uniform(0.5, 1.5, dim - 1)])) @ q.T
    h = (h + h.T) / 2
    certified = delta < EPS_PSD
    assert psd_certified(h, EPS_PSD) is certified
    assert psd_certified(h.astype(np.complex128), EPS_PSD) is certified


def test_hermitian_rebuild_matches_the_sum_form_bitwise():
    rng = np.random.default_rng(11)
    for dim in (1, 2, 7, 64):
        a = np.empty((dim, dim), dtype=np.complex128)
        a.real = rng.choice([0.0, -0.0, 1.5, -2.0], size=(dim, dim))
        a.imag = rng.choice([0.0, -0.0, 0.5], size=(dim, dim))
        lower = np.tril(a, -1)
        expected = lower + lower.conj().T + np.diag(np.diag(a).real)
        dev, h = _hermitian_rebuild(a)
        assert h.flags.c_contiguous
        assert np.array_equal(h.view(np.uint64), expected.view(np.uint64)), dim
        assert np.array_equal(dev, np.abs(a - a.conj().T)), dim
