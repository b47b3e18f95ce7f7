"""The pivoted-Cholesky gram factor: its certified rank against eigh and against mpmath."""

import math

import mpmath
import numpy as np
import pytest

from phaseopt.optimal import extremal_check
from phaseopt.phase_matrix import (
    EPS_RANK,
    EtaSystem,
    PhaseMatrix,
    _lapack_operand,
    _pivoted_cholesky,
    _gamma,
    _rank_certified,
    _weyl_spectrum,
    canonical,
    chessboard,
    example4,
    example5,
    from_eta,
    gram_factor,
    state_generated,
    translate,
)


def families(dim: int) -> dict:
    levels = state_generated([1 / 3, 0.0, 1 / 3, 0.0, 0.0, 1 / 3], dim)
    return {
        "canonical": canonical(dim),
        "chessboard": chessboard(0.3 + 0.4j, dim),
        "example4 n0=5": example4(5, dim),
        "example4 n0=7": example4(7, dim),
        "example5": example5(dim),
        "vacuum": state_generated([1.0], dim),
        "levels 0, 2, 5": levels,
        "translate partner": translate(levels, complex(math.cos(0.7), math.sin(0.7))),
    }


def eigh_reference(m) -> EtaSystem:
    """The factor of the full eigh route, kept at EPS_RANK."""
    w, q = np.linalg.eigh(_lapack_operand(m.entries))
    keep = w > EPS_RANK * w[-1]
    vectors = q[:, keep].conj() * np.sqrt(w[keep])
    vectors /= np.linalg.norm(vectors, axis=1)[:, None]
    return EtaSystem(rank=int(keep.sum()), vectors=vectors)


def counting_eigh(monkeypatch) -> list:
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


@pytest.mark.parametrize("dim", [16, 32, 64, 128, 256])
def test_rank_and_extremality_match_the_eigh_route(dim):
    for name, m in families(dim).items():
        eta, reference = gram_factor(m), eigh_reference(m)
        assert eta.rank == reference.rank, name
        got, want = extremal_check(eta), extremal_check(reference)
        assert (got.extremal, got.rank, got.span_dim) == (want.extremal, want.rank,
                                                          want.span_dim), name
        # a basis of the same range: the rows have the same Gram matrix, C less the dropped part
        gram, want_gram = (e.vectors.conj() @ e.vectors.T for e in (eta, reference))
        assert np.abs(gram - want_gram).max() < 1e-12, name


@pytest.mark.parametrize("dim", [64, 128, 256])
def test_low_rank_input_makes_no_full_eigh(monkeypatch, dim):
    calls = counting_eigh(monkeypatch)
    for name in ("canonical", "chessboard", "example4 n0=7", "example5", "vacuum"):
        calls.clear()
        eta = gram_factor(families(dim)[name])
        assert len(calls) == 1 and calls[0][0] < dim // 2, (name, calls)
        assert calls[0][0] >= eta.rank, name


@pytest.mark.parametrize("dim", [64, 256])
def test_eigenvalue_on_the_cutoff_drives_the_fallback(monkeypatch, dim):
    # chessboard(xi) has eigenvalues (D/2)(1 +- |xi|), so this xi puts the small one on the cutoff
    xi = (1.0 - EPS_RANK) / (1.0 + EPS_RANK)
    m = chessboard(xi, dim)
    a = _lapack_operand(m.entries)
    lf = _pivoted_cholesky(a)
    assert lf is not None and lf.shape == (dim, 2)
    w, _, e = _weyl_spectrum(a, lf)
    assert abs(w[0] - EPS_RANK * w[-1]) < e
    assert not _rank_certified(w, e)
    calls = counting_eigh(monkeypatch)
    eta = gram_factor(m)
    assert calls == [(2, 2), (dim, dim)]
    reference = eigh_reference(chessboard(xi, dim))
    assert eta.rank == reference.rank
    assert np.array_equal(eta.vectors, reference.vectors)


def full_rank_eta(dim: int) -> PhaseMatrix:
    """The Gram matrix of dim random complex unit vectors in dim dimensions: full rank."""
    rng = np.random.default_rng(dim)
    v = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return from_eta(v / np.linalg.norm(v, axis=1)[:, None])


def test_full_rank_identity_is_certified_by_a_complete_factor(monkeypatch):
    # the identity has full rank: the pivoted route takes all D columns and certifies it
    m = example4(64, 64)
    a = _lapack_operand(m.entries)
    lf = _pivoted_cholesky(a)
    assert lf.shape == (64, 64)
    w, _, e = _weyl_spectrum(a, lf)
    assert _rank_certified(w, e)
    calls = counting_eigh(monkeypatch)
    assert gram_factor(m).rank == 64
    assert calls == [(64, 64)]  # the eigh of L^*L, not of C


@pytest.mark.parametrize("dim", [16, 32, 64, 128, 256])
def test_every_input_makes_one_eigh_of_its_factor(monkeypatch, dim):
    inputs = {**families(dim), "identity": example4(dim, dim), "full-rank eta": full_rank_eta(dim)}
    calls = counting_eigh(monkeypatch)
    for name, m in inputs.items():
        a = _lapack_operand(m.entries)
        lf = _pivoted_cholesky(a)
        k = lf.shape[1]
        w, _, e = _weyl_spectrum(a, lf)
        assert k <= dim and _rank_certified(w, e), name
        calls.clear()
        eta = gram_factor(m)
        assert calls == [(k, k)], (name, calls)
        assert eta.rank == eigh_reference(m).rank, name
    assert eta.rank == dim  # the full-rank eta


def mp_spectrum(entries: np.ndarray) -> list:
    """Ascending eigenvalues of the stored double entries, at mp.dps = 40."""
    with mpmath.workdps(40):
        if not entries.imag.any():
            w = mpmath.eigsy(mpmath.matrix(entries.real.tolist()), eigvals_only=True)
        else:
            w = mpmath.eighe(mpmath.matrix(entries.tolist()), eigvals_only=True)
        return sorted(w)


@pytest.mark.parametrize("dim", [8, 16, 24, 32])
def test_rank_matches_an_mpmath_shadow(dim):
    """The rank at EPS_RANK from the 40-digit spectrum of the same entries, and, with the
    pivoted route certified on every family, every 40-digit eigenvalue inside its Weyl
    interval."""
    for name, m in families(dim).items():
        lam = mp_spectrum(m.entries)
        with mpmath.workdps(40):
            mp_rank = sum(1 for x in lam if x > EPS_RANK * lam[-1])
            margin = min(abs(x / (EPS_RANK * lam[-1]) - 1) for x in lam)
        assert gram_factor(m).rank == mp_rank, name
        print(f"D={dim} {name}: rank {mp_rank}, nearest eigenvalue {float(margin):.3g} "
              "of the cutoff away, relative")
        a = _lapack_operand(m.entries)
        w, _, e = _weyl_spectrum(a, _pivoted_cholesky(a))
        assert _rank_certified(w, e), name  # every family at every D
        ranked = [0.0] * (dim - len(w)) + [float(x) for x in w]
        with mpmath.workdps(40):
            assert all(abs(x - mpmath.mpf(y)) <= e for x, y in zip(lam, ranked)), name


@pytest.mark.parametrize("dim", [8, 64, 256])
def test_a_complex_factor_is_charged_complex_dot_products(dim):
    """A complex L charges gamma_(3D + 4k) ||L||_F^2: by _ROUND_CDOT, gamma_3k for L L^*,
    gamma_3D for L^* L, and the estimate gamma_k for the small eigh."""
    x = complex(math.cos(0.7), math.sin(0.7))
    for name, m in {"chessboard": chessboard(0.3 + 0.4j, dim),
                    "translated canonical": translate(canonical(dim), x)}.items():
        a = _lapack_operand(m.entries)
        lf = _pivoted_cholesky(a)
        assert np.iscomplexobj(lf), name
        d, k = lf.shape
        _, _, e = _weyl_spectrum(a, lf)
        assert e >= _gamma(3 * d + 4 * k) * np.trace(lf.T.conj() @ lf).real, name
