"""Bit-for-bit agreement of the decision layers with their plain-loop forms.

The ``_reference_*`` functions below are the scalar-loop implementations
of ``preprocess``, ``u_equivalent``, ``preclean_check``, ``recover_state``
and ``effect_operator`` that the library's array forms replace.  The array
forms run the same floating-point operations on the same operands in the
same order, so every output must agree in every bit, compared through
``.view(np.uint64)`` (or ``is None`` where the answer can be ``None``).
The one exception is ``preprocess``, which sums its terms by offset rather
than by diagonal: it agrees in every bit on the identity spec, and on the
other specs within the rounding bound of :func:`preprocess_bound`.
"""

import math
from collections import deque

import numpy as np
import pytest

from phaseopt.measure import TWO_PI, Arc, DiagonalState, effect_operator
from phaseopt.optimal import (
    _RECOVERY_ENTRY_EPS,
    _RECOVERY_TOL,
    CovariantChannelSpec,
    NotStateGeneratedError,
    identity_channel_spec,
    preclean_check,
    preprocess,
    recover_state,
    recovery_depth,
    tail_recovery_spec,
)
from phaseopt.phase_matrix import (
    PhaseMatrix,
    _toeplitz,
    canonical,
    chessboard,
    example4,
    example5,
    from_eta,
    state_generated,
    translate,
    u_equivalent,
)
from phaseopt.specfun import c_fock_0_2k

DIMS = (2, 3, 5, 17, 64, 128)


def _reference_preprocess(matrix, spec):
    d = matrix.dim
    c = matrix.entries
    phi = spec.phi
    out = np.zeros((d, d), dtype=np.complex128)
    for j in range(d):
        diag = np.diagonal(c, offset=j)
        overlaps = np.einsum("qna,qna->qn", phi[: d - j, : d - j].conj(), phi[j:, j:])
        vals = overlaps @ diag
        for q in range(d - j):
            out[q, q + j] = vals[q]
            out[q + j, q] = vals[q].conjugate()
    return PhaseMatrix(out)


def _reference_fourier_arc(arc, k):
    total = 0.0j
    for start, length in arc.components:
        if k == 0:
            total += length / TWO_PI
        else:
            total += (
                np.exp(1j * k * (start + length)) - np.exp(1j * k * start)
            ) / (TWO_PI * 1j * k)
    return complex(total)


def _reference_effect_operator(matrix, arc):
    d = matrix.dim
    coeffs = np.array([_reference_fourier_arc(arc, k) for k in range(-(d - 1), d)])
    return matrix.entries * _toeplitz(coeffs)


def _reference_u_equivalent(m1, m2, tol=1e-10):
    d = m1.dim
    c1, c2 = m1.entries, m2.entries
    if np.abs(np.abs(c1) - np.abs(c2)).max() > tol:
        return None
    support = np.abs(c2) > tol
    lam = np.zeros(d, dtype=np.complex128)
    for root in range(d):
        if lam[root] != 0:
            continue
        lam[root] = 1.0
        queue = deque([root])
        while queue:
            m = queue.popleft()
            for n in range(d):
                if n == m or not support[m, n] or lam[n] != 0:
                    continue
                ratio = c1[m, n] / c2[m, n]
                cand = ratio * lam[m]
                mag = abs(cand)
                if abs(mag - 1.0) > 10 * tol:
                    return None
                lam[n] = cand / mag
                queue.append(n)
    residual = c1 - np.outer(lam.conj(), lam) * c2
    if np.abs(residual).max() > tol:
        return None
    return lam


def _reference_preclean_check(matrix, tol=1e-6):
    d = matrix.dim
    mods = np.abs(matrix.entries)
    n0 = None
    for cand in range(d - 1):
        if mods[cand:, cand:].min() >= 1.0 - tol:
            n0 = cand
            break
    if n0 is None:
        return None
    w = np.linalg.eigvalsh(matrix.entries[n0:, n0:])
    k = d - n0
    if k > 1 and w[-2] > 4.0 * k * tol + 1e-10:
        return None
    return n0


def _reference_recover_state(matrix):
    d = matrix.dim
    depth = recovery_depth(d)
    if 2 * (depth + 1) >= d:
        raise ValueError(f"depth {depth} needs dimension > {2 * (depth + 1)}")
    lam, errs = [], []
    for k in range(depth + 1):
        col = 2 * (k + 1)
        target = matrix.entries[0, col]
        if abs(target.imag) > _RECOVERY_TOL:
            raise NotStateGeneratedError(f"entry (0, {col}) is not real")
        coeffs = [c_fock_0_2k(s, k + 1) for s in range(k + 1)]
        acc = target.real - sum(lam[s] * coeffs[s] for s in range(k))
        noise = _RECOVERY_ENTRY_EPS + sum(errs[s] * abs(coeffs[s]) for s in range(k))
        val = acc / coeffs[k]
        err = noise / abs(coeffs[k])
        if val < -max(_RECOVERY_TOL, 10.0 * err):
            raise NotStateGeneratedError(f"recovered weight {val} at level {k} is negative")
        if abs(val) < err:
            val = 0.0
        lam.append(val)
        errs.append(err)
        if sum(lam) > 1.0 + _RECOVERY_TOL + sum(errs):
            raise NotStateGeneratedError(f"recovered mass {sum(lam)} exceeds 1 at level {k}")
    total = sum(lam)
    if total < 1.0 - (_RECOVERY_TOL + sum(errs)):
        raise NotStateGeneratedError(f"recovered mass {total} falls short of 1 at depth {depth}")
    weights = np.clip(np.array(lam), 0.0, None)
    if not weights.sum() > 0.0:
        raise NotStateGeneratedError(
            f"no recovered weight exceeds its noise bound at depth {depth}"
        )
    return DiagonalState(weights / weights.sum())


def same_bits(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return (
        a.shape == b.shape
        and a.dtype == b.dtype
        and np.array_equal(a.view(np.uint64), b.view(np.uint64))
    )


def outcome(fn, *args):
    """Return value, or the type and message of the ValueError raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return (type(exc), str(exc))


def sparse_eta_matrix(dim, rng, rank=4):
    """from_eta on random complex vectors in two coordinate blocks.

    Each row lives in coordinates {0, 1} or {2, 3}, with some of them
    zeroed; rows with disjoint supports have an exact 0 Gram entry, so
    the support graph splits into at least two components.
    """
    v = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    block = np.arange(dim) % 2 == 0
    v[block, 2:] = 0.0
    v[~block, :2] = 0.0
    v[rng.random((dim, rank)) < 0.3] = 0.0
    empty = ~v.any(axis=1)
    v[empty, np.where(block[empty], 0, 2)] = 1.0
    return from_eta(v / np.linalg.norm(v, axis=1)[:, None])


def families(dim, rng):
    xi = complex(rng.uniform(0.2, 0.8) * np.exp(2j * np.pi * rng.random()))
    weights = rng.dirichlet(np.ones(6))
    n0 = int(rng.integers(0, dim))
    return {
        "state": state_generated(weights, dim),
        "canonical": canonical(dim),
        "chessboard": chessboard(xi, dim),
        "example4": example4(n0, dim),
        "example5": example5(dim),
        "sparse_eta": sparse_eta_matrix(dim, rng),
    }


def random_spec(dim, rng, aux=3):
    phi = rng.normal(size=(dim, dim, aux)) + 1j * rng.normal(size=(dim, dim, aux))
    return CovariantChannelSpec(phi / np.sqrt((np.abs(phi) ** 2).sum(axis=(1, 2)))[:, None, None])


@pytest.mark.parametrize("dim", DIMS)
def test_u_equivalent_matches_reference_bitwise(dim):
    rng = np.random.default_rng(100 + dim)
    for name, m in families(dim, rng).items():
        x = complex(np.exp(2j * np.pi * rng.random()))
        lam = np.exp(2j * np.pi * rng.random(dim))
        partners = {
            "translate": translate(m, x),
            "rescaled": PhaseMatrix(m.entries * np.outer(lam.conj(), lam)),
            "conjugate": PhaseMatrix(m.entries.conj()),
        }
        for kind, other in partners.items():
            for a, b in ((m, other), (other, m)):
                got = u_equivalent(a, b)
                assert same_bits(got, _reference_u_equivalent(a, b)), (name, kind)
                if kind != "conjugate":
                    assert got is not None, (name, kind)


def test_u_equivalent_reference_sees_several_components():
    """example4 and sparse_eta exercise several BFS roots; conjugates give None."""
    rng = np.random.default_rng(7)
    for m in (example4(5, 17), sparse_eta_matrix(64, rng)):
        lam = np.exp(2j * np.pi * rng.random(m.dim))
        rescaled = PhaseMatrix(m.entries * np.outer(lam.conj(), lam))
        got = u_equivalent(rescaled, m)
        assert same_bits(got, _reference_u_equivalent(rescaled, m))
        assert int((got == 1.0).sum()) > 1  # each component's root is fixed to 1
    m = sparse_eta_matrix(17, rng)
    conj = PhaseMatrix(m.entries.conj())
    assert u_equivalent(m, conj) is None and _reference_u_equivalent(m, conj) is None


def two_offset_spec(dim, rng, aux=2):
    """Random vectors at n - q in {0, -2} only: a band of two offsets, one negative."""
    phi = np.zeros((dim, dim, aux), dtype=np.complex128)
    q = np.arange(dim)
    phi[q, q] = rng.normal(size=(dim, aux)) + 1j * rng.normal(size=(dim, aux))
    phi[q[2:], q[:-2]] = rng.normal(size=(dim - 2, aux)) + 1j * rng.normal(size=(dim - 2, aux))
    return CovariantChannelSpec(phi / np.sqrt((np.abs(phi) ** 2).sum(axis=(1, 2)))[:, None, None])


def preprocess_bound(matrix, spec):
    """Entrywise rounding bound ``gamma_n * S`` between two summation orders of ``preprocess``.

    ``S[q, p]`` is the entry's absolute sum ``sum_n |c[n, n + p - q]| sum_a |phi[q, n, a]|
    |phi[p, n + p - q, a]|``, and ``gamma_n = n u / (1 - n u)`` with u the unit roundoff of
    float64 and n = aux |T| + 1, for the aux |T| products of each entry and their scaling by
    c (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed., ch. 3).
    """
    d = matrix.dim
    c, phi = np.abs(matrix.entries), np.abs(spec.phi)
    rows, cols = np.nonzero(spec.phi.any(axis=2))
    n = phi.shape[2] * np.unique(cols - rows).size + 1
    u = np.finfo(np.float64).eps / 2
    total = np.zeros((d, d))
    for j in range(d):
        vals = np.einsum("qna,qna->qn", phi[: d - j, : d - j], phi[j:, j:]) @ np.diagonal(c, j)
        q = np.arange(d - j)
        total[q, q + j] = total[q + j, q] = vals
    return n * u / (1 - n * u) * total


@pytest.mark.parametrize("dim", DIMS + (256,))
def test_preprocess_matches_reference_bitwise(dim):
    """Refusals agree exactly, the identity spec in every bit, the others within the bound."""
    rng = np.random.default_rng(200 + dim)
    n0 = int(rng.integers(0, dim))
    lam = np.exp(2j * np.pi * rng.random(dim))
    specs = {
        "identity": identity_channel_spec(dim),
        "tail": tail_recovery_spec(dim, n0, lam),
    }
    if dim in DIMS:  # the dense reference costs O(D^3 aux); D = 256 takes the band specs
        specs["random"] = random_spec(dim, rng)
        specs["two-offset"] = two_offset_spec(dim, np.random.default_rng(250 + dim))
    for name, m in families(dim, rng).items():
        for kind, spec in specs.items():
            got = outcome(preprocess, m, spec)
            want = outcome(_reference_preprocess, m, spec)
            if isinstance(want, tuple):
                assert got == want, (name, kind)
                continue
            assert not isinstance(got, tuple), (name, kind, got)
            if kind == "identity":
                assert same_bits(got.entries, want.entries), (name, kind)
                assert same_bits(got.entries, m.entries), (name, kind)
            else:
                dev = np.abs(got.entries - want.entries)
                assert (dev <= preprocess_bound(m, spec)).all(), (name, kind, dev.max())


@pytest.mark.parametrize("dim", DIMS)
def test_preclean_check_matches_reference(dim):
    rng = np.random.default_rng(300 + dim)
    for name, m in families(dim, rng).items():
        for tol in (1e-6, 0.3, 0.9):
            got, want = preclean_check(m, tol), _reference_preclean_check(m, tol)
            assert type(got) is type(want) and got == want, (name, tol, got, want)


@pytest.mark.parametrize("dim", DIMS)
def test_recover_state_matches_reference_bitwise(dim):
    rng = np.random.default_rng(400 + dim)
    for name, m in families(dim, rng).items():
        got = outcome(recover_state, m)
        want = outcome(_reference_recover_state, m)
        if isinstance(want, tuple):
            assert got == want, name
        else:
            assert same_bits(got.weights, want.weights), name


def test_recover_state_reference_recovers_states():
    """The reference is exercised on matrices it accepts, at every depth."""
    for dim in (17, 64, 128):
        weights = np.array([0.25, 0.0, 0.5, 0.25])
        m = state_generated(weights, dim)
        got = recover_state(m).weights
        assert same_bits(got, _reference_recover_state(m).weights)
        assert math.isclose(got[2], 0.5, abs_tol=1e-6)


@pytest.mark.parametrize("dim", (2, 64, 256))
def test_effect_operator_matches_reference_bitwise(dim):
    rng = np.random.default_rng(500 + dim)
    arcs = [
        Arc.half(),
        Arc.full(),
        Arc.interval(5.9, 1.0),  # wraps past 2pi
        Arc(((0.2, 0.9), (4.0, 1.3))),
        Arc(((6.0, 0.5), (1.0, 0.3), (3.0, 2.0))),  # three components, the first wraps
    ] + [Arc.interval(rng.uniform(0.0, TWO_PI), rng.uniform(0.01, TWO_PI)) for _ in range(4)]
    for name, m in families(dim, rng).items():
        for arc in arcs:
            want = _reference_effect_operator(m, arc)
            assert same_bits(effect_operator(m, arc), want), (name, arc)
