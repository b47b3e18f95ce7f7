"""Truncated phase matrices: constructors, validation, Gram factorization.

A phase matrix of dimension D is the top-left D x D corner of the
(infinite) positive semidefinite, unit-diagonal matrix that determines a
phase-shift covariant observable.  All verdicts computed from it are
verdicts *at truncation D*.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._serialize import matrix_from_dict, matrix_to_dict
from .specfun import c_state_matrix

__all__ = [
    "EPS_PSD",
    "EPS_RANK",
    "EPS_GRAM",
    "EPS_EQUIV",
    "ValidationReport",
    "psd_certified",
    "validate",
    "PhaseMatrix",
    "EtaSystem",
    "canonical",
    "chessboard",
    "state_generated",
    "from_eta",
    "example4",
    "example5",
    "gram_factor",
    "translate",
    "u_equivalent",
    "TruncationError",
    "LEVEL_CUTOFF",
]

EPS_PSD = 1e-10
EPS_RANK = 1e-9
EPS_GRAM = 1e-10
# entrywise agreement demanded by the equivalence decisions
EPS_EQUIV = 1e-10
_EPS_HERM = 1e-12
# Probability weights may dip below 0, and their sum may miss 1, by this much.  One value
# serves both: an entry floor tighter than the sum slack would refuse a vector whose
# rounding the sum test forgives.
_EPS_PROB = 1e-12
# how far a circle point may leave |x| = 1, and chessboard's |xi| exceed 1: the rounding
# of a point built as exp(i phi), far below any modulus an input means
_EPS_UNIMODULAR = 1e-12
# number states at or above this level are refused by state_generated
LEVEL_CUTOFF = 64
# gram_factor's pivoted Cholesky stops once the largest remaining diagonal entry of
# C - L L^* is at or below this fraction of max diag(C)
_PIVOT_STOP = 1e-13
# Rounding counts n, each entering a bound as Higham's gamma_n, behind the certified slack of
# a phase matrix that is PSD by its construction (Higham, Accuracy and Stability of Numerical
# Algorithms, 2nd ed., Lemma 3.5 and section 3.1).  A complex dot product of length k, in any
# order and grouping of its 4k real products, has real and imaginary parts that are real sums
# of 2k products, each within gamma_2k of the sum of their moduli; so it is within
# sqrt(2) gamma_2k <= gamma_(3k) of sum |x_i| |y_i|.  k = 1 is one complex product.
_ROUND_CDOT = 3
# One entry of c_state_matrix relative to its modulus: _ratio_sqrt's integer quotient (below
# 2^-63 relative, halved by the root), its correctly rounded conversion to float and
# math.sqrt, and for odd sigma the rounded sqrt(pi) and the product with it: below 3.6 u.
_ROUND_KERNEL = 4


class TruncationError(ValueError):
    """A construction would silently drop weight beyond the truncation."""


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the phase-matrix admissibility checks with witnesses."""

    ok: bool
    dim: int
    hermiticity_dev: float
    diagonal_dev: float
    # -EPS_PSD when PSD was certified (by psd_certified or by construction), None otherwise
    min_eigenvalue_bound: Optional[float]
    max_modulus: float
    failures: tuple = ()
    witness: dict = field(default_factory=dict)
    # Hermitian rebuild from the lower triangle (None if an entry is not finite)
    hermitian: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "verdict": "pass" if self.ok else "fail",
            "dim": self.dim,
            "hermiticity_dev": self.hermiticity_dev,
            "diagonal_dev": self.diagonal_dev,
            "min_eigenvalue_bound": self.min_eigenvalue_bound,
            "max_modulus": self.max_modulus,
            "failures": list(self.failures),
            "witness": self.witness,
        }


def _hermitian_rebuild(a: np.ndarray):
    """``(|a - a^*|, h)`` with ``h`` the Hermitian matrix built from the lower triangle of ``a``.

    One conjugate transpose serves both: it is the deviation's operand, then the buffer of
    ``h``, whose strict lower triangle is copied from ``a`` and whose diagonal is ``Re a``.
    The closing ``+= 0.0`` turns every -0.0 into +0.0, so ``h`` is the sum
    ``tril(a, -1) + tril(a, -1)^* + diag(Re a)`` bit for bit.
    """
    h = np.conjugate(a.T, order="C")
    dev = np.abs(a - h)
    np.copyto(h, a, where=np.tri(a.shape[0], k=-1, dtype=bool))
    np.fill_diagonal(h, a.diagonal().real)
    h += 0.0
    return dev, h


def _gamma(n: int) -> float:
    """Higham's ``gamma_n = n u / (1 - n u)``, u the unit roundoff of float64."""
    u = np.finfo(np.float64).eps / 2
    return n * u / (1.0 - n * u)


def _lapack_operand(a: np.ndarray) -> np.ndarray:
    """``a.real`` (a view) when every imaginary part of ``a`` is exactly 0, else ``a``.

    numpy picks the LAPACK routine by dtype, so a Hermitian matrix with real entries is
    handed to the real ``syevd``/``potrf`` rather than the costlier complex
    ``heevd``/``zpotrf``; no cutoff reads the dtype.
    """
    if np.iscomplexobj(a) and not a.imag.any():
        return a.real
    return a


def _toeplitz(table: np.ndarray) -> np.ndarray:
    """Multiplier f(m - n) as a D x D array, from table = f(-(D-1)), ..., f(D-1)."""
    d = (len(table) + 1) // 2
    # row m of the reversed table's windows, read from the bottom, starts at f(m): a view
    return sliding_window_view(table[::-1], d)[::-1]


def psd_certified(h: np.ndarray, eps: float) -> bool:
    """True iff ``h`` is finite and ``h + eps * I`` has a Cholesky factor.

    A successful factorization certifies that the Hermitian matrix whose
    lower triangle ``h`` holds has no eigenvalue below ``-eps``, up to the
    factorization's small backward error (Higham, *Accuracy and Stability
    of Numerical Algorithms*, 2nd ed., ch. 10).  Finiteness is tested
    here because LAPACK returns a NaN factor of a NaN matrix without
    failing.  ``h`` is not modified; a complex ``h`` whose imaginary
    parts are all 0 is factored in real arithmetic (:func:`_lapack_operand`).
    """
    if not np.isfinite(h).all():
        return False
    h = _lapack_operand(h)
    shifted = np.array(h, dtype=np.result_type(h, np.float64), order="C")
    shifted.reshape(-1)[:: len(shifted) + 1] += eps  # the diagonal, as a strided view
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def validate(entries) -> ValidationReport:
    """Check Hermiticity, unit diagonal and positive semidefiniteness.

    PSD is decided by :func:`psd_certified` at ``EPS_PSD``; moduli up to
    ``1 + 10 * EPS_PSD`` pass.  Returns a verdict object rather than
    raising; the failed condition and a witness (offending entry, or the
    ``eigvalsh`` minimum of a matrix that did not factorize) are reported.
    The certificate runs in real arithmetic when every imaginary part is
    0 (:func:`_lapack_operand`); the witness, computed only for a refused
    matrix, keeps the complex ``eigvalsh`` so that its reported value holds.
    """
    return _validate(entries)[0]


def _rounding_slack(n: int, d: int, scale: float = 1.0) -> float:
    """``D gamma_(n+1) scale``: a 2-norm bound of a D x D error matrix with entries within
    ``gamma_n scale``, as ``||E||_2 <= ||E||_F <= D max |E_mn|``.

    The Hermitian rebuild takes each entry from the lower triangle of one within the bound of
    an exact Hermitian matrix, so the bound holds for the rebuild too.  The one rounding more
    than the entries need is worth at least ``u D scale``; for n below 1e9 it covers what the
    callers' counts leave out: the factors ``1 + 10 EPS_PSD`` and ``1 + _EPS_HERM`` by which a
    modulus or a diagonal may exceed 1, the product of a parent's slack (below ``EPS_PSD``)
    with a gamma_n, and the rounding of the slack's own evaluation.
    """
    return d * scale * _gamma(n + 1)


def _validate(entries, parent: Optional[float] = None, rho: float = 0.0):
    """``(report, slack)``: :func:`validate`'s report, and the certified slack or None.

    ``parent`` and ``rho`` describe entries computed within 2-norm ``rho`` of ``A``, an exact
    Hermitian matrix with ``lambda_min(A) >= -parent * max diag(A)`` of which they are the
    rounding.  The stored matrix is the Hermitian rebuild with its diagonal reset to 1, a
    change of at most ``diag_dev``, which also bounds ``max diag(A)`` by ``1 + diag_dev``
    (the rounding of the computed diagonal is in the headroom of :func:`_rounding_slack`).
    By Weyl's inequality its least eigenvalue is at least ``-slack`` with
    ``slack = (1 + diag_dev) parent + rho + diag_dev``.  When every other check passes and
    ``slack < EPS_PSD``, that proves ``lambda_min >= -EPS_PSD`` and no Cholesky runs;
    otherwise (``parent`` None, a failed check, or a slack that reached ``EPS_PSD``) the
    report is :func:`validate`'s, factorization included, and the slack None.
    """
    a = np.asarray(entries, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {a.shape}")
    dim = a.shape[0]
    failures = []
    witness = {}

    if not np.isfinite(a).all():
        bad = np.nonzero(~np.isfinite(a))
        witness["nonfinite_entry"] = [int(bad[0][0]), int(bad[1][0])]
        return ValidationReport(
            ok=False,
            dim=dim,
            hermiticity_dev=float("nan"),
            diagonal_dev=float("nan"),
            min_eigenvalue_bound=None,
            max_modulus=float("nan"),
            failures=("finite",),
            witness=witness,
        ), None

    herm, h = _hermitian_rebuild(a)
    herm_dev = float(herm.max())
    if herm_dev > _EPS_HERM:
        failures.append("hermitian")
        i, j = np.unravel_index(int(herm.argmax()), herm.shape)
        witness["hermitian_entry"] = [int(i), int(j)]

    diag_dev = float(np.abs(np.diag(a) - 1.0).max())
    if diag_dev > _EPS_HERM:
        failures.append("unit_diagonal")
        witness["diagonal_index"] = int(np.abs(np.diag(a) - 1.0).argmax())

    mods = np.abs(a)
    max_mod = float(mods.max())
    modulus_ok = max_mod <= 1.0 + 10.0 * EPS_PSD

    slack = None
    if parent is not None and modulus_ok and not failures:
        slack = (1.0 + diag_dev) * parent + rho + diag_dev
        if not slack < EPS_PSD:
            slack = None
    psd = slack is not None or psd_certified(h, EPS_PSD)
    if not psd:
        failures.append("psd")
        witness["min_eigenvalue"] = float(np.linalg.eigvalsh(h)[0])

    if not modulus_ok:
        failures.append("modulus")
        i, j = np.unravel_index(int(mods.argmax()), mods.shape)
        witness["modulus_entry"] = [int(i), int(j)]

    return ValidationReport(
        ok=not failures,
        dim=dim,
        hermiticity_dev=herm_dev,
        diagonal_dev=diag_dev,
        min_eigenvalue_bound=-EPS_PSD if psd else None,
        max_modulus=max_mod,
        failures=tuple(failures),
        witness=witness,
        hermitian=h,
    ), slack


class PhaseMatrix:
    """Immutable D x D phase matrix (Hermitian, unit diagonal, PSD).

    Hermiticity is enforced structurally: the stored array is the
    lower-triangle rebuild that :func:`validate` checked at ``EPS_PSD``, so
    the invariant cannot drift.  ``_gram`` memoizes :func:`gram_factor`.
    ``_slack`` is the certified slack sigma, a proven bound
    ``lambda_min(entries) >= -sigma`` below ``EPS_PSD``, of a matrix that
    :meth:`_built` certified by its construction; it is None when a Cholesky
    decided (entries given to the constructor, so ``from_dict``).
    """

    __slots__ = ("dim", "entries", "_gram", "_slack")

    def __init__(self, entries):
        self._store(validate(entries), None)

    @staticmethod
    def _built(entries, parent: Optional[float], rho: float = 0.0) -> "PhaseMatrix":
        """The phase matrix of ``entries`` that a construction proves PSD, in the terms of
        :func:`_validate`: computed within 2-norm ``rho`` of an exact matrix whose least
        eigenvalue is at least ``-parent`` times its diagonal scale.  ``parent`` None, a
        failed check, or a slack that reaches ``EPS_PSD`` leaves the decision to
        :func:`validate`, Cholesky included, as the constructor would."""
        if parent is None:
            return PhaseMatrix(entries)
        matrix = object.__new__(PhaseMatrix)
        matrix._store(*_validate(entries, parent, rho))
        return matrix

    def _store(self, report: ValidationReport, slack: Optional[float]):
        if not report.ok:
            raise ValueError(f"not a valid phase matrix: {', '.join(report.failures)}")
        h = report.hermitian
        np.fill_diagonal(h, 1.0)
        h.flags.writeable = False
        object.__setattr__(self, "entries", h)
        object.__setattr__(self, "dim", h.shape[0])
        object.__setattr__(self, "_gram", None)
        object.__setattr__(self, "_slack", slack)

    def __setattr__(self, name, value):
        raise AttributeError("PhaseMatrix is immutable")

    def __repr__(self):
        return f"PhaseMatrix(dim={self.dim})"

    def to_dict(self) -> dict:
        return matrix_to_dict(self.entries)

    @staticmethod
    def from_dict(data: dict) -> "PhaseMatrix":
        return PhaseMatrix(matrix_from_dict(data))


@dataclass(frozen=True)
class EtaSystem:
    """Unit vectors whose Gram matrix reproduces a phase matrix.

    ``vectors[n]`` is the n-th unit vector in the rank-dimensional space, in whichever
    basis :func:`gram_factor` took: only their Gram matrix, and so the range of the
    (D, rank) array, is fixed.
    """

    rank: int
    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=np.complex128)
        if v.ndim != 2 or v.shape[1] != self.rank:
            raise ValueError("vectors must be a (D, rank) array")
        norms = np.linalg.norm(v, axis=1)
        if np.abs(norms - 1.0).max() > EPS_GRAM:
            raise ValueError("eta vectors must be unit vectors")
        object.__setattr__(self, "vectors", v)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]


def canonical(dim: int) -> PhaseMatrix:
    """All-ones phase matrix (the canonical phase observable)."""
    # exact entries of the Gram matrix of one unit vector
    return PhaseMatrix._built(np.ones((dim, dim), dtype=np.complex128), 0.0)


def chessboard(xi: complex, dim: int) -> PhaseMatrix:
    """Alternating two-vector Gram matrix: 1 on same parity, xi across.

    Generated by the unit vectors e0 (even slots) and
    ``xi*e0 + sqrt(1-|xi|^2)*e1`` (odd slots); requires ``|xi| <= 1``.
    The entries are exact, so the matrix is PSD when ``|xi| <= 1`` holds in
    exact arithmetic, which the integer ratios of its parts decide; a ``|xi|``
    that exceeds 1 within ``_EPS_UNIMODULAR`` is left to the Cholesky.
    """
    xi = complex(xi)
    # written so that a NaN fails it
    if not abs(xi) <= 1.0 + _EPS_UNIMODULAR:
        raise ValueError(f"|xi| must be <= 1, got {abs(xi)}")
    c = np.empty((dim, dim), dtype=np.complex128)
    idx = np.arange(dim)
    even = (idx % 2 == 0)
    same = np.equal.outer(even, even)
    c[same] = 1.0
    c[np.outer(even, ~even)] = xi
    c[np.outer(~even, even)] = np.conj(xi)
    excess, _ = _square_excess(xi)
    return PhaseMatrix._built(c, 0.0 if excess <= 0 else None)


def _square_excess(x: complex):
    """``(a, b)``, integers with ``|x|^2 - 1 = a / b`` exactly, from the integer ratios of
    x's parts."""
    (p, q), (r, s) = x.real.as_integer_ratio(), x.imag.as_integer_ratio()
    return (p * s) ** 2 + (r * q) ** 2 - (q * s) ** 2, (q * s) ** 2


def _unimodular(x: complex) -> bool:
    """True iff ``|x|`` is within ``_EPS_UNIMODULAR`` of 1; a NaN fails it."""
    return abs(abs(x) - 1.0) <= _EPS_UNIMODULAR


def _from_powers(entries: np.ndarray, what: str, points, parent: Optional[float] = None,
                 rho: float = 0.0) -> "PhaseMatrix":
    """``PhaseMatrix._built(entries, parent, rho)`` for entries built from powers of
    unimodular ``points``.

    :func:`_unimodular` lets ``|x|`` leave 1 by ``_EPS_UNIMODULAR``, and powers up to D - 1
    drift by ``| |x|^(2 (D - 1)) - 1 |``.  A refusal names a point whose drift exceeds
    ``_EPS_HERM``, with D and the drift, rather than the matrix check that failed.
    """
    try:
        return PhaseMatrix._built(entries, parent, rho)
    except ValueError:
        d = entries.shape[0]
        drifts = {x: abs(abs(x) ** (2 * (d - 1)) - 1.0) for x in points}
        x = max(drifts, key=drifts.get, default=None)
        if x is None or not drifts[x] > _EPS_HERM:
            raise
        raise ValueError(
            f"{what} {x} has |x| - 1 = {abs(x) - 1.0:.3g}: at D = {d} the modulus of its "
            f"powers drifts {drifts[x]:.3g} from 1, past the phase-matrix slack {_EPS_HERM}"
        ) from None


def _probability_ok(weights=(), mass: float = 1.0) -> bool:
    """The probability-vector rule: no weight below -_EPS_PROB, and mass within _EPS_PROB of 1.

    A caller sums ``mass`` in its own order, and tests each part alone by leaving the other
    at its default when it reports the two apart.  Written so that a NaN fails it.
    """
    floor_ok = np.all(np.asarray(weights) >= -_EPS_PROB)
    return bool(floor_ok and abs(mass - 1.0) <= _EPS_PROB)


def _probability_vector(weights) -> np.ndarray:
    """The weights as a flat float array; ValueError unless they are a probability vector."""
    lam = np.asarray(weights, dtype=float).ravel()
    if not (lam.size and _probability_ok(lam, lam.sum())):
        shown = np.array2string(lam, separator=", ", threshold=8)
        raise ValueError(f"weights must be a probability vector, got {shown}")
    return lam


def state_generated(weights, dim: int) -> PhaseMatrix:
    """Phase matrix of the observable generated by a diagonal state.

    ``weights`` is the probability vector over number states (anything
    :class:`numpy` can coerce; trailing zeros allowed).  Support at or
    beyond ``LEVEL_CUTOFF`` raises :class:`TruncationError` rather than
    truncating silently.  The exact matrix ``sum_s lam_s K_s`` is PSD, each
    kernel K_s being a Gram matrix; each computed entry is within
    ``gamma_(_ROUND_KERNEL + 1 + |support|) sum_s lam_s`` of it, for the
    kernel entries (at most 1 in modulus), each weight's product and the sums.
    """
    lam = _probability_vector(getattr(weights, "weights", weights))
    support = np.nonzero(lam > 0)[0]
    if support.size and support[-1] >= LEVEL_CUTOFF:
        raise TruncationError(
            f"state support reaches level {support[-1]}, above the cutoff {LEVEL_CUTOFF}"
        )
    c = np.zeros((dim, dim))
    for s in support:
        c += lam[s] * c_state_matrix(int(s), dim)
    rho = _rounding_slack(_ROUND_KERNEL + 1 + support.size, dim, math.fsum(lam[support]))
    return PhaseMatrix._built(c, 0.0, rho)


def from_eta(vectors) -> PhaseMatrix:
    """Gram matrix of a family of unit vectors (PSD by construction).

    Each computed entry is a complex dot product of length r, within
    ``gamma_(3r) |v_m| . |v_n| <= gamma_(3r) (1 + EPS_GRAM)^2`` of the exact Gram
    entry (:data:`_ROUND_CDOT`, Cauchy-Schwarz and the unit-norm check).
    """
    v = np.asarray(vectors, dtype=np.complex128)
    if v.ndim != 2:
        raise ValueError("expected a (D, r) array of row vectors")
    norms = np.linalg.norm(v, axis=1)
    bad = np.abs(norms - 1.0) > EPS_GRAM
    if bad.any():
        raise ValueError(f"vector {int(bad.argmax())} is not unit norm")
    rho = _rounding_slack(_ROUND_CDOT * v.shape[1], v.shape[0], (1.0 + EPS_GRAM) ** 2)
    return PhaseMatrix._built(v.conj() @ v.T, 0.0, rho)


def example4(n0: int, dim: int) -> PhaseMatrix:
    """Identity block followed by an all-ones tail starting at index n0."""
    if n0 < 0:
        raise ValueError("need n0 >= 0")
    c = np.eye(dim, dtype=np.complex128)
    c[n0:, n0:] = 1.0
    # exact entries of the Gram matrix of e_0, ..., e_(n0-1), then e_(n0) repeated
    return PhaseMatrix._built(c, 0.0)


def example5(dim: int) -> PhaseMatrix:
    """Rank-2 Gram family: e0, e1, (e0+e1)/sqrt2, (e0+ie1)/sqrt2, then e0."""
    f1 = np.array([1.0, 0.0], dtype=np.complex128)
    f2 = np.array([0.0, 1.0], dtype=np.complex128)
    special = [f1, f2, (f1 + f2) / np.sqrt(2.0), (f1 + 1j * f2) / np.sqrt(2.0)]
    vecs = [special[n] if n < 4 else f1 for n in range(dim)]
    return from_eta(np.array(vecs))


def _pivoted_cholesky(a: np.ndarray) -> np.ndarray:
    """A (D, k) factor L with ``a ~ L L^*`` and k <= D, by diagonally pivoted Cholesky.

    Each step takes the column of ``a - L L^*`` at its largest remaining diagonal entry
    (Higham, "Analysis of the Cholesky decomposition of a semi-definite matrix", 1990;
    Harbrecht, Peters & Schneider, Appl. Numer. Math. 62 (2012) 428), until that entry is
    at most ``_PIVOT_STOP`` times max diag(a), or all D columns are taken.
    """
    d = a.shape[0]
    diag = a.diagonal().real.copy()
    stop = _PIVOT_STOP * diag.max()
    rows = np.empty((d, d), dtype=a.dtype)  # rows[j] is column j of L
    for k in range(d):
        p = int(diag.argmax())
        if diag[p] <= stop:
            return rows[:k].T
        # column p of a - L L^*, read from row p of the Hermitian a
        col = a[p].conj() - rows[:k].T @ rows[:k, p].conj()
        col /= math.sqrt(diag[p])
        rows[k] = col
        diag -= (col * col.conj()).real
    return rows.T


def _weyl_spectrum(a: np.ndarray, lf: np.ndarray):
    """``(w, v, e)``: ``L^* L = V diag(w) V^*`` and ``e >= ||a - L L^*||_2``.

    ``L L^*`` has the nonzero eigenvalues w, with eigenvectors ``L V diag(w)^(-1/2)``, and
    the other D - k eigenvalues 0.  By Weyl's inequality each eigenvalue of the Hermitian
    ``a`` lies within e of the same-ranked one of ``L L^*``.  e is the Frobenius norm of the
    residual, formed explicitly, times ``1 + gamma_(c D^2 + 4)``, plus
    ``gamma_(n (D + k) + k) ||L||_F^2``, with ``(n, c) = (1, 1)`` for a real L and
    ``(_ROUND_CDOT, 2)`` for a complex one.  The norm's square sums the c D^2 squared real
    parts of the residual within ``gamma_(c D^2)``; its root, the subtraction before it and
    the division to undo them fit in 4 roundings more.  A dot product of length j is within
    ``gamma_(n j)`` of the sum of its products' moduli (:data:`_ROUND_CDOT`), so
    ``gamma_(n k) ||L||_F^2`` bounds the rounding of ``L L^*`` in the residual and
    ``gamma_(n D) ||L||_F^2`` that of ``L^* L``.  The last ``gamma_k ||L||_F^2 >=
    gamma_k ||L^* L||_2`` is an estimate, not a bound, of the backward error of its
    ``eigh``: LAPACK guarantees ``p(k) u ||L^* L||_2`` with p a modest, unstated polynomial.
    The certificate is rigorous but for that one term, whose margin is wide in practice.
    """
    d, k = lf.shape
    n, c = (_ROUND_CDOT, 2) if np.iscomplexobj(lf) else (1, 1)
    gram = lf.T.conj() @ lf
    w, v = np.linalg.eigh(gram)
    resid = lf @ lf.T.conj()
    resid -= a
    e = (np.linalg.norm(resid) * (1.0 + _gamma(c * d * d + 4))
         + _gamma(n * (d + k) + k) * np.trace(gram).real)
    return w, v, e


def _rank_certified(w: np.ndarray, e: float) -> bool:
    """True iff every eigenvalue within e of w, and of the D - len(w) zeros, stays on its
    side of the cutoff ``EPS_RANK`` times the largest, which lies within e of ``w[-1]``."""
    top = w[-1]
    keep = w > EPS_RANK * top
    return bool(e < EPS_RANK * (top - e)
                and (w[keep] - e > EPS_RANK * (top + e)).all()
                and (w[~keep] + e < EPS_RANK * (top - e)).all())


def gram_factor(matrix: PhaseMatrix) -> EtaSystem:
    """Factor a phase matrix into unit vectors with the numerical rank as dimension.

    The rank counts the eigenvalues of C above ``EPS_RANK`` times the largest.  C is
    factored by a pivoted Cholesky ``C ~ L L^*`` of k <= D columns, k near the rank
    (:func:`_pivoted_cholesky`): with ``L^* L = V W V^*``, the rows of ``conj(L V)`` over
    the eigenvalues kept are the eta vectors, when Weyl's inequality certifies the rank
    (:func:`_weyl_spectrum`, :func:`_rank_certified`).  Only when it does not, C's full
    ``eigh`` gives them, as ``conj(Q) sqrt(W)`` over the eigenvalues above the cutoff.  The
    two routes give different bases of the same range, up to rounding, and the rows are
    renormalized to unit length.
    The factor is cached on the (immutable) matrix, so a repeated call returns the same
    :class:`EtaSystem` without a second factorization; its ``vectors`` are therefore
    read-only.  A matrix whose entries are all real is factored in real arithmetic
    (:func:`_lapack_operand`), at the same cutoff.
    """
    if matrix._gram is not None:
        return matrix._gram
    a = _lapack_operand(matrix.entries)
    lf = _pivoted_cholesky(a)
    w, v, e = _weyl_spectrum(a, lf)
    if _rank_certified(w, e):
        vectors = (lf @ v[:, w > EPS_RANK * w[-1]]).conj()
    else:
        w, q = np.linalg.eigh(a)
        keep = w > EPS_RANK * w[-1]
        vectors = q[:, keep].conj() * np.sqrt(w[keep])
    # the factor's roundoff can leave norms a hair off 1; renormalize rows
    vectors /= np.linalg.norm(vectors, axis=1)[:, None]
    eta = EtaSystem(rank=vectors.shape[1], vectors=vectors)
    eta.vectors.flags.writeable = False
    object.__setattr__(matrix, "_gram", eta)
    return eta


def translate(matrix: PhaseMatrix, x: complex) -> PhaseMatrix:
    """Rotate the observable by the circle point x: entries pick up x**(n-m).

    With p the computed powers, the exact result is ``diag(conj p) C diag(p)``, a congruence
    that keeps C's inertia (Sylvester) and scales its least eigenvalue by at most
    ``max |p_n|^2``, the child's diagonal.  Each entry takes two complex products, so lies
    within ``gamma_(2 _ROUND_CDOT)`` of it.  A parent without a certified slack is factored.
    """
    x = complex(x)
    if not _unimodular(x):
        raise ValueError(f"translation point must be unimodular, |x|={abs(x)}")
    d = matrix.dim
    powers = x ** np.arange(d)
    c = matrix.entries * np.outer(powers.conj(), powers)
    rho = _rounding_slack(2 * _ROUND_CDOT, d)
    return _from_powers(c, "translation point", (x,), matrix._slack, rho)


def _tol_below_one(tol: float, what: str) -> None:
    """ValueError naming the ``what`` tol unless ``tol < 1`` (NaN fails); callers say why."""
    if not tol < 1.0:
        raise ValueError(f"{what} tol must be below 1, got {tol}")


def u_equivalent(
    m1: PhaseMatrix, m2: PhaseMatrix, tol: float = EPS_EQUIV
) -> Optional[np.ndarray]:
    """Unimodular sequence lambda with ``c1 = lam_n * conj(lam_m) * c2``.

    Entrywise moduli must agree within ``tol``; the phases are propagated
    by BFS over the graph of nonzero entries of ``m2``, fixing the free
    phase of each connected component to 1 at its smallest index, and
    every edge (tree and non-tree) is verified.  Each dequeued vertex
    finds its unvisited neighbours with one array test, in index order;
    the phase arithmetic stays scalar, because numpy's array complex
    multiply and ``abs`` do not round like the scalar ones, and the
    result is pinned bit for bit.  The search stops once every index has
    a phase.  Returns ``None`` when no such sequence exists at this
    truncation.  A ``tol`` of 1 or more (or NaN) raises ``ValueError``
    (:func:`_tol_below_one`): every modulus would agree within tol and no entry exceed it,
    so no phase would be fixed by an entry, and a residual of moduli at most 1 would pass.
    """
    _tol_below_one(tol, "equivalence")
    if m1.dim != m2.dim:
        raise ValueError("dimension mismatch")
    d = m1.dim
    c1, c2 = m1.entries, m2.entries
    if np.abs(np.abs(c1) - np.abs(c2)).max() > tol:
        return None
    support = np.abs(c2) > tol
    lam = np.zeros(d, dtype=np.complex128)
    unphased = d
    for root in range(d):
        if lam[root] != 0:
            continue
        lam[root] = 1.0
        unphased -= 1
        queue = deque([root])
        # once every index has a phase, the dequeues left find no neighbour to visit
        while queue and unphased:
            m = queue.popleft()
            # lam[m] != 0 already, so m is not its own neighbour here
            for n in np.nonzero(support[m] & (lam == 0))[0].tolist():
                # c1[m,n] = lam[n] * conj(lam[m]) * c2[m,n]
                ratio = c1[m, n] / c2[m, n]
                cand = ratio * lam[m]
                mag = abs(cand)
                if abs(mag - 1.0) > 10 * tol:
                    return None
                lam[n] = cand / mag
                unphased -= 1
                queue.append(n)
    residual = c1 - np.outer(lam.conj(), lam) * c2
    if np.abs(residual).max() > tol:
        return None
    return lam
