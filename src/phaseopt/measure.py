"""States, arcs on the circle, effect operators and outcome densities.

The effect operator of an outcome set X has entries
``c[m, n] * integral over X of t**(m-n)`` with the integral taken against
normalized arc length; every probability and density below is derived
from that kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from ._serialize import matrix_from_dict, matrix_to_dict
from .phase_matrix import (
    EPS_PSD, _EPS_HERM, PhaseMatrix, _gamma, _hermitian_rebuild, _lapack_operand,
    _probability_vector, _toeplitz, _unimodular, psd_certified)
from .specfun import displacement_element

__all__ = [
    "TWO_PI",
    "DEFAULT_GRID",
    "Arc",
    "DensityMatrix",
    "DiagonalState",
    "CoherentVector",
    "fourier_arc",
    "effect_operator",
    "effect_norm",
    "density",
    "prob",
    "number_unitary",
    "et_quadrature_oracle",
]

TWO_PI = 2.0 * math.pi
DEFAULT_GRID = 512
# smallest stored coherent amplitude: the square of anything below it is not a normal float
_AMP_FLOOR = math.sqrt(np.finfo(float).tiny)
# excess over 2pi of one arc component, and overlap of two, read as endpoint rounding
_ARC_SLACK = 1e-12
# excess over 2pi of the total arc length, room for the rounding of many components
_ARC_TOTAL_SLACK = 1e-9
# a component ending this close above 2pi is kept whole, not split off a wrapped sliver
_ARC_WRAP_SLACK = 1e-15
# slack of a state's unit trace, the rounding of a normalized D x D state
_EPS_TRACE = 1e-10
# Least eigenvalue bound of a pure state as DensityMatrix.from_pure stores it.  Each
# computed entry fl(v_m conj(v_n)) is within sqrt(2) gamma_2 |v_m| |v_n| of v_m conj(v_n)
# (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., Lemma 3.5), and the
# Hermitian rebuild keeps that bound entrywise, so the stored matrix is v v^* + F with
# ||F||_2 <= || |F| ||_2 <= sqrt(2) gamma_2 ||v||^2.  The unit-trace check holds ||v||^2
# below 2, so no eigenvalue lies below -2 sqrt(2) gamma_2, about -6.3e-16: inside
# -EPS_PSD, which the tests of from_pure assert, so from_pure runs no PSD check of its own.
_PURE_PSD_BOUND = 2.0 * math.sqrt(2.0) * _gamma(2)


@dataclass(frozen=True)
class Arc:
    """Finite disjoint union of half-open arcs on the circle.

    Each component is ``(start, length)`` with start normalized to
    [0, 2pi) and length in (0, 2pi]; components may individually wrap
    past 2pi but must be pairwise disjoint with total length <= 2pi.
    """

    components: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        comps = []
        intervals = []  # the components as non-wrapping intervals inside [0, 2pi)
        for start, length in self.components:
            if not 0.0 < length <= TWO_PI + _ARC_SLACK:
                raise ValueError(f"arc length {length} outside (0, 2pi]")
            start = float(start)
            if not math.isfinite(start):
                raise ValueError(f"arc start {start} is not finite")
            start, length = start % TWO_PI, min(float(length), TWO_PI)
            comps.append((start, length))
            end = start + length
            if end <= TWO_PI + _ARC_WRAP_SLACK:
                intervals.append((start, end))
            else:
                intervals += [(start, TWO_PI), (0.0, end - TWO_PI)]
        total = sum(l for _, l in comps)
        if total > TWO_PI + _ARC_TOTAL_SLACK:
            raise ValueError(f"total arc length {total} exceeds 2pi")
        intervals.sort()
        for (a0, b0), (a1, b1) in zip(intervals, intervals[1:]):
            if a1 < b0 - _ARC_SLACK:
                raise ValueError("arc components overlap")
        object.__setattr__(self, "components", tuple(comps))

    @staticmethod
    def interval(start: float, length: float) -> "Arc":
        return Arc(((start, length),))

    @staticmethod
    def full() -> "Arc":
        return Arc(((0.0, TWO_PI),))

    @staticmethod
    def half() -> "Arc":
        return Arc(((0.0, math.pi),))


def _fourier_arc_table(arc: Arc, ks: np.ndarray) -> np.ndarray:
    """:func:`fourier_arc` at each integer of ``ks``, one array expression per component."""
    nonzero = ks != 0
    k = np.where(nonzero, ks, 1)  # k = 0 takes the arc measure below, not this quotient
    total = np.zeros(ks.shape, dtype=np.complex128)
    for start, length in arc.components:
        total += np.where(
            nonzero,
            (np.exp(1j * k * (start + length)) - np.exp(1j * k * start)) / (TWO_PI * 1j * k),
            length / TWO_PI,
        )
    return total


def fourier_arc(arc: Arc, k: int) -> complex:
    """Normalized Fourier integral of ``exp(i k theta)`` over the arc."""
    return complex(_fourier_arc_table(arc, np.array([k]))[0])


def _state_entries(entries) -> np.ndarray:
    """The Hermitian rebuild of a finite, Hermitian, unit-trace square matrix, else ValueError."""
    rho = np.asarray(entries, dtype=np.complex128)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("state must be a square matrix")
    if not np.isfinite(rho).all():
        raise ValueError("state entries must be finite")
    dev, rho = _hermitian_rebuild(rho)
    if dev.max() > _EPS_HERM:
        raise ValueError("state is not Hermitian")
    if abs(rho.trace().real - 1.0) > _EPS_TRACE:
        raise ValueError(f"state trace {rho.trace().real} is not 1")
    rho.flags.writeable = False
    return rho


@dataclass(frozen=True)
class DensityMatrix:
    """Truncated state: Hermitian, PSD and trace one.

    Entries given to the constructor (so ``from_dict`` and a ``--state-file``) are certified
    PSD by :func:`psd_certified`.  :meth:`from_pure` proves it from the rounding bound of
    its outer product instead (``_PURE_PSD_BOUND``), and keeps the other checks.
    """

    entries: np.ndarray

    def __post_init__(self):
        rho = _state_entries(self.entries)
        if not psd_certified(rho, EPS_PSD):
            raise ValueError("state is not positive semidefinite")
        object.__setattr__(self, "entries", rho)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @staticmethod
    def from_pure(vec) -> "DensityMatrix":
        """The pure state of ``vec`` normalized, certified PSD by its construction."""
        v = np.asarray(vec, dtype=np.complex128).ravel()
        v = v / np.linalg.norm(v)
        rho = _state_entries(np.outer(v, v.conj()))
        state = object.__new__(DensityMatrix)
        object.__setattr__(state, "entries", rho)
        return state

    def to_dict(self) -> dict:
        return {
            **matrix_to_dict(self.entries),
            "trace": float(self.entries.trace().real),
        }

    @staticmethod
    def from_dict(data: dict) -> "DensityMatrix":
        return DensityMatrix(matrix_from_dict(data))


@dataclass(frozen=True)
class DiagonalState:
    """Diagonal state given by its probability weights over number states."""

    weights: np.ndarray

    def __post_init__(self):
        lam = np.clip(_probability_vector(self.weights), 0.0, None)
        last = int(np.nonzero(lam)[0][-1])
        lam = lam[: last + 1].copy()
        lam.flags.writeable = False
        object.__setattr__(self, "weights", lam)

    @property
    def support_max(self) -> int:
        return self.weights.size - 1


@dataclass(frozen=True)
class CoherentVector:
    """Truncated, renormalized coherent state with its captured weight.

    ``fidelity`` is the probability weight of the untruncated state that
    the first ``dim`` levels capture; callers should gate on it before
    trusting concentration results.  A non-finite ``z``, or one whose
    captured weight underflows to 0, raises ``ValueError``.  Amplitudes
    below ``_AMP_FLOOR`` are stored as exact 0 (``fidelity`` is taken
    before): their weight is not a normal float, and their products
    would be subnormal.
    """

    z: complex
    dim: int
    amplitudes: np.ndarray = field(init=False, repr=False)
    fidelity: float = field(init=False)

    def __post_init__(self):
        z = complex(self.z)
        if not np.isfinite(z):
            raise ValueError(f"coherent amplitude must be finite, got {z}")
        n = np.arange(self.dim)
        if z == 0:
            amps = np.zeros(self.dim, dtype=np.complex128)
            amps[0] = 1.0
            captured = 1.0
        else:
            r = abs(z)
            log_mod = -0.5 * r * r + n * math.log(r) - 0.5 * np.array(
                [math.lgamma(k + 1.0) for k in range(self.dim)]
            )
            amps = np.exp(log_mod) * np.exp(1j * n * np.angle(z))
            captured = float(np.exp(2 * log_mod).sum())
            if not captured > 0.0:
                raise ValueError(
                    f"the weight of the coherent state at z = {z} in its first "
                    f"{self.dim} levels underflows to 0"
                )
            amps = amps / math.sqrt(captured)
            amps[np.abs(amps) < _AMP_FLOOR] = 0.0
        amps.flags.writeable = False
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "fidelity", captured)

    def density_matrix(self) -> DensityMatrix:
        return DensityMatrix.from_pure(self.amplitudes)


def effect_operator(matrix: PhaseMatrix, arc: Arc) -> np.ndarray:
    """Effect of the outcome set: entrywise c[m,n] * fourier_arc(m - n)."""
    d = matrix.dim
    return matrix.entries * _toeplitz(_fourier_arc_table(arc, np.arange(-(d - 1), d)))


def _centred_arc_table(arc: Arc, ks: np.ndarray) -> np.ndarray:
    """:func:`fourier_arc` times ``exp(-i k phi)`` at each integer of ``ks``, with ``phi`` the
    first component's midpoint: ``sum_j exp(i k (mid_j - phi)) sin(k L_j / 2) / (pi k)``.
    The first term carries no phase factor, so a one-component arc gives a real table."""
    nonzero = ks != 0
    k = np.where(nonzero, ks, 1)  # k = 0 takes the arc measure below, not this quotient
    mids = [start + 0.5 * length for start, length in arc.components]
    amps = [np.where(nonzero, np.sin(0.5 * k * length) / (math.pi * k), length / TWO_PI)
            for _, length in arc.components]
    total = amps[0]
    for mid, amp in zip(mids[1:], amps[1:]):
        total = total + amp * np.exp(1j * ks * (mid - mids[0]))
    return total


def effect_norm(matrix: PhaseMatrix, arc: Arc) -> float:
    """Operator norm (largest eigenvalue) of the effect of the arc.

    It is read from ``U E U^*`` with ``U = diag(exp(-i n phi))``, a unitary similarity that
    keeps the spectrum of :func:`effect_operator`.  Its table (:func:`_centred_arc_table`) is
    real for a one-component arc, so a real-entried matrix goes to the real ``syevd``.
    """
    d = matrix.dim
    centred = matrix.entries * _toeplitz(_centred_arc_table(arc, np.arange(-(d - 1), d)))
    return float(np.linalg.eigvalsh(_lapack_operand(centred))[-1])


def _trig_on_grid(freqs: np.ndarray, coeffs: np.ndarray, points: int) -> np.ndarray:
    """``sum_j coeffs[j] * exp(2 pi i freqs[j] g / points)`` at g = 0, ..., points - 1.

    The modes are folded by frequency mod ``points``, which is exact because each
    exponential is periodic in the frequency with that period, then summed by one
    inverse FFT: O(len(coeffs) + points log points) work and memory.
    """
    idx = np.mod(freqs, points).ravel()
    folded = np.empty(points, dtype=np.complex128)
    folded.real = np.bincount(idx, coeffs.real.ravel(), points)
    folded.imag = np.bincount(idx, coeffs.imag.ravel(), points)
    return points * np.fft.ifft(folded)


def density(matrix: PhaseMatrix, rho: DensityMatrix, grid: int = DEFAULT_GRID):
    """Outcome probability density sampled on a uniform angle grid.

    The entry ``c[m, n] * rho[n, m]`` is the coefficient of ``exp(i (m - n) theta)``;
    :func:`_trig_on_grid` folds the entries by ``(m - n) mod grid`` and sums them by one
    inverse FFT of length ``grid``.  Returns ``(thetas, values)``; values are real and
    may dip a hair below zero (truncated Fourier series), they are not clamped.
    """
    if matrix.dim != rho.dim:
        raise ValueError(f"dimension mismatch: {matrix.dim} vs {rho.dim}")
    levels = np.arange(matrix.dim)
    a = matrix.entries * rho.entries.T  # a[m, n] = c[m, n] * rho[n, m]
    values = _trig_on_grid(np.subtract.outer(levels, levels), a, grid).real / TWO_PI
    return np.linspace(0.0, TWO_PI, grid, endpoint=False), values


def prob(matrix: PhaseMatrix, rho: DensityMatrix, arc: Arc) -> float:
    """Outcome probability tr(rho * E(arc))."""
    if matrix.dim != rho.dim:
        raise ValueError(f"dimension mismatch: {matrix.dim} vs {rho.dim}")
    return float(np.tensordot(rho.entries.T, effect_operator(matrix, arc)).real)


def number_unitary(t: complex, dim: int) -> np.ndarray:
    """Number representation U(t) = diag(t**n) for |t| = 1."""
    if not _unimodular(t):
        raise ValueError("t must lie on the unit circle")
    return np.diag(complex(t) ** np.arange(dim))


def _oracle_window(dim: int, support_max: int) -> Tuple[float, int]:
    """Radial cutoff and Gauss-Legendre node count of :func:`et_quadrature_oracle`.

    ``|<m|D(r)|s>|^2`` has Gaussian tails beyond its outer turning point ``sqrt(m) + sqrt(s)``
    (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)): the cutoff adds a margin of 6 to it at
    m = dim - 1 and s = support_max, floored at 10 so small requests keep the pinned (10, 160).
    """
    r_max = max(10.0, math.sqrt(max(dim - 1, 0)) + math.sqrt(support_max) + 6.0)
    return r_max, math.ceil(16 * r_max)


def et_quadrature_oracle(state: DiagonalState, arc: Arc, dim: int) -> np.ndarray:
    """Phase-space average of shifted diagonal states, by direct quadrature.

    Integrates (1/pi) * D(z) T D(z)^* over z = r e^{i theta}, theta in the
    arc and r in [0, r_max].  As ``<m|D(z)|s> = f_ms(r) e^{i (m - s) theta}``
    with real ``f_ms``, entry (m, n) is a radial Gauss-Legendre sum of
    ``lambda_s r f_ms f_ns`` (one ``dim x quad_points`` table of
    displacement elements per support level) times the exact integral of
    ``e^{i (m - n) theta}`` over the arc.  It shares no code with
    :func:`effect_operator`, which it checks.  Its window (:func:`_oracle_window`),
    ``r_max = max(10, sqrt(dim - 1) + sqrt(support_max) + 6)`` and ``ceil(16 r_max)`` nodes,
    kept the deviation within 8.3e-13 on the half arc for dim <= 512 and levels < 64.
    ``numpy.polynomial`` is imported here, on first use, not with the module.
    """
    from numpy.polynomial.legendre import leggauss

    r_max, quad_points = _oracle_window(dim, state.support_max)
    x_r, w_r = leggauss(quad_points)
    radii = 0.5 * r_max * (x_r + 1.0)
    w_radii = 0.5 * r_max * w_r * radii
    levels = np.arange(dim)
    radial = np.zeros((dim, dim))
    for s in np.nonzero(state.weights)[0]:
        f = displacement_element(levels[:, None], int(s), radii).real
        radial += state.weights[s] * (f * w_radii) @ f.T
    # integral over [a, a + L) of e^{ik theta} = L e^{ik (a + L/2)} sinc(kL / 2pi)
    k = np.subtract.outer(levels, levels)
    angular = sum(
        length * np.exp(1j * k * (start + 0.5 * length)) * np.sinc(k * length / TWO_PI)
        for start, length in arc.components
    )
    return radial * angular / math.pi
