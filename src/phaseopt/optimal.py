"""Optimality verdicts: sharpness trend, extremality, post- and preprocessing.

Sharpness is undecidable at finite truncation, so the check reports
"consistent at truncation D" backed by deviation trends over nested index
windows; the other three criteria reduce to finite linear algebra on the
truncated matrix and are decided outright (again, at truncation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Tuple

import numpy as np

from .measure import TWO_PI, DiagonalState, _trig_on_grid
from ._serialize import complex_from_pairs, is_finite_real
from .phase_matrix import (
    _ROUND_CDOT, EPS_EQUIV, EPS_RANK, EtaSystem, PhaseMatrix, _from_powers, _gamma,
    _lapack_operand, _probability_ok, _rounding_slack, _square_excess, _toeplitz,
    _tol_below_one, _unimodular, _weyl_spectrum, gram_factor)
from .specfun import c_fock_0_2k

__all__ = [
    "CircleMeasure",
    "smear",
    "SharpnessReport",
    "approx_sharp_check",
    "ExtremalReport",
    "extremal_check",
    "RealEntriesCertificate",
    "real_nonextremal_shortcut",
    "NotStateGeneratedError",
    "recovery_depth",
    "recover_state",
    "CriterionInapplicableError",
    "post_equiv_class",
    "canonical_channel",
    "CovariantChannelSpec",
    "identity_channel_spec",
    "tail_recovery_spec",
    "preprocess",
    "preclean_check",
    "MAX_DENSITY_COEFFS",
]

DEFAULT_SHARP_WINDOW = 16
DEFAULT_SHARP_KMAX = 3
# frozen from the measured decay of the state-generated entries
# (deviation ~ k^2 (2s+1) / (8m); worst case in the suite is ~0.09)
DEFAULT_SHARP_TOL = 0.2
DEFAULT_TAIL_TOL = 1e-6
# growth between sharpness window maxima read as rounding, not as a rising trend
_EPS_TREND = 1e-12
# largest imaginary part read as 0 (h_0 of a real density, a real-entried matrix)
_EPS_IMAG = 1e-12
# a witness pair's entry modulus must be below 1 - this: nearer parallel, it resolves nothing
_EPS_PAIR = 1e-9
# largest trace of the real-entries witness against a projector
_EPS_WITNESS = 1e-10
# dip below 0 of a CircleMeasure density on its grid read as the rounding of a touch at 0
_EPS_DENSITY = 1e-10
# excess of a CircleMeasure's |h_k| over h_0: a density p >= -eps has |h_k| <= mean |p|,
# which is at most h_0 + 2 eps
_EPS_DENSITY_COEFF = 2.0 * _EPS_DENSITY
# floor of post_equiv_class's tol, so that tol = 0 does not demand exact agreement
_EPS_TRANSLATE = 1e-12
# slack of the unit total weight of each q-slice of a CovariantChannelSpec
_EPS_CHANNEL_WEIGHT = 1e-10
# floor of preclean_check's second-eigenvalue bound 4 k tol: eigvalsh rounding at tol = 0
_EPS_TAIL_EIGEN = 1e-10
# slack in the recovered weights and total mass of recover_state
_RECOVERY_TOL = 1e-6
# noise of one (0, 2k) entry read by recover_state, a generous bound on the kernel's rounding
_RECOVERY_ENTRY_EPS = 1e-13
# Most density_coeffs a CircleMeasure takes: its positivity test evaluates the density on
# 8 points per coefficient, 8 MB of complex values at this bound.
MAX_DENSITY_COEFFS = 1 << 16
# Taylor order of the positivity test's model of the density on a grid cell: Bernstein's
# remainder (K w)^17 ||p|| / 17! is below 4e-22 ||p|| at the grid's K w <= pi / 8
_DENSITY_ORDER = 16
# each refinement level of the positivity test splits an open cell into this many cells
_DENSITY_SPLIT = 16
# most refinement levels, 16^-12 of a grid cell, before the test gives up undecided
_DENSITY_LEVELS = 12


@dataclass(frozen=True)
class CircleMeasure:
    """Probability measure on the circle: atoms plus a trig-polynomial density.

    ``atoms`` is a tuple of ``(position, weight)`` with unimodular
    positions; ``density_coeffs`` holds the one-sided Fourier coefficients
    h_0..h_K of the absolutely continuous density w.r.t. normalized arc
    length (real density, so h_{-k} = conj(h_k) implicitly).  The Fourier
    transform exposed by :meth:`fourier` is nu_hat(k) = integral of
    s**(-k) d nu(s).
    """

    atoms: Tuple[Tuple[complex, float], ...] = ()
    density_coeffs: Tuple[complex, ...] = ()

    def __post_init__(self):
        # every test is written so that a NaN fails it
        atoms = []
        for pos, w in self.atoms:
            pos = complex(pos)
            if not _unimodular(pos):
                raise ValueError("atom positions must be unimodular")
            if not _probability_ok((w,)):
                raise ValueError("atom weights must be nonnegative numbers")
            atoms.append((pos, float(w)))
        coeffs = tuple(complex(c) for c in self.density_coeffs)
        mass = sum(w for _, w in atoms) + (coeffs[0].real if coeffs else 0.0)
        if not _probability_ok(mass=mass):
            raise ValueError(f"total mass {mass} is not 1")
        if len(coeffs) > MAX_DENSITY_COEFFS:
            raise ValueError(
                f"density_coeffs holds {len(coeffs)} coefficients, more than {MAX_DENSITY_COEFFS}"
            )
        if coeffs:
            if abs(coeffs[0].imag) > _EPS_IMAG:
                raise ValueError("h_0 must be real")
            bad = np.flatnonzero(~np.isfinite(coeffs))
            if bad.size:
                raise ValueError(f"density coefficient h_{bad[0]} = {coeffs[bad[0]]} is not finite")
            # refused before the grid, where a huge coefficient overflows
            over = np.flatnonzero(np.abs(coeffs) > coeffs[0].real + _EPS_DENSITY_COEFF)
            if over.size:
                k = over[0]
                raise ValueError(f"density coefficient |h_{k}| = {abs(coeffs[k])} exceeds "
                                 f"h_0 = {coeffs[0].real}, which no nonnegative density allows")
            _certify_density(np.asarray(coeffs))
        object.__setattr__(self, "atoms", tuple(atoms))
        object.__setattr__(self, "density_coeffs", coeffs)

    @staticmethod
    def dirac(x: complex) -> "CircleMeasure":
        return CircleMeasure(atoms=((x, 1.0),))

    def fourier(self, k: int) -> complex:
        out = 0.0j
        for pos, w in self.atoms:
            out += w * pos ** (-k)
        if self.density_coeffs:
            ak = abs(k)
            if ak < len(self.density_coeffs):
                c = self.density_coeffs[ak]
                out += c if k >= 0 else c.conjugate()
        return complex(out)

    def to_dict(self) -> dict:
        return {
            "atoms": [
                {"angle": float(np.angle(p) % TWO_PI), "weight": w} for p, w in self.atoms
            ],
            "density_coeffs": [[c.real, c.imag] for c in self.density_coeffs],
        }

    @staticmethod
    def from_dict(data: dict) -> "CircleMeasure":
        raw = data.get("atoms", [])
        if not isinstance(raw, list) or not all(
            isinstance(a, dict) and all(is_finite_real(a.get(k)) for k in ("angle", "weight"))
            for a in raw
        ):
            raise ValueError(
                'atoms must be a list of {"angle": x, "weight": w} with finite numbers'
            )
        atoms = tuple(
            (complex(math.cos(a["angle"]), math.sin(a["angle"])), float(a["weight"]))
            for a in raw
        )
        coeffs = tuple(complex_from_pairs(data.get("density_coeffs", []), "density_coeffs"))
        return CircleMeasure(atoms=atoms, density_coeffs=coeffs)


def _certify_density(coeffs: np.ndarray) -> None:
    """ValueError unless ``p(theta) = h_0 + 2 Re sum_{k >= 1} h_k e^(ik theta)`` is at least
    ``-_EPS_DENSITY`` on the whole circle, up to the rounding of its evaluation.

    p is sampled on ``points = max(1024, 8 len(coeffs))`` points, and a sample below the
    slack is refused.  Sampling alone misses dips between the points, so each point c is
    the centre of a cell of half-width ``w = pi / points``, on which p is its Taylor
    polynomial ``T(s) = sum_{n <= _DENSITY_ORDER} q_n s^n`` in ``s = (theta - c) / w``, with
    ``q_n = p^(n)(c) w^n / n!``, up to a remainder R: Bernstein's inequality
    ``|p^(n)| <= K^n ||p||`` at degree K bounds it by ``(K w)^(n + 1) ||p|| / (n + 1)!`` at
    ``n = _DENSITY_ORDER``, with ``||p|| <= h_0 + 2 sum |h_k|``.  Each row q_n over the grid
    is one :func:`_trig_on_grid` of the coefficients ``h_k (ikw)^n / n!``.  A cell is
    cleared when ``q_0 - sum_{n >= 1} |q_n| - R``, a lower bound of p on it, is at least the
    slack.  An open cell is split ``_DENSITY_SPLIT`` ways, each part's polynomial re-expanded
    about its own centre by one fixed matrix, until no cell is open, or a centre reads
    below the slack by more than R, a dip, or ``_DENSITY_LEVELS`` splits leave cells open,
    undecided.  Near a double zero of p the bound is about ``-p'' w^2 / 2``, so each split
    clears all but a few of the cells near each zero.  The evaluation rounding, far below
    ``_EPS_DENSITY`` for any admitted coefficients, is left to that slack.
    """
    points = max(1024, 8 * (len(coeffs) - 1))
    half = math.pi / points
    ks = np.arange(len(coeffs))

    def taylor_row(n):
        row = 2.0 * _trig_on_grid(ks, coeffs * (1j * ks * half) ** n, points).real
        return row / math.factorial(n) - (coeffs[0].real if n == 0 else 0.0)

    values = taylor_row(0)
    if not values.min() >= -_EPS_DENSITY:
        raise ValueError(f"density dips to {values.min()} on the grid")
    degree = int(np.flatnonzero(coeffs)[-1]) if coeffs.any() else 0
    if degree == 0:
        return
    norm = coeffs[0].real + 2.0 * np.abs(coeffs[1:]).sum()
    order = _DENSITY_ORDER
    remainder = (degree * half) ** (order + 1) / math.factorial(order + 1) * norm
    # the lower bound is summed one row at a time, and the rows are kept for open cells only
    low = values - sum(np.abs(taylor_row(n)) for n in range(1, order + 1))
    cells = np.flatnonzero(low - remainder < -_EPS_DENSITY)
    q = np.stack([taylor_row(n)[cells] for n in range(order + 1)], axis=1)
    theta = 2.0 * half * cells
    # part j of a cell has centre s_j and half-width 1 / split in s; its coefficients are
    # q @ shift[:, j], T(s_j + s' / split) = sum_m (sum_n C(n, m) q_n s_j^(n - m)) s'^m / split^m
    split = _DENSITY_SPLIT
    centres = (2.0 * np.arange(split) - (split - 1)) / split
    n, m = np.arange(order + 1)[:, None], np.arange(order + 1)
    binom = np.array([[math.comb(a, b) for b in range(order + 1)] for a in range(order + 1)])
    powers = np.power.outer(centres, np.maximum(n - m, 0)).transpose(1, 0, 2)
    shift = (binom[:, None, :] * powers / float(split) ** m).reshape(order + 1, -1)
    for _ in range(_DENSITY_LEVELS):
        if not cells.size:
            return
        q = (q @ shift).reshape(-1, order + 1)
        theta = np.add.outer(theta, half * centres).ravel()
        half /= split
        if not q[:, 0].min() >= -_EPS_DENSITY - remainder:
            at = int(q[:, 0].argmin())
            raise ValueError(f"density dips to {q[at, 0]} at theta = {theta[at] % TWO_PI} "
                             "between the grid points")
        cells = np.flatnonzero(q[:, 0] - np.abs(q[:, 1:]).sum(axis=1) - remainder
                               < -_EPS_DENSITY)
        q, theta = q[cells], theta[cells]
    if cells.size:
        raise ValueError(f"cannot certify that the density is nonnegative: {cells.size} cells "
                         f"of width {2.0 * half:.3g} are still open after {_DENSITY_LEVELS} "
                         "refinement levels")


def _atom_table_error(atoms, table: np.ndarray) -> np.ndarray:
    """Bounds of ``|t_k - tau_k|`` for k = 0..D-1: ``t_k = table[k]`` as computed, and
    ``tau_k = sum_j w_j u_j^(-k)`` with ``u_j = x_j / |x_j|`` for the atoms ``(x_j, w_j)``.

    The bound is a posteriori and trusts IEEE arithmetic alone, not libm, on which
    ``x ** (-k)`` rests past |k| = 100.  The reference powers ``p_jk`` of ``y_j = conj(x_j)``
    are a running product: ``p_j0 = 1``, ``p_j1 = y_j`` exactly, and each later one a complex
    product, so ``|p_jk - y_j^k| <= gamma_(3(k - 1)) |y_j|^k`` (Higham, Lemma 3.5, with
    ``sqrt(2) gamma_2 <= gamma_3``, and Lemma 3.3).  ``q_k = sum_j w_j p_jk`` is a dot product
    of length n (:data:`_ROUND_CDOT`), so ``|q_k - sum_j w_j y_j^k| <= gamma_(3(k + n))
    sum_j w_j |x_j|^k``.  Since ``y_j^k = |x_j|^k u_j^(-k)``, the drift is
    ``| |x_j|^k - 1 | <= (1 + delta_j)^k - 1 <= k delta_j / (1 - k delta_j) = g_jk`` with
    ``delta_j = | |x_j|^2 - 1 |``, computed from the integer ratios of x_j's parts and rounded
    once (:func:`_square_excess`): ``| |x| - 1 | = delta / (|x| + 1)`` is about half of it,
    which covers that rounding.
    So ``|t_k - tau_k| <= |t_k - q_k| + gamma_(3(k + n)) sum_j w_j (1 + g_jk) + sum_j w_j g_jk``,
    the measured gap read as ``sqrt(re^2 + im^2)``; the rounding of the bound's own
    evaluation, relative u, is in the headroom of :func:`_rounding_slack`.
    """
    d, n = len(table), len(atoms)
    points = np.array([x for x, _ in atoms])
    weights = np.array([w for _, w in atoms])
    steps = np.empty((n, d), dtype=np.complex128)
    steps[:, 0] = 1.0
    steps[:, 1:] = points.conj()[:, None]
    gap = table - weights @ np.cumprod(steps, axis=1)
    delta = [abs(a) / b for a, b in map(_square_excess, points)]
    k = np.arange(d)
    drift = np.outer(delta, k)
    drift = weights @ (drift / (1.0 - drift))
    gamma = _gamma(_ROUND_CDOT * (k + n))
    return np.sqrt(gap.real ** 2 + gap.imag ** 2) + gamma * (weights.sum() + drift) + drift


def smear(matrix: PhaseMatrix, nu: CircleMeasure) -> PhaseMatrix:
    """Postprocess by a circle measure: entries multiply by nu_hat(m - n).

    The stored matrix is the Hermitian rebuild of the lower triangle, entries
    ``fl(c[m, n] t_k)`` with ``k = m - n >= 0`` and ``t_k = nu.fourier(k)``.  An atomic measure
    (no density, every weight >= 0) over a parent with a certified slack sigma gives a child
    certified by its construction.  Its exact target is ``A = C o T``, with
    ``T = sum_j w_j v_j v_j^*`` and ``(v_j)_m = u_j^(-m)``, ``u_j = x_j / |x_j|``, so that
    ``T[m, n] = tau_(m - n)``, ``tau_k = sum_j w_j u_j^(-k)``.  ``(C + sigma I) o T`` is PSD
    (Horn & Johnson, *Topics in Matrix Analysis*, Thm 5.2.1), so ``lambda_min(A) >= -sigma
    sum_j w_j``, sigma times the child's diagonal, as in :func:`preprocess`.  The rebuild
    differs from A by a Hermitian E with ``E[m, n] = c[m, n] e_k + r_mn`` for m >= n, where
    ``e_k = t_k - tau_k`` and ``|r_mn| <= sqrt(2) gamma_2 |c[m, n]| |t_k|`` is the rounding of
    one complex product.  Its Toeplitz part is ``sum_k`` of e_k (below the diagonal) and
    conj(e_k) (above) times C restricted to the k-th diagonals: one entry of modulus at most
    ``max |c|`` per row and column on each, of 2-norm at most ``max |c|``.  So
    ``||E||_2 <= max |c| (|e_0| + 2 sum_(k >= 1) |e_k|) + D gamma_(_ROUND_CDOT) max |t_k|``,
    with :func:`_atom_table_error` bounding |e_k| and ``max |c| <= 1 + 10 EPS_PSD`` in the
    headroom of :func:`_rounding_slack`.  Every other smear is factored: a density (certified
    only to ``-_EPS_DENSITY``), a negative weight (allowed to ``-_EPS_PROB``), a parent without
    a slack (so every CLI ``smear``), and a bound that reaches ``EPS_PSD`` (for a Dirac, from
    D = 400 to 500 on, as the point's rounding falls).
    """
    d = matrix.dim
    coeffs = np.array([nu.fourier(k) for k in range(-(d - 1), d)])
    parent, rho = None, 0.0
    if matrix._slack is not None and not nu.density_coeffs and all(w >= 0.0 for _, w in nu.atoms):
        table = coeffs[d - 1:]
        error = _atom_table_error(nu.atoms, table)
        scale = (np.abs(table.real) + np.abs(table.imag)).max()
        parent = matrix._slack
        rho = error[0] + 2.0 * error[1:].sum() + _rounding_slack(_ROUND_CDOT, d, scale)
    return _from_powers(matrix.entries * _toeplitz(coeffs), "atom", [p for p, _ in nu.atoms],
                        parent, rho)


@dataclass(frozen=True)
class SharpnessReport:
    """Trend evidence for the off-diagonal limits c[m, m+k] -> u**k."""

    estimated_u: complex
    max_tail_deviation: float
    trend: Tuple[float, ...]
    verdict: str
    window: int
    k_max: int
    tol: float
    dim: int

    @property
    def consistent(self) -> bool:
        return self.verdict == "consistent"

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "estimated_u": [self.estimated_u.real, self.estimated_u.imag],
            "max_tail_deviation": self.max_tail_deviation,
            "trend": list(self.trend),
            "window": self.window,
            "k_max": self.k_max,
            "tol": self.tol,
            "dim": self.dim,
        }


def approx_sharp_check(
    matrix: PhaseMatrix, tol: float = DEFAULT_SHARP_TOL
) -> SharpnessReport:
    """Test consistency with an off-diagonal unimodular limit at truncation.

    The candidate u is the phase of the first off-diagonal entry at the
    largest index where it is resolvable; deviations ``|c[m, m+k] - u**k|``
    for ``k <= DEFAULT_SHARP_KMAX`` are collected over three consecutive
    windows below the truncation edge and the verdict is "consistent" iff
    the top-window deviation is below ``tol`` and the per-window maxima do
    not increase toward the edge.  The window is the largest block size
    (up to ``DEFAULT_SHARP_WINDOW``) for which three blocks fit below the
    edge.
    """
    d = matrix.dim
    k_max = DEFAULT_SHARP_KMAX
    window = max(1, min(DEFAULT_SHARP_WINDOW, (d - k_max - 1) // 3))
    if window + k_max >= d:
        raise ValueError("window + k_max must be smaller than the dimension")
    c = matrix.entries
    first_off = np.diagonal(c, offset=1)
    resolvable = np.nonzero(np.abs(first_off) > tol)[0]
    u, maxima = 0.0j, []
    if resolvable.size:
        top = first_off[resolvable[-1]]
        u = top / abs(top)
        n_blocks = min(3, (d - k_max) // window)
        for b in range(n_blocks, 0, -1):
            lo = d - k_max - b * window
            hi = d - k_max - (b - 1) * window
            dev = 0.0
            for k in range(1, k_max + 1):
                seg = c[np.arange(lo, hi), np.arange(lo, hi) + k]
                dev = max(dev, float(np.abs(seg - u ** k).max()))
            maxima.append(dev)
    tail_dev = maxima[-1] if maxima else float("nan")
    monotone = all(a >= b - _EPS_TREND for a, b in zip(maxima, maxima[1:]))
    verdict = "consistent" if (tail_dev < tol and monotone) else "inconsistent"
    return SharpnessReport(
        estimated_u=complex(u),
        max_tail_deviation=tail_dev,
        trend=tuple(maxima),
        verdict=verdict,
        window=window,
        k_max=k_max,
        tol=tol,
        dim=d,
    )


@dataclass(frozen=True)
class ExtremalReport:
    """Span test over the rank-one projectors of an eta system."""

    extremal: bool
    rank: int
    span_dim: int
    required: int
    dim: int

    def to_dict(self) -> dict:
        return {
            "verdict": "extremal" if self.extremal else "not-extremal",
            "rank": self.rank,
            "span_dim": self.span_dim,
            "required": self.required,
            "dim": self.dim,
        }


def extremal_check(eta: EtaSystem) -> ExtremalReport:
    """Extremal at truncation iff the projectors span the full operator space.

    The projectors ``P_n = eta_n eta_n^*`` are whitened first: with the thin
    QR ``V = QR`` of the D x r eta matrix, the invertible map
    ``X -> R^T X conj(R)`` sends ``q_n q_n^*`` to ``P_n``, so the span
    dimension is the rank of the whitened Hilbert-Schmidt Gram matrix
    ``|Q Q^*|^2`` (entrywise).  ``Q Q^*`` projects onto C's kept eigenspace,
    so this rank does not depend on the spread of C's eigenvalues, and it is
    read at ``EPS_RANK``, the cutoff that fixed r: one cutoff decides.  A real factor takes
    the real QR.  When r^2 < D the spectrum is read from the r^2 x r^2 matrix ``K^* K``, with
    ``K[m, (i, j)] = conj(q_mi) q_mj``: ``K K^* = |Q Q^*|^2`` has the same nonzero spectrum.
    """
    r, d = eta.rank, eta.dim
    q, _ = np.linalg.qr(_lapack_operand(eta.vectors))
    if r * r < d:
        k = (q.conj()[:, :, None] * q[:, None, :]).reshape(d, r * r)
        w = np.linalg.eigvalsh(k.conj().T @ k)
    else:
        w = np.linalg.eigvalsh(np.abs(q @ q.conj().T) ** 2)
    span = int((w > EPS_RANK * w[-1]).sum())
    return ExtremalReport(span == r * r, r, span, r * r, d)


@dataclass(frozen=True)
class RealEntriesCertificate:
    """Non-extremality witness for real phase matrices of rank > 1.

    ``operator`` is the antisymmetric witness built from the first
    resolvably independent eta pair; its trace against every projector
    vanishes, so the projectors cannot span the operator space.
    """

    pair: Tuple[int, int]
    max_residual: float
    rank: int
    operator: np.ndarray = field(repr=False, default=None)


def real_nonextremal_shortcut(matrix: PhaseMatrix) -> Optional[RealEntriesCertificate]:
    """Certificate that a real-entried matrix of rank > 1 is not extremal."""
    if np.abs(matrix.entries.imag).max() > _EPS_IMAG:
        return None
    eta = gram_factor(matrix)
    if eta.rank <= 1:
        return None
    mods = np.abs(matrix.entries.copy())
    np.fill_diagonal(mods, 1.0)
    m, n = np.unravel_index(int(mods.argmin()), mods.shape)
    if mods[m, n] > 1.0 - _EPS_PAIR:
        return None
    v = eta.vectors
    witness = np.outer(v[m], v[n].conj()) - np.outer(v[n], v[m].conj())
    # over G = conj(V) V^T, tr(W P_k) = G_km G_nk - G_kn G_mk = 2i Im(G_km conj G_kn)
    g_m, g_n = v.conj() @ v[m], v.conj() @ v[n]
    max_res = float(2.0 * np.abs((g_m * g_n.conj()).imag).max())
    if max_res > _EPS_WITNESS:
        return None
    return RealEntriesCertificate(
        pair=(int(m), int(n)), max_residual=max_res, rank=eta.rank, operator=witness
    )


class NotStateGeneratedError(ValueError):
    """The matrix is not consistent with any diagonal state at this depth."""


@lru_cache(maxsize=512)
def _fock_row(k: int) -> tuple:
    """The coefficients ``c_fock_0_2k(s, k + 1)`` for s = 0..k of level k."""
    return tuple(c_fock_0_2k(s, k + 1) for s in range(k + 1))


def recovery_depth(dim: int) -> int:
    """Deepest level whose defining column 2*(depth+1) still fits in dim."""
    return max(0, (dim + 1) // 2 - 2)


def recover_state(matrix: PhaseMatrix, depth: Optional[int] = None) -> DiagonalState:
    """Reconstruct the generating diagonal state from the (0, 2k) entries.

    Solves the triangular system
    ``c[0, 2(k+1)] = sum_{s <= k} lam_s * c_fock_0_2k(s, k+1)``
    level by level (each new level enters with a structurally nonzero
    coefficient).  The closed form ``c_fock_0_2k(s, k+1)`` is bitwise equal
    to ``c_state(s, 0, 2(k+1))``.  The dividing coefficients shrink
    super-exponentially, so a floating noise bound is propagated alongside
    the weights; levels are rejected as negative only beyond both
    ``_RECOVERY_TOL`` and that bound, and values below the bound are read
    as zero.  Raises :class:`NotStateGeneratedError` on resolvably negative
    weights, when the total mass leaves 1 by more than ``_RECOVERY_TOL``
    plus the noise bound, or when every level reads as zero (the noise
    bound then exceeds the whole mass).
    """
    d = matrix.dim
    if depth is None:
        depth = recovery_depth(d)
    if depth < 0:
        raise ValueError(f"depth must be non-negative, got {depth}")
    if 2 * (depth + 1) >= d:
        raise ValueError(f"depth {depth} needs dimension > {2 * (depth + 1)}")
    lam = []
    errs = []
    for k in range(depth + 1):
        col = 2 * (k + 1)
        target = matrix.entries[0, col]
        if abs(target.imag) > _RECOVERY_TOL:
            raise NotStateGeneratedError(f"entry (0, {col}) is not real")
        coeffs = _fock_row(k)
        acc = target.real - sum(lam[s] * coeffs[s] for s in range(k))
        noise = _RECOVERY_ENTRY_EPS + sum(
            errs[s] * abs(coeffs[s]) for s in range(k)
        )
        denom = coeffs[k]
        val = acc / denom
        err = noise / abs(denom)
        if val < -max(_RECOVERY_TOL, 10.0 * err):
            raise NotStateGeneratedError(
                f"recovered weight {val} at level {k} is negative"
            )
        if abs(val) < err:
            val = 0.0
        lam.append(val)
        errs.append(err)
        if sum(lam) > 1.0 + _RECOVERY_TOL + sum(errs):
            raise NotStateGeneratedError(
                f"recovered mass {sum(lam)} exceeds 1 at level {k}"
            )
    total = sum(lam)
    slack = _RECOVERY_TOL + sum(errs)
    if total < 1.0 - slack:
        raise NotStateGeneratedError(
            f"recovered mass {total} falls short of 1 at depth {depth}"
        )
    weights = np.clip(np.array(lam), 0.0, None)
    if not weights.sum() > 0.0:
        raise NotStateGeneratedError(
            f"no recovered weight exceeds its noise bound at depth {depth}"
        )
    return DiagonalState(weights / weights.sum())


class CriterionInapplicableError(ValueError):
    """A verdict was requested outside the hypotheses it is proved under."""


def post_equiv_class(
    m1: PhaseMatrix, m2: PhaseMatrix, tol: float = EPS_EQUIV
) -> Optional[complex]:
    """Circle point x with ``c2 = c1 * x**(n-m)``, if the matrices admit one.

    Postprocessing equivalence of approximately sharp observables is a
    pure translation, so both inputs must pass the sharpness consistency
    check at ``DEFAULT_SHARP_TOL`` first; otherwise the criterion does not
    apply and :class:`CriterionInapplicableError` is raised.  A ``tol`` of 1
    or more (or NaN) raises ``ValueError``, as :func:`u_equivalent` does.
    """
    _tol_below_one(tol, "equivalence")
    if m1.dim != m2.dim:
        raise ValueError("dimension mismatch")
    for which, m in (("first", m1), ("second", m2)):
        sharp = approx_sharp_check(m)
        if not sharp.consistent:
            raise CriterionInapplicableError(
                f"{which} input fails the approximate-sharpness precheck at tol {sharp.tol}"
            )
    d = m1.dim
    c1, c2 = m1.entries, m2.entries
    if np.abs(np.abs(c1) - np.abs(c2)).max() > tol:
        return None
    candidates = []
    for k in range(1, d):
        diag1 = np.diagonal(c1, offset=k)
        diag2 = np.diagonal(c2, offset=k)
        idx = np.nonzero((np.abs(diag1) > tol) & (np.abs(diag2) > tol))[0]
        if idx.size:
            ratio = diag2[idx[0]] / diag1[idx[0]]
            ratio /= abs(ratio)
            # k-th roots of the ratio; all branches are tried
            base = np.angle(ratio)
            candidates = [
                complex(np.exp(1j * (base + TWO_PI * j) / k)) for j in range(k)
            ]
            break
    if not candidates:
        # both matrices are diagonal; any x works, pick the identity
        return 1.0 + 0.0j
    exponents = -np.arange(-(d - 1), d)  # n - m along the Toeplitz table
    for x in candidates:
        factor = _toeplitz(np.power(x, exponents))
        if np.abs(c2 - c1 * factor).max() <= max(tol, _EPS_TRANSLATE) * 10:
            return x
    return None


def canonical_channel(matrix: PhaseMatrix) -> Callable[[np.ndarray], np.ndarray]:
    """Dephasing-type channel tying the observable to the canonical one.

    Returns the map ``rho -> [c[n, m] * rho[m, n]]_{m, n}`` (entrywise
    multiplication by the transposed phase matrix); the outcome density
    of the observable equals the canonical density of the mapped state.
    """
    pattern = matrix.entries.T.copy()

    def channel(rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=np.complex128)
        if rho.shape != pattern.shape:
            raise ValueError("state dimension does not match the phase matrix")
        return pattern * rho

    return channel


@dataclass(frozen=True)
class CovariantChannelSpec:
    """Vector family phi[q, n] defining a covariant preprocessing channel.

    ``phi`` has shape (D, D, aux); for each q the total weight
    ``sum_n ||phi[q, n]||^2`` must be 1.
    """

    phi: np.ndarray

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=np.complex128)
        if phi.ndim != 3 or phi.shape[0] != phi.shape[1]:
            raise ValueError("phi must have shape (D, D, aux)")
        weights = (np.abs(phi) ** 2).sum(axis=(1, 2))
        # written so that a NaN weight fails it
        if not np.abs(weights - 1.0).max() <= _EPS_CHANNEL_WEIGHT:
            raise ValueError("each q-slice of phi must carry unit total weight")
        phi.flags.writeable = False
        object.__setattr__(self, "phi", phi)

    @property
    def dim(self) -> int:
        return self.phi.shape[0]


def identity_channel_spec(dim: int) -> CovariantChannelSpec:
    """The spec phi[q, n] = delta_{q n} e0, i.e. no preprocessing at all."""
    phi = np.zeros((dim, dim, 1), dtype=np.complex128)
    q = np.arange(dim)
    phi[q, q, 0] = 1.0
    return CovariantChannelSpec(phi)


def tail_recovery_spec(dim: int, n0: int, lambdas) -> CovariantChannelSpec:
    """Channel spec concentrating on the unimodular tail at offset n0.

    ``lambdas`` are the unimodular tail phases indexed from 0 to D-1
    (entries below n0 are ignored); the spec is phi[q, q + n0] =
    conj(lambda_{q + n0}) * lambda_{n0} * e0, and phi[q, q] = e0 for the last n0 rows, which
    keeps their normalization at the truncation edge.  n0 outside [0, D), or ``lambdas`` of
    another length than D, raises ``ValueError``.  The products are written out in real
    arithmetic, as numpy's scalar complex product rounds them (its array product may not).
    """
    lam = np.asarray(lambdas, dtype=np.complex128)
    if not 0 <= n0 < dim:
        raise ValueError(f"n0 must lie in [0, {dim}), got {n0}")
    if lam.shape != (dim,):
        raise ValueError(f"lambdas must hold {dim} phases, got shape {lam.shape}")
    a, b = lam[n0:].conj(), lam[n0]
    tail = np.empty(dim - n0, dtype=np.complex128)
    tail.real = a.real * b.real - a.imag * b.imag
    tail.imag = a.real * b.imag + a.imag * b.real
    phi = np.zeros((dim, dim, 1), dtype=np.complex128)
    q = np.arange(dim)
    phi[q[: dim - n0], q[n0:], 0] = tail
    phi[q[dim - n0 :], q[dim - n0 :], 0] = 1.0
    return CovariantChannelSpec(phi)


def preprocess(matrix: PhaseMatrix, spec: CovariantChannelSpec) -> PhaseMatrix:
    """Phase matrix of the observable measured after the covariant channel.

    Entry (q, p) is ``sum_n c[n, n + (p - q)] * <phi[q, n], phi[p, n + (p - q)]>``, vectors
    beyond the truncation edge counting as 0.  Only offsets ``t = n - q`` where the spec has a
    nonzero vector contribute: with ``B_t[q] = phi[q, q + t]`` and ``G_t[q, p] = <B_t[q], B_t[p]>``
    the entry is ``sum_t G_t[q, p] c[q + t, p + t]``, one Schur product per offset, O(D^2 |T| aux)
    work by ``einsum`` and elementwise products with no BLAS call.  Each ``G_t`` is exactly
    Hermitian, and the identity spec returns the entries of ``matrix`` bit for bit.

    The exact result is a sum of Schur products of Gram matrices with principal blocks of C,
    PSD when C is (Horn & Johnson, *Topics in Matrix Analysis*, Thm 5.2.1); C's least
    eigenvalue -sigma enters scaled by at most the child's largest diagonal entry, which is
    the map applied to the identity.  Each term of an entry takes a dot product of length aux,
    a complex product and at most |T| sums: within ``gamma_(_ROUND_CDOT (aux + 1) + |T|)`` of
    the sum of their moduli, at most ``|c| sum_t |B_t[q]| |B_t[p]|``, about 1 for a spec of
    unit weight.  A parent without a certified slack is factored.
    """
    if spec.dim != matrix.dim:
        raise ValueError("channel spec dimension does not match the matrix")
    d, c, phi = matrix.dim, matrix.entries, spec.phi
    rows, cols = np.nonzero(phi.any(axis=2))
    offsets = np.unique(cols - rows).tolist()
    out = np.zeros((d, d), dtype=np.complex128)
    for t in offsets:
        lo, hi = max(0, -t), min(d, d - t)
        band = phi[np.arange(lo, hi), np.arange(lo + t, hi + t)]
        gram = np.einsum("qa,pa->qp", band.conj(), band)
        out[lo:hi, lo:hi] += gram * c[lo + t : hi + t, lo + t : hi + t]
    rho = _rounding_slack(_ROUND_CDOT * (phi.shape[2] + 1) + len(offsets), d,
                          1.0 + _EPS_CHANNEL_WEIGHT)
    return PhaseMatrix._built(out, matrix._slack, rho)


def preclean_check(matrix: PhaseMatrix, tol: float = DEFAULT_TAIL_TOL) -> Optional[int]:
    """Smallest n0 whose tail block is unimodular (hence rank-one).

    Looks for the least n0 with ``|c[m, n]| >= 1 - tol`` for all
    m, n >= n0; Cauchy-Schwarz equality then forces the rank-one
    factorization on the tail, which is verified by an explicit
    second-eigenvalue test.  Returns ``None`` when no such n0 exists at
    this truncation.  A trailing 1 x 1 block is vacuous evidence, so the
    tail must span at least two indices.  The stored matrix is Hermitian
    by construction, so ``|c|`` is exactly symmetric and the minimum over
    the block from n0 on is the minimum of the upper-triangle row minima
    of rows n0..D-1: one suffix minimum decides every candidate.  A tail
    whose entries are all real takes the real ``eigvalsh``.  A ``tol`` of 1 or more (or
    NaN) raises ``ValueError``: every modulus then passes, and the second-eigenvalue test
    too, so the answer would not read the matrix.

    The second eigenvalue of the k x k tail T is bounded first, in O(k^2) and with no
    factorization.  With the tail's first column u as a rank-one factor,
    :func:`phase_matrix._weyl_spectrum` certifies ``e >= ||T - u u^*||_2``, so by Weyl's
    inequality ``lambda_2(T)`` lies within e of ``lambda_2(u u^*) = 0``.  When e, plus
    ``gamma_k ||T||_F <= gamma_k (||u||^2 + e)`` for the backward error of ``eigvalsh`` (an
    estimate, as in ``_weyl_spectrum``), is within ``4 k tol + _EPS_TAIL_EIGEN``, the
    ``eigvalsh`` test passes too, and n0 is returned without it; otherwise ``eigvalsh``
    decides.  For a PSD tail, ``T - u u^*`` is the Schur complement of ``T[0, 0] = 1``, PSD
    with trace ``sum_m (1 - |T[m, 0]|^2) <= 2 k tol``, so the bound fails only where rounding
    rivals ``4 k tol`` or the tail is PSD only to ``-EPS_PSD``.
    """
    _tol_below_one(tol, "preclean")
    d = matrix.dim
    upper = np.where(np.tri(d, k=-1, dtype=bool), np.inf, np.abs(matrix.entries))
    block_min = np.minimum.accumulate(upper.min(axis=1)[::-1])[::-1]
    hits = np.nonzero(block_min[: d - 1] >= 1.0 - tol)[0]
    if not hits.size:
        return None
    n0 = int(hits[0])
    tail = _lapack_operand(matrix.entries[n0:, n0:])
    k = d - n0
    bound = 4.0 * k * tol + _EPS_TAIL_EIGEN
    w, _, e = _weyl_spectrum(tail, tail[:, :1])
    if e + _gamma(k) * (w[0] + e) > bound and np.linalg.eigvalsh(tail)[-2] > bound:
        return None
    return n0
