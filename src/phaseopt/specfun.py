"""Associated Laguerre polynomials, Gamma moments and phase-matrix entries.

Everything downstream (state-generated phase matrices, the diagonal-state
recovery, the sharpness sweeps) rests on the exponential-weight overlap
integrals evaluated here.  The inner alternating sums are done in exact
integer arithmetic and only the final irrational prefactors (square roots
of factorial ratios, sqrt(pi)) are applied in floating point, so entries
that are mathematically zero come out as exact 0.0 and diagonal entries
come out as 1 to machine precision even at large indices.

scipy is needed only by :func:`displacement_element` (its Laguerre
evaluator) and is imported there on first use, so importing this module,
or the package, loads numpy and no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "RationalPolynomial",
    "laguerre",
    "gamma_moment",
    "laguerre_moment",
    "f_sn",
    "c_state",
    "c_state_matrix",
    "c_fock_0_2k",
    "displacement_element",
]

# factorials above this are converted to floats through lgamma
_LOG_SPACE_CUTOFF = 150
_SQRT_PI = math.sqrt(math.pi)


@lru_cache(maxsize=None)
def _fact(n: int) -> int:
    return math.factorial(n)


def _ratio_sqrt(num: int, den: int) -> float:
    """sqrt(num/den) for big positive integers, correctly rounded ratio."""
    if num == 0:
        return 0.0
    shift = den.bit_length() - num.bit_length() + 64
    if shift >= 0:
        q = (num << shift) // den
    else:
        q = num // (den << -shift)
    return math.sqrt(math.ldexp(float(q), -shift))


@dataclass(frozen=True)
class RationalPolynomial:
    """Dense polynomial in one variable; coefficients indexed by power.

    Coefficients are exact `Fraction`s when produced by :func:`laguerre`
    and become floats once an irrational scale is folded in.  Arithmetic
    never drops terms; trailing zeros are trimmed so that ``degree`` is
    the index of the last nonzero coefficient.
    """

    coefficients: tuple

    @staticmethod
    def from_coefficients(coeffs) -> "RationalPolynomial":
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return RationalPolynomial(tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        n = max(len(self.coefficients), len(other.coefficients))
        out = [0] * n
        for i, c in enumerate(self.coefficients):
            out[i] = out[i] + c
        for i, c in enumerate(other.coefficients):
            out[i] = out[i] + c
        return RationalPolynomial.from_coefficients(out)

    def __mul__(self, other):
        if isinstance(other, RationalPolynomial):
            out = [0] * (len(self.coefficients) + len(other.coefficients) - 1 or 1)
            for i, a in enumerate(self.coefficients):
                for j, b in enumerate(other.coefficients):
                    out[i + j] += a * b
            return RationalPolynomial.from_coefficients(out)
        return RationalPolynomial.from_coefficients(c * other for c in self.coefficients)

    __rmul__ = __mul__

    def __call__(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * x + float(c)
        return acc


def laguerre(alpha: int, k: int) -> RationalPolynomial:
    """Associated Laguerre polynomial with exact rational coefficients.

    The coefficient of ``x**l`` is ``(-1)**l * C(k + alpha, k - l) / l!``.
    """
    if alpha < 0 or k < 0:
        raise ValueError("laguerre requires nonnegative integer orders")
    coeffs = [
        Fraction((-1) ** l * math.comb(k + alpha, k - l), _fact(l)) for l in range(k + 1)
    ]
    return RationalPolynomial.from_coefficients(coeffs)


def _as_twice_integer(p: float) -> int:
    """Return round(2p) after checking 2p is integral (tolerance 1e-9)."""
    p2 = 2.0 * p
    r = round(p2)
    if abs(p2 - r) > 1e-9:
        raise ValueError(f"argument {p} is neither an integer nor a half-integer")
    return int(r)


def gamma_moment(p) -> float:
    """Integral of ``x**p * exp(-x)`` over the positive axis, i.e. Gamma(p+1).

    ``p`` must be a nonnegative integer or half-integer.  Values with
    ``p > 150`` are evaluated in log space.
    """
    p2 = _as_twice_integer(p)
    if p2 < 0:
        raise ValueError(f"gamma moment undefined for negative power {p}")
    if p > _LOG_SPACE_CUTOFF:
        try:
            return math.exp(math.lgamma(p + 1.0))
        except OverflowError:
            return math.inf
    if p2 % 2 == 0:
        return float(_fact(p2 // 2))
    # Gamma(q + 3/2) = (2q+1)!! * sqrt(pi) / 2**(q+1)
    q = (p2 - 1) // 2
    dfac = _fact(2 * q + 1) // (_fact(q) << q)
    return math.sqrt(math.pi) * math.ldexp(float(dfac), -(q + 1))


def laguerre_moment(gamma: float, alpha: int, n: int) -> float:
    """Weighted moment of an associated Laguerre polynomial.

    Evaluates the integral of ``x**(gamma-1) * L^alpha_n(x) * exp(-x)``,
    equal to ``Gamma(gamma) * poch(1 + alpha - gamma, n) / n!`` where the
    Pochhammer product replaces the Gamma-ratio so denominator poles give
    exact zeros instead of overflowing.
    """
    if gamma <= 0:
        raise ValueError(f"moment requires gamma > 0, got {gamma}")
    if alpha < 0 or n < 0:
        raise ValueError("alpha and n must be nonnegative integers")
    x = 1.0 + alpha - gamma
    if abs(x - round(x)) < 1e-9:
        x = float(round(x))
    poch = 1.0
    for i in range(n):
        poch *= x + i
    if poch == 0.0:
        return 0.0
    if gamma + 0.5 > _LOG_SPACE_CUTOFF:
        lg = math.lgamma(gamma) + math.log(abs(poch)) - math.lgamma(n + 1.0)
        return math.copysign(math.exp(lg), poch)
    return math.gamma(gamma) * poch / _fact(n)


def f_sn(s: int, n: int):
    """Factorized radial eigenfunction overlap kernel.

    Returns ``(half_power, poly, sign)`` such that the function equals
    ``sign * x**half_power * poly(x)`` with the square-root factorial
    scale folded into the polynomial coefficients.
    """
    if s < 0 or n < 0:
        raise ValueError("indices must be nonnegative")
    lo, hi = min(n, s), max(n, s)
    sign = -1 if max(0, s - n) % 2 else 1
    scale = _ratio_sqrt(_fact(lo), _fact(hi))
    poly = laguerre(hi - lo, lo) * scale
    return (hi - lo) / 2.0, poly, sign


def _laguerre_ints(h: int, k: int) -> list:
    """Coefficients of ``L_k^(h-k)`` scaled by ``k!`` to integers."""
    f = _fact(k)
    return [(-1) ** l * math.comb(h, k - l) * (f // _fact(l)) for l in range(k + 1)]


def _alt_sum(U: list, kb: int, beta: int, sigma: int) -> int:
    """Exact alternating sum R of an entry, from the scaled coefficients of one factor.

    R integrates the product of the Laguerre factor ``U`` (scaled by
    ``ka!``) and ``L_kb^beta`` (scaled by ``kb!``) against
    ``x**(sigma/2) exp(-x)``, each Gamma value divided by
    ``Gamma(sigma/2 + 1)`` and, for odd sigma, scaled by ``2**(ka + kb)``.
    The second factor needs no coefficients: its moment against
    ``x**(c-1) exp(-x)`` is ``Gamma(c) * (beta + 1 - c)_kb / kb!``
    (Chu-Vandermonde), so each power of ``U`` meets one Pochhammer product.
    """
    ka = len(U) - 1
    R = 0
    rise = 1
    if sigma % 2 == 0:
        g0 = sigma // 2 + 1
        x = beta + 1 - g0
        for l, u in enumerate(U):
            R += u * rise * math.prod(range(x - l, x - l + kb))
            rise *= g0 + l
    else:
        # doubled half-integer arguments: 2**l (c)_l and 2**kb (beta + 1 - c - l)_kb,
        # c = sigma/2 + 1
        t = 2 * beta - sigma
        for l, u in enumerate(U):
            R += u * rise * math.prod(range(t - 2 * l, t - 2 * l + 2 * kb, 2)) << (ka - l)
            rise *= sigma + 2 + 2 * l
    return R


def _prefactor_ints(s: int, m: int, n: int) -> tuple:
    """``(factor, den, odd)`` of entry (m, n): it is ``sqrt(R**2 * factor / den)``."""
    ka, ha = min(m, s), max(m, s)
    kb, hb = min(n, s), max(n, s)
    sigma = (ha - ka) + (hb - kb)
    den = _fact(ka) * _fact(kb) * _fact(ha) * _fact(hb)
    if sigma % 2 == 0:
        return _fact(sigma // 2) ** 2, den, False
    # half-integer moments; R carries the scale 2**jmax
    q0 = (sigma + 1) // 2
    den *= (1 << (4 * q0 + 2 * (ka + kb))) * _fact(q0) ** 2
    return _fact(2 * q0) ** 2, den, True


def _entry_float(R: int, factor: int, den: int, odd: bool, sign: int) -> float:
    """``sign * sign(R) * sqrt(R**2 * factor / den)``, times sqrt(pi) when odd."""
    if R == 0:
        return 0.0
    val = _ratio_sqrt(R * R * factor, den)
    if odd:
        val = _SQRT_PI * val
    return (-sign if R < 0 else sign) * val


def _c_entry(s: int, m: int, n: int) -> float:
    """Exact-arithmetic core for the overlap integral of f_sn pairs."""
    sign = -1 if (max(0, s - m) + max(0, s - n)) % 2 else 1
    U = _laguerre_ints(max(m, s), min(m, s))
    R = _alt_sum(U, min(n, s), abs(n - s), abs(m - s) + abs(n - s))
    return _entry_float(R, *_prefactor_ints(s, m, n), sign)


def c_state(s: int, m: int, n: int) -> float:
    """Phase-matrix entry of the observable generated by the number state s.

    One polynomial factorization is integrated power by power against the
    exponential weight times the other, whose moments have a closed form;
    all cancellation happens in exact integer arithmetic.  Entries killed by a Gamma pole in the
    closed form are returned as exact ``0.0``.
    """
    if s < 0 or m < 0 or n < 0:
        raise ValueError("indices must be nonnegative")
    return _c_entry(s, m, n)


_MATRIX_CACHE: dict = {}


def _kernel_row(s: int, m: int, dim: int) -> list:
    """Entries ``(m, n)`` for ``m <= n < dim``, stepping two columns at a time.

    For ``n >= s`` the denominator of :func:`_prefactor_ints` is
    ``s!**2 * m! * n!`` (times ``2**(4 q0 + 2 jmax) * q0!**2`` for odd
    sigma), and one step ``n -> n + 2`` multiplies it and the Gamma factor
    by small integers.  Each entry therefore receives the very integers
    that ``_c_entry`` builds from scratch.
    """
    row = [_c_entry(s, m, n) for n in range(m, min(s, dim))]
    start = max(m, s)
    tail = [0.0] * max(0, dim - start)
    sign = -1 if max(0, s - m) % 2 else 1
    U = _laguerre_ints(max(m, s), min(m, s))
    for n0 in range(start, min(start + 2, dim)):
        factor, den, odd = _prefactor_ints(s, m, n0)
        sigma = abs(m - s) + n0 - s
        half = (sigma + 1) // 2  # q0 when sigma is odd, g0 - 1 when even
        for n in range(n0, dim, 2):
            R = _alt_sum(U, s, n - s, sigma)
            tail[n - start] = _entry_float(R, factor, den, odd, sign)
            sigma += 2
            half += 1
            step = (n + 1) * (n + 2)
            if odd:
                factor *= ((2 * half - 1) * 2 * half) ** 2
                den *= 16 * half * half * step
            else:
                factor *= half * half
                den *= step
    return row + tail


def c_state_matrix(s: int, dim: int) -> np.ndarray:
    """Dense ``dim x dim`` matrix of ``c_state(s, m, n)`` values (cached).

    Each row builds its Laguerre coefficients once and carries the
    factorial products of its entries from column ``n`` to ``n + 2``
    instead of rebuilding them.  Every entry is still ``_ratio_sqrt`` of
    the same exact integers that :func:`c_state` uses, so the two agree
    bit for bit.
    """
    if dim < 1:
        raise ValueError("dim must be positive")
    if s < 0:
        raise ValueError("s must be nonnegative")
    cached = _MATRIX_CACHE.get(s)
    if cached is None or cached.shape[0] < dim:
        full = np.empty((dim, dim))
        for m in range(dim):
            full[m, m:] = _kernel_row(s, m, dim)
        lower = np.tril_indices(dim, -1)
        full[lower] = full.T[lower]
        _MATRIX_CACHE[s] = full
        cached = full
    out = cached[:dim, :dim].copy()
    return out


def c_fock_0_2k(s: int, k: int) -> float:
    """Closed form for the (0, 2k) entry of the number-state phase matrix.

    Vanishes exactly when ``0 < k <= s`` (denominator Gamma pole there);
    otherwise equals ``(-1)**s * k! * (k-1)! / (s! * (k-s-1)!) / sqrt((2k)!)``.
    It hands ``_ratio_sqrt`` the integers of ``c_state(s, 0, 2k)``: the
    alternating sum ``R = (k-1)! / (k-s-1)!``, the numerator ``R**2 * k!**2``
    and the denominator ``s!**2 * (2k)!``, so the two agree bit for bit.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if s < 0:
        raise ValueError("s must be nonnegative")
    if k <= s:
        return 0.0
    den = _fact(s) ** 2 * _fact(2 * k)
    return _entry_float(math.perm(k - 1, s), _fact(k) ** 2, den, False, -1 if s % 2 else 1)


@lru_cache(maxsize=None)
def _eval_genlaguerre():
    """scipy's generalized Laguerre ufunc, imported on first use."""
    from scipy.special import eval_genlaguerre

    return eval_genlaguerre


def displacement_element(m: int, n: int, z: complex) -> complex:
    """Matrix element ``<m|D(z)|n>`` of the phase-space shift operator.

    Uses the closed Laguerre form for ``m >= n`` and the symmetry
    ``<m|D(z)|n> = conj(<n|D(-z)|m>)`` otherwise.  The Laguerre value comes
    from scipy, imported on the first call rather than with the module:
    only the quadrature oracle calls this function.
    """
    if m < 0 or n < 0:
        raise ValueError("indices must be nonnegative")
    z = complex(z)
    if m < n:
        return displacement_element(n, m, -z).conjugate()
    if z == 0:
        return 1.0 + 0.0j if m == n else 0.0j
    r2 = z.real * z.real + z.imag * z.imag
    alpha = m - n
    log_amp = 0.5 * (math.lgamma(n + 1) - math.lgamma(m + 1)) + 0.5 * alpha * math.log(r2) - 0.5 * r2
    phase = complex(math.cos(alpha * math.atan2(z.imag, z.real)),
                    math.sin(alpha * math.atan2(z.imag, z.real)))
    lag = float(_eval_genlaguerre()(n, alpha, r2))
    return math.exp(log_amp) * phase * lag
