"""Phase-matrix entries of number-state-generated observables.

Everything downstream (state-generated phase matrices, the diagonal-state
recovery, the sharpness sweeps) rests on the exponential-weight overlap
integrals of products of associated Laguerre polynomials evaluated here.
The Laguerre coefficients and the inner alternating sums are exact
integers and only the final irrational prefactors (square roots of
factorial ratios, sqrt(pi)) are applied in floating point, so entries
that are mathematically zero come out as exact 0.0 and diagonal entries
come out as 1 to machine precision even at large indices.

scipy is needed only by :func:`displacement_element` (its log-Gamma and
Laguerre ufuncs) and is imported there on first use, so importing this
module, or the package, loads numpy and no scipy.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate

import numpy as np

from ._serialize import is_int

__all__ = [
    "c_state",
    "c_state_matrix",
    "c_fock_0_2k",
    "displacement_element",
]

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


def _stepped_sums(U: list, kb: int, beta: int, sigma: int, count: int) -> list:
    """``_alt_sum`` at ``count`` columns, beta and sigma gaining 2 per column.

    Term l of :func:`_alt_sum` is ``u_l`` (times ``2**(ka - l)`` for odd sigma) times a
    product of l factors and one of kb, each factor gaining a constant per column: so R
    is an integer polynomial of degree ``<= ka + kb`` in the column, Gamma-pole zeros
    included.  ``ka + kb + 1`` columns are summed; the highest of their forward
    differences is constant, and running sums rebuild each lower one (Knuth, TAOCP
    vol. 2, 4.6.4), exactly, in integers.
    """
    seeds = min(count, len(U) + kb)
    sums = [_alt_sum(U, kb, beta + 2 * i, sigma + 2 * i) for i in range(seeds)]
    if count == seeds:
        return sums
    heads = []  # heads[j]: the j-th forward difference at the first column
    while sums:
        heads.append(sums[0])
        sums = [b - a for a, b in zip(sums, sums[1:])]
    sums = [heads.pop()] * count
    for head in reversed(heads):
        sums = list(accumulate(sums[:-1], initial=head))
    return sums


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


def _index(name: str, value, low: int = 0) -> int:
    """An index argument as an ``int``: an integer (numpy's too, not a bool), at least low."""
    if not is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be {'positive' if low else 'nonnegative'}, got {value}")
    return int(value)


def _c_entry(s: int, m: int, n: int) -> float:
    """Entry (m, n) built from scratch: the exact-arithmetic core of :func:`c_state`."""
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
    return _c_entry(_index("s", s), _index("m", m), _index("n", n))


_MATRIX_CACHE: dict = {}


def _kernel_row(s: int, m: int, dim: int) -> list:
    """Entries ``(m, n)`` for ``m <= n < dim``, stepping two columns at a time.

    For ``n >= s`` the denominator of :func:`_prefactor_ints` is
    ``s!**2 * m! * n!`` (times ``2**(4 q0 + 2 jmax) * q0!**2`` for odd
    sigma), and one step ``n -> n + 2`` multiplies it and the Gamma factor
    by small integers, and R is read off :func:`_stepped_sums`.  Each entry
    therefore receives the very integers that ``_c_entry`` builds from scratch.
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
        columns = range(n0, dim, 2)
        for n, R in zip(columns, _stepped_sums(U, s, n0 - s, sigma, len(columns))):
            tail[n - start] = _entry_float(R, factor, den, odd, sign)
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
    instead of rebuilding them; their exact sums R by forward differences
    (:func:`_stepped_sums`).  Every entry is still ``_ratio_sqrt`` of the same
    exact integers that :func:`c_state` uses, so the two agree bit for bit.
    """
    dim, s = _index("dim", dim, 1), _index("s", s)
    cached = _MATRIX_CACHE.get(s)
    if cached is None or cached.shape[0] < dim:
        full = np.empty((dim, dim))
        for m in range(dim):
            full[m, m:] = _kernel_row(s, m, dim)
        lower = np.tril_indices(dim, -1)
        full[lower] = full.T[lower]
        _MATRIX_CACHE[s] = full
        cached = full
    return cached[:dim, :dim].copy()


def c_fock_0_2k(s: int, k: int) -> float:
    """Closed form for the (0, 2k) entry of the number-state phase matrix.

    Vanishes exactly when ``0 < k <= s`` (denominator Gamma pole there);
    otherwise equals ``(-1)**s * k! * (k-1)! / (s! * (k-s-1)!) / sqrt((2k)!)``.
    It hands ``_ratio_sqrt`` the integers of ``c_state(s, 0, 2k)``: the
    alternating sum ``R = (k-1)! / (k-s-1)!``, the numerator ``R**2 * k!**2``
    and the denominator ``s!**2 * (2k)!``, so the two agree bit for bit.
    """
    k, s = _index("k", k, 1), _index("s", s)
    if k <= s:
        return 0.0
    den = _fact(s) ** 2 * _fact(2 * k)
    return _entry_float(math.perm(k - 1, s), _fact(k) ** 2, den, False, -1 if s % 2 else 1)


def displacement_element(m, n, z):
    """Matrix element ``<m|D(z)|n>`` of the phase-space shift operator.

    Broadcasts over arrays of ``m``, ``n`` and ``z``; scalar arguments give
    a complex.  With ``k = min(m, n)`` and ``a = |m - n|`` the element is
    ``sqrt(k!/(k+a)!) w**a exp(-|z|**2/2) L_k^a(|z|**2)``, where ``w = z``
    for ``m >= n`` and ``w = -conj(z)`` otherwise (``<m|D(z)|n> =
    conj(<n|D(-z)|m>)``).  The modulus of ``w**a`` and the factorials are
    taken as logarithms, so ``z = 0`` gives exact 0 off the diagonal and 1
    on it.  scipy is imported on the first call rather than with the
    module: only the quadrature oracle calls this function.
    """
    m, n = np.asarray(m), np.asarray(n)
    if (m < 0).any() or (n < 0).any():
        raise ValueError("indices must be nonnegative")
    from scipy.special import eval_genlaguerre, gammaln, xlogy

    z = np.asarray(z, dtype=np.complex128)
    k, a = np.minimum(m, n), np.abs(m - n)
    w = np.where(m >= n, z, -z.conj())
    r2 = w.real * w.real + w.imag * w.imag
    log_amp = 0.5 * (gammaln(k + 1) - gammaln(k + a + 1) + xlogy(a, r2) - r2)
    out = np.exp(log_amp + 1j * a * np.angle(w)) * eval_genlaguerre(k, a, r2)
    return complex(out) if out.ndim == 0 else out
