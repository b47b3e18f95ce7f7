"""Special-function layer: frozen values plus independent quadrature oracles."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import integrate
from scipy.special import eval_genlaguerre

from phaseopt import specfun
from phaseopt.specfun import c_fock_0_2k, c_state, c_state_matrix, displacement_element

SQRT_PI = math.sqrt(math.pi)


def eta_function(s, n, x):
    """Independent route to the radial kernel, via scipy's Laguerre evaluator."""
    lo, hi = min(n, s), max(n, s)
    scale = math.sqrt(math.factorial(lo) / math.factorial(hi))
    return (
        (-1.0) ** max(0, s - n)
        * scale
        * x ** (abs(s - n) / 2.0)
        * eval_genlaguerre(lo, abs(s - n), x)
    )


def overlap_quadrature(s, m, n):
    val, err = integrate.quad(
        lambda x: eta_function(s, m, x) * eta_function(s, n, x) * math.exp(-x),
        0.0,
        60.0,
        limit=300,
    )
    return val


def bits(x):
    """float64 bit patterns, so that 0.0 and -0.0 differ."""
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def rising(x, n):
    out = Fraction(1)
    for i in range(n):
        out *= x + i
    return out


def oracle_entry(s, m, n):
    """c_state(s, m, n) at 50 digits by a route that shares no code with the kernel.

    With a = min(m, s), alpha = |m - s| (b, beta likewise for n) the entry is
    sign * sqrt(a! b! / (max(m, s)! max(n, s)!)) times the integral of
    x**(gamma - 1) L_a^alpha L_b^beta exp(-x), gamma = (alpha + beta) / 2 + 1.
    Expanding both factors in L_k^(gamma - 1) and using their orthogonality
    gives the integral as Gamma(gamma) times
    sum_k (d)_(a-k) / (a-k)! * (-d)_(b-k) / (b-k)! * (gamma)_k / k!, with
    d = (alpha - beta) / 2.  That sum is exact, so a Gamma-pole zero is an
    exact 0; the irrational rest is evaluated by mpmath at 50 digits.
    """
    a, alpha = min(m, s), abs(m - s)
    b, beta = min(n, s), abs(n - s)
    d = Fraction(alpha - beta, 2)
    gamma = Fraction(alpha + beta, 2) + 1
    total = sum(
        rising(d, a - k) / math.factorial(a - k)
        * rising(-d, b - k) / math.factorial(b - k)
        * rising(gamma, k) / math.factorial(k)
        for k in range(min(a, b) + 1)
    )
    if total == 0:
        return mpmath.mpf(0)
    sign = (-1) ** (max(0, s - m) + max(0, s - n))
    with mpmath.workdps(50):
        scale = mpmath.sqrt(
            mpmath.mpf(math.factorial(a) * math.factorial(b))
            / (math.factorial(max(m, s)) * math.factorial(max(n, s)))
        )
        g = mpmath.gamma(mpmath.mpf(gamma.numerator) / gamma.denominator)
        return sign * scale * g * mpmath.mpf(total.numerator) / total.denominator


# --- Laguerre coefficients, Laguerre and Gamma moments of the kernel -------------


def kernel_laguerre(h, k, x):
    """``L_k^(h-k)(x)`` from the kernel's integer coefficients, divided by k!."""
    acc = 0.0
    for c in reversed(specfun._laguerre_ints(h, k)):
        acc = acc * x + c
    return acc / math.factorial(k)


def kernel_laguerre_moment(gamma, alpha, n):
    """Integral of ``x**(gamma - 1) L_n^alpha(x) exp(-x)`` by the kernel's moment step.

    Against a constant first factor, ``_alt_sum`` is the Chu-Vandermonde moment
    ``(1 + alpha - gamma)_n``, scaled by ``2**n`` for half-integer gamma.
    """
    sigma = round(2 * gamma) - 2
    r = specfun._alt_sum([1], n, alpha, sigma)
    return math.gamma(gamma) * r / (math.factorial(n) << (n if sigma % 2 else 0))


def kernel_gamma(sigma):
    """``Gamma(sigma/2 + 1)`` as the kernel's prefactor carries it for entry (0, sigma) at s=0."""
    factor, den, odd = specfun._prefactor_ints(0, 0, sigma)
    # den is sigma! times the half-integer scale; factor is Gamma**2 (over pi when odd)
    val = math.sqrt(factor * math.factorial(sigma) / den)
    return SQRT_PI * val if odd else val


def test_laguerre_constant():
    assert specfun._laguerre_ints(0, 0) == [1]


def test_laguerre_expansions():
    # k! L_k^(h-k): L_1^(1) = 2 - x and L_2^(2) = 6 - 4x + x^2/2
    assert specfun._laguerre_ints(2, 1) == [2, -1]
    assert specfun._laguerre_ints(4, 2) == [12, -8, 1]


def test_laguerre_matches_scipy_on_a_grid():
    xs = np.linspace(0.0, 12.0, 7)
    for alpha in range(4):
        for k in range(6):
            for x in xs:
                ours = kernel_laguerre(k + alpha, k, x)
                assert ours == pytest.approx(eval_genlaguerre(k, alpha, x), abs=1e-9)


def test_gamma_moment_small_integers():
    assert kernel_gamma(0) == 1.0
    assert kernel_gamma(2) == 1.0
    assert kernel_gamma(8) == 24.0


def test_gamma_moment_half_integer():
    assert kernel_gamma(1) == pytest.approx(SQRT_PI / 2, abs=1e-15)
    assert kernel_gamma(3) == pytest.approx(3 * SQRT_PI / 4, abs=1e-15)


def test_laguerre_moment_basics():
    assert kernel_laguerre_moment(1, 0, 0) == pytest.approx(1.0, abs=1e-14)
    assert kernel_laguerre_moment(2, 1, 1) == 0.0
    assert kernel_laguerre_moment(2, 2, 0) == pytest.approx(1.0, abs=1e-14)


def test_laguerre_moment_against_monomial_summation():
    # exact: moment / Gamma(gamma) = sum_l (-1)^l C(n + alpha, n - l) / l! * (gamma)_l
    for gamma2 in range(2, 21):
        gamma = Fraction(gamma2, 2)
        for alpha in range(9):
            for n in range(9):
                explicit = sum(
                    Fraction((-1) ** l * math.comb(n + alpha, n - l), math.factorial(l))
                    * rising(gamma, l)
                    for l in range(n + 1)
                )
                r = specfun._alt_sum([1], n, alpha, gamma2 - 2)
                scale = math.factorial(n) << (n if gamma2 % 2 else 0)
                assert Fraction(r, scale) == explicit, (gamma, alpha, n)


def test_laguerre_moment_noninteger_gamma_against_quadrature():
    for gamma, alpha, n in [(1.5, 0, 2), (2.5, 1, 3), (3.5, 2, 1)]:
        val, _ = integrate.quad(
            lambda x: x ** (gamma - 1) * eval_genlaguerre(n, alpha, x) * math.exp(-x),
            0.0,
            60.0,
            limit=200,
        )
        assert kernel_laguerre_moment(gamma, alpha, n) == pytest.approx(val, abs=1e-9)


# --- c_state ------------------------------------------------------------------


def test_c_state_known_values():
    assert c_state(0, 0, 2) == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert c_state(1, 0, 2) == 0.0
    assert c_state(0, 5, 5) == pytest.approx(1.0, abs=1e-15)


def test_c_state_against_quadrature():
    for s, m, n in [(0, 0, 1), (0, 1, 3), (1, 0, 4), (2, 2, 6), (3, 1, 5), (4, 4, 9)]:
        assert c_state(s, m, n) == pytest.approx(overlap_quadrature(s, m, n), abs=1e-9)


def test_c_state_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(40):
        s = int(rng.integers(0, 20))
        m = int(rng.integers(0, 61))
        n = int(rng.integers(0, 61))
        assert abs(c_state(s, m, n) - c_state(s, n, m)) < 1e-12


def test_c_state_unit_diagonal_far_out():
    for s in (0, 7, 14, 20):
        for n in (0, 17, 60, 120):
            assert abs(c_state(s, n, n) - 1.0) < 1e-10


def test_c_state_survives_large_indices():
    # sharpness sweeps reach indices near 300; diagonals must stay exact
    assert abs(c_state(0, 299, 299) - 1.0) < 1e-12
    assert abs(c_state(20, 300, 300) - 1.0) < 1e-10
    val = c_state(3, 280, 290)
    assert 0.0 < val < 1.0


def test_c_state_vanishing_pattern():
    for s in range(13):
        for k in range(1, 13):
            val = c_state(s, 0, 2 * k)
            if 0 < k <= s:
                assert val == 0.0
            else:
                assert abs(val) > 1e-6


def test_c_state_matrix_agrees_with_scalar():
    mat = c_state_matrix(2, 9)
    for m in range(9):
        for n in range(9):
            assert mat[m, n] == c_state(2, m, n)
    # the row kernel hands _ratio_sqrt the integers c_state builds: bit for bit
    for s in (0, 1, 2, 3, 5, 9, 16):
        mat = c_state_matrix(s, 64)
        scalar = [[c_state(s, m, n) for n in range(64)] for m in range(64)]
        assert np.array_equal(bits(mat), bits(scalar)), s


def _reference_kernel_row(s, m, dim):
    """Entries (m, n), m <= n < dim, by the row kernel as it was before R was stepped:
    the same prefactor steps, with ``_alt_sum`` called afresh at every column."""
    row = [specfun._c_entry(s, m, n) for n in range(m, min(s, dim))]
    start = max(m, s)
    tail = [0.0] * max(0, dim - start)
    sign = -1 if max(0, s - m) % 2 else 1
    U = specfun._laguerre_ints(max(m, s), min(m, s))
    for n0 in range(start, min(start + 2, dim)):
        factor, den, odd = specfun._prefactor_ints(s, m, n0)
        sigma = abs(m - s) + n0 - s
        half = (sigma + 1) // 2
        for n in range(n0, dim, 2):
            R = specfun._alt_sum(U, s, n - s, sigma)
            tail[n - start] = specfun._entry_float(R, factor, den, odd, sign)
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


@pytest.mark.parametrize("s, dim", [(0, 256), (1, 256), (2, 256), (3, 256), (5, 256),
                                    (9, 96), (16, 96), (40, 64)])
def test_c_state_matrix_equals_the_per_entry_row_kernel(s, dim):
    # at (40, 64) every class is shorter than its ka + s + 1 seeds
    mat = c_state_matrix(s, dim)
    for m in range(dim):
        assert np.array_equal(bits(mat[m, m:]), bits(_reference_kernel_row(s, m, dim))), (s, m)


def test_stepped_sums_equal_alt_sum_on_every_row():
    """R stepped by forward differences equals _alt_sum at every column of every tail
    class (s and m fixed, n >= max(m, s) stepping by 2) for s <= 16 at D = 128."""
    dim = 128
    short = stepped_on = sign_changes = inner_zeros = 0
    for s in range(17):
        for m in range(dim):
            U = specfun._laguerre_ints(max(m, s), min(m, s))
            start = max(m, s)
            for n0 in range(start, min(start + 2, dim)):
                sigma = abs(m - s) + n0 - s
                columns = range(n0, dim, 2)
                exact = [specfun._alt_sum(U, s, n - s, sigma + n - n0) for n in columns]
                assert specfun._stepped_sums(U, s, n0 - s, sigma, len(columns)) == exact, (s, m, n0)
                short += len(columns) < len(U) + s
                stepped_on += len(columns) > len(U) + s
                sign_changes += any(a * b < 0 for a, b in zip(exact, exact[1:]))
                inner_zeros += 0 in exact[1:-1]
    # both parities run for every row but the last; Gamma-pole zeros and sign changes
    # fall inside stepped classes
    assert short and stepped_on and sign_changes and inner_zeros


def power_expansion_sum(U, V, sigma):
    """R by multiplying out both Laguerre factors and integrating power by power."""
    jmax = len(U) + len(V) - 2
    W = [0] * (jmax + 1)
    for l1, u in enumerate(U):
        for l2, v in enumerate(V):
            W[l1 + l2] += u * v
    if sigma % 2 == 0:
        g0 = sigma // 2 + 1
        return sum(w * math.prod(range(g0, g0 + j)) for j, w in enumerate(W))
    # 2**jmax * (sigma/2 + 1)_j as odd-integer products
    return sum(
        w * math.prod(range(sigma + 2, sigma + 2 * j + 1, 2)) << (jmax - j)
        for j, w in enumerate(W)
    )


def test_alt_sum_equals_power_expansion():
    rng = np.random.default_rng(8)
    cases = [(s, m, n) for s in range(6) for m in range(9) for n in range(9)]
    cases += [tuple(int(v) for v in rng.integers(0, (30, 120, 120))) for _ in range(300)]
    for s, m, n in cases:
        U = specfun._laguerre_ints(max(m, s), min(m, s))
        V = specfun._laguerre_ints(max(n, s), min(n, s))
        sigma = abs(m - s) + abs(n - s)
        exact = power_expansion_sum(U, V, sigma)
        assert specfun._alt_sum(U, min(n, s), abs(n - s), sigma) == exact, (s, m, n)


def test_c_state_matrix_bitwise_at_dim_256():
    rng = np.random.default_rng(11)
    for s in (1, 5):
        mat = c_state_matrix(s, 256)
        for m, n in rng.integers(0, 256, size=(150, 2)):
            assert bits(mat[m, n]) == bits(c_state(s, int(m), int(n))), (s, m, n)


def test_c_state_against_mpmath_oracle():
    rng = np.random.default_rng(20)
    cases = [tuple(int(v) for v in rng.integers(0, (65, 513, 513))) for _ in range(60)]
    cases += [(s, 0, 2 * k) for s in (5, 40, 64) for k in (1, s // 2, s)]  # Gamma poles
    cases += [(s, m, m + 2 * j) for s, m, j in ((9, 3, 2), (30, 10, 12), (64, 0, 64))]
    cases += [(19, 0, 656), (64, 512, 512), (64, 511, 512)]
    zeros = 0
    for s, m, n in cases:
        ours, exact = c_state(s, m, n), oracle_entry(s, m, n)
        if exact == 0:
            zeros += 1
            assert bits(ours) == bits(0.0), (s, m, n, ours)
        else:
            # _ratio_sqrt rounds a 64-bit quotient, then the float, the sqrt and
            # (odd sigma) the product with sqrt(pi): at most 2 eps relative
            rel = abs((ours - exact) / exact)
            assert rel <= 2 * np.finfo(float).eps, (s, m, n, ours, float(exact))
    assert zeros >= 12


# --- c_fock_0_2k --------------------------------------------------------------


def test_c_fock_known_values():
    assert c_fock_0_2k(0, 1) == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert c_fock_0_2k(3, 2) == 0.0


def test_kernels_reject_negative_s():
    for kernel, args in ((c_fock_0_2k, (-1, 1)), (c_state_matrix, (-1, 3))):
        with pytest.raises(ValueError, match="s must be nonnegative"):
            kernel(*args)


def test_kernels_take_numpy_integers_bit_for_bit(monkeypatch):
    monkeypatch.setattr(specfun, "_MATRIX_CACHE", {})
    mat = c_state_matrix(np.int64(2), np.int32(6))
    assert np.array_equal(bits(mat), bits([[c_state(2, m, n) for n in range(6)] for m in range(6)]))
    # numpy scalar arithmetic inside the exact sum would overflow: the index is an int
    assert bits(c_state(np.int64(1), np.uint8(0), np.int16(21))) == bits(c_state(1, 0, 21))
    assert bits(c_fock_0_2k(np.int64(3), np.uint16(7))) == bits(c_fock_0_2k(3, 7))


@pytest.mark.parametrize("kernel, args, message", [
    (c_state_matrix, (True, 4), "s must be an integer, got True"),
    (c_state_matrix, (2.5, 8), "s must be an integer, got 2.5"),
    (c_state_matrix, (2, 8.0), "dim must be an integer, got 8.0"),
    (c_state_matrix, (0, 0), "dim must be positive, got 0"),
    (c_state, (1, np.float64(3.0), 2), "m must be an integer"),
    (c_state, (1, 0, -1), "n must be nonnegative, got -1"),
    (c_fock_0_2k, (0, False), "k must be an integer, got False"),
    (c_fock_0_2k, (0, 0), "k must be positive, got 0"),
])
def test_kernels_refuse_indices_that_are_not_integers(kernel, args, message):
    with pytest.raises(ValueError, match=message):
        kernel(*args)


def test_c_fock_cross_checks_integral_route():
    for s in range(13):
        for k in range(1, 13):
            assert abs(c_fock_0_2k(s, k) - c_state(s, 0, 2 * k)) < 1e-10
    # the closed form passes _ratio_sqrt the integers of c_state: bit for bit
    rng = np.random.default_rng(4)
    cases = [(19, 328), (0, 1), (3, 3), (3, 4), (40, 129)]
    cases += [(int(s), int(k)) for s, k in rng.integers((0, 1), (64, 400), size=(60, 2))]
    for s, k in cases:
        assert bits(c_fock_0_2k(s, k)) == bits(c_state(s, 0, 2 * k)), (s, k)


# --- displacement_element -----------------------------------------------------


def test_displacement_identity_at_zero():
    for m in range(5):
        for n in range(5):
            expected = 1.0 if m == n else 0.0
            assert displacement_element(m, n, 0.0) == expected


def test_displacement_coherent_overlap():
    assert displacement_element(0, 0, 1.0) == pytest.approx(math.exp(-0.5), abs=1e-15)
    z = 0.7 - 0.3j
    r2 = abs(z) ** 2
    for n in range(6):
        expected = math.exp(-r2 / 2) * z ** n / math.sqrt(math.factorial(n))
        assert displacement_element(n, 0, z) == pytest.approx(expected, abs=1e-14)


def test_displacement_symmetry_relation():
    z = 1.1 + 0.4j
    for m in range(6):
        for n in range(6):
            a = displacement_element(m, n, z)
            b = displacement_element(n, m, -z).conjugate()
            assert a == pytest.approx(b, abs=1e-13)


def test_displacement_columns_near_unit_norm():
    d = 64
    for z in (0.5, 1.3 + 0.9j, 2.0j):
        for n in range(0, 17, 4):
            col = np.array([displacement_element(m, n, z) for m in range(d)])
            assert np.linalg.norm(col) >= 1.0 - 1e-6


def test_displacement_unitarity_block():
    d, z = 40, 1.2 - 0.5j
    block = np.array(
        [[displacement_element(m, n, z) for n in range(8)] for m in range(d)]
    )
    gram = block.conj().T @ block
    assert np.abs(gram - np.eye(8)).max() < 1e-8
