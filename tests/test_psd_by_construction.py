"""Phase matrices certified PSD by their construction: the certified slack sigma and when a
Cholesky still decides.

A matrix that ``phaseopt`` builds or derives carries ``_slack``, a proven bound
``lambda_min(entries) >= -sigma`` from the rounding of its construction, and runs no
Cholesky factorization when sigma is below ``EPS_PSD``; entries given to the constructor, and
every matrix whose PSD is not proved, are factored as before.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest

from phaseopt.optimal import (
    CircleMeasure,
    CovariantChannelSpec,
    _atom_table_error,
    identity_channel_spec,
    preprocess,
    smear,
    tail_recovery_spec,
)
from phaseopt.phase_matrix import (
    _ROUND_CDOT,
    _ROUND_KERNEL,
    EPS_GRAM,
    EPS_PSD,
    PhaseMatrix,
    _gamma,
    canonical,
    chessboard,
    example4,
    example5,
    from_eta,
    state_generated,
    translate,
    validate,
)
from test_specfun import oracle_entry

X = cmath.exp(0.7j)
STATE_WEIGHTS = [0.1, 0.25, 0.0, 0.3, 0.0, 0.35]  # levels {0, 1, 3, 5}
TWO_ATOMS = CircleMeasure(atoms=((cmath.exp(0.3j), 0.4), (cmath.exp(-1.1j), 0.6)))


def counting_cholesky(monkeypatch) -> list:
    calls = []
    cholesky = np.linalg.cholesky

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return cholesky(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    return calls


def unit_rows(dim, rank, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    return v / np.linalg.norm(v, axis=1)[:, None]


def built(dim) -> dict:
    """The five benchmark families, as the library-verdicts workload draws them, and from_eta."""
    return {
        "state": state_generated(STATE_WEIGHTS, dim),
        "canonical": canonical(dim),
        "chessboard": chessboard(cmath.rect(0.6, 2.1), dim),
        "example4": example4(5, dim),
        "example5": example5(dim),
        "from_eta": from_eta(unit_rows(dim, 5, dim)),
    }


def tail_spec(dim):
    lam = np.exp(2j * np.pi * np.random.default_rng(dim).random(dim))
    return tail_recovery_spec(dim, 3, lam)


def with_children(dim) -> dict:
    mats = built(dim)
    for name, m in list(mats.items()):
        mats[f"translate {name}"] = translate(m, X)
        mats[f"tail preprocess {name}"] = preprocess(m, tail_spec(dim))
        mats[f"Dirac smear {name}"] = smear(m, CircleMeasure.dirac(X))
        mats[f"two-atom smear {name}"] = smear(m, TWO_ATOMS)
    return mats


@pytest.mark.parametrize("dim", [64, 256])
def test_built_and_derived_matrices_make_no_factorization(monkeypatch, dim):
    mats = built(dim)
    calls = counting_cholesky(monkeypatch)
    for name, m in mats.items():
        children = {
            "translate": translate(m, X),
            "preprocess identity": preprocess(m, identity_channel_spec(dim)),
            "preprocess tail": preprocess(m, tail_spec(dim)),
            "Dirac smear": smear(m, CircleMeasure.dirac(X)),
        }
        for kind, child in children.items():
            assert child._slack is not None and child._slack < EPS_PSD, (name, kind)
    rebuilt = built(dim)
    assert calls == []
    for name, m in rebuilt.items():
        assert m._slack is not None and m._slack < EPS_PSD, name
        # the certificate changes, the entries do not
        assert np.array_equal(m.entries.view(np.uint64),
                              PhaseMatrix(m.entries).entries.view(np.uint64)), name


def test_entries_without_a_construction_are_factored_once(monkeypatch):
    dim = 64
    m5 = example5(dim)
    calls = counting_cholesky(monkeypatch)

    def one_factorization(make):
        calls.clear()
        m = make()
        assert calls == [(dim, dim)]
        assert m._slack is None
        return m

    given = one_factorization(lambda: PhaseMatrix(m5.entries))
    one_factorization(lambda: PhaseMatrix.from_dict(m5.to_dict()))
    # an atomic smear of a certified matrix is certified by its construction
    calls.clear()
    assert smear(m5, TWO_ATOMS)._slack < EPS_PSD and calls == []
    one_factorization(lambda: translate(given, X))
    one_factorization(lambda: preprocess(given, identity_channel_spec(dim)))
    # |xi| a hair above 1: the exact matrix is not PSD, the Cholesky passes it as before
    over = one_factorization(lambda: chessboard(1.0 + 1e-13, dim))
    assert validate(over.entries).ok
    calls.clear()
    assert chessboard(1.0, dim)._slack == 0.0 and calls == []


def test_smears_without_a_certificate_are_factored_once(monkeypatch):
    """A density, a negative weight, a factored parent, and a table bound that reaches
    EPS_PSD each leave the decision to one Cholesky; the entries do not depend on the route."""
    m5 = example5(64)
    given = PhaseMatrix(m5.entries)
    dirac = CircleMeasure.dirac(X)
    cases = {
        "density": (m5, CircleMeasure(atoms=((X, 0.5),), density_coeffs=(0.5, 0.2 - 0.1j))),
        "negative weight": (m5, CircleMeasure(atoms=((X, -1e-13), (cmath.exp(2j), 1 + 1e-13)))),
        "factored parent": (given, dirac),
        "Dirac at D = 512": (example5(512), dirac),
    }
    table = np.array([X ** -k for k in range(512)])
    error = _atom_table_error(dirac.atoms, table)
    assert error[0] + 2 * error[1:].sum() >= EPS_PSD
    calls = counting_cholesky(monkeypatch)
    for name, (parent, nu) in cases.items():
        calls.clear()
        child = smear(parent, nu)
        assert calls == [(parent.dim, parent.dim)] and child._slack is None, name
    # the same entries as the certified route where it applies
    assert np.array_equal(smear(given, dirac).entries.view(np.uint64),
                          smear(m5, dirac).entries.view(np.uint64))


@pytest.mark.parametrize("dim", [8, 32, 256])
def test_atom_table_bound_holds_against_mpmath_powers(dim):
    """|t_k - tau_k| <= e_k for every k, with tau_k = sum_j w_j u_j^(-k) at 40 digits and
    u_j = x_j / |x_j|; the last measure has a point off the circle by 1e-13 (the drift)."""
    measures = {
        "Dirac": CircleMeasure.dirac(X),
        "two atoms": TWO_ATOMS,
        "drifting": CircleMeasure(atoms=((X * (1 + 1e-13), 0.7), (cmath.exp(-2.9j), 0.3))),
    }
    for name, nu in measures.items():
        table = np.array([nu.fourier(k) for k in range(dim)])
        error = _atom_table_error(nu.atoms, table)
        with mpmath.workdps(40):
            units = [(mpmath.mpc(x) / abs(mpmath.mpc(x)), mpmath.mpf(w)) for x, w in nu.atoms]
            worst = max(
                abs(mpmath.mpc(complex(table[k])) - mpmath.fsum(w * u ** -k for u, w in units))
                / error[k] for k in range(dim)
            )
        assert worst <= 1, (name, float(worst))
        print(f"D={dim} {name}: worst table error {float(worst):.3g} of its bound, "
              f"l1 form {error[0] + 2 * error[1:].sum():.3g}")


def test_a_refused_construction_keeps_its_message():
    # a translation point off the circle by 1e-13 keeps |x| - 1 within _EPS_UNIMODULAR, but
    # its powers drift past the unit-diagonal slack at D = 64: the refusal names the point
    with pytest.raises(ValueError, match="translation point"):
        translate(canonical(64), 1.0 + 1e-13)
    # a failed check runs the factorization too, so the message lists the same failures
    bad = np.array([[2.0, -3.0], [-3.0, 2.0]])
    for make in (PhaseMatrix, lambda a: PhaseMatrix._built(a, 0.0)):
        with pytest.raises(ValueError) as refused:
            make(bad)
        assert str(refused.value) == "not a valid phase matrix: unit_diagonal, psd, modulus"


def eigvalsh_floor(entries) -> float:
    """``eigvalsh``'s least eigenvalue less its own rounding, D eps ||C||_2."""
    w = np.linalg.eigvalsh(entries)
    return w[0] + len(w) * np.finfo(float).eps * max(abs(w[0]), w[-1])


@pytest.mark.parametrize("dim", [16, 64, 256])
def test_slack_bounds_the_least_eigenvalue(dim):
    for name, m in with_children(dim).items():
        sigma = m._slack
        assert sigma is not None and sigma < EPS_PSD, name
        assert eigvalsh_floor(m.entries) >= -sigma, (name, sigma)


def mp_least_eigenvalue(entries):
    with mpmath.workdps(40):
        if not entries.imag.any():
            w = mpmath.eigsy(mpmath.matrix(entries.real.tolist()), eigvals_only=True)
        else:
            w = mpmath.eighe(mpmath.matrix(entries.tolist()), eigvals_only=True)
        return min(w)


def test_slack_bounds_the_40_digit_least_eigenvalue():
    """Without eigvalsh's rounding: the 40-digit spectrum of the stored entries at D = 16,
    allowed 1e-30 for the 40-digit solver's own rounding (an exact 0 reads about -1e-40)."""
    for name, m in with_children(16).items():
        lam = mp_least_eigenvalue(m.entries)
        with mpmath.workdps(40):
            assert lam >= -mpmath.mpf(m._slack) - mpmath.mpf(10) ** -30, (name, float(lam))


def assert_entries_within(m, exact, bound, name):
    """Every stored off-diagonal entry within bound[i, j] of the 40-digit exact value; the
    diagonal, reset to 1, is accounted for by the measured diagonal deviation instead."""
    dim = m.dim
    with mpmath.workdps(40):
        worst = max(
            abs(mpmath.mpc(complex(m.entries[i, j])) - exact[i, j]) / bound[i, j]
            for i in range(dim) for j in range(dim) if i != j and bound[i, j] > 0
        )
        exact_zeros = all(
            m.entries[i, j] == 0 for i in range(dim) for j in range(dim)
            if i != j and bound[i, j] == 0
        )
    assert worst <= 1 and exact_zeros, (name, float(worst))
    print(f"D={dim} {name}: worst entry error {float(worst):.3g} of its bound")


@pytest.mark.parametrize("dim", [8, 32])
def test_entry_bounds_hold_against_entries_built_in_mpmath(dim):
    """The per-entry rounding bound behind each slack, against entries built at 40 digits."""
    g = _gamma
    ones = np.ones((dim, dim))
    # state_generated: the kernel oracle, weighted; gamma_(kernel + product + sums) * mass
    lam = np.array(STATE_WEIGHTS)
    support = np.nonzero(lam > 0)[0]
    with mpmath.workdps(40):
        exact = mpmath.matrix(dim, dim)
        for s in support:
            w = mpmath.mpf(float(lam[s]))
            for i in range(dim):
                for j in range(dim):
                    exact[i, j] += w * oracle_entry(int(s), i, j)
    mass = math.fsum(lam[support])
    state = state_generated(lam, dim)
    assert_entries_within(state, exact, g(_ROUND_KERNEL + 1 + support.size) * mass * ones,
                          "state")

    # from_eta: the Gram matrix of the stored vectors, complex dot products of length r;
    # example5 is from_eta of the vectors built here as it builds them
    f1, f2 = np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)
    special = [f1, f2, (f1 + f2) / np.sqrt(2.0), (f1 + 1j * f2) / np.sqrt(2.0)]
    v5 = np.array([special[n] if n < 4 else f1 for n in range(dim)])
    assert np.array_equal(example5(dim).entries, from_eta(v5).entries)
    for name, v in (("example5", v5), ("from_eta r=5", unit_rows(dim, 5, dim))):
        with mpmath.workdps(40):
            vm = [[mpmath.mpc(complex(z)) for z in row] for row in v]
            exact = mpmath.matrix([[mpmath.fsum(mpmath.conj(a) * b for a, b in zip(vi, vj))
                                    for vj in vm] for vi in vm])
        bound = g(_ROUND_CDOT * v.shape[1]) * (1 + EPS_GRAM) ** 2 * ones
        assert_entries_within(from_eta(v), exact, bound, name)

    # closed forms: canonical, example4 and chessboard store their exact entries
    xi = cmath.rect(0.6, 2.1)
    parity = np.equal.outer(np.arange(dim) % 2, np.arange(dim) % 2)
    odd_row = (np.arange(dim) % 2 == 1)[:, None]
    closed = {
        "canonical": (canonical(dim), ones),
        "example4": (example4(5, dim), np.where(np.minimum.outer(np.arange(dim), np.arange(dim))
                                                >= 5, 1.0, np.eye(dim))),
        "chessboard": (chessboard(xi, dim),
                       np.where(parity, 1.0, np.where(odd_row, np.conj(xi), xi))),
    }
    for name, (m, want) in closed.items():
        assert np.array_equal(m.entries, want), name

    # translate: two complex products of the stored parent and the computed powers
    powers = X ** np.arange(dim)
    for name, parent in (("state", state), ("example5", example5(dim))):
        with mpmath.workdps(40):
            p = [mpmath.mpc(complex(z)) for z in powers]
            exact = mpmath.matrix([[mpmath.mpc(complex(parent.entries[i, j]))
                                    * mpmath.conj(p[i]) * p[j] for j in range(dim)]
                                   for i in range(dim)])
        bound = g(2 * _ROUND_CDOT) * np.abs(parent.entries) * np.abs(np.outer(powers, powers))
        assert_entries_within(translate(parent, X), exact, bound, f"translate {name}")

    # preprocess: sum over offsets t of <phi[q, q+t], phi[p, p+t]> c[q+t, p+t], bound
    # gamma_(cdot (aux + 1) + |T|) times the sum of the terms' moduli
    rng = np.random.default_rng(dim)
    phi = np.zeros((dim, dim, 2), dtype=complex)
    q = np.arange(dim)
    phi[q, q] = rng.normal(size=(dim, 2)) + 1j * rng.normal(size=(dim, 2))
    phi[q[2:], q[:-2]] = rng.normal(size=(dim - 2, 2)) + 1j * rng.normal(size=(dim - 2, 2))
    phi /= np.sqrt((np.abs(phi) ** 2).sum(axis=(1, 2)))[:, None, None]
    specs = {"tail": tail_spec(dim), "two-offset": CovariantChannelSpec(phi)}
    for kind, spec in specs.items():
        for name, parent in (("state", state), ("example5", example5(dim))):
            rows, cols = np.nonzero(spec.phi.any(axis=2))
            offsets = np.unique(cols - rows)
            aux = spec.phi.shape[2]
            absolute = np.zeros((dim, dim))
            with mpmath.workdps(40):
                exact = mpmath.matrix(dim, dim)
                for t in offsets.tolist():
                    for i in range(max(0, -t), min(dim, dim - t)):
                        for j in range(max(0, -t), min(dim, dim - t)):
                            c = parent.entries[i + t, j + t]
                            a, b = spec.phi[i, i + t], spec.phi[j, j + t]
                            exact[i, j] += mpmath.mpc(complex(c)) * sum(
                                mpmath.conj(mpmath.mpc(complex(a[k]))) * mpmath.mpc(complex(b[k]))
                                for k in range(aux))
                            absolute[i, j] += abs(c) * (np.abs(a) @ np.abs(b))
            bound = g(_ROUND_CDOT * (aux + 1) + offsets.size) * absolute
            assert_entries_within(preprocess(parent, spec), exact, bound,
                                  f"{kind} preprocess {name}")


def test_a_long_translate_chain_switches_to_one_factorization(monkeypatch):
    """Each translate adds its rounding to sigma; once sigma reaches EPS_PSD the step is
    factored, and so is every step after it, with the entries of the all-factored chain."""
    dim = 256
    calls = counting_cholesky(monkeypatch)
    m = ref = example5(dim)
    assert calls == []
    ref = PhaseMatrix(ref.entries)
    powers = X ** np.arange(dim)
    steps = certified = 0
    while certified == steps or steps < certified + 5:
        calls.clear()
        slack = m._slack
        m = translate(m, X)
        steps += 1
        if m._slack is not None:
            certified += 1
            assert calls == [] and slack < m._slack < EPS_PSD
        else:
            assert calls == [(dim, dim)], steps
        ref = PhaseMatrix(ref.entries * np.outer(powers.conj(), powers))
        assert np.array_equal(m.entries.view(np.uint64), ref.entries.view(np.uint64)), steps
        assert steps < 2000
    print(f"D={dim}: {certified} translates certified by construction before the Cholesky")
    assert 100 <= certified <= 1000
