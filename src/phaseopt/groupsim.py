"""Exact finite model of covariant observables on cyclic groups Z_N.

Every statement about covariant observables on a compact group becomes a
finite linear-algebra identity here: observables are seed effects
conjugated through a diagonal representation, postprocessings are cyclic
convolutions, channels are matrices on vectorized operators, and subset
sweeps are exhaustive.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from numbers import Integral
from typing import Iterable, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .phase_matrix import _probability_ok, psd_certified

__all__ = [
    "CyclicRep",
    "FiniteCovariantObservable",
    "FiniteMeasure",
    "make_covariant",
    "smear_finite",
    "norm_bound_check",
    "outcome_subset",
    "kraus_to_superop",
    "unitary_channel",
    "depolarizing_channel",
    "random_channel",
    "apply_channel",
    "adjoint_channel_matrix",
    "choi_matrix",
    "is_channel",
    "covariantize",
    "mix",
    "convexity_check",
    "pre_norm_check",
    "scenario_check",
    "SCENARIO_CHECKS",
    "MAX_SWEEP_ORDER",
    "MAX_SCENARIO_ORDER",
    "MAX_SCENARIO_DIM",
]

# Largest group order N whose 2^N - 1 outcome subsets are swept: one cached
# float per subset per observable (8 MiB at N = 20), one int32 orbit index
# per N (4 MiB at N = 20), and _SWEEP_BYTES of effect sums while a sweep runs.
MAX_SWEEP_ORDER = 20
# Largest group order N of a scenario file: the covariance checks make N^2
# products of dim x dim matrices, stacked over g and x up to _STACK_BYTES,
# 0.07 s each at N = 256 and dim 3 (0.5 s at N = 512) on a 2-core Xeon.
MAX_SCENARIO_ORDER = 256
# Largest representation dimension of a scenario file: covariantize takes
# O(N dim^6) time and O(dim^4) memory, one dim^2 x dim^2 superoperator
# (1 MiB at dim 16) per stacked g, 3.9 s at N = 256 and dim 16 (3.8 s at
# N = 4 and dim 32) on the same machine.
MAX_SCENARIO_DIM = 16
# Orbit representatives are stacked 2^_BLOCK_BITS at a time for each eigvalsh call.
_BLOCK_BITS = 9
# Bytes of effect sums a subset sweep holds: its parent table plus one block
# of 2^_BLOCK_BITS sums (the whole table at N <= 14 and dim <= 5, 0.47 MB).
_SWEEP_BYTES = 4 << 20
# Bytes of one stacked operand of the per-g loops: one dim-16 superoperator,
# so at dim <= 5 and N <= 14 one stack holds every g.
_STACK_BYTES = 1 << 20
# entrywise slack of an observable's seed and effects (Hermitian, PSD,
# resolution of the identity, pullback through a channel) and of norm growth
_EPS_EFFECT = 1e-10
# bounds of the scenario checks: the entrywise covariance residual
# U(g) E(x) U(g)^* - E(g + x) (also after smearing), the entry a faithful
# singleton effect must exceed, and the commutation residual of a
# covariantized channel with every U-action S(g)
_EPS_COVARIANCE = 1e-12
_EPS_FAITHFUL = 1e-12
_EPS_CHANNEL_COVARIANCE = 1e-10
# slack of the exhaustive sweeps when they compare two norms of one subset
# (convexity, saturation, equality under preprocessing)
_EPS_SWEEP = 1e-9
# relative least eigenvalue of a singular group average: its S^(-1/2) would scale by 1e6
_EPS_SINGULAR = 1e-12
# is_channel's Choi Hermiticity and PSD slack; its partial trace gets 100 times this
_EPS_CHANNEL = 1e-10


@dataclass(frozen=True)
class CyclicRep:
    """Diagonal unitary representation of Z_N with integer weights."""

    order: int
    weights: Tuple[int, ...]

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("group order must be positive")
        weights = tuple(int(w) for w in self.weights)
        if not weights:
            raise ValueError("a representation needs at least one weight")
        # unitary() forms w * (g mod N) in int64
        big = [w for w in weights if abs(w) * max(self.order - 1, 1) >= 2**63]
        if big:
            raise ValueError(f"weights must satisfy |w| * max(N - 1, 1) < 2**63, got {big[0]}")
        object.__setattr__(self, "weights", weights)

    @property
    def dim(self) -> int:
        return len(self.weights)

    @functools.cached_property
    def unitaries(self) -> np.ndarray:
        """Read-only ``(N, dim, dim)`` stack of U(0), ..., U(N - 1).

        Built on first use from one ``np.exp`` over the int64 grid ``g * w``;
        kept out of equality and hashing, which read ``(order, weights)``.
        """
        n, d = self.order, self.dim
        grid = np.arange(n)[:, None] * np.array(self.weights, dtype=np.int64)
        stack = np.zeros((n, d, d), dtype=np.complex128)
        stack.reshape(n, d * d)[:, :: d + 1] = np.exp(2j * math.pi * grid / n)
        stack.flags.writeable = False
        return stack

    def unitary(self, g: int) -> np.ndarray:
        """U(g), a read-only view into :attr:`unitaries`."""
        return self.unitaries[g % self.order]

    def conjugate(self, a: np.ndarray) -> np.ndarray:
        """``(N, dim, dim)`` stack of U(g) a U(g)^*, one batched matmul for every g."""
        u = self.unitaries
        return u @ a @ u.conj().transpose(0, 2, 1)

    def state_action(self, g) -> np.ndarray:
        """Superoperator of rho -> U(g) rho U(g)^* on column-vectorized rho.

        ``kron(conj U, U)`` as one broadcast product; the entries are the
        same products ``np.kron`` forms.  A slice of g gives the
        ``(len, dim^2, dim^2)`` stack of them.
        """
        u = self.unitaries[g] if isinstance(g, slice) else self.unitary(g)
        d = self.dim
        kron = u.conj()[..., :, None, :, None] * u[..., None, :, None, :]
        return kron.reshape(u.shape[:-2] + (d * d, d * d))


@dataclass(frozen=True)
class FiniteMeasure:
    """Probability weights on Z_N."""

    weights: Tuple[float, ...]

    def __post_init__(self):
        w = tuple(float(x) for x in self.weights)
        if not w:
            raise ValueError("a measure needs at least one weight")
        # every test is written so that a NaN fails it
        if not _probability_ok(w):
            raise ValueError("measure weights must be nonnegative numbers")
        if not _probability_ok(mass=sum(w)):
            raise ValueError(f"measure weights sum to {sum(w)}")
        object.__setattr__(self, "weights", w)

    @property
    def order(self) -> int:
        return len(self.weights)


def _finite_seed(seed) -> np.ndarray:
    seed = np.asarray(seed, dtype=np.complex128)
    if not np.isfinite(seed).all():
        raise ValueError("seed entries must be finite")
    return seed


class FiniteCovariantObservable:
    """Covariant observable on Z_N: effects U(x) A U(x)^* from a seed A."""

    __slots__ = ("rep", "seed", "_effects", "_subset_norms")

    def __init__(self, rep: CyclicRep, seed: np.ndarray):
        seed = _finite_seed(seed)
        if seed.shape != (rep.dim, rep.dim):
            raise ValueError("seed shape does not match the representation")
        if np.abs(seed - seed.conj().T).max() > _EPS_EFFECT:
            raise ValueError("seed must be Hermitian")
        if not psd_certified(seed, _EPS_EFFECT):
            raise ValueError("seed must be positive semidefinite")
        effects = rep.conjugate(seed)
        # summed left to right (np.sum would add pairwise)
        total = sum(effects)
        if np.abs(total - np.eye(rep.dim)).max() > _EPS_EFFECT:
            raise ValueError("effects do not resolve the identity")
        effects.flags.writeable = False
        self.rep = rep
        self.seed = seed
        self._effects = effects
        self._subset_norms = None

    @property
    def effects(self) -> np.ndarray:
        """Read-only ``(N, dim, dim)`` stack of the effects E({x})."""
        return self._effects

    def effect(self, x: int) -> np.ndarray:
        """E({x}), a read-only view; x is read mod N."""
        return self._effects[x % self.rep.order]

    def effect_set(self, subset: Iterable[int]) -> np.ndarray:
        """``E(X)`` summed from zeros through X in the given order.

        ``subset`` must pass :func:`outcome_subset`.
        """
        out = np.zeros((self.rep.dim, self.rep.dim), dtype=np.complex128)
        for x in outcome_subset(subset, self.rep.order):
            out = out + self._effects[x]
        return out

    def norm(self, subset: Iterable[int]) -> float:
        """``|E(X)|``, read as ``|E(R)|`` with R the least rotation of X.

        Covariance gives ``E(X + g) = U(g) E(X) U(g)^*``, so every rotation
        of X has the same norm in exact arithmetic; reading the one
        representative of X's cyclic orbit, summed in ascending order, is
        the rule ``subset_norms`` sweeps by, so the two agree bit for bit.
        ``subset`` must pass :func:`outcome_subset`.
        """
        n = self.rep.order
        mask = sum(1 << x for x in outcome_subset(subset, n))
        if not mask:
            return 0.0
        least = min(((mask << g) | (mask >> (n - g))) & ((1 << n) - 1) for g in range(n))
        elements = [x for x in range(n) if least >> x & 1]
        return float(np.linalg.eigvalsh(self.effect_set(elements))[-1])

    def subset_norms(self) -> np.ndarray:
        """``|E(X)|`` for every subset X of Z_N, indexed by the bitmask of X.

        One ``eigvalsh`` row per cyclic orbit of subsets: the binary
        necklace count (1/N) sum_{k | N} phi(k) 2^(N/k) less the empty
        orbit, 59 rows instead of 511 at N = 9.  Each representative (the
        least rotation of its masks) is summed from zeros through its
        elements in ascending order, as ``norm`` does, so entry ``mask``
        equals ``self.norm(X)`` bit for bit, X being the elements whose
        bits are set.

        The sums share their prefixes.  Removing a representative's top
        element leaves its parent, again a representative and earlier in
        ``reps`` (see :func:`_orbits`), so a table of sums takes each row
        as its parent's row plus one effect: one gather and one add per
        top element.  The table holds the representatives below 2^L, L the
        widest low-bit width whose rows fit ``_SWEEP_BYTES`` beside one
        block of 2^_BLOCK_BITS rows; a representative above it starts from
        its low L bits, a representative too, and adds its high elements
        in ascending order.  Computed on first use, then cached read-only.
        Raises ValueError above ``MAX_SWEEP_ORDER``.
        """
        if self._subset_norms is None:
            n, d = self.rep.order, self.rep.dim
            if n > MAX_SWEEP_ORDER:
                raise ValueError(
                    f"group order N = {n} is above the subset-sweep limit "
                    f"{MAX_SWEEP_ORDER} (2^N - 1 subsets)"
                )
            reps, index, parents, bounds = _orbits(n)
            block_rows = min(len(reps) - 1, 1 << _BLOCK_BITS)
            room = max(_SWEEP_BYTES // (d * d * 16) - block_rows, 1)
            width = int(np.count_nonzero(bounds <= room)) - 1
            table = np.zeros((bounds[width], d, d), dtype=np.complex128)  # row 0: the empty mask
            for t in range(width):
                for lo in range(bounds[t], bounds[t + 1], block_rows):
                    rows = slice(lo, min(lo + block_rows, bounds[t + 1]))
                    np.add(table[parents[rows]], self._effects[t], out=table[rows])
            norms = np.zeros(len(reps))  # norms[0], the empty mask, stays 0.0
            block = None
            for start in range(1, len(reps), block_rows):
                chunk = reps[start : start + block_rows]
                if start + len(chunk) <= len(table):
                    sums = table[start : start + len(chunk)]
                else:
                    if block is None:
                        block = np.empty((block_rows, d, d), dtype=np.complex128)
                    # mode="clip" gathers straight into out; the default copies first
                    low = index[chunk & ((1 << width) - 1)]
                    sums = np.take(table, low, axis=0, out=block[: len(chunk)], mode="clip")
                    for k in range(width, n):
                        has_k = (chunk >> k & 1).astype(bool)[:, None, None]
                        np.add(sums, self._effects[k], out=sums, where=has_k)
                norms[start : start + len(chunk)] = np.linalg.eigvalsh(sums)[:, -1]
            out = norms[index]
            out.flags.writeable = False
            self._subset_norms = out
        return self._subset_norms


@functools.cache
def _orbits(n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cyclic orbits of the n-bit masks as ``(reps, index, parents, bounds)``.

    ``reps`` lists each orbit's least rotation in ascending order, so
    ``reps[0]`` is the empty mask, and ``index[mask]`` is the position of
    the mask's least rotation in ``reps``.  ``reps[bounds[t]:bounds[t + 1]]``
    are the representatives whose top element is t, and ``parents[i]`` is
    the position of ``reps[i]`` less its top element (0 for the empty
    mask).  That parent is its own least rotation, so it precedes
    ``reps[i]``, for every n <= MAX_SWEEP_ORDER (tested exhaustively).
    Cached per n; ``subset_norms`` keeps n <= MAX_SWEEP_ORDER, so at most
    20 entries exist.
    """
    full = (1 << n) - 1
    rot = np.arange(1 << n, dtype=np.int32)
    least = rot.copy()
    # n one-step rotations bring rot back to the masks; rot << 1 < 2^21 fits int32
    for _ in range(n):
        rot <<= 1
        np.subtract(rot, full, out=rot, where=rot > full)
        np.minimum(least, rot, out=least)
    is_rep = least == rot
    reps, index = np.flatnonzero(is_rep), (np.cumsum(is_rep, dtype=np.int32) - 1)[least]
    bounds = np.searchsorted(reps, 1 << np.arange(n + 1))
    tops = np.repeat(1 << np.arange(n), np.diff(bounds))
    parents = np.concatenate(([0], index[reps[1:] - tops]))
    for a in (reps, index, parents, bounds):
        a.flags.writeable = False
    return reps, index, parents, bounds


def make_covariant(rep: CyclicRep, seed: np.ndarray) -> FiniteCovariantObservable:
    """Rescale a PSD seed so its orbit resolves the identity.

    The group average S of the seed orbit commutes with the
    representation, so conjugating the seed by S^(-1/2) normalizes the
    orbit; a singular average means the seed cannot generate a POVM.
    """
    seed = _finite_seed(seed)
    avg = sum(rep.conjugate(seed))
    w, q = np.linalg.eigh(avg)
    if w[0] < _EPS_SINGULAR * max(w[-1], 1.0):
        raise ValueError("seed does not generate a POVM (singular group average)")
    inv_sqrt = (q * (1.0 / np.sqrt(w))) @ q.conj().T
    return FiniteCovariantObservable(rep, inv_sqrt @ seed @ inv_sqrt)


def smear_finite(
    obs: FiniteCovariantObservable, nu: FiniteMeasure
) -> FiniteCovariantObservable:
    """Postprocess by a measure on Z_N: E_nu({x}) = sum_g nu(x - g) E({g})."""
    n = obs.rep.order
    if nu.order != n:
        raise ValueError("measure order does not match the group")
    seed = sum(nu.weights[(-g) % n] * obs.effect(g) for g in range(n))
    return FiniteCovariantObservable(obs.rep, seed)


def outcome_subset(subset: Iterable[int], order: int) -> Tuple[int, ...]:
    """``subset`` as a tuple of distinct outcomes in ``0 .. order - 1``.

    Anything else (a repeat, an outcome out of range, a non-integer) raises
    ValueError: it would otherwise be read mod N and counted twice.
    """
    xs = tuple(subset) if isinstance(subset, Iterable) else (None,)
    in_range = all(
        isinstance(x, Integral) and not isinstance(x, bool) and 0 <= x < order for x in xs
    )
    if not in_range or len(set(xs)) != len(xs):
        raise ValueError(f"subset must hold distinct outcomes 0..{order - 1}, got {subset!r}")
    return xs


def norm_bound_check(
    obs: FiniteCovariantObservable, nu: FiniteMeasure, subset: Sequence[int]
) -> Tuple[float, float]:
    """Smearing norm bound: returns (|E_nu(X)|, max_g nu(X - g)).

    The left side can never exceed the right side; a violation raises
    ValueError so scenario runs report it as a failed check.  ``subset``
    must pass :func:`outcome_subset`.
    """
    n = obs.rep.order
    subset = outcome_subset(subset, n)
    smeared = smear_finite(obs, nu)
    lhs = smeared.norm(subset)
    rhs = max(sum(nu.weights[(x - g) % n] for x in subset) for g in range(n))
    if lhs > rhs + _EPS_EFFECT:
        raise ValueError(f"norm bound violated: {lhs} > {rhs}")
    return lhs, rhs


# --- channels as matrices on column-vectorized operators ---------------------


def kraus_to_superop(kraus: Sequence[np.ndarray]) -> np.ndarray:
    """Superoperator matrix of rho -> sum_i K_i rho K_i^*."""
    ks = [np.asarray(k, dtype=np.complex128) for k in kraus]
    d = ks[0].shape[0]
    out = np.zeros((d * d, d * d), dtype=np.complex128)
    for k in ks:
        out += np.kron(k.conj(), k)
    return out


def unitary_channel(u: np.ndarray) -> np.ndarray:
    return kraus_to_superop([u])


def depolarizing_channel(dim: int) -> np.ndarray:
    """Completely depolarizing channel rho -> tr(rho) I / dim."""
    vec_eye = np.eye(dim, dtype=np.complex128).reshape(-1, order="F")
    return np.outer(vec_eye, vec_eye.conj()) / dim


def random_channel(dim: int, rng) -> np.ndarray:
    """Haar-ish random channel from a random Stinespring isometry (dim Kraus operators)."""
    g = rng.normal(size=(dim * dim, dim)) + 1j * rng.normal(size=(dim * dim, dim))
    q, _ = np.linalg.qr(g)
    kraus = [q[i * dim : (i + 1) * dim, :] for i in range(dim)]
    return kraus_to_superop(kraus)


def apply_channel(superop: np.ndarray, rho: np.ndarray) -> np.ndarray:
    d = rho.shape[0]
    vec = rho.reshape(-1, order="F")
    return (superop @ vec).reshape(d, d, order="F")


def adjoint_channel_matrix(superop: np.ndarray) -> np.ndarray:
    """Heisenberg-picture matrix: tr(Phi(rho) A) = tr(rho Phi*(A))."""
    return superop.conj().T


def choi_matrix(superop: np.ndarray) -> np.ndarray:
    """Choi matrix J with J[(i,k),(j,l)] = <k| Phi(|i><j|) |l>-style pairing."""
    d = _superop_dim(superop)
    k4 = superop.reshape(d, d, d, d)
    # column-stacked superop indices are K[(l, k), (j, i)] for
    # Phi(E_{ij})[k, l]; regroup into the (i k) x (j l) block matrix
    return k4.transpose(3, 1, 2, 0).reshape(d * d, d * d)


def _superop_dim(superop: np.ndarray, dim: int = 0) -> int:
    """The d >= 1 of a ``(d^2, d^2)`` superoperator; ValueError otherwise, or if d != dim > 0."""
    shape = np.shape(superop)
    d = math.isqrt(shape[0]) if len(shape) == 2 else 0
    if not d or shape != (d * d, d * d) or dim not in (0, d):
        want = f"{dim * dim} x {dim * dim}" if dim else "d^2 x d^2 for some d >= 1"
        raise ValueError(f"superoperator must be {want}, got shape {shape}")
    return d


def is_channel(superop: np.ndarray) -> bool:
    """Complete positivity (PSD Choi) plus trace preservation, at ``_EPS_CHANNEL``."""
    choi = choi_matrix(superop)
    d = math.isqrt(choi.shape[0])
    if np.abs(choi - choi.conj().T).max() > _EPS_CHANNEL:
        return False
    if not psd_certified(choi, _EPS_CHANNEL):
        return False
    # partial trace of the Choi matrix over the output slot must be I
    ptrace = choi.reshape(d, d, d, d).trace(axis1=1, axis2=3)
    return bool(np.abs(ptrace - np.eye(d)).max() <= 100 * _EPS_CHANNEL)


def covariantize(rep: CyclicRep, superop: np.ndarray) -> np.ndarray:
    """Group-average a channel so it commutes with the U-action on states."""
    _superop_dim(superop, rep.dim)
    if not is_channel(superop):
        raise ValueError("input is not a channel (CP + trace-preserving)")
    n = rep.order
    out = np.zeros_like(superop)
    for block in _g_blocks(n, superop.nbytes):
        s = rep.state_action(block)
        for term in s @ superop @ s.conj().transpose(0, 2, 1):
            out += term
    out /= n
    return out


def _g_blocks(n: int, nbytes: int) -> list:
    """Slices of ``range(n)``, each stacking at most ``_STACK_BYTES`` at ``nbytes`` per g.

    Each slice holds one g at least.  A stacked ``matmul`` runs the same
    BLAS product on each slice as the per-g one, so the stacked loops keep
    every float bit for bit.
    """
    step = max(1, _STACK_BYTES // nbytes)
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def mix(
    e1: FiniteCovariantObservable, e2: FiniteCovariantObservable, alpha: float
) -> FiniteCovariantObservable:
    """Convex combination through seed mixing (same representation)."""
    if e1.rep != e2.rep:
        raise ValueError("observables live on different representations")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    return FiniteCovariantObservable(e1.rep, alpha * e1.seed + (1 - alpha) * e2.seed)


def _first_in_sweep_order(bad: np.ndarray) -> Tuple[int, Tuple[int, ...]]:
    """First flagged subset in (size, lexicographic) order.

    ``bad`` is indexed by bitmask - 1 (the nonempty subsets).  Returns that
    index and the subset as a sorted tuple, the order and form in which
    ``itertools.combinations`` would have met it.
    """

    def subset(i):
        mask = i + 1
        return tuple(x for x in range(mask.bit_length()) if mask >> x & 1)

    i = min((int(i) for i in np.flatnonzero(bad)), key=lambda i: (len(subset(i)), subset(i)))
    return i, subset(i)


def convexity_check(
    e1: FiniteCovariantObservable,
    e2: FiniteCovariantObservable,
    alpha: float,
) -> dict:
    """Exhaustive norm convexity sweep over all outcome subsets.

    Checks ``|E(X)| <= alpha |E1(X)| + (1-alpha) |E2(X)|`` for every
    nonempty subset X of Z_N, and that saturation |E(X)| = 1 forces both
    component norms to 1.  Returns a small report; raises ValueError on
    violation, naming the first violating subset by size, then
    lexicographically.
    """
    mixed = mix(e1, e2, alpha)
    n = e1.rep.order
    nm, n1, n2 = (obs.subset_norms()[1:] for obs in (mixed, e1, e2))
    bound = alpha * n1 + (1 - alpha) * n2
    grew = nm > bound + _EPS_SWEEP
    saturated = nm >= 1.0 - _EPS_SWEEP
    bad = grew | (saturated & ((n1 < 1.0 - _EPS_SWEEP) | (n2 < 1.0 - _EPS_SWEEP)))
    if bad.any():
        i, subset = _first_in_sweep_order(bad)
        if grew[i]:
            raise ValueError(
                f"convexity violated on {subset}: {float(nm[i])} > {float(bound[i])}"
            )
        raise ValueError(
            f"norm saturation on {subset} not inherited: {float(n1[i])}, {float(n2[i])}"
        )
    return {
        "subsets": 2 ** n - 1,
        "saturated": int(np.count_nonzero(saturated)),
        "worst_slack": float((bound - nm).min()),
    }


def _pullback_residuals(
    obs: FiniteCovariantObservable,
    pre_obs: FiniteCovariantObservable,
    superop: np.ndarray,
) -> np.ndarray:
    """Largest entry of ``Phi^*(E({x})) - F({x})`` for each x, in one pass over all x."""
    n, d = obs.rep.order, obs.rep.dim
    # column-vectorized effects, one matrix-vector product each, as apply_channel
    vecs = obs.effects.transpose(0, 2, 1).reshape(n, d * d, 1)
    mapped = (adjoint_channel_matrix(superop) @ vecs).reshape(n, d, d).transpose(0, 2, 1)
    return np.abs(mapped - pre_obs.effects).max(axis=(1, 2))


def _covariance_residual(rep: CyclicRep, obs: FiniteCovariantObservable) -> float:
    """Largest entry of U(g) E(x) U(g)^* - E(g + x) over all g and x."""
    n, effects = rep.order, obs.effects
    doubled = np.concatenate((effects, effects))  # doubled[g + x] = E(g + x mod N)
    # shifted[g, x] = doubled[g + x], a view
    shifted = np.moveaxis(sliding_window_view(doubled, n, axis=0), -1, 1)
    worst = 0.0
    for block in _g_blocks(n, effects.nbytes):
        u = rep.unitaries[block][:, None]
        lhs = u @ effects @ u.conj().transpose(0, 1, 3, 2)
        worst = max(worst, float(np.abs(lhs - shifted[block]).max()))
    return worst


def _commutation_residual(rep: CyclicRep, superop: np.ndarray) -> float:
    """Largest entry of S(g) Phi - Phi S(g) over all g, S(g) the U-action on states."""
    worst = 0.0
    for block in _g_blocks(rep.order, superop.nbytes):
        s = rep.state_action(block)
        worst = max(worst, float(np.abs(s @ superop - superop @ s).max()))
    return worst


def pre_norm_check(
    obs: FiniteCovariantObservable,
    pre_obs: FiniteCovariantObservable,
    superop: np.ndarray,
) -> dict:
    """Preprocessing can only shrink effect norms; verified exhaustively.

    Requires ``pre_obs({x}) = Phi^*(obs({x}))`` to hold first; then sweeps
    all nonempty subsets for ``|F(X)| <= |E(X)|`` (ValueError naming the
    first subset that breaks it), recording whether equality holds
    everywhere (unitary channels give equality everywhere).  ``pre_obs`` of another order or
    dimension, and a superoperator that is not ``(dim^2, dim^2)``, raise ValueError.
    """
    n, d, pre = obs.rep.order, obs.rep.dim, pre_obs.rep
    if (pre.order, pre.dim) != (n, d):
        raise ValueError(f"pre_obs has order {pre.order} and dimension {pre.dim}, obs {n} and {d}")
    _superop_dim(superop, d)
    off = np.flatnonzero(_pullback_residuals(obs, pre_obs, superop) > _EPS_EFFECT)
    if len(off):
        raise ValueError(
            f"pre_obs is not the pullback of obs through the channel at x={off[0]}"
        )
    nf, ne = pre_obs.subset_norms()[1:], obs.subset_norms()[1:]
    grew = nf > ne + _EPS_EFFECT
    if grew.any():
        _, subset = _first_in_sweep_order(grew)
        raise ValueError(f"norm grew under preprocessing on {subset}")
    equal_everywhere = not (np.abs(nf - ne) > _EPS_SWEEP).any()
    return {"subsets": 2 ** n - 1, "norm_equal_everywhere": equal_everywhere}


# the checks a scenario may name
SCENARIO_CHECKS = (
    "covariance", "smear-covariance", "additivity", "faithful", "norm-bound",
    "mix-inequality", "covariantize", "pre-norm-unitary", "pre-norm-depolarizing",
)


def _require(passed, reason: str) -> None:
    """Fail a scenario check; unlike assert, this survives python -O."""
    if not passed:
        raise ValueError(reason)


def scenario_check(name: str, obs: FiniteCovariantObservable, nu: FiniteMeasure,
                   seed2: np.ndarray, alpha: float, subset: Sequence[int], rng) -> dict:
    """Report of the check ``name`` of ``SCENARIO_CHECKS`` on ``obs``; ValueError if it fails.

    ``nu`` smears for ``smear-covariance`` and ``norm-bound`` (on ``subset``), ``mix-inequality``
    mixes ``obs``, weight ``alpha``, with ``seed2``'s observable; channels draw on ``rng``."""
    rep, n = obs.rep, obs.rep.order
    if name in ("covariance", "smear-covariance"):
        smeared = name == "smear-covariance"
        worst = _covariance_residual(rep, smear_finite(obs, nu) if smeared else obs)
        what = "smeared covariance" if smeared else "covariance"
        _require(worst < _EPS_COVARIANCE, f"{what} residual {worst}")
        return {"verdict": "pass", "residual": worst}
    if name == "additivity":
        dev = float(np.abs(obs.effect_set(range(n)) - np.eye(rep.dim)).max())
        _require(dev < _EPS_EFFECT, f"additivity residual {dev}")
        return {"verdict": "pass", "residual": dev}
    if name == "faithful":
        worst = float(np.abs(obs.effects).max(axis=(1, 2)).min())
        _require(worst > _EPS_FAITHFUL, "some singleton effect vanishes")
        return {"verdict": "pass", "min_effect_weight": worst}
    if name == "norm-bound":
        lhs, rhs = norm_bound_check(obs, nu, subset)
        note = "discrete topology: approximate sharpness means unit effect norm on every singleton"
        return {"verdict": "pass", "lhs": lhs, "rhs": rhs, "note": note}
    if name == "mix-inequality":
        return {"verdict": "pass", **convexity_check(obs, make_covariant(rep, seed2), float(alpha))}
    if name == "covariantize":
        cov = covariantize(rep, random_channel(rep.dim, rng))
        _require(is_channel(cov), "covariantized map is not a channel")
        worst = _commutation_residual(rep, cov)
        _require(worst < _EPS_CHANNEL_COVARIANCE, f"covariance residual {worst}")
        return {"verdict": "pass", "residual": worst}
    if name == "pre-norm-unitary":
        w = np.diag(np.exp(2j * np.pi * rng.random(rep.dim)))
        pre = FiniteCovariantObservable(rep, w.conj().T @ obs.seed @ w)
        report = pre_norm_check(obs, pre, unitary_channel(w))
        _require(report["norm_equal_everywhere"], "unitary preprocessing changed norms")
        return {"verdict": "pass", **report}
    if name == "pre-norm-depolarizing":
        pre = FiniteCovariantObservable(rep, np.trace(obs.seed).real * np.eye(rep.dim) / rep.dim)
        return {"verdict": "pass", **pre_norm_check(obs, pre, depolarizing_channel(rep.dim))}
    raise ValueError(f"unknown groupsim check {name!r}")
