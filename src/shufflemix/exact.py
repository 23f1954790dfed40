"""Dense evolution of shuffle walks over all of S_n at small n, and spectra.

Distributions live on the full n!-point state space indexed by lexicographic
permutation rank.  Distance sums run through math.fsum (exact compensated
summation), because n! terms of magnitude ~1/n! lose digits under naive
accumulation.  This module owns every computation over the whole group:
the rank-indexed multiplication tables (built with the one group product,
:func:`shufflemix.perms.right_multiplier`), dense convolution (one walk
loop, :func:`_walk`, read up to a fixed step by :func:`mixing_time` and up
to the threshold by :func:`hitting_time`), the BFS for word lengths in the
Cayley graph (:func:`cayley_distances`), and the spectrum, split over the
irreducible representations lambda of S_n (Diaconis 1988, ch. 3) into the
eigenvalues of q^(lambda) = sum_g q(g) rho_lambda(g), each repeated d_lambda
times, with rho_lambda in Young's orthogonal form.  One dense cap, n <= 8,
covers every output of size n! (convolution, Cayley-graph distances, spectra,
and the Dirichlet forms in :mod:`shufflemix.flows`); :func:`require_dense` is
its one check.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import CapacityError
from .measures import (
    SparseMeasure,
    convolve_measures,
    lazy,
    reversal,
    top_to_bottom_k,
)
from .perms import inverse, right_multiplier

DENSE_CAP = 8

TV_THRESHOLD = 1 / (2 * math.e)
LP_THRESHOLD = 1 / math.e


class GroupTable:
    """Rank-indexed multiplication tables for one S_n, built lazily."""

    def __init__(self, n: int):
        self.n = n
        self.size = math.factorial(n)
        self.perms = list(itertools.permutations(range(1, n + 1)))
        self.index = {p: i for i, p in enumerate(self.perms)}
        self._right: dict[tuple, np.ndarray] = {}

    def right_mul(self, s: tuple) -> np.ndarray:
        """J with J[i] = rank(perm_i * s); a bijection of ranks."""
        tbl = self._right.get(s)
        if tbl is None:
            tbl = np.fromiter(
                map(self.index.__getitem__, map(right_multiplier(s), self.perms)),
                dtype=np.int64,
                count=self.size,
            )
            self._right[s] = tbl
        return tbl


def require_dense(n: int) -> None:
    """Raise CapacityError unless n is within the dense cap."""
    if n > DENSE_CAP:
        raise CapacityError(f"n={n} exceeds dense cap {DENSE_CAP}")


@lru_cache(maxsize=None)
def group_table(n: int) -> GroupTable:
    require_dense(n)
    return GroupTable(n)


@dataclass(frozen=True)
class DenseDistribution:
    """Probability vector over S_n indexed by permutation rank."""

    n: int
    probs: np.ndarray = field(compare=False)

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.shape != (math.factorial(self.n),):
            raise ValueError(f"expected length {math.factorial(self.n)}, got {p.shape}")
        if p.min() < -1e-15:
            raise ValueError(f"negative probability {p.min()}")
        p = np.where(p < 0, 0.0, p)
        if abs(math.fsum(p.tolist()) - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {math.fsum(p.tolist())}")
        object.__setattr__(self, "probs", p)


def point_mass(n: int) -> DenseDistribution:
    t = group_table(n)
    p = np.zeros(t.size)
    p[0] = 1.0
    return DenseDistribution(n, p)


def convolve_step(d: DenseDistribution, q: SparseMeasure) -> DenseDistribution:
    """One walk step: result(g) = sum_h d(h) q(h^{-1} g).

    Each support atom scatters d along a rank bijection; atoms are applied in
    sorted rank order so the result is bitwise deterministic.
    """
    if d.n != q.n:
        raise ValueError(f"size mismatch: {d.n} vs {q.n}")
    t = group_table(d.n)
    out = np.zeros(t.size)
    for g, w in q.items():
        out[t.right_mul(g.map)] += float(w) * d.probs
    return DenseDistribution(d.n, out)


def tv_distance(d: DenseDistribution) -> float:
    """Total variation distance to uniform: half the L1 gap."""
    u = 1.0 / math.factorial(d.n)
    return 0.5 * math.fsum(np.abs(d.probs - u).tolist())


def lp_distance(d: DenseDistribution, p: int) -> float:
    """d_{pi,p}(d) = (sum |d(g)/pi(g) - 1|^p pi(g))^{1/p} for p in {1, 2}."""
    if p not in (1, 2):
        raise ValueError(f"p must be 1 or 2, got {p}")
    size = math.factorial(d.n)
    e = size * d.probs - 1.0
    if p == 1:
        return math.fsum(np.abs(e).tolist()) / size
    return math.sqrt(math.fsum((e * e).tolist()) / size)


@dataclass(frozen=True)
class MixingReport:
    measure: str
    metric: str                      # "tv" | "l2"
    threshold: float
    mixing_time: int | None          # None when saturated
    profile: tuple                   # ((step, distance), ...), step 0 included
    saturated: bool


def _metric_fn(metric: str):
    if metric == "tv":
        return tv_distance, TV_THRESHOLD
    if metric == "l2":
        return lambda d: lp_distance(d, 2), LP_THRESHOLD
    raise ValueError(f"metric must be 'tv' or 'l2', got {metric!r}")


def _walk(q: SparseMeasure):
    """q^0 = delta_e, q^1, q^2, ...: the walk driven by q, one step per item.

    The only loop over :func:`convolve_step`; a step is taken only when the
    next item is requested.
    """
    d = point_mass(q.n)
    while True:
        yield d
        d = convolve_step(d, q)


def hitting_time(q: SparseMeasure, metric: str) -> int:
    """First step m with distance(q^m, pi) <= threshold (as in :func:`mixing_time`).

    There is no step budget.  Precondition: q drives a mixing walk, i.e. its
    support generates S_n and lies in no coset of a proper normal subgroup;
    then q^m tends to uniform and the loop ends.  Otherwise it never ends.
    """
    dist_fn, threshold = _metric_fn(metric)
    for m, d in enumerate(_walk(q)):
        if dist_fn(d) <= threshold:
            return m


def mixing_time(q: SparseMeasure, metric: str = "tv", m_max: int = 200,
                label: str | None = None) -> MixingReport:
    """First step m with distance(q^m, pi) <= threshold, plus the profile.

    Thresholds are 1/(2e) for TV and 1/e for the L2 distance.  Saturation
    (threshold not reached by m_max >= 0) is a reported outcome, not an error.
    """
    if m_max < 0:
        raise ValueError(f"m_max must be nonnegative, got {m_max}")
    dist_fn, threshold = _metric_fn(metric)
    profile = tuple((m, dist_fn(d))
                    for m, d in enumerate(itertools.islice(_walk(q), m_max + 1)))
    hit = next((m for m, dist in profile if dist <= threshold), None)
    return MixingReport(
        measure=label or f"measure(n={q.n})",
        metric=metric,
        threshold=threshold,
        mixing_time=hit,
        profile=profile,
        saturated=hit is None,
    )


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: np.ndarray = field(compare=False)   # ascending
    beta_min: float = 0.0
    spectral_gap: float = 0.0


def _tableaux(n: int) -> list[list[tuple]]:
    """The standard tableaux of each shape of n as content vectors: entry i - 1
    is column - row of the box holding i, which identifies the tableau."""
    grown = {(): [()]}
    for _ in range(n):
        nxt = {}
        for shape, tabs in grown.items():
            for r, row in enumerate(shape + (0,)):
                if r == 0 or row < shape[r - 1]:
                    new = shape[:r] + (row + 1,) + shape[r + 1:]
                    nxt.setdefault(new, []).extend(t + (row - r,) for t in tabs)
        grown = nxt
    return list(grown.values())


def _adjacent_matrices(tabs: list[tuple]) -> list[np.ndarray]:
    """Young's orthogonal form of s_i = (i, i+1), i = 1..n-1, on one shape:
    rho(s_i) e_T = e_T / r + sqrt(1 - 1/r^2) e_{s_i T}, r = c(i+1) - c(i)."""
    index = {t: j for j, t in enumerate(tabs)}
    mats = []
    for i in range(len(tabs[0]) - 1):
        m = np.zeros((len(tabs), len(tabs)))
        for j, t in enumerate(tabs):
            r = t[i + 1] - t[i]
            m[j, j] = 1 / r
            if abs(r) > 1:  # else s_i T is not standard
                m[index[t[:i] + (t[i + 1], t[i]) + t[i + 2:]], j] = math.sqrt(1 - 1 / r**2)
        mats.append(m)
    return mats


def _rho(g, mats: list[np.ndarray], d: int) -> np.ndarray:
    """rho(g^{-1}): the product of the rho(s_i) met, in order, while
    bubble-sorting g.map (each swap right-multiplies by s_i)."""
    a, out = list(g.map), np.eye(d)
    for end in range(len(a) - 1, 0, -1):
        for i in range(end):
            if a[i] > a[i + 1]:
                a[i], a[i + 1] = a[i + 1], a[i]
                out = out @ mats[i]
    return out


def spectrum(q: SparseMeasure) -> SpectrumReport:
    """Full real spectrum of the transition matrix M(x, y) = q(x^{-1} y).

    Only symmetric measures are accepted (q equal to its reversal makes M
    symmetric); nonreversible spectra are out of scope.  Each block is
    sum_g q(g) rho(g^{-1}) = q^(lambda)^T, checked symmetric because eigvalsh
    reads only one triangle.
    """
    require_dense(q.n)
    if q != reversal(q):
        raise ValueError("spectrum requires a symmetric measure (q == reversal(q))")
    blocks = []
    for tabs in _tableaux(q.n):
        d, mats = len(tabs), _adjacent_matrices(tabs)
        q_hat = sum(float(w) * _rho(g, mats, d) for g, w in q.items())
        if not np.allclose(q_hat, q_hat.T, rtol=0, atol=1e-12):
            raise ValueError("Fourier block not symmetric; representation inconsistent")
        blocks.append(np.repeat(np.linalg.eigvalsh(q_hat), d))
    eig = np.sort(np.concatenate(blocks))
    if abs(eig[-1] - 1.0) > 1e-10:
        raise ValueError(f"top eigenvalue {eig[-1]} != 1")
    gap = 1.0 - eig[-2] if eig.size > 1 else 1.0
    return SpectrumReport(eigenvalues=eig, beta_min=float(eig[0]), spectral_gap=float(gap))


def least_eigenvalue_formula(n: int, k: int) -> Fraction:
    """Closed-form lower bound -1 + (k-1)/(k(n-k+2)(n+1)) for beta_min."""
    return -1 + Fraction(k - 1, k * (n - k + 2) * (n + 1))


def cayley_distances(n: int, generators) -> np.ndarray:
    """Word length of every rank of S_n in the Cayley graph of the generators,
    or -1 where a rank is unreachable.

    The generator set is symmetrized and identity letters are dropped (self
    loops never shorten a distance).  S_n is finite, so adding inverses
    reaches no new rank: (dist >= 0).all() says whether the generators
    generate S_n.
    """
    t = group_table(n)
    gens = {}
    for g in generators:
        if not g.is_identity():
            gens[g.map] = None
            gens[inverse(g).map] = None
    letters = [t.right_mul(m).tolist() for m in gens]
    dist = [-1] * t.size
    dist[0] = 0
    queue = deque([0])
    while queue:
        x = queue.popleft()
        d = dist[x] + 1
        for j in letters:
            y = j[x]
            if dist[y] < 0:
                dist[y] = d
                queue.append(y)
    return np.array(dist, dtype=np.int64)


@dataclass(frozen=True)
class TransferReport:
    n: int
    k: int
    t_tv: int
    t_l2: int
    t_l2_qq_star: int | None                 # None: q * q* lives on a proper subgroup
    tv_le_l2: bool
    doubling_holds: bool                     # T2(q) <= 2 T2(q * q*)
    doubling_vacuous: bool                   # right side infinite (reducible q * q*)
    t_tv_lazy: int
    t_l2_lazy: int
    t_l2_lazy_pair: int                      # T2(lazy(q)* (*) lazy(q))
    doubling_lazy_holds: bool                # T2(lazy q) <= 2 T2(lazy pair)
    lazy_rows: tuple                         # (eps, lazy T, bound, holds)


def transfer_checks(n: int, k: int, p=Fraction(1, 2),
                    eps_grid=(0.1, 0.5, 0.9)) -> TransferReport:
    """Mixing-time transfer inequalities for q = top_to_bottom_k(n, k).

    Checks T <= T2, the reversed-convolution doubling bound
    T2(q) <= 2 T2(q * q*), and the lazy-walk transfer
    T(lazy_p(q)) <= max(((2+eps)/p) T(q), 80/(p eps^2)) over an eps grid.

    For k < n the measure q * q* fixes the card at position 2 (every atom
    sigma_a sigma_b^{-1} has a, b >= 2), so it lives on a proper subgroup and
    T2(q * q*) is infinite: the doubling bound holds vacuously.  The
    substantive instance is the lazy one, lazy(q)* (*) lazy(q), which always
    generates; it is checked as well.  The eps grid must be nonempty, and
    every eps finite and positive.

    Every mixing time is a :func:`hitting_time`, which ends because each walk
    mixes.  Since 2 <= k <= n, q holds sigma_{n-1} and sigma_n, an (n-1)-cycle
    and an n-cycle: they generate S_n (sigma_{n-1}^{-1} sigma_n = (n-1, n)),
    and they have opposite signs, so they lie in no coset of A_n, which holds
    every proper normal subgroup of S_n.  lazy(q) and lazy(q)* (*) lazy(q)
    hold e and the support of lazy(q).  At k = n, q * q* holds e and every
    sigma_l = sigma_l sigma_1^{-1}.
    """
    require_dense(n)
    if not eps_grid or not all(math.isfinite(eps) and eps > 0 for eps in eps_grid):
        raise ValueError(f"need a nonempty grid of finite positive eps, got {tuple(eps_grid)}")
    q = top_to_bottom_k(n, k)
    t_tv = hitting_time(q, "tv")
    t_l2 = hitting_time(q, "l2")
    vacuous = k < n
    t_qq = None if vacuous else hitting_time(convolve_measures(q, reversal(q)), "l2")
    p = Fraction(p)
    lazy_q = lazy(q, p)
    t_tv_lazy = hitting_time(lazy_q, "tv")
    t_l2_lazy = hitting_time(lazy_q, "l2")
    t_pair = hitting_time(convolve_measures(reversal(lazy_q), lazy_q), "l2")
    rows = []
    for eps in eps_grid:
        bound = max((2 + eps) / float(p) * t_tv, 80.0 / (float(p) * eps * eps))
        rows.append((eps, t_tv_lazy, bound, t_tv_lazy <= bound))
    return TransferReport(
        n=n,
        k=k,
        t_tv=t_tv,
        t_l2=t_l2,
        t_l2_qq_star=t_qq,
        tv_le_l2=t_tv <= t_l2,
        doubling_holds=True if vacuous else t_l2 <= 2 * t_qq,
        doubling_vacuous=vacuous,
        t_tv_lazy=t_tv_lazy,
        t_l2_lazy=t_l2_lazy,
        t_l2_lazy_pair=t_pair,
        doubling_lazy_holds=t_l2_lazy <= 2 * t_pair,
        lazy_rows=tuple(rows),
    )
