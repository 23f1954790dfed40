"""Dense evolution of shuffle walks over all of S_n at small n, and spectra.

Distributions live on the full n!-point state space indexed by lexicographic
permutation rank.  Distance sums are exact, because n! terms of magnitude
~1/n! lose digits under naive accumulation: the dense TV sum goes through
:func:`_exact_sum`, which bins the terms by exponent in numpy and returns
math.fsum's correctly rounded value bit for bit for any fewer than 2^26
finite terms; the small sums elsewhere call math.fsum.  This module owns
every computation over the whole group: the group as one int8 array of
one-line maps in rank order, rank-indexed multiplication tables computed
from it in bulk (its columns permuted by the one group product,
:func:`shufflemix.perms.right_multiplier`, then ranked in one array pass by
:func:`shufflemix.perms.rank_columns`), each walk measure's atoms resolved
once to (weight, table) pairs, dense convolution gathering through those
tables for TV only (one walk loop, :func:`_walk`), the BFS for word
lengths in the Cayley graph (:func:`cayley_distances`), and the Fourier blocks
q^(lambda) = sum_g q(g) rho_lambda(g^{-1}) over the irreducible
representations lambda of S_n (Diaconis 1988, ch. 3), rho_lambda in Young's
orthogonal form.  Any walk's L2 profile and a symmetric walk's spectrum are
read off them, and every T2 by one search that squares blocks
(:func:`_first_mixed`): any walk's (:func:`t2`, :func:`transfer_checks`), a
spectrum's (:func:`spectrum_t2`), and the bound that E_target <= A E_q
implies (:func:`comparison_t2`); block pairs give A* (:func:`dirichlet_constants`).
One dense cap, n <= 8, covers all of these and every output of size n!;
:func:`require_dense` is its one check.

The one walk whose TV needs no dense state is top-to-random, tbk(n, n), and
its lazy versions: :func:`top_to_random_tv` reads their TV profile off the
(n + 1)-state unselected-count chain of :mod:`shufflemix.coupling` at any n,
and the dense walk is its test oracle.

:func:`coupling_tail` computes the tail P(T > m) of both couplings exactly,
plain or lazy: off the same chain for the card coupling at k = n, any n,
else off the n!-state relative deck (deck 2's position of each card of
deck 1) under the dense cap, as edges stepped by that module's one edge
stepper, :func:`_edge_chain`.  Its one reader reads every profile here.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .coupling import _edge_chain, _from_top, _to_top, _unselected_chain, _values_at
from .errors import CapacityError
from .measures import SparseMeasure, lazy, reversal, top_to_bottom_k
from .perms import inverse, rank_columns, right_multiplier
from .report import Record

DENSE_CAP = 8

TV_THRESHOLD = 1 / (2 * math.e)
LP_THRESHOLD = 1 / math.e


class GroupTable:
    """S_n in rank (lexicographic) order as one (n!, n) int8 array of
    one-line maps, and the rank-indexed right-multiplication tables read off
    it, each built on first use, as are each walk measure's atoms."""

    def __init__(self, n: int):
        self.n = n
        self.size = math.factorial(n)
        # S_m in rank order: each first label v, then S_{m-1} with every
        # label >= v shifted up by one
        maps = np.zeros((1, 0), dtype=np.int8)
        for m in range(1, n + 1):
            v = np.arange(1, m + 1, dtype=np.int8)[:, None, None]
            first = np.broadcast_to(v, (m, len(maps), 1))
            maps = np.concatenate([first, maps + (maps >= v)], axis=2).reshape(-1, m)
        self.maps = maps
        self._right: dict[tuple, np.ndarray] = {}
        self._atoms: dict[SparseMeasure, list] = {}

    def right_mul(self, s: tuple) -> np.ndarray:
        """J with J[i] = rank(perm_i * s); a bijection of ranks.  The columns
        of perm_i * s are the table's permuted by right_multiplier(s), ranked
        by :func:`shufflemix.perms.rank_columns`."""
        tbl = self._right.get(s)
        if tbl is None:
            tbl = rank_columns(np.array(right_multiplier(s)(self.maps.T)))
            self._right[s] = tbl
        return tbl

    def atoms(self, q: SparseMeasure) -> list[tuple[float, np.ndarray]]:
        """(float q(s), right_mul(s^{-1})) for each support atom s of q, in
        sorted rank order; resolved once per measure."""
        pairs = self._atoms.get(q)
        if pairs is None:
            pairs = [(float(w), self.right_mul(inverse(g).map)) for g, w in q.items()]
            self._atoms[q] = pairs
        return pairs


def require_dense(n: int) -> None:
    """Raise CapacityError unless n is within the dense cap."""
    if n > DENSE_CAP:
        raise CapacityError(f"n={n} exceeds dense cap {DENSE_CAP}")


@lru_cache(maxsize=None)
def group_table(n: int) -> GroupTable:
    require_dense(n)
    return GroupTable(n)


class DenseDistribution(Record):
    """Probability vector over S_n indexed by permutation rank.

    A float64 array with no negative entry is kept without a copy, so the
    caller must not change it afterwards; the stored array is a read-only
    view of it, so nothing changes it through the distribution."""

    __slots__ = ("n", "probs")
    _uncompared = ("probs",)

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.shape != (math.factorial(self.n),):
            raise ValueError(f"expected length {math.factorial(self.n)}, got {p.shape}")
        low = p.min()
        if low < -1e-15:
            raise ValueError(f"negative probability {low}")
        if low < 0:
            p = np.where(p < 0, 0.0, p)
        # pairwise summation errs by far less than 1e-14 on n! <= 40320
        # nonnegative terms summing to about 1; a NaN or inf total fails too
        total = float(p.sum())
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"probabilities sum to {total}")
        p = p.view()
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)


def point_mass(n: int) -> DenseDistribution:
    t = group_table(n)
    p = np.zeros(t.size)
    p[0] = 1.0
    return DenseDistribution(n, p)


def convolve_step(d: DenseDistribution, q: SparseMeasure) -> DenseDistribution:
    """One walk step: result(g) = sum_h d(h) q(h^{-1} g) = sum_s q(s) d(g s^{-1}).

    Each support atom s gathers d through the rank table of s^{-1}
    (:meth:`GroupTable.atoms`); atoms are added in sorted rank order so the
    result is bitwise deterministic.
    """
    if d.n != q.n:
        raise ValueError(f"size mismatch: {d.n} vs {q.n}")
    t = group_table(d.n)
    out = np.zeros(t.size)
    for w, tbl in t.atoms(q):
        out += w * d.probs[tbl]
    return DenseDistribution(d.n, out)


_EXACT_TERMS = 1 << 26
_HIGH_BITS = np.int64(-1 << 27)


def _exact_sum(x: np.ndarray) -> float:
    """math.fsum(x.tolist()) of a 1-d float64 array, bit for bit, at array speed.

    Each double with exponent field E splits exactly as hi + lo: hi is its
    bit pattern with the low 27 mantissa bits cleared, fewer than 2^26 units
    of 2^(max(E, 1) - 1048), and lo = x - hi, fewer than 2^27 units of
    2^(max(E, 1) - 1075).  One bincount per part sums by E, and fewer than
    2^26 such terms sum exactly in a double, so fsum of the at most 4096 bin
    sums rounds the exact total correctly, as fsum of the terms does
    (exponent binning: Demmel & Hida 2003).  ValueError for 2^26 or more
    terms, or for a non-finite term or hi bin sum (an inf or NaN term lands
    in bin 2047 as inf or NaN).
    """
    if x.size >= _EXACT_TERMS:
        raise ValueError(f"exact sum takes fewer than 2**26 terms, got {x.size}")
    bits = np.ascontiguousarray(x, dtype=np.float64).view(np.int64)
    exponent = (bits >> 52) & 0x7FF
    hi = (bits & _HIGH_BITS).view(np.float64)
    hi_bins = np.bincount(exponent, hi, minlength=2048)
    if not np.isfinite(hi_bins).all():
        raise ValueError("exact sum needs finite terms and finite bin sums")
    lo_bins = np.bincount(exponent, bits.view(np.float64) - hi, minlength=2048)
    bins = np.concatenate([hi_bins, lo_bins])
    return math.fsum(bins[bins != 0].tolist())


def tv_distance(d: DenseDistribution) -> float:
    """Total variation distance to uniform: half the L1 gap, summed exactly
    (:func:`_exact_sum`, equal to math.fsum of the n! terms)."""
    u = 1.0 / math.factorial(d.n)
    return 0.5 * _exact_sum(np.abs(d.probs - u))


class MixingReport(Record):
    __slots__ = ("measure",
                 "metric",                    # "tv" | "l2"
                 "threshold",
                 "mixing_time",               # None when saturated
                 "profile",                   # ((step, distance), ...), step 0 included
                 "saturated")


def _walk(q: SparseMeasure):
    """q^0 = delta_e, q^1, q^2, ...: the walk driven by q, one step per item.

    The only loop over :func:`convolve_step`, which serves TV only; a step is
    taken only when the next item is requested.
    """
    d = point_mass(q.n)
    while True:
        yield d
        d = convolve_step(d, q)


def mixing_time(q: SparseMeasure, metric: str = "tv", m_max: int = 200,
                label: str | None = None) -> MixingReport:
    """First step m with distance(q^m, pi) <= threshold, plus the profile.

    Thresholds are 1/(2e) for TV and 1/e for the L2 distance.  TV steps the
    dense walk; L2 is read off q's Fourier blocks.  Saturation (threshold not
    reached by m_max >= 0) is a reported outcome, not an error.
    """
    if metric not in ("tv", "l2"):
        raise ValueError(f"metric must be 'tv' or 'l2', got {metric!r}")
    dists, threshold = ((map(tv_distance, _walk(q)), TV_THRESHOLD) if metric == "tv"
                        else (_l2_distances(_nontrivial_blocks(q)), LP_THRESHOLD))
    return _report(dists, metric, threshold, m_max, label or f"measure(n={q.n})")


def _report(dists, metric: str, threshold: float, m_max: int, label: str) -> MixingReport:
    """The MixingReport of the distances for m = 0..m_max, m_max >= 0."""
    if m_max < 0:
        raise ValueError(f"m_max must be nonnegative, got {m_max}")
    profile = tuple(enumerate(_values_at(dists, range(m_max + 1))))
    hit = next((m for m, dist in profile if dist <= threshold), None)
    return MixingReport(
        measure=label,
        metric=metric,
        threshold=threshold,
        mixing_time=hit,
        profile=profile,
        saturated=hit is None,
    )


def _top_to_random_distances(n: int, rate: float):
    """TV to uniform at m = 0, 1, ... of the walk that applies tbk(n, n) with
    probability rate per step, from the unselected-count chain.

    Inverting permutations keeps the distance, so this is the TV of
    random-to-top, whose unselected cards sit at the bottom in their original
    order: with U_m of them, the deck is uniform over the n!/U_m! decks whose
    increasing bottom run r(sigma) is at least U_m (Aldous & Diaconis 1986).
    So P_m(sigma) = G(r(sigma)) r(sigma)!/n! with G(r) = sum_{u <= r}
    P(U_m = u) u!/r! = G(r - 1)/r + P(U_m = r), and a share c_r = r/(r + 1)
    of the decks (c_n = 1) has r(sigma) = r exactly:
    TV = 1/2 sum_{r >= 1} c_r |G(r) - 1/r!|, which reads every u >= 1.
    """
    inv_fact = [1 / math.factorial(r) for r in range(n + 1)]
    share = [r / (r + 1) for r in range(n)] + [1.0]

    def tv(law):
        prob = law.tolist()
        g, terms = prob[0], []
        for r in range(1, n + 1):
            g = g / r + prob[r]
            terms.append(share[r] * abs(g - inv_fact[r]))
        return 0.5 * math.fsum(terms)

    return map(tv, _unselected_chain(n, 1, rate))


def top_to_random_tv(n: int, p=None, m_max: int = 200,
                     label: str | None = None) -> MixingReport:
    """The TV MixingReport of tbk(n, n), or of lazy(tbk(n, n), p) for
    0 < p < 1, at any n >= 2: O(n) work a step, no dense cap.

    >>> top_to_random_tv(8).mixing_time, top_to_random_tv(8, Fraction(1, 2)).mixing_time
    (14, 29)
    """
    if n < 2:
        raise ValueError(f"need n >= k > 1, got n={n}, k={n}")
    if p is not None and not 0 < p < 1:
        raise ValueError(f"laziness p must be in (0,1), got {p}")
    dists = _top_to_random_distances(n, 1.0 if p is None else float(p))
    return _report(dists, "tv", TV_THRESHOLD, m_max, label or f"measure(n={n})")


def _relative_chain(n: int, k: int, kind: str):
    """(src, dst, weight) arrays of one coupling step of the relative deck.

    rel(i) is the deck-2 position of the card at deck-1 position i; both
    couplings choose positions from rel alone, so rel is a Markov chain on
    S_n, read from the rows of group_table(n).maps.  A step that moves
    deck 1's cards by the position map f1 and deck 2's by f2 sends rel to
    f2 o rel o f1^{-1}, its 0-based labels ranked by
    :func:`shufflemix.perms.rank_columns`.  The identity, where
    the decks agree, is absorbing; edges into it are dropped, so the chain
    carries only the mass of the pairs not yet coupled.
    """
    rel = group_table(n).maps - 1
    inv = np.argsort(rel, axis=1).astype(np.int8)
    lo = n - k
    if kind == "bottom_k_to_top":
        # deck 1 moves its block card at a = lo + u to the top; deck 2 moves
        # the same card from b = rel(a) when b is in its block, else a card
        # from a uniform block position whose card deck 1 holds above its block
        above1, above2 = rel[:, lo:] < lo, inv[:, lo:] < lo
        src, u = np.nonzero(~above1)
        fsrc, fu, fv = np.nonzero(above1[:, :, None] & above2[:, None, :])
        a = lo + np.concatenate([u, fu])
        b = np.concatenate([rel[src, lo + u], lo + fv])
        weight = np.concatenate([np.full(len(src), 1 / k), 1 / (k * above1.sum(1)[fsrc])])
        src = np.concatenate([src, fsrc])
        moved = (_to_top(rel[src, _from_top(j, a)], b) for j in range(n))
    else:
        # a fair coin picks the leader, which inserts its top card at slot
        # s = lo + u; the trailer uses s too, unless the leader's card sits
        # in its bottom k - 1 block at p and s is p - 1 or p: then the slots
        # swap; int32 edge indices and int8 positions keep the n = 8 chain small
        src, coin, u = np.indices((len(rel), 2, k), dtype=np.int32).reshape(3, -1)
        p = np.where(coin == 0, rel[src, 0], inv[src, 0])
        lead = lo + u.astype(np.int8)
        trail = np.where((p > lo) & (lead == p), p - 1,
                         np.where((p > lo) & (lead == p - 1), p, lead))
        s1, s2 = np.where(coin == 0, lead, trail), np.where(coin == 0, trail, lead)
        weight = np.full(len(src), 1 / (2 * k))
        moved = (_from_top(rel[src, _to_top(j, s1)], s2) for j in range(n))
    dst = rank_columns(np.array([col.astype(np.int8) for col in moved]))
    keep = dst != 0
    # intp indices: each step gathers through src
    return src[keep].astype(np.intp, copy=False), dst[keep], weight[keep]


def coupling_tail(n: int, k: int, kind: str, ms, p: float = 1.0) -> list[float]:
    """Exact P(T > m) at each m in ms, T the coupling time of ``coupling_trials``
    (deck 1 the identity, deck 2 uniform) for its p-lazy clock.

    T is an integer, so each value is taken at floor(m), and m < 0 gives 1.
    For the card coupling at k = n, the u cards neither deck has moved keep
    their relative orders, deck 1's original and deck 2's uniform, so
    P(T > m) = sum_u P(U_m = u)(1 - 1/u!) (Aldous & Diaconis 1986), off the
    unselected-count chain at any n; every other (kind, k) steps the n!-state
    relative-deck chain, under the dense cap.  Stepping stops at the largest
    floor(m) or where the chain stops changing, whichever comes first.

    >>> coupling_tail(3, 3, "bottom_k_to_top", [0, 1.5, 2, -1])
    [0.8333333333333334, 0.5, 0.16666666666666669, 1.0]
    """
    if kind not in ("bottom_k_to_top", "top_insert"):
        raise ValueError(f"unknown coupling kind {kind!r}")
    if not 1 < k <= n:
        raise ValueError(f"k={k} outside (1, {n}]")
    if not 0 < p <= 1:
        raise ValueError(f"laziness p must be in (0, 1], got {p}")
    ms = list(ms)
    if not all(math.isfinite(m) for m in ms):
        raise ValueError(f"tail points must be finite, got {ms}")
    if kind == "bottom_k_to_top" and k == n:
        miss = np.array([1 - 1 / math.factorial(u) for u in range(n + 1)])
        tails = _values_at(_unselected_chain(n, 2, float(p)), ms,
                           lambda law: math.fsum((law * miss).tolist()))
    else:
        require_dense(n)
        law = np.r_[0.0, np.full(math.factorial(n) - 1, 1 / math.factorial(n))]
        tails = _values_at(_edge_chain(*_relative_chain(n, k, kind), law, float(p)), ms,
                           lambda law: float(law.sum()))
    return [1.0 if m < 0 else tail for m, tail in zip(ms, tails)]


class SpectrumReport(Record):
    __slots__ = ("eigenvalues",                # ascending
                 "beta_min",
                 "spectral_gap",
                 "blocks")                    # per nontrivial block, ascending
    _defaults = {"beta_min": 0.0, "spectral_gap": 0.0, "blocks": ()}
    _uncompared = ("eigenvalues", "blocks")


def _tableaux(n: int) -> dict[tuple, list[tuple]]:
    """Shape -> its standard tableaux as content vectors: entry i - 1 is
    column - row of the box holding i, which identifies the tableau."""
    grown = {(): [()]}
    for _ in range(n):
        nxt = {}
        for shape, tabs in grown.items():
            for r, row in enumerate(shape + (0,)):
                if r == 0 or row < shape[r - 1]:
                    new = shape[:r] + (row + 1,) + shape[r + 1:]
                    nxt.setdefault(new, []).extend(t + (row - r,) for t in tabs)
        grown = nxt
    return grown


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


def _blocks(q: SparseMeasure):
    """(shape lambda, q^(lambda) = sum_g q(g) rho_lambda(g^{-1})) for every
    shape of n, for any measure q; the one-row shape (n) is the trivial one."""
    require_dense(q.n)
    atoms = [(g, float(w)) for g, w in q.items()]
    for shape, tabs in _tableaux(q.n).items():
        d, mats = len(tabs), _adjacent_matrices(tabs)
        yield shape, sum(w * _rho(g, mats, d) for g, w in atoms)


def _nontrivial_blocks(q: SparseMeasure) -> list[np.ndarray]:
    """q's blocks (:func:`_blocks`) at every shape but the trivial one."""
    return [b for shape, b in _blocks(q) if len(shape) > 1]


def _symmetric_blocks(q: SparseMeasure):
    """:func:`_blocks` of a symmetric q (q equal to its reversal), each block
    checked symmetric because eigvalsh reads only one triangle."""
    if q != reversal(q):
        raise ValueError("Fourier blocks need a symmetric measure (q == reversal(q))")
    for shape, q_hat in _blocks(q):
        if not np.allclose(q_hat, q_hat.T, rtol=0, atol=1e-12):
            raise ValueError("Fourier block not symmetric; representation inconsistent")
        yield shape, q_hat


def _l2(powers) -> float:
    """d_2(q^m, pi) from the m-th powers P of q's nontrivial blocks: by
    Plancherel, d_2^2 = sum_{lambda != (n)} d_lambda ||P||_F^2 (Diaconis 1988, ch. 3)."""
    return math.sqrt(math.fsum(len(p) * float(np.vdot(p, p)) for p in powers))


def _l2_distances(blocks):
    """d_2(q^m, pi) for m = 0, 1, ..., from q's nontrivial blocks, one product
    per block a step: the L2 profile, which needs every m."""
    powers = [np.eye(len(b)) for b in blocks]
    while True:
        yield _l2(powers)
        powers = [p @ b for p, b in zip(powers, blocks)]


def _first_mixed(blocks) -> int:
    """T2, the first m >= 0 with d_2 <= 1/e (:func:`_l2`), from nontrivial
    blocks of length d_lambda: Fourier blocks, taken by @, or bounds b >= 0 on
    a block's eigenvalue moduli, taken elementwise.  d_2 is nonincreasing in m
    (Levin, Peres & Wilmer 2009, ch. 4), so the blocks are squared until
    B^(2^j) mixes, then m is lifted from 2^(j-1) one bit at a time: about
    2 log2 T2 products per block.  ValueError "walk does not mix" if d_2 > 1/e
    at m = 2^40, as when a nontrivial block has a modulus-1 eigenvalue (bound)."""
    def times(xs, ys):
        return [x @ y if x.ndim == 2 else x * y for x, y in zip(xs, ys)]

    if not blocks:  # else d_2(q^0)^2 = sum d_lambda^2 >= 1
        return 0
    squares = [list(blocks)]  # squares[j]: the blocks to the power 2^j
    while not _l2(squares[-1]) <= LP_THRESHOLD:  # NaN does not mix
        if len(squares) > 40:
            raise ValueError("walk does not mix: d_2 > 1/e at m = 2**40")
        squares.append(times(squares[-1], squares[-1]))
    m = 0  # the largest m with B^m unmixed, built high bit first
    for j in range(len(squares) - 2, -1, -1):
        trial = times(power, squares[j]) if m else squares[j]
        if not _l2(trial) <= LP_THRESHOLD:
            m, power = m + (1 << j), trial
    return m + 1


def t2(q: SparseMeasure) -> int:
    """T2 of any walk, by squaring q's nontrivial blocks (:func:`_first_mixed`).

    >>> t2(top_to_bottom_k(4, 4))
    4
    >>> t2(lazy(top_to_bottom_k(4, 4), Fraction(1, 2)))
    9
    """
    return _first_mixed(_nontrivial_blocks(q))


def spectrum(q: SparseMeasure) -> SpectrumReport:
    """Full real spectrum of the transition matrix M(x, y) = q(x^{-1} y) of a
    symmetric q: each block's eigenvalues, repeated d_lambda times."""
    blocks = [(shape, np.linalg.eigvalsh(b)) for shape, b in _symmetric_blocks(q)]
    eig = np.sort(np.concatenate([np.repeat(beta, len(beta)) for _, beta in blocks]))
    if abs(eig[-1] - 1.0) > 1e-10:
        raise ValueError(f"top eigenvalue {eig[-1]} != 1")
    gap = 1.0 - eig[-2] if eig.size > 1 else 1.0
    return SpectrumReport(eigenvalues=eig, beta_min=float(eig[0]), spectral_gap=float(gap),
                          blocks=tuple(beta for shape, beta in blocks if shape != (q.n,)))


def spectrum_t2(spec: SpectrumReport) -> int:
    """Exact T2 of a symmetric walk from its spectrum by :func:`_first_mixed`:
    its blocks are symmetric, so ||q^(lambda)^m||_F^2 = sum_i |beta_i|^(2m)."""
    return _first_mixed([np.abs(beta) for beta in spec.blocks])


def dirichlet_constants(target: SparseMeasure, q: SparseMeasure) -> dict[tuple, float]:
    """Shape lambda -> the best constant in E_target <= A E_q on lambda, the top
    generalized eigenvalue of (I - T^, I - Q^), read through the Cholesky factor
    L of I - Q^ as that of L^{-1} (I - T^) L^{-T}.  Both forms split over the
    irreps (Diaconis & Saloff-Coste 1993), so the maximum A* bounds every flow's
    A from below.  ValueError unless both measures are symmetric and q's support
    generates (each nontrivial I - Q^ has least eigenvalue above 1e-9)."""
    if target.n != q.n:
        raise ValueError(f"size mismatch: target n={target.n}, q n={q.n}")
    out = {}
    for (shape, t_hat), (_, q_hat) in zip(_symmetric_blocks(target), _symmetric_blocks(q)):
        if shape == (q.n,):
            continue
        eye = np.eye(len(q_hat))
        if np.linalg.eigvalsh(eye - q_hat)[0] <= 1e-9:
            raise ValueError(f"I - q^ not positive definite at shape {shape}: "
                             "the support of q does not generate S_n")
        chol = np.linalg.cholesky(eye - q_hat)
        half = np.linalg.solve(chol, eye - t_hat)
        out[shape] = float(np.linalg.eigvalsh(np.linalg.solve(chol, half.T))[-1])
    return out


def comparison_t2(target: SpectrumReport, q: SpectrumReport, a: float) -> int:
    """The T2 bound for q that E_target <= a E_q implies, from the two walks'
    spectra.  Courant-Fischer on each block pair, eigenvalues in one order,
    gives 1 - beta_i(q) >= (1 - beta_i(T))/a (Diaconis & Saloff-Coste 1993), so
    |beta_i(q)| <= b_i = max(1 - (1 - beta_i(T))/a, beta_-), beta_- =
    max(0, -beta_min(q)); the first m with sqrt(sum d_lambda b_i^(2m)) <= 1/e.

    >>> from shufflemix.measures import rudvalis_symmetric, symmetrize
    >>> rudvalis = spectrum(rudvalis_symmetric(2))
    >>> spectrum_t2(rudvalis), comparison_t2(spectrum(symmetrize(top_to_bottom_k(2, 2))),
    ...                                      rudvalis, 2 / 3)
    (2, 2)
    """
    if target.eigenvalues.size != q.eigenvalues.size:
        raise ValueError("size mismatch: the spectra are of walks on different n")
    beta_minus = max(0.0, -q.beta_min)
    return _first_mixed([np.maximum(1 - (1 - beta) / a, beta_minus) for beta in target.blocks])


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


class TransferReport(Record):
    __slots__ = ("n", "k", "t_tv", "t_l2",
                 "t_l2_qq_star",              # None: q * q* lives on a proper subgroup
                 "tv_le_l2",
                 "doubling_holds",            # T2(q) <= 2 T2(q * q*)
                 "doubling_vacuous",          # right side infinite (reducible q * q*)
                 "t_tv_lazy", "t_l2_lazy",
                 "t_l2_lazy_pair",            # T2(lazy(q)* (*) lazy(q))
                 "doubling_lazy_holds",       # T2(lazy q) <= 2 T2(lazy pair)
                 "lazy_rows")                 # (eps, lazy T, bound, holds)


def transfer_checks(n: int, k: int, p=Fraction(1, 2),
                    eps_grid=(0.1, 0.5, 0.9)) -> TransferReport:
    """Mixing-time transfer inequalities for q = top_to_bottom_k(n, k).

    Checks T <= T2, the reversed-convolution doubling bound
    T2(q) <= 2 T2(q * q*), and the lazy-walk transfer
    T(lazy_p(q)) <= max(((2+eps)/p) T(q), 80/(p eps^2)) over a nonempty grid
    of finite positive eps.

    For k < n, q * q* fixes the card at position 2 (every atom
    sigma_a sigma_b^{-1} has a, b >= 2), so T2(q * q*) is infinite and the
    doubling bound holds vacuously; the lazy pair lazy(q)* (*) lazy(q) always
    generates and is checked too.

    Every T2 is found by :func:`_first_mixed` from one transform of q, its
    nontrivial blocks B (:func:`_blocks`), by block algebra.  With q^(lambda)
    = sum_g q(g) rho(g^{-1}), a convolution's blocks are (a * b)^ = b^ a^, as
    rho((h u)^{-1}) = rho(u^{-1}) rho(h^{-1}); the reversal q*'s are B^T, as
    rho(g) = rho(g^{-1})^T in the orthogonal form; and lazy_p(q)'s are
    L = p B + (1 - p) I.  So q * q* has blocks B^T B and the lazy pair
    lazy(q)* * lazy(q) has L L^T (Diaconis 1988, ch. 3).  q and
    lazy(q) are walked densely once each, to their TV thresholds only; the
    walks end because both mix: since 2 <= k <= n, q holds sigma_{n-1} and
    sigma_n, which generate S_n ((n-1, n) = sigma_{n-1}^{-1} sigma_n) and
    have opposite signs, so they lie in no coset of A_n, which holds every
    proper normal subgroup; lazy(q) adds e.  At k = n both TV profiles come
    from the unselected-count chain instead, and no walk is stepped.
    """
    require_dense(n)
    if not eps_grid or not all(math.isfinite(eps) and eps > 0 for eps in eps_grid):
        raise ValueError(f"need a nonempty grid of finite positive eps, got {tuple(eps_grid)}")
    q = top_to_bottom_k(n, k)
    p = Fraction(p)
    lazy_q = lazy(q, p)
    profiles = ((_top_to_random_distances(n, rate) for rate in (1.0, float(p))) if k == n
                else (map(tv_distance, _walk(w)) for w in (q, lazy_q)))
    t_tv, t_tv_lazy = (next(m for m, d in enumerate(dists) if d <= TV_THRESHOLD)
                       for dists in profiles)
    vacuous = k < n
    blocks = _nontrivial_blocks(q)
    lazy_blocks = [float(p) * b + float(1 - p) * np.eye(len(b)) for b in blocks]
    t_l2, t_l2_lazy = _first_mixed(blocks), _first_mixed(lazy_blocks)
    t_qq = None if vacuous else _first_mixed([b.T @ b for b in blocks])
    t_pair = _first_mixed([b @ b.T for b in lazy_blocks])
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
