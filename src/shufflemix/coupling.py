"""Monte Carlo couplings and order statistics for the bottom-k shuffles.

Two couplings are implemented.  The card coupling drives both decks by the
reversed walk: pick a uniform card from deck 1's bottom k block and move it
to the top of both decks when possible, otherwise move a uniform card of
deck 2's block that deck 1's block does not hold.  The position coupling
drives both decks by the forward walk: a uniformly chosen leading deck
inserts its top card into a uniform bottom-k slot and the trailing deck
copies the slot except in the two swap cases that create a match.  Coupling
times upper-bound total variation distance; the collector statistics and the
single-card walk produce the matching lower bounds.

Each trial is a pure function of (seed, trial): it reads its own
counter-based stream, shuffles deck 2 with it, then draws the randomness of
each block of DRAW_BLOCK steps up front.  Any trial can be replayed in
isolation, and a trial's coupling time does not depend on which other
trials run with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_CAP_FACTOR = 50        # censor a trial after 50 n^3 steps
DRAW_BLOCK = 64                # steps per draw block; part of the replay
                               # contract, changing it changes every trial


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Counter-based stream keyed by (seed, trial); replayable in isolation."""
    if seed < 0 or trial < 0:
        raise ValueError("seed and trial must be nonnegative")
    key = np.array([seed, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def fisher_yates(n: int, rng: np.random.Generator) -> list[int]:
    """Uniform deck of labels 1..n, drawn back to front: position i swaps
    with a uniform j <= i for i = n - 1 down to 1.

    One array draw over the bounds n, n - 1, ..., 2 reads the stream exactly
    as the n - 1 scalar calls integers(i + 1) would, at a fraction of their
    cost.
    """
    deck = list(range(1, n + 1))
    picks = rng.integers(np.arange(n, 1, -1)).tolist()
    for i, j in zip(range(n - 1, 0, -1), picks):
        deck[i], deck[j] = deck[j], deck[i]
    return deck


@dataclass(frozen=True)
class TrialStats:
    """One coupling trial; coupling_time equals the cap when censored."""

    trial: int
    seed: int
    coupling_time: int
    censored: bool


def _trial(n: int, k: int, kind: str, trial: int, seed: int,
           cap: int) -> TrialStats:
    """One coupling trial on plain lists.

    Each block of DRAW_BLOCK steps draws its two arrays up front: for the
    card coupling the block-position picks then the fallback uniforms, for
    the position coupling the leader coins then the slot picks.
    """
    rng = trial_rng(seed, trial)
    deck1 = list(range(1, n + 1))
    # deck2 holds deck1's int objects, so list comparison and search take
    # their identity fast path for cards past the small-int cache (> 256)
    deck2 = [deck1[c - 1] for c in fisher_yates(n, rng)]
    lo = n - k                                   # first 0-based block position
    step = 0
    while deck1 != deck2:
        if step >= cap:
            return TrialStats(trial, seed, cap, True)
        span = min(DRAW_BLOCK, cap - step)
        if kind == "bottom_k_to_top":
            picks = rng.integers(k, size=span).tolist()
            fallbacks = rng.random(size=span).tolist()
            for u, f in zip(picks, fallbacks):
                # deck1 moves its block card at lo + u; deck2 moves the same
                # card when its block holds it, else a uniform card of its
                # block that deck1's block lacks (never needed at k = n).
                # A card already matched sits at p1 in deck2 too, so about
                # half the picks skip the search.
                p1 = lo + u
                card = deck1[p1]
                p2 = p1 if deck2[p1] == card else deck2.index(card)
                if p2 < lo:
                    pool = sorted(set(deck2[lo:]).difference(deck1[lo:]))
                    p2 = deck2.index(pool[int(f * len(pool))])
                deck1.insert(0, deck1.pop(p1))
                deck2.insert(0, deck2.pop(p2))
                step += 1
                if deck1 == deck2:
                    break
        else:
            coins = rng.integers(2, size=span).tolist()
            slots = rng.integers(k, size=span).tolist()
            for c, u in zip(coins, slots):
                # the leader inserts its top card at slot; the trailer copies
                # the slot unless that card sits in the trailer's bottom k - 1
                # block at p and the slot hits {p - 1, p}: then the two slots
                # swap and the card lands at the same position in both decks
                slot = lo + u
                lead, trail = (deck1, deck2) if c == 0 else (deck2, deck1)
                top = lead.pop(0)
                lead.insert(slot, top)
                p = trail.index(top)
                if p > lo and slot == p:
                    slot = p - 1
                elif p > lo and slot == p - 1:
                    slot = p
                trail.insert(slot, trail.pop(0))
                step += 1
                if deck1 == deck2:
                    break
    return TrialStats(trial, seed, step, False)


def coupling_trials(n: int, k: int, kind: str, trials: int, seed: int = 0,
                    cap: int | None = None) -> list[TrialStats]:
    """Coupling times for deck1 = identity vs deck2 ~ uniform, per trial.

    kind is "bottom_k_to_top" or "top_insert".  Trials are pure functions of
    (n, k, kind, seed, trial); censoring at cap (default 50 n^3) is flagged,
    never dropped.
    """
    if kind not in ("bottom_k_to_top", "top_insert"):
        raise ValueError(f"unknown coupling kind {kind!r}")
    if not 1 < k <= n:
        raise ValueError(f"k={k} outside (1, {n}]")
    if cap is None:
        cap = DEFAULT_CAP_FACTOR * n**3
    return [_trial(n, k, kind, t, seed, cap) for t in range(trials)]


def tail_estimate(stats: list[TrialStats], m: float) -> tuple[float, float]:
    """(empirical P(T > m), binomial standard error); censored trials count
    as exceeding any m below the cap."""
    hits = sum(s.coupling_time > m for s in stats)
    trials = len(stats)
    p = hits / trials
    return p, math.sqrt(p * (1 - p) / trials)


@dataclass(frozen=True)
class CollectorStats:
    """Distinct-count trajectory summary of one drawing trial."""

    n: int
    j: int
    l_j: int


@dataclass(frozen=True)
class CollectorSummary:
    n: int
    j: int
    trials: int
    times: tuple[int, ...]
    mean: float
    stderr: float


def collector_trial(n: int, j: int, rng: np.random.Generator) -> CollectorStats:
    """Draw uniform labels until all but j are seen; L_j is the draw count."""
    if j >= n:
        return CollectorStats(n, j, 0)
    seen = np.zeros(n + 1, dtype=bool)
    distinct = 0
    draws = 0
    target = n - j
    while distinct < target:
        batch = rng.integers(1, n + 1, size=max(64, n // 2))
        for card in batch:
            draws += 1
            if not seen[card]:
                seen[card] = True
                distinct += 1
                if distinct == target:
                    break
    return CollectorStats(n, j, draws)


def coupon_collector(n: int, j: int, trials: int, seed: int = 0) -> CollectorSummary:
    """Empirical L_j distribution over independent keyed trials."""
    if n < 1 or j < 0:
        raise ValueError("need n >= 1 and j >= 0")
    times = tuple(collector_trial(n, j, trial_rng(seed, t)).l_j
                  for t in range(trials))
    mean = sum(times) / trials
    var = sum((x - mean) ** 2 for x in times) / max(trials - 1, 1)
    return CollectorSummary(n, j, trials, times, mean,
                            math.sqrt(var / trials))


@dataclass(frozen=True)
class BoundEstimate:
    """Lower-bound estimate with a binomial 3-sigma interval."""

    estimate: float
    p_hat: float
    stderr: float
    ci_low: float
    ci_high: float


def increasing_bottom_statistic(n: int, k: int, j: int, m: float, trials: int,
                                seed: int = 0) -> BoundEstimate:
    """Estimate of P(L_j > m) - 1/j! for the reversed walk's selections.

    L_j counts steps until all but j of the initial bottom-k labels have been
    selected.  For k = n the selections are uniform labels and this is the
    plain collector; the estimate lower-bounds the distance to uniform since
    the unselected bottom labels keep their relative order.
    """
    if j > 8:
        raise ValueError(f"j={j} too large; factorials beyond 8! drown the signal")
    hits = 0
    target_low = n - k + 1
    for t in range(trials):
        rng = trial_rng(seed, t)
        if k == n:
            l_j = collector_trial(n, j, rng).l_j
        else:
            deck = list(range(1, n + 1))
            seen = set()
            l_j = 0
            while len(seen) < k - j:
                u_pos = int(rng.integers(k))
                rng.random()
                card = deck[n - k + u_pos]
                if card >= target_low:
                    seen.add(card)
                deck.insert(0, deck.pop(n - k + u_pos))
                l_j += 1
        hits += l_j > m
    p_hat = hits / trials
    se = math.sqrt(p_hat * (1 - p_hat) / trials)
    est = p_hat - 1 / math.factorial(j)
    return BoundEstimate(est, p_hat, se, est - 3 * se, est + 3 * se)


@dataclass(frozen=True)
class SingleCardReport:
    """Occupancy of the bottom block by one tracked card after l steps."""

    n: int
    k: int
    steps: int
    prob_estimate: float
    stderr: float
    pi_a: float
    lower_bound: float


def single_card_lower_bound(n: int, k: int, l: int, trials: int,
                            seed: int = 0) -> SingleCardReport:
    """Monte Carlo estimate of the tracked card's bottom-block occupancy.

    The card starts at position floor((1-c)n/2)+1 with c = k/n, above the
    block; until it first enters, it does a simple +-1 random walk, so for l
    of order n^2 the occupancy stays near 0 while the uniform measure gives
    the block mass k/n.  The gap is a distance lower bound.
    """
    c = k / n
    start = (n - int(c * n)) // 2 + 1
    if start > n - k:
        raise ValueError(f"start position {start} already inside the bottom block")
    rngs = [trial_rng(seed, t) for t in range(trials)]
    pos = np.full(trials, start, dtype=np.int64)
    done = 0
    while done < l:
        span = min(512, l - done)
        forward = np.array([r.integers(2, size=span) for r in rngs], dtype=np.int64)
        slot = n - k + 1 + np.array([r.integers(k, size=span) for r in rngs],
                                    dtype=np.int64)
        for step in range(span):
            f = forward[:, step] == 0
            s = slot[:, step]
            top = pos == 1
            fwd_new = np.where(top, s, np.where(pos <= s, pos - 1, pos))
            rev_new = np.where(pos == s, 1, np.where(pos < s, pos + 1, pos))
            pos = np.where(f, fwd_new, rev_new)
        done += span
    in_block = pos >= n - k + 1
    p_hat = float(in_block.mean())
    se = math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / trials)
    pi_a = k / n
    return SingleCardReport(n, k, l, p_hat, se, pi_a, abs(p_hat - pi_a))


def lazy_trial_wrapper(stats: TrialStats, p: float, seed: int = 0) -> TrialStats:
    """Coupling time of the p-lazy chain: each effective step waits a
    geometric number of clock ticks.  p = 1 returns the trial unchanged."""
    if not 0 < p <= 1:
        raise ValueError(f"p={p} outside (0, 1]")
    if p == 1:
        return stats
    # jumped stream: same key as the inner trial but disjoint draws, so the
    # thinning is independent of the deck initialization
    bg = np.random.Philox(key=np.array([seed, stats.trial], dtype=np.uint64)).jumped()
    rng = np.random.Generator(bg)
    if stats.coupling_time > 0:
        waits = stats.coupling_time + int(
            rng.negative_binomial(stats.coupling_time, p))
    else:
        waits = 0
    return TrialStats(stats.trial, stats.seed, waits, stats.censored)
