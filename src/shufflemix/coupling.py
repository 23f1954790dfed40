"""Couplings and lower-bound statistics for the bottom-k shuffles.

Two couplings are implemented.  The card coupling drives both decks by the
reversed walk: pick a uniform card from deck 1's bottom k block and move it
to the top of both decks when possible, otherwise move a uniform card of
deck 2's block that deck 1's block does not hold.  The position coupling
drives both decks by the forward walk: a uniformly chosen leading deck
inserts its top card into a uniform bottom-k slot and the trailing deck
copies the slot except in the two swap cases that create a match.  Coupling
times upper-bound total variation distance.  Their tails are computed
exactly (:func:`shufflemix.exact.coupling_tail`) at n <= 8 for both
couplings, and at k = n, any n, for the card coupling; this module's Monte
Carlo trials run only the rest: :func:`_card_trial` the card coupling at
n > 8 with k < n, in two phases (both decks as move stamps, with the
fallback pool kept sorted from step to step, until the two top regions
agree, then only the block cards both decks held at that step), and
:func:`_position_trial` the position coupling at n > 8, as one row of card
pairs, so that a step is one list move and a swap is found by reading the
two rows at the slot.

The matching lower bounds are small Markov chains evaluated exactly, not
simulated, and take no seed.  The pure-death chain on the count of
unselected bottom labels, stepped in place, serves the collector and
increasing-bottom statistics and, at k = n, top-to-random's TV and the card
coupling's tail.  Every other chain is (src, dst, weight) edges stepped by
:func:`_edge_chain`, one ``bincount`` a step and no BLAS: the single-card
bound's n-state position chain and the exact tail's relative deck, both
moved by the card-move maps.  Each chain yields its law, and
:func:`_values_at` reads it only at the steps its caller keeps.

Each coupling trial is a pure function of (seed, trial): it reads its own
counter-based stream, shuffles deck 2 with it, then draws the randomness of
each block of DRAW_BLOCK steps up front.  The stream is defined once, by
:func:`_rekey`: a run re-keys one generator per trial rather than building
a new one, and :func:`trial_rng` re-keys a fresh generator, so any trial
can be replayed in isolation and a trial's coupling time does not depend on
which other trials run with it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

DEFAULT_CAP_FACTOR = 50        # censor a trial after 50 n^3 steps
DRAW_BLOCK = 64                # steps per draw block; part of the replay
                               # contract, changing it changes every trial
FIXED_POINT_BLOCK = 64         # steps between an edge chain's fixed-point tests


def _rekey(rng: np.random.Generator, seed: int, trial: int) -> np.random.Generator:
    """Reset rng's Philox to the stream of (seed, trial): key (seed, trial),
    counter 0, no buffered output, exactly as a new Philox(key=...) starts.
    The key holds two 64-bit words, so seed and trial must lie in [0, 2**64)."""
    if not (0 <= seed < 2**64 and 0 <= trial < 2**64):
        raise ValueError(f"seed and trial must lie in [0, 2**64), got seed={seed}, trial={trial}")
    rng.bit_generator.state = {
        "bit_generator": "Philox", "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
        "state": {"counter": np.zeros(4, np.uint64), "key": np.array([seed, trial], np.uint64)},
        "has_uint32": 0, "uinteger": 0}
    return rng


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Counter-based stream keyed by (seed, trial): a fresh generator through
    :func:`_rekey`, the one stream definition; replayable in isolation."""
    return _rekey(np.random.Generator(np.random.Philox(0)), seed, trial)


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


def _decks(n: int, seed: int, trial: int, rng: np.random.Generator) -> tuple[list, list]:
    """Deck 1 (the identity) and deck 2 (shuffled), after re-keying rng to
    (seed, trial).  Deck 2 holds deck 1's int objects, so identity compares
    cards, and list comparison and search take their identity fast path."""
    _rekey(rng, seed, trial)
    deck1 = list(range(1, n + 1))
    return deck1, [deck1[c - 1] for c in fisher_yates(n, rng)]


def _card_trial(n: int, k: int, trial: int, seed: int, cap: int,
                rng: np.random.Generator) -> TrialStats:
    """One card coupling trial, reading rng re-keyed to (seed, trial).

    Each block of DRAW_BLOCK steps draws its block-position picks, then its
    fallback uniforms.  Deck 1 picks the card at lo + u (lo = n - k) and
    moves it to the top; deck 2 moves the same card when its block holds
    it, else the card at position floor(f * len(pool)) of the sorted pool of
    deck 2's block cards that deck 1's block lacks.  The trial runs in two
    phases.

    Phase 1: both decks as stamps.  stamp1[c] and stamp2[c] are the step
    that last moved card c in that deck, or -(initial position).  Every step
    moves a block card to the top, and a moved card cannot be picked again
    for lo steps, so each deck is its cards by decreasing stamp, and after
    t steps its block is exactly {c : stamp <= t - lo}, its top region the
    rest.  Deck 1 stays a list as well, for its picks by position.  The
    pool, deck 2's block cards in deck 1's top region, is kept sorted from
    step to step, changed only by the three cards that cross a region edge
    at step t + 1: deck 2's fallback card leaves deck 2's block, deck1[lo]
    (after the move) leaves deck 1's top region, and the one card stamped
    t + 1 - lo enters deck 2's block, joining the pool if deck 1's top
    region now holds it.  That card is read from ``ring``, deck 2's cards by
    stamp modulo n: a stamp is read lo steps after it is written and
    overwritten only n steps after, so the last n stamps, all distinct
    modulo n, are enough.
    ``same`` counts the run of steps that moved one card in both decks;
    decks that differ stay different under such a step unless it moved the
    card from different positions, and after step t the top min(t, lo)
    positions hold the cards of the last min(t, lo) steps, so the decks can
    be equal only if same >= min(t, lo).  While same = t < lo, deck 2 is its
    moved cards by decreasing stamp followed by its unmoved cards in their
    initial order, and deck 1 is compared with that.

    Phase 2: after sync, the step at which same reaches lo.  Both top regions
    then hold the same cards in the same order and the two blocks hold the
    same cards, so every later pick is a card of both blocks and every card
    that enters a block enters both at the front.  The state is ``new``,
    the count of cards that entered after sync and are still in the block
    (a prefix shared by both blocks), ``old1`` = deck 1's other block cards
    in deck order, and ``old2``, the same cards in deck 2's order.  A pick
    u < new changes neither list; a pick u >= new removes old1[u - new] from
    both and adds 1 to new.  The decks are equal iff old1 == old2.  Each
    block still draws its fallback uniforms, which phase 2 discards, so the
    stream is read as in phase 1.
    """
    deck1, deck2 = _decks(n, seed, trial, rng)
    if deck1 == deck2:
        return TrialStats(trial, seed, 0, False)
    lo = n - k                                   # first 0-based block position
    stamp1, stamp2, ring = [0] * (n + 1), [0] * (n + 1), [0] * n
    for p in range(n):
        stamp1[deck1[p]] = stamp2[deck2[p]] = -p
        ring[-p] = deck2[p]
    pool = [c for c in deck1[:lo] if stamp2[c] <= -lo]      # sorted: deck 1 is 1..n
    step = same = 0
    old1 = None                                  # phase 2's state, set at sync
    while True:
        if step >= cap:
            return TrialStats(trial, seed, cap, True)
        span = min(DRAW_BLOCK, cap - step)
        draws = zip(rng.integers(k, size=span).tolist(), rng.random(size=span).tolist())
        if same < lo:
            for u, f in draws:
                card = deck1.pop(lo + u)
                deck1.insert(0, card)
                top = step - lo                  # both blocks: stamps <= top
                step += 1
                stamp1[card] = step
                if stamp2[card] <= top:
                    same += 1
                else:
                    card = pool.pop(int(f * len(pool)))
                    same = 0
                stamp2[card] = step
                ring[step % n] = card
                if same >= lo:
                    break
                if same == step and deck1[step:] == [c for c in deck2 if stamp2[c] <= 0]:
                    return TrialStats(trial, seed, step, False)
                left = deck1[lo]                 # leaves deck 1's top region
                if stamp2[left] <= top:
                    pool.remove(left)
                top += 1
                entered = ring[top % n]          # enters deck 2's block
                if stamp1[entered] > top:
                    bisect.insort(pool, entered)
            else:
                continue
        if old1 is None:                         # sync (at step 0 when k = n)
            old1 = deck1[lo:]
            old2 = sorted(old1, key=stamp2.__getitem__, reverse=True)
            new = 0
            if old1 == old2:
                return TrialStats(trial, seed, step, False)
        for u, _ in draws:
            step += 1
            if u >= new:
                card = old1.pop(u - new)
                old2.remove(card)
                new += 1
                if old1 == old2:
                    return TrialStats(trial, seed, step, False)


def _position_trial(n: int, k: int, trial: int, seed: int, cap: int,
                    rng: np.random.Generator) -> TrialStats:
    """One position coupling trial, reading rng re-keyed to (seed, trial).

    Each block of DRAW_BLOCK steps draws its leader coins, then its slot
    picks.  The leader inserts its top card L at slot; the trailer copies
    the slot unless L sits in the trailer's bottom k - 1 block at p and the
    slot hits {p - 1, p}: then the two slots swap and L lands at the same
    position in both decks.

    The decks are one row of card pairs: ``rows`` lists pair ids in deck
    order, pair i holds deck 1's card a[i] and deck 2's card b[i] at its
    position, own1[c] and own2[c] are the pairs holding card c in each deck,
    and ``apart`` counts the pairs whose two cards differ.  A step without a
    swap moves both decks by one position map, the top to slot, so it is
    one move of the top pair P (``top``) and changes no pair.  A matched top
    is never a swap, since then L's trailer pair Q (``q``) is P itself; an
    unmatched top with no swap puts L at slot in the leader and at p - 1 or
    p in the trailer, so no pair becomes matched.  After P is popped, Q sits
    at p - 1, so the swap fires iff rows[slot] is Q (slot = p - 1) or
    rows[slot - 1] is Q with slot > lo (slot = p > lo).  A sentinel id after
    the last row keeps rows[slot] in range at slot = n - 1.  A swap leaves Q
    holding (L, L) and P, at slot + 1 or slot - 1, holding Q's leader card
    x opposite the trailer's old top t: it swaps the leader's cards of P and
    Q and matches one pair, or two when x is t.  The decks are equal iff
    apart is 0, which only a swap can bring about.
    """
    a, b = _decks(n, seed, trial, rng)
    lo = n - k                                   # first 0-based block position
    rows = list(range(n + 1))                    # pair ids, then the sentinel n
    own1, own2 = [0] * (n + 1), [0] * (n + 1)
    for i in rows[:n]:
        own1[a[i]] = own2[b[i]] = i
    apart = sum(x is not y for x, y in zip(a, b))
    step = 0
    while apart:
        if step >= cap:
            return TrialStats(trial, seed, cap, True)
        span = min(DRAW_BLOCK, cap - step)
        coins = rng.integers(2, size=span).tolist()
        slots = rng.integers(k, size=span).tolist()
        for c, u in zip(coins, slots):
            slot = lo + u
            top = rows.pop(0)
            step += 1
            q = own1[b[top]] if c else own2[a[top]]
            if rows[slot] is q:
                rows.insert(slot + 1, top)
            elif slot > lo and rows[slot - 1] is q:
                rows.insert(slot - 1, top)
            else:
                rows.insert(slot, top)
                continue
            lead, own = (b, own2) if c else (a, own1)
            card, x = lead[top], lead[q]
            lead[top], lead[q] = x, card
            own[card], own[x] = q, top
            apart -= 1 + (a[top] is b[top])
            if not apart:
                break
    return TrialStats(trial, seed, step, False)


def coupling_trials(n: int, k: int, kind: str, trials: int, seed: int = 0,
                    cap: int | None = None) -> list[TrialStats]:
    """Coupling times for deck1 = identity vs deck2 ~ uniform, per trial.

    kind is "bottom_k_to_top" or "top_insert".  Trials are pure functions of
    (n, k, kind, seed, trial); censoring at cap (default 50 n^3) is flagged,
    never dropped.  trials and cap must be at least 1.
    """
    if kind not in ("bottom_k_to_top", "top_insert"):
        raise ValueError(f"unknown coupling kind {kind!r}")
    if not 1 < k <= n:
        raise ValueError(f"k={k} outside (1, {n}]")
    if cap is None:
        cap = DEFAULT_CAP_FACTOR * n**3
    if trials < 1 or cap < 1:
        raise ValueError(f"need trials >= 1 and cap >= 1, got trials={trials}, cap={cap}")
    rng = np.random.Generator(np.random.Philox(0))
    one = _card_trial if kind == "bottom_k_to_top" else _position_trial
    return [one(n, k, t, seed, cap, rng) for t in range(trials)]


def tail_estimates(stats: list[TrialStats], ms) -> list[tuple[float, float]]:
    """(empirical P(T > m), binomial standard error) for each m in ms.

    A censored trial counts as exceeding every m: its true T exceeds the cap
    its recorded time equals.  Beyond the cap this errs toward a larger
    P(T > m), the safe side of the bound P(T > m) >= TV.  The uncensored
    times are sorted once and each m counts them by bisection.
    """
    times = sorted(s.coupling_time for s in stats if not s.censored)
    trials = len(stats)
    out = []
    for m in ms:
        p = (trials - bisect.bisect_right(times, m)) / trials
        out.append((p, math.sqrt(p * (1 - p) / trials)))
    return out


def tail_estimate(stats: list[TrialStats], m: float) -> tuple[float, float]:
    """:func:`tail_estimates` at the one point m."""
    (estimate,) = tail_estimates(stats, [m])
    return estimate


def _unselected_chain(k: int, low: int, rate: float = 1.0):
    """The law of the unselected count of :func:`unselected_tails` at
    m = 0, 1, ..., one array stepped in place between items, so a caller
    reads each item before asking for the next.  Each step selects with
    probability rate, so u falls to u - 1 with probability rate * u / k;
    rate = 1 is the plain walk, rate = p its p-lazy version.  It ends once no
    mass leaves a state u >= low: the law there is fixed."""
    p, leave, moved = np.zeros(k + 1), rate * np.arange(k + 1) / k, np.empty(k + 1)
    p[k] = 1.0
    leaving, lower, inflow = moved[low:], p[:-1], moved[1:]     # views, stepped in place
    while True:
        np.multiply(p, leave, out=moved)
        yield p
        if not np.count_nonzero(leaving):
            return
        p -= moved
        lower += inflow


def _edge_chain(src, dst, weight, law, rate: float = 1.0):
    """The law at m = 0, 1, ... of the chain moving law[src] * weight along
    each edge to dst: one ``bincount`` a step, summed in edge order, mixed as
    (1 - rate) * law + rate * step only when rate < 1.  It ends at a fixed
    point, tested once per FIXED_POINT_BLOCK steps; a fixed point stays fixed."""
    while True:
        for _ in range(FIXED_POINT_BLOCK):
            yield law
            step = np.bincount(dst, law[src] * weight, minlength=len(law))
            if rate < 1:
                step = (1 - rate) * law + rate * step
            law, last = step, law
        if np.array_equal(law, last):
            return


def _same(state):
    return state


def _values_at(chain, ms, read=_same) -> list:
    """read(state) at floor(m) of ``chain`` (m = 0, 1, ...) for each m in ms,
    stepping no further than the largest floor and reading only the kept
    steps; once the chain ends, later m take the value of its last state,
    read at most once more.  A state is read before the next is requested,
    so the chain may step it in place."""
    floors = [math.floor(m) for m in ms]
    got, step = dict.fromkeys(floors), -1
    for step, state in zip(range(max(floors, default=-1) + 1), chain):
        if step in got:
            got[step] = read(state)
    if step >= 0 and step not in got:            # the chain ended before a kept floor
        got[step] = read(state)
    return [got[min(m, step)] for m in floors]


def unselected_tails(k: int, j: int, m_max: int) -> np.ndarray:
    """P(L_j > m) for m = 0..m_max, exactly.

    L_j counts reversed-walk steps until all but j of the initial bottom-k
    labels have been selected.  An unselected label only moves down, so it
    stays in the bottom block, and the unselected count u falls to u - 1
    with probability u / k: a pure-death chain from u = k, advanced once.
    At k = n this is the plain coupon collector over n labels.
    """
    if k < 1 or j < 0 or m_max < 0:
        raise ValueError("need k >= 1, j >= 0 and m_max >= 0")
    tails = _values_at(_unselected_chain(k, j + 1), range(m_max + 1),
                       lambda law: law[j + 1:].sum())
    return np.array(tails)


@dataclass(frozen=True)
class CollectorSummary:
    """Exact law of L_j for n labels: moments and P(L_j > m) for m = 0, 1, ..."""

    n: int
    j: int
    mean: float
    variance: float
    tails: tuple[float, ...]


def coupon_collector(n: int, j: int) -> CollectorSummary:
    """L_j, the uniform draws until all but j of n labels are seen.

    The mean n (H_n - H_j) and variance sum (1 - p) / p^2 over p = i / n,
    i = j + 1..n, are closed forms; the tails run to mean + 6 sd.
    """
    if n < 1 or j < 0:
        raise ValueError("need n >= 1 and j >= 0")
    probs = [i / n for i in range(j + 1, n + 1)]
    mean = math.fsum(1 / p for p in probs)
    variance = math.fsum((1 - p) / (p * p) for p in probs)
    m_max = math.ceil(mean + 6 * math.sqrt(variance))
    tails = unselected_tails(n, j, m_max)
    return CollectorSummary(n, j, mean, variance, tuple(tails.tolist()))


@dataclass(frozen=True)
class BoundEstimate:
    """Exact value of the increasing-bottom statistic and its tail term."""

    estimate: float
    p_hat: float


def increasing_bottom_statistic(n: int, k: int, j: int, m: float) -> BoundEstimate:
    """P(L_j > floor(m)) - 1/j! for the reversed walk's selections.

    L_j counts steps until all but j of the initial bottom-k labels have been
    selected (see unselected_tails).  The value lower-bounds the distance to
    uniform since the unselected bottom labels keep their relative order.
    """
    if not 0 <= j <= 8:
        raise ValueError(f"j={j} outside [0, 8]; factorials beyond 8! drown the signal")
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside [1, {n}]")
    if not math.isfinite(m):
        raise ValueError(f"the step count m must be finite, got {m}")
    if m < 0:
        raise ValueError(f"m={m} is negative")
    (p_tail,) = _values_at(_unselected_chain(k, j + 1), [m], lambda law: float(law[j + 1:].sum()))
    return BoundEstimate(p_tail - 1 / math.factorial(j), p_tail)


def _to_top(x, a):
    """Where the card at position x goes when the card at a moves to the top."""
    return np.where(x == a, 0, x + (x < a))


def _from_top(x, s):
    """Where the card at position x goes when the top card moves to slot s;
    the inverse of :func:`_to_top` at a = s.  Positions count from 0."""
    return np.where(x == 0, s, x - ((x > 0) & (x <= s)))


@dataclass(frozen=True)
class SingleCardReport:
    """Occupancy of the bottom block by one tracked card after l steps."""

    n: int
    k: int
    steps: int
    prob_estimate: float
    pi_a: float
    lower_bound: float


def single_card_lower_bound(n: int, k: int, l: int) -> SingleCardReport:
    """Exact bottom-block occupancy of a tracked card after l steps.

    The card starts at position floor((n - k)/2) + 1, above the block.  Its
    position is an n-state chain: each step is, with probability 1/2, a
    forward move (the top card goes to a uniform bottom-block slot s, cards
    at or above s shift up) or a reversed move (the card at s goes to the
    top, cards above it shift down).  Until it first enters the block the
    card does a simple +-1 walk, so for l of order n^2 the occupancy stays
    near 0 while the uniform measure gives the block mass k/n.  The gap is a
    distance lower bound.
    """
    if not 1 <= k <= n or l < 0:
        raise ValueError(f"need 1 <= k <= n and l >= 0, got k={k}, n={n}, l={l}")
    lo = n - k + 1
    start = (n - k) // 2 + 1
    if start >= lo:
        raise ValueError(f"start position {start} already inside the bottom block")
    x, s = np.meshgrid(np.arange(n), np.arange(lo - 1, n), indexing="ij")   # 0-based
    # each (x, s) moves forward and reversed with weight 1/(2k), added one move
    # at a time into its (src, dst) edge: O(n + k) merged edges, not 2nk moves
    moves = np.concatenate([x * n + _from_top(x, s), x * n + _to_top(x, s)], axis=None)
    merged = np.bincount(moves, np.full(moves.size, 0.5 / k), n * n)
    edges = np.flatnonzero(merged)
    chain = _edge_chain(*np.divmod(edges, n), merged[edges], np.eye(n)[start - 1])
    (occupancy,) = _values_at(chain, [l], lambda law: float(law[lo - 1:].sum()))
    return SingleCardReport(n, k, l, occupancy, k / n, abs(occupancy - k / n))


def lazy_trial_wrapper(stats: TrialStats, p: float) -> TrialStats:
    """Coupling time of the p-lazy chain: each effective step waits a
    geometric number of clock ticks, drawn from a stream keyed by the
    trial's own seed.  p = 1 returns the trial unchanged."""
    if not 0 < p <= 1:
        raise ValueError(f"p={p} outside (0, 1]")
    if p == 1:
        return stats
    # jumped stream: same key as the inner trial but disjoint draws, so the
    # thinning is independent of the deck initialization
    rng = np.random.Generator(trial_rng(stats.seed, stats.trial).bit_generator.jumped())
    if stats.coupling_time > 0:
        waits = stats.coupling_time + int(
            rng.negative_binomial(stats.coupling_time, p))
    else:
        waits = 0
    return TrialStats(stats.trial, stats.seed, waits, stats.censored)
