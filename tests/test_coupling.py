import functools
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats as sstats

import shufflemix.coupling as coupling
from oracles import (
    DeckPair,
    bottom_k_to_top_move,
    bottom_k_to_top_step,
    coupon_tail,
    densify,
    full_deck_coupling_tail,
    pair_coupling_tail,
    sampled_unselected_tail,
    single_card_occupancy,
    single_card_position_step,
    top_insert_couple_step,
    top_insert_coupling_tail,
    top_insert_move,
)
from shufflemix.coupling import (
    _edge_chain,
    _rekey,
    _unselected_chain,
    _values_at,
    coupling_trials,
    coupon_collector,
    fisher_yates,
    increasing_bottom_statistic,
    lazy_trial_wrapper,
    single_card_lower_bound,
    tail_estimate,
    tail_estimates,
    trial_rng,
    unselected_tails,
)
from shufflemix.errors import CapacityError
from shufflemix.exact import (
    _relative_chain,
    convolve_step,
    coupling_tail,
    mixing_time,
    point_mass,
    top_to_random_tv,
    tv_distance,
)
from shufflemix.measures import lazy, symmetrize, top_to_bottom_k


def fresh_philox(seed, trial):
    return np.random.Generator(np.random.Philox(key=np.array([seed, trial], dtype=np.uint64)))


def _same_stream(a, b):
    assert a.integers(0, 2**32, size=7, dtype=np.uint32).tolist() == \
        b.integers(0, 2**32, size=7, dtype=np.uint32).tolist()
    assert a.integers(1000, size=9).tolist() == b.integers(1000, size=9).tolist()
    assert a.random(size=11).tolist() == b.random(size=11).tolist()


@pytest.mark.parametrize("seed, trial", [(0, 0), (3, 7), (7, 3), (2**63, 5), (1, 2**40)])
def test_rekey_gives_the_fresh_stream(seed, trial):
    _same_stream(trial_rng(seed, trial), fresh_philox(seed, trial))
    rng = trial_rng(seed + 1, trial)
    # an odd number of 32-bit draws leaves a buffered half-word
    rng.integers(0, 2**32, size=3, dtype=np.uint32)
    assert rng.bit_generator.state["has_uint32"] == 1
    _same_stream(_rekey(rng, seed, trial), fresh_philox(seed, trial))
    # one 64-bit draw leaves the four-word Philox buffer partly used
    rng = trial_rng(seed + 1, trial)
    rng.random()
    state = rng.bit_generator.state
    assert state["has_uint32"] == 0 and 0 < state["buffer_pos"] < 4
    _same_stream(_rekey(rng, seed, trial), fresh_philox(seed, trial))


@pytest.mark.parametrize("kind", ["bottom_k_to_top", "top_insert"])
def test_trials_equal_a_replay_through_trial_rng(kind):
    # the small cap censors trials mid-block, so the shared generator is
    # re-keyed with partly used buffers
    for n, k, cap in ((5, 3, None), (12, 6, 40), (12, 12, 70)):
        out = coupling_trials(n, k, kind, 12, seed=8, cap=cap)
        limit = 50 * n**3 if cap is None else cap
        ref = [reference_trial(n, k, kind, 8, t, limit, trial_rng(8, t))[:2] for t in range(12)]
        assert [(s.coupling_time, s.censored) for s in out] == ref, (n, k)


def test_trial_rng_is_keyed_and_validated():
    a = trial_rng(3, 7).integers(1000, size=5)
    b = trial_rng(3, 7).integers(1000, size=5)
    c = trial_rng(3, 8).integers(1000, size=5)
    assert a.tolist() == b.tolist()
    assert a.tolist() != c.tolist()
    with pytest.raises(ValueError):
        trial_rng(-1, 0)


@pytest.mark.parametrize("seed, trial", [(-1, 0), (0, -1), (2**64, 0), (0, 2**64), (3 * 2**70, 1)])
def test_rekey_refuses_keys_outside_64_bits(seed, trial):
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        trial_rng(seed, trial)
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        _rekey(trial_rng(0, 0), seed, trial)
    if trial == 0:
        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            coupling_trials(12, 6, "bottom_k_to_top", 2, seed=seed)


def test_rekey_takes_the_largest_64_bit_seed():
    _same_stream(trial_rng(2**64 - 1, 2**64 - 1), fresh_philox(2**64 - 1, 2**64 - 1))


def test_fisher_yates_uniform_chi_square():
    counts = {}
    rng = trial_rng(11, 0)
    for _ in range(12000):
        deck = tuple(fisher_yates(3, rng))
        counts[deck] = counts.get(deck, 0) + 1
    _, p = sstats.chisquare(list(counts.values()))
    assert len(counts) == 6
    assert p > 1e-3


def test_fisher_yates_reads_the_stream_like_scalar_draws():
    # the shuffle's one array draw must leave the same deck and the same
    # stream position as one integers(i + 1) call per position
    for n in (1, 2, 9, 300):
        a, b = trial_rng(4, n), trial_rng(4, n)
        deck = list(range(1, n + 1))
        for i in range(n - 1, 0, -1):
            j = int(b.integers(i + 1))
            deck[i], deck[j] = deck[j], deck[i]
        assert fisher_yates(n, a) == deck
        assert a.random(size=3).tolist() == b.random(size=3).tolist()


def reference_trial(n, k, kind, seed, trial, cap, rng=None, watch=None):
    """(coupling time, censored, tau) of one trial replayed with the oracle
    moves under the draw protocol the package promises: a Philox stream
    keyed by (seed, trial), a back-to-front Fisher-Yates shuffle of deck 2,
    then per block of min(64, cap - step) steps the block's two draw arrays
    (integers(k) then random() for the card coupling, integers(2) then
    integers(k) for the position coupling).

    tau[c - 1] is the step at which card c last became matched, or -1 while
    it is unmatched.  rng, when given, replaces the fresh Philox stream;
    watch, when given, is called with the deck pair after every step.
    """
    if rng is None:
        rng = fresh_philox(seed, trial)
    deck2 = list(range(1, n + 1))
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(i + 1))
        deck2[i], deck2[j] = deck2[j], deck2[i]
    pair = DeckPair(n, tuple(range(1, n + 1)), tuple(deck2))
    tau = [0 if a == b else -1 for a, b in zip(pair.deck1, pair.deck2)]
    while pair.deck1 != pair.deck2:
        if pair.steps >= cap:
            return cap, True, tau
        span = min(64, cap - pair.steps)
        if kind == "bottom_k_to_top":
            move = bottom_k_to_top_move
            draws = zip(rng.integers(k, size=span).tolist(), rng.random(size=span).tolist())
        else:
            move = top_insert_move
            draws = zip(rng.integers(2, size=span).tolist(), rng.integers(k, size=span).tolist())
        for a, b in draws:
            pair = move(pair, k, a, b)
            if watch is not None:
                watch(pair)
            for card, other in zip(pair.deck1, pair.deck2):
                if card != other:
                    tau[card - 1] = -1
                elif tau[card - 1] < 0:
                    tau[card - 1] = pair.steps
            if pair.deck1 == pair.deck2:
                break
    return pair.steps, False, tau


def card_replay(n, k, seed, trial, cap):
    """(coupling time, censored, sync) of one card coupling trial replayed by
    reference_trial.  sync is the step at which the run of steps that moved
    one card to both tops first reaches n - k (0 at k = n), or None if the
    trial ends before it: from sync on, both top regions agree."""
    lo, run, sync = n - k, [0], [0 if k == n else None]

    def watch(pair):
        run[0] = run[0] + 1 if pair.deck1[0] == pair.deck2[0] else 0
        if sync[0] is None and run[0] >= lo:
            sync[0] = pair.steps

    steps, censored, _ = reference_trial(n, k, "bottom_k_to_top", seed, trial, cap, watch=watch)
    return steps, censored, sync[0]


@pytest.mark.parametrize("kind", ["bottom_k_to_top", "top_insert"])
@pytest.mark.parametrize("n", [8, 40])
def test_trials_match_the_oracle_replay(kind, n):
    for k in (2, n // 2, n):
        # the small cap censors some trials, mid-block and at a block edge
        for cap, trials in ((None, 4), (70, 6), (64, 3)):
            out = coupling_trials(n, k, kind, trials, seed=5, cap=cap)
            limit = 50 * n**3 if cap is None else cap
            ref = [reference_trial(n, k, kind, 5, t, limit)[:2] for t in range(trials)]
            assert [(s.coupling_time, s.censored) for s in out] == ref, (k, cap)
            if cap == 70 and k == 2:
                assert any(s.censored for s in out)


@pytest.mark.parametrize("kind", ["bottom_k_to_top", "top_insert"])
def test_trials_match_the_oracle_on_small_decks(kind):
    # every 2 <= k <= n <= 5, over many seeds.  Before step n - k the card
    # coupling compares its decks only while every move so far moved one
    # card in both, so trials that couple that early must be among them,
    # as must trials whose decks start equal
    started_equal = 0
    for n in (3, 4, 5):
        for k in range(2, n + 1):
            times = []
            for seed in range(6):
                out = coupling_trials(n, k, kind, 40, seed=seed)
                ref = [reference_trial(n, k, kind, seed, t, 50 * n**3)[:2] for t in range(40)]
                assert [(s.coupling_time, s.censored) for s in out] == ref, (n, k, seed)
                times += [s.coupling_time for s in out]
            started_equal += times.count(0)
            if kind == "bottom_k_to_top" and n - k >= 2:
                assert any(0 < t < n - k for t in times), (n, k)
    assert started_equal > 0


@pytest.mark.parametrize("kind", ["bottom_k_to_top", "top_insert"])
def test_trials_censored_inside_and_at_the_edge_of_a_block_match_the_oracle(kind):
    for cap in (1, 63, 64, 65, 128, 129):
        out = coupling_trials(12, 2, kind, 3, seed=4, cap=cap)
        ref = [reference_trial(12, 2, kind, 4, t, cap)[:2] for t in range(3)]
        assert [(s.coupling_time, s.censored) for s in out] == ref, cap
        assert all(s.censored for s in out), cap


# (n, k, seed, trial, cap): one card coupling trial per row, with n - k below
# DRAW_BLOCK in the first rows and above it (n - k = 70) in the last two
PHASE_EDGE_TRIALS = [
    (6, 3, 0, 23, None), (7, 3, 0, 23, None), (8, 4, 1, 12, None), (9, 2, 0, 23, None),
    (10, 2, 0, 27, None), (12, 3, 0, 9, 66), (40, 30, 2, 2, 80),
    (90, 20, 1, 10, None), (90, 20, 1, 10, 780),
]


def test_card_trials_match_the_oracle_at_the_phase_edges():
    # each edge of the two-phase card trial is reached by some row, as the
    # oracle's replay reports it: coupling before step n - k, at the sync
    # step itself, sync at the last step of a draw block, and a cap that
    # censors after sync, the last two both below and above DRAW_BLOCK
    reached = set()
    for n, k, seed, trial, cap in PHASE_EDGE_TRIALS:
        limit = 50 * n**3 if cap is None else cap
        time, censored, sync = card_replay(n, k, seed, trial, limit)
        s = coupling_trials(n, k, "bottom_k_to_top", trial + 1, seed=seed, cap=cap)[trial]
        assert (s.coupling_time, s.censored) == (time, censored), (n, k, seed, trial, cap)
        above = n - k > coupling.DRAW_BLOCK
        if 0 < time < n - k and not censored:
            reached.add(("couples before n - k", above))
        if sync is not None and time == sync and not censored:
            reached.add(("couples at sync", above))
        if sync and sync % coupling.DRAW_BLOCK == 0:
            reached.add(("sync at a block's last step", above))
        if sync is not None and censored:
            reached.add(("censored after sync", above))
    assert reached == {("couples before n - k", False), ("couples at sync", False),
                       ("sync at a block's last step", False), ("censored after sync", False),
                       ("sync at a block's last step", True), ("censored after sync", True)}


def test_card_trials_at_the_benchmark_size_match_the_oracle():
    out = coupling_trials(200, 100, "bottom_k_to_top", 3, seed=1)
    ref = [reference_trial(200, 100, "bottom_k_to_top", 1, t, 50 * 200**3)[:2]
           for t in range(3)]
    assert [(s.coupling_time, s.censored) for s in out] == ref


@pytest.mark.parametrize("n, k, seeds, trials", [(80, 8, (0, 1, 2), 3), (30, 2, (0, 1, 2, 3), 3)])
def test_card_trials_that_stay_long_in_phase_1_match_the_oracle(n, k, seeds, trials):
    # at small k almost every step is a phase 1 step, many of them fallbacks
    # drawn from the kept pool, and sync comes within 30 steps of the end
    for seed in seeds:
        out = coupling_trials(n, k, "bottom_k_to_top", trials, seed=seed)
        for s in out:
            time, censored, sync = card_replay(n, k, seed, s.trial, 50 * n**3)
            assert (s.coupling_time, s.censored) == (time, censored), (seed, s.trial)
            assert not censored and time - 30 <= sync < time, (seed, s.trial, sync)


def test_a_long_phase_1_keeps_a_fixed_peak_allocation():
    # a (200, 2) trial stays in phase 1 up to its cap; its state is a few
    # n-long lists and one draw block, however many steps it runs
    coupling_trials(200, 2, "bottom_k_to_top", 1, seed=0, cap=1)
    tracemalloc.start()
    try:
        (s,) = coupling_trials(200, 2, "bottom_k_to_top", 1, seed=0, cap=100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.censored and s.coupling_time == 100_000
    assert peak < 64 * 2**10, peak


class RecordedDraws:
    """A generator that keeps every array it draws, so a replay can read the
    draws behind each step: the step-s draws are index (s - 1) % 64 of the
    arrays of block (s - 1) // 64."""

    def __init__(self, rng):
        self.rng, self.arrays = rng, []

    def integers(self, high, size=None):
        out = self.rng.integers(high, size=size)
        if size is not None:
            self.arrays.append(out.tolist())
        return out


def position_replay(n, k, seed, trial, cap):
    """(coupling time, censored, branches) of one position coupling trial
    replayed by reference_trial.  branches names every kind of step the
    replay took, read from the pair before the step and the step's draws:
    a matched top, an unmatched top without a swap, the same when the slot
    is n - k and the leader's top sits at n - k in the trailer (no swap,
    though the slot is p), and a swap at slot p - 1 or p, at slot n - 1,
    or matching two pairs (0-based positions)."""
    lo, draws = n - k, RecordedDraws(fresh_philox(seed, trial))
    before = [DeckPair(n, tuple(range(1, n + 1)), tuple(fisher_yates(n, trial_rng(seed, trial))))]
    branches = set()

    def watch(pair):
        prev, before[0] = before[0], pair
        block, i = divmod(pair.steps - 1, coupling.DRAW_BLOCK)
        coin, slot = draws.arrays[2 * block][i], lo + draws.arrays[2 * block + 1][i]
        lead, trail = (prev.deck1, prev.deck2) if coin == 0 else (prev.deck2, prev.deck1)
        p = trail.index(lead[0])
        if p == 0:
            branches.add("matched top")
        elif p > lo and slot in (p - 1, p):
            branches.add("swap at slot p - 1" if slot == p - 1 else "swap at slot p")
            if slot == n - 1:
                branches.add("swap at slot n - 1")
            if pair.matched() - prev.matched() == 2:
                branches.add("swap matching two pairs")
        else:
            branches.add("unmatched top, no swap")
            if slot == p == lo:
                branches.add("no swap at slot p = n - k")

    steps, censored, _ = reference_trial(n, k, "top_insert", seed, trial, cap, draws, watch)
    return steps, censored, branches


# (n, k, seed, trial, cap): one position coupling trial per row.  k = 2 has
# a one-card swap block; (6, 3) meets the slot = p = n - k edge, where a swap
# would change its time; k = n has no position above the block; the last
# row's cap censors mid-block
POSITION_EDGE_TRIALS = [
    (5, 2, 0, 3, None), (6, 3, 0, 0, None), (9, 9, 0, 3, None), (12, 2, 4, 0, 100),
]


def test_position_trials_match_the_oracle_at_each_branch_of_the_step():
    reached = set()
    for n, k, seed, trial, cap in POSITION_EDGE_TRIALS:
        limit = 50 * n**3 if cap is None else cap
        time, censored, branches = position_replay(n, k, seed, trial, limit)
        s = coupling_trials(n, k, "top_insert", trial + 1, seed=seed, cap=cap)[trial]
        assert (s.coupling_time, s.censored) == (time, censored), (n, k, seed, trial, cap)
        reached |= branches
        if censored and time % coupling.DRAW_BLOCK:
            reached.add("censored mid-block")
    assert reached == {"matched top", "unmatched top, no swap", "no swap at slot p = n - k",
                       "swap at slot p - 1", "swap at slot p", "swap at slot n - 1",
                       "swap matching two pairs", "censored mid-block"}


def test_position_trials_at_the_benchmark_size_match_the_oracle():
    out = coupling_trials(40, 40, "top_insert", 3, seed=1)
    ref = [reference_trial(40, 40, "top_insert", 1, t, 50 * 40**3)[:2] for t in range(3)]
    assert [(s.coupling_time, s.censored) for s in out] == ref


def test_trials_are_deterministic_in_seed():
    a = coupling_trials(6, 3, "top_insert", 30, seed=9)
    b = coupling_trials(6, 3, "top_insert", 30, seed=9)
    c = coupling_trials(6, 3, "top_insert", 30, seed=10)
    assert a == b
    assert a != c


def test_two_card_deck_couples_in_one_step():
    for s in coupling_trials(2, 2, "bottom_k_to_top", 300, seed=1):
        assert s.coupling_time <= 1
        assert not s.censored


def test_equal_decks_stay_equal_under_both_steps():
    deck = tuple(fisher_yates(7, trial_rng(2, 0)))
    pair = DeckPair(7, deck, deck)
    rng = trial_rng(2, 1)
    for _ in range(80):
        pair = bottom_k_to_top_step(pair, 4, rng)
        assert pair.deck1 == pair.deck2
    for _ in range(80):
        pair = top_insert_couple_step(pair, 4, rng)
        assert pair.deck1 == pair.deck2


def test_censoring_is_flagged_not_dropped():
    out = coupling_trials(6, 2, "bottom_k_to_top", 30, seed=0, cap=3)
    assert all(s.coupling_time <= 3 for s in out)
    censored = [s for s in out if s.censored]
    assert censored and all(s.coupling_time == 3 for s in censored)


def test_censored_trials_exceed_every_m():
    # a censored trial's recorded time is the cap, but its true T exceeds it
    out = coupling_trials(6, 3, "bottom_k_to_top", 200, seed=1, cap=5)
    assert sum(s.censored for s in out) == 157
    for m in (5, 10):
        assert tail_estimate(out, m)[0] >= 157 / 200


def test_bottom_step_moves_each_block_card_uniformly():
    # deck2's moved card must be uniform on its bottom block whatever the
    # overlap with deck1's block; this is the reversed-walk marginal
    pair = DeckPair(6, (1, 2, 3, 4, 5, 6), (4, 1, 6, 2, 3, 5))
    rng = trial_rng(21, 0)
    k = 3
    moved1 = {c: 0 for c in pair.deck1[3:]}
    moved2 = {c: 0 for c in pair.deck2[3:]}
    for _ in range(18000):
        nxt = bottom_k_to_top_step(pair, k, rng)
        moved1[nxt.deck1[0]] += 1
        moved2[nxt.deck2[0]] += 1
    for counts in (moved1, moved2):
        _, p = sstats.chisquare(list(counts.values()))
        assert p > 1e-3


def test_top_insert_slot_marginals_uniform():
    # each deck's own insertion slot must be uniform on the bottom k whether
    # it led or trailed; validates reading the swap block as the trailer's
    pair = DeckPair(6, (1, 2, 3, 4, 5, 6), (4, 1, 6, 2, 3, 5))
    rng = trial_rng(22, 0)
    k = 4
    slots1 = {l: 0 for l in range(3, 7)}
    slots2 = {l: 0 for l in range(3, 7)}
    for _ in range(18000):
        nxt = top_insert_couple_step(pair, k, rng)
        slots1[nxt.deck1.index(pair.deck1[0]) + 1] += 1
        slots2[nxt.deck2.index(pair.deck2[0]) + 1] += 1
    for counts in (slots1, slots2):
        _, p = sstats.chisquare(list(counts.values()))
        assert p > 1e-3


def test_top_insert_swap_case_parks_the_leaders_card():
    # leader's top card sits at trailing position p in the bottom k-1 block;
    # a slot draw of p or p-1 must end with that card at the same position
    # in both decks
    n, k = 6, 4
    pair = DeckPair(n, (1, 2, 3, 4, 5, 6), (2, 3, 4, 1, 6, 5))
    rng = trial_rng(23, 0)
    seen_match = 0
    for _ in range(400):
        nxt = top_insert_couple_step(pair, k, rng)
        card = pair.deck1[0]
        p1 = nxt.deck1.index(card) + 1
        p2 = nxt.deck2.index(card) + 1
        if p1 == p2:
            seen_match += 1
    assert seen_match > 0


def test_top_insert_matched_card_set_never_shrinks():
    # matched cards stay matched (their shared position may shift)
    rng = trial_rng(4, 2)
    pair = DeckPair(6, (1, 2, 3, 4, 5, 6), tuple(fisher_yates(6, rng)))
    for _ in range(300):
        before = {a for a, b in zip(pair.deck1, pair.deck2) if a == b}
        pair = top_insert_couple_step(pair, 4, rng)
        after = {a for a, b in zip(pair.deck1, pair.deck2) if a == b}
        assert before <= after


def test_bottom_step_can_break_a_match():
    # both blocks hold {3,4,5}, so card 3 moves to the top of both decks,
    # but its block positions differ and the shift tears card 4's match apart
    pair = DeckPair(5, (1, 2, 3, 4, 5), (1, 2, 5, 4, 3))
    rng = trial_rng(0, 0)
    for _ in range(50):
        nxt = bottom_k_to_top_step(pair, 3, rng)
        if nxt.deck1[0] == 3:
            matched_before = {c for c, d in zip(pair.deck1, pair.deck2) if c == d}
            matched_after = {c for c, d in zip(nxt.deck1, nxt.deck2) if c == d}
            assert 4 in matched_before and 4 not in matched_after
            break
    else:
        pytest.fail("card 3 never selected in 50 draws")


def test_tail_estimates_equal_the_per_point_scan():
    # 5 of the 40 trials are censored at 300; each m counts them as exceeding
    stats = coupling_trials(12, 2, "bottom_k_to_top", 40, seed=3, cap=300)
    assert sum(s.censored for s in stats) == 5
    ms = [-math.inf, -1, 0, 0.5, 67, 68, 68.5, *range(100, 320, 3), 299.5, 300, 301, 1e9,
          math.inf]

    def scan(m):
        p = sum(s.censored or s.coupling_time > m for s in stats) / len(stats)
        return p, math.sqrt(p * (1 - p) / len(stats))

    want = [scan(m) for m in ms]
    assert tail_estimates(stats, ms) == want
    assert [tail_estimate(stats, m) for m in ms] == want
    assert tail_estimates(stats, []) == []


def test_coupling_tail_dominates_exact_tv():
    # P(T > m) upper-bounds the distance of the m-th convolution power;
    # allow the 3-sigma Monte Carlo margin on the empirical side
    n, k, trials = 5, 3, 4000
    q = top_to_bottom_k(n, k)
    for kind in ("bottom_k_to_top", "top_insert"):
        out = coupling_trials(n, k, kind, trials, seed=7)
        d = point_mass(n)
        for m in range(1, 21):
            d = convolve_step(d, q)
            p, se = tail_estimate(out, m)
            assert p + 3 * se >= tv_distance(d) - 1e-12, (kind, m)


def test_full_deck_coupling_tail_matches_the_exact_tail():
    # at k = n the coupling time's tail is exact: sum_u P(U_m = u)(1 - 1/u!)
    n, trials = 20, 10000
    out = coupling_trials(n, n, "bottom_k_to_top", trials, seed=5)
    nlogn = n * math.log(n)
    ms = [math.floor(c * nlogn) for c in (0.5, 0.75, 1.0, 1.25, 1.5, 2.0)]
    exact = full_deck_coupling_tail(n, ms[-1])
    for m in ms:
        p, _ = tail_estimate(out, m)
        want = exact[m]
        assert abs(p - want) <= 5 * math.sqrt(want * (1 - want) / trials), (m, p, want)


@pytest.mark.parametrize("n", [100, 200, 400])
def test_full_deck_distance_is_sandwiched(n):
    # increasing-bottom (j = 6) <= exact TV <= exact coupling tail at k = n
    ms = [math.floor(c * n * math.log(n)) for c in (0.75, 1.0, 1.25)]
    tv = top_to_random_tv(n, m_max=ms[-1]).profile
    tail = full_deck_coupling_tail(n, ms[-1])
    for m in ms:
        low = increasing_bottom_statistic(n, n, 6, m).estimate
        assert low <= tv[m][1] <= tail[m], (m, low, tv[m][1], tail[m])


def test_tau_tracking_consistent_with_coupling_time():
    # the last card to become matched does so at the coupling time
    for kind in ("top_insert", "bottom_k_to_top"):
        out = coupling_trials(6, 6, kind, 25, seed=3)
        for s in out:
            steps, censored, tau = reference_trial(6, 6, kind, 3, s.trial, 50 * 6**3)
            assert not s.censored and not censored
            assert all(t >= 0 for t in tau)
            assert s.coupling_time == max(tau) == steps


def test_collector_edge_cases_and_small_mean():
    one = coupon_collector(1, 0)
    assert one.tails == (1.0, 0.0)
    assert (one.mean, one.variance) == (1.0, 0.0)
    cc = coupon_collector(3, 0)
    assert cc.mean == 5.5
    assert abs(cc.variance - 6.75) <= 1e-12
    assert cc.tails[:3] == (1.0, 1.0, 1.0)
    for m, tail in enumerate(cc.tails):
        assert abs(tail - coupon_tail(3, m, 1)) <= 1e-15, m
    # sum_m P(L > m) = E L, short only by the tail past mean + 6 sd
    assert 0 < 5.5 - math.fsum(cc.tails) < 1e-3
    assert coupon_collector(5, 5).tails == (0.0,)


def test_collector_tail_matches_exact_fixture(frozen):
    # the fixture is frozen at the rounded m; the tails are indexed by integer m
    exact = frozen.get("collector_tail_1_25")["100"]
    cc = coupon_collector(100, 1)
    assert abs(cc.tails[round(1.25 * 100 * math.log(100))] - exact) <= 1e-10


@pytest.mark.parametrize("n,j,m", [(10, 0, 20), (30, 2, 100), (50, 5, 200),
                                   (100, 1, 576), (200, 6, 795)])
def test_unselected_tails_at_full_deck_match_inclusion_exclusion(n, j, m):
    # the alternating sum cancels badly below about n ln n, so compare at m
    assert abs(unselected_tails(n, j, m)[m] - coupon_tail(n, m, j + 1)) <= 1e-10


@pytest.mark.parametrize("n,k,j,m", [(30, 10, 3, 11), (50, 20, 4, 30)])
def test_unselected_tails_match_the_sampled_reversed_walk(n, k, j, m):
    p_hat, se = sampled_unselected_tail(n, k, j, m, 4000, np.random.default_rng(n))
    exact = unselected_tails(k, j, m)[m]
    assert 0.2 < exact < 0.8
    assert abs(p_hat - exact) <= 5 * se, (p_hat, exact)


def test_unselected_tails_validation():
    for args in ((0, 0, 5), (4, -1, 5), (4, 1, -1)):
        with pytest.raises(ValueError):
            unselected_tails(*args)


def test_increasing_bottom_statistic_at_zero_steps():
    rep = increasing_bottom_statistic(40, 40, 6, 0)
    assert rep.p_hat == 1.0
    assert abs(rep.estimate - (1 - 1 / 720)) < 1e-12


def test_increasing_bottom_matches_exact_fixture(frozen):
    exact = frozen.get("increasing_bottom_exact")["100"]
    rep = increasing_bottom_statistic(100, 100, 6, round(0.75 * 100 * math.log(100)))
    assert abs(rep.estimate - exact) <= 1e-10


def test_increasing_bottom_small_k_reduces_to_block_collection():
    # with k < n the statistic watches the initial bottom block only: two
    # steps select two distinct labels of k = 4 with probability 3/4, so
    # P(more than j = 2 unselected) = 1/4, whatever n is
    for n in (8, 50):
        rep = increasing_bottom_statistic(n, 4, 2, 2.9)
        assert abs(rep.p_hat - 0.25) <= 1e-15
        assert abs(rep.estimate - (0.25 - 0.5)) <= 1e-15
    for args in ((8, 9, 2, 1), (8, 4, 9, 1), (8, 4, 2, -1)):
        with pytest.raises(ValueError):
            increasing_bottom_statistic(*args)


@pytest.mark.parametrize("j", [-1, 9])
def test_increasing_bottom_statistic_refuses_j_before_stepping(j, monkeypatch):
    monkeypatch.setattr(coupling, "_unselected_chain", None)
    with pytest.raises(ValueError, match=rf"^j={j} outside \[0, 8\]; "):
        increasing_bottom_statistic(10, 5, j, 1e6)


@pytest.mark.parametrize("m", [math.inf, -math.inf, math.nan])
def test_increasing_bottom_statistic_rejects_a_non_finite_step_count(m):
    with pytest.raises(ValueError, match=f"^the step count m must be finite, got {m}$"):
        increasing_bottom_statistic(10, 5, 2, m)


def test_values_at_reads_to_the_largest_floor_and_repeats_a_settled_value():
    pulled = []

    def chain(values):
        for v in values:
            pulled.append(v)
            yield v

    assert _values_at(chain([10, 11, 12, 13]), [1.9, 0, 1, 0.5]) == [11, 10, 11, 10]
    assert pulled == [10, 11]
    # a chain that ends has settled: later m read its last value
    assert _values_at(chain([20, 21]), [5, 1, 1e300]) == [21, 21, 21]
    assert _values_at(chain([30]), []) == []


def test_values_at_reads_each_kept_floor_once():
    reads = []

    def chain(length):
        state = [None]                   # one state, stepped in place
        for m in range(length):
            state[0] = m
            yield state

    def read(state):
        reads.append(state[0])
        return 10 * state[0]

    assert _values_at(chain(10), [2.5, 2, 7, 0.1, 7.9], read) == [20, 20, 70, 0, 70]
    assert reads == [0, 2, 7]
    # a chain that ends before a kept floor has its last state read once more
    reads.clear()
    assert _values_at(chain(4), [1, 5, 9], read) == [10, 30, 30]
    assert reads == [1, 3]
    # and not again when that last state is itself kept
    reads.clear()
    assert _values_at(chain(4), [3, 9, 5], read) == [30, 30, 30]
    assert reads == [3]
    reads.clear()
    assert _values_at(chain(4), [], read) == [] and reads == []


def test_the_unselected_chain_is_read_only_at_kept_steps():
    # the chain yields one law stepped in place; reading it at the kept steps
    # gives the values of reading every step
    every = [float(law[3:].sum()) for law in _unselected_chain(30, 3)]
    reads = []

    def read(law):
        reads.append(1)
        return float(law[3:].sum())

    ms = [0, 5, 5.5, 40, 700, 10**6]
    assert _values_at(_unselected_chain(30, 3), ms, read) == \
        [every[min(math.floor(m), len(every) - 1)] for m in ms]
    assert len(reads) == 5               # 0, 5, 40, 700 and the last law


@pytest.mark.parametrize("k,j,m_past", [(50, 4, 7_500), (12, 0, 9_000), (5, 6, 1)])
def test_increasing_bottom_stops_at_the_chain_fixed_point(k, j, m_past, monkeypatch):
    # once no mass leaves a state above j the tail cannot move, so any m at
    # or past that step gives the same bits, and no tail table is built
    want = float(unselected_tails(k, j, m_past)[-1])
    monkeypatch.setattr(coupling, "unselected_tails", None)
    for m in (m_past, 2.5 * m_past, 1e300):
        assert increasing_bottom_statistic(k, k, j, m).p_hat == want


def test_single_card_starts_outside_the_block():
    rep = single_card_lower_bound(100, 50, 0)
    assert rep.prob_estimate == 0.0
    assert rep.lower_bound == pytest.approx(0.5)
    with pytest.raises(ValueError):
        single_card_lower_bound(10, 10, 5)


def test_single_card_diffusive_window_stays_mostly_outside():
    # l = floor(c (1-c)^2 n^2 / 12) steps with c = 1/2: the +-1 walk has not
    # yet crossed the gap to the block, so occupancy is well under c/3
    n, k = 100, 50
    c = k / n
    l = int(c * (1 - c) ** 2 * n * n / 12)
    rep = single_card_lower_bound(n, k, l)
    assert rep.prob_estimate <= c / 3


def test_single_card_walk_matches_exact_marginal():
    # exact occupancy of the bottom block via dense convolution powers
    n, k, l = 6, 3, 60
    q = symmetrize(top_to_bottom_k(n, k))
    d = point_mass(n)
    for _ in range(l):
        d = convolve_step(d, q)
    start = (n - k) // 2 + 1
    exact = math.fsum(
        d.probs[r]
        for r, m in enumerate(itertools.permutations(range(1, n + 1)))
        if m.index(start) + 1 >= n - k + 1
        if d.probs[r] > 0
    )
    rep = single_card_lower_bound(n, k, l)
    assert abs(rep.prob_estimate - exact) <= 1e-12


@pytest.mark.parametrize("n,k,l", [(22, 15, 40), (7, 4, 25), (13, 6, 30), (9, 8, 30), (6, 2, 0)])
def test_single_card_matches_the_position_oracle(n, k, l):
    # at (22, 15), int(k / n * n) rounds to 14, and a start computed from it
    # (5 instead of 4) gives occupancy 0.6038 instead of 0.6384 after 40 steps
    exact = single_card_occupancy(n, k, l)
    assert abs(single_card_lower_bound(n, k, l).prob_estimate - float(exact)) <= 1e-12


def test_single_card_long_run_reaches_block_mass():
    n, k = 30, 6
    l = 20 * n**3 // (k * k)
    rep = single_card_lower_bound(n, k, l)
    assert abs(rep.prob_estimate - k / n) <= 5e-3


def test_single_card_position_step_is_a_valid_position():
    rng = trial_rng(12, 0)
    p = 4
    for _ in range(500):
        p = single_card_position_step(p, 9, 4, rng)
        assert 1 <= p <= 9


def test_lazy_wrapper_identity_and_scaling():
    inner = coupling_trials(32, 32, "bottom_k_to_top", 60, seed=13)
    assert [lazy_trial_wrapper(s, 1.0) for s in inner] == inner
    lazy = [lazy_trial_wrapper(s, 0.5) for s in inner]
    again = [lazy_trial_wrapper(s, 0.5) for s in inner]
    assert lazy == again
    # the thinning stream is keyed by each trial's own seed
    reseeded = [lazy_trial_wrapper(s._replace(seed=14), 0.5) for s in inner]
    assert [s.coupling_time for s in reseeded] != [s.coupling_time for s in lazy]
    ratio = sum(s.coupling_time for s in lazy) / sum(s.coupling_time for s in inner)
    assert 1.7 <= ratio <= 2.3


def test_deck_pair_validation():
    with pytest.raises(ValueError):
        DeckPair(3, (1, 2, 3), (1, 1, 2))
    with pytest.raises(ValueError):
        coupling_trials(5, 1, "top_insert", 3)
    with pytest.raises(ValueError):
        coupling_trials(5, 3, "sideways", 3)
    for trials, cap in ((0, None), (3, 0), (3, -5)):
        with pytest.raises(ValueError, match="trials >= 1 and cap >= 1"):
            coupling_trials(5, 3, "top_insert", trials, cap=cap)


# ---------------------------------------------------------------------------
# exact coupling tails


KINDS = ("bottom_k_to_top", "top_insert")
SMALL = [(n, k) for n in range(2, 6) for k in range(2, n + 1)]


def uniform_apart(n):
    """The relative deck's start: uniform over S_n, less the coupled identity."""
    law = np.full(math.factorial(n), 1 / math.factorial(n))
    law[0] = 0.0
    return law


def relative_tails(n, k, kind, m_max, rate=1.0):
    """The relative-deck chain's tails to m_max, stepped by the edge chain;
    past a fixed point the value is the last one."""
    chain = _edge_chain(*_relative_chain(n, k, kind), uniform_apart(n), rate)
    tails = [float(law.sum()) for law in itertools.islice(chain, m_max + 1)]
    return tails + tails[-1:] * (m_max + 1 - len(tails))


@functools.cache
def pair_oracle(n, k, kind, m_max):
    oracle = pair_coupling_tail if kind == "bottom_k_to_top" else top_insert_coupling_tail
    return oracle(n, k, m_max)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n,k", SMALL)
def test_relative_chain_matches_the_pair_chain(n, k, kind):
    # rel, deck 2's position of each deck-1 card, lumps the n!^2 deck pairs
    want = pair_oracle(n, k, kind, 30)
    for got in (relative_tails(n, k, kind, 30), coupling_tail(n, k, kind, range(31))):
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-14
        assert len(got) == len(want)


@pytest.mark.parametrize("rate", [1.0, 0.5])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 7) for k in range(2, n + 1)])
def test_edge_chain_is_the_explicit_lazy_step_bit_for_bit(n, k, kind, rate):
    # at rate 1 the stepper skips the mix, and 0.0 * law + 1.0 * step is step
    # for finite nonnegative laws; past the chain's end its last law repeats
    src, dst, weight = _relative_chain(n, k, kind)
    laws = [law.copy() for law in itertools.islice(
        _edge_chain(src, dst, weight, uniform_apart(n), rate), 80)]
    law = uniform_apart(n)
    for m in range(80):
        assert np.array_equal(laws[min(m, len(laws) - 1)], law), m
        law = (1 - rate) * law + rate * np.bincount(dst, law[src] * weight, minlength=len(law))


@pytest.mark.parametrize("p", [1.0, 0.5])
def test_fixed_point_tests_once_a_block_read_what_tests_every_step_read(p, monkeypatch):
    # a fixed point of a deterministic step stays fixed, so testing for one
    # every FIXED_POINT_BLOCK steps ends the chain later with the same values
    ms = [*range(0, 3000, 7), 10**5, 2.5e9]
    got = coupling_tail(5, 2, "top_insert", ms, p)
    monkeypatch.setattr(coupling, "FIXED_POINT_BLOCK", 1)
    assert coupling_tail(5, 2, "top_insert", ms, p) == got
    steps = sum(1 for _ in _edge_chain(*_relative_chain(5, 2, "top_insert"), uniform_apart(5), p))
    assert steps < 10**5                 # the chain reached its fixed point


@pytest.mark.parametrize("n", [20, 200])
def test_full_deck_tail_matches_the_occupancy_oracle(n):
    m_max = math.ceil(2 * n * math.log(n))
    got = coupling_tail(n, n, "bottom_k_to_top", range(m_max + 1))
    want = full_deck_coupling_tail(n, m_max)
    assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-14


@pytest.mark.parametrize("n", range(2, 9))
def test_relative_chain_equals_the_unselected_count_chain_at_k_equal_n(n):
    got = relative_tails(n, n, "bottom_k_to_top", 60)
    want = coupling_tail(n, n, "bottom_k_to_top", range(61))
    assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-14


@pytest.mark.parametrize("p", [None, Fraction(1, 2), Fraction(1, 3)])
@pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 7) for k in range(2, n + 1)])
def test_exact_tails_dominate_the_tv_profile(n, k, p):
    # P(T > m) >= TV(q^m) for both couplings: the card coupling's decks
    # follow the reversed walk, whose distances are the forward walk's
    q = top_to_bottom_k(n, k)
    profile = mixing_time(q if p is None else lazy(q, p), "tv", 40).profile
    for kind in KINDS:
        tails = coupling_tail(n, k, kind, range(41), 1.0 if p is None else float(p))
        assert all(t >= tv - 1e-12 for t, (_, tv) in zip(tails, profile)), kind


@pytest.mark.parametrize("kind", KINDS)
def test_lazy_trials_match_the_exact_lazy_tail(kind):
    # lazy_trial_wrapper's thinning is the p-lazy chain both decks share
    n, k, p, trials = 6, 3, 0.5, 10_000
    stats = [lazy_trial_wrapper(s, p) for s in coupling_trials(n, k, kind, trials, seed=11)]
    ms = [5, 10, 20, 40, 60]
    for m, want in zip(ms, coupling_tail(n, k, kind, ms, p)):
        got, _ = tail_estimate(stats, m)
        assert abs(got - want) <= 5 * math.sqrt(want * (1 - want) / trials) + 1e-12, (m, got, want)


def test_coupling_tail_reads_floor_m_and_stops_at_a_fixed_point():
    ms = [-0.5, 0, 3, 3.9, 1e6, 1e300]
    for n, k, kind in [(4, 3, "bottom_k_to_top"), (5, 4, "top_insert"), (30, 30, "bottom_k_to_top")]:
        got = coupling_tail(n, k, kind, ms, 0.5)
        assert got[0] == 1.0
        assert got[2] == got[3] == coupling_tail(n, k, kind, [3], 0.5)[0]
        assert got[4] == got[5] <= 1e-300


@pytest.mark.parametrize("args", [
    (5, 3, "zigzag", [1]), (5, 1, "bottom_k_to_top", [1]), (5, 6, "top_insert", [1]),
    (5, 3, "top_insert", [float("nan")]), (5, 3, "top_insert", [float("inf")]),
    (5, 3, "top_insert", [1], 0.0), (5, 3, "top_insert", [1], 1.5),
])
def test_coupling_tail_validation(args):
    with pytest.raises(ValueError):
        coupling_tail(*args)


def test_coupling_tail_dense_cap_applies_off_the_full_deck_chain():
    with pytest.raises(CapacityError):
        coupling_tail(9, 3, "bottom_k_to_top", [1])
    with pytest.raises(CapacityError):
        coupling_tail(9, 9, "top_insert", [1])
    assert coupling_tail(9, 9, "bottom_k_to_top", [-1]) == [1.0]
