"""Independent oracles used to freeze expected values.

The oracles are deliberately self-contained: no imports from the package
under test, simple data (tuples, Fractions), brute-force algorithms.  Slow is
fine; these run at tiny n and their outputs are frozen into fixtures or test
literals.  Only the last section imports the package: small conveniences over
its own types that tests use and the package does not.
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import comb, factorial, fsum, sqrt

from shufflemix.exact import (
    LP_THRESHOLD,
    TV_THRESHOLD,
    DenseDistribution,
    convolve_step,
    group_table,
    point_mass,
    spectrum,
    tv_distance,
)
from shufflemix.flows import letter_perm
from shufflemix.measures import SparseMeasure, delta_e
# cycle_generator and transposition appear only in the doctests below
from shufflemix.perms import Permutation, compose, cycle_generator, identity, rank, transposition


def o_cycle(l, n):
    """One-line tuple for the cycle sending i -> i+1 (i < l), l -> 1."""
    return tuple(list(range(2, l + 1)) + [1] + list(range(l + 1, n + 1)))


def o_compose(a, b):
    return tuple(a[x - 1] for x in b)


def o_inverse(a):
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x - 1] = i + 1
    return tuple(out)


def o_rank(a):
    """Lexicographic rank of the one-line tuple a in the factorial number
    system: sum over positions i of (unused labels below a[i]) * (n-1-i)!."""
    n, r, seen = len(a), 0, 0
    fact = factorial(n - 1)
    for i, label in enumerate(a):
        smaller = (seen & ((1 << (label - 1)) - 1)).bit_count()
        r += (label - 1 - smaller) * fact
        seen |= 1 << (label - 1)
        if i < n - 1:
            fact //= n - 1 - i
    return r


def o_transposition(i, j, n):
    m = list(range(1, n + 1))
    m[i - 1], m[j - 1] = j, i
    return tuple(m)


def brute_power(pairs, n, m):
    """Distribution of the m-step walk by enumerating all generator words.

    pairs: list of (one-line tuple, Fraction weight).  Returns a dict mapping
    one-line tuples to exact probabilities.  Cost |support|^m.
    """
    e = tuple(range(1, n + 1))
    dist = {}
    for word in product(pairs, repeat=m):
        g = e
        w = Fraction(1)
        for letter, weight in word:
            g = o_compose(g, letter)
            w *= weight
        dist[g] = dist.get(g, Fraction(0)) + w
    return dist


def brute_tv(dist, n):
    """Total variation to uniform from an exact sparse distribution."""
    import math
    size = math.factorial(n)
    u = Fraction(1, size)
    acc = Fraction(0)
    for w in dist.values():
        acc += abs(w - u)
    acc += (size - len(dist)) * u
    return acc / 2


def brute_lp(dist, n, p):
    import math
    size = math.factorial(n)
    u = Fraction(1, size)
    if p == 1:
        acc = Fraction(0)
        for w in dist.values():
            acc += abs(w / u - 1) * u
        acc += (size - len(dist)) * u          # |0/u - 1| * u per missing atom
        return acc
    acc = Fraction(0)
    for w in dist.values():
        acc += (w / u - 1) ** 2 * u
    acc += (size - len(dist)) * u
    return acc


def scalar_tv(d):
    """TV to uniform of a dense distribution (``.n``, ``.probs``), one Python
    float term at a time into fsum."""
    u = 1.0 / factorial(d.n)
    return 0.5 * fsum(abs(x - u) for x in d.probs.tolist())


def scalar_lp(d, p):
    """L1 or L2 distance to uniform, one Python float term at a time."""
    size = factorial(d.n)
    if p == 1:
        return fsum(abs(size * x - 1.0) for x in d.probs.tolist()) / size
    return sqrt(fsum((size * x - 1.0) ** 2 for x in d.probs.tolist()) / size)


def brute_mixing_time(pairs, n, metric, m_max=60):
    """First m with distance <= threshold, via repeated exact convolution."""
    import math
    e = tuple(range(1, n + 1))
    dist = {e: Fraction(1)}
    thr_tv = 1 / (2 * math.e)
    thr_l2 = 1 / math.e
    for m in range(0, m_max + 1):
        if metric == "tv":
            if float(brute_tv(dist, n)) <= thr_tv:
                return m
        else:
            if float(brute_lp(dist, n, 2)) ** 0.5 <= thr_l2:
                return m
        nxt = {}
        for g, w in dist.items():
            for letter, lw in pairs:
                h = o_compose(g, letter)
                nxt[h] = nxt.get(h, Fraction(0)) + w * lw
        dist = nxt
    return None


def eigen_matrix(pairs, n):
    """Transition matrix M[x, y] = q(x^{-1} y) over lex-ordered S_n."""
    import numpy as np
    perms = list(permutations(range(1, n + 1)))
    index = {p: i for i, p in enumerate(perms)}
    m = np.zeros((len(perms), len(perms)))
    for i, x in enumerate(perms):
        for letter, w in pairs:
            m[i, index[o_compose(x, letter)]] += float(w)
    return m


def brute_beta_min(pairs, n):
    import numpy as np
    return float(np.linalg.eigvalsh(eigen_matrix(pairs, n))[0])


def tbk_pairs(n, k):
    """(letter, weight) list for the top to bottom-k measure."""
    return [(o_cycle(l, n), Fraction(1, k)) for l in range(n - k + 1, n + 1)]


def symmetrized(pairs):
    acc = {}
    for g, w in pairs:
        acc[g] = acc.get(g, Fraction(0)) + w / 2
        gi = o_inverse(g)
        acc[gi] = acc.get(gi, Fraction(0)) + w / 2
    return list(acc.items())


class DictTable:
    """S_n as itertools.permutations tuples (lexicographic, so rank order),
    a dict from tuple to rank, and rank tables built one tuple at a time
    through that dict: the scalar reference for the package's array tables.

    >>> t = DictTable(3)
    >>> t.perms[t.index[(2, 3, 1)]]
    (2, 3, 1)
    >>> t.right_mul((2, 1, 3))
    [2, 4, 0, 5, 1, 3]
    """

    def __init__(self, n):
        self.perms = list(permutations(range(1, n + 1)))
        self.index = {p: i for i, p in enumerate(self.perms)}
        self._right = {}

    def right_mul(self, s):
        """[rank(p * s) for p in rank order], a bijection of ranks."""
        if s not in self._right:
            self._right[s] = [self.index[o_compose(p, s)] for p in self.perms]
        return self._right[s]


@lru_cache(maxsize=None)
def dict_table(n):
    return DictTable(n)


def bfs_distances_nx(gens, n):
    """Word distance from e to every element of S_n, via networkx BFS."""
    import networkx as nx
    graph = nx.Graph()
    verts = list(permutations(range(1, n + 1)))
    graph.add_nodes_from(verts)
    for v in verts:
        for g in gens:
            graph.add_edge(v, o_compose(v, g))
    e = tuple(range(1, n + 1))
    return nx.single_source_shortest_path_length(graph, e)


def pair_chain_tail(n, moves, m_max):
    """P(the two decks differ after m steps), m = 0..m_max, exactly.

    The pair chain starts from (identity, uniform deck) and moves each pair
    (deck1, deck2) of distinct decks to every (deck1', deck2', weight) that
    moves(deck1, deck2) lists; equal pairs are absorbing.  Evolution is a
    sparse float matvec over all n!^2 deck pairs, so n stays tiny.
    """
    import numpy as np
    from scipy import sparse

    perms = list(permutations(range(1, n + 1)))
    index = {p: i for i, p in enumerate(perms)}
    size = len(perms)
    rows, cols, vals = [], [], []
    for d1 in perms:
        for d2 in perms:
            s = index[d1] * size + index[d2]
            if d1 == d2:
                rows.append(s)
                cols.append(s)
                vals.append(1.0)
                continue
            for e1, e2, w in moves(d1, d2):
                rows.append(s)
                cols.append(index[e1] * size + index[e2])
                vals.append(w)
    step = sparse.csr_matrix((vals, (rows, cols)), shape=(size**2, size**2))
    equal = np.zeros(size**2, dtype=bool)
    for p in perms:
        equal[index[p] * size + index[p]] = True
    dist = np.zeros(size**2)
    e = tuple(range(1, n + 1))
    dist[index[e] * size:(index[e] + 1) * size] = 1.0 / size
    tails = []
    for _ in range(m_max + 1):
        tails.append(float(dist[~equal].sum()))
        dist = step.T @ dist
    return tails


def pair_coupling_tail(n, k, m_max):
    """Exact P(coupling time > m) for the card coupling, m = 0..m_max.

    Deck one moves a uniform bottom-k card to the top; deck two moves the
    same card when its own block holds it, otherwise a uniform card from its
    block minus deck one's block.
    """
    def moves(d1, d2):
        b1, b2 = d1[n - k:], set(d2[n - k:])
        pool = sorted(b2 - set(b1))
        for card in b1:
            if card in b2:
                yield o_to_top(d1, card), o_to_top(d2, card), 1.0 / k
            else:
                for c2 in pool:
                    yield o_to_top(d1, card), o_to_top(d2, c2), 1.0 / (k * len(pool))

    return pair_chain_tail(n, moves, m_max)


def coupon_tail(n, m, t):
    """P(more than t-1 labels uncollected after m uniform draws), exactly.

    Inclusion-exclusion over the set of missed labels:
    P(W_m >= t) = sum_{i>=t} (-1)^{i-t} C(i-1, t-1) C(n, i) (1 - i/n)^m.
    """
    terms = []
    for i in range(t, n + 1):
        base = (1.0 - i / n) ** m
        if base == 0.0:
            break
        terms.append((-1) ** (i - t) * comb(i - 1, t - 1) * comb(n, i) * base)
    return fsum(terms)


def full_deck_coupling_tail(n, m_max):
    """P(T > m) for m = 0..m_max of the card coupling at k = n, exactly.

    Both decks move the same uniform card to the top, so the selected cards
    agree and the u unselected ones keep their relative orders: deck 1's is
    the original one, deck 2's is uniform.  The decks agree once those
    orders do, so P(T > m) = sum_u P(U_m = u) (1 - 1/u!), with U_m the
    unselected count, stepped here one state at a time.
    """
    law = [0.0] * n + [1.0]
    miss = [1 - 1 / factorial(u) for u in range(n + 1)]
    tails = []
    for _ in range(m_max + 1):
        tails.append(fsum(w * c for w, c in zip(law, miss)))
        law = [law[u] * (1 - u / n) + (law[u + 1] * (u + 1) / n if u < n else 0.0)
               for u in range(n + 1)]
    return tails


def harmonic_mean_l0(n):
    """E L_0 = n * H_n as an exact Fraction."""
    return n * sum((Fraction(1, i) for i in range(1, n + 1)), Fraction(0))


def sampled_unselected_tail(n, k, j, m, trials, rng):
    """Sampled P(L_j > m) and its binomial standard error, from the deck.

    Each trial runs m reversed-walk steps on a full deck that starts in
    order: a uniform card of the bottom k block moves to the top.  L_j > m
    when fewer than k - j of the initial bottom-k labels have been selected.
    Unlike the package's pure-death chain this tracks every card, so it also
    checks the lumping argument where inclusion-exclusion does not apply.
    """
    hits = 0
    for _ in range(trials):
        deck = list(range(1, n + 1))
        seen = set()
        for u in rng.integers(k, size=m).tolist():
            card = deck.pop(n - k + u)
            if card > n - k:
                seen.add(card)
            deck.insert(0, card)
        hits += len(seen) < k - j
    p = hits / trials
    return p, (p * (1 - p) / trials) ** 0.5


# ---------------------------------------------------------------------------
# coupling steps on deck pairs.  A "move" applies one step given its draws;
# a "step" reads those draws from a generator in the package's order.


@dataclass(frozen=True)
class DeckPair:
    """Two decks of the same size plus the step counter."""

    n: int
    deck1: tuple
    deck2: tuple
    steps: int = 0

    def __post_init__(self):
        want = list(range(1, self.n + 1))
        if sorted(self.deck1) != want or sorted(self.deck2) != want:
            raise ValueError("decks must be permutations of 1..n")

    def matched(self) -> int:
        return sum(a == b for a, b in zip(self.deck1, self.deck2))


def _check_k(pair, k):
    if not 1 < k <= pair.n:
        raise ValueError(f"k={k} outside (1, {pair.n}]")


def o_to_top(deck, card):
    """Deck with card moved to the top; the cards above it shift down."""
    i = deck.index(card)
    return (card,) + deck[:i] + deck[i + 1:]


def o_from_top(deck, slot):
    """Deck with its top card moved to 1-based slot; the cards above shift up."""
    rest = deck[1:]
    return rest[:slot - 1] + (deck[0],) + rest[slot - 1:]


def bottom_k_to_top_move(pair, k, u_pos, u_fb):
    """Card coupling step given the block pick u_pos in [0, k) and the
    fallback uniform u_fb in [0, 1)."""
    _check_k(pair, k)
    n = pair.n
    block1, block2 = pair.deck1[n - k:], pair.deck2[n - k:]
    card = block1[u_pos]
    if card in block2:
        card2 = card
    else:
        pool = sorted(set(block2) - set(block1))
        card2 = pool[int(u_fb * len(pool))]
    return DeckPair(n, o_to_top(pair.deck1, card), o_to_top(pair.deck2, card2),
                    pair.steps + 1)


def bottom_k_to_top_step(pair, k, rng):
    """Card coupling step; both marginals are the reversed walk.

    Matched counts can drop here (a move in one deck can shear an unrelated
    match apart), but equal decks stay equal: identical blocks force
    identical moves.
    """
    return bottom_k_to_top_move(pair, k, int(rng.integers(k)), float(rng.random()))


def top_insert_move(pair, k, coin, u_pos):
    """Position coupling step given the leader coin (0: deck 1 leads) and
    the slot pick u_pos in [0, k)."""
    _check_k(pair, k)
    n = pair.n
    slot = n - k + 1 + u_pos                     # 1-based insertion slot
    lead, trail = (pair.deck1, pair.deck2) if coin == 0 else (pair.deck2, pair.deck1)
    p = trail.index(lead[0]) + 1                 # leader's top card in trailer
    if n - k + 2 <= p <= n and slot in (p, p - 1):
        trail_slot = p - 1 if slot == p else p
    else:
        trail_slot = slot
    lead, trail = o_from_top(lead, slot), o_from_top(trail, trail_slot)
    deck1, deck2 = (lead, trail) if coin == 0 else (trail, lead)
    out = DeckPair(n, deck1, deck2, pair.steps + 1)
    assert out.matched() >= pair.matched(), "match set shrank under the position coupling"
    return out


def top_insert_coupling_tail(n, k, m_max):
    """Exact P(coupling time > m) for the position coupling, m = 0..m_max:
    the pair chain of :func:`top_insert_move` over both coins and every slot."""
    def moves(d1, d2):
        pair = DeckPair(n, d1, d2)
        for coin, u_pos in product((0, 1), range(k)):
            out = top_insert_move(pair, k, coin, u_pos)
            yield out.deck1, out.deck2, 1.0 / (2 * k)

    return pair_chain_tail(n, moves, m_max)


def top_insert_couple_step(pair, k, rng):
    """Position coupling step; both marginals are the forward walk.

    The trailing deck copies the leader's slot unless the leader's top card
    sits at trailing position p with p in the bottom k-1 block and the slot
    hits {p-1, p}; swapping those two slots parks the leader's card at the
    same position in both decks, so the matched set never shrinks.
    """
    return top_insert_move(pair, k, int(rng.integers(2)), int(rng.integers(k)))


def single_card_move(p, forward, slot):
    """One symmetrized-walk move of a single card's position, given its draws.

    The tracked card's position is Markov: a forward move shifts it up by
    one when the slot lands at or below it and teleports the top card into
    the slot; a reversed move shifts it down or grabs it to the top.
    """
    if forward:
        if p == 1:
            return slot
        return p - 1 if p <= slot else p
    if p == slot:
        return 1
    return p + 1 if p < slot else p


def single_card_position_step(p, n, k, rng):
    """single_card_move with a fair coin and a uniform bottom-k slot."""
    forward = int(rng.integers(2)) == 0
    return single_card_move(p, forward, n - k + 1 + int(rng.integers(k)))


def single_card_occupancy(n, k, steps):
    """P(tracked card in the bottom k after `steps` moves), as a Fraction.

    The card starts at floor((1 - c) n / 2) + 1 with c = k / n, in integer
    arithmetic; each step is one of the 2k equally likely (coin, slot)
    draws of single_card_move.
    """
    dist = {(n - k) // 2 + 1: Fraction(1)}
    w = Fraction(1, 2 * k)
    for _ in range(steps):
        nxt = {}
        for p, mass in dist.items():
            for slot in range(n - k + 1, n + 1):
                for forward in (True, False):
                    q = single_card_move(p, forward, slot)
                    nxt[q] = nxt.get(q, 0) + mass * w
        dist = nxt
    return sum(mass for p, mass in dist.items() if p > n - k)


# ---------------------------------------------------------------------------
# the lifted chain of the k = 3 walk, one card at a time.  The package only
# needs each slot's per-position image (wilson._slot_images); these scalar
# steps are the reference its certificates are checked against.


@dataclass(frozen=True)
class LiftedState:
    """Inverse positions, the step counter mod n, and per-card windings."""

    n: int
    inv_pos: tuple
    y: int
    z: tuple

    def __post_init__(self):
        n = self.n
        if sorted(self.inv_pos) != list(range(1, n + 1)):
            raise ValueError("inv_pos is not a bijection of 1..n")
        if not 0 <= self.y < n:
            raise ValueError(f"y={self.y} outside [0, {n})")
        if len(self.z) != n or not all(0 <= zj < n for zj in self.z):
            raise ValueError("z entries must lie in [0, n)")


def lifted_start(n):
    return LiftedState(n, tuple(range(1, n + 1)), 0, (0,) * n)


def card_update(pos, z, l, n):
    """One card's (position, winding) after multiplying by sigma_l.

    >>> card_update(5, 0, 8, 8)    # full cycle: everyone shifts down
    (4, 0)
    >>> card_update(1, 0, 7, 8)    # top card lands at l, winding slips by n-l
    (7, 7)
    >>> card_update(1, 0, 6, 8)
    (6, 6)
    >>> card_update(7, 3, 6, 8)    # below the insertion point: untouched, Y ticks
    (7, 4)
    """
    if l == n:
        return (n if pos == 1 else pos - 1), z
    if pos > l:
        return pos, (z + 1) % n
    if pos == 1:
        return l, (z + l) % n
    return pos - 1, z


def lifted_step(state, l):
    """Advance the lifted chain by the generator sigma_l, l in {n-2, n-1, n}."""
    n = state.n
    if l not in (n - 2, n - 1, n):
        raise ValueError(f"l={l} is not one of the three bottom slots for n={n}")
    pairs = [card_update(p, z, l, n) for p, z in zip(state.inv_pos, state.z)]
    return LiftedState(
        n,
        tuple(p for p, _ in pairs),
        (state.y + 1) % n,
        tuple(z for _, z in pairs),
    )


def psi(state, params):
    """Psi = sum_j v(pos(j)) w^{Z(j)}; reads only inv_pos and z, never y.

    params is anything with the position weights as ``params.v`` (0-indexed).
    """
    n = state.n
    return sum(complex(params.v[p - 1]) * cmath.exp(2j * cmath.pi * z / n)
               for p, z in zip(state.inv_pos, state.z))


# ---------------------------------------------------------------------------
# test-only conveniences over the package's types


def compose_word(letters, n: int) -> Permutation:
    """Left-to-right product of a sequence of permutations (empty word -> e)."""
    acc = identity(n)
    for g in letters:
        acc = compose(acc, g)
    return acc


def parse(text: str, n: int | None = None) -> Permutation:
    """Parse the package's ``serialize`` format.

    >>> parse("2,3,1") == cycle_generator(3, 3)
    True
    """
    entries = tuple(int(tok) for tok in text.split(","))
    if n is not None and len(entries) != n:
        raise ValueError(f"expected {n} entries, got {len(entries)}")
    return Permutation(len(entries), entries)


def path_endpoint(n: int, word) -> Permutation:
    """Product of the word's letters at deck size n in written order (empty
    word -> e), composed one letter at a time; unknown letters raise
    ValueError.

    >>> path_endpoint(5, ("s3inv", "s5", "s4inv", "s3")) == transposition(3, 5, 5)
    True
    """
    return compose_word([letter_perm(name, n) for name in word], n)


def flow_discrepancies(flow) -> tuple:
    """(one-line string, routed mass, target mass) for every permutation whose
    routed mass, summed over :func:`path_endpoint`, differs from the target,
    in lexicographic order of the one-line form."""
    routed: dict[tuple, Fraction] = {}
    for path, c in flow.paths.items():
        key = path_endpoint(flow.n, path.word).map
        routed[key] = routed.get(key, Fraction(0)) + flow.unit * c
    target = {g.map: w for g, w in flow.target.items()}
    return tuple((",".join(map(str, key)), routed.get(key, Fraction(0)), target.get(key, Fraction(0)))
                 for key in sorted(routed.keys() | target.keys())
                 if routed.get(key, Fraction(0)) != target.get(key, Fraction(0)))


def congestion_from_weights(flow) -> tuple[Fraction, dict[int, Fraction]]:
    """A(eta) and the term of every generator rank, from each path's own
    Fraction weight unit * c added once per letter: no tallies, no classes."""
    traffic: dict[int, Fraction] = {}
    for path, c in flow.paths.items():
        w = flow.unit * c
        for name in path.word:
            r = rank(letter_perm(name, flow.n))
            traffic[r] = traffic.get(r, Fraction(0)) + w * len(path.word)
    terms = {r: traffic.get(r, Fraction(0)) / qs for r, qs in flow.q.atoms.items()}
    return max(terms.values()), terms


def convolve_measures(a: SparseMeasure, b: SparseMeasure) -> SparseMeasure:
    """(a * b)(g) = sum_h a(h) b(h^{-1} g), i.e. step by a, then by b."""
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} vs {b.n}")
    pairs = []
    for g, wa in a.items():
        for h, wb in b.items():
            pairs.append((compose(g, h), wa * wb))
    return SparseMeasure.from_pairs(a.n, pairs)


def convolution_power(q: SparseMeasure, m: int) -> SparseMeasure:
    if m < 0:
        raise ValueError(f"negative power {m}")
    acc = delta_e(q.n)
    for _ in range(m):
        acc = convolve_measures(acc, q)
    return acc


def dirichlet_form(f, q: SparseMeasure) -> float:
    """E_q(f, f) = (1/(2|G|)) sum_{x,y} |f(xy) - f(x)|^2 q(y): the dense
    reference for the package's Fourier comparison constants."""
    import numpy as np
    t = group_table(q.n)
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (t.size,):
        raise ValueError(f"expected f of length {t.size}, got {f.shape}")
    acc = 0.0
    for g, w in q.items():
        diff = f[t.right_mul(g.map)] - f
        acc += float(w) * float(diff @ diff)
    return acc / (2 * t.size)


def dirichlet_form_operator(f, q: SparseMeasure) -> float:
    """<(I - Q)f, f> under the uniform inner product; equals
    ``dirichlet_form`` when q is symmetric."""
    import numpy as np
    t = group_table(q.n)
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (t.size,):
        raise ValueError(f"expected f of length {t.size}, got {f.shape}")
    qf = np.zeros(t.size)
    for g, w in q.items():
        qf += float(w) * f[t.right_mul(g.map)]
    return float((f - qf) @ f) / t.size


def densify(q: SparseMeasure) -> DenseDistribution:
    """The measure q as a dense rank-indexed distribution."""
    import numpy as np
    t = dict_table(q.n)
    p = np.zeros(len(t.perms))
    for g, w in q.items():
        p[t.index[g.map]] += float(w)
    return DenseDistribution(q.n, p)


def scatter_step(d: DenseDistribution, q: SparseMeasure):
    """One walk step in scatter form: each atom s, in rank order, adds
    q(s) d(h) at the rank of h s for every h, through the dict tables."""
    import numpy as np
    t = dict_table(q.n)
    out = np.zeros(len(t.perms))
    for g, w in q.items():
        out[t.right_mul(g.map)] += float(w) * d.probs
    return out


def lp_distance(d: DenseDistribution, p: int) -> float:
    """d_{pi,p}(d) = (sum |d(g)/pi(g) - 1|^p pi(g))^{1/p} for p in {1, 2}."""
    import numpy as np
    if p not in (1, 2):
        raise ValueError(f"p must be 1 or 2, got {p}")
    size = math.factorial(d.n)
    e = size * d.probs - 1.0
    if p == 1:
        return math.fsum(np.abs(e).tolist()) / size
    return math.sqrt(math.fsum((e * e).tolist()) / size)


def distance_profile(q: SparseMeasure, m_max: int) -> list[tuple[int, float, float]]:
    """(step, tv, l2) rows for steps 0..m_max, one pass of convolution."""
    d = point_mass(q.n)
    rows = [(0, tv_distance(d), lp_distance(d, 2))]
    for m in range(1, m_max + 1):
        d = convolve_step(d, q)
        rows.append((m, tv_distance(d), lp_distance(d, 2)))
    return rows


def hitting_time(q: SparseMeasure, metric: str) -> int:
    """First m with distance(q^m, pi) <= threshold, by stepping the dense walk
    for one metric: the reference that T2 from the Fourier blocks and the
    package's TV mixing times are compared against.  It never ends unless q
    drives a mixing walk.
    """
    dist_fn, threshold = {"tv": (tv_distance, TV_THRESHOLD),
                          "l2": (lambda d: lp_distance(d, 2), LP_THRESHOLD)}[metric]
    d, m = point_mass(q.n), 0
    while dist_fn(d) > threshold:
        d, m = convolve_step(d, q), m + 1
    return m


def l2_from_spectrum(q: SparseMeasure, m: int) -> float:
    """Squared L2 distance from the spectrum: sum_{beta_i != top} beta_i^{2m}.

    Spectral identity for reversible chains, d_{pi,2}(q^m)^2 = sum beta_i^{2m}
    over non-top eigenvalues.  At m = 0 this is n! - 1.
    """
    eig = spectrum(q).eigenvalues
    return fsum(float(b) ** (2 * m) for b in eig[:-1])


def transposition_words_general(n: int, k: int, i: int, j: int) -> tuple[tuple[str, ...], ...]:
    """Words ending at (i, j) over the bottom-k generators, letter by letter:
    one short word s{i}inv s{j} s{j-1}inv s{i} (less the identity letters s1,
    s1inv) when i sits in the generator range, otherwise k - 1 conjugations,
    one per l in (n-k, n), of a short word (j > l) or of three adjacent
    transposition words (j <= l) by sigma_l powers."""
    if not 1 <= i < j <= n:
        raise ValueError(f"need 1 <= i < j <= n, got ({i}, {j})")

    def short(a, b):
        return (f"s{a}inv", f"s{b}", f"s{b-1}inv", f"s{a}")

    if i > n - k:
        return (tuple(x for x in short(i, j) if x not in ("s1", "s1inv")),)
    words = []
    for l in range(n - k + 1, n):
        sl, sli = f"s{l}", f"s{l}inv"
        if j > l:
            words.append((sli,) * (l - i) + short(l, j) + (sl,) * (l - i))
        else:
            adj = short(l, l + 1)
            words.append((sli,) * (l - j) + adj + (sli,) * (j - i) + adj
                         + (sl,) * (j - i) + adj + (sl,) * (l - j))
    return tuple(words)


def general_flow_words(n: int, k: int) -> dict[tuple[str, ...], int]:
    """word -> multiplicity of the general-k flow, in builder order: e with
    (k-1)n, then every (i, j) in lexicographic order, a lone short word with
    2(k-1) and each of k - 1 long words with 2, equal words merged."""
    paths = {(): (k - 1) * n}
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            words = transposition_words_general(n, k, i, j)
            c = 2 * (k - 1) if len(words) == 1 else 2
            for word in words:
                paths[word] = paths.get(word, 0) + c
    return paths
