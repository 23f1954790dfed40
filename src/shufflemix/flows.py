"""Cayley-graph path flows and the comparison bounds they certify.

A flow routes the mass of a target measure through paths in the Cayley graph
of a comparison measure q: every target atom y receives paths ending at y
whose integer multiplicities, times the flow's one rational unit, sum to the
atom's mass exactly.  The congestion constant

    A(eta) = max_s (1/q(s)) sum_paths |delta| N(s, delta) eta(delta)

(N counts how often the generator s appears in the path) then bounds the
target's Dirichlet form by A times the comparison form, which converts known
mixing or spectral information about one walk into bounds for the other.
Flows made of odd-length loops at the identity bound the least eigenvalue
instead: beta_min >= -1 + (1 + beta~_min)/A.

Word lengths for the distance-squared congestion floor come from
:func:`shufflemix.exact.cayley_distances`, and the Dirichlet forms run over
the group tables of :mod:`shufflemix.exact`, so both share its dense cap
n <= 8; flows themselves are exact, have no size cap, and never convert to
ranks.  Letters (s{l}, s{l}inv for sigma_l^{+-1}, tau for (1, n)) resolve
through one table per n, and endpoints and letters are keyed by Permutation.

Four constructions are provided: odd loops for the symmetrized shuffle, two
routings of the random-transposition measure through shuffle generators (one
for k close to n, one for general k), and a routing of the symmetrized
shuffle through the Rudvalis generators {sigma_n^{+-1}, (1, n)}.  Printed
per-path weights in the source analyses sum to half the transposition mass
(they count unordered pairs once); the builders' multiplicities carry the
full mass, so marginals match the target exactly rather than up to a factor
absorbed in a constant.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import UnreachableTargetError
from .exact import cayley_distances, group_table, hitting_time, spectrum
from .measures import (
    SparseMeasure,
    delta_e,
    measure_to_json_obj,
    random_transposition,
    rudvalis_symmetric,
    symmetrize,
    top_to_bottom_k,
)
from .perms import (
    Permutation,
    cycle_generator,
    inverse,
    right_multiplier,
    serialize,
    transposition,
)


@lru_cache(maxsize=None)
def _letters(n: int) -> dict:
    """Names s1, s1inv, ..., sn, sninv, tau (n > 1) -> (perm, right multiplier)."""
    gens = {}
    for l in range(1, n + 1):
        gens[f"s{l}"] = cycle_generator(l, n)
        gens[f"s{l}inv"] = inverse(gens[f"s{l}"])
    if n > 1:
        gens["tau"] = transposition(1, n, n)
    return {name: (g, right_multiplier(g.map)) for name, g in gens.items()}


def letter_perm(name: str, n: int) -> Permutation:
    """Resolve a generator name: "s{l}" / "s{l}inv" are the cycles sigma_l
    and their inverses, "tau" is the transposition (1, n).

    >>> letter_perm("s3", 3).map
    (2, 3, 1)
    >>> letter_perm("s3inv", 3) == inverse(letter_perm("s3", 3))
    True
    """
    try:
        return _letters(n)[name][0]
    except KeyError:
        raise ValueError(f"unknown generator name {name!r} at n={n}") from None


def invert_letter(name: str) -> str:
    if name == "tau":
        return name
    return name[:-3] if name.endswith("inv") else name + "inv"


def generator_name(g: Permutation) -> str:
    """Canonical display name for a permutation: e, the first generator name
    resolving to it (s{l}, s{l}inv, or tau), otherwise its one-line form."""
    if g.is_identity():
        return "e"
    return next((name for name, (h, _) in _letters(g.n).items() if h == g), serialize(g))


@dataclass(frozen=True)
class CayleyPath:
    """Word of generator names, walked left to right from e by right
    multiplication; the endpoint is the product of the letters in written
    order.  Hash and equality use the word only, so paths key flow dicts.
    """

    n: int
    word: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "word", tuple(self.word))

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def endpoint(self) -> Permutation:
        # fold one-line tuples directly; Permutation validation per step
        # would dominate at tens of thousands of paths
        letters = _letters(self.n)
        cur = tuple(range(1, self.n + 1))
        try:
            for name in self.word:
                cur = letters[name][1](cur)
        except KeyError as exc:
            raise ValueError(f"unknown generator name {exc.args[0]!r} at n={self.n}") from None
        return Permutation(self.n, cur)


@dataclass(frozen=True)
class Flow:
    """Paths routing ``target`` through the Cayley graph of ``q``; a path of
    int multiplicity c >= 0 carries mass c * ``unit``.

    Letters must name support elements of q (the identity may appear as a
    letter only when q(e) > 0, which odd loop flows at k = n exploit).
    Marginal correctness is checked by :func:`verify_flow`, not here, so that
    a mis-weighted flow can be built and reported on.
    """

    target: SparseMeasure
    q: SparseMeasure
    unit: Fraction
    paths: dict[CayleyPath, int] = field(compare=False)

    def __post_init__(self):
        if self.target.n != self.q.n:
            raise ValueError(f"size mismatch: target n={self.target.n}, q n={self.q.n}")
        if not (isinstance(self.unit, Fraction) and self.unit > 0):
            raise ValueError(f"unit must be a positive Fraction, got {self.unit!r}")
        names = set()
        for p, c in self.paths.items():
            if p.n != self.q.n:
                raise ValueError(f"path size {p.n} != {self.q.n}")
            if not (isinstance(c, int) and c >= 0):
                raise ValueError(f"multiplicity must be a nonnegative int, got {c!r}")
            names.update(p.word)
        for name in sorted(names):
            if self.q.weight(letter_perm(name, self.q.n)) == 0:
                raise ValueError(f"letter {name!r} is not in the support of q")

    @property
    def n(self) -> int:
        return self.q.n


@dataclass(frozen=True)
class FlowVerification:
    exact: bool
    discrepancies: tuple     # (perm string, routed mass, target mass)


def verify_flow(flow: Flow) -> FlowVerification:
    """Exact rational check that path-endpoint marginals equal the target."""
    routed: Counter = Counter()
    for p, c in flow.paths.items():
        routed[p.endpoint] += c
    target = dict(flow.target.items())
    bad = []
    for g in sorted(routed.keys() | target.keys(), key=lambda g: g.map):
        got = flow.unit * routed[g]
        want = target.get(g, Fraction(0))
        if got != want:
            bad.append((serialize(g), got, want))
    return FlowVerification(exact=not bad, discrepancies=tuple(bad))


@dataclass(frozen=True)
class FlowReport:
    a_value: Fraction
    per_generator: tuple            # (name, q(s), term) in lexicographic order


def congestion_A(flow: Flow) -> FlowReport:
    """Exact congestion constant A(eta) with a per-generator breakdown.

    Traffic c * |delta| * N(s, delta) is an int tally per letter permutation
    (sigma_2^{+-1} and tau coincide at n = 2, so their traffic merges),
    scaled by the unit once per generator.
    """
    letters = _letters(flow.n)
    traffic: Counter = Counter()
    for p, c in flow.paths.items():
        load = c * p.length
        for name, m in Counter(p.word).items():
            traffic[letters[name][0]] += load * m
    rows = tuple((generator_name(g), qs, flow.unit * traffic[g] / qs)
                 for g, qs in flow.q.items())
    a = max(t for _, _, t in rows)
    return FlowReport(a_value=a, per_generator=rows)


def congestion_lower_bound(target: SparseMeasure, generators) -> Fraction:
    """sum_g d_S(e, g)^2 * target(g): no flow over S can beat this congestion.

    Distances are word lengths from :func:`shufflemix.exact.cayley_distances`.
    """
    dist = cayley_distances(target.n, generators)
    index = group_table(target.n).index
    acc = Fraction(0)
    for g, w in target.items():
        d = int(dist[index[g.map]])
        if d < 0:
            raise UnreachableTargetError(
                f"target atom {serialize(g)} not reachable from the generators"
            )
        acc += w * d * d
    return acc


# ---------------------------------------------------------------------------
# builders


def _short_word(i: int, j: int) -> tuple[str, ...]:
    # ends at the transposition (i, j) for j > i; the trailing pair
    # degenerates to s{i}inv s{i} when j = i + 1, which is kept as printed
    return (f"s{i}inv", f"s{j}", f"s{j-1}inv", f"s{i}")


def _strip_identity(word) -> tuple[str, ...]:
    return tuple(x for x in word if x not in ("s1", "s1inv"))


def transposition_word_large_k(n: int, C: int, i: int, j: int) -> tuple[str, ...]:
    """Word ending at (i, j) over {sigma_l : l > C}, for the k = n - C flow."""
    if not 1 <= i < j <= n:
        raise ValueError(f"need 1 <= i < j <= n, got ({i}, {j})")
    if i >= C + 1:
        return _strip_identity(_short_word(i, j))
    m = C - i + 1
    if j <= n - C:
        return (f"s{n}inv",) * m + _short_word(C + 1, j + C - i + 1) + (f"s{n}",) * m
    return (f"s{n-C}inv",) * m + _short_word(C + 1, j) + (f"s{n-C}",) * m


def transposition_words_general(n: int, k: int, i: int, j: int) -> tuple[tuple[str, ...], ...]:
    """Words ending at (i, j) over the bottom-k generators: one short word
    when i sits in the generator range, otherwise k - 1 conjugations, one per
    l in (n-k, n)."""
    if not 1 <= i < j <= n:
        raise ValueError(f"need 1 <= i < j <= n, got ({i}, {j})")
    if i > n - k:
        return (_strip_identity(_short_word(i, j)),)
    words = []
    for l in range(n - k + 1, n):
        sl, sli = f"s{l}", f"s{l}inv"
        if j > l:
            words.append((sli,) * (l - i) + _short_word(l, j) + (sl,) * (l - i))
        else:
            adj = _short_word(l, l + 1)
            words.append(
                (sli,) * (l - j)
                + adj
                + (sli,) * (j - i)
                + adj
                + (sl,) * (j - i)
                + adj
                + (sl,) * (l - j)
            )
    return tuple(words)


def build_odd_flow_tbk(n: int, k: int) -> Flow:
    """Odd loop flow at e over the symmetrized shuffle generators.

    For each odd l in [n-k+1, n] the loop walks sigma_l (and its inverse)
    l times with multiplicity L/l^2 per direction, L the lcm of the l^2; the
    unit is one over the total multiplicity, so the mass at e is exactly 1.
    At l = 1 both directions are the same single identity letter and merge
    into one path of multiplicity 2L, carried by the identity mass of the
    symmetrized measure at k = n.
    """
    q = symmetrize(top_to_bottom_k(n, k))
    odd_ls = [l for l in range(n - k + 1, n + 1) if l % 2 == 1]
    if not odd_ls:
        raise ValueError(f"no odd cycle length in [{n - k + 1}, {n}]")
    big_l = math.lcm(*(l * l for l in odd_ls))
    paths: dict[CayleyPath, int] = {}
    for l in odd_ls:
        c = big_l // (l * l)
        if l == 1:
            paths[CayleyPath(n, ("s1",))] = 2 * c
        else:
            paths[CayleyPath(n, (f"s{l}",) * l)] = c
            paths[CayleyPath(n, (f"s{l}inv",) * l)] = c
    return Flow(target=delta_e(n), q=q, unit=Fraction(1, sum(paths.values())), paths=paths)


def odd_flow_eigenvalue_bound(flow: Flow) -> Fraction:
    """Least-eigenvalue bound -1 + (1 + beta~_min)/A(eta) from an odd flow.

    beta~_min is the least eigenvalue of the target walk; the target must be
    the point mass at e, which drives the identity chain (spectrum {1}).
    """
    for p in flow.paths:
        if p.length % 2 == 0:
            raise ValueError(f"even-length path {p.word!r}: bound needs odd loops only")
    if flow.target != delta_e(flow.n):
        raise ValueError("odd-flow bound needs the point mass at e as its target")
    a = congestion_A(flow).a_value
    if a == 0:
        raise ValueError("flow carries no traffic; congestion is zero")
    return -1 + 2 / a


def build_flow_large_k(n: int, C: int) -> Flow:
    """Random-transposition flow over the shuffle generators at k = n - C.

    Every transposition (i, j) gets one path: a short conjugation when both
    ends exceed C, otherwise a conjugation by sigma_n or sigma_{n-C} powers
    that first carries i up into the generator range.  Requires n > 2C + 2 so
    the two ranges cannot collide.
    """
    if not (isinstance(C, int) and C >= 0):
        raise ValueError(f"C must be a nonnegative integer, got {C!r}")
    if n <= 2 * C + 2:
        raise ValueError(f"need n > 2C + 2, got n={n}, C={C}")
    k = n - C
    q = symmetrize(top_to_bottom_k(n, k))
    target = random_transposition(n)
    # unit 1/n^2: the identity carries 1/n, each transposition 2/n^2
    paths = {CayleyPath(n, ()): n}
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            paths[CayleyPath(n, transposition_word_large_k(n, C, i, j))] = 2
    return Flow(target=target, q=q, unit=Fraction(1, n * n), paths=paths)


def build_flow_general(n: int, k: int) -> Flow:
    """Random-transposition flow over the shuffle generators for any k.

    Transpositions inside the generator range take the short conjugation.
    A transposition with i <= n - k splits its mass over k - 1 paths, one per
    l in (n-k, n): conjugating by sigma_l powers either reduces to a short
    word (j > l) or to three copies of the adjacent transposition word
    delta_{l,l+1} separated by sigma_l powers (j <= l).
    """
    if not (isinstance(k, int) and 1 < k <= n):
        raise ValueError(f"need n >= k > 1, got n={n}, k={k}")
    q = symmetrize(top_to_bottom_k(n, k))
    target = random_transposition(n)
    # unit 1/((k-1)n^2): e carries 1/n, a short word 2/n^2, a long word 2 units
    paths = {CayleyPath(n, ()): (k - 1) * n}
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            words = transposition_words_general(n, k, i, j)
            c = 2 * (k - 1) if len(words) == 1 else 2
            for word in words:
                p = CayleyPath(n, word)
                paths[p] = paths.get(p, 0) + c
    return Flow(target=target, q=q, unit=Fraction(1, (k - 1) * n * n), paths=paths)


def build_flow_rudvalis(n: int, k: int) -> Flow:
    """Symmetrized-shuffle flow over the Rudvalis generators.

    Each sigma_l is reached as sigma_n (sigma_n^{-1} tau)^{n-l} sigma_n^{n-l};
    inverses take the reversed word with inverted letters.  One path per
    support atom carrying exactly its mass, so the flow is simple and the
    marginals are immediate.  The unit is 1/(2k); merged atoms (e at k = n,
    sigma_2 at n = 2) carry two.
    """
    target = symmetrize(top_to_bottom_k(n, k))
    q = rudvalis_symmetric(n)
    unit = Fraction(1, 2 * k)
    words = {"e": ()}
    for l in range(max(2, n - k + 1), n + 1):
        words[f"s{l}"] = rudvalis_generator_word(n, l)
        words[f"s{l}inv"] = tuple(invert_letter(x) for x in reversed(words[f"s{l}"]))
    paths: dict[CayleyPath, int] = {}
    for g, w in target.items():
        c = w / unit
        if c.denominator != 1:
            raise ValueError(f"atom {serialize(g)} of mass {w} is not a multiple of {unit}")
        paths[CayleyPath(n, words[generator_name(g)])] = c.numerator
    return Flow(target=target, q=q, unit=unit, paths=paths)


def rudvalis_generator_word(n: int, l: int) -> tuple[str, ...]:
    """Word ending at sigma_l over {sigma_n^{+-1}, tau}: one sigma_n, then
    n - l rounds of sigma_n^{-1} tau, then n - l closing sigma_n letters."""
    if not 2 <= l <= n:
        raise ValueError(f"cycle length {l} outside 2..{n}")
    m = n - l
    return (f"s{n}",) + (f"s{n}inv", "tau") * m + (f"s{n}",) * m


def rudvalis_congestion_bound(n: int, k: int) -> Fraction:
    """(4/k) sum over the bottom k of (3(n-l) + 1)^2, the printed estimate."""
    return Fraction(4, k) * sum((3 * (n - l) + 1) ** 2 for l in range(n - k + 1, n + 1))


def general_congestion_bound(n: int, k: int) -> Fraction:
    """18n^2 + 8k^2/n^2, the printed estimate for the general-k flow."""
    return 18 * n * n + Fraction(8 * k * k, n * n)


def large_k_congestion_bound(C: int) -> int:
    """8[C(C+2)^2 + 1], the printed estimate for the large-k flow."""
    return 8 * (C * (C + 2) ** 2 + 1)


# ---------------------------------------------------------------------------
# Dirichlet forms and the comparison mixing bound


def dirichlet_form(f, q: SparseMeasure) -> float:
    """E_q(f, f) = (1/(2|G|)) sum_{x,y} |f(xy) - f(x)|^2 q(y)."""
    t = group_table(q.n)
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (t.size,):
        raise ValueError(f"expected f of length {t.size}, got {f.shape}")
    acc = 0.0
    for g, w in q.items():
        diff = f[t.right_mul(g.map)] - f
        acc += float(w) * float(diff @ diff)
    return acc / (2 * t.size)


@dataclass(frozen=True)
class ComparisonBoundReport:
    a_value: float
    reference_t2: int
    term_reference: float        # A * T2 of the flow's target walk
    term_entropy: float          # A * log n!
    term_beta: float             # 1/(-log beta_-); 0 when the spectrum is nonnegative
    bound: float
    t2_exact: int
    holds: bool
    slack: float


def comparison_bound_report(flow: Flow, reference_t2: int) -> ComparisonBoundReport:
    """L2 mixing bound for the flow's comparison walk q:

        T2(q) <= max(A * T2(target), A * log|G|, 1/(-log beta_-)),

    beta_- = max(0, -beta_min(q)).  Checked against the exact T2 of q.  Any
    target's T2 is at least 1: at m = 0 its L2 distance is sqrt(n! - 1) > 1/e.

    The exact T2 is a :func:`shufflemix.exact.hitting_time`, which ends
    because q mixes: q is symmetric (spectrum checks it), so the squared L2
    distance of q^m is the sum of beta^(2m) over the nontrivial eigenvalues,
    and a spectral gap above 0 with beta_min above -1 makes every such
    |beta| < 1.  A walk failing either test raises ValueError: a q whose
    support does not generate has gap 0, and a periodic q has beta_min = -1.
    """
    if reference_t2 < 1:
        raise ValueError(f"reference T2 must be at least 1, got {reference_t2}")
    a = float(congestion_A(flow).a_value)
    spec = spectrum(flow.q)
    if spec.spectral_gap <= 1e-9 or spec.beta_min <= -1 + 1e-9:
        raise ValueError(f"comparison walk does not mix: spectral gap {spec.spectral_gap}, "
                         f"beta_min {spec.beta_min}")
    beta_minus = max(0.0, -spec.beta_min)
    term_beta = 0.0 if beta_minus == 0.0 else 1.0 / (-math.log(beta_minus))
    term_reference = a * reference_t2
    term_entropy = a * math.log(math.factorial(flow.n))
    bound = max(term_reference, term_entropy, term_beta)
    t2 = hitting_time(flow.q, "l2")
    return ComparisonBoundReport(
        a_value=a,
        reference_t2=reference_t2,
        term_reference=term_reference,
        term_entropy=term_entropy,
        term_beta=term_beta,
        bound=bound,
        t2_exact=t2,
        holds=t2 <= bound,
        slack=bound - t2,
    )


# ---------------------------------------------------------------------------
# serialization


def flow_to_json_obj(flow: Flow) -> dict:
    items = sorted(flow.paths.items(), key=lambda kv: (kv[0].endpoint.map, kv[0].word))
    return {
        "target": measure_to_json_obj(flow.target),
        "q": measure_to_json_obj(flow.q),
        "paths": [{"word": list(p.word), "weight": str(flow.unit * c)} for p, c in items],
    }

