"""Cayley-graph path flows and the comparison bounds they certify.

A flow routes the mass of a target measure through paths in the Cayley graph
of a comparison measure q: every target atom y receives paths ending at y
whose integer multiplicities, times the flow's one rational unit, sum to the
atom's mass exactly.  The congestion constant

    A(eta) = max_s (1/q(s)) sum_paths |delta| N(s, delta) eta(delta)

(N counts how often the generator s appears in the path) then bounds the
target's Dirichlet form by A times the comparison form.  Applied shape by
shape to the two walks' block eigenvalues, that turns the target walk's
spectrum into an L2 mixing bound for q; a walk that never mixes is refused.
Flows made of odd-length loops at the identity bound the least eigenvalue
instead: beta_min >= -1 + (1 + beta~_min)/A.

Word lengths for the distance-squared congestion floor come from
:func:`shufflemix.exact.cayley_distances`, looked up by rank, and spectra
from the Fourier blocks of :mod:`shufflemix.exact`, one eigendecomposition
per walk, from which both exact T2s and the comparison bound are read; all
share its dense cap n <= 8.  Flows themselves are exact and have no
size cap.  Letters (s{l}, s{l}inv for sigma_l^{+-1}, tau for (1, n)) resolve
through one table per n, whose order numbers them.  A path is just its word;
a flow owns n and stores its paths only as one flat table of runs of one
repeated letter (global path index, letter id, run length; in path then word
order) plus one int multiplicity per path, and checks its letters off the
runs.  The general-k builder writes that table directly from (i, j, l); the
other builders pass words, which the flow encodes once, when built.  Words
are decoded from the runs only when ``flow.paths`` is iterated (path export,
tests), never for the path count, congestion or verification.  Congestion is
a per-letter tally over the table, and every endpoint comes from one batched
fold, block by block of paths, that right-multiplies by a run's power s^r in
a single gather.  Letters are checked against q through
``SparseMeasure.weight``, by rank; the target is read through the one-line
maps each measure stores, so no target atom is rebuilt as a Permutation.

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
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import UnreachableTargetError
from .exact import cayley_distances, comparison_t2, spectrum, spectrum_t2
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
    identity,
    inverse,
    order,
    serialize,
    transposition,
)
from .report import Record


@lru_cache(maxsize=None)
def _letters(n: int) -> dict:
    """Names s1, s1inv, ..., sn, sninv, tau (n > 1) -> permutation; a name's
    place in this order is its letter id."""
    gens = {}
    for l in range(1, n + 1):
        gens[f"s{l}"] = cycle_generator(l, n)
        gens[f"s{l}inv"] = inverse(gens[f"s{l}"])
    if n > 1:
        gens["tau"] = transposition(1, n, n)
    return gens


def letter_perm(name: str, n: int) -> Permutation:
    """Resolve a generator name: "s{l}" / "s{l}inv" are the cycles sigma_l
    and their inverses, "tau" is the transposition (1, n).

    >>> letter_perm("s3", 3).map
    (2, 3, 1)
    >>> letter_perm("s3inv", 3) == inverse(letter_perm("s3", 3))
    True
    """
    try:
        return _letters(n)[name]
    except KeyError:
        raise ValueError(f"unknown generator name {name!r} at n={n}") from None


def invert_letter(name: str) -> str:
    if name == "tau":
        return name
    return name[:-3] if name.endswith("inv") else name + "inv"


@lru_cache(maxsize=None)
def _names(n: int) -> dict:
    """One-line map -> display name at deck size n: e for the identity, else
    the first name in :func:`_letters` order resolving to the map."""
    names = {identity(n).map: "e"}
    for name, g in _letters(n).items():
        names.setdefault(g.map, name)
    return names


def generator_name(g: Permutation) -> str:
    """Canonical display name for a permutation: e, the first generator name
    resolving to it (s{l}, s{l}inv, or tau), otherwise its one-line form."""
    return _names(g.n).get(g.map) or serialize(g)


class _Runs(NamedTuple):
    """Words as maximal runs of one repeated letter, in path then word order:
    run i is letter id ``letter[i]`` (:func:`_letters` order) repeated
    ``length[i]`` times in word ``path[i]``, so ``path`` is nondecreasing.
    Each field holds its values in the least dtype that fits them."""

    path: np.ndarray
    letter: np.ndarray
    length: np.ndarray

    @classmethod
    def packed(cls, *fields: np.ndarray) -> _Runs:
        """The table of ``fields`` (path, letter, length), each cast to the
        least dtype holding its values."""
        return cls(*(x.astype(np.min_scalar_type(x.max(initial=0))) for x in fields))


def _encode_runs(n: int, words: list) -> _Runs:
    """Run encoding of ``words`` (tuples of letter names) at deck size n;
    ValueError names the sorted-first unknown letter."""
    ids = {name: i for i, name in enumerate(_letters(n))}
    sizes = np.fromiter(map(len, words), np.intp, count=len(words))
    ends = np.cumsum(sizes)
    try:
        flat = np.fromiter(map(ids.__getitem__, chain.from_iterable(words)),
                           np.min_scalar_type(len(ids)), count=int(sizes.sum()))
    except KeyError:
        bad = min(set(chain.from_iterable(words)).difference(ids))
        raise ValueError(f"unknown generator name {bad!r} at n={n}") from None
    first = np.ones(len(flat), bool)
    first[1:] = flat[1:] != flat[:-1]
    first[(ends - sizes)[sizes > 0]] = True
    starts = np.flatnonzero(first)
    return _Runs.packed(np.searchsorted(ends, starts, side="right"), flat[starts],
                        np.diff(starts, append=len(flat)))


def _decode_words(n: int, runs: _Runs, npaths: int) -> list[tuple[str, ...]]:
    """The ``npaths`` words that ``runs`` spell, as tuples of the shared
    letter names of :func:`_letters`; the inverse of :func:`_encode_runs`."""
    names = np.array(list(_letters(n)), object)
    flat = names[np.repeat(runs.letter, runs.length)].tolist()
    sizes = np.bincount(runs.path, weights=runs.length, minlength=npaths)
    ends = np.cumsum(sizes.astype(np.intp)).tolist()
    return [tuple(flat[a:b]) for a, b in zip([0] + ends, ends)]


@lru_cache(maxsize=None)
def _letter_orders(n: int) -> tuple[int, ...]:
    """The group order of every letter, in :func:`_letters` order."""
    return tuple(map(order, _letters(n).values()))


_FOLD_ROWS = 256       # paths per fold block; bounds the fold's gather temporaries


def _fold_endpoints(n: int, runs: _Runs, npaths: int) -> np.ndarray:
    """The endpoints of the ``npaths`` words that ``runs`` spell: row p is
    word p's product in one-line form, in ``np.min_scalar_type(n)``.

    A run of r letters s is one right multiplication by s^r, a gather through
    s^r's one-line map.  Runs reduce by their letter's order, and the powers
    of every letter the words use are tabled once, up to the longest reduced
    run.  Each block of ``_FOLD_ROWS`` paths finds its runs by a search on
    ``runs.path``, lays them out as a (most runs, paths) key matrix, short
    words padded with the identity, and folds it one row, one gather, at a
    time.
    """
    used = np.bincount(runs.letter, minlength=len(_letters(n))) > 0
    slot = np.cumsum(used) - 1                            # letter id -> table block
    maps = np.array([g.map for g, u in zip(_letters(n).values(), used) if u], np.intp) - 1
    orders = np.array(_letter_orders(n))
    dtype = np.min_scalar_type(n)
    top = min(int(runs.length.max(initial=0)), int(orders[used].max(initial=1)) - 1) + 1
    table = np.empty((len(maps), top, n), dtype)         # [slot, r] = s^r, 0-based
    table[:, 0] = np.arange(n)
    for r in range(1, top):
        table[:, r] = np.take_along_axis(table[:, r - 1], maps, axis=1)
    table = table.reshape(-1, n)                          # row slot * top + r
    row_start = np.arange(0, _FOLD_ROWS * n, n)[:, None]
    ends = np.empty((npaths, n), dtype)
    starts = range(0, npaths, _FOLD_ROWS)
    edges = np.searchsorted(runs.path, starts).tolist() + [len(runs.path)]
    for lo, a, b in zip(starts, edges, edges[1:]):
        rows = ends[lo:lo + _FOLD_ROWS]
        rows[:] = np.arange(1, n + 1)
        path = runs.path[a:b].astype(np.intp) - lo
        counts = np.bincount(path, minlength=len(rows))
        step = np.arange(len(path)) - (np.cumsum(counts) - counts)[path]
        letter = runs.letter[a:b].astype(np.intp)
        keys = np.zeros((counts.max(initial=0), len(rows)), np.intp)     # 0: e
        keys[step, path] = slot[letter] * top + runs.length[a:b] % orders[letter]
        for key in keys:
            rows[:] = np.take(rows, table[key] + row_start[:len(rows)])
    return ends


class CayleyPath(NamedTuple):
    """A path is its word of generator names, walked left to right from e by
    right multiplication; the endpoint is the product of the letters in
    written order.  The :class:`Flow` it keys owns n and folds endpoints.
    """

    word: tuple[str, ...]

    @property
    def length(self) -> int:
        return len(self.word)


def _multiplicities(values: list) -> np.ndarray:
    """Int multiplicities as an int64 array, or an object array of Python
    ints when one is past the int64 range (odd flows reach it at n = 25)."""
    try:
        return np.array(values, np.int64)
    except OverflowError:
        return np.array(values, object)


class _RunPaths(Mapping):
    """A flow's paths as it stores them: the one run table ``runs`` of their
    words at deck size ``n`` (:class:`_Runs`, in path order) and one int
    multiplicity per path in ``mult`` (:func:`_multiplicities`).

    As a ``Mapping[CayleyPath, int]`` its length is ``len(mult)``; the first
    lookup or iteration decodes every word from the runs, once.
    """

    def __init__(self, n: int, runs: _Runs, mult: np.ndarray):
        self.n, self.runs, self.mult = n, runs, mult
        self._decoded: dict[CayleyPath, int] | None = None

    def _paths(self) -> dict[CayleyPath, int]:
        if self._decoded is None:
            words = _decode_words(self.n, self.runs, len(self.mult))
            self._decoded = dict(zip(map(CayleyPath, words), self.mult.tolist()))
        return self._decoded

    def __len__(self) -> int:
        return len(self.mult)

    def __iter__(self):
        return iter(self._paths())

    def __getitem__(self, path: CayleyPath) -> int:
        return self._paths()[path]


class Flow(Record):
    """Paths routing ``target`` through the Cayley graph of ``q``; a path of
    int multiplicity c >= 0 carries mass c * ``unit``.

    ``paths`` may be any ``Mapping[CayleyPath, int]``; the flow keeps it only
    as one run table and multiplicities (:class:`_RunPaths`), so ``flow.paths``
    decodes its words when first iterated.  A words mapping is encoded here,
    once; a :class:`_RunPaths` at the flow's n, as
    :func:`build_flow_general` writes and ``Flow._replace`` passes on,
    is kept as it is.  Letters must name support elements of q (the identity
    may appear as a letter only when q(e) > 0, which odd loop flows at k = n
    exploit); ValueError names the sorted-first unknown letter, else the
    sorted-first letter outside q's support.  Marginals are checked by
    :func:`verify_flow`, not here, so a mis-weighted flow can be reported on.
    """

    __slots__ = ("target", "q", "unit", "paths")
    _uncompared = ("paths",)

    def __post_init__(self):
        if self.target.n != self.q.n:
            raise ValueError(f"size mismatch: target n={self.target.n}, q n={self.q.n}")
        if not (isinstance(self.unit, Fraction) and self.unit > 0):
            raise ValueError(f"unit must be a positive Fraction, got {self.unit!r}")
        paths = self.paths
        if not (isinstance(paths, _RunPaths) and paths.n == self.n):
            mult = list(paths.values())
            for c in mult:
                if not (isinstance(c, int) and c >= 0):
                    raise ValueError(f"multiplicity must be a nonnegative int, got {c!r}")
            paths = _RunPaths(self.n, _encode_runs(self.n, [p.word for p in paths]),
                              _multiplicities(mult))
        names = list(_letters(self.n))
        used = np.bincount(paths.runs.letter, minlength=len(names))
        for name in sorted(names[i] for i in np.flatnonzero(used)):
            if self.q.weight(letter_perm(name, self.n)) == 0:
                raise ValueError(f"letter {name!r} is not in the support of q")
        object.__setattr__(self, "paths", paths)

    @property
    def n(self) -> int:
        return self.q.n

    def _endpoints(self) -> np.ndarray:
        """One-line endpoint of every path, rows in ``paths`` order."""
        return _fold_endpoints(self.n, self.paths.runs, len(self.paths))


class FlowVerification(Record):
    __slots__ = ("exact",
                 "discrepancies")     # (perm string, routed mass, target mass)


def verify_flow(flow: Flow) -> FlowVerification:
    """Exact rational check that path-endpoint marginals equal the target.

    The endpoints come from one fold over the flow's letter runs; routed
    multiplicities are summed as ints keyed by each endpoint row's bytes.
    The target is keyed by the bytes of its stored one-line maps, which share
    the endpoints' dtype, so no target atom becomes a Permutation.  Routed
    and target masses are compared as int cross products; only the keys
    that differ are decoded, then listed in lexicographic order of the
    one-line form.
    """
    ends = flow._endpoints()
    routed: dict[bytes, int] = {}
    for key, c in zip(map(bytes, ends), flow.paths.mult.tolist()):
        routed[key] = routed.get(key, 0) + c
    target = dict(zip(map(bytes, flow.target._maps), flow.target.atoms.values()))
    zero, bad = Fraction(0), []
    num, den = flow.unit.numerator, flow.unit.denominator
    for key, c in routed.items():
        want = target.pop(key, zero)
        if c * num * want.denominator != want.numerator * den:      # unit * c != want
            bad.append((key, flow.unit * c, want))
    bad += [(key, zero, want) for key, want in target.items()]
    rows = sorted((np.frombuffer(key, ends.dtype).tolist(), got, want) for key, got, want in bad)
    return FlowVerification(exact=not rows, discrepancies=tuple(
        (",".join(map(str, row)), got, want) for row, got, want in rows))


class FlowReport(Record):
    __slots__ = ("a_value",
                 "per_generator")     # (name, q(s), term) in lexicographic order


def congestion_A(flow: Flow) -> FlowReport:
    """Exact congestion constant A(eta) with a per-generator breakdown.

    Traffic c * |delta| * N(s, delta) is tallied per letter id over the
    flow's letter runs, without decoding a word: each path's length |delta|
    is one ``bincount`` of its run lengths, |delta| * (run length) is summed
    in int64 per (multiplicity, letter id) class, then each class sum is
    scaled by its multiplicity c as a Python int, so A is exact for any c.  A
    class sum is at most the sum of |delta|^2 over the flow's words, which
    stays far below 2^63 for any words that fit in memory.  Letters
    naming one permutation (s1 and s1inv; sigma_2^{+-1} and tau at n = 2)
    merge their traffic, scaled by the unit once per generator.
    """
    runs = flow.paths.runs
    classes, cls = np.unique(flow.paths.mult, return_inverse=True)
    length = runs.length.astype(np.int64)
    lengths = np.bincount(runs.path, weights=length, minlength=len(cls)).astype(np.int64)
    sums = np.zeros((len(classes), len(_letters(flow.n))), np.int64)
    np.add.at(sums, (cls[runs.path], runs.letter), lengths[runs.path] * length)
    tally = [sum(map(int.__mul__, classes.tolist(), column)) for column in sums.T.tolist()]
    traffic: dict[Permutation, int] = {}
    for g, t in zip(_letters(flow.n).values(), tally):
        traffic[g] = traffic.get(g, 0) + t
    rows = tuple((generator_name(g), qs, flow.unit * traffic.get(g, 0) / qs)
                 for g, qs in flow.q.items())
    a = max(t for _, _, t in rows)
    return FlowReport(a_value=a, per_generator=rows)


def congestion_lower_bound(target: SparseMeasure, generators) -> Fraction:
    """sum_g d_S(e, g)^2 * target(g): no flow over S can beat this congestion.

    Distances are word lengths from :func:`shufflemix.exact.cayley_distances`,
    read at the target's atom ranks in one gather.
    """
    dist = cayley_distances(target.n, generators)[list(target.atoms)].tolist()
    if -1 in dist:
        row = target._maps[dist.index(-1)].tolist()
        raise UnreachableTargetError(
            f"target atom {serialize(Permutation(target.n, tuple(row)))} "
            "not reachable from the generators"
        )
    return sum((w * d * d for w, d in zip(target.atoms.values(), dist)), Fraction(0))


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
            paths[CayleyPath(("s1",))] = 2 * c
        else:
            paths[CayleyPath((f"s{l}",) * l)] = c
            paths[CayleyPath((f"s{l}inv",) * l)] = c
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
    paths = {CayleyPath(()): n}
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            paths[CayleyPath(transposition_word_large_k(n, C, i, j))] = 2
    return Flow(target=target, q=q, unit=Fraction(1, n * n), paths=paths)


def _general_runs(n: int, k: int) -> tuple[_Runs, np.ndarray]:
    """Run table and multiplicities of the general-k flow, written straight
    from (i, j, l) without forming a word.

    Paths come in builder order: e, then each transposition (i, j) in
    lexicographic order, its long words by ascending l.  Letter s{x} has id
    2(x - 1) and s{x}inv the next.  A short word is the four runs s{i}inv,
    s{j}, s{j-1}inv, s{i}, less the identity letters s1, s1inv at i = 1
    (k = n).  In a long word each sigma_l power merges into the neighbouring
    s{l}inv or s{l} letter: j > l gives s{l}inv^(l-i+1), s{j}, s{j-1}inv,
    s{l}^(l-i+1); j <= l, with a = l - j and b = j - i, gives the 12 runs
    s{l}inv^(a+1) s{l+1} s{l}inv s{l} s{l}inv^(b+1) s{l+1} s{l}inv s{l}^(b+1)
    s{l}inv s{l+1} s{l}inv s{l}^(a+1).
    """
    i, j = (x.astype(np.int32) + 1 for x in np.triu_indices(n, 1))   # i < j, lexicographic
    short = i > n - k
    m = k - 1                                   # long words per pair
    il, jl = np.repeat(i[~short], m), np.repeat(j[~short], m)
    l = np.tile(np.arange(n - k + 1, n, dtype=np.int32), len(il) // m)
    npaths = 1 + len(l) + int(short.sum())
    letter = np.zeros((npaths, 12), np.int32)   # a path's runs, padded to 12
    length = np.ones((npaths, 12), np.int32)
    long_letter, long_length = letter[1:1 + len(l)], length[1:1 + len(l)]
    sl, one, a, b = 2 * (l - 1), np.ones_like(l), l - jl, jl - il
    long_letter[:] = np.stack([sl + 1, sl + 2, sl + 1, sl] * 3, axis=1)
    long_length[:] = np.stack([a + 1, one, one, one, b + 1, one, one, b + 1, one, one, one, a + 1],
                              axis=1)
    up = jl > l                                 # these take four runs
    long_letter[up, :4] = np.stack([sl + 1, 2 * jl - 2, 2 * jl - 3, sl], axis=1)[up]
    long_length[up, :4] = np.stack([l - il + 1, one, one, l - il + 1], axis=1)[up]
    si, sj = 2 * (i[short] - 1), 2 * (j[short] - 1)
    short_letter = np.stack([si + 1, sj, sj - 1, si], axis=1)
    short_runs = np.full(len(si), 4, np.int32)
    at_one = si == 0                            # s1inv s{j} s{j-1}inv s1 keeps runs 2, 3
    short_letter[at_one, :2] = short_letter[at_one, 1:3]
    short_runs[at_one] = np.where(sj[at_one] == 2, 1, 2)     # at j = 2, run 3 is s1inv
    letter[1 + len(l):, :4] = short_letter
    runs = np.concatenate(([0], np.where(up, 4, 12), short_runs))
    keep = np.arange(12) < runs[:, None]
    mult = np.concatenate(([m * n], np.full(len(l), 2), np.full(len(si), 2 * m)))
    path = np.repeat(np.arange(npaths, dtype=np.int32), runs)
    return _Runs.packed(path, letter[keep], length[keep]), mult


def build_flow_general(n: int, k: int) -> Flow:
    """Random-transposition flow over the shuffle generators for any k.

    Transpositions inside the generator range take the short conjugation.
    A transposition with i <= n - k splits its mass over k - 1 paths, one per
    l in (n-k, n): conjugating by sigma_l powers either reduces to a short
    word (j > l) or to three copies of the adjacent transposition word
    delta_{l,l+1} separated by sigma_l powers (j <= l).

    The words' letter runs are written directly, vectorised over (i, j, l)
    (:func:`_general_runs`), so building makes no word tuple; ``flow.paths``
    decodes the words only when something iterates it.
    """
    if not (isinstance(k, int) and 1 < k <= n):
        raise ValueError(f"need n >= k > 1, got n={n}, k={k}")
    q = symmetrize(top_to_bottom_k(n, k))
    target = random_transposition(n)
    # unit 1/((k-1)n^2): e carries 1/n, a short word 2/n^2, a long word 2 units
    runs, mult = _general_runs(n, k)
    return Flow(target=target, q=q, unit=Fraction(1, (k - 1) * n * n),
                paths=_RunPaths(n, runs, mult))


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
        paths[CayleyPath(words[generator_name(g)])] = c.numerator
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
# the comparison mixing bound


class ComparisonBoundReport(Record):
    __slots__ = ("a_value",
                 "reference_t2",      # exact T2 of the flow's target walk
                 "bound",             # the T2 bound for q that E_target <= A E_q implies
                 "t2_exact",
                 "holds")


def comparison_bound_report(flow: Flow) -> ComparisonBoundReport:
    """T2 of the flow's comparison walk q against the bound that A implies,
    all three integers read off one spectrum per walk
    (:func:`shufflemix.exact.spectrum`): both exact T2s by
    :func:`shufflemix.exact.spectrum_t2`, the bound by
    :func:`shufflemix.exact.comparison_t2`.  ValueError, in this order, for a
    q or a target that is not symmetric or never mixes, and for a flow that
    does not route its target (:func:`verify_flow`), since then A is no
    comparison constant.
    """
    a = float(congestion_A(flow).a_value)
    spectra, times = [], []
    for role, walk in (("comparison", flow.q), ("target", flow.target)):
        try:
            spectra.append(spectrum(walk))
            times.append(spectrum_t2(spectra[-1]))
        except ValueError as exc:
            raise ValueError(f"{role} {exc}") from None
    wrong = verify_flow(flow).discrepancies
    if wrong:
        raise ValueError(f"flow marginals disagree with the target on {len(wrong)} atoms")
    (q_spectrum, target_spectrum), (t2_exact, reference_t2) = spectra, times
    bound = comparison_t2(target_spectrum, q_spectrum, a)
    return ComparisonBoundReport(a_value=a, reference_t2=reference_t2, bound=bound,
                                 t2_exact=t2_exact, holds=t2_exact <= bound)


# ---------------------------------------------------------------------------
# serialization


def flow_to_json_obj(flow: Flow) -> dict:
    """Target, q and every path as {"word", "weight"}, paths ordered by
    (one-line endpoint, word); the words are decoded once, and each distinct
    multiplicity's weight is rendered once."""
    mult = flow.paths.mult.tolist()
    weight = {c: str(flow.unit * c) for c in set(mult)}
    rows = sorted(zip(flow._endpoints().tolist(), (p.word for p in flow.paths), mult))
    return {
        "target": measure_to_json_obj(flow.target),
        "q": measure_to_json_obj(flow.q),
        "paths": [{"word": list(word), "weight": weight[c]} for _, word, c in rows],
    }
