"""Permutations of {1..n}, cycle generators, and lexicographic ranking.

A permutation sigma is stored in one-line form: ``sigma.map[i]`` is the card
label held at position i+1, matching the convention "position i holds the
card with label sigma(i)".  Positions and labels are 1-based in every public
interface but the array rankers, which also take 0-based labels; storage is
0-based.  Ranking runs one way, to the lexicographic index, and nothing
rebuilds a permutation from it, since measures and dense tables keep the
one-line maps they rank.  Arrays of one-line rows are ranked in one array
pass per position (:func:`ranks`, on the int64 core :func:`rank_columns`);
:func:`rank` ranks a single permutation.

The product (a * b)(i) = a(b(i)) has one implementation, right_multiplier.
The shuffle walk multiplies generators on the right, so right multiplication
by the cycle ``sigma_l`` moves the current top card to position l:

>>> deck = identity(4)
>>> moved = compose(deck, cycle_generator(3, 4))
>>> moved.map.index(1) + 1        # card 1 (the old top card) now sits at 3
3
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

# below this many rows, ranking row by row in Python beats the array pass,
# whose numpy calls per position cost more than the rows themselves
# (measured at n = 5..130: the two meet near 16 rows at every n)
_ROW_LOOP_MAX = 16


@dataclass(frozen=True)
class Permutation:
    """One-line permutation of {1..n}; map[i] holds the label at position i+1."""

    n: int
    map: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"deck size must be positive, got {self.n}")
        if len(self.map) != self.n or sorted(self.map) != list(range(1, self.n + 1)):
            raise ValueError(f"map {self.map!r} is not a bijection of 1..{self.n}")

    def is_identity(self) -> bool:
        return all(self.map[i] == i + 1 for i in range(self.n))

    def __str__(self) -> str:
        return serialize(self)


def identity(n: int) -> Permutation:
    return Permutation(n, tuple(range(1, n + 1)))


def cycle_generator(l: int, n: int) -> Permutation:
    """The cycle sigma_l: sigma(i) = i+1 for i < l, sigma(l) = 1, rest fixed.

    >>> cycle_generator(3, 3).map
    (2, 3, 1)
    >>> cycle_generator(2, 4).map
    (2, 1, 3, 4)
    >>> cycle_generator(1, 4) == identity(4)
    True
    """
    if not 1 <= l <= n:
        raise ValueError(f"cycle length {l} outside 1..{n}")
    return Permutation(n, tuple(list(range(2, l + 1)) + [1] + list(range(l + 1, n + 1))))


def transposition(i: int, j: int, n: int) -> Permutation:
    """The transposition (i, j) in S_n."""
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"bad transposition ({i},{j}) in S_{n}")
    m = list(range(1, n + 1))
    m[i - 1], m[j - 1] = j, i
    return Permutation(n, tuple(m))


def right_multiplier(s: tuple[int, ...]):
    """Right multiplication by the one-line map s: ``f(a.map) == (a * s).map``.
    At n = 1 (itemgetter of one index returns a bare label) it is ``tuple``.

    >>> right_multiplier((2, 3, 1))((1, 3, 2))
    (3, 2, 1)
    """
    return itemgetter(*(x - 1 for x in s)) if len(s) > 1 else tuple


def compose(a: Permutation, b: Permutation) -> Permutation:
    """(a * b)(i) = a(b(i)).

    >>> s3 = cycle_generator(3, 3)
    >>> compose(s3, s3).map
    (3, 1, 2)
    >>> compose(s3, compose(s3, s3)) == identity(3)
    True
    """
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} vs {b.n}")
    return Permutation(a.n, right_multiplier(b.map)(a.map))


def inverse(a: Permutation) -> Permutation:
    """The group inverse: compose(a, inverse(a)) is the identity.

    >>> inverse(cycle_generator(3, 3)) == compose(cycle_generator(3, 3), cycle_generator(3, 3))
    True
    """
    out = [0] * a.n
    for pos0, label in enumerate(a.map):
        out[label - 1] = pos0 + 1
    return Permutation(a.n, tuple(out))


def order(a: Permutation) -> int:
    """The least r >= 1 with a^r the identity: the lcm of the cycle lengths.

    >>> order(cycle_generator(4, 6)), order(transposition(1, 6, 6)), order(identity(6))
    (4, 2, 1)
    """
    lengths, seen = [], [False] * a.n
    for start in range(a.n):
        length, i = 0, start
        while not seen[i]:
            seen[i], i, length = True, a.map[i] - 1, length + 1
        lengths.append(length or 1)
    return math.lcm(*lengths)


def rank(a: Permutation) -> int:
    """Lexicographic rank of the one-line array, in [0, n!-1].

    >>> rank(identity(4))
    0
    >>> rank(Permutation(3, (3, 2, 1)))
    5
    """
    return _rank_row(a.map)


def _rank_row(row) -> int:
    # Horner form of the factorial number system: the digit at position i
    # is the count of labels still unused below the label there; the labels
    # of a one-line row are min(row) .. min(row) + n - 1
    n = len(row)
    unused, r = ((1 << n) - 1) << min(row), 0
    for i, label in enumerate(row):
        bit = 1 << label
        unused ^= bit
        r = r * (n - i) + (unused & (bit - 1)).bit_count()
    return r


def rank_columns(cols: np.ndarray, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Mixed-radix value of the Lehmer digits at positions lo..hi-1 of each
    column of the (n, N) array cols, as int64; with the default span, the
    lexicographic rank of each column.

    The digit at position i is #{j > i : a_j < a_i}, one compare of the rows
    below i against row i, so any labels in the same relative order give
    the same value, and temporaries stay (n, N).  Digit i has radix n - i,
    so the value is exact while the product of the span's radices fits in
    int64, as n! does up to n = 20; :func:`ranks` joins such spans past
    that.

    >>> rank_columns(np.array([[0, 2, 2], [1, 0, 1], [2, 1, 0]])).tolist()
    [0, 4, 5]
    """
    n = len(cols)
    hi = n if hi is None else hi
    if math.perm(n - lo, hi - lo) > 2**63:
        raise ValueError(f"positions {lo}..{hi - 1} of {n} overflow int64")
    acc = np.zeros(cols.shape[1], np.int64)
    for i in range(lo, min(hi, n - 1)):
        acc *= n - i
        acc += (cols[i + 1:] < cols[i]).sum(0)
    return acc


def ranks(rows) -> list[int]:
    """Lexicographic rank of each row of an (N, n) array of one-line maps,
    as Python ints; the labels may be 1..n or 0..n-1.

    Past n = 20 (n! >= 2^63) the rank is joined from int64 spans of
    :func:`rank_columns`, whose radix products fit in int64.  Up to
    ``_ROW_LOOP_MAX`` (16) rows are ranked one by one, as :func:`rank` does.

    >>> ranks(np.array([[1, 2, 3], [3, 1, 2], [3, 2, 1]]))
    [0, 4, 5]
    """
    if len(rows) <= _ROW_LOOP_MAX:
        return [_rank_row(row) for row in np.asarray(rows).tolist()]
    cols = np.ascontiguousarray(np.asarray(rows).T)
    n, out, lo = len(cols), None, 0
    while lo < n:
        hi, radix = lo, 1
        while hi < n and radix * (n - hi) <= 2**63:
            radix *= n - hi
            hi += 1
        part = rank_columns(cols, lo, hi).tolist()
        out = part if out is None else [r * radix + x for r, x in zip(out, part)]
        lo = hi
    return out


def serialize(a: Permutation) -> str:
    """One-line form as a comma-separated string, e.g. "2,3,1"."""
    return ",".join(str(x) for x in a.map)
