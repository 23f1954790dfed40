"""Permutations of {1..n}, cycle generators, and lexicographic ranking.

A permutation sigma is stored in one-line form: ``sigma.map[i]`` is the card
label held at position i+1, matching the convention "position i holds the
card with label sigma(i)".  Positions and labels are 1-based in every public
interface; storage is 0-based.  Ranking runs one way: :func:`rank` gives
the lexicographic index, and nothing rebuilds a permutation from it, since
measures and dense tables keep the one-line maps they rank.

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
    # Horner form of the factorial number system: the digit at position i is
    # the count of unused labels below label; seen holds the used labels and
    # label itself, so the popcount is one more than the used labels below it
    r = seen = 0
    n = a.n
    for i, label in enumerate(a.map):
        seen |= 1 << label
        r = r * (n - i) + label - (seen & ((2 << label) - 1)).bit_count()
    return r


def serialize(a: Permutation) -> str:
    """One-line form as a comma-separated string, e.g. "2,3,1"."""
    return ",".join(str(x) for x in a.map)
