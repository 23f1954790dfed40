"""Probability measures on S_n driving the shuffle walks.

All measures here carry exact rational weights (``fractions.Fraction``),
keyed by lexicographic permutation rank, so measure-level identities and
flow marginals can be checked with equality rather than tolerances.  A
measure is built one way, :meth:`SparseMeasure.from_pairs`, from
(Permutation, weight) pairs, and keeps its atoms' one-line maps, one array
row per atom in rank order, so a permutation is only ever ranked, never
rebuilt from its rank.  Dense float work lives in :mod:`shufflemix.exact`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .perms import (
    Permutation,
    cycle_generator,
    identity,
    inverse,
    rank,
    ranks,
    serialize,
    transposition,
)


@dataclass(frozen=True)
class SparseMeasure:
    """Finitely supported probability measure on S_n, built only by
    :meth:`from_pairs`, which makes every check.

    atoms maps permutation rank -> weight, in rank order; zero-weight atoms
    are dropped.  It is a read-only view, so a measure can be shared (and
    cached).  ``_maps`` holds the atoms' one-line maps as one read-only
    (atoms, n) array in ``np.min_scalar_type(n)``, row i for the i-th rank
    of ``atoms``.  Equality reads n and the weights; the hash reads only n,
    so measures on one S_n share a hash bucket.  That suits
    ``GroupTable.atoms``, which keys on measures, of which a run holds only a
    few per n.
    """

    n: int
    atoms: MappingProxyType = field(compare=False)
    _maps: np.ndarray = field(compare=False, repr=False)

    @classmethod
    def from_pairs(cls, n: int, pairs) -> SparseMeasure:
        """The measure on S_n summing the (Permutation, weight) pairs; all
        maps are ranked in one :func:`shufflemix.perms.ranks` call, and the
        first map of every rank is kept.  Weights are kept as given (ints
        become Fractions); the sign is checked once per distinct weight."""
        pairs = list(pairs)
        for g, _ in pairs:
            if g.n != n:
                raise ValueError(f"size mismatch: S_{g.n} permutation, measure on S_{n}")
        rows = np.array([g.map for g, _ in pairs], np.min_scalar_type(n)).reshape(-1, n)
        sums: dict[int, Fraction] = {}
        first: dict[int, int] = {}
        for i, (r, (_, w)) in enumerate(zip(ranks(rows), pairs)):
            if r in sums:
                sums[r] += w
            else:
                sums[r], first[r] = w, i
        counts = Counter(sums.values())
        keys = sorted(sums)
        if min(counts, default=1) <= 0:
            for r in keys:
                if sums[r] < 0:
                    raise ValueError(f"negative weight {Fraction(sums[r])} at rank {r}")
            keys = [r for r in keys if sums[r]]
        atoms = {}
        for r in keys:
            w = sums[r]
            atoms[r] = w if isinstance(w, Fraction) else Fraction(w)
        total = sum(w * c for w, c in counts.items())
        if total != 1:
            raise ValueError(f"weights sum to {total}, expected 1")
        rows = rows.take([first[r] for r in keys], 0)
        rows.flags.writeable = False
        return cls(n, MappingProxyType(atoms), rows)

    def weight(self, g: Permutation) -> Fraction:
        if g.n != self.n:
            raise ValueError(f"size mismatch: S_{g.n} permutation, measure on S_{self.n}")
        return self.atoms.get(rank(g), Fraction(0))

    def items(self):
        """(Permutation, weight) pairs in deterministic rank order."""
        for row, w in zip(self._maps.tolist(), self.atoms.values()):
            yield Permutation(self.n, tuple(row)), w

    def support(self) -> list[Permutation]:
        return [g for g, _ in self.items()]

    def __eq__(self, other):
        return isinstance(other, SparseMeasure) and self.n == other.n and self.atoms == other.atoms

    def __len__(self):
        return len(self.atoms)


def delta_e(n: int) -> SparseMeasure:
    """Point mass at the identity."""
    return SparseMeasure.from_pairs(n, [(identity(n), Fraction(1))])


def top_to_bottom_k(n: int, k: int) -> SparseMeasure:
    """Weight 1/k on each cycle sigma_l, l in [n-k+1, n].

    Right multiplication by sigma_l moves the top card to position l, so this
    drives the walk inserting the top card uniformly into the bottom k
    positions.  Requires n >= k > 1; for k = n the support includes sigma_1,
    the identity.
    """
    if not (isinstance(k, int) and 1 < k <= n):
        raise ValueError(f"need n >= k > 1, got n={n}, k={k}")
    w = Fraction(1, k)
    pairs = [(cycle_generator(l, n), w) for l in range(n - k + 1, n + 1)]
    return SparseMeasure.from_pairs(n, pairs)


def reversal(q: SparseMeasure) -> SparseMeasure:
    """q*(g) = q(g^{-1}); drives the time-reversed walk."""
    return SparseMeasure.from_pairs(q.n, [(inverse(g), w) for g, w in q.items()])


def symmetrize(q: SparseMeasure) -> SparseMeasure:
    """Additive symmetrization (q + q*)/2; equals its own reversal."""
    half = Fraction(1, 2)
    pairs = [(g, w * half) for g, w in q.items()]
    pairs += [(inverse(g), w * half) for g, w in q.items()]
    return SparseMeasure.from_pairs(q.n, pairs)


def lazy(q: SparseMeasure, p) -> SparseMeasure:
    """p-lazy version p*q + (1-p)*delta_e; p must lie strictly in (0, 1)."""
    p = Fraction(p)
    if not 0 < p < 1:
        raise ValueError(f"laziness p must be in (0,1), got {p}")
    pairs = [(g, w * p) for g, w in q.items()]
    pairs.append((identity(q.n), 1 - p))
    return SparseMeasure.from_pairs(q.n, pairs)


@lru_cache(maxsize=None)
def random_transposition(n: int) -> SparseMeasure:
    """1/n on e and 2/n^2 on each transposition (i, j), i != j; built once
    per n."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    pairs = [(identity(n), Fraction(1, n))]
    w = Fraction(2, n * n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            pairs.append((transposition(i, j, n), w))
    return SparseMeasure.from_pairs(n, pairs)


def rudvalis_symmetric(n: int) -> SparseMeasure:
    """Uniform on {sigma_n, sigma_n^{-1}, (1, n), e}.

    At n = 2 the first three elements coincide and their weights accumulate.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    s = cycle_generator(n, n)
    gens = (s, inverse(s), transposition(1, n, n), identity(n))
    return SparseMeasure.from_pairs(n, [(g, Fraction(1, 4)) for g in gens])


def measure_to_json_obj(q: SparseMeasure) -> dict:
    return {
        "n": q.n,
        "atoms": [{"perm": serialize(g), "weight": str(w)} for g, w in q.items()],
    }
