import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import convolution_power, convolve_measures, dict_table, o_rank
from shufflemix import measures, perms
from shufflemix.measures import (
    SparseMeasure,
    delta_e,
    lazy,
    measure_to_json_obj,
    random_transposition,
    reversal,
    rudvalis_symmetric,
    symmetrize,
    top_to_bottom_k,
)
from shufflemix.perms import Permutation, cycle_generator, identity, inverse, rank, transposition

HALF = Fraction(1, 2)


def atoms_of(q):
    return {g.map: w for g, w in q.items()}


def test_tbk_3_2():
    q = top_to_bottom_k(3, 2)
    assert atoms_of(q) == {(2, 3, 1): HALF, (2, 1, 3): HALF}


def test_tbk_full_support_includes_identity():
    q = top_to_bottom_k(3, 3)
    third = Fraction(1, 3)
    assert atoms_of(q) == {(1, 2, 3): third, (2, 1, 3): third, (2, 3, 1): third}


@pytest.mark.parametrize("n,k", [(4, 1), (4, 0), (3, 4), (2, 1)])
def test_tbk_domain(n, k):
    with pytest.raises(ValueError):
        top_to_bottom_k(n, k)


def test_reversal_moves_mass_to_inverses():
    q = top_to_bottom_k(3, 2)
    r = reversal(q)
    for l in (2, 3):
        assert r.weight(inverse(cycle_generator(l, 3))) == HALF


def test_reversal_involution():
    q = top_to_bottom_k(5, 3)
    assert reversal(reversal(q)) == q


def test_reversal_fixes_symmetric():
    q = random_transposition(4)
    assert reversal(q) == q


def test_symmetrize_3_2():
    # sigma_2 is an involution, so its two halves merge
    s = symmetrize(top_to_bottom_k(3, 2))
    quarter = Fraction(1, 4)
    assert atoms_of(s) == {(2, 1, 3): HALF, (2, 3, 1): quarter, (3, 1, 2): quarter}


def test_symmetrize_idempotent_on_symmetric():
    q = rudvalis_symmetric(5)
    assert symmetrize(q) == q


def test_symmetrize_equals_own_reversal():
    for n, k in [(4, 2), (5, 3), (6, 6)]:
        s = symmetrize(top_to_bottom_k(n, k))
        assert reversal(s) == s


def test_lazy_half():
    q = lazy(top_to_bottom_k(3, 2), HALF)
    assert atoms_of(q) == {
        (1, 2, 3): HALF,
        (2, 1, 3): Fraction(1, 4),
        (2, 3, 1): Fraction(1, 4),
    }


def test_lazy_of_point_mass():
    assert lazy(delta_e(4), Fraction(1, 3)) == delta_e(4)


@pytest.mark.parametrize("p", [0, 1, Fraction(3, 2), -1])
def test_lazy_domain(p):
    with pytest.raises(ValueError):
        lazy(top_to_bottom_k(3, 2), p)


def test_random_transposition_3():
    q = random_transposition(3)
    assert q.weight(identity(3)) == Fraction(1, 3)
    for (i, j) in [(1, 2), (1, 3), (2, 3)]:
        assert q.weight(transposition(i, j, 3)) == Fraction(2, 9)
    assert len(q) == 4


def test_random_transposition_domain():
    with pytest.raises(ValueError):
        random_transposition(1)


def test_atoms_are_read_only_so_random_transposition_is_shared():
    q = random_transposition(6)
    assert random_transposition(6) is q
    with pytest.raises(TypeError):
        q.atoms[0] = Fraction(1)
    with pytest.raises(TypeError):
        del q.atoms[0]
    # a measure built from another's pairs is equal and independent
    assert SparseMeasure.from_pairs(6, q.items()) == q


@pytest.mark.parametrize("n", [127, 128, 256])
def test_maps_stored_from_permutations_equal_those_unranked_from_ranks(n):
    # one-line maps in np.min_scalar_type(n): uint8 up to n = 255, uint16 at
    # 256; the reversed deck puts label n first
    rng = random.Random(n)
    decks = [tuple(range(n, 0, -1)), tuple(range(1, n + 1))]
    decks += [tuple(rng.sample(range(1, n + 1), n)) for _ in range(30)]
    pairs = [(Permutation(n, m), Fraction(1, 64)) for m in decks]
    pairs += [(Permutation(n, decks[0]), Fraction(1, 32))] * 16     # repeats merge
    built = SparseMeasure.from_pairs(n, pairs)
    # row i is the permutation whose rank is the i-th key of atoms
    assert [rank(Permutation(n, tuple(row))) for row in built._maps.tolist()] == list(built.atoms)
    assert built._maps.dtype == np.min_scalar_type(n)
    assert built._maps.tolist() == sorted(map(list, set(decks)))    # rank order is lex order
    assert not built._maps.flags.writeable
    assert built.weight(Permutation(n, decks[0])) == Fraction(33, 64)


def test_zero_weight_atoms_drop_their_maps():
    q = SparseMeasure.from_pairs(4, [(cycle_generator(4, 4), Fraction(1)), (identity(4), 0)])
    assert len(q) == 1 and q._maps.tolist() == [[2, 3, 4, 1]]
    assert list(q.atoms) == [rank(cycle_generator(4, 4))]


def test_rudvalis_four_atoms():
    q = rudvalis_symmetric(4)
    quarter = Fraction(1, 4)
    s = cycle_generator(4, 4)
    for g in (s, inverse(s), transposition(1, 4, 4), identity(4)):
        assert q.weight(g) == quarter
    assert reversal(q) == q


def test_rudvalis_n2_accumulates():
    # sigma_2, its inverse, and (1,2) coincide at n = 2
    q = rudvalis_symmetric(2)
    assert q.weight(identity(2)) == Fraction(1, 4)
    assert q.weight(transposition(1, 2, 2)) == Fraction(3, 4)


def test_convolve_with_point_mass():
    q = top_to_bottom_k(4, 3)
    assert convolve_measures(delta_e(4), q) == q
    assert convolve_measures(q, delta_e(4)) == q


def test_convolve_size_mismatch():
    with pytest.raises(ValueError):
        convolve_measures(delta_e(3), delta_e(4))


def test_convolve_q_qstar_symmetric():
    q = top_to_bottom_k(5, 2)
    qq = convolve_measures(q, reversal(q))
    assert reversal(qq) == qq


@pytest.mark.parametrize("n", range(2, 7))
def test_lazy_decomposition_identity(n):
    # exact atom-by-atom identity:
    #   lazy(q)* (*) lazy(q) = 1/2 q~ + 1/4 (q* (*) q) + 1/4 delta_e
    for k in range(2, n + 1):
        q = top_to_bottom_k(n, k)
        qhat = lazy(q, HALF)
        left = convolve_measures(reversal(qhat), qhat)
        cross = convolve_measures(reversal(q), q)
        sym = symmetrize(q)
        right = [(g, w * HALF) for g, w in sym.items()] + [(g, w / 4) for g, w in cross.items()]
        right.append((identity(n), Fraction(1, 4)))
        assert left == SparseMeasure.from_pairs(n, right)


def test_lazy_convolution_dominates_symmetrization():
    # pointwise: lazy(q)* (*) lazy(q) >= q~/2 on every atom
    for n, k in [(3, 2), (4, 4), (5, 3)]:
        q = top_to_bottom_k(n, k)
        p = convolve_measures(reversal(lazy(q, HALF)), lazy(q, HALF))
        for g, w in symmetrize(q).items():
            assert p.weight(g) >= w / 2


def test_convolution_power():
    q = top_to_bottom_k(3, 3)
    assert convolution_power(q, 0) == delta_e(3)
    assert convolution_power(q, 2) == convolve_measures(q, q)


def test_measure_validation():
    e, s = identity(3), cycle_generator(3, 3)
    with pytest.raises(ValueError, match="sum to 1/2"):
        SparseMeasure.from_pairs(3, [(e, Fraction(1, 2))])
    with pytest.raises(ValueError, match="negative weight -1/2"):
        SparseMeasure.from_pairs(3, [(e, Fraction(3, 2)), (s, Fraction(-1, 2))])


def test_building_random_transposition_never_calls_rank(monkeypatch):
    # from_pairs ranks all pairs in one perms.ranks call; rank is only the
    # key SparseMeasure.weight reads
    calls = []

    def counted(g):
        calls.append(g)
        return rank(g)

    monkeypatch.setattr(measures, "rank", counted)
    monkeypatch.setattr(perms, "rank", counted)
    q = random_transposition.__wrapped__(40)
    assert len(q) == 1 + 40 * 39 // 2 and calls == []
    assert q.weight(transposition(1, 40, 40)) == Fraction(2, 1600) and len(calls) == 1


@pytest.mark.parametrize("count", [5, 12])      # 10 and 24 pairs: both rankers
def test_from_pairs_sums_repeats_in_rank_order_at_n21(count):
    # n = 21 is the first deck whose ranks pass 2^63
    n = 21
    rng = random.Random(count)
    decks = [tuple(rng.sample(range(1, n + 1), n)) for _ in range(count)]
    gs = [Permutation(n, m) for m in decks]
    pairs = [(g, Fraction(1, 2 * count)) for g in gs + gs[::-1]]     # each deck twice
    q = SparseMeasure.from_pairs(n, pairs)
    assert list(q.atoms) == sorted(map(o_rank, decks))
    assert max(q.atoms) >= 2**63
    assert set(q.atoms.values()) == {Fraction(1, count)}
    assert q._maps.tolist() == sorted(map(list, decks))
    assert all(q.weight(g) == Fraction(1, count) for g in gs)


@pytest.mark.parametrize("n,filler", [(3, 0), (21, 20)])   # row loop, array pass
def test_negative_weight_names_the_first_negative_rank(n, filler):
    rng = random.Random(n)
    e = identity(n)
    s, t = sorted((cycle_generator(n, n), transposition(1, 2, n)), key=rank)
    pairs = [(e, Fraction(2)), (t, Fraction(-1, 2)), (s, Fraction(-1, 2))]
    pairs += [(Permutation(n, tuple(rng.sample(range(1, n + 1), n))), 0) for _ in range(filler)]
    with pytest.raises(ValueError, match=rf"^negative weight -1/2 at rank {rank(s)}$"):
        SparseMeasure.from_pairs(n, pairs)


def test_from_pairs_refuses_a_permutation_of_another_deck_size():
    pairs = [(identity(4), HALF), (cycle_generator(4, 4), HALF)]
    with pytest.raises(ValueError, match="S_4 permutation, measure on S_3"):
        SparseMeasure.from_pairs(3, pairs)


@pytest.mark.parametrize("q,g", [
    pytest.param(random_transposition(5), transposition(1, 2, 3), id="rt5-s3"),
    pytest.param(top_to_bottom_k(4, 4), identity(3), id="tbk4-s3"),
])
def test_weight_refuses_a_permutation_of_another_deck_size(q, g):
    with pytest.raises(ValueError, match=f"S_3 permutation, measure on S_{q.n}"):
        q.weight(g)


def test_json_form(frozen):
    obj = measure_to_json_obj(top_to_bottom_k(3, 2))
    assert obj == {
        "n": 3,
        "atoms": [
            {"perm": "2,1,3", "weight": "1/2"},
            {"perm": "2,3,1", "weight": "1/2"},
        ],
    }


@st.composite
def sparse_measures(draw, n=4):
    import math
    size = math.factorial(n)
    count = draw(st.integers(1, 5))
    ranks = draw(st.lists(st.integers(0, size - 1), min_size=count, max_size=count, unique=True))
    weights = draw(st.lists(st.integers(1, 8), min_size=count, max_size=count))
    total = sum(weights)
    perms = dict_table(n).perms
    return SparseMeasure.from_pairs(
        n, [(Permutation(n, perms[r]), Fraction(w, total)) for r, w in zip(ranks, weights)])


@given(sparse_measures())
def test_reversal_involution_random(q):
    assert reversal(reversal(q)) == q


@given(sparse_measures())
def test_symmetrize_symmetric_random(q):
    s = symmetrize(q)
    for g, w in s.items():
        assert s.weight(inverse(g)) == w


@given(sparse_measures(), sparse_measures())
def test_convolve_mass_random(a, b):
    c = convolve_measures(a, b)
    assert sum(c.atoms.values(), Fraction(0)) == 1


@given(sparse_measures())
def test_convolve_delta_neutral_random(q):
    assert convolve_measures(q, delta_e(4)) == q
    assert convolve_measures(delta_e(4), q) == q
