import math
import random
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import compose_word, o_compose, o_rank, parse
from shufflemix.perms import (
    Permutation,
    compose,
    cycle_generator,
    identity,
    inverse,
    order,
    rank,
    rank_columns,
    ranks,
    right_multiplier,
    serialize,
    transposition,
)


def test_cycle_generator_identity():
    assert cycle_generator(1, 4) == identity(4)


def test_cycle_generator_full_cycle():
    assert cycle_generator(3, 3).map == (2, 3, 1)


def test_cycle_generator_short():
    assert cycle_generator(2, 4).map == (2, 1, 3, 4)


@pytest.mark.parametrize("l", [0, 5, -1])
def test_cycle_generator_domain(l):
    with pytest.raises(ValueError):
        cycle_generator(l, 4)


def test_compose_identity_law():
    g = Permutation(4, (3, 1, 4, 2))
    assert compose(identity(4), g) == g
    assert compose(g, identity(4)) == g


def test_compose_square_of_cycle():
    s3 = cycle_generator(3, 3)
    assert compose(s3, s3).map == (3, 1, 2)
    assert compose(s3, compose(s3, s3)) == identity(3)


@st.composite
def perm_pair(draw):
    n = draw(st.integers(1, 7))
    a, b = (tuple(draw(st.permutations(range(1, n + 1)))) for _ in range(2))
    return a, b


@given(perm_pair())
def test_right_multiplier_is_compose_and_the_oracle_product(pair):
    # n = 1 included: there right_multiplier is tuple, not an itemgetter
    a, b = pair
    got = right_multiplier(b)(a)
    assert type(got) is tuple
    assert got == compose(Permutation(len(a), a), Permutation(len(b), b)).map == o_compose(a, b)


def test_compose_size_mismatch():
    with pytest.raises(ValueError):
        compose(identity(3), identity(4))


@pytest.mark.parametrize("n", [3, 5, 8])
def test_right_multiplication_inserts_top_card(n):
    # the semantic anchor for the composition convention: after X * sigma_l,
    # the card that was on top of X sits at position l
    for l in range(1, n + 1):
        deck = Permutation(n, tuple(range(n, 0, -1)))  # card n on top
        top = deck.map[0]
        moved = compose(deck, cycle_generator(l, n))
        assert moved.map[l - 1] == top
        # cards below position l keep their place
        assert moved.map[l:] == deck.map[l:]


def test_inverse_examples():
    assert inverse(identity(5)) == identity(5)
    s3 = cycle_generator(3, 3)
    assert inverse(s3) == compose(s3, s3)
    t = transposition(2, 5, 6)
    assert inverse(t) == t


def test_rank_identity_first():
    assert rank(identity(4)) == 0


def test_rank_reversed_last():
    assert rank(Permutation(5, (5, 4, 3, 2, 1))) == math.factorial(5) - 1


def test_rank_matches_lex_order():
    # rank must order one-line arrays lexicographically
    import itertools
    for r, tup in enumerate(itertools.permutations(range(1, 5))):
        assert rank(Permutation(4, tup)) == r


@pytest.mark.parametrize("n", range(1, 8))
def test_rank_matches_the_factorial_number_system_on_all_of_s_n(n):
    for m in permutations(range(1, n + 1)):
        g = Permutation(n, m)
        assert rank(g) == o_rank(m), m


@pytest.mark.parametrize("n", [20, 21, 40, 130])
def test_rank_matches_the_factorial_number_system_on_random_decks(n):
    rng = random.Random(n)
    decks = [list(range(n, 0, -1))] + [rng.sample(range(1, n + 1), n) for _ in range(200)]
    for m in map(tuple, decks):
        g = Permutation(n, m)
        assert rank(g) == o_rank(m), m


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 8, 20, 21, 40, 130]), st.integers(0, 40),
       st.randoms(use_true_random=False))
@example(130, 0, random.Random(0))      # an empty (0, n) array
@example(21, 16, random.Random(1))      # the last row count ranked row by row
@example(21, 17, random.Random(2))      # the first one ranked in array spans
def test_ranks_match_the_factorial_number_system(n, count, rnd):
    # 20 -> 21 is where n! passes 2^63, so ranks joins int64 spans from 21 on
    decks = [tuple(rnd.sample(range(1, n + 1), n)) for _ in range(count)]
    want = [o_rank(m) for m in decks]
    rows = np.array(decks, np.min_scalar_type(n)).reshape(count, n)
    got = ranks(rows)
    assert got == want
    assert all(type(r) is int for r in got)
    # 0-based labels, as the relative deck passes them, rank alike
    assert ranks(rows.astype(np.int16) - 1) == want
    for m, r in zip(decks[:3], want):
        assert rank(Permutation(n, m)) == ranks([m])[0] == r


def test_rank_columns_refuses_a_span_past_int64():
    # 20! < 2^63 <= 21!
    cols = np.arange(21)[:, None]
    assert rank_columns(cols[1:]).tolist() == [0]
    with pytest.raises(ValueError, match="positions 0..20 of 21 overflow int64"):
        rank_columns(cols)


@given(st.permutations(list(range(1, 6))), st.permutations(list(range(1, 6))),
       st.permutations(list(range(1, 6))))
def test_associativity(a, b, c):
    pa, pb, pc = (Permutation(5, tuple(x)) for x in (a, b, c))
    assert compose(compose(pa, pb), pc) == compose(pa, compose(pb, pc))


@given(st.permutations(list(range(1, 7))))
def test_inverse_cancels(a):
    p = Permutation(6, tuple(a))
    assert compose(p, inverse(p)) == identity(6)
    assert compose(inverse(p), p) == identity(6)


@given(st.permutations(list(range(1, 8))))
def test_order_is_the_first_power_at_the_identity(a):
    p = Permutation(7, tuple(a))
    acc, r = p, 1
    while not acc.is_identity():
        acc, r = compose_word([acc, p], 7), r + 1
    assert order(p) == r


@pytest.mark.parametrize("n", range(2, 9))
def test_cycle_order(n):
    # sigma_l^l = e; the odd loops used by the eigenvalue flow close
    for l in range(1, n + 1):
        assert compose_word([cycle_generator(l, n)] * l, n) == identity(n)


def test_serialize_parse_roundtrip():
    g = Permutation(4, (2, 4, 1, 3))
    assert serialize(g) == "2,4,1,3"
    assert parse("2,4,1,3") == g
    assert parse("2,3,1", n=3) == cycle_generator(3, 3)
    with pytest.raises(ValueError):
        parse("2,3,1", n=4)


def test_bad_permutation_rejected():
    with pytest.raises(ValueError):
        Permutation(3, (1, 1, 2))
    with pytest.raises(ValueError):
        Permutation(3, (1, 2))
