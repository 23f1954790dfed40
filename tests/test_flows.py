import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shufflemix.exact as exact
from oracles import (
    bfs_distances_nx,
    congestion_from_weights,
    dirichlet_form,
    flow_discrepancies,
    dirichlet_form_operator,
    general_flow_words,
    hitting_time,
    o_compose,
    parse,
    path_endpoint,
    transposition_words_general,
)
from shufflemix.errors import CapacityError, UnreachableTargetError
from shufflemix.exact import (
    group_table,
    least_eigenvalue_formula,
    mixing_time,
    spectrum,
)
from shufflemix.flows import (
    CayleyPath,
    ComparisonBoundReport,
    Flow,
    _FOLD_ROWS,
    _decode_words,
    _encode_runs,
    _fold_endpoints,
    build_flow_general,
    build_flow_large_k,
    build_flow_rudvalis,
    build_odd_flow_tbk,
    comparison_bound_report,
    congestion_A,
    congestion_lower_bound,
    flow_to_json_obj,
    general_congestion_bound,
    generator_name,
    invert_letter,
    large_k_congestion_bound,
    letter_perm,
    odd_flow_eigenvalue_bound,
    rudvalis_congestion_bound,
    rudvalis_generator_word,
    transposition_word_large_k,
    verify_flow,
)
from shufflemix.measures import (
    SparseMeasure,
    delta_e,
    lazy,
    random_transposition,
    rudvalis_symmetric,
    symmetrize,
    top_to_bottom_k,
)
from shufflemix.perms import (
    Permutation,
    cycle_generator,
    identity,
    inverse,
    rank,
    transposition,
)
from shufflemix.report import csv_bytes, json_bytes


def _uniform(n, perms):
    """Uniform on the distinct permutations perms."""
    return SparseMeasure.from_pairs(n, [(g, Fraction(1, len(perms))) for g in perms])


# ---------------------------------------------------------------------------
# letters and endpoints


def fold(n, words):
    """The package's endpoints of ``words`` at deck size n, one one-line
    tuple per word, through the batched run fold that flows use."""
    return [tuple(row) for row in _fold_endpoints(n, _encode_runs(n, words), len(words)).tolist()]


def test_letter_names_resolve():
    assert letter_perm("s3", 5) == cycle_generator(3, 5)
    assert letter_perm("s3inv", 5) == inverse(cycle_generator(3, 5))
    assert letter_perm("tau", 5) == transposition(1, 5, 5)
    for bad in ("x3", "s", "sinv", "e", "s0x", "s0", "s6", "s03"):
        with pytest.raises(ValueError):
            letter_perm(bad, 5)
    with pytest.raises(ValueError):
        letter_perm("tau", 1)


def test_invert_letter_involution():
    for name in ("s4", "s4inv", "tau"):
        assert invert_letter(invert_letter(name)) == name
        assert letter_perm(invert_letter(name), 6) == inverse(letter_perm(name, 6))


def test_generator_name_roundtrip():
    # every letter name maps back to itself except where two names share a
    # permutation: s1 = s1inv = e, sigma_2 is an involution, and at n = 2
    # (1, n) is sigma_2; the first name in table order wins
    merged = {"s1": "e", "s1inv": "e", "s2inv": "s2"}
    for n in range(1, 7):
        names = [f"s{l}{suf}" for l in range(1, n + 1) for suf in ("", "inv")]
        names += ["tau"] if n > 1 else []
        for name in names:
            g = letter_perm(name, n)
            got = generator_name(g)
            assert got == ("s2" if (n, name) == (2, "tau") else merged.get(name, name)), (n, name)
            assert g == (identity(n) if got == "e" else letter_perm(got, n))
    assert generator_name(identity(5)) == "e"
    # (1, n) only gets the tau name when it is not already a cycle
    assert generator_name(transposition(1, 6, 6)) == "tau"
    assert generator_name(transposition(1, 2, 2)) == "s2"
    # a non-generator falls back to its one-line form
    assert generator_name(Permutation(4, (2, 1, 4, 3))) == "2,1,4,3"


@pytest.mark.parametrize("n", range(1, 6))
def test_generator_name_table_agrees_with_a_scan_on_all_of_s_n(n):
    # the old lookup: e, else the first name in letter order, else one-line
    def scanned(g):
        if g.is_identity():
            return "e"
        names = [f"s{l}{suf}" for l in range(1, n + 1) for suf in ("", "inv")]
        names += ["tau"] if n > 1 else []
        return next((name for name in names if letter_perm(name, n) == g), str(g))

    for m in itertools.permutations(range(1, n + 1)):
        g = Permutation(n, m)
        assert generator_name(g) == scanned(g), m


@pytest.mark.parametrize("flow", [
    pytest.param(lambda: build_flow_rudvalis(130, 130), id="rudvalis-130-130"),
    pytest.param(lambda: build_flow_rudvalis(260, 8), id="rudvalis-260-8"),
    pytest.param(lambda: build_flow_large_k(130, 4), id="large-k-130-4"),
])
def test_verify_flow_is_exact_past_signed_and_one_byte_labels(flow):
    # labels above 127 overflow int8 and above 255 overflow uint8; the target's
    # stored maps and the folded endpoints must agree byte for byte anyway
    assert verify_flow(flow()).exact


def test_endpoint_convention_pin():
    # sigma_3^{-1} sigma_5 sigma_4^{-1} sigma_3, multiplied left to right,
    # must land on the transposition (3, 5); this fixes the word-order
    # convention for every other path in the module
    word = ("s3inv", "s5", "s4inv", "s3")
    assert path_endpoint(5, word) == transposition(3, 5, 5)
    assert fold(5, [word]) == [transposition(3, 5, 5).map]


def test_empty_word_is_identity():
    assert path_endpoint(4, ()) == identity(4)
    assert fold(4, [()]) == [identity(4).map]


def test_generator_loops_close():
    for n in (1, 3, 5, 8):
        words = [(f"s{l}",) * l for l in range(1, n + 1)]
        assert fold(n, words) == [identity(n).map] * n
        assert [CayleyPath(w).length for w in words] == list(range(1, n + 1))


def test_unknown_letter_raises_at_endpoint():
    with pytest.raises(ValueError):
        path_endpoint(5, ("s9",))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(["s2", "s3", "s4", "s5", "s3inv", "s5inv", "tau"]), max_size=12))
def test_endpoint_matches_oracle_fold(word):
    expected = tuple(range(1, 6))
    for name in word:
        expected = o_compose(expected, letter_perm(name, 5).map)
    assert fold(5, [tuple(word)]) == [expected]
    assert path_endpoint(5, word).map == expected


def test_path_is_its_hashable_word():
    p = CayleyPath(("s4", "s4inv"))
    assert CayleyPath._fields == ("word",)
    assert p == CayleyPath(("s4", "s4inv")) != CayleyPath(("s4inv", "s4"))
    assert hash(p) == hash(CayleyPath(("s4", "s4inv")))
    assert p.length == 2 and fold(6, [p.word]) == [identity(6).map]


@pytest.mark.parametrize("n,k", [(16, 8), (24, 12)])
def test_general_words_share_letter_strings(n, k):
    # words hold shared letter objects, not one fresh string per copy
    flow = build_flow_general(n, k)
    letters = [x for p in flow.paths for x in p.word]
    assert len({id(x) for x in letters}) <= 4 * n * n < len(letters)


def test_unknown_letter_raises_in_the_run_fold():
    with pytest.raises(ValueError, match="unknown generator name 's9' at n=5"):
        _encode_runs(5, [("s3", "s3", "s9")])
    with pytest.raises(ValueError, match="unknown generator name 'tau' at n=1"):
        _encode_runs(1, [("tau",)])
    q = symmetrize(top_to_bottom_k(5, 3))
    with pytest.raises(ValueError, match="unknown generator name 'x' at n=5"):
        Flow(target=random_transposition(5), q=q, unit=Fraction(1, 25),
             paths={CayleyPath(("s4",)): 1, CayleyPath(("s5", "x")): 1})


def test_flow_names_its_first_bad_letter_in_sorted_order():
    # of two unknown names, or two letters outside q's support, the first in
    # sorted-name order is named, whatever the word order
    q = rudvalis_symmetric(5)       # support: sigma_5^{+-1}, (1,5), e
    target = random_transposition(5)
    cases = [
        ([("s5", "z"), ("tau", "y")], "unknown generator name 'y' at n=5"),
        ([("s5", "s9inv", "s6")], "unknown generator name 's6' at n=5"),
        ([("s4", "tau"), ("s5inv", "s3inv")], "letter 's3inv' is not in the support of q"),
        # the two bad letters 300 words apart in the run table
        ([("s4",) * r for r in range(1, 300)] + [("s3",)], "letter 's3' is not in the support of q"),
        ([("z",)] + [("s4",) * r for r in range(1, 300)] + [("a",)],
         "unknown generator name 'a' at n=5"),
    ]
    for words, message in cases:
        with pytest.raises(ValueError, match=f"^{message}$"):
            Flow(target=target, q=q, unit=Fraction(1), paths={CayleyPath(w): 1 for w in words})


def test_run_fold_matches_the_letter_oracle_across_chunks():
    # long runs (past each letter's order, which the fold reduces by) and
    # enough words for several fold blocks, with empty words among them
    rng = np.random.default_rng(7)
    n = 7
    names = [f"s{l}{suf}" for l in range(1, n + 1) for suf in ("", "inv")] + ["tau"]
    words = []
    for _ in range(700):
        runs = rng.integers(0, 5)
        words.append(tuple(str(name) for name, r in zip(rng.choice(names, runs),
                                                        rng.integers(1, 2 * n + 2, runs))
                           for _ in range(r)))
    words = list(dict.fromkeys(words))
    q = _uniform(n, {letter_perm(name, n) for name in names})
    flow = Flow(target=delta_e(n), q=q, unit=Fraction(1), paths={CayleyPath(w): 1 for w in words})
    assert len(words) > 2 * _FOLD_ROWS
    ends = flow._endpoints()
    assert ends.dtype == np.uint8 and ends.shape == (len(words), n)
    assert [tuple(row) for row in ends.tolist()] == [path_endpoint(n, w).map for w in words]
    assert verify_flow(flow).discrepancies == flow_discrepancies(flow)


def test_runs_are_one_table_in_path_then_word_order():
    # global path indices, nondecreasing, skipping empty words; each field in
    # the least dtype holding its values; decoding restores trailing empties
    words = [("s3", "s3", "s4"), (), ("tau",), ("s5inv",) * 300, ()]
    runs = _encode_runs(5, words)
    assert [x.tolist() for x in runs] == [[0, 0, 2, 3], [4, 6, 10, 9], [2, 1, 1, 300]]
    assert [x.dtype for x in runs] == [np.uint8, np.uint8, np.uint16]
    assert _decode_words(5, runs, len(words)) == words
    assert [x.size for x in _encode_runs(5, [(), ()])] == [0, 0, 0]
    assert _decode_words(5, _encode_runs(5, [(), ()]), 2) == [(), ()]


@pytest.mark.parametrize("count", [0, 1, _FOLD_ROWS - 1, _FOLD_ROWS, _FOLD_ROWS + 1,
                                   2 * _FOLD_ROWS + 1])
def test_run_fold_at_its_block_edges(count):
    # every block's first and last word is empty but the last word, which is
    # the longest, alone in the last block at B + 1 and 2B + 1 words
    n = 6
    names = [f"s{l}{suf}" for l in range(1, n + 1) for suf in ("", "inv")] + ["tau"]
    words = [() if p % _FOLD_ROWS in (0, _FOLD_ROWS - 1)
             else tuple(names[(p + r) % len(names)] for r in range(p % 7)) for p in range(count)]
    if count:
        words[-1] = ("s6",) * 9 + ("tau", "s5inv", "s2") * 3 + ("s4",) * 4
    assert fold(n, words) == [path_endpoint(n, w).map for w in words]


def test_run_fold_at_one_card_and_on_empty_words():
    flow = Flow(target=delta_e(1), q=delta_e(1), unit=Fraction(1, 3),
                paths={CayleyPath(()): 1, CayleyPath(("s1", "s1inv", "s1")): 2})
    assert fold(1, [("s1",) * 5]) == [identity(1).map]
    assert verify_flow(flow).exact
    assert congestion_A(flow).a_value == congestion_from_weights(flow)[0] == 6
    empty = Flow(target=random_transposition(4), q=symmetrize(top_to_bottom_k(4, 2)),
                 unit=Fraction(1, 4), paths={CayleyPath(()): 1})
    assert verify_flow(empty).discrepancies == flow_discrepancies(empty)
    assert congestion_A(empty).a_value == 0
    nothing = Flow(target=delta_e(4), q=symmetrize(top_to_bottom_k(4, 2)),
                   unit=Fraction(1), paths={})
    assert verify_flow(nothing).discrepancies == (("1,2,3,4", 0, 1),)
    assert congestion_A(nothing).a_value == 0


@pytest.mark.parametrize("builder,n,k", [
    ("general", 16, 8),
    ("general", 24, 12),
    ("large-k", 40, 8),           # k is C here
    ("rudvalis", 40, 40),
])
def test_batched_endpoints_and_verify_match_the_letter_oracle(builder, n, k):
    flow = BUILDERS[builder](n, k)
    ends = flow._endpoints()
    assert [tuple(row) for row in ends.tolist()] == [path_endpoint(n, p.word).map for p in flow.paths]
    assert verify_flow(flow).exact and flow_discrepancies(flow) == ()
    # a mis-weighted copy: every third path one unit heavier, the empty path
    # dropped; discrepancies equal the oracle's, in order and in text
    bent = {p: c + (i % 3 == 0) for i, (p, c) in enumerate(flow.paths.items()) if p.word}
    bad = Flow(target=flow.target, q=flow.q, unit=flow.unit, paths=bent)
    got = verify_flow(bad)
    assert not got.exact and got.discrepancies == flow_discrepancies(bad)


# ---------------------------------------------------------------------------
# flow construction and verification


def test_flow_encodes_the_paths_of_another_deck_size_afresh():
    # a flow's stored paths reused at another n are read as words: letter ids
    # depend on n (tau is id 10 at n = 5, where id 10 is s6 at n = 6)
    small = build_flow_rudvalis(5, 5)
    names = [f"s{l}{suf}" for l in range(1, 7) for suf in ("", "inv")] + ["tau"]
    q = _uniform(6, {letter_perm(name, 6) for name in names})
    moved = Flow(target=delta_e(6), q=q, unit=small.unit, paths=small.paths)
    assert dict(moved.paths) == dict(small.paths)
    assert any("tau" in p.word for p in moved.paths)
    ends = [tuple(row) for row in moved._endpoints().tolist()]
    assert ends == [path_endpoint(6, p.word).map for p in moved.paths]


def test_flow_rejects_letter_outside_support():
    q = rudvalis_symmetric(5)       # support: sigma_5^{+-1}, (1,5), e
    target = _uniform(5, [cycle_generator(2, 5)])
    with pytest.raises(ValueError, match="^letter 's2' is not in the support of q$"):
        Flow(target=target, q=q, unit=Fraction(1), paths={CayleyPath(("s2",)): 1})


def test_flow_rejects_negative_weight_and_size_mismatch():
    q = symmetrize(top_to_bottom_k(4, 2))
    with pytest.raises(ValueError, match="multiplicity"):
        Flow(target=random_transposition(4), q=q, unit=Fraction(1, 2),
             paths={CayleyPath(("s3",)): -1})
    with pytest.raises(ValueError, match="size"):
        Flow(target=random_transposition(5), q=q, unit=Fraction(1), paths={})


@pytest.mark.parametrize("c", [Fraction(1), Fraction(1, 2), 1.0, 0.5])
def test_flow_rejects_non_int_multiplicity(c):
    q = symmetrize(top_to_bottom_k(4, 2))
    with pytest.raises(ValueError, match="multiplicity"):
        Flow(target=random_transposition(4), q=q, unit=Fraction(1, 16),
             paths={CayleyPath(("s3",)): c})


@pytest.mark.parametrize("unit", [Fraction(0), Fraction(-1, 16), 0, 1, 0.0625])
def test_flow_rejects_unit_other_than_a_positive_fraction(unit):
    q = symmetrize(top_to_bottom_k(4, 2))
    with pytest.raises(ValueError, match="unit"):
        Flow(target=random_transposition(4), q=q, unit=unit,
             paths={CayleyPath(("s3",)): 1})


def test_verify_flow_flags_half_weights():
    # routing each transposition at half its target mass must be reported as
    # a discrepancy for every transposition, not an error
    flow = build_flow_general(5, 3)
    halved = {p: (c if p.word else 2 * c) for p, c in flow.paths.items()}
    report = verify_flow(Flow(target=flow.target, q=flow.q, unit=flow.unit / 2, paths=halved))
    assert not report.exact
    assert len(report.discrepancies) == 10
    got, want = report.discrepancies[0][1], report.discrepancies[0][2]
    assert got == Fraction(1, 25) and want == Fraction(2, 25)
    # discrepancies come in lexicographic (equivalently rank) order
    maps = [parse(text, 5).map for text, _, _ in report.discrepancies]
    assert maps == sorted(maps) and len(set(maps)) == 10


def test_verify_single_path_per_atom_passes():
    g = cycle_generator(3, 4)
    target = SparseMeasure.from_pairs(4, [(g, Fraction(2, 3)), (identity(4), Fraction(1, 3))])
    q = symmetrize(top_to_bottom_k(4, 4))
    flow = Flow(target=target, q=q, unit=Fraction(1, 3),
                paths={CayleyPath(("s3",)): 2, CayleyPath(()): 1})
    assert {p.word: flow.unit * c for p, c in flow.paths.items()} == {
        ("s3",): Fraction(2, 3), (): Fraction(1, 3)}
    assert verify_flow(flow).exact


# ---------------------------------------------------------------------------
# congestion


def test_congestion_single_path_formula():
    # one path of length 1 through s with weight w: A = w / q(s)
    q = symmetrize(top_to_bottom_k(3, 3))
    target = _uniform(3, [cycle_generator(3, 3)])
    flow = Flow(target=target, q=q, unit=Fraction(1), paths={CayleyPath(("s3",)): 1})
    assert flow.unit * flow.paths[CayleyPath(("s3",))] == 1
    rep = congestion_A(flow)
    assert rep.a_value == Fraction(1) / q.weight(cycle_generator(3, 3)) == 6
    terms = {name: term for name, _, term in rep.per_generator}
    assert terms["s3"] == 6 and terms["s3inv"] == 0


def test_congestion_tally_is_exact_past_the_int64_range():
    q = symmetrize(top_to_bottom_k(4, 2))
    target = _uniform(4, [cycle_generator(3, 4)])
    # multiplicities past 2^63, one shared by two words, and mixed run lengths
    paths = {CayleyPath(("s3",)): 2 ** 63, CayleyPath(("s3", "s3inv")): 2 ** 63,
             CayleyPath(("s3",) * 2 + ("s3inv",) * 3): 2 ** 100 + 1, CayleyPath(()): 3}
    flow = Flow(target=target, q=q, unit=Fraction(1, 2 ** 101), paths=paths)
    a, terms = congestion_from_weights(flow)
    rep = congestion_A(flow)
    assert rep.a_value == a
    assert {rank(letter_perm(name, 4)): term for name, _, term in rep.per_generator} == terms


def test_congestion_of_the_odd_flow_past_the_int64_range():
    # L = lcm of the odd l^2 is about 2.8e18 at n = k = 25, so the traffic
    # sum c * |delta|^2 = 2 L * 13 exceeds 2^63
    flow = build_odd_flow_tbk(25, 25)
    assert sum(c * p.length ** 2 for p, c in flow.paths.items()) >= 2 ** 63
    a, _ = congestion_from_weights(flow)
    assert congestion_A(flow).a_value == a
    assert odd_flow_eigenvalue_bound(flow) == -1 + 2 / a


def test_congestion_empty_path_contributes_nothing():
    q = symmetrize(top_to_bottom_k(4, 4))
    target = delta_e(4)
    flow = Flow(target=target, q=q, unit=Fraction(1), paths={CayleyPath(()): 1})
    assert flow.unit * flow.paths[CayleyPath(())] == 1
    assert congestion_A(flow).a_value == 0


BUILDERS = {"general": build_flow_general, "large-k": build_flow_large_k,
            "odd": build_odd_flow_tbk, "rudvalis": build_flow_rudvalis}


@pytest.mark.parametrize("builder,n,k", [
    ("general", 5, 3),
    ("general", 6, 2),
    ("general", 6, 6),
    ("general", 9, 4),
    ("large-k", 7, 1),            # k is C here
    ("large-k", 9, 2),
    ("odd", 5, 3),
    ("odd", 5, 5),                # l = 1: the identity letter s1
    ("odd", 6, 6),
    ("rudvalis", 2, 2),           # sigma_2^{+-1} and tau merge into one atom
    ("rudvalis", 6, 3),
    ("rudvalis", 6, 6),
    ("general", 12, 6),
    ("large-k", 40, 8),
    ("rudvalis", 40, 40),
])
def test_congestion_equals_per_path_weight_sum(builder, n, k):
    flow = BUILDERS[builder](n, k)
    a, terms = congestion_from_weights(flow)
    rep = congestion_A(flow)
    assert rep.a_value == a
    assert [(name, qs) for name, qs, _ in rep.per_generator] == [
        (generator_name(g), qs) for g, qs in flow.q.items()]
    assert [t for _, _, t in rep.per_generator] == [terms[r] for r in sorted(terms)]


def test_congestion_lower_bound_support_case():
    # target supported on the generators themselves: every non-identity atom
    # sits at distance 1, so the bound is 1 - target(e)
    qt = symmetrize(top_to_bottom_k(5, 3))
    assert congestion_lower_bound(qt, qt.support()) == 1
    qt_full = symmetrize(top_to_bottom_k(6, 6))
    assert congestion_lower_bound(qt_full, qt_full.support()) == 1 - qt_full.weight(identity(6))


def test_congestion_lower_bound_matches_networkx(frozen):
    n, k = 5, 3
    gens = [g.map for g in symmetrize(top_to_bottom_k(n, k)).support()]
    dist = bfs_distances_nx(gens, n)
    target = random_transposition(n)
    expected = sum((w * dist[g.map] ** 2 for g, w in target.items()), Fraction(0))
    got = congestion_lower_bound(target, symmetrize(top_to_bottom_k(n, k)).support())
    assert got == expected
    # frozen derived value at (6, 3)
    got6 = congestion_lower_bound(
        random_transposition(6), symmetrize(top_to_bottom_k(6, 3)).support())
    assert got6 == Fraction(frozen.get("congestion_lower_bound_rt6_tbk_6_3"))


def test_congestion_lower_bound_unreachable():
    # names the first unreachable atom in rank order: (3, 4), at rank 1
    with pytest.raises(UnreachableTargetError, match="^target atom 1,2,4,3 not reachable"):
        congestion_lower_bound(random_transposition(4), [transposition(1, 2, 4)])


def test_congestion_lower_bound_cap():
    with pytest.raises(CapacityError):
        congestion_lower_bound(random_transposition(9), [cycle_generator(9, 9)])


# ---------------------------------------------------------------------------
# odd loop flow


def test_odd_flow_5_3_values():
    flow = build_odd_flow_tbk(5, 3)
    assert verify_flow(flow).exact
    assert len(flow.paths) == 4
    assert all(p.length % 2 == 1 for p in flow.paths)
    weights = sorted(flow.unit * c for c in flow.paths.values())
    assert weights == [Fraction(9, 68)] * 2 + [Fraction(25, 68)] * 2
    assert congestion_A(flow).a_value == Fraction(1350, 68)
    # at k = n both directions of l = 1 merge into the one identity letter
    flow = build_odd_flow_tbk(5, 5)
    assert verify_flow(flow).exact
    assert {p.word: flow.unit * c for p, c in flow.paths.items()} == {
        ("s1",): Fraction(225, 259),
        ("s3",) * 3: Fraction(25, 518), ("s3inv",) * 3: Fraction(25, 518),
        ("s5",) * 5: Fraction(9, 518), ("s5inv",) * 5: Fraction(9, 518)}


def test_odd_flow_bound_5_3():
    flow = build_odd_flow_tbk(5, 3)
    bound = odd_flow_eigenvalue_bound(flow)
    assert bound == Fraction(-607, 675)
    assert bound >= Fraction(-35, 36)


def test_odd_flow_2_2_is_tight():
    # the only odd loop is the single identity letter carried by the lazy
    # half of the symmetrized measure; the bound equals beta_min exactly
    flow = build_odd_flow_tbk(2, 2)
    assert [p.word for p in flow.paths] == [("s1",)]
    bound = odd_flow_eigenvalue_bound(flow)
    exact = spectrum(symmetrize(top_to_bottom_k(2, 2))).beta_min
    assert abs(float(bound) - exact) <= 1e-9
    assert bound == 0


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_odd_flow_bound_below_exact_beta_min(n):
    for k in range(2, n + 1):
        flow = build_odd_flow_tbk(n, k)
        assert verify_flow(flow).exact
        bound = odd_flow_eigenvalue_bound(flow)
        exact = spectrum(symmetrize(top_to_bottom_k(n, k))).beta_min
        assert float(bound) <= exact + 1e-12, (n, k, float(bound), exact)
        # and it can only improve on the closed-form estimate
        assert bound >= least_eigenvalue_formula(n, k)


def test_odd_flow_even_path_rejected_by_bound():
    q = symmetrize(top_to_bottom_k(4, 2))
    flow = Flow(target=random_transposition(4), q=q, unit=Fraction(1),
                paths={CayleyPath(("s3", "s4")): 1})
    assert flow.unit * flow.paths[CayleyPath(("s3", "s4"))] == 1
    with pytest.raises(ValueError, match="odd"):
        odd_flow_eigenvalue_bound(flow)


def test_odd_flow_bound_needs_the_identity_target():
    # odd loops, but beta~_min of a random-transposition target is not 1
    q = symmetrize(top_to_bottom_k(4, 4))
    flow = Flow(target=random_transposition(4), q=q, unit=Fraction(1),
                paths={CayleyPath(("s3",) * 3): 1})
    with pytest.raises(ValueError, match="point mass at e"):
        odd_flow_eigenvalue_bound(flow)


# ---------------------------------------------------------------------------
# transposition flows


def test_general_words_end_at_their_transposition():
    for n in (5, 6, 7, 9, 12):
        for k in range(2, n + 1):
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    words = transposition_words_general(n, k, i, j)
                    assert len(words) == (1 if i > n - k else k - 1)
                    for word in words:
                        assert len(word) <= 2 * n + 12
                        assert fold(n, [word]) == [transposition(i, j, n).map], (n, k, i, j, word)


@pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 15) for k in range(2, n + 1)]
                         + [(24, 12), (32, 16), (40, 20)])
def test_general_flow_runs_equal_the_word_oracle(n, k):
    # the runs written from (i, j, l) spell the oracle's words in its order,
    # with its multiplicities, and equal the word encoder's table, dtypes too
    flow = build_flow_general(n, k)
    words = general_flow_words(n, k)
    assert [(p.word, c) for p, c in flow.paths.items()] == list(words.items())
    assert flow.paths.mult.tolist() == list(words.values())
    got, want = flow.paths.runs, _encode_runs(n, list(words))
    for name in ("path", "letter", "length"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_general_flow_payload_path_decodes_no_word(monkeypatch):
    # the path count, congestion and verification read runs and
    # multiplicities only; decoding a word (iterating flow.paths) fails here
    def refuse(*args):
        raise AssertionError("a word was decoded")

    monkeypatch.setattr("shufflemix.flows._decode_words", refuse)
    flow = build_flow_general(24, 12)
    assert len(flow.paths) == 2377
    assert congestion_A(flow).a_value > 0
    assert verify_flow(flow).exact
    with pytest.raises(AssertionError, match="a word was decoded"):
        next(iter(flow.paths))


def test_large_k_words_end_at_their_transposition():
    for n, C in ((6, 0), (7, 1), (9, 2), (11, 3), (12, 3), (12, 4)):
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                word = transposition_word_large_k(n, C, i, j)
                assert fold(n, [word]) == [transposition(i, j, n).map], (n, C, i, j, word)
                if i <= C:
                    assert len(word) <= 2 * C + 6
                else:
                    assert len(word) <= 4


def test_general_flow_marginals_and_lengths():
    for n, k in ((5, 3), (6, 2), (6, 6), (8, 4), (10, 5), (12, 6), (12, 12)):
        flow = build_flow_general(n, k)
        assert verify_flow(flow).exact
        assert max(p.length for p in flow.paths) <= 2 * n + 12
        assert flow.unit * flow.paths[CayleyPath(())] == Fraction(1, n)


def test_general_flow_strips_identity_letters_at_k_n():
    flow = build_flow_general(6, 6)
    for p in flow.paths:
        assert "s1" not in p.word and "s1inv" not in p.word
    assert max(p.length for p in flow.paths) == 4


def test_general_congestion_within_printed_bound():
    # measured A stays under 18n^2 + 8k^2/n^2 even with the doubled weights
    for n in (8, 12):
        for k in range(2, n + 1):
            a = congestion_A(build_flow_general(n, k)).a_value
            assert a <= general_congestion_bound(n, k), (n, k, float(a))


def test_large_k_flow_marginals_and_constant():
    for n, C in ((6, 0), (7, 1), (9, 2), (12, 3)):
        flow = build_flow_large_k(n, C)
        assert verify_flow(flow).exact
        assert flow.unit * flow.paths[CayleyPath(())] == Fraction(1, n)
    a = congestion_A(build_flow_large_k(12, 3)).a_value
    assert a <= large_k_congestion_bound(3) == 608
    assert a == Fraction(227, 2)


def test_large_k_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_flow_large_k(8, 3)       # needs n > 2C + 2
    with pytest.raises(ValueError):
        build_flow_large_k(9, -1)


def test_rudvalis_words_end_at_their_cycle():
    for n in (2, 3, 5, 8, 12):
        for l in range(2, n + 1):
            word = rudvalis_generator_word(n, l)
            assert len(word) == 3 * (n - l) + 1
            assert fold(n, [word]) == [cycle_generator(l, n).map]
    assert rudvalis_generator_word(6, 6) == ("s6",)


def test_rudvalis_flow_marginals_and_bound():
    for n, k in ((2, 2), (6, 3), (8, 8), (12, 5)):
        flow = build_flow_rudvalis(n, k)
        assert verify_flow(flow).exact
        rep = congestion_A(flow)
        assert rep.a_value <= rudvalis_congestion_bound(n, k), (n, k)
    # identity atom at k = n rides the empty path
    flow = build_flow_rudvalis(8, 8)
    assert flow.unit * flow.paths[CayleyPath(())] == Fraction(1, 8)


def test_lower_bound_never_beats_congestion():
    flows = [
        build_flow_general(5, 3),
        build_flow_general(6, 4),
        build_flow_general(8, 4),
        build_flow_large_k(7, 1),
        build_flow_large_k(8, 2),
        build_flow_rudvalis(6, 3),
        build_flow_rudvalis(8, 4),
        build_odd_flow_tbk(5, 3),
        build_odd_flow_tbk(6, 6),
    ]
    for flow in flows:
        lb = congestion_lower_bound(flow.target, flow.q.support())
        assert lb <= congestion_A(flow).a_value


# ---------------------------------------------------------------------------
# Dirichlet forms and the mixing comparison


def test_dirichlet_constant_function_is_zero():
    q = symmetrize(top_to_bottom_k(4, 2))
    assert dirichlet_form(np.ones(24), q) == 0.0


def test_dirichlet_matches_operator_form():
    rng = np.random.default_rng(3)
    for n, k in ((4, 2), (5, 3)):
        q = symmetrize(top_to_bottom_k(n, k))
        for _ in range(25):
            f = rng.standard_normal(group_table(n).size)
            assert abs(dirichlet_form(f, q) - dirichlet_form_operator(f, q)) < 1e-10


def test_dirichlet_comparison_both_directions():
    rng = np.random.default_rng(7)
    for n, k in ((4, 2), (5, 3)):
        qt = symmetrize(top_to_bottom_k(n, k))
        a_gen = float(congestion_A(build_flow_general(n, k)).a_value)
        a_rud = float(congestion_A(build_flow_rudvalis(n, k)).a_value)
        rt = random_transposition(n)
        rn = rudvalis_symmetric(n)
        for _ in range(25):
            f = rng.standard_normal(group_table(n).size)
            assert dirichlet_form(f, rt) <= a_gen * dirichlet_form(f, qt) * (1 + 1e-12)
            assert dirichlet_form(f, qt) <= a_rud * dirichlet_form(f, rn) * (1 + 1e-12)


def _builder_flows(n):
    """Every flow the builders make at n, with an id."""
    for k in range(2, n + 1):
        yield f"general{n}_{k}", build_flow_general(n, k)
        yield f"rudvalis{n}_{k}", build_flow_rudvalis(n, k)
        if any(l % 2 for l in range(n - k + 1, n + 1)):
            yield f"odd{n}_{k}", build_odd_flow_tbk(n, k)
    for c in range(n):
        if n > 2 * c + 2:
            yield f"large_k{n}_C{c}", build_flow_large_k(n, c)


def _oracle_form_matrix(q):
    """The n! x n! matrix of the oracle quadratic form E_q, by polarization
    over pairs of point masses."""
    eye = np.eye(group_table(q.n).size)
    diag = [dirichlet_form(e, q) for e in eye]
    m = np.diag(diag)
    for i, j in zip(*np.triu_indices(len(eye), 1)):
        m[i, j] = m[j, i] = (dirichlet_form(eye[i] + eye[j], q) - diag[i] - diag[j]) / 2
    return m


def test_dirichlet_constants_match_the_dense_generalized_problem():
    # A* against scipy's generalized eigh of the two oracle forms with the
    # constants projected out, for every general and Rudvalis flow at n <= 5
    from scipy import linalg
    for n in range(2, 6):
        basis = linalg.null_space(np.ones((1, math.factorial(n))))
        projected = {}
        for k in range(2, n + 1):
            for flow in (build_flow_general(n, k), build_flow_rudvalis(n, k)):
                for walk in (flow.target, flow.q):
                    key = frozenset(walk.atoms.items())
                    if key not in projected:
                        projected[key] = basis.T @ _oracle_form_matrix(walk) @ basis
                want = linalg.eigh(projected[frozenset(flow.target.atoms.items())],
                                   projected[frozenset(flow.q.atoms.items())],
                                   eigvals_only=True)[-1]
                got = max(exact.dirichlet_constants(flow.target, flow.q).values())
                assert got == pytest.approx(want, rel=1e-9, abs=0), (n, k)


def test_every_builder_flow_is_at_least_a_star():
    # A >= A* for every flow the builders make at n <= 7; the odd flows'
    # target is the point mass at e, whose Dirichlet form is zero
    for n in range(2, 8):
        for name, flow in _builder_flows(n):
            consts = exact.dirichlet_constants(flow.target, flow.q)
            a_star = max(consts.values())
            assert float(congestion_A(flow).a_value) >= a_star * (1 - 1e-9), name
            assert len(consts) == (2, 3, 5, 7, 11, 15)[n - 2] - 1   # partitions of n
            if name.startswith("odd"):
                assert a_star == 0.0, name


def test_comparison_bound_report_5_3():
    t2_rt = mixing_time(random_transposition(5), "l2").mixing_time
    rep = comparison_bound_report(build_flow_general(5, 3))
    assert rep.reference_t2 == t2_rt
    assert rep.holds
    assert rep.bound == 1259
    assert rep.t2_exact == mixing_time(symmetrize(top_to_bottom_k(5, 3)), "l2").mixing_time


def test_comparison_bound_nonnegative_spectrum_drops_third_term():
    # lazy q has no negative eigenvalue, so beta_- = 0 and each b_i is the
    # Courant-Fischer term max(0, 1 - (1 - beta_i(target))/A) alone
    base = build_flow_general(4, 2)
    lazy_q = lazy(base.q, Fraction(1, 2))
    flow = Flow(target=base.target, q=lazy_q, unit=base.unit, paths=base.paths)
    t2_rt = mixing_time(random_transposition(4), "l2").mixing_time
    assert spectrum(lazy_q).beta_min > 0
    rep = comparison_bound_report(flow)
    assert rep.reference_t2 == t2_rt
    assert rep.bound == 1755
    assert rep.holds


NEVER_MIXES = [
    # support in a proper subgroup: the eigenvalue 1 repeats, gap 0
    pytest.param(_uniform(3, [identity(3), transposition(1, 2, 3)]), id="gap0"),
    # every step odd: the walk is periodic, beta_min = -1
    pytest.param(_uniform(3, [transposition(1, 2, 3), transposition(2, 3, 3)]),
                 id="periodic"),
]


@pytest.mark.parametrize("q", NEVER_MIXES)
def test_comparison_bound_refuses_a_walk_that_never_mixes(q, monkeypatch):
    def no_walk(*args):
        raise AssertionError("T2 searched for a walk that never mixes")
    monkeypatch.setattr(exact, "convolve_step", no_walk)
    flow = Flow(target=delta_e(3), q=q, unit=Fraction(1), paths={CayleyPath(()): 1})
    with pytest.raises(ValueError, match="comparison walk does not mix"):
        comparison_bound_report(flow)


@pytest.mark.parametrize("target", NEVER_MIXES)
def test_comparison_bound_refuses_a_target_that_never_mixes(target, monkeypatch):
    def no_walk(*args):
        raise AssertionError("T2 searched for a walk that never mixes")
    monkeypatch.setattr(exact, "convolve_step", no_walk)
    flow = Flow(target=target, q=symmetrize(top_to_bottom_k(3, 3)), unit=Fraction(1), paths={})
    with pytest.raises(ValueError, match="target walk does not mix"):
        comparison_bound_report(flow)


@pytest.mark.parametrize("q", NEVER_MIXES)
def test_comparison_t2_refuses_a_walk_that_never_mixes(q):
    # compared with itself (A = 1), a walk that never mixes has some b_i = 1,
    # so a search for the first m with the sum below 1/e would not end
    spec = exact.spectrum(q)
    with pytest.raises(ValueError, match="walk does not mix"):
        exact.comparison_t2(spec, spec, 1.0)


@pytest.mark.parametrize("builder,n,size", [("general", 5, 3), ("rudvalis", 6, 6),
                                            ("large-k", 6, 1)])
def test_comparison_eigenvalue_bound_holds_per_shape_and_index(builder, n, size):
    # Courant-Fischer on each block pair: the i-th eigenvalues of T^ and Q^,
    # in the same order, satisfy |beta_i(q)| <= b_i for every a >= A*, checked
    # at the tightest a = A*; comparison_t2 at the flow's A is the first m at
    # which sum d_lambda b_i^(2m) falls to 1/e^2.  Random transposition's
    # blocks are scalar, so the Rudvalis case is the one the pairing matters in
    flow = _BUILDERS[builder](n, size)
    pairs = [(len(t_hat), np.linalg.eigvalsh(t_hat), np.linalg.eigvalsh(q_hat))
             for (shape, t_hat), (_, q_hat) in zip(exact._symmetric_blocks(flow.target),
                                                   exact._symmetric_blocks(flow.q))
             if shape != (n,)]
    beta_minus = max(0.0, -min(beta_q[0] for _, _, beta_q in pairs))
    a_star = max(exact.dirichlet_constants(flow.target, flow.q).values())
    for d, beta_t, beta_q in pairs:
        b = np.maximum(1 - (1 - beta_t) / a_star, beta_minus)
        assert (np.abs(beta_q) <= b + 1e-12).all(), (d, beta_t, beta_q, b)
    a = float(congestion_A(flow).a_value)
    terms = [(d, max(1 - (1 - x) / a, beta_minus)) for d, beta_t, _ in pairs for x in beta_t]
    m = next(m for m in itertools.count()
             if math.fsum(d * x ** (2 * m) for d, x in terms) <= math.exp(-2))
    assert exact.comparison_t2(exact.spectrum(flow.target), exact.spectrum(flow.q), a) == m


COMPARISON_FLOWS = (
    [("general", n, k) for n in range(2, 8) for k in range(2, n + 1)]
    + [("rudvalis", n, k) for n in range(2, 8) for k in range(2, n + 1)]
    + [("large-k", n, c) for c in range(3) for n in range(2 * c + 3, 8)]
)
_BUILDERS = {"general": build_flow_general, "rudvalis": build_flow_rudvalis,
             "large-k": build_flow_large_k}


# the third field is k, or C for the large-k builder
@pytest.mark.parametrize("builder,n,size", COMPARISON_FLOWS)
def test_comparison_bound_reference_is_the_exact_target_t2(builder, n, size):
    flow = _BUILDERS[builder](n, size)
    rep = comparison_bound_report(flow)
    assert rep.reference_t2 == hitting_time(flow.target, "l2")
    assert rep.t2_exact == hitting_time(flow.q, "l2")
    assert rep.holds


@pytest.mark.parametrize("builder,n,size", [("general", 6, 3), ("rudvalis", 6, 6)])
def test_comparison_bound_report_builds_each_walks_blocks_once(builder, n, size, monkeypatch):
    # one spectrum per walk gives T2(q), T2(target) and the bound
    calls = []
    blocks = exact._blocks

    def counted(q):
        calls.append(q)
        return blocks(q)
    monkeypatch.setattr(exact, "_blocks", counted)
    flow = _BUILDERS[builder](n, size)
    comparison_bound_report(flow)
    assert calls == [flow.q, flow.target]


# reports frozen when T2 came from the dense walk; the bound is the eigenvalue
# comparison's, frozen when it replaced the three-term formula
DENSE_ERA_REPORTS = [
    ("general", 6, 3, ComparisonBoundReport(
        a_value=290.6666666666667, reference_t2=7, bound=2324, t2_exact=15, holds=True)),
    ("rudvalis", 6, 6, ComparisonBoundReport(
        a_value=82.66666666666667, reference_t2=11, bound=964, t2_exact=53, holds=True)),
]


@pytest.mark.parametrize("builder,n,k,expected", DENSE_ERA_REPORTS)
def test_comparison_bound_steps_no_dense_walk(builder, n, k, expected, monkeypatch):
    flow = _BUILDERS[builder](n, k)

    def no_walk(*args):
        raise AssertionError("dense step taken for a symmetric walk")
    monkeypatch.setattr(exact, "convolve_step", no_walk)
    assert comparison_bound_report(flow) == expected


def test_comparison_bound_refuses_a_flow_that_does_not_route_its_target():
    flow = Flow(target=random_transposition(4), q=symmetrize(top_to_bottom_k(4, 4)),
                unit=Fraction(1), paths={})
    assert not verify_flow(flow).exact
    with pytest.raises(ValueError, match="disagree with the target on 7 atoms"):
        comparison_bound_report(flow)


# ---------------------------------------------------------------------------
# serialization


def test_flow_json_shape_and_determinism():
    flow = build_odd_flow_tbk(5, 3)
    obj = flow_to_json_obj(flow)
    assert set(obj) == {"target", "q", "paths"}
    words = [tuple(entry["word"]) for entry in obj["paths"]]
    assert all(len(word) % 2 == 1 for word in words)
    assert ("s3",) * 3 in words
    assert all(isinstance(entry["weight"], str) and "/" in entry["weight"]
               for entry in obj["paths"])
    again = json_bytes(flow_to_json_obj(build_odd_flow_tbk(5, 3)))
    assert json_bytes(obj) == again


@pytest.mark.parametrize("build,args", [
    (build_flow_general, (8, 3)), (build_flow_general, (6, 2)), (build_flow_large_k, (12, 3)),
    (build_flow_rudvalis, (8, 8)), (build_odd_flow_tbk, (6, 4)), (build_odd_flow_tbk, (7, 7)),
])
def test_exported_paths_are_in_endpoint_then_word_order(build, args):
    # exported paths are ordered by (one-line endpoint, word), whatever the
    # insertion order, with endpoints from the letter oracle; the builders
    # insert each endpoint's words in order, so the reversed copy is what
    # exercises the word tie-breaks
    built = build(*args)
    rows = sorted(built.paths.items(),
                  key=lambda row: (list(path_endpoint(built.n, row[0].word).map), row[0].word))
    want = json_bytes([{"word": list(p.word), "weight": str(built.unit * c)} for p, c in rows])
    reversed_paths = dict(reversed(list(built.paths.items())))
    for flow in (built, built._replace(paths=reversed_paths)):
        assert json_bytes(flow_to_json_obj(flow)["paths"]) == want


def test_flow_report_rows_render():
    rep = congestion_A(build_odd_flow_tbk(5, 3))
    text = csv_bytes(("generator", "q_weight", "term"), rep.per_generator).decode()
    header, *rows = [line.split(",") for line in text.splitlines()]
    assert header == ["generator", "q_weight", "term"]
    assert {r[0] for r in rows} == {"s3", "s4", "s5", "s3inv", "s4inv", "s5inv"}
    assert all(r[1] == "1/6" for r in rows)
    assert max(Fraction(r[2]) for r in rows) == rep.a_value
