import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shufflemix.flows as flows
from oracles import (
    bfs_distances_nx,
    congestion_from_weights,
    dirichlet_form_operator,
    o_compose,
    parse,
    path_endpoint,
)
from shufflemix.errors import CapacityError, UnreachableTargetError
from shufflemix.exact import group_table, least_eigenvalue_formula, mixing_time, spectrum
from shufflemix.flows import (
    CayleyPath,
    Flow,
    build_flow_general,
    build_flow_large_k,
    build_flow_rudvalis,
    build_odd_flow_tbk,
    comparison_bound_report,
    congestion_A,
    congestion_lower_bound,
    dirichlet_form,
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
    transposition_words_general,
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
    serialize,
    transposition,
)
from shufflemix.report import csv_bytes, json_bytes


# ---------------------------------------------------------------------------
# letters and endpoints


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


def test_endpoint_convention_pin():
    # sigma_3^{-1} sigma_5 sigma_4^{-1} sigma_3, multiplied left to right,
    # must land on the transposition (3, 5); this fixes the word-order
    # convention for every other path in the module
    p = CayleyPath(5, ("s3inv", "s5", "s4inv", "s3"))
    assert path_endpoint(p) == transposition(3, 5, 5)


def test_empty_word_is_identity():
    assert path_endpoint(CayleyPath(4, ())) == identity(4)


def test_generator_loops_close():
    for n in (1, 3, 5, 8):
        for l in range(1, n + 1):
            p = CayleyPath(n, (f"s{l}",) * l)
            assert p.endpoint.is_identity()
            assert p.length == l


def test_unknown_letter_raises_at_endpoint():
    with pytest.raises(ValueError):
        path_endpoint(CayleyPath(5, ("s9",)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(["s2", "s3", "s4", "s5", "s3inv", "s5inv", "tau"]), max_size=12))
def test_endpoint_matches_oracle_fold(word):
    p = CayleyPath(5, tuple(word))
    expected = tuple(range(1, 6))
    for name in word:
        expected = o_compose(expected, letter_perm(name, 5).map)
    assert p.endpoint.map == expected


def test_endpoint_is_cached_and_word_hashable():
    p = CayleyPath(6, ("s4", "s4inv"))
    assert p.endpoint == p.endpoint == identity(6)
    assert hash(p) == hash(CayleyPath(6, ("s4", "s4inv")))


# ---------------------------------------------------------------------------
# flow construction and verification


def test_flow_rejects_letter_outside_support():
    q = rudvalis_symmetric(5)       # support: sigma_5^{+-1}, (1,5), e
    target = SparseMeasure(5, {rank(cycle_generator(2, 5)): Fraction(1)})
    with pytest.raises(ValueError, match="support"):
        Flow(target=target, q=q, unit=Fraction(1), paths={CayleyPath(5, ("s2",)): 1})


def test_flow_rejects_negative_weight_and_size_mismatch():
    q = symmetrize(top_to_bottom_k(4, 2))
    with pytest.raises(ValueError, match="multiplicity"):
        Flow(target=random_transposition(4), q=q, unit=Fraction(1, 2),
             paths={CayleyPath(4, ("s3",)): -1})
    with pytest.raises(ValueError, match="size"):
        Flow(target=random_transposition(5), q=q, unit=Fraction(1), paths={})


@pytest.mark.parametrize("c", [Fraction(1), Fraction(1, 2), 1.0, 0.5])
def test_flow_rejects_non_int_multiplicity(c):
    q = symmetrize(top_to_bottom_k(4, 2))
    with pytest.raises(ValueError, match="multiplicity"):
        Flow(target=random_transposition(4), q=q, unit=Fraction(1, 16),
             paths={CayleyPath(4, ("s3",)): c})


@pytest.mark.parametrize("unit", [Fraction(0), Fraction(-1, 16), 0, 1, 0.0625])
def test_flow_rejects_unit_other_than_a_positive_fraction(unit):
    q = symmetrize(top_to_bottom_k(4, 2))
    with pytest.raises(ValueError, match="unit"):
        Flow(target=random_transposition(4), q=q, unit=unit,
             paths={CayleyPath(4, ("s3",)): 1})


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
    target = SparseMeasure(4, {rank(g): Fraction(2, 3), rank(identity(4)): Fraction(1, 3)})
    q = symmetrize(top_to_bottom_k(4, 4))
    flow = Flow(target=target, q=q, unit=Fraction(1, 3),
                paths={CayleyPath(4, ("s3",)): 2, CayleyPath(4, ()): 1})
    assert {p.word: flow.unit * c for p, c in flow.paths.items()} == {
        ("s3",): Fraction(2, 3), (): Fraction(1, 3)}
    assert verify_flow(flow).exact


# ---------------------------------------------------------------------------
# congestion


def test_congestion_single_path_formula():
    # one path of length 1 through s with weight w: A = w / q(s)
    q = symmetrize(top_to_bottom_k(3, 3))
    target = SparseMeasure(3, {rank(cycle_generator(3, 3)): Fraction(1)})
    flow = Flow(target=target, q=q, unit=Fraction(1), paths={CayleyPath(3, ("s3",)): 1})
    assert flow.unit * flow.paths[CayleyPath(3, ("s3",))] == 1
    rep = congestion_A(flow)
    assert rep.a_value == Fraction(1) / q.weight(cycle_generator(3, 3)) == 6
    terms = {name: term for name, _, term in rep.per_generator}
    assert terms["s3"] == 6 and terms["s3inv"] == 0


def test_congestion_empty_path_contributes_nothing():
    q = symmetrize(top_to_bottom_k(4, 4))
    target = SparseMeasure(4, {rank(identity(4)): Fraction(1)})
    flow = Flow(target=target, q=q, unit=Fraction(1), paths={CayleyPath(4, ()): 1})
    assert flow.unit * flow.paths[CayleyPath(4, ())] == 1
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
    with pytest.raises(UnreachableTargetError):
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
                paths={CayleyPath(4, ("s3", "s4")): 1})
    assert flow.unit * flow.paths[CayleyPath(4, ("s3", "s4"))] == 1
    with pytest.raises(ValueError, match="odd"):
        odd_flow_eigenvalue_bound(flow)


def test_odd_flow_bound_needs_the_identity_target():
    # odd loops, but beta~_min of a random-transposition target is not 1
    q = symmetrize(top_to_bottom_k(4, 4))
    flow = Flow(target=random_transposition(4), q=q, unit=Fraction(1),
                paths={CayleyPath(4, ("s3",) * 3): 1})
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
                        end = CayleyPath(n, word).endpoint
                        assert end == transposition(i, j, n), (n, k, i, j, word)


def test_large_k_words_end_at_their_transposition():
    for n, C in ((6, 0), (7, 1), (9, 2), (11, 3), (12, 3), (12, 4)):
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                word = transposition_word_large_k(n, C, i, j)
                end = CayleyPath(n, word).endpoint
                assert end == transposition(i, j, n), (n, C, i, j, word)
                if i <= C:
                    assert len(word) <= 2 * C + 6
                else:
                    assert len(word) <= 4


def test_general_flow_marginals_and_lengths():
    for n, k in ((5, 3), (6, 2), (6, 6), (8, 4), (10, 5), (12, 6), (12, 12)):
        flow = build_flow_general(n, k)
        assert verify_flow(flow).exact
        assert max(p.length for p in flow.paths) <= 2 * n + 12
        assert flow.unit * flow.paths[CayleyPath(n, ())] == Fraction(1, n)


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
        assert flow.unit * flow.paths[CayleyPath(n, ())] == Fraction(1, n)
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
            assert CayleyPath(n, word).endpoint == cycle_generator(l, n)
    assert rudvalis_generator_word(6, 6) == ("s6",)


def test_rudvalis_flow_marginals_and_bound():
    for n, k in ((2, 2), (6, 3), (8, 8), (12, 5)):
        flow = build_flow_rudvalis(n, k)
        assert verify_flow(flow).exact
        rep = congestion_A(flow)
        assert rep.a_value <= rudvalis_congestion_bound(n, k), (n, k)
    # identity atom at k = n rides the empty path
    flow = build_flow_rudvalis(8, 8)
    assert flow.unit * flow.paths[CayleyPath(8, ())] == Fraction(1, 8)


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


def test_comparison_bound_report_5_3():
    t2_rt = mixing_time(random_transposition(5), "l2").mixing_time
    rep = comparison_bound_report(build_flow_general(5, 3), t2_rt)
    assert rep.holds
    assert rep.slack > 0
    assert rep.bound == max(rep.term_reference, rep.term_entropy, rep.term_beta)
    assert rep.t2_exact == mixing_time(symmetrize(top_to_bottom_k(5, 3)), "l2").mixing_time


def test_comparison_bound_nonnegative_spectrum_drops_third_term():
    base = build_flow_general(4, 2)
    lazy_q = lazy(base.q, Fraction(1, 2))
    flow = Flow(target=base.target, q=lazy_q, unit=base.unit, paths=base.paths)
    t2_rt = mixing_time(random_transposition(4), "l2").mixing_time
    rep = comparison_bound_report(flow, t2_rt)
    assert rep.term_beta == 0.0
    assert rep.holds


def _uniform(n, perms):
    return SparseMeasure(n, {rank(g): Fraction(1, len(perms)) for g in perms})


@pytest.mark.parametrize("q", [
    # support in a proper subgroup: the eigenvalue 1 repeats, gap 0
    pytest.param(_uniform(3, [identity(3), transposition(1, 2, 3)]), id="gap0"),
    # every step odd: the walk is periodic, beta_min = -1
    pytest.param(_uniform(3, [transposition(1, 2, 3), transposition(2, 3, 3)]),
                 id="periodic"),
])
def test_comparison_bound_refuses_a_walk_that_never_mixes(q, monkeypatch):
    def no_walk(*args):
        raise AssertionError("T2 searched for a walk that never mixes")
    monkeypatch.setattr(flows, "hitting_time", no_walk)
    flow = Flow(target=delta_e(3), q=q, unit=Fraction(1), paths={CayleyPath(3, ()): 1})
    with pytest.raises(ValueError, match="does not mix"):
        comparison_bound_report(flow, 1)


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


def test_flow_report_rows_render():
    rep = congestion_A(build_odd_flow_tbk(5, 3))
    text = csv_bytes(("generator", "q_weight", "term"), rep.per_generator).decode()
    header, *rows = [line.split(",") for line in text.splitlines()]
    assert header == ["generator", "q_weight", "term"]
    assert {r[0] for r in rows} == {"s3", "s4", "s5", "s3inv", "s4inv", "s5inv"}
    assert all(r[1] == "1/6" for r in rows)
    assert max(Fraction(r[2]) for r in rows) == rep.a_value
