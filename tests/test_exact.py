import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import shufflemix.exact as exact
from oracles import (
    bfs_distances_nx,
    brute_power,
    densify,
    distance_profile,
    eigen_matrix,
    l2_from_spectrum,
    o_compose,
    o_cycle,
    o_inverse,
    o_transposition,
    scalar_lp,
    scalar_tv,
    tbk_pairs,
)
from shufflemix.errors import CapacityError
from shufflemix.exact import (
    DenseDistribution,
    cayley_distances,
    convolve_step,
    group_table,
    hitting_time,
    least_eigenvalue_formula,
    lp_distance,
    mixing_time,
    point_mass,
    spectrum,
    transfer_checks,
    tv_distance,
)
from shufflemix.measures import (
    convolve_measures,
    delta_e,
    lazy,
    random_transposition,
    reversal,
    rudvalis_symmetric,
    symmetrize,
    top_to_bottom_k,
)
from shufflemix.perms import cycle_generator, identity, inverse, rank, unrank


def uniform(n):
    size = math.factorial(n)
    return DenseDistribution(n, np.full(size, 1.0 / size))


def test_convolve_point_mass_densifies():
    q = top_to_bottom_k(4, 2)
    d = convolve_step(point_mass(4), q)
    assert np.allclose(d.probs, densify(q).probs, atol=0)


def test_uniform_is_stationary():
    q = top_to_bottom_k(4, 3)
    d = convolve_step(uniform(4), q)
    assert np.max(np.abs(d.probs - 1.0 / 24)) < 1e-15


def test_two_step_matches_word_enumeration(frozen):
    # frozen from the 9-word oracle
    expected = frozen.get("tbk_3_3_two_step")
    d = point_mass(3)
    q = top_to_bottom_k(3, 3)
    d = convolve_step(convolve_step(d, q), q)
    t = group_table(3)
    for key, val in expected.items():
        r = t.index[tuple(int(x) for x in key.split(","))]
        assert abs(d.probs[r] - float(Fraction(val))) < 1e-15


def test_two_step_matches_oracle_directly():
    # same check straight from the oracle, all n <= 4, k <= n, m <= 3
    for n in (3, 4):
        for k in range(2, n + 1):
            for m in range(4):
                expected = brute_power(tbk_pairs(n, k), n, m)
                d = point_mass(n)
                q = top_to_bottom_k(n, k)
                for _ in range(m):
                    d = convolve_step(d, q)
                t = group_table(n)
                for g, w in expected.items():
                    assert abs(d.probs[t.index[g]] - float(w)) < 1e-14


def test_dense_cap():
    with pytest.raises(CapacityError):
        group_table(9)


def test_tv_point_mass():
    assert abs(tv_distance(point_mass(3)) - 5 / 6) < 1e-15


def test_tv_uniform_zero():
    assert tv_distance(uniform(4)) < 1e-15


def test_tv_one_step_s2():
    d = convolve_step(point_mass(2), top_to_bottom_k(2, 2))
    assert tv_distance(d) < 1e-15


def test_lp_examples():
    assert lp_distance(uniform(3), 2) < 1e-15
    assert abs(lp_distance(point_mass(3), 2) - math.sqrt(5)) < 1e-14
    with pytest.raises(ValueError):
        lp_distance(uniform(3), 3)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_vectorised_distances_equal_scalar_sums(n):
    # the array terms must hand fsum exactly the doubles of the per-term sums
    for k in (2, n):
        q = top_to_bottom_k(n, k)
        for walk in (q, symmetrize(q), lazy(q, Fraction(1, 2))):
            d = point_mass(n)
            for _ in range(8):
                assert tv_distance(d) == scalar_tv(d)
                assert lp_distance(d, 1) == scalar_lp(d, 1)
                assert lp_distance(d, 2) == scalar_lp(d, 2)
                d = convolve_step(d, walk)


def test_l1_is_twice_tv():
    q = top_to_bottom_k(4, 3)
    d = point_mass(4)
    for _ in range(6):
        d = convolve_step(d, q)
        assert abs(lp_distance(d, 1) - 2 * tv_distance(d)) < 1e-14


def test_mixing_time_2_2(frozen):
    rep = mixing_time(top_to_bottom_k(2, 2), "tv", 10)
    assert rep.mixing_time == frozen.get("mixing_time_tv_tbk_2_2") == 1


def test_mixing_time_3_3(frozen):
    rep = mixing_time(top_to_bottom_k(3, 3), "tv", 10)
    assert rep.mixing_time == frozen.get("mixing_time_tv_tbk_3_3") == 2
    assert not rep.saturated


def test_mixing_profile_non_increasing():
    rep = mixing_time(top_to_bottom_k(4, 2), "l2", 40)
    dists = [d for _, d in rep.profile]
    for a, b in zip(dists, dists[1:]):
        assert b <= a + 1e-12


def test_saturation_reported():
    rep = mixing_time(top_to_bottom_k(5, 2), "tv", 2)
    assert rep.saturated and rep.mixing_time is None
    # m_max = 0 profiles the start state alone; below 0 there is no profile
    rep = mixing_time(top_to_bottom_k(5, 2), "tv", 0)
    assert rep.saturated and rep.profile == ((0, tv_distance(point_mass(5))),)
    with pytest.raises(ValueError, match="m_max"):
        mixing_time(top_to_bottom_k(5, 2), "tv", -1)


@pytest.mark.parametrize("n", range(2, 6))
def test_tv_time_below_l2_time(n):
    for k in range(2, n + 1):
        q = top_to_bottom_k(n, k)
        t1 = mixing_time(q, "tv", 100).mixing_time
        t2 = mixing_time(q, "l2", 100).mixing_time
        assert t1 is not None and t2 is not None and t1 <= t2


def test_reversal_distance_equality():
    # the walk and its reversal share every distance profile
    for n in (3, 4):
        for k in range(2, n + 1):
            q = top_to_bottom_k(n, k)
            rows_q = distance_profile(q, 15)
            rows_r = distance_profile(reversal(q), 15)
            for (m, tv_a, l2_a), (_, tv_b, l2_b) in zip(rows_q, rows_r):
                assert abs(tv_a - tv_b) < 1e-12
                assert abs(l2_a - l2_b) < 1e-12


def test_submultiplicativity():
    q = top_to_bottom_k(4, 3)
    for metric, p in (("tv", 1), ("l2", 2)):
        t = mixing_time(q, metric, 60).mixing_time
        d = point_mass(4)
        for m in range(1, 61):
            d = convolve_step(d, q)
            if m >= t:
                assert lp_distance(d, p) <= math.exp(-(m // t)) + 1e-12


def test_spectrum_s2():
    rep = spectrum(top_to_bottom_k(2, 2))
    assert np.allclose(rep.eigenvalues, [0.0, 1.0], atol=1e-12)
    assert abs(rep.beta_min) < 1e-12


def test_spectrum_beta_min_fixture(frozen):
    rep = spectrum(symmetrize(top_to_bottom_k(3, 2)))
    assert abs(rep.beta_min - frozen.get("beta_min_sym_tbk_3_2")) < 1e-12


def test_spectrum_top_eigenvalue_one():
    for n, k in [(3, 2), (4, 4), (5, 2)]:
        rep = spectrum(symmetrize(top_to_bottom_k(n, k)))
        assert abs(rep.eigenvalues[-1] - 1.0) < 1e-10
        assert rep.eigenvalues[0] >= -1.0 - 1e-10


def test_spectrum_rejects_asymmetric():
    with pytest.raises(ValueError):
        spectrum(top_to_bottom_k(3, 3))


def test_spectrum_cap():
    with pytest.raises(CapacityError):
        spectrum(random_transposition(9))


def _spectrum_cases():
    for n in range(2, 7):
        for k in range(2, n + 1):
            yield f"sym{n}_{k}", lambda n=n, k=k: symmetrize(top_to_bottom_k(n, k))
    for n in range(2, 6):
        yield f"rt{n}", lambda n=n: random_transposition(n)
    for n in range(2, 7):
        yield f"rudvalis{n}", lambda n=n: rudvalis_symmetric(n)
    yield "lazy_sym4_4", lambda: lazy(symmetrize(top_to_bottom_k(4, 4)), Fraction(1, 2))


@pytest.mark.parametrize("make", [pytest.param(m, id=name) for name, m in _spectrum_cases()])
def test_spectrum_matches_dense_oracle(make):
    # the representation split against eigvalsh of the n! x n! matrix built
    # with the independent oracle product
    q = make()
    pairs = [(g.map, w) for g, w in q.items()]
    want = np.linalg.eigvalsh(eigen_matrix(pairs, q.n))
    got = spectrum(q).eigenvalues
    assert got.shape == want.shape == (math.factorial(q.n),)
    assert np.allclose(got, want, rtol=0, atol=1e-10)


def test_least_eigenvalue_formula_values():
    assert least_eigenvalue_formula(5, 3) == Fraction(-35, 36)
    for n in (3, 4, 5):
        assert least_eigenvalue_formula(n, n) == -1 + Fraction(n - 1, 2 * n * (n + 1))


def test_beta_min_bound_5_3(frozen):
    beta_min = spectrum(symmetrize(top_to_bottom_k(5, 3))).beta_min
    assert abs(beta_min - frozen.get("beta_min_sym_tbk_5_3")) < 1e-10
    assert beta_min >= float(least_eigenvalue_formula(5, 3)) - 1e-12


@pytest.mark.parametrize("n", range(2, 9))
def test_beta_min_bound_grid(n):
    for k in range(2, n + 1):
        beta_min = spectrum(symmetrize(top_to_bottom_k(n, k))).beta_min
        assert beta_min >= float(least_eigenvalue_formula(n, k)) - 1e-12, (n, k)


def test_l2_from_spectrum_m0():
    q = symmetrize(top_to_bottom_k(4, 2))
    assert abs(l2_from_spectrum(q, 0) - 23) < 1e-9


def test_l2_from_spectrum_matches_convolution():
    # Plancherel; at n = 7 and 8 no dense eigendecomposition is affordable,
    # so this is the check of the whole spectrum there
    for n, k, m in [(4, 2, 10), (7, 3, 10), (8, 4, 12)]:
        q = symmetrize(top_to_bottom_k(n, k))
        val = l2_from_spectrum(q, m)
        d = point_mass(n)
        for _ in range(m):
            d = convolve_step(d, q)
        ref = lp_distance(d, 2) ** 2
        assert abs(val - ref) < 1e-8, (n, k, m)
        assert abs(val - ref) <= 1e-9 * ref, (n, k, m, val, ref)


def test_l2_from_spectrum_decays():
    q = symmetrize(top_to_bottom_k(4, 4))
    assert l2_from_spectrum(q, 60) < 1e-6


def test_transfer_checks_3_2():
    rep = transfer_checks(3, 2)
    assert rep.tv_le_l2 and rep.doubling_holds
    # q * q* = {e, (1 3)} with equal mass: a proper subgroup, so the doubling
    # bound's right side is infinite and the inequality holds vacuously
    assert rep.doubling_vacuous and rep.t_l2_qq_star is None
    assert rep.doubling_lazy_holds
    assert all(ok for _, _, _, ok in rep.lazy_rows)


def test_transfer_qq_star_fixes_card_two_whenever_k_lt_n():
    # every atom sigma_a sigma_b^{-1} with a, b >= 2 sends 2 -> 2, so the
    # pair measure is reducible exactly when k < n
    for n in range(2, 6):
        for k in range(2, n + 1):
            q = top_to_bottom_k(n, k)
            qq = convolve_measures(q, reversal(q))
            generates = (cayley_distances(n, qq.support()) >= 0).all()
            if k < n:
                assert all(g.map[1] == 2 for g, _ in qq.items())
                assert not generates
            else:
                assert generates


def _nx_distances(gens, n):
    # networkx omits unreachable vertices; -1 marks them, as cayley_distances does
    found = bfs_distances_nx([g.map for g in gens], n)
    return [found.get(p, -1) for p in group_table(n).perms]


@pytest.mark.parametrize("n", range(2, 7))
def test_cayley_distances_match_networkx(n):
    shuffle = symmetrize(top_to_bottom_k(n, max(2, n - 1))).support()
    rudvalis = rudvalis_symmetric(n).support()
    for gens in (shuffle, rudvalis):
        dist = cayley_distances(n, gens)
        assert dist.tolist() == _nx_distances(gens, n)
        assert dist[0] == 0 and (dist >= 0).all()


def test_cayley_distances_mark_a_proper_subgroup():
    # q * q* at (4, 2) is e plus one transposition that fixes card 2, so
    # only 2 of the 24 ranks are reachable
    q = top_to_bottom_k(4, 2)
    gens = convolve_measures(q, reversal(q)).support()
    dist = cayley_distances(4, gens)
    assert dist.tolist() == _nx_distances(gens, 4)
    reached = [unrank(r, 4) for r in np.flatnonzero(dist >= 0)]
    assert len(reached) == 2 and all(g.map[1] == 2 for g in reached)
    # the identity alone reaches nothing else, and inverses are one step away
    assert cayley_distances(4, [identity(4)]).tolist() == [0] + [-1] * 23
    c = cycle_generator(4, 4)
    assert cayley_distances(4, [c])[rank(inverse(c))] == 1


@pytest.mark.parametrize("eps", [0.0, -0.5, math.inf, math.nan])
def test_transfer_rejects_bad_eps(eps):
    with pytest.raises(ValueError, match="eps"):
        transfer_checks(3, 2, eps_grid=(0.5, eps))


def test_transfer_rejects_empty_eps_grid():
    with pytest.raises(ValueError, match="eps"):
        transfer_checks(3, 2, eps_grid=())


def test_transfer_checks_4_4():
    rep = transfer_checks(4, 4)
    assert rep.tv_le_l2 and rep.doubling_holds
    assert not rep.doubling_vacuous and rep.t_l2_qq_star is not None
    assert rep.t_l2 <= 2 * rep.t_l2_qq_star
    assert rep.doubling_lazy_holds
    assert all(ok for _, _, _, ok in rep.lazy_rows)


def test_transfer_constant_dominates_at_tiny_n():
    # at eps near 1 the additive constant 80/(p eps^2) = 160 swamps any small-n T
    rep = transfer_checks(3, 2, eps_grid=(1.0 - 1e-9,))
    _, t_lazy, bound, ok = rep.lazy_rows[0]
    assert bound >= 160 - 1e-6 and t_lazy < 160 and ok


def test_group_table_right_mul_bijection():
    # every letter's table, n = 1 included, is the oracle product over the
    # itertools.permutations (rank) order
    for n in range(1, 6):
        t = group_table(n)
        perms = list(itertools.permutations(range(1, n + 1)))
        cycles = [o_cycle(l, n) for l in range(1, n + 1)]
        letters = cycles + [o_inverse(c) for c in cycles]
        letters += [o_transposition(1, n, n)] if n > 1 else []
        for s in letters:
            j = t.right_mul(s).tolist()
            assert sorted(j) == list(range(len(perms)))
            assert [perms[r] for r in j] == [o_compose(p, s) for p in perms], (n, s)


def test_dense_distribution_validation():
    with pytest.raises(ValueError):
        DenseDistribution(3, np.zeros(6))
    with pytest.raises(ValueError):
        DenseDistribution(3, np.full(5, 0.2))
    bad = np.full(6, 1 / 6)
    bad[0] = -1e-3
    bad[1] += 1e-3 + 1 / 6
    with pytest.raises(ValueError):
        DenseDistribution(3, bad)


def test_unrank_consistent_with_table():
    t = group_table(4)
    for r in (0, 5, 17, 23):
        assert unrank(r, 4).map == t.perms[r]


def _transfer_walks(n, k, p):
    """The walks transfer_checks times, with their metrics; q * q* only at
    k = n, where it generates."""
    q = top_to_bottom_k(n, k)
    lq = lazy(q, p)
    walks = [(q, "tv"), (q, "l2"), (lq, "tv"), (lq, "l2"),
             (convolve_measures(reversal(lq), lq), "l2")]
    if k == n:
        walks.append((convolve_measures(q, reversal(q)), "l2"))
    return walks


_TRANSFER_CASES = [(n, k, Fraction(1, 2)) for n in range(2, 8) for k in range(2, n + 1)]
_TRANSFER_CASES += [(3, 2, Fraction(1, 3)), (5, 3, Fraction(1, 3)), (6, 6, Fraction(1, 3))]


@pytest.mark.parametrize("n,k,p", [
    pytest.param(n, k, p, id=f"n{n}k{k}p{p.numerator}-{p.denominator}")
    for n, k, p in _TRANSFER_CASES])
def test_hitting_time_matches_the_profile(n, k, p):
    # with t <= 400, the first hit of the 400-step profile is t exactly when
    # the first hit of the t-step profile is t; the shorter profile is cheaper
    for walk, metric in _transfer_walks(n, k, p):
        t = hitting_time(walk, metric)
        assert t <= 400
        assert mixing_time(walk, metric, t).mixing_time == t


def test_transfer_times_are_hitting_times():
    rep = transfer_checks(5, 5, Fraction(1, 3))
    times = [hitting_time(w, m) for w, m in _transfer_walks(5, 5, Fraction(1, 3))]
    assert times == [rep.t_tv, rep.t_l2, rep.t_tv_lazy, rep.t_l2_lazy,
                     rep.t_l2_lazy_pair, rep.t_l2_qq_star]


@pytest.mark.parametrize("n", range(2, 8))
def test_pair_generates_exactly_when_k_is_n(n):
    # transfer_checks sets doubling_vacuous = k < n on this fact, with no BFS
    for k in range(2, n + 1):
        q = top_to_bottom_k(n, k)
        qq = convolve_measures(q, reversal(q))
        assert (cayley_distances(n, qq.support()) >= 0).all() == (k == n)


def test_transfer_refuses_the_dense_cap_before_building(monkeypatch):
    def no_measure(*args):
        raise AssertionError("measure built above the dense cap")
    monkeypatch.setattr(exact, "top_to_bottom_k", no_measure)
    with pytest.raises(CapacityError):
        transfer_checks(9, 2)
