import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import shufflemix.exact as exact
from oracles import (
    bfs_distances_nx,
    brute_power,
    convolve_measures,
    densify,
    dict_table,
    distance_profile,
    eigen_matrix,
    hitting_time,
    l2_from_spectrum,
    lp_distance,
    o_compose,
    o_cycle,
    o_inverse,
    o_transposition,
    scalar_lp,
    scatter_step,
    scalar_tv,
    tbk_pairs,
)
from shufflemix.coupling import _unselected_chain
from shufflemix.errors import CapacityError
from shufflemix.exact import (
    DenseDistribution,
    cayley_distances,
    convolve_step,
    coupling_tail,
    group_table,
    least_eigenvalue_formula,
    mixing_time,
    point_mass,
    spectrum,
    spectrum_t2,
    t2,
    top_to_random_tv,
    transfer_checks,
    tv_distance,
)
from shufflemix.measures import (
    SparseMeasure,
    delta_e,
    lazy,
    random_transposition,
    reversal,
    rudvalis_symmetric,
    symmetrize,
    top_to_bottom_k,
)
from shufflemix.perms import cycle_generator, identity, inverse, rank, transposition


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
    t = dict_table(3)
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
                t = dict_table(n)
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
    # the array terms are the per-term doubles, and the binned reader sums
    # them exactly as fsum does, so both distances equal the scalar sums
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


def test_dirichlet_constants_refuse_asymmetric_or_non_generating_walks():
    sym = symmetrize(top_to_bottom_k(4, 2))
    tbk = top_to_bottom_k(4, 2)
    for target, q in ((tbk, sym), (random_transposition(4), tbk)):
        with pytest.raises(ValueError, match="symmetric measure"):
            exact.dirichlet_constants(target, q)
    # each generates a proper subgroup; in floats the point mass at (2, 4)
    # leaves a Cholesky pivot of about 1e-16 rather than failing outright
    swap = SparseMeasure.from_pairs(4, [(transposition(2, 4, 4), 1)])
    for q in (delta_e(4), lazy(swap, Fraction(1, 2)), swap):
        with pytest.raises(ValueError, match="does not generate"):
            exact.dirichlet_constants(random_transposition(4), q)


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
    return [found.get(p, -1) for p in dict_table(n).perms]


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
    reached = [dict_table(4).perms[r] for r in np.flatnonzero(dist >= 0)]
    assert len(reached) == 2 and all(m[1] == 2 for m in reached)
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


def test_group_table_maps_are_the_permutations_in_rank_order():
    for n in range(1, 9):
        want = np.array(list(itertools.permutations(range(1, n + 1))), dtype=np.int8)
        got = group_table(n).maps
        assert got.dtype == np.int8 and np.array_equal(got, want.reshape(-1, n)), n


def _walk_atoms(n):
    k = n - 2
    measures = (top_to_bottom_k(n, k), symmetrize(top_to_bottom_k(n, k)),
                lazy(top_to_bottom_k(n, n), Fraction(1, 2)), rudvalis_symmetric(n),
                random_transposition(n))
    return sorted({g.map for q in measures for g in q.support()})


@pytest.mark.parametrize("n", range(1, 6))
def test_right_mul_matches_the_dict_oracle_on_all_of_s_n(n):
    t = group_table(n)
    for s in dict_table(n).perms:
        assert t.right_mul(s).tolist() == dict_table(n).right_mul(s), s


@pytest.mark.parametrize("n", [7, 8])
def test_right_mul_matches_the_dict_oracle_on_walk_atoms(n):
    t = group_table(n)
    for s in _walk_atoms(n):
        assert t.right_mul(s).tolist() == dict_table(n).right_mul(s), s


@pytest.mark.parametrize("n", [6, 7])
def test_gather_step_is_bitwise_the_scatter_step(n):
    q = top_to_bottom_k(n, 3)
    for walk in (q, symmetrize(q), lazy(q, Fraction(1, 2))):
        d = point_mass(n)
        for _ in range(20):
            nxt = convolve_step(d, walk)
            assert np.array_equal(nxt.probs, scatter_step(d, walk))
            d = nxt


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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_dense_distribution_refuses_a_non_finite_entry(value):
    probs = np.full(6, 1 / 6)
    probs[2] = value
    with pytest.raises(ValueError):
        DenseDistribution(3, probs)


def test_dense_distribution_keeps_a_read_only_view_of_its_array():
    probs = np.full(6, 1 / 6)
    d = DenseDistribution(3, probs)
    assert np.shares_memory(d.probs, probs) and probs.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        d.probs[0] = 0.5
    clipped = np.array([-1e-16, 0.2, 0.2, 0.2, 0.2, 0.2])
    e = DenseDistribution(3, clipped)        # a negative entry: clipped in a copy
    assert not np.shares_memory(e.probs, clipped) and clipped[0] < 0 == e.probs[0]


@pytest.mark.parametrize("n", [3, 8])
@pytest.mark.parametrize("off", [2e-12, -2e-12])
def test_dense_distribution_refuses_a_sum_off_by_2e_12(n, off):
    size = math.factorial(n)
    probs = np.full(size, 1 / size)
    probs[0] += off
    with pytest.raises(ValueError, match="sum to"):
        DenseDistribution(n, probs)
    probs[0] -= 3 * off / 4                  # 5e-13 off: accepted
    DenseDistribution(n, probs)


def _symmetric_walks(n, k, p):
    """The symmetric pair walks transfer_checks times at (n, k, p); q * q*
    only at k = n, where it generates."""
    q = top_to_bottom_k(n, k)
    lq = lazy(q, p)
    return [convolve_measures(reversal(lq), lq)] + (
        [convolve_measures(q, reversal(q))] if k == n else [])


def _transfer_walks(n, k, p):
    """The walks transfer_checks times, with their metrics."""
    q = top_to_bottom_k(n, k)
    lq = lazy(q, p)
    return [(q, "tv"), (q, "l2"), (lq, "tv"), (lq, "l2")] + [
        (walk, "l2") for walk in _symmetric_walks(n, k, p)]


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


_HALF_AND_THIRD = [(n, k, p) for n in range(2, 8) for k in range(2, n + 1)
                   for p in (Fraction(1, 2), Fraction(1, 3))]


@pytest.mark.parametrize("n,k,p", [
    pytest.param(n, k, p, id=f"n{n}k{k}p{p.numerator}-{p.denominator}")
    for n, k, p in _HALF_AND_THIRD])
def test_transfer_engines_match_the_dense_oracle(n, k, p):
    q = top_to_bottom_k(n, k)
    lq = lazy(q, p)
    pair, *qq = _symmetric_walks(n, k, p)
    for walk in [q, lq, pair, *qq]:
        assert t2(walk) == hitting_time(walk, "l2")
    rep = transfer_checks(n, k, p)
    assert (rep.t_tv, rep.t_tv_lazy) == (hitting_time(q, "tv"), hitting_time(lq, "tv"))
    # transfer reads every T2 off q's blocks; t2 transforms each walk itself
    assert (rep.t_l2, rep.t_l2_lazy, rep.t_l2_lazy_pair) == (t2(q), t2(lq), t2(pair))
    assert rep.t_l2_qq_star == (t2(qq[0]) if qq else None)


@pytest.mark.parametrize("n,k,p", [
    pytest.param(n, k, p, id=f"n{n}k{k}p{p.numerator}-{p.denominator}")
    for n, k, p in _HALF_AND_THIRD if n <= 6])
def test_transfer_block_algebra_matches_the_transforms(n, k, p):
    # (a * b)^ = b^ a^, (q*)^ = (q^)^T and lazy_p(q)^ = p q^ + (1 - p) I, at
    # every shape, the trivial one included
    q = top_to_bottom_k(n, k)
    lq = lazy(q, p)
    derived = {"lazy": [], "qq_star": [], "pair": []}
    for _, b in exact._blocks(q):
        lb = float(p) * b + float(1 - p) * np.eye(len(b))
        derived["lazy"].append(lb)
        derived["qq_star"].append(b.T @ b)
        derived["pair"].append(lb @ lb.T)
    measures = {"lazy": lq, "qq_star": convolve_measures(q, reversal(q)),
                "pair": convolve_measures(reversal(lq), lq)}
    for name, walk in measures.items():
        want = [b for _, b in exact._blocks(walk)]
        assert len(want) == len(derived[name])
        for got, block in zip(derived[name], want):
            assert np.abs(got - block).max() <= 1e-12, name


@pytest.mark.parametrize("n,k", [(6, 3), (6, 6), (8, 8)])
def test_transfer_transforms_q_once(n, k, monkeypatch):
    # the lazy walk, q * q* and the lazy pair take their blocks from q's
    calls = []
    blocks = exact._blocks

    def counted(q):
        calls.append(q)
        return blocks(q)
    monkeypatch.setattr(exact, "_blocks", counted)
    transfer_checks(n, k)
    assert calls == [top_to_bottom_k(n, k)]


def test_spectral_t2_matches_the_dense_oracle_at_8():
    for walk in _symmetric_walks(8, 8, Fraction(1, 2)):
        want = hitting_time(walk, "l2")
        assert t2(walk) == spectrum_t2(spectrum(walk)) == want


@pytest.mark.parametrize("n", range(2, 8))
def test_spectral_t2_of_the_comparison_walks_matches_the_dense_oracle(n):
    walks = [random_transposition(n), rudvalis_symmetric(n)]
    walks += [symmetrize(top_to_bottom_k(n, k)) for k in range(2, n + 1)]
    for walk in walks:
        want = hitting_time(walk, "l2")
        assert t2(walk) == spectrum_t2(spectrum(walk)) == want


@pytest.mark.parametrize("n,k,times", [(6, 6, 27), (6, 3, 21)])
def test_transfer_walks_q_and_lazy_q_once_each(n, k, times, monkeypatch):
    # T steps for q plus T_lazy for lazy(q), to the TV threshold only, and
    # none at k = n, where the unselected-count chain gives both; every T2
    # comes from the Fourier blocks, so no walk is stepped for L2
    calls = []
    step = exact.convolve_step

    def counted(d, q):
        calls.append(q)
        return step(d, q)
    monkeypatch.setattr(exact, "convolve_step", counted)
    rep = transfer_checks(n, k)
    assert len(calls) == (0 if k == n else times)
    assert times == rep.t_tv + rep.t_tv_lazy


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("p", [None, Fraction(1, 2), Fraction(1, 3), Fraction(9, 10)])
def test_top_to_random_tv_matches_the_dense_walk(n, p):
    q = top_to_bottom_k(n, n)
    q = q if p is None else lazy(q, p)
    want = mixing_time(q, "tv", 60)
    got = top_to_random_tv(n, p, 60)
    for (m, dist), (m_want, dist_want) in zip(got.profile, want.profile, strict=True):
        assert m == m_want
        assert abs(dist - dist_want) <= 1e-14, (m, dist, dist_want)
    assert (got.mixing_time, got.saturated) == (want.mixing_time, want.saturated)
    assert (got.metric, got.threshold) == ("tv", want.threshold)


def test_top_to_random_tv_at_400():
    # TV at m = round(c n ln n), and the TV mixing times, plain and lazy
    n = 400
    rep = top_to_random_tv(n, m_max=3000)
    for c, want in ((0.75, 0.7102), (1.0, 0.1305), (1.25, 0.01042)):
        m = round(c * n * math.log(n))
        assert f"{rep.profile[m][1]:.4g}" == f"{want:.4g}", (c, m)
    assert rep.mixing_time == 2295
    assert top_to_random_tv(n, Fraction(1, 2), m_max=5000).mixing_time == 4591


def test_top_to_random_tv_reads_past_the_settled_chain():
    # at n = 2 the unselected chain settles, and ends, after 1 076 values;
    # the profile still has all 3 001 entries, equal to the dense walk's,
    # which is exactly uniform from one step on
    assert sum(1 for _ in _unselected_chain(2, 1)) == 1076
    got = top_to_random_tv(2, m_max=3000)
    assert [m for m, _ in got.profile] == list(range(3001))
    assert got == mixing_time(top_to_bottom_k(2, 2), "tv", 3000)
    # the lazy chain settles later; every value from there on is the last one
    settled = sum(1 for _ in _unselected_chain(2, 1, 0.5))
    lazy_tail = [d for _, d in top_to_random_tv(2, Fraction(1, 2), m_max=5000).profile[settled - 1:]]
    assert len(lazy_tail) == 5002 - settled > 1 and set(lazy_tail) == {lazy_tail[0]}


@pytest.mark.parametrize("args", [(1,), (0,), (4, Fraction(1)), (4, Fraction(0)), (4, None, -1)])
def test_top_to_random_tv_validation(args):
    with pytest.raises(ValueError):
        top_to_random_tv(*args)


def _l2_walks(n):
    """tbk, sym and lazy(1/2) at every 2 <= k <= n, plus rt and Rudvalis."""
    walks = [random_transposition(n), rudvalis_symmetric(n)]
    for k in range(2, n + 1):
        q = top_to_bottom_k(n, k)
        walks += [q, symmetrize(q), lazy(q, Fraction(1, 2))]
    return walks


@pytest.mark.parametrize("n", range(2, 9))
def test_fourier_l2_profile_matches_the_dense_walk(n):
    for walk in _l2_walks(n):
        profile = mixing_time(walk, "l2", 60).profile
        d = point_mass(n)
        for m, dist in profile:
            assert abs(dist - lp_distance(d, 2)) <= 1e-12, (walk, m)
            d = convolve_step(d, walk)


def _sigma_n(n):
    return SparseMeasure.from_pairs(n, [(cycle_generator(n, n), 1)])


NEVER_MIXES = [pytest.param(_sigma_n(n), id=f"sigma{n}") for n in (3, 5, 8)] + [
    pytest.param(convolve_measures(q, reversal(q)), id=f"qq_star_n{q.n}")
    for q in (top_to_bottom_k(4, 2), top_to_bottom_k(6, 5))] + [
    # generates S_4 but every step is odd: periodic, with the sign block at -1
    pytest.param(SparseMeasure.from_pairs(4, [(transposition(1, 2, 4), Fraction(1, 2)),
                                              (cycle_generator(4, 4), Fraction(1, 2))]),
                 id="odd_coset")]


@pytest.mark.parametrize("q", NEVER_MIXES)
def test_t2_refuses_a_walk_that_never_mixes_without_a_dense_step(q, monkeypatch):
    def no_walk(*args):
        raise AssertionError("dense step taken for T2")
    monkeypatch.setattr(exact, "convolve_step", no_walk)
    with pytest.raises(ValueError, match="walk does not mix"):
        t2(q)


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


def same_double(a: float, b: float) -> bool:
    """Bit for bit, so 0.0 and -0.0 differ."""
    return a.hex() == b.hex()


finite = st.floats(min_value=-1e300, max_value=1e300)
tiny = st.floats(min_value=-1e-300, max_value=1e-300)       # subnormals included
terms = st.lists(st.one_of(finite, tiny, st.sampled_from([0.0, -0.0, 5e-324, -5e-324])),
                 max_size=300)


@settings(max_examples=400, deadline=None)
@given(terms, st.booleans())
@example([], False)
@example([-0.0], False)
@example([-0.0, -0.0, 0.0], False)
@example([1.0, 1e100, 1.0, -1e100], False)
@example([1 / 40320] * 40320, False)
@example([2.0 ** -1074] * 3 + [-(2.0 ** -1022)], False)
@example([7.935877660031598e-301] * 3 + [5e-324], False)    # lo parts below 2^-1022
def test_exact_sum_is_fsum_bit_for_bit(xs, cancel):
    # cancel appends every term negated, mixed in, so the exact sum is 0 and
    # everything left is how the low bits cancel
    if cancel:
        xs = [x for pair in zip(xs, (-x for x in reversed(xs))) for x in pair]
    got = exact._exact_sum(np.array(xs, dtype=np.float64))
    assert same_double(got, math.fsum(xs))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(-1000, 1000), st.integers(-52, 52)), min_size=1,
                max_size=2000))
def test_exact_sum_is_fsum_on_wide_exponent_spreads(parts):
    # mantissas times powers of two that land in many exponent bins at once
    xs = [m * 2.0 ** (e * 19) for m, e in parts]
    assert same_double(exact._exact_sum(np.array(xs)), math.fsum(xs))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_exact_sum_refuses_a_non_finite_term(value):
    with pytest.raises(ValueError, match="finite"):
        exact._exact_sum(np.array([1.0, value, 2.0]))


def test_exact_sum_refuses_2_to_the_26_terms_before_any_copy():
    # a zero-stride view: nothing of size 2**26 is allocated
    with pytest.raises(ValueError, match="2\\*\\*26"):
        exact._exact_sum(np.broadcast_to(np.float64(0.5), (1 << 26,)))
    assert exact._exact_sum(np.broadcast_to(np.float64(0.5), (1000,))) == 500.0


@pytest.mark.parametrize("walk,m_max", [
    (top_to_bottom_k(8, 4), 40),
    (lazy(top_to_bottom_k(7, 3), Fraction(1, 2)), 120),
    (symmetrize(top_to_bottom_k(6, 4)), 60),
])
def test_tv_profile_is_the_scalar_fsum_profile_bit_for_bit(walk, m_max):
    profile = mixing_time(walk, "tv", m_max).profile
    d = point_mass(walk.n)
    for m, dist in profile:
        assert same_double(dist, scalar_tv(d)), m
        d = convolve_step(d, walk)
    assert len(profile) == m_max + 1


def test_walk_atoms_are_resolved_once_per_measure(monkeypatch):
    # each step reads the cached (weight, table) pairs; no atom is inverted
    # again after the first step
    q = top_to_bottom_k(6, 3)
    t = group_table(6)
    d = convolve_step(point_mass(6), q)
    calls = []
    monkeypatch.setattr(exact, "inverse", lambda g: calls.append(g) or inverse(g))
    for _ in range(5):
        d = convolve_step(d, q)
    assert calls == []
    for (w, tbl), (g, weight) in zip(t.atoms(q), q.items(), strict=True):
        assert w == float(weight) and tbl is t.right_mul(inverse(g).map)


def test_relative_chain_peak_memory_at_n_8():
    group_table(8)
    tracemalloc.start()
    try:
        src, dst, weight = exact._relative_chain(8, 8, "top_insert")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 45 * 2**20, peak / 2**20
    # checksums of the int64 chain: ranks past 2^15 must survive the narrow dtypes
    assert len(src) == len(dst) == len(weight) == 645_076
    assert (int(src.sum()), int(dst.sum())) == (13_004_712_004, 12_945_978_720)
    assert int((src * dst % 1_000_003).sum()) == 319_998_848_343
    assert math.fsum(weight.tolist()).hex() == "0x1.3afa800000000p+15"


@pytest.mark.parametrize("n,k,kind,want", [
    (6, 3, "top_insert", ["0x1.ff49f49f49f4ap-1", "0x1.fe573ac901e56p-1", "0x1.fc9a3b6ad31eep-1",
                          "0x1.e9ceca398b5d9p-1", "0x1.a25c678c7037ep-1", "0x1.b7c00aac366bdp-2",
                          "0x1.d5e9988954ec6p-5"]),
    (5, 3, "bottom_k_to_top", ["0x1.fbbbbbbbbbbbap-1", "0x1.f333333333333p-1",
                               "0x1.d99999999999ap-1", "0x1.73fd78bb19ea6p-2",
                               "0x1.43157122a152ap-5", "0x1.a0a1cfefa430bp-12",
                               "0x1.56d26640ecd4dp-25"]),
])
def test_coupling_tail_values_are_pinned(n, k, kind, want):
    # the int64 chain's values at m = 0, 1, 2, 5, 10, 20, 40, to the bit
    got = coupling_tail(n, k, kind, [0, 1, 2, 5, 10, 20, 40])
    assert [v.hex() for v in got] == want
