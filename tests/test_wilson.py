import cmath
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import shufflemix.wilson as wilson
from oracles import LiftedState, card_update, lifted_start, lifted_step, psi
from shufflemix.errors import NumericError
from shufflemix.wilson import (
    WilsonParams,
    _bulk_step,
    chi_values,
    compute_params,
    cpow,
    eigenfunction_residual,
    lazy_transfer,
    newton_root,
    step_bound,
    unit_root,
    wilson_poly,
    wilson_report,
)

SUITE_NS = (16, 32, 64, 128, 256)


@lru_cache(maxsize=None)
def params_for(n, eps=0.9):
    return compute_params(n, eps)


def random_lifted_state(n, rng):
    return LiftedState(
        n,
        tuple(int(x) for x in rng.permutation(n) + 1),
        int(rng.integers(n)),
        tuple(int(z) for z in rng.integers(0, n, n)),
    )


def test_poly_zero_at_origin():
    for n in (5, 16, 64):
        f, _ = wilson_poly(0j, n)
        assert f == 0


def test_poly_value_at_one_is_coefficient_sum():
    for n in (8, 32, 100):
        w = unit_root(n)
        expected = 9 - 9 * w + 2 * w * w + 1 / w - 3 / (w * w)
        f, _ = wilson_poly(1 + 0j, n)
        assert abs(f - expected) < 1e-12


def test_poly_derivative_matches_difference_quotient():
    h = 1e-6
    for n in (16, 64):
        for z in (1 + 0j, 0.98 + 0.01j, 0.9 - 0.05j):
            f_plus, _ = wilson_poly(z + h, n)
            f_minus, _ = wilson_poly(z - h, n)
            _, fp = wilson_poly(z, n)
            assert abs(fp - (f_plus - f_minus) / (2 * h)) < 1e-4


def test_poly_rejects_tiny_n():
    with pytest.raises(ValueError):
        wilson_poly(1 + 0j, 4)


@given(st.integers(0, 40), st.floats(0, 2 * math.pi, allow_nan=False))
def test_cpow_matches_builtin_on_unit_circle(m, theta):
    z = cmath.exp(1j * theta)
    assert abs(cpow(z, m) - z**m) < 1e-10


def test_newton_certified_across_supported_range():
    for n in (16, 32, 64, 128, 256, 512, 1024):
        root = newton_root(n)
        f, _ = wilson_poly(root.lam, n)
        assert abs(f) <= 1e-12 * n
        assert root.iterates[0] == 1 + 0j
        assert root.residuals[-1] <= 1e-12 * n
        assert root.lam.real >= 0.5
        assert 0 < 1 - root.lam.real < 1


def test_newton_domain_limits():
    with pytest.raises(ValueError):
        newton_root(15)
    with pytest.raises(ValueError):
        newton_root(1025)


def test_newton_nonconvergence_attaches_trace(monkeypatch):
    monkeypatch.setattr(wilson, "NEWTON_TOL_PER_N", 1e-30 / 256)
    monkeypatch.setattr(wilson, "NEWTON_MAX_ITER", 3)
    with pytest.raises(NumericError) as exc:
        newton_root(256)
    assert len(exc.value.trace["iterates"]) >= 1
    assert len(exc.value.trace["residuals"]) == 3


def test_chi_formula_identities_are_machine_precision():
    for n in (16, 128):
        lam = newton_root(n).lam
        rep = chi_values(lam, unit_root(n), n)
        assert rep.residuals[0] < 1e-13
        assert rep.residuals[1] < 1e-13


def test_chi_third_constraint_certifies_the_root():
    for n in SUITE_NS:
        lam = newton_root(n).lam
        rep = chi_values(lam, unit_root(n), n)
        assert rep.residuals[2] <= 1e-8
        off = chi_values(lam + 1e-3, unit_root(n), n)
        assert off.residuals[2] > 1e-4


def test_chi_close_to_one_for_large_n():
    for n in (32, 64, 128, 256):
        lam = newton_root(n).lam
        rep = chi_values(lam, unit_root(n), n)
        assert abs(rep.chi0 - 1) <= 50 / n
        assert abs(rep.chi1 - 1) <= 50 / n


def test_chi_near_singular_denominator():
    w = unit_root(32)
    with pytest.raises(NumericError):
        chi_values(w / 3, w, 32)


def test_gap_scaling_matches_frozen_values(frozen):
    for key, ref in frozen.get("wilson_n3gamma_values").items():
        n = int(key)
        got = n**3 * (1 - newton_root(n).lam.real)
        assert abs(got - ref) <= 1e-9 * abs(ref)


def test_gap_scaling_inside_frozen_band(frozen):
    lo, hi = frozen.get("wilson_n3gamma_band")
    for n in SUITE_NS:
        val = n**3 * (1 - newton_root(n).lam.real)
        assert lo <= val <= hi


def test_card_update_matches_case_table():
    n = 8
    # full-cycle slot: everyone steps down one position, windings frozen
    assert card_update(5, 3, n, n) == (4, 3)
    assert card_update(1, 3, n, n) == (n, 3)
    # top card into slot l: winding slips to z + l mod n
    assert card_update(1, 0, n - 1, n) == (n - 1, n - 1)
    assert card_update(1, 0, n - 2, n) == (n - 2, n - 2)
    assert card_update(1, 5, n - 1, n) == (n - 1, 4)
    # below the insertion point: untouched but the clock ticks
    assert card_update(n, 2, n - 1, n) == (n, 3)
    # between: shifts down, winding frozen
    assert card_update(4, 6, n - 1, n) == (3, 6)


def test_bulk_step_matches_the_scalar_case_table():
    n = 8
    pos = np.arange(1, n + 1)
    z = np.arange(n)[::-1].copy()
    for l in (n - 2, n - 1, n):
        new_pos, new_z = _bulk_step(pos, z, l, n)
        got = list(zip(new_pos.tolist(), new_z.tolist()))
        assert got == [card_update(int(p), int(zz), l, n) for p, zz in zip(pos, z)]


def test_lifted_step_preserves_invariants():
    n = 9
    state = lifted_start(n)
    rng = np.random.default_rng(7)
    for _ in range(60):
        l = int(rng.choice([n - 2, n - 1, n]))
        nxt = lifted_step(state, l)
        assert sorted(nxt.inv_pos) == list(range(1, n + 1))
        assert nxt.y == (state.y + 1) % n
        assert all(0 <= z < n for z in nxt.z)
        state = nxt


def test_lifted_step_rejects_other_generators():
    with pytest.raises(ValueError):
        lifted_step(lifted_start(8), 3)


def test_lifted_state_validation():
    with pytest.raises(ValueError):
        LiftedState(3, (1, 1, 2), 0, (0, 0, 0))
    with pytest.raises(ValueError):
        LiftedState(3, (1, 2, 3), 3, (0, 0, 0))
    with pytest.raises(ValueError):
        LiftedState(3, (1, 2, 3), 0, (0, 0, 3))


def test_psi_at_identity_is_v_sum():
    p = params_for(32)
    got = psi(lifted_start(32), p)
    geo = sum(cpow(p.lam, m) for m in range(30))
    assert abs(got - (geo + p.chi1 + p.chi0)) < 1e-10


def test_psi_ignores_y():
    p = params_for(16)
    state = lifted_step(lifted_step(lifted_start(16), 16), 15)
    other = LiftedState(16, state.inv_pos, (state.y + 5) % 16, state.z)
    assert psi(state, p) == psi(other, p)


def test_psi_bounded_by_psi_max():
    p = params_for(32)
    rng = np.random.default_rng(3)
    for _ in range(50):
        assert abs(psi(random_lifted_state(32, rng), p)) <= p.psi_max + 1e-9


def test_interior_positions_satisfy_the_relation_per_card():
    # for 2 <= pos <= n-2 every slot sends the card to (pos-1, z), so the
    # single-card relation is v(pos-1) = lam * v(pos)
    p = params_for(16)
    n = 16
    for pos in range(2, n - 1):
        for l in (n - 2, n - 1, n):
            new_pos, new_z = card_update(pos, 4, l, n)
            assert (new_pos, new_z) == (pos - 1, 4)
        assert abs(p.v[pos - 2] - p.lam * p.v[pos - 1]) < 1e-12


def test_eigenfunction_residual_is_tiny_at_the_root():
    p = params_for(32)
    assert eigenfunction_residual(p) <= 1e-9


def test_eigenfunction_residual_detects_perturbed_eigenvalue():
    p = params_for(32)
    lam = p.lam + 1e-3
    assert eigenfunction_residual(p._replace(lam=lam, gamma=1 - lam.real)) > 1e-4


@pytest.mark.parametrize("n", (16, 32, 64))
def test_certificates_bound_sampled_lifted_states(n):
    # R and the residual bound sups over every lifted state; no state the
    # oracle chain visits may exceed them.  The residual is also checked at a
    # perturbed lam, where it is far above rounding; 1e-12 absorbs the
    # rounding of the n-term sums at the root.  The perturbation lowers Re(lam):
    # raising it by 1e-3 leaves (0, 1) for gamma at n = 64.
    p = params_for(n)
    lams = (p.lam, p.lam - 1e-3)
    certs = [eigenfunction_residual(p._replace(lam=lam, gamma=1 - lam.real))
             for lam in lams]
    rng = np.random.default_rng(n)
    worst_r = 0.0
    for _ in range(2_000):
        state = random_lifted_state(n, rng)
        base = psi(state, p)
        after = [psi(lifted_step(state, l), p) for l in (n - 2, n - 1, n)]
        worst_r = max(worst_r, sum(abs(a - base) ** 2 for a in after) / 3)
        for lam, cert in zip(lams, certs):
            assert abs(sum(after) / 3 - lam * base) <= cert + 1e-12
    assert 0 < worst_r <= p.r_bound


def test_r_bound_positive_and_halves_with_n():
    r = {n: params_for(n).r_bound for n in (32, 64, 128)}
    assert all(v > 0 for v in r.values())
    for n in (32, 64):
        ratio = math.sqrt(r[n]) / math.sqrt(r[2 * n])
        assert 2 / 1.5 <= ratio <= 2 * 1.5


def test_step_bound_monotone_in_inputs():
    p = params_for(64)
    base = step_bound(p)
    worse_r = WilsonParams(p.n, p.w, p.lam, p.chi0, p.chi1, p.gamma,
                           p.psi_max, p.psi_start, p.r_bound * 4, p.eps, v=p.v)
    # the bound reads psi_start; psi_max is only the reported sup
    bigger_psi = WilsonParams(p.n, p.w, p.lam, p.chi0, p.chi1, p.gamma,
                              p.psi_max * 10, p.psi_start * 10, p.r_bound, p.eps, v=p.v)
    more_eps = WilsonParams(p.n, p.w, p.lam, p.chi0, p.chi1, p.gamma,
                            p.psi_max, p.psi_start, p.r_bound, 0.99, v=p.v)
    assert step_bound(worse_r) < base
    assert step_bound(bigger_psi) > base
    assert step_bound(more_eps) > base


def test_step_bound_zero_on_nonpositive_numerator():
    p = params_for(64)
    tiny = WilsonParams(p.n, p.w, p.lam, p.chi0, p.chi1, p.gamma,
                        p.psi_max, 1.0001, p.r_bound * 1e6, p.eps, v=p.v)
    assert step_bound(tiny) == 0
    # n = 16 with eps = 0.9 lands there naturally: R dwarfs gamma at this size
    assert step_bound(params_for(16)) == 0


def test_lazy_transfer_identities():
    p = params_for(64)
    lz = lazy_transfer(p)
    assert lz.gamma == p.gamma / 2
    assert lz.r_bound == p.r_bound / 2
    assert lz.psi_max == p.psi_max
    assert lz.psi_start == p.psi_start
    assert abs(lz.lam - (0.5 + 0.5 * p.lam)) == 0
    # halved gamma and R cancel in the numerator, so only the denominator moves
    num = math.log(p.psi_start) + 0.5 * math.log(p.gamma * p.eps / (4 * p.r_bound))
    direct = int(math.floor(num / -math.log1p(-p.gamma / 2)))
    assert step_bound(lz) == direct


def test_lazy_bound_doubles_the_plain_bound():
    for n in (32, 64, 128):
        p = params_for(n)
        t = step_bound(p)
        tl = step_bound(lazy_transfer(p))
        assert t > 0
        assert 1.8 <= tl / t <= 2.2


def test_doubling_ratio_decreases_toward_eight():
    # t scales like n^3 log n, so t(2n)/t(n) falls toward 8 from above as the
    # log factor flattens; it is still 9.8 at the (512, 1024) pair, the top of
    # the supported range
    ts = {n: step_bound(params_for(n))
          for n in (64, 128, 256, 512, 1024)}
    ratios = [ts[2 * n] / ts[n] for n in (64, 128, 256, 512)]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert all(r > 8 for r in ratios)
    assert ratios[-1] < 10


def test_certified_step_bounds():
    # bound_t from the certified R over the whole supported range
    expected = {16: 0, 32: 14, 64: 1043, 128: 14979, 256: 170892,
                512: 1768305, 1024: 17324535}
    assert {n: step_bound(params_for(n)) for n in expected} == expected


def test_wilson_report_payload():
    rep = wilson_report(32)
    assert set(rep) == {
        "n", "lambda", "gamma", "chi0", "chi1", "chi_residuals",
        "psi_max", "psi_start", "R", "residual", "eps", "bound_t", "lazy_bound_t",
    }
    assert rep["lambda"]["re"] >= 0.5
    assert rep["residual"] <= 1e-9
    assert rep["bound_t"] > 0


def test_params_enforce_the_lemma_hypotheses():
    p = params_for(64)
    for bad in (dict(gamma=0.0), dict(lam=0.4 + 0j, gamma=0.6), dict(r_bound=0.0),
                dict(eps=0.0), dict(eps=1.0), dict(psi_max=1.0), dict(psi_start=1.0)):
        with pytest.raises(ValueError):
            p._replace(**bad)
