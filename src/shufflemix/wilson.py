"""Complex-eigenfunction lower bounds for the three-slot shuffle.

The walk drops the top card into one of the bottom three positions, i.e. it
multiplies by a generator drawn uniformly from {sigma_{n-2}, sigma_{n-1},
sigma_n}.  Lower-bounding its mixing time goes through a lifted chain: track
the inverse positions X^{-1} together with a step counter Y mod n, and give
each card the winding number

    Z(j) = (X^{-1}(j) - X_0^{-1}(j) + Y) mod n.

With w = e^{2 pi i / n} the function

    Psi = sum_j v(X^{-1}(j)) * w^{Z(j)}

is an exact eigenfunction of the lifted transition operator once v is the
list lambda^{n-3}, ..., lambda, 1, chi_1, chi_0 and lambda is the root near 1
of

    f(lambda) = 9 lambda^n - 9 w lambda^{n-1} + 2 w^2 lambda^{n-2}
                - 3 w^{-2} lambda^2 + w^{-1} lambda.

The root is found by Newton iteration from 1; chi_1 = 2/(3 lambda - w) and
chi_0 = 2/((3 lambda - w)(3 lambda - 2 w)) make the boundary cases of the
eigenvalue equation hold, and a third constraint, chi_0 + chi_1 w^{-1} +
w^{-2} = 3 lambda^{n-2}, certifies the root independently.  From gamma =
1 - Re(lambda), a bound R on the expected squared increment of Psi, and
Psi_start = |Psi(X_0)|, the walk is still far from uniform (total variation
at least 1 - eps) for

    t <= (log Psi_start + (1/2) log(gamma eps / (4 R))) / (-log(1 - gamma))

steps (Wilson, Ann. Appl. Probab. 14, 2004, Lemma 5).  Every winding starts
at 0, so Psi(X_0) = sum v for every start state; Psi_max = sum |v|, the sup
of |Psi|, is reported but attained by no start state.  The lemma's
hypotheses are each checked where :class:`WilsonParams` is built:

    0 < gamma < 1         "gamma ... outside (0, 1)"
    Re(lambda) >= 1/2     "Re(lam) ... below 1/2"
    R > 0                 "r_bound ... must be positive"
    0 < eps < 1           "eps ... outside (0, 1)"

The lemma also needs R to bound the sup over all lifted states, and the
eigenfunction relation must hold in every state.  Both are certified in
O(n), not sampled: under a fixed slot a card's move and winding shift depend
only on its position, and positions form a bijection, so the triangle
inequality bounds the increment of Psi and the residual of E[Psi'] -
lambda Psi over all states at once.  The residual certifies the algebra
rather than trusting it; see tests.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import NumericError
from .report import Record

NEWTON_N_MIN = 16
NEWTON_N_MAX = 1024
NEWTON_MAX_ITER = 64
NEWTON_TOL_PER_N = 1e-12       # stop once |f| <= NEWTON_TOL_PER_N * n

POLY_N_MIN = 5


def unit_root(n: int) -> complex:
    """w = e^{2 pi i / n}."""
    return cmath.exp(2j * math.pi / n)


def cpow(z: complex, m: int) -> complex:
    """z**m for m >= 0 by repeated squaring; |z| near 1 so no scaling issues."""
    if m < 0:
        raise ValueError(f"negative exponent {m}")
    out = 1 + 0j
    base = complex(z)
    while m:
        if m & 1:
            out *= base
        base *= base
        m >>= 1
    return out


def wilson_poly(lam: complex, n: int) -> tuple[complex, complex]:
    """(f(lam), f'(lam)) for the degree-n eigenvalue polynomial.

    Evaluated as a Horner pair on the 5-term form: the three high-degree
    terms share the factor lam^{n-3}.
    """
    if n < POLY_N_MIN:
        raise ValueError(f"n={n} below minimum {POLY_N_MIN}")
    w = unit_root(n)
    w2 = w * w
    winv = 1 / w
    winv2 = winv * winv
    head = ((9 * lam - 9 * w) * lam + 2 * w2) * lam * cpow(lam, n - 3)
    f = head + (-3 * winv2 * lam + winv) * lam
    dhead = ((9 * n * lam - 9 * (n - 1) * w) * lam + 2 * (n - 2) * w2) * cpow(lam, n - 3)
    fp = dhead - 6 * winv2 * lam + winv
    return f, fp


class NewtonResult(Record):
    """Root plus the full iteration trace (diagnostics on failure)."""

    __slots__ = ("lam", "iterates", "residuals")


def newton_root(n: int) -> NewtonResult:
    """Newton iteration from z = 1 for the eigenvalue polynomial.

    Supported only for n in [16, 1024]: below, the starting point is not
    reliably inside the basin of the root near 1; above, unverified.
    """
    if not NEWTON_N_MIN <= n <= NEWTON_N_MAX:
        raise ValueError(f"n={n} outside supported range [{NEWTON_N_MIN}, {NEWTON_N_MAX}]")
    tol = NEWTON_TOL_PER_N * n
    z = 1 + 0j
    iterates = [z]
    residuals = []
    for _ in range(NEWTON_MAX_ITER):
        f, fp = wilson_poly(z, n)
        residuals.append(abs(f))
        if abs(f) <= tol:
            return NewtonResult(z, tuple(iterates), tuple(residuals))
        if fp == 0:
            break
        z = z - f / fp
        iterates.append(z)
    raise NumericError(
        f"Newton did not reach |f| <= {tol:g} in {NEWTON_MAX_ITER} iterations at n={n}",
        trace={"iterates": tuple(iterates), "residuals": tuple(residuals)},
    )


class ChiReport(Record):
    """Boundary coefficients and the residuals of their three constraints."""

    __slots__ = ("chi0", "chi1", "residuals")


def chi_values(lam: complex, w: complex, n: int) -> ChiReport:
    """chi_1 = 2/(3 lam - w), chi_0 = chi_1/(3 lam - 2w), with residuals.

    The first two residuals are algebraic identities of the formulas; the
    third, |chi_0 + chi_1 w^{-1} + w^{-2} - 3 lam^{n-2}|, is independent and
    vanishes only at a true root.
    """
    d1 = 3 * lam - w
    d2 = 3 * lam - 2 * w
    if min(abs(d1), abs(d2)) < 1e-8:
        raise NumericError(f"near-singular chi denominator at lam={lam!r}, w={w!r}")
    chi1 = 2 / d1
    chi0 = chi1 / d2
    r1 = abs(2 / chi1 + w - 3 * lam)
    r2 = abs(chi1 / chi0 + 2 * w - 3 * lam)
    r3 = abs(chi0 + chi1 / w + 1 / (w * w) - 3 * cpow(lam, n - 2))
    return ChiReport(chi0, chi1, (r1, r2, r3))


def v_list(n: int, lam: complex, chi0: complex, chi1: complex) -> np.ndarray:
    """Position weights v(1..n) = lam^{n-3}, ..., lam, 1, chi_1, chi_0.

    Returned 0-indexed: v[x-1] is the weight of position x.
    """
    v = np.empty(n, dtype=np.complex128)
    p = 1 + 0j
    for x in range(n - 2, 0, -1):
        v[x - 1] = p
        p *= lam
    v[n - 2] = chi1
    v[n - 1] = chi0
    return v


class WilsonParams(Record):
    """Everything the step bound needs, frozen after certification.

    gamma may be set directly (the lazy transfer halves it exactly), so it is
    only required to match 1 - Re(lam) to rounding.  The checks below enforce
    the lemma's hypotheses listed in the module docstring.
    """

    __slots__ = ("n", "w", "lam", "chi0", "chi1", "gamma", "psi_max", "psi_start", "r_bound",
                 "eps", "v")
    _uncompared = ("v",)

    def __post_init__(self):
        if not 0 < self.gamma < 1:
            raise ValueError(f"gamma={self.gamma} outside (0, 1)")
        if abs(self.gamma - (1 - self.lam.real)) > 1e-12:
            raise ValueError("gamma inconsistent with lam")
        if self.lam.real < 0.5 - 1e-12:
            raise ValueError(f"Re(lam)={self.lam.real} below 1/2")
        if not self.psi_max > 1:
            raise ValueError(f"psi_max={self.psi_max} must exceed 1")
        if not self.psi_start > 1:
            raise ValueError(f"psi_start={self.psi_start} must exceed 1")
        if not self.r_bound > 0:
            raise ValueError(f"r_bound={self.r_bound} must be positive")
        if not 0 < self.eps < 1:
            raise ValueError(f"eps={self.eps} outside (0, 1)")


def _bulk_step(pos: np.ndarray, z: np.ndarray, l: int, n: int):
    """Cards' (position, winding) after multiplying by sigma_l, elementwise.

    At l = n every card steps down one position (the top card wraps to the
    bottom) and windings stay.  Otherwise the top card lands at l and its
    winding grows by l, cards below l stay put and their windings grow by 1
    (the clock Y ticks), and the cards in between step down.
    """
    if l == n:
        return np.where(pos == 1, n, pos - 1), z
    top = pos == 1
    stay = pos > l
    new_pos = np.where(stay, pos, np.where(top, l, pos - 1))
    new_z = np.where(stay, z + 1, np.where(top, z + l, z)) % n
    return new_pos, new_z


def _slot_images(v: np.ndarray, n: int) -> list[np.ndarray]:
    """t_l(x) = v(x') w^{dz} for the three slots l, indexed by position x.

    A card at x moves to x' and its winding grows by dz under sigma_l; both
    depend only on x and l.  Positions form a bijection, so every state
    satisfies Psi_l' - Psi = sum_j w^{Z(j)} (t_l(x_j) - v(x_j)).
    """
    pos = np.arange(1, n + 1)
    out = []
    for l in (n - 2, n - 1, n):
        new_pos, dz = _bulk_step(pos, np.zeros(n, dtype=np.int64), l, n)
        out.append(v[new_pos - 1] * np.exp(2j * np.pi * dz / n))
    return out


def eigenfunction_residual(params: WilsonParams) -> float:
    """sum_x |(1/3) sum_l t_l(x) - lam v(x)|, a bound on sup |E[Psi'] - lam Psi|.

    The sup runs over all lifted states, so the value also bounds the same
    difference relative to max(1, |Psi|).  This is the certificate for the
    whole construction: the case table, the v-list indexing, and the root
    must all be right for it to vanish.
    """
    mean = sum(_slot_images(params.v, params.n)) / 3
    return float(np.abs(mean - params.lam * params.v).sum())


def compute_params(n: int, eps: float = 0.9) -> WilsonParams:
    """Newton root, boundary coefficients, Psi_max = sum |v|, Psi_start =
    |sum v| (Psi at every start state), certified R.

    R = (1/3) sum_l B_l^2 with B_l = sum_x |t_l(x) - v(x)|; by the triangle
    inequality |Psi_l' - Psi| <= B_l in every state, so R bounds the sup of
    E|Psi' - Psi|^2 under a uniform slot, as Wilson's lemma needs.
    """
    root = newton_root(n)
    w = unit_root(n)
    chi = chi_values(root.lam, w, n)
    if chi.residuals[2] > 1e-8:
        raise NumericError(
            f"chi certification residual {chi.residuals[2]:g} above 1e-8 at n={n}",
            trace={"residuals": chi.residuals},
        )
    v = v_list(n, root.lam, chi.chi0, chi.chi1)
    r = sum(float(np.abs(t - v).sum()) ** 2 for t in _slot_images(v, n)) / 3
    return WilsonParams(
        n=n, w=w, lam=root.lam, chi0=chi.chi0, chi1=chi.chi1,
        gamma=1 - root.lam.real, psi_max=float(np.abs(v).sum()),
        psi_start=float(abs(v.sum())), r_bound=r, eps=eps, v=v,
    )


def step_bound(params: WilsonParams) -> int:
    """Largest t with t <= (log Psi_start + (1/2) log(gamma eps/(4R))) / (-log(1-gamma)).

    Up to step t the walk is guaranteed at total variation distance at least
    1 - eps from uniform.  A nonpositive numerator yields 0: the bound is
    then uninformative, not an error.
    """
    num = math.log(params.psi_start) + 0.5 * math.log(
        params.gamma * params.eps / (4 * params.r_bound)
    )
    if num <= 0:
        return 0
    return int(math.floor(num / -math.log1p(-params.gamma)))


def lazy_transfer(params: WilsonParams) -> WilsonParams:
    """Parameters for the half-lazy walk: lam -> 1/2 + lam/2, gamma and R halve.

    Psi is unchanged, so psi_max and psi_start carry over.  gamma is halved
    exactly (set directly rather than recomputed from the new lam, which
    could round).
    The halving of gamma and R cancels inside the bound's numerator, so the
    lazy bound differs from the plain one only through -log(1 - gamma/2).
    """
    return params._replace(lam=0.5 + 0.5 * params.lam, gamma=params.gamma / 2,
                           r_bound=params.r_bound / 2)


def wilson_report(n: int, eps: float = 0.9) -> dict:
    """Payload for the `wilson` subcommand."""
    params = compute_params(n, eps)
    chi = chi_values(params.lam, params.w, n)
    resid = eigenfunction_residual(params)
    return {
        "n": n,
        "lambda": {"re": params.lam.real, "im": params.lam.imag},
        "gamma": params.gamma,
        "chi0": {"re": params.chi0.real, "im": params.chi0.imag},
        "chi1": {"re": params.chi1.real, "im": params.chi1.imag},
        "chi_residuals": list(chi.residuals),
        "psi_max": params.psi_max,
        "psi_start": params.psi_start,
        "R": params.r_bound,
        "residual": resid,
        "eps": eps,
        "bound_t": step_bound(params),
        "lazy_bound_t": step_bound(lazy_transfer(params)),
    }
