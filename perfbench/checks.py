"""Output checks: every payload against a reference the program did not make.

References come from four places, none of them the package's own code:

* frozen oracle values in ``tests/fixtures.json`` (read only);
* closed forms (collector moments, the beta_min floor, printed congestion
  constants, the Wilson root polynomial);
* independent exact computations here: dense walk evolution over S_n with
  numpy, breadth-first Cayley distances, the pure-birth chain behind the
  increasing-bottom statistic and the single-card position chain;
* invariants (residuals, the lazy/plain bound ratio, TV <= coupling tail).

Monte Carlo numbers are compared within 5 sigma plus two counts, and the
tolerance falls to rounding when a payload carries no trial count (an exact
evaluation).  Payload bytes are never compared and ``bound_t`` is never
pinned, so the checks hold across rewrites that keep the mathematics.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np

SIGMAS = 5.0
TV_THRESHOLD = 1 / (2 * math.e)
L2_THRESHOLD = 1 / math.e


# ---------------------------------------------------------------------------
# argv and payload access


def parse_argv(argv: list[str]) -> tuple[str, dict]:
    """(subcommand, {flag: value or True}); repeated flags become lists."""
    flags: dict = {}
    i = 1
    while i < len(argv):
        key = argv[i].lstrip("-")
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            value, i = argv[i + 1], i + 2
        else:
            value, i = True, i + 1
        if key in flags:
            prev = flags[key]
            flags[key] = (prev if isinstance(prev, list) else [prev]) + [value]
        else:
            flags[key] = value
    return argv[0], flags


def _as_list(value) -> list:
    if value is None:
        return []
    return value if isinstance(value, list) else [value]


def load_payload(out_dir: Path) -> tuple[dict, list[list[str]] | None]:
    """The invocation's JSON payload and its main CSV rows (if any)."""
    jsons = [p for p in sorted(out_dir.glob("*.json"))
             if not p.name.endswith((".manifest.json", ".flow.json"))]
    if len(jsons) != 1:
        raise ValueError(f"expected one payload JSON in {out_dir.name}, found {len(jsons)}")
    payload = json.loads(jsons[0].read_text(encoding="utf-8"))
    table = jsons[0].with_suffix(".csv")
    rows = None
    if table.exists():
        with table.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    return payload, rows


class Problems(list):
    """Failed checks of one payload, as readable strings."""

    def expect(self, ok: bool, what: str):
        if not ok:
            self.append(what)

    def close(self, got, want, tol: float, what: str):
        try:
            ok = abs(float(got) - float(want)) <= tol
        except (TypeError, ValueError):
            ok = False
        self.expect(ok, f"{what}: got {got!r}, reference {want!r} (tol {tol:.3g})")


def _binomial_tol(p: float, trials) -> float:
    """Monte Carlo tolerance for a proportion; rounding when exact."""
    if not trials:
        return 1e-9
    trials = int(trials)
    p = min(max(p, 0.0), 1.0)
    return SIGMAS * math.sqrt(p * (1 - p) / trials) + 2.0 / trials


# ---------------------------------------------------------------------------
# independent exact references


class SymmetricGroup:
    """All n! permutations as rows, in lexicographic (rank) order."""

    def __init__(self, n: int):
        self.perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
        self._place = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
        self.codes = self.perms @ self._place

    def right(self, g: tuple) -> np.ndarray:
        """J with J[i] = index of perm_i o g, where (a o b)(x) = a(b(x))."""
        moved = self.perms[:, np.asarray(g, dtype=np.int64) - 1]
        return np.searchsorted(self.codes, moved @ self._place)


@lru_cache(maxsize=None)
def group(n: int) -> SymmetricGroup:
    return SymmetricGroup(n)


def cycle(l: int, n: int) -> tuple:
    """sigma_l in one-line form: i -> i + 1 for i < l, l -> 1."""
    return tuple(list(range(2, l + 1)) + [1] + list(range(l + 1, n + 1)))


def inverse(g: tuple) -> tuple:
    out = [0] * len(g)
    for pos, label in enumerate(g):
        out[label - 1] = pos + 1
    return tuple(out)


def compose(a: tuple, b: tuple) -> tuple:
    return tuple(a[x - 1] for x in b)


def merged(pairs) -> dict:
    out: dict = {}
    for g, w in pairs:
        out[g] = out.get(g, Fraction(0)) + Fraction(w)
    return out


def tbk(n: int, k: int) -> dict:
    return merged((cycle(l, n), Fraction(1, k)) for l in range(n - k + 1, n + 1))


def symmetrized(q: dict) -> dict:
    return merged([(g, w / 2) for g, w in q.items()]
                  + [(inverse(g), w / 2) for g, w in q.items()])


def lazy(q: dict, p: Fraction) -> dict:
    e = tuple(range(1, len(next(iter(q))) + 1))
    return merged([(g, w * p) for g, w in q.items()] + [(e, 1 - p)])


def measure(name: str, n: int, k: int, p: Fraction) -> dict:
    q = tbk(n, k)
    if name == "sym":
        return symmetrized(q)
    if name == "lazy":
        return lazy(q, p)
    return q


def walk_profile(q: dict, metric: str, m_max: int) -> list[float]:
    """Distance to uniform of the walk driven by q at steps 0..m_max."""
    n = len(next(iter(q)))
    grp = group(n)
    size = len(grp.codes)
    moves = [(grp.right(g), float(w)) for g, w in sorted(q.items())]
    d = np.zeros(size)
    d[0] = 1.0
    out = []
    for m in range(m_max + 1):
        if m:
            nxt = np.zeros(size)
            for j, w in moves:
                nxt[j] += w * d
            d = nxt
        if metric == "tv":
            out.append(0.5 * float(np.abs(d - 1.0 / size).sum()))
        else:
            out.append(math.sqrt(float(((size * d - 1.0) ** 2).sum()) / size))
    return out


def first_below(profile: list[float], threshold: float):
    return next((m for m, v in enumerate(profile) if v <= threshold), None)


def near_threshold(profile: list[float], threshold: float) -> bool:
    return any(abs(v - threshold) <= 1e-9 for v in profile)


def cayley_distance_floor(n: int, k: int) -> Fraction:
    """sum_g d(e, g)^2 rt(g) over the symmetrized shuffle generators, by BFS."""
    grp = group(n)
    gens = [g for g in symmetrized(tbk(n, k)) if g != tuple(range(1, n + 1))]
    moves = [grp.right(g) for g in gens]
    dist = np.full(len(grp.codes), -1)
    dist[0] = 0
    frontier = np.array([0])
    level = 0
    while frontier.size:
        level += 1
        nxt = np.unique(np.concatenate([j[frontier] for j in moves]))
        nxt = nxt[dist[nxt] < 0]
        dist[nxt] = level
        frontier = nxt
    total = Fraction(0)
    w = Fraction(2, n * n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            t = list(range(1, n + 1))
            t[i - 1], t[j - 1] = j, i
            code = int((np.array(t) - 1) @ grp._place)
            d = int(dist[np.searchsorted(grp.codes, code)])
            total += w * d * d
    return total


def collector_tail(n: int, j: int, m: float) -> float:
    """P(L_j > m): more than j of n labels unseen after floor(m) uniform draws.

    Inclusion-exclusion over the set of unseen labels.
    """
    m, t = math.floor(m), j + 1
    terms = []
    for i in range(t, n + 1):
        base = (1.0 - i / n) ** m
        if base == 0.0:
            break
        terms.append((-1) ** (i - t) * math.comb(i - 1, t - 1) * math.comb(n, i) * base)
    return math.fsum(terms)


def unselected_tail(k: int, j: int, m: float) -> float:
    """P(more than j bottom labels still unselected after floor(m) steps).

    Under the reversed walk an unselected bottom label only moves down, so it
    stays in the bottom block and the unselected count u falls to u - 1 with
    probability u / k: a pure-birth chain from u = k.
    """
    p = np.zeros(k + 1)
    p[k] = 1.0
    stay = np.arange(k + 1) / k
    for _ in range(math.floor(m)):
        moved = p * stay
        p = p - moved
        p[:-1] += moved[1:]
    return float(p[j + 1:].sum())


def single_card_occupancy(n: int, k: int, steps: int) -> float:
    """P(tracked card in the bottom k after `steps` symmetrized steps).

    Forward half: the top card goes to a uniform bottom slot s and cards at
    or above s shift up; reversed half: the card at slot s goes to the top
    and cards above it shift down.  The card starts at (n - k) // 2 + 1.
    """
    lo = n - k + 1
    P = np.zeros((n + 1, n + 1))
    w = 0.5 / k
    for p in range(1, n + 1):
        for s in range(lo, n + 1):
            fwd = s if p == 1 else (p - 1 if p <= s else p)
            rev = 1 if p == s else (p + 1 if p < s else p)
            P[p, fwd] += w
            P[p, rev] += w
    d = np.zeros(n + 1)
    d[(n - k) // 2 + 1] = 1.0
    for _ in range(steps):
        d = d @ P
    return float(d[lo:].sum())


def wilson_poly(lam: complex, n: int) -> complex:
    w = complex(math.cos(2 * math.pi / n), math.sin(2 * math.pi / n))
    return (9 * lam**n - 9 * w * lam**(n - 1) + 2 * w**2 * lam**(n - 2)
            - 3 * lam**2 / w**2 + lam / w)


class References:
    """Frozen fixtures plus cached exact computations for one run."""

    def __init__(self, fixtures: Path):
        raw = json.loads(Path(fixtures).read_text(encoding="utf-8"))
        self.frozen = {key: entry["value"] for key, entry in raw.items()}
        self._cache: dict = {}

    def cached(self, key, fn, *args):
        if key not in self._cache:
            self._cache[key] = fn(*args)
        return self._cache[key]

    def profile(self, q_key, q: dict, metric: str, m_max: int) -> list[float]:
        return self.cached(("profile", q_key, metric, m_max), walk_profile, q, metric, m_max)


# ---------------------------------------------------------------------------
# per-subcommand checks


def _check_exact(f, payload, rows, refs, bad: Problems):
    n, k, metric = int(f["n"]), int(f["k"]), f.get("metric", "tv")
    name, p = f.get("measure", "tbk"), Fraction(f.get("p", "1/2"))
    m_max = int(f.get("mmax", 200))
    ref = refs.profile((name, n, k, p), measure(name, n, k, p), metric, m_max)
    threshold = TV_THRESHOLD if metric == "tv" else L2_THRESHOLD
    bad.close(payload["threshold"], threshold, 1e-15, "threshold")
    prof = payload["profile"]
    bad.expect(len(prof) == m_max + 1, f"profile has {len(prof)} rows, want {m_max + 1}")
    for (m, got), want in zip(prof, ref):
        bad.close(got, want, 1e-9, f"{metric} distance at step {m}")
    if not near_threshold(ref, threshold):
        want = first_below(ref, threshold)
        bad.expect(payload["mixing_time"] == want,
                   f"mixing_time {payload['mixing_time']}, reference {want}")
    bad.expect(payload["saturated"] == (payload["mixing_time"] is None), "saturated flag")
    if rows is not None:
        bad.expect(len(rows) == m_max + 2, "CSV row count")


def _check_spectrum(f, payload, rows, refs, bad: Problems):
    n, k = int(f["n"]), int(f["k"])
    q = symmetrized(tbk(n, k))
    size = math.factorial(n)
    beta, gap = payload["beta_min"], payload["spectral_gap"]
    floor = -1 + Fraction(k - 1, k * (n - k + 2) * (n + 1))
    bad.expect(beta >= float(floor) - 1e-12, f"beta_min {beta} below the closed form {floor}")
    bad.expect(payload.get("formula_holds", True) is True, "formula_holds is false")
    eig = payload.get("eigenvalues")
    if eig is not None:
        eig = np.asarray(eig, dtype=float)
        bad.expect(eig.size == size == payload.get("count", size), "eigenvalue count")
        bad.expect(bool(np.all(np.diff(eig) >= -1e-12)), "eigenvalues not ascending")
        bad.close(eig[-1], 1.0, 1e-9, "top eigenvalue")
        bad.close(eig[0], beta, 1e-12, "beta_min vs least eigenvalue")
        bad.close(gap, 1.0 - eig[-2], 1e-12, "spectral gap vs second eigenvalue")
        # trace identities of M(x, y) = q(x^-1 y): tr M = n! q(e), tr M^2 = n! sum q^2
        e = tuple(range(1, n + 1))
        bad.close(eig.sum(), size * float(q.get(e, 0)), 1e-8 * size, "trace of M")
        bad.close((eig**2).sum(), size * float(sum(w * w for w in q.values())),
                  1e-8 * size, "trace of M^2")
    bad.expect(0.0 < gap <= 1.0 + 1e-12, f"spectral gap {gap} outside (0, 1]")


def _check_transfer(f, payload, rows, refs, bad: Problems):
    n, k = int(f["n"]), int(f["k"])
    p = Fraction(f.get("p", "1/2"))
    m_max = int(f.get("mmax", 400))
    q = tbk(n, k)
    lq = lazy(q, p)
    pair = merged((compose(inverse(a), b), wa * wb)
                  for a, wa in lq.items() for b, wb in lq.items())
    want = {
        "t_tv": (("tbk", n, k, 1), q, "tv", TV_THRESHOLD),
        "t_l2": (("tbk", n, k, 1), q, "l2", L2_THRESHOLD),
        "t_tv_lazy": (("lazy", n, k, p), lq, "tv", TV_THRESHOLD),
        "t_l2_lazy": (("lazy", n, k, p), lq, "l2", L2_THRESHOLD),
        "t_l2_lazy_pair": (("pair", n, k, p), pair, "l2", L2_THRESHOLD),
    }
    for field, (key, meas, metric, threshold) in want.items():
        ref = refs.profile(key, meas, metric, m_max)
        if not near_threshold(ref, threshold):
            bad.expect(payload[field] == first_below(ref, threshold),
                       f"{field} {payload[field]}, reference {first_below(ref, threshold)}")
    t_tv, t_lazy = payload["t_tv"], payload["t_tv_lazy"]
    bad.expect(payload["tv_le_l2"] == (t_tv <= payload["t_l2"]), "tv_le_l2")
    # for k < n every atom of q q* fixes position 2, so T2(q q*) is infinite
    bad.expect(payload["doubling_vacuous"] == (k < n), "doubling_vacuous")
    bad.expect(payload["doubling_lazy_holds"]
               == (payload["t_l2_lazy"] <= 2 * payload["t_l2_lazy_pair"]), "doubling_lazy_holds")
    grid = [float(x) for x in str(f.get("eps-grid", "0.1,0.5,0.9")).split(",") if x]
    bad.expect(len(payload["lazy_rows"]) == len(grid), "lazy_rows length")
    for eps, row in zip(grid, payload["lazy_rows"]):
        bound = max((2 + eps) / float(p) * t_tv, 80.0 / (float(p) * eps * eps))
        bad.close(row[2], bound, 1e-9 * bound, f"lazy bound at eps={eps}")
        bad.expect(row[3] == (t_lazy <= bound), f"lazy holds flag at eps={eps}")


def _check_couple(f, payload, rows, refs, bad: Problems):
    n, k = int(f["n"]), int(f["k"])
    kind = f.get("kind", "bottom_k_to_top")
    trials = int(f.get("trials", 1000))
    bad.expect(payload["censored"] == 0, f"{payload['censored']} censored trials")
    points = [float(m) for m in _as_list(f.get("tail"))]
    points += [float(c) * n * math.log(n) for c in _as_list(f.get("tail-mult"))]
    tails = payload["tails"]
    bad.expect(len(tails) == len(points), "tail count")
    times = None
    if rows is not None:
        times = [int(r[1]) for r in rows[1:]]
        bad.expect(len(times) == trials, f"{len(times)} CSV trials, want {trials}")
        if times:
            bad.close(payload["mean_coupling_time"], sum(times) / len(times),
                      1e-9 * max(1.0, sum(times) / len(times)), "mean coupling time vs CSV")
    for m, tail in zip(points, tails):
        bad.close(tail["m"], m, 1e-9 * max(1.0, m), "tail point")
        p_hat = tail["p_hat"]
        if times:
            bad.close(p_hat, sum(t > m for t in times) / len(times), 1e-12, "tail vs CSV")
        if kind != "bottom_k_to_top":
            continue
        if n <= 8:
            # coupling inequality: P(T > m) >= TV(q^m)
            tv = refs.profile(("tbk", n, k, 1), tbk(n, k), "tv", math.floor(m))[-1]
            bad.expect(p_hat >= tv - _binomial_tol(tv, trials),
                       f"P(T > {m:g}) = {p_hat} below exact TV {tv}")
        if k == n:
            # at k = n the decks agree once all but one card was picked:
            # T <= L_1, the collector time to see n - 1 of n labels
            frozen = refs.frozen.get("collector_tail_1_25", {})
            ref = (frozen[str(n)] if str(n) in frozen and abs(m - 1.25 * n * math.log(n)) < 1e-9
                   else refs.cached(("collector", n, m), collector_tail, n, 1, m))
            bad.expect(p_hat <= ref + _binomial_tol(ref, trials),
                       f"P(T > {m:g}) = {p_hat} above the collector tail {ref}")


def _check_collector(f, payload, rows, refs, bad: Problems):
    n, j = int(f["n"]), int(f.get("j", 0))
    probs = [i / n for i in range(j + 1, n + 1)]
    mean = sum(1 / p for p in probs)
    var = sum((1 - p) / (p * p) for p in probs)
    trials = payload.get("trials")
    tol = SIGMAS * math.sqrt(var / trials) if trials else 1e-9 * mean
    bad.close(payload["mean"], mean, tol, "collector mean vs n (H_n - H_j)")
    bad.close(payload["mean_over_n_log_n"], payload["mean"] / (n * math.log(n)),
              1e-12, "mean_over_n_log_n")


def _bound_value(payload):
    est = payload["estimate"]
    return float(est["estimate"] if isinstance(est, dict) else est)


def _check_lowerbound(f, payload, rows, refs, bad: Problems):
    n, k = int(f["n"]), int(f["k"])
    trials = payload.get("trials")
    if f["method"] == "single-card":
        rep = payload.get("report", payload)
        steps = int(f["steps"])
        occ = refs.cached(("card", n, k, steps), single_card_occupancy, n, k, steps)
        got = rep["prob_estimate"]
        bad.close(got, occ, _binomial_tol(occ, trials), "single-card block occupancy")
        bad.close(rep["pi_a"], k / n, 1e-15, "pi(A)")
        bad.close(rep["lower_bound"], abs(got - k / n), 1e-12, "single-card lower bound")
        return
    j = int(f.get("j", 6))
    m = float(f["m"]) if "m" in f else float(f["m-mult"]) * n * math.log(n)
    bad.close(payload["m"], m, 1e-9 * m, "step count m")
    frozen = refs.frozen.get("increasing_bottom_exact", {})
    if k == n and j == 6 and str(n) in frozen and "m-mult" in f and float(f["m-mult"]) == 0.75:
        ref = frozen[str(n)]
    else:
        ref = refs.cached(("birth", k, j, m), unselected_tail, k, j, m) - 1 / math.factorial(j)
    p_ref = ref + 1 / math.factorial(j)
    bad.close(_bound_value(payload), ref, _binomial_tol(p_ref, trials),
              "increasing-bottom statistic")


def _check_wilson(f, payload, rows, refs, bad: Problems):
    n = int(f["n"])
    lam = complex(payload["lambda"]["re"], payload["lambda"]["im"])
    bad.expect(abs(wilson_poly(lam, n)) <= 1e-9 * n, f"lambda is not a root: |f| = "
               f"{abs(wilson_poly(lam, n)):.3g}")
    bad.close(payload["gamma"], 1 - lam.real, 1e-12, "gamma vs 1 - Re(lambda)")
    bad.expect(payload["residual"] <= 1e-9, f"eigenfunction residual {payload['residual']}")
    bad.expect(max(payload["chi_residuals"]) <= 1e-8, "chi residuals above 1e-8")
    n3g = n**3 * payload["gamma"]
    lo, hi = refs.frozen["wilson_n3gamma_band"]
    bad.expect(lo <= n3g <= hi, f"n^3 gamma = {n3g} outside [{lo}, {hi}]")
    frozen = refs.frozen["wilson_n3gamma_values"]
    if str(n) in frozen:
        bad.close(n3g, frozen[str(n)], 1e-9 * frozen[str(n)], "n^3 gamma vs frozen oracle")
    plain, lazy_t = payload["bound_t"], payload["lazy_bound_t"]
    bad.expect(payload["psi_max"] > 1, "psi_max <= 1")
    if plain > 0:
        bad.expect(1.8 <= lazy_t / plain <= 2.2, f"lazy/plain bound ratio {lazy_t / plain}")
    else:
        bad.expect(lazy_t == 0 and plain == 0, "vacuous plain bound with a lazy bound")


def _printed_bound(builder: str, n: int, k, c) -> Fraction | None:
    """Printed congestion constants: the computed A must stay under these."""
    if builder == "general":
        return 2 * (18 * n * n + Fraction(8 * k * k, n * n))
    if builder == "large-k":
        return Fraction(2 * 8 * (c * (c + 2) ** 2 + 1))
    if builder == "rudvalis":
        return Fraction(4, k) * sum((3 * (n - l) + 1) ** 2 for l in range(n - k + 1, n + 1))
    return None


def _check_flow(f, payload, rows, refs, bad: Problems):
    builder, n = f["builder"], int(f["n"])
    k = int(f["k"]) if "k" in f else None
    c = int(f["C"]) if "C" in f else None
    a = Fraction(payload["a_value"])
    bad.expect(a > 0, "congestion A is not positive")
    bad.close(payload["a_float"], float(a), 1e-12 * float(a), "a_float")
    printed = _printed_bound(builder, n, k, c)
    if printed is not None:
        bad.expect(a <= printed, f"A = {float(a)} above the printed bound {float(printed)}")
    for label, bound, holds in payload["comparisons"]:
        bad.expect(holds == (float(a) <= float(bound) * (1 + 1e-12)), f"comparison {label}")
    if builder == "large-k":
        bad.expect(payload["paths"] == 1 + n * (n - 1) // 2, "large-k path count")
    if builder == "rudvalis":
        bad.expect(payload["paths"] == len(symmetrized(tbk(n, k))), "rudvalis path count")
    if f.get("verify"):
        bad.expect(payload.get("verified") is True, "flow not verified")
    if f.get("lower-bound"):
        lb = Fraction(payload["lower_bound"])
        frozen = refs.frozen.get(f"congestion_lower_bound_rt{n}_tbk_{n}_{k}")
        ref = Fraction(frozen) if frozen is not None else refs.cached(
            ("floor", n, k), cayley_distance_floor, n, k)
        bad.expect(lb == ref, f"distance-squared floor {lb}, reference {ref}")
        bad.expect(lb <= a, "floor above the congestion")
    if f.get("dirichlet"):
        dr = payload["dirichlet"]
        bad.expect(dr["violations"] == 0, f"{dr['violations']} Dirichlet violations")
        bad.expect(dr["max_ratio_over_a"] <= 1 + 1e-9, "Dirichlet ratio above A")
    if builder == "odd":
        bound = Fraction(payload["eigenvalue_bound"])
        bad.expect(bound == -1 + 2 / a, f"odd bound {bound} != -1 + 2/A")
        exact = payload.get("exact_beta_min")
        if exact is not None:
            floor = -1 + Fraction(k - 1, k * (n - k + 2) * (n + 1))
            bad.expect(float(bound) <= exact + 1e-12, "odd bound above exact beta_min")
            bad.expect(exact >= float(floor) - 1e-12, "exact beta_min below the closed form")


CHECKS = {
    "exact": _check_exact,
    "spectrum": _check_spectrum,
    "transfer": _check_transfer,
    "couple": _check_couple,
    "collector": _check_collector,
    "lowerbound": _check_lowerbound,
    "wilson": _check_wilson,
    "flow": _check_flow,
}


def check_invocation(argv: list[str], out_dir: Path, refs: References) -> list[str]:
    """Problems with one invocation's outputs; empty when they are right."""
    cmd, flags = parse_argv(argv)
    bad = Problems()
    try:
        payload, rows = load_payload(Path(out_dir))
        CHECKS[cmd](flags, payload, rows, refs, bad)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        bad.append(f"unreadable payload: {type(exc).__name__}: {exc}")
    return list(bad)
