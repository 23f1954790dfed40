"""Freeze oracle values into tests/fixtures.json (write-once).

Run as a script.  Each value comes from the independent oracles in
oracles.py, not from the package under test; re-running is a no-op unless a
key is missing.  This is the provenance trail for every [frozen] literal the
test suite compares against.
"""

import cmath
import math
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import numpy as np
from oracles import (
    bfs_distances_nx,
    brute_beta_min,
    brute_mixing_time,
    brute_power,
    coupon_tail,
    o_cycle,
    o_inverse,
    symmetrized,
    tbk_pairs,
)

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))
from fixture_store import FixtureStore

STORE = Path(__file__).parent / "fixtures.json"


def newton_root_oracle(n):
    """Independent Newton solve via numpy.polyval on dense coefficients."""
    w = cmath.exp(2j * math.pi / n)
    # 9 z^n - 9 w z^{n-1} + 2 w^2 z^{n-2} - 3 w^-2 z^2 + w^-1 z
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 9
    coeffs[1] = -9 * w
    coeffs[2] = 2 * w * w
    coeffs[n - 2] += -3 * w ** -2
    coeffs[n - 1] += w ** -1
    dcoeffs = np.polyder(np.poly1d(coeffs)).coeffs
    z = 1 + 0j
    for _ in range(100):
        step = np.polyval(coeffs, z) / np.polyval(dcoeffs, z)
        z -= step
        if abs(step) < 1e-15 * n:
            break
    return z


def main():
    store = FixtureStore(STORE)

    def put(key, value, note):
        if key in store:
            print(f"  kept   {key}")
            return
        store.record(key, value, note)
        print(f"  frozen {key}")

    # two steps of the k = n walk on three cards, by 9-word enumeration
    dist = brute_power(tbk_pairs(3, 3), 3, 2)
    put(
        "tbk_3_3_two_step",
        {",".join(map(str, g)): str(w) for g, w in sorted(dist.items())},
        "9-word enumeration oracle (oracles.brute_power), exact rationals",
    )

    put(
        "mixing_time_tv_tbk_3_3",
        brute_mixing_time(tbk_pairs(3, 3), 3, "tv"),
        "exact convolution oracle over all 6 states (oracles.brute_mixing_time)",
    )
    put(
        "mixing_time_tv_tbk_2_2",
        brute_mixing_time(tbk_pairs(2, 2), 2, "tv"),
        "exact enumeration on S_2",
    )

    put(
        "beta_min_sym_tbk_3_2",
        brute_beta_min(symmetrized(tbk_pairs(3, 2)), 3),
        "6x6 eigendecomposition oracle (oracles.brute_beta_min)",
    )
    put(
        "beta_min_sym_tbk_5_3",
        brute_beta_min(symmetrized(tbk_pairs(5, 3)), 5),
        "120x120 eigendecomposition oracle (oracles.brute_beta_min)",
    )

    # word-distance second moment of the random transposition measure over
    # the symmetrized top to bottom-3 generators on 6 cards
    gens = []
    for l in range(4, 7):
        gens.append(o_cycle(l, 6))
        gens.append(o_inverse(o_cycle(l, 6)))
    dists = bfs_distances_nx(gens, 6)
    acc = Fraction(0)
    w_e = Fraction(1, 6)
    w_t = Fraction(2, 36)
    for i in range(1, 7):
        for j in range(i + 1, 7):
            m = list(range(1, 7))
            m[i - 1], m[j - 1] = j, i
            acc += dists[tuple(m)] ** 2 * w_t
    acc += dists[tuple(range(1, 7))] ** 2 * w_e
    put(
        "congestion_lower_bound_rt6_tbk_6_3",
        str(acc),
        "networkx breadth-first-search oracle (oracles.bfs_distances_nx)",
    )

    # Newton-root scaling values and the frozen acceptance band
    vals = {}
    for n in (16, 32, 64, 128, 256):
        z = newton_root_oracle(n)
        vals[str(n)] = n ** 3 * (1 - z.real)
    put(
        "wilson_n3gamma_values",
        vals,
        "independent numpy.polyval Newton oracle (freeze_fixtures.newton_root_oracle)",
    )
    put(
        "wilson_n3gamma_band",
        [90.0, 120.0],
        "band bracketing the measured values above; limit is 12 pi^2 ~ 118.44",
    )

    # exact collector tails at the coupling acceptance parameters
    clause1 = {}
    clause2 = {}
    for n in (100, 200, 400):
        m1 = round(1.25 * n * math.log(n))
        m2 = round(0.75 * n * math.log(n))
        clause1[str(n)] = coupon_tail(n, m1, 2)
        clause2[str(n)] = coupon_tail(n, m2, 7) - 1 / math.factorial(6)
    put(
        "collector_tail_1_25",
        clause1,
        "inclusion-exclusion oracle (oracles.coupon_tail), P(L_1 > 1.25 n ln n)",
    )
    put(
        "increasing_bottom_exact",
        clause2,
        "inclusion-exclusion oracle, P(L_6 > 0.75 n ln n) - 1/6!",
    )

    print(f"store: {STORE}")


if __name__ == "__main__":
    main()
