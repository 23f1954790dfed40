"""The benchmark's workloads: fixed sequences of ``shufflemix`` invocations.

Each workload is the argv list of every CLI call it makes, in order.  The
workload seed reaches the program only as ``--seed`` on the stochastic
subcommands (``couple``, ``collector``, ``lowerbound``, ``flow``); sizes are
fixed, so the same seed gives the same inputs.

Flags are limited to ones the package keeps for good: no ``--engine``,
``--allow-n7``, ``--samples``, ``--r-samples`` or ``wilson --seed``, and no
``--trials`` on ``collector`` or ``lowerbound``, whose Monte Carlo loops may
become exact evaluations.  Spectra stay at n <= 6 for the same reason.

``tiny=True`` gives the same subcommands and flags at sizes small enough for
a smoke test; every size-dependent check has a general reference, so the
tiny sequences are checked as strictly as the full ones.
"""

from __future__ import annotations

WHY = {
    "small-n": "exact dense evolution, spectra and small flows at n <= 8; "
               "bypasses large-n couplings, large flows and wilson",
    "large-n-mc": "Monte Carlo couplings, collector and lower-bound "
                  "statistics at hundreds of cards; only the coupling layer computes",
    "certify": "exact-rational flows at n = 24..40 balanced against the "
               "wilson k = 3 bound at n = 128, 256; bypasses dense tables",
}

NAMES = tuple(WHY)


def _split(lines):
    return [line.split() for line in lines]


def _small_n(seed: str, tiny: bool):
    n_exact, n_spec, n_couple = (5, 5, 4) if tiny else (8, 6, 5)
    trials = 2000 if tiny else 10000
    return _split([
        f"exact --n {n_exact} --k 4 --metric tv --mmax 40",
        f"exact --n {n_exact} --k 4 --measure sym --metric l2 --mmax 40",
        f"exact --n {n_exact} --k {n_exact} --measure lazy --metric tv --mmax 60",
        f"spectrum --n {n_spec} --k 3",
        f"spectrum --n {n_spec} --k {n_spec - 1}",
        f"transfer --n {n_spec} --k 3",
        f"couple --n {n_couple} --k 3 --trials {trials} --tail 8 --seed {seed}",
        f"flow --builder general --n {n_spec} --k 3 --verify --lower-bound "
        f"--dirichlet 50 --seed {seed}",
        f"flow --builder odd --n {n_spec} --k 4 --verify --seed {seed}",
    ])


def _large_n_mc(seed: str, tiny: bool):
    big, mid, small, top = (30, 20, 12, 8) if tiny else (400, 200, 100, 40)
    trials = (60, 40, 20) if tiny else (150, 100, 50)
    return _split([
        f"couple --n {mid} --k {mid} --trials {trials[0]} --tail-mult 1.25 --seed {seed}",
        f"couple --n {mid} --k {mid // 2} --trials {trials[1]} --tail-mult 1.25 --seed {seed}",
        f"couple --kind top_insert --n {top} --k {top} --trials {trials[2]} --seed {seed}",
        f"collector --n {big} --seed {seed}",
        f"lowerbound --method increasing-bottom --n {big} --k {big} --m-mult 0.75 --seed {seed}",
        f"lowerbound --method increasing-bottom --n {mid} --k {mid // 4} --j 4 "
        f"--m-mult 0.75 --seed {seed}",
        f"lowerbound --method single-card --n {small} --k {small // 2} "
        f"--steps {small * 20} --seed {seed}",
    ])


def _certify(seed: str, tiny: bool):
    if tiny:
        flows = [(8, 4, True), (10, 5, True), (12, 9, True), (12, 6, False)]
        n_rud, n_large, c_large = 12, 12, 3
        wilson = (16, 32)
    else:
        flows = [(24, 12, True), (32, 16, True), (40, 20, False)]
        n_rud, n_large, c_large = 40, 40, 8
        wilson = (128, 256)
    lines = [f"flow --builder general --n {n} --k {k}" + (" --verify" if v else "")
             + f" --seed {seed}" for n, k, v in flows]
    lines += [
        f"flow --builder rudvalis --n {n_rud} --k {n_rud} --verify --seed {seed}",
        f"flow --builder large-k --n {n_large} --C {c_large} --verify --seed {seed}",
    ]
    lines += [f"wilson --n {n}" for n in wilson]
    return _split(lines)


_BUILDERS = {"small-n": _small_n, "large-n-mc": _large_n_mc, "certify": _certify}


def cli_seed(seed: int) -> int:
    """The program's --seed for a workload seed; the CLI takes seeds >= 0."""
    return seed % 2**31


def invocations(workload: str, seed: int, tiny: bool = False) -> list[list[str]]:
    """argv of every CLI call of ``workload``, in order (no ``--out``)."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(NAMES)}")
    return _BUILDERS[workload](str(cli_seed(seed)), tiny)
