"""Command-line front end: one experiment per invocation.

Each subcommand writes its payload files (JSON and CSV) plus a manifest
recording the subcommand, full parameter set, seed, tool version, timestamps,
the python, numpy and platform versions, and SHA-256 digests of the
payloads.  Payload bytes are a pure function of the arguments, so replaying a
saved manifest (``--manifest run.manifest.json``) reproduces them byte for
byte; only the manifest's clock fields differ.

Exit codes: 0 success, 2 usage or domain error, 3 capacity cap exceeded,
4 numeric non-convergence, 1 I/O failure.  A run that fails with 2, 3 or 4
after its arguments parse still writes ``<subcommand>.manifest.json``, with
a ``status`` ("error", "capacity" or "numeric"), the error message, and the
diagnostic ``trace`` a NumericError carries (null otherwise).
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from .coupling import (
    DEFAULT_CAP_FACTOR,
    coupling_trials,
    coupon_collector,
    increasing_bottom_statistic,
    lazy_trial_wrapper,
    single_card_lower_bound,
    tail_estimates,
)
from .errors import CapacityError, NumericError
from .exact import (
    DENSE_CAP,
    coupling_tail,
    dirichlet_constants,
    least_eigenvalue_formula,
    mixing_time,
    require_dense,
    spectrum,
    top_to_random_tv,
    transfer_checks,
)
from .flows import (
    build_flow_general,
    build_flow_large_k,
    build_flow_rudvalis,
    build_odd_flow_tbk,
    comparison_bound_report,
    congestion_A,
    congestion_lower_bound,
    flow_to_json_obj,
    general_congestion_bound,
    large_k_congestion_bound,
    odd_flow_eigenvalue_bound,
    rudvalis_congestion_bound,
    verify_flow,
)
from .measures import (
    lazy,
    random_transposition,
    rudvalis_symmetric,
    symmetrize,
    top_to_bottom_k,
)
from .report import RunManifest, csv_bytes, json_bytes
from .wilson import wilson_report


class _Sink:
    """Writes payload files under one directory, recording their digests."""

    def __init__(self, out_dir, manifest: RunManifest):
        self.dir = Path(out_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.manifest = manifest

    def _write(self, name: str, data: bytes) -> Path:
        path = self.dir / name
        path.write_bytes(data)
        self.manifest.add_output(path, data)
        return path

    def json(self, name: str, obj) -> Path:
        return self._write(name, json_bytes(obj))

    def csv(self, name: str, header, rows) -> Path:
        return self._write(name, csv_bytes(header, rows))


# ---------------------------------------------------------------------------
# measure selection shared by exact and spectrum


def _laziness(text: str) -> Fraction:
    """--p as a Fraction; a zero denominator is a domain error."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"--p {text!r} has a zero denominator") from None


def _shuffle_names(args):
    """(label, stem tag, laziness or None) of --measure tbk | lazy."""
    n, k = args.n, args.k
    if args.measure == "lazy":
        p = _laziness(args.p)
        return f"lazy(n={n},k={k},p={p})", f"k{k}_lazy{p.numerator}-{p.denominator}", p
    return f"tbk(n={n},k={k})", f"k{k}_tbk", None


def _build_measure(args):
    """(measure, label, stem tag) from --measure / --n / --k / --p."""
    name = args.measure
    n = args.n
    require_dense(n)
    if name in ("tbk", "sym", "lazy"):
        if args.k is None:
            raise ValueError(f"--k is required for measure {name!r}")
        q = top_to_bottom_k(n, args.k)
        if name == "sym":
            return symmetrize(q), f"sym(n={n},k={args.k})", f"k{args.k}_sym"
        label, tag, p = _shuffle_names(args)
        return (q if p is None else lazy(q, p)), label, tag
    if name == "rt":
        return random_transposition(n), f"rt(n={n})", "rt"
    return rudvalis_symmetric(n), f"rudvalis(n={n})", "rudvalis"


# ---------------------------------------------------------------------------
# subcommand handlers; each returns the output stem


def _cmd_exact(args, sink: _Sink) -> str:
    if args.metric == "tv" and args.measure in ("tbk", "lazy") and args.k == args.n:
        # top-to-random: TV off the unselected-count chain, at every n
        label, tag, p = _shuffle_names(args)
        rep = top_to_random_tv(args.n, p, args.mmax, label=label)
    else:
        q, label, tag = _build_measure(args)
        rep = mixing_time(q, args.metric, args.mmax, label=label)
    stem = f"exact_n{args.n}_{tag}_{args.metric}"
    sink.json(f"{stem}.json", rep)
    sink.csv(f"{stem}.csv", ("m", "distance"), rep.profile)
    return stem


def _cmd_spectrum(args, sink: _Sink) -> str:
    q, label, tag = _build_measure(args)
    rep = spectrum(q)
    payload = {
        "n": args.n,
        "measure": label,
        "count": int(rep.eigenvalues.size),
        "beta_min": rep.beta_min,
        "spectral_gap": rep.spectral_gap,
        "eigenvalues": rep.eigenvalues,
    }
    if args.measure == "sym":
        formula = least_eigenvalue_formula(args.n, args.k)
        payload["formula_value"] = formula
        payload["formula_holds"] = rep.beta_min >= float(formula) - 1e-12
    stem = f"spectrum_n{args.n}_{tag}"
    sink.json(f"{stem}.json", payload)
    sink.csv(f"{stem}.csv", ("index", "eigenvalue"),
             list(enumerate(rep.eigenvalues.tolist())))
    return stem


def _tail_points(args) -> list[float]:
    points = [float(m) for m in (args.tail or [])]
    nlogn = args.n * math.log(args.n)
    points += [mult * nlogn for mult in (args.tail_mult or [])]
    if not all(map(math.isfinite, points)):
        raise ValueError(f"tail points must be finite, got {points}")
    return points


def _cmd_couple(args, sink: _Sink) -> str:
    if args.tail_grid is not None and args.tail_grid < 0:
        raise ValueError(f"--tail-grid must be nonnegative, got {args.tail_grid}")
    if args.lazy_p is not None and not 0 < args.lazy_p <= 1:
        raise ValueError(f"--lazy-p must lie in (0, 1], got {args.lazy_p}")
    if args.trials < 1 or (args.cap is not None and args.cap < 1):
        raise ValueError(f"need --trials >= 1 and --cap >= 1, got {args.trials} and {args.cap}")
    tail_points = _tail_points(args)
    grid = range(args.tail_grid + 1) if args.tail_grid is not None else range(0)
    stem = f"couple_{args.kind}_n{args.n}_k{args.k}"
    payload = {
        "n": args.n,
        "k": args.k,
        "kind": args.kind,
        "lazy_p": args.lazy_p,
        "censored": 0,
        "n_log_n": args.n * math.log(args.n),
    }
    if args.n <= DENSE_CAP or (args.kind == "bottom_k_to_top" and args.k == args.n):
        tails = coupling_tail(args.n, args.k, args.kind, [*tail_points, *grid],
                              args.lazy_p or 1.0)
        payload["engine"] = "exact"
        payload["tails"] = [{"m": m, "p_hat": p} for m, p in zip(tail_points, tails)]
        sink.json(f"{stem}.json", payload)
        if args.tail_grid is not None:
            sink.csv(f"{stem}.tails.csv", ("m", "p_hat"),
                     list(zip(grid, tails[len(tail_points):])))
        return stem
    stats = coupling_trials(args.n, args.k, args.kind, args.trials,
                            seed=args.seed, cap=args.cap)
    if args.lazy_p is not None:
        stats = [lazy_trial_wrapper(s, args.lazy_p) for s in stats]
    payload.update({
        "engine": "monte_carlo",
        "trials": args.trials,
        "seed": args.seed,
        "cap": args.cap if args.cap is not None else DEFAULT_CAP_FACTOR * args.n**3,
        "censored": sum(s.censored for s in stats),
        "mean_coupling_time": math.fsum(s.coupling_time for s in stats) / len(stats),
    })
    tails = tail_estimates(stats, [*tail_points, *grid])
    payload["tails"] = [{"m": m, "p_hat": p_hat, "stderr": se}
                        for m, (p_hat, se) in zip(tail_points, tails)]
    sink.json(f"{stem}.json", payload)
    sink.csv(f"{stem}.csv", ("trial", "coupling_time", "censored"),
             [(s.trial, s.coupling_time, s.censored) for s in stats])
    if args.tail_grid is not None:
        sink.csv(f"{stem}.tails.csv", ("m", "p_hat", "stderr"),
                 [(m, *est) for m, est in zip(grid, tails[len(tail_points):])])
    return stem


def _cmd_collector(args, sink: _Sink) -> str:
    if args.n < 2:
        raise ValueError("--n must be at least 2, since the payload divides by n ln n")
    summary = coupon_collector(args.n, args.j)
    payload = {
        "n": summary.n,
        "j": summary.j,
        "mean": summary.mean,
        "variance": summary.variance,
        "mean_over_n_log_n": summary.mean / (args.n * math.log(args.n)),
    }
    stem = f"collector_n{args.n}_j{args.j}"
    sink.json(f"{stem}.json", payload)
    sink.csv(f"{stem}.csv", ("m", "p_tail"), list(enumerate(summary.tails)))
    return stem


def _cmd_lowerbound(args, sink: _Sink) -> str:
    if args.method == "single-card":
        if args.steps is None:
            raise ValueError("--steps is required for the single-card method")
        rep = single_card_lower_bound(args.n, args.k, args.steps)
        payload = {"method": args.method, "report": rep}
    else:
        if args.m is not None:
            m = args.m
        elif args.m_mult is not None:
            m = args.m_mult * args.n * math.log(args.n)
        else:
            raise ValueError("one of --m or --m-mult is required")
        est = increasing_bottom_statistic(args.n, args.k, args.j, m)
        payload = {
            "method": args.method,
            "n": args.n,
            "k": args.k,
            "j": args.j,
            "m": m,
            "estimate": est,
        }
    stem = f"lowerbound_{args.method}_n{args.n}_k{args.k}"
    sink.json(f"{stem}.json", payload)
    return stem


def _cmd_wilson(args, sink: _Sink) -> str:
    payload = wilson_report(args.n, args.eps)
    stem = f"wilson_n{args.n}"
    sink.json(f"{stem}.json", payload)
    return stem


def _build_flow(args):
    """(flow, printed-bound dict, stem tag) for the selected builder."""
    if args.builder == "large-k":
        if args.C is None:
            raise ValueError("--C is required for the large-k builder")
        flow = build_flow_large_k(args.n, args.C)
        printed = large_k_congestion_bound(args.C)
        return flow, {"printed": printed, "printed_doubled": 2 * printed}, f"C{args.C}"
    if args.k is None:
        raise ValueError(f"--k is required for the {args.builder} builder")
    tag = f"k{args.k}"
    if args.builder == "general":
        flow = build_flow_general(args.n, args.k)
        printed = general_congestion_bound(args.n, args.k)
        return flow, {"printed": printed, "printed_doubled": 2 * printed}, tag
    if args.builder == "rudvalis":
        flow = build_flow_rudvalis(args.n, args.k)
        return flow, {"printed": rudvalis_congestion_bound(args.n, args.k)}, tag
    return build_odd_flow_tbk(args.n, args.k), {}, tag


def _cmd_flow(args, sink: _Sink) -> str:
    if args.dirichlet is not None and args.dirichlet < 1:
        raise ValueError(f"--dirichlet needs a value of at least 1, got {args.dirichlet}")
    if args.lower_bound or args.dirichlet is not None or args.compare_t2:
        require_dense(args.n)
    flow, bounds, tag = _build_flow(args)
    rep = congestion_A(flow)
    a_float = float(rep.a_value)
    payload = {
        "builder": args.builder,
        "n": args.n,
        "a_value": rep.a_value,
        "a_float": a_float,
        "comparisons": [(label, float(b), a_float <= float(b) * (1 + 1e-12))
                        for label, b in bounds.items()],
        "lower_bound": (congestion_lower_bound(flow.target, flow.q.support())
                        if args.lower_bound else None),
        "paths": len(flow.paths),
    }
    if args.builder == "large-k":
        payload["C"] = args.C
    else:
        payload["k"] = args.k
    if args.builder == "rudvalis":
        payload["printed_exact_holds"] = rep.a_value <= bounds["printed"]
    if args.builder == "odd":
        bound = odd_flow_eigenvalue_bound(flow)
        payload["eigenvalue_bound"] = bound
        payload["eigenvalue_bound_float"] = float(bound)
        if args.n <= DENSE_CAP:
            exact = spectrum(flow.q).beta_min
            payload["exact_beta_min"] = exact
            payload["bound_le_exact"] = float(bound) <= exact + 1e-12
    if args.verify:
        check = verify_flow(flow)
        if not check.exact:
            raise ValueError(
                f"flow marginals disagree with the target on "
                f"{len(check.discrepancies)} atoms")
        payload["verified"] = True
    if args.dirichlet is not None:
        per_shape = dirichlet_constants(flow.target, flow.q).values()
        a_star = max(per_shape)
        payload["dirichlet"] = {
            "a_star": a_star,
            "max_ratio_over_a": a_star / a_float,
            "violations": sum(c > a_float * (1 + 1e-9) for c in per_shape),
        }
    if args.compare_t2:
        payload["comparison"] = comparison_bound_report(flow)
    stem = f"flow_{args.builder}_n{args.n}_{tag}"
    sink.json(f"{stem}.json", payload)
    sink.csv(f"{stem}.csv", ("generator", "q_weight", "term"), rep.per_generator)
    if args.export_paths:
        sink.json(f"{stem}.flow.json", flow_to_json_obj(flow))
    return stem


def _cmd_transfer(args, sink: _Sink) -> str:
    eps_grid = tuple(float(x) for x in args.eps_grid.split(",") if x)
    rep = transfer_checks(args.n, args.k, _laziness(args.p), eps_grid)
    stem = f"transfer_n{args.n}_k{args.k}"
    sink.json(f"{stem}.json", rep)
    sink.csv(f"{stem}.csv", ("eps", "lazy_t", "bound", "holds"), rep.lazy_rows)
    return stem


_HANDLERS = {
    "exact": _cmd_exact,
    "spectrum": _cmd_spectrum,
    "couple": _cmd_couple,
    "collector": _cmd_collector,
    "lowerbound": _cmd_lowerbound,
    "wilson": _cmd_wilson,
    "flow": _cmd_flow,
    "transfer": _cmd_transfer,
}


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shufflemix",
        description="Mixing-time experiments for top to bottom-k shuffles.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add(name, help_text, seed_help=None):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", default=".", help="output directory")
        if seed_help:
            p.add_argument("--seed", type=int, default=0, help=seed_help)
        return p

    unused_seed = "accepted so old command lines parse; changes no output"

    def measure_flags(p, choices):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--k", type=int)
        p.add_argument("--measure", default=choices[0], choices=choices)

    p = add("exact", "exact distance profile and mixing time: dense at n <= 8, "
                    "any n for the TV of --measure tbk|lazy with --k equal to --n")
    measure_flags(p, ("tbk", "sym", "lazy", "rt", "rudvalis"))
    p.add_argument("--p", default="1/2", help="laziness, a fraction like 1/2")
    p.add_argument("--metric", choices=("tv", "l2"), default="tv")
    p.add_argument("--mmax", type=int, default=200)

    # the spectrum is for reversible walks, so only symmetric measures are
    # offered, the symmetrized shuffle first
    p = add("spectrum", "full transition spectrum at small n")
    measure_flags(p, ("sym", "rt", "rudvalis"))

    monte_carlo = "Monte Carlo only; an exact run checks it and ignores it"
    p = add("couple", "coupling-time tails P(T > m): exact at n <= 8 and for "
                      "bottom_k_to_top with --k equal to --n, Monte Carlo otherwise",
            f"seed of the trial streams; {monte_carlo}")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kind", default="bottom_k_to_top",
                   choices=("bottom_k_to_top", "top_insert"))
    p.add_argument("--trials", type=int, default=1000,
                   help=f"number of coupling trials; {monte_carlo}")
    p.add_argument("--cap", type=int, default=None,
                   help=f"censoring cap in steps (default 50 n^3); {monte_carlo}")
    p.add_argument("--lazy-p", type=float, default=None,
                   help="p-lazy clock: both decks hold together with probability 1 - p")
    p.add_argument("--tail", type=float, action="append",
                   help="report P(T > m) at this m; repeatable")
    p.add_argument("--tail-mult", type=float, action="append",
                   help="report P(T > c n ln n) at this c; repeatable")
    p.add_argument("--tail-grid", type=int, default=None,
                   help="also write P(T > m) for every m up to this bound")

    p = add("collector", "exact coupon-collector stopping-time law", unused_seed)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", type=int, default=0,
                   help="stop when all but j labels have been drawn")

    p = add("lowerbound", "exact distance lower bounds", unused_seed)
    p.add_argument("--method", required=True,
                   choices=("single-card", "increasing-bottom"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--steps", type=int, default=None,
                   help="walk length for the single-card method")
    p.add_argument("--j", type=int, default=6,
                   help="residual block size for increasing-bottom")
    p.add_argument("--m", type=float, default=None,
                   help="step count for increasing-bottom")
    p.add_argument("--m-mult", type=float, default=None,
                   help="step count as a multiple of n ln n")

    p = add("wilson", "near-eigenfunction parameters and certified step bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, default=0.9)

    p = add("flow", "Cayley-graph flow congestion and comparisons", unused_seed)
    p.add_argument("--builder", required=True,
                   choices=("general", "large-k", "rudvalis", "odd"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--C", type=int, default=None,
                   help="bottom-block margin for the large-k builder")
    p.add_argument("--verify", action="store_true",
                   help="check flow marginals against the target exactly")
    p.add_argument("--lower-bound", action="store_true",
                   help="include the distance-squared congestion floor")
    p.add_argument("--dirichlet", type=int, default=None,
                   help="report A*, the exact best Dirichlet comparison constant; N is unused")
    p.add_argument("--compare-t2", action="store_true",
                   help="L2 mixing bound for q from A and the target walk's spectrum")
    p.add_argument("--export-paths", action="store_true",
                   help="also write the flow's paths as JSON")

    p = add("transfer", "reversed-pair and lazy mixing-time transfer")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", default="1/2", help="laziness, a fraction like 1/2")
    p.add_argument("--eps-grid", default="0.1,0.5,0.9")

    return parser


# ---------------------------------------------------------------------------
# entry points


def _strip_flag(argv: list[str], flag: str) -> list[str]:
    """argv without each ``flag VALUE`` and ``flag=VALUE``."""
    at = {i for i, a in enumerate(argv) if a == flag}
    return [a for i, a in enumerate(argv)
            if not (i in at or i - 1 in at or a.startswith(flag + "="))]


def _replay_argv(argv: list[str]) -> list[str]:
    rp = argparse.ArgumentParser(prog="shufflemix --manifest")
    rp.add_argument("--manifest", required=True)
    rp.add_argument("--out", default=None)
    ns = rp.parse_args(argv)
    manifest = RunManifest.load(ns.manifest)
    stored = list(manifest.argv)
    if ns.out is not None:
        stored = _strip_flag(stored, "--out") + ["--out", ns.out]
    return stored


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use: parsing leaves an
    argparse parser unchanged, so every call can share it."""
    return build_parser()


def _run(argv: list[str]) -> int:
    if any(a == "--manifest" or a.startswith("--manifest=") for a in argv):
        argv = _replay_argv(argv)
    args = _parser().parse_args(argv)
    params = {k: v for k, v in vars(args).items() if k not in ("cmd", "out")}
    manifest = RunManifest(
        subcommand=args.cmd,
        argv=list(argv),
        params=params,
        seed=getattr(args, "seed", None),
    )
    manifest.start()
    sink = _Sink(args.out, manifest)
    try:
        stem = _HANDLERS[args.cmd](args, sink)
    except _FAILURE_TYPES as exc:
        manifest.finish()
        try:
            manifest.write_failure(sink.dir / f"{args.cmd}.manifest.json",
                                   _failure(exc)[1], str(exc), getattr(exc, "trace", None))
        except OSError as io_exc:
            print(f"shufflemix: io: no failure manifest: {io_exc}", file=sys.stderr)
        raise
    manifest.finish()
    manifest.write(sink.dir / f"{stem}.manifest.json")
    return 0


# exception types -> (exit code, manifest status and stderr label)
_FAILURES = (
    ((ValueError,), 2, "error"),
    ((CapacityError,), 3, "capacity"),
    ((NumericError,), 4, "numeric"),
)
_FAILURE_TYPES = tuple(t for types, _, _ in _FAILURES for t in types)


def _failure(exc: Exception) -> tuple[int, str]:
    return next((code, status) for types, code, status in _FAILURES
                if isinstance(exc, types))


def run(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        return _run(argv)
    except SystemExit as exc:
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else 2
    except _FAILURE_TYPES as exc:
        code, status = _failure(exc)
        print(f"shufflemix: {status}: {exc}", file=sys.stderr)
        return code
    except OSError as exc:
        print(f"shufflemix: io: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
