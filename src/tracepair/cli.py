"""Command-line surface: JSON on stdout, diagnostics on stderr.

Exit codes: 0 success, 1 verification failure, 2 usage error, 141 stdout
closed by its reader.  Exact rationals are serialized as "num/den" strings,
never floats; high-precision values are decimal strings with their digit
count alongside.

Every job runs in a fresh process, so each ``cmd_*`` function imports the
modules it runs and nothing else: numpy and ``verify`` are loaded only by
the subcommands that need them, and no job loads mpmath, because the Euler
products form their value, its digit string and their tails on Python ints
and floats.  No job loads ``dataclasses`` either: the package's records are
NamedTuples, and ``verify`` builds its report as the JSON dict it prints.
``main`` sets ``OPENBLAS_NUM_THREADS`` to 1, unless the caller has set it,
before it parses the arguments, because the ``--e1``/``--e2`` converter
already imports numpy: no job calls BLAS, and a single-threaded OpenBLAS
loads up to ~80 ms faster.
"""

import argparse
import contextlib
import json
import os
import sys

# verify.SUITES, sorted; a literal so that building the parser does not import verify
SUITE_NAMES = (
    "arith", "classnum", "conjecture71-grid", "constants", "curves", "gekeler",
    "local", "matcount", "modelsim", "primestats",
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error is one line on stderr and exit code 2."""
        self.exit(2, f"{self.prog}: error: {message}\n")


def _worker_count(text):
    try:
        n = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from exc
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _frac(x):
    """An exact rational (a Fraction or an int) as "num/den"."""
    return f"{x.numerator}/{x.denominator}"


def _emit(obj):
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _parse_curve(text):
    try:
        a, b = (int(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"curve must be 'a,b', got {text!r}") from exc
    from .curves import Curve

    try:
        return Curve(a, b)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _open_csv(path):
    """The --csv file, opened before any work so that a bad path fails first."""
    return open(path, "w") if path else contextlib.nullcontext()


def _checkpoint_list(text):
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad checkpoint list {text!r}") from exc


def cmd_local_factor(args):
    from .local import local_limit, s_closed, s_normalized
    from .matcount import PrimePower

    pp = PrimePower(args.ell, args.k)
    results = {}
    # the closed form first: a pair below its depth fails before any unit sum
    if args.method in ("closed", "both"):
        closed = s_closed(args.t1, args.t2, pp)
        if closed is None:
            raise ValueError(f"no closed form at depth k={args.k} "
                             f"for ({args.t1},{args.t2},{args.ell})")
        results["closed"] = closed[0]
    if args.method in ("direct", "both"):
        results["direct"] = s_normalized(args.t1, args.t2, pp)
    if len(results) == 2 and results["direct"] != results["closed"]:
        print(f"warning: direct {results['direct']} != closed {results['closed']}", file=sys.stderr)
        return 1
    s_norm = next(iter(results.values()))
    lf = local_limit(args.t1, args.t2, args.ell)
    _emit(
        {
            "ell": args.ell,
            "k": args.k,
            "t1": args.t1,
            "t2": args.t2,
            "S": int(s_norm * pp.ell ** (5 * pp.k - 5)),
            "s_normalized": _frac(s_norm),
            "method": args.method,
            "stabilized_at": lf.stabilized_at,
            "c_ell": _frac(lf.c_ell),
            "provenance": lf.provenance,
        }
    )
    return 0


_REFERENCES = {("pair", 0, 0): "35/96", ("universal",): "0.08789878383"}


def cmd_constant(args):
    from .constants import (
        digit_string,
        pair_constant,
        same_trace_constant,
        single_curve_constant,
        universal_product,
    )

    if args.kind == "pair":
        est = pair_constant(args.t1, args.t2, args.lmax, digits=args.digits)
        ref = _REFERENCES.get(("pair", abs(args.t1), abs(args.t2)))
    elif args.kind == "same-trace":
        est = same_trace_constant(args.t1, args.lmax, digits=args.digits)
        ref = _REFERENCES.get(("pair", abs(args.t1), abs(args.t1)))
    elif args.kind == "universal":
        est = universal_product(args.lmax, digits=args.digits)
        ref = _REFERENCES[("universal",)]
    else:
        est = single_curve_constant(args.t1, args.lmax, digits=args.digits)
        ref = None
    out = {
        "kind": args.kind,
        "t1": args.t1,
        "t2": args.t2 if args.kind == "pair" else None,
        "lmax": args.lmax,
        "value": digit_string(est.mantissa, est.exponent, est.digits),
        "digits": est.digits,
        "truncation_prime": est.truncation_prime,
        "tail_conservative": est.tail_conservative,
        "tail_empirical": est.tail_empirical,
        "conjectural_factors": est.conjectural_factors,
    }
    if ref is not None:
        out["reference"] = ref
    _emit(out)
    return 0


def cmd_class_number(args):
    from .class_numbers import hurwitz_kronecker

    cd = hurwitz_kronecker(args.d)
    _emit(
        {
            "D": args.d,
            "D0": cd.D0,
            "f": cd.f,
            "h": cd.h,
            "w": cd.w,
            "hurwitz_kronecker": cd.hk,
            "weighted": _frac(cd.hw),
        }
    )
    return 0


def cmd_gekeler(args):
    from .gekeler import product_check

    r = product_check(args.t, args.p, args.lmax)
    _emit(
        {
            "t": args.t,
            "p": args.p,
            "lhs": _frac(r["lhs"]),
            "rhs_decimal": repr(r["rhs"]),
            "rel_error": r["rel_error"],
            "lmax": r["lmax"],
        }
    )
    return 0


def cmd_average(args):
    from .constants import DEFAULT_DIGITS, check_domain, pair_constant
    from .prime_stats import check_fit_size, checkpoint_ladder, class_sum, slope_fit

    ladder = checkpoint_ladder(args.t1, args.t2, args.x, args.checkpoints)
    check_fit_size(len(ladder))
    check_domain(args.reference_lmax, DEFAULT_DIGITS)
    with _open_csv(args.csv) as fh:
        reference = float(pair_constant(args.t1, args.t2, args.reference_lmax))
        series = class_sum(args.t1, args.t2, args.x, checkpoints=ladder)
        fit = slope_fit(series)
        if fh:
            fh.write("x,loglog_x,partial_sum\n")
            for x, s, llx in series.checkpoints:
                fh.write(f"{x},{llx!r},{s!r}\n")
            print(f"wrote {args.csv}", file=sys.stderr)
    _emit(
        {
            "t1": args.t1,
            "t2": args.t2,
            "x": args.x,
            "checkpoints": [
                {"x": x, "loglog_x": llx, "partial_sum": s}
                for x, s, llx in series.checkpoints
            ],
            "c_hat": fit.c_hat,
            "intercept": fit.intercept,
            "reference_constant": reference,
            "ratio": fit.c_hat / reference,
        }
    )
    return 0


def cmd_curves(args):
    from .curves import pair_count

    result = pair_count(
        args.e1, args.e2, args.t1, args.t2, args.x,
        list_primes=args.list_primes,
        prediction_lmax=args.predict_lmax,
    )
    _emit(result)
    return 0


def cmd_simulate(args):
    from .model_sim import ModelConfig, growth_check, sample_run

    config = ModelConfig(args.m, args.n, args.seed, args.t1, args.t2)
    with _open_csv(args.csv) as fh:
        run = sample_run(config)
        ladder = [c for c in (1000, 10_000, 100_000, 1_000_000) if c <= args.n]
        if not ladder or ladder[-1] != args.n:
            ladder.append(args.n)
        rows = []
        for n_cut in ladder:
            g = growth_check(run, upto=n_cut)
            rows.append({"n": n_cut, "hits": g.hits, "predicted": g.predicted, "ratio": g.ratio})
        if fh:
            fh.write("n,hits,predicted,ratio\n")
            for r in rows:
                fh.write(f"{r['n']},{r['hits']},{r['predicted']!r},{r['ratio']!r}\n")
            print(f"wrote {args.csv}", file=sys.stderr)
    last = rows[-1]  # the ladder ends at n
    _emit(
        {
            "m": args.m,
            "n_max": args.n,
            "seed": args.seed,
            "t1": args.t1,
            "t2": args.t2,
            "sampled_primes": int(run.primes.shape[0]),
            "hits": last["hits"],
            "predicted": last["predicted"],
            "ratio": last["ratio"],
            "class_counts": run.class_counts.tolist(),
            "checkpoints": rows,
        }
    )
    return 0


def cmd_verify(args):
    from .verify import verify_suites

    names = args.suite if args.suite else None
    report = verify_suites(names, full=args.full)
    for checks in report["suites"].values():
        for check in checks:
            extra = " [conjectural]" if check["conjectural"] else ""
            print(f"{check['status'].upper()} {check['id']}{extra} ({check['elapsed']:.2f}s)",
                  file=sys.stderr)
    _emit(report)
    return 0 if report["overall"] == "pass" else 1


def build_parser():
    parser = _Parser(
        prog="tracepair",
        description="Exact-arithmetic toolkit for Frobenius trace-pair statistics",
    )
    parser.add_argument(
        "--workers", type=_worker_count, default=1,
        help="accepted for compatibility; has no effect",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("local-factor", help="local sum S and its Euler factor at one prime power")
    p.add_argument("--t1", type=int, required=True)
    p.add_argument("--t2", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", choices=("direct", "closed", "both"), default="direct")
    p.set_defaults(fn=cmd_local_factor)

    p = sub.add_parser("constant", help="truncated Euler-product constants")
    p.add_argument("--t1", type=int, default=0)
    p.add_argument("--t2", type=int, default=0)
    p.add_argument("--lmax", type=int, required=True)
    p.add_argument("--digits", type=int, default=50)
    p.add_argument("--kind", choices=("pair", "same-trace", "universal", "single"), default="pair")
    p.set_defaults(fn=cmd_constant)

    p = sub.add_parser("class-number", help="class number and weighted class-number sums")
    p.add_argument("--d", type=int, required=True, help="negative discriminant, 0 or 1 mod 4")
    p.set_defaults(fn=cmd_class_number)

    p = sub.add_parser("gekeler", help="product formula check against H(t^2-4p)")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--lmax", type=int, default=100_000)
    p.set_defaults(fn=cmd_gekeler)

    p = sub.add_parser("average", help="weighted class-number prime sums and loglog slope")
    p.add_argument("--t1", type=int, required=True)
    p.add_argument("--t2", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--checkpoints", type=_checkpoint_list, default=None,
                   help="comma-separated x values; default: the standard ladder clipped to x")
    p.add_argument("--csv", help="write the checkpoint series as CSV to this path")
    p.add_argument("--reference-lmax", type=int, default=2000)
    p.set_defaults(fn=cmd_average)

    p = sub.add_parser("curves", help="trace-pair prime counting for two concrete curves")
    for opt in ("--e1", "--e2"):
        p.add_argument(opt, type=_parse_curve, required=True, metavar="a,b",
                       help=f"curve y^2 = x^3 + ax + b; write {opt}=-1,0 when a is negative")
    p.add_argument("--t1", type=int, required=True)
    p.add_argument("--t2", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--list-primes", action="store_true")
    p.add_argument("--predict-lmax", type=int, default=None,
                   help="attach the generic-image prediction using this truncation")
    p.set_defaults(fn=cmd_curves)

    p = sub.add_parser("simulate", help="seeded Monte Carlo trace-pair model")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t1", type=int, required=True)
    p.add_argument("--t2", type=int, required=True)
    p.add_argument("--csv", help="write per-checkpoint hit counts as CSV to this path")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify", help="run cross-verification suites")
    p.add_argument("--suite", action="append", choices=SUITE_NAMES,
                   help="suite to run (repeatable); default: all")
    p.add_argument("--full", action="store_true",
                   help="run the full distinct-trace grid (1..100, primes to 19)")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None):
    # no job calls BLAS: let OpenBLAS start without its thread pool when numpy loads
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader went away: silence the final flush and exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
