import contextlib
import io
import json
import os
import signal
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracepair import arith, class_numbers, curves, local, model_sim, prime_stats
from tracepair.cli import main
from tracepair.curves import Curve, point_count_brute


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_local_factor_both_methods(capsys):
    code, out, _ = run_cli(
        capsys, "local-factor", "--t1", "1", "--t2", "1", "--ell", "3", "--k", "1",
        "--method", "both",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["S"] == 117
    assert doc["s_normalized"] == "117/1"
    assert doc["c_ell"] == "477/512"
    assert doc["stabilized_at"] is None
    assert set(doc) == {"ell", "k", "t1", "t2", "S", "s_normalized", "method",
                        "stabilized_at", "c_ell", "provenance"}


def test_local_factor_distinct(capsys):
    code, out, _ = run_cli(
        capsys, "local-factor", "--t1", "0", "--t2", "1", "--ell", "3", "--k", "1",
        "--method", "both",
    )
    assert code == 0
    assert json.loads(out)["S"] == 126


def test_constant_schema(capsys):
    code, out, _ = run_cli(capsys, "constant", "--t1", "0", "--t2", "0", "--lmax", "2000")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"].startswith("0.364")
    assert doc["reference"] == "35/96"
    assert doc["digits"] == 50
    assert doc["truncation_prime"] == 1999


def test_constant_universal(capsys):
    code, out, _ = run_cli(capsys, "constant", "--kind", "universal", "--lmax", "1000")
    doc = json.loads(out)
    assert code == 0
    assert doc["value"].startswith("0.08789")
    assert doc["reference"] == "0.08789878383"


def test_class_number_golden(capsys):
    code, out, _ = run_cli(capsys, "class-number", "--d", "-12")
    assert code == 0
    assert json.loads(out) == {
        "D": -12, "D0": -3, "f": 2, "h": 1, "w": 2,
        "hurwitz_kronecker": 2, "weighted": "2/3",
    }


def test_class_number_usage_error(capsys):
    code, _, err = run_cli(capsys, "class-number", "--d", "-5")
    assert code == 2
    assert "error" in err


def test_gekeler_schema(capsys):
    code, out, _ = run_cli(capsys, "gekeler", "--t", "0", "--p", "5", "--lmax", "5000")
    assert code == 0
    doc = json.loads(out)
    assert doc["lhs"] == "1/1"
    assert abs(float(doc["rhs_decimal"]) - 1.0) < 0.1
    assert set(doc) == {"t", "p", "lhs", "rhs_decimal", "rel_error", "lmax"}


def test_average_csv_and_summary(capsys, tmp_path):
    csv_path = os.path.join(tmp_path, "series.csv")
    code, out, _ = run_cli(
        capsys, "average", "--t1", "0", "--t2", "0", "--x", "3000",
        "--checkpoints", "500,1000,3000", "--csv", csv_path,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["c_hat"] > 0
    assert doc["ratio"] > 0
    with open(csv_path) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "x,loglog_x,partial_sum"
    assert len(lines) == 4


def test_curves_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "curves", "--e1", "1,0", "--e2", "0,1", "--t1", "0", "--t2", "0",
        "--x", "300", "--list-primes",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 15
    assert doc["matched_primes"][0] == 11


def test_curves_rejects_singular(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["curves", "--e1", "0,0", "--e2", "0,1", "--t1", "0", "--t2", "0", "--x", "10"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "singular curve: discriminant is zero" in err
    assert "_parse_curve" not in err


def test_curves_discriminant_beyond_int64(capsys):
    # |disc| = 16 (4e18 + 27) >= 2^63
    code, out, _ = run_cli(
        capsys, "curves", "--e1=1000000,1", "--e2=1,1", "--t1", "0", "--t2", "0",
        "--x", "1000", "--list-primes",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == len(doc["matched_primes"]) > 0
    for p in doc["matched_primes"]:
        assert point_count_brute(Curve(1_000_000, 1), p) == p + 1
        assert point_count_brute(Curve(1, 1), p) == p + 1


def test_curves_rejects_x_beyond_trace_range(capsys, monkeypatch):
    def no_sieve(x):
        raise AssertionError("sieve started")

    monkeypatch.setattr(curves, "sieve_primes", no_sieve)
    code, out, err = run_cli(
        capsys, "curves", "--e1", "1,0", "--e2", "0,1", "--t1", "0", "--t2", "0",
        "--x", "3000000000",
    )
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1


def test_curves_unreachable_trace_answers_without_work(capsys, monkeypatch):
    # t1^2 > 4x: no prime p <= x has a_p = t1 (Hasse), so the count is 0 before any sieve
    def fail(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(curves, "sieve_primes", fail)
    monkeypatch.setattr(curves, "trace_batch", fail)
    code, out, err = run_cli(
        capsys, "curves", "--e1", "1,0", "--e2", "0,1", "--t1", "99999999999999999999",
        "--t2", "0", "--x", "1000000", "--list-primes",
    )
    assert (code, err) == (0, "")
    assert json.loads(out) == {"count": 0, "x": 1000000, "matched_primes": []}


def test_curves_unreachable_trace_predicts_zero(capsys, monkeypatch):
    # 2001^2 > 4 * 10^6: the expected count is 0.0, also without any sieve
    def fail(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(curves, "sieve_primes", fail)
    code, out, err = run_cli(
        capsys, "curves", "--e1=-1,1", "--e2=1,1", "--t1", "2001", "--t2", "0",
        "--x", "1000000", "--predict-lmax", "100",
    )
    assert (code, err) == (0, "")
    assert json.loads(out) == {"count": 0, "x": 1000000, "prediction": 0.0,
                               "prediction_assumes_generic_image": True}


def test_average_default_ladder_small_x(capsys):
    code, out, _ = run_cli(capsys, "average", "--t1", "1", "--t2", "1", "--x", "5000")
    assert code == 0
    assert [c["x"] for c in json.loads(out)["checkpoints"]] == [1000, 3000, 5000]


@pytest.mark.parametrize("argv", [
    ("class-number", "--d", "-99999999999999999999"),
    ("average", "--t1", "0", "--t2", "0", "--x", "2000001"),
    ("constant", "--lmax", "100", "--digits", "0"),
    ("constant", "--lmax", "100", "--digits", "-5"),
    # 10^18 + 3 is prime: trial division up to 10^9 would run for minutes
    ("local-factor", "--t1", "1", "--t2", "2", "--ell", "1000000000000000003", "--k", "1"),
    ("gekeler", "--t", "1", "--p", "1000000000000000003"),
    # the Euler pass would take minutes and a 2 GB symbol memo at the sieve's 2e9
    ("gekeler", "--t", "1", "--p", "5", "--lmax", "2000000000"),
    # the tail sums sieve to 8 * lmax, beyond the sieve's 2e9 limit
    ("constant", "--lmax", "300000000"),
    # past the Euler products' cost bound of 1e7
    ("constant", "--lmax", "10000001"),
    ("average", "--t1", "0", "--t2", "0", "--x", "5000", "--reference-lmax", "10000001"),
    ("curves", "--e1", "1,0", "--e2", "0,1", "--t1", "0", "--t2", "0", "--x", "1000",
     "--predict-lmax", "10000001"),
    ("average", "--t1", "0", "--t2", "0", "--x", "5000", "--reference-lmax", "1"),
    ("curves", "--e1", "1,0", "--e2", "0,1", "--t1", "0", "--t2", "0", "--x", "1000",
     "--predict-lmax", "1"),
    # ladders of two checkpoints leave the slope fit short: the default one clipped
    # to x = 3000, and an explicit one
    ("average", "--t1", "1", "--t2", "1", "--x", "3000"),
    ("average", "--t1", "1", "--t2", "1", "--x", "5000", "--checkpoints", "1000"),
    # a --csv path that cannot be opened fails before the sums or the draws
    ("average", "--t1", "0", "--t2", "0", "--x", "1000000", "--csv", "/nonexistent/s.csv"),
    ("simulate", "--m", "2", "--n", "1000000", "--seed", "0", "--t1", "1", "--t2", "1",
     "--csv", "/nonexistent/s.csv"),
    # past the x a curves job can hold in memory
    ("curves", "--e1", "1,0", "--e2", "0,1", "--t1", "0", "--t2", "0", "--x", "100000001"),
])
def test_out_of_domain_rejected_before_work(capsys, monkeypatch, argv):
    def fail(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(class_numbers, "_reduced_forms", fail)
    monkeypatch.setattr(prime_stats, "hurwitz_table", fail)
    monkeypatch.setattr(prime_stats, "sieve_primes", fail)
    monkeypatch.setattr(arith, "odd_prime_segments", fail)
    monkeypatch.setattr(curves, "sieve_primes", fail)
    monkeypatch.setattr(model_sim, "sieve_primes", fail)
    monkeypatch.setattr(arith, "is_prime", fail)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("t1, t2, ell, k", [
    (1, 80707215, 7, 9),  # alpha = 9: the conjectured form holds from k = 10
    (2, 2, 2, 2),  # an even equal trace at ell = 2 needs k >= 3
])
def test_local_factor_below_depth_fails_before_unit_sum(capsys, monkeypatch, t1, t2, ell, k):
    def fail(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(local, "s_direct", fail)
    monkeypatch.setattr(local, "s_stratified", fail)
    code, out, err = run_cli(capsys, "local-factor", "--t1", str(t1), "--t2", str(t2),
                             "--ell", str(ell), "--k", str(k), "--method", "both")
    assert code == 2
    assert out == ""
    assert err == f"error: no closed form at depth k={k} for ({t1},{t2},{ell})\n"


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_workers_must_be_positive(capsys, workers):
    with pytest.raises(SystemExit) as exc:
        main(["--workers", workers, "verify", "--suite", "arith"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "--workers" in err


def test_workers_flag_has_no_effect(capsys):
    args = ["local-factor", "--t1", "4", "--t2", "-2", "--ell", "2", "--k", "12",
            "--method", "both"]
    code, plain, _ = run_cli(capsys, *args)
    assert code == 0
    assert run_cli(capsys, "--workers", "2", *args) == (0, plain, "")


# Every subcommand's integer options (a1, b1, a2, b2: the curve coefficients)
# take small sizes, except up to two that take edge values.
_SMALL = st.integers(-3, 7)
_EDGES = st.sampled_from((0, -1, -2 ** 63, 2 ** 31, 2 ** 64))  # huge positives shrink last
_INT_OPTIONS = {
    "local-factor": ("--t1", "--t2", "--ell", "--k"),
    "constant": ("--t1", "--t2", "--lmax", "--digits"),
    "class-number": ("--d",),
    "gekeler": ("--t", "--p", "--lmax"),
    "average": ("--t1", "--t2", "--x", "--reference-lmax"),
    "curves": ("--t1", "--t2", "--x", "--predict-lmax", "a1", "b1", "a2", "b2"),
    "simulate": ("--m", "--n", "--seed", "--t1", "--t2"),
}
_CHOICES = {
    "local-factor": ("--method", ("direct", "closed", "both")),
    "constant": ("--kind", ("pair", "same-trace", "universal", "single")),
}


class _NoAnswer(Exception):
    """Not an OSError, so that main cannot report it as a usage error."""


@contextlib.contextmanager
def _time_limit(seconds):
    def expire(signum, frame):
        raise _NoAnswer(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("command", sorted(_INT_OPTIONS))
@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_integer_arguments_keep_exit_contract(command, data):
    options = _INT_OPTIONS[command]
    edged = data.draw(st.sets(st.sampled_from(options), max_size=2))
    v = {opt: data.draw(_EDGES if opt in edged else _SMALL, label=opt) for opt in options}
    argv = [command] + [f"{opt}={v[opt]}" for opt in options if opt.startswith("--")]
    if command == "curves":
        argv += [f"--e1={v['a1']},{v['b1']}", f"--e2={v['a2']},{v['b2']}"]
    if command in _CHOICES:
        opt, values = _CHOICES[command]
        argv.append(f"{opt}={data.draw(st.sampled_from(values), label=opt)}")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            _time_limit(10):
        try:
            code = main(argv)  # any exception escaping main is a traceback
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    if code == 2:
        assert len(err.getvalue().strip().splitlines()) == 1


def test_simulate_reproducible(capsys):
    args = ["simulate", "--m", "2", "--n", "2000", "--seed", "5", "--t1", "1", "--t2", "1"]
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["sampled_primes"] == 301
    assert sum(sum(row) for row in doc["class_counts"]) == 301


def test_simulate_unreachable_trace_predicts_zero(capsys):
    # 700^2 >= 4p for every p <= 10^5 < 122500
    code, out, _ = run_cli(capsys, "simulate", "--m", "2", "--n", "100000", "--seed", "1",
                           "--t1", "700", "--t2", "0")
    assert code == 0
    doc = json.loads(out)
    assert (doc["hits"], doc["predicted"], doc["ratio"]) == (0, 0.0, None)


@pytest.mark.parametrize("argv", [
    ("--seed", "-1"),
    ("--seed", str(2 ** 64)),
    ("--seed", str(2 ** 128 + 1)),
    ("--m", str(model_sim.MODEL_LEVEL_BOUND + 1)),
    ("--n", str(model_sim.MODEL_N_BOUND + 1)),
])
def test_simulate_out_of_domain_rejected_before_work(capsys, monkeypatch, argv):
    def fail(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(model_sim, "sieve_primes", fail)
    monkeypatch.setattr(model_sim, "class_density", fail)
    opts = {"--m": "2", "--n": "1000", "--seed": "0", "--t1": "1", "--t2": "1"}
    opts.update([argv])
    code, out, err = run_cli(capsys, "simulate", *[x for kv in opts.items() for x in kv])
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1


def test_verify_single_suite(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "arith")
    assert code == 0
    doc = json.loads(out)
    assert doc["overall"] == "pass"
    ids = [c["id"] for c in doc["suites"]["arith"]]
    assert "arith:legendre-multiplicative" in ids
    assert "PASS" in err


def test_verify_unknown_suite(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "nope")
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "'arith'" in err  # the error names the suites


@pytest.mark.parametrize("argv", [
    ("local-factor", "--t1", "1", "--t2", "3", "--ell", "4", "--k", "2", "--method", "both"),
    ("gekeler", "--t", "1", "--p", "9"),
])
def test_composite_modulus_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "prime" in err


def test_local_factor_answers_above_the_unit_cap(capsys):
    # 10007^2 - 10007 units exceed s_direct's cap of 1e8; the stratified sum has none
    code, out, err = run_cli(capsys, "local-factor", "--t1", "1", "--t2", "2",
                             "--ell", "10007", "--k", "2", "--method", "both")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["provenance"] == "closed-form-conjecture"
    assert doc["S"] == Fraction(doc["s_normalized"]) * 10007 ** 5


def test_local_factor_large_trace(capsys):
    # t1^2 exceeds int64; S depends only on t1 mod 3^2
    t1 = 3037000500
    args = ("--t2", "0", "--ell", "3", "--k", "2", "--method", "both")
    code, out, _ = run_cli(capsys, "local-factor", "--t1", str(t1), *args)
    assert code == 0
    _, reduced, _ = run_cli(capsys, "local-factor", "--t1", str(t1 % 9), *args)
    assert json.loads(out)["S"] == json.loads(reduced)["S"]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["local-factor", "--t1", "x", "--t2", "0", "--ell", "3", "--k", "1"])
    assert exc.value.code == 2


def test_closed_stdout_exits_141():
    # ~75 KB of output: more than a pipe buffer, so the CLI is still writing when the reader leaves
    proc = subprocess.Popen(
        [sys.executable, "-m", "tracepair.cli", "curves", "--e1=-1,0", "--e2=0,1",
         "--t1", "0", "--t2", "0", "--x", "300000", "--list-primes"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(10) == b'{\n  "count'
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert err == b""


_LOADED = """
import contextlib, io, json, os, sys
from tracepair.cli import main
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            main(sys.argv[1:])
        except SystemExit:
            pass
threads = None
if os.path.exists("/proc/self/status"):
    with open("/proc/self/status") as status:
        threads = next(int(line.split()[1]) for line in status if line.startswith("Threads:"))
print(json.dumps({"modules": sorted(sys.modules), "threads": threads,
                  "openblas": os.environ.get("OPENBLAS_NUM_THREADS")}))
"""


def _job_state(*argv, openblas=None):
    """Loaded modules, OS thread count and OPENBLAS_NUM_THREADS of a fresh
    interpreter that imports the CLI and runs ``argv``; ``openblas`` presets
    the variable, which is otherwise absent from the child's environment."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if openblas is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas
    proc = subprocess.run([sys.executable, "-c", _LOADED, *argv],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _loaded_modules(*argv):
    """Modules loaded by a fresh interpreter that imports the CLI and runs ``argv``."""
    return set(_job_state(*argv)["modules"])


@pytest.mark.parametrize("argv,absent", [
    # the parser copies no value of verify or constants, so building it loads neither
    ((), ("numpy", "mpmath", "tracepair.verify", "tracepair.constants", "fractions", "decimal")),
    (("--help",),
     ("numpy", "mpmath", "tracepair.verify", "tracepair.constants", "fractions", "decimal")),
    # every record in the package is a NamedTuple: no job loads dataclasses
    (("curves", "--e1", "1,0", "--e2", "0,1", "--t1", "0", "--t2", "0", "--x", "300"),
     ("mpmath", "tracepair.verify", "fractions", "decimal", "dataclasses")),
    (("simulate", "--m", "2", "--n", "2000", "--seed", "5", "--t1", "1", "--t2", "1"),
     ("mpmath", "tracepair.verify", "dataclasses")),
    # the reference constant and the prediction are read as floats, and the
    # constant's local factors come from the closed forms without the local sums
    (("average", "--t1", "1", "--t2", "1", "--x", "5000"),
     ("tracepair.gekeler", "tracepair.class_numbers", "mpmath", "tracepair.verify",
      "dataclasses", "tracepair.matcount", "tracepair.local")),
    (("curves", "--e1", "1,0", "--e2", "0,1", "--t1", "0", "--t2", "0", "--x", "300",
      "--predict-lmax", "2000"),
     ("mpmath", "tracepair.verify", "dataclasses")),
    # only pair_constant reads the local factors; the Euler products read the sieve's
    # primes as Python ints and print their digits and tails on ints and floats, and
    # their records are NamedTuples (the other kinds are the last rows)
    (("constant", "--kind", "universal", "--lmax", "1000"),
     ("numpy", "tracepair.local", "tracepair.matcount", "tracepair.verify", "mpmath",
      "dataclasses", "inspect")),
    # the class number and the Euler factors run on Python ints; like the constant
    # and local-factor jobs, they build only NamedTuple records
    (("gekeler", "--t", "1", "--p", "101", "--lmax", "1000"),
     ("numpy", "tracepair.curves", "tracepair.constants", "mpmath", "tracepair.verify",
      "dataclasses", "inspect", "tracepair.matcount")),
    # the local sums run on Python ints
    (("local-factor", "--t1", "1", "--t2", "2", "--ell", "3", "--k", "2"),
     ("numpy", "tracepair.curves", "tracepair.class_numbers", "mpmath", "tracepair.verify",
      "dataclasses", "inspect")),
    (("local-factor", "--t1", "2", "--t2", "6", "--ell", "2", "--k", "20", "--method", "direct"),
     ("numpy", "tracepair.curves", "tracepair.class_numbers", "mpmath", "tracepair.verify",
      "dataclasses", "inspect")),
    (("local-factor", "--t1", "2", "--t2", "6", "--ell", "2", "--k", "20", "--method", "both"),
     ("numpy", "tracepair.curves", "tracepair.class_numbers", "mpmath", "tracepair.verify",
      "dataclasses", "inspect")),
    (("constant", "--kind", "pair", "--t1", "1", "--t2", "2", "--lmax", "1000"),
     ("numpy", "tracepair.verify", "mpmath", "dataclasses", "inspect", "tracepair.matcount",
      "tracepair.local")),
    (("constant", "--kind", "same-trace", "--t1", "3", "--lmax", "1000"),
     ("numpy", "tracepair.local", "tracepair.verify", "mpmath", "dataclasses", "inspect")),
    (("constant", "--kind", "single", "--t1", "-2", "--lmax", "1000"),
     ("numpy", "tracepair.local", "tracepair.verify", "mpmath", "dataclasses", "inspect")),
    (("class-number", "--d", "-1073741828"),
     ("numpy", "tracepair.gekeler", "mpmath", "tracepair.verify", "dataclasses", "inspect",
      "tracepair.matcount")),
])
def test_job_loads_only_what_it_runs(argv, absent):
    loaded = _loaded_modules(*argv)
    assert "tracepair.cli" in loaded
    assert not loaded & set(absent)


_THREAD_JOBS = [
    # numpy loads while argparse converts --e1/--e2
    ("curves", "--e1", "1,0", "--e2", "0,1", "--t1", "0", "--t2", "0", "--x", "300"),
    # numpy loads for the Hurwitz table
    ("average", "--t1", "1", "--t2", "1", "--x", "5000"),
]


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads /proc/self/status")
@pytest.mark.parametrize("argv", _THREAD_JOBS, ids=lambda argv: argv[0])
def test_job_starts_no_blas_thread_pool(argv):
    state = _job_state(*argv)
    assert "numpy" in state["modules"]
    assert state["threads"] == 1
    assert state["openblas"] == "1"


@pytest.mark.parametrize("argv", _THREAD_JOBS, ids=lambda argv: argv[0])
def test_job_keeps_callers_openblas_threads(argv):
    state = _job_state(*argv, openblas="2")
    assert "numpy" in state["modules"]
    assert state["openblas"] == "2"


def test_local_factor_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "tracepair.cli", "local-factor", "--t1", "2", "--t2", "2",
         "--ell", "2", "--k", "3", "--method", "both"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["S"] == 17408
