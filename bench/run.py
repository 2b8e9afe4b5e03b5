#!/usr/bin/env python3
"""Benchmark of the casorati verifier: three workloads, one command.

    python3 bench/run.py --workload identity-sweep --seed 3 --seconds 30 --trace 0
    python3 bench/run.py --workload meixner-lattice --seed 3 --seconds 30 --trace 1
    python3 bench/run.py --golden            # digest of `identities --trials 200 --seed 42`

With ``--trace 0`` it runs the workload's closed loop for ``--seconds``,
checks the verdicts and prints the end-to-end metrics.  Their times are
scaled to a reference host speed, read from a fixed probe timed every 50 ms
of the loop and before every set-up sample (see ``HostSpeed``); the raw
figures are printed too.  With ``--trace 1``
it runs a fixed number of jobs (set by ``--seconds``) with every layer
wrapped, restores the package, reruns the same jobs unwrapped and prints the
per-layer metrics plus the tracing overhead.  The last stdout line is the
JSON result; per-job rows, spans and the environment stamp go to
``bench/results/``.  The package is imported from ``src/`` of the checkout
this file sits in, and nowhere else.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import types
from fractions import Fraction
from pathlib import Path

import workloads as wl
from layers import LayerProbe, layer_metrics, metric_names
from tracer import Tracer, find_wrapped

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
DIGESTS = BENCH_DIR / "digests.json"

SETUP_REPS = 15
# The host-speed probe sums this many rational terms with the standard
# library's Fraction (none of casorati), about 1.5 ms; its mean on a 2-vCPU
# VM (Python 3.11.7) is the reference speed every time metric is scaled to.
PROBE_TERMS = 200
PROBE_REFERENCE_S = 0.0015
SAMPLE_INTERVAL_S = 0.05      # probe period during the timed loop
SETUP_PROBES = 4              # probes before each set-up interpreter
# The percentile `job_ms_tail` reports, fixed per workload so that a faster
# program, which completes more jobs, is still measured at the same point.
# Each leaves at least 10 jobs beyond it in a 30 s run on a 2-vCPU VM, except
# on meixner-lattice, whose 14-21 jobs of 1-2.6 s cannot.
TAIL_PERCENTILE = {"identity-sweep": 90, "meixner-lattice": 90, "exact-darboux": 90}
# Traced runs execute ceil(seconds * rate) jobs, so their counts repeat
# exactly; on a 2-vCPU VM (Python 3.11, pure-Python mpmath) the rates make the
# traced plus untraced passes take about --seconds.  The gate prefix is a
# floor: meixner-lattice always traces 16 jobs, about 50-70 s in all.
TRACE_JOBS_PER_SECOND = {"identity-sweep": 2.0, "meixner-lattice": 0.25,
                         "exact-darboux": 2.0}
END_TO_END_UNITS = {"setup_s": "s", "checks_per_s": "checks/s", "job_ms_p50": "ms",
                    "job_ms_tail": "ms", "failed_share": "ratio", "error_share": "ratio",
                    "undecided_share": "ratio", "peak_rss_mb": "MB"}
# End-to-end metrics that are 0 on a healthy run and so cannot carry a
# relative bound; they are printed, not put in the JSON result.
ZERO_ON_HEALTHY_RUN = ("failed_share", "error_share", "undecided_share")


class PackageMissing(RuntimeError):
    pass


def load_package() -> types.SimpleNamespace:
    """Import casorati from this checkout's src/ (never from elsewhere)."""
    if not (SRC / "casorati" / "__init__.py").is_file():
        raise PackageMissing(f"no casorati package under {SRC}")
    sys.path.insert(0, str(SRC))
    names = ("cli", "identities", "sampling", "seeds", "scalars")
    mods = {name: importlib.import_module(f"casorati.{name}") for name in names}
    origin = Path(sys.modules["casorati"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise PackageMissing(f"casorati imported from {origin}, not from {SRC}")
    return types.SimpleNamespace(**mods)


def probe() -> float:
    """Seconds one fixed piece of pure-Python rational arithmetic takes now.

    The VM this benchmark runs on changes speed by up to about 40 % over
    seconds to minutes, for the program and this probe alike.  Timing the
    probe through the work and dividing by its mean time removes most of
    that drift; the program never runs inside it.  The collector is held off
    so that the probe never does the program's garbage collection."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, PROBE_TERMS):
            total += Fraction(i, i + 3) * Fraction(7, i + 1)
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def host_factor(probes: list[float]) -> float:
    """How much slower than the reference speed the host ran: > 1 is slower.

    A mean, not a median: a probe lands on a fast or a slow stretch of the
    host, about 1.0 or 1.7 ms, and the program's time follows the share of
    each over the run."""
    return statistics.mean(probes) / PROBE_REFERENCE_S


class HostSpeed:
    """While entered, times ``probe`` every SAMPLE_INTERVAL_S of wall time
    from a SIGALRM handler, in this one thread, between the program's
    bytecodes.  ``clock`` is perf_counter less the time spent in the
    handler, so whatever is timed with it leaves the probes out."""

    def __init__(self):
        self.probes: list[float] = []
        self.spent = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.probes.append(probe())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def setup_probe(workload: str, seed: int) -> float:
    """Seconds to import casorati and casorati.cli and build the job list."""
    start = time.perf_counter()
    cas = load_package()
    wl.make_jobs(workload, seed, cas)
    return time.perf_counter() - start


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up timed in SETUP_REPS fresh interpreters, one after another, each
    preceded by SETUP_PROBES host-speed probes; returns (set-up times, probe
    times)."""
    times, probes = [], []
    for _ in range(SETUP_REPS):
        probes.extend(probe() for _ in range(SETUP_PROBES))
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times, probes


# ---------------------------------------------------------------------------
# Environment stamp
# ---------------------------------------------------------------------------

def git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import mpmath
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "git_sha": git_sha(ROOT),
        "CASORATI_PRECISION_BITS": os.environ.get("CASORATI_PRECISION_BITS"),
    }


# ---------------------------------------------------------------------------
# Loops
# ---------------------------------------------------------------------------

def timed_loop(runner, jobs, seconds: float, min_jobs: int, cycle: int, clock):
    """Closed loop: next job only after the previous one.  The loop ends on a
    whole ``cycle`` of jobs, once ``min_jobs`` are done, at the cycle end
    nearest the deadline, judged by the last cycle's length (a meixner-lattice
    cycle takes about 30 s).  Returns the results and the seconds ``clock``
    counted."""
    results = []
    start = cycle_start = clock()
    deadline = start + seconds
    for job_id, job in enumerate(jobs):
        results.append(runner.run(job_id, job))
        if len(results) % cycle:
            continue
        now = clock()
        if now + (now - cycle_start) / 2 >= deadline and len(results) >= min_jobs:
            break
        cycle_start = now
    return results, clock() - start


def fixed_loop(runner, jobs, tracer=None):
    results = []
    start = time.perf_counter()
    for job_id, job in enumerate(jobs):
        if tracer is None:
            results.append(runner.run(job_id, job))
            continue
        tracer.job_id = job_id
        span = tracer.open_span("job." + job["kind"])
        results.append(runner.run(job_id, job))
        tracer.close_span(span)
    return results, time.perf_counter() - start


def emit_identity_reports(cas, runner, seed: int, workdir: str) -> list[str]:
    """Emit the run's identity reports once through the CLI's emitter and
    check what it wrote."""
    out = os.path.join(workdir, "identities-report.json")
    args = cas.cli.build_parser().parse_args(["identities", "--seed", str(seed), "--out", out])
    code = cas.cli.emit(args, runner.reports, time.time(), cas.cli.config_echo_from(args))
    with open(out) as fh:
        summary = json.load(fh)["summary"]
    problems = []
    if code != 0:
        problems.append(f"identity report exit code {code}")
    if summary["total"] != len(runner.reports) or summary["passed"] != summary["total"]:
        problems.append(f"identity report summary {summary}")
    return problems


# ---------------------------------------------------------------------------
# Metrics and gates
# ---------------------------------------------------------------------------

def tail(values: list[float], percentile: int) -> float:
    """The ``percentile``-th percentile, interpolated between samples."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[percentile - 1]


def end_to_end(workload: str, results, wall: float, loop_probes: list[float],
               setup_times: list[float], setup_probes: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics, times scaled to the reference host speed, and
    a note per metric that gives the raw figures."""
    attempted = sum(r.checks for r in results)
    speed = host_factor(loop_probes)
    setup_speed = host_factor(setup_probes)
    raw_ms = [r.seconds * 1000 for r in results]
    job_ms = [ms / speed for ms in raw_ms]
    tail_pct = TAIL_PERCENTILE[workload]
    tail_ms = tail(job_ms, tail_pct)
    errors = [r.error for r in results if r.errored]
    values = {
        "setup_s": statistics.median(setup_times) / setup_speed,
        "checks_per_s": attempted / wall * speed,
        "job_ms_p50": statistics.median(job_ms),
        "job_ms_tail": tail_ms,
        "failed_share": _share(sum(r.failed for r in results), attempted),
        "error_share": _share(len(errors), len(results)),
        "undecided_share": _share(sum(r.inconclusive for r in results), attempted),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh interpreters; raw "
                   f"{_fmt(statistics.median(setup_times))} s at host factor {setup_speed:.3f}",
        "checks_per_s": f"{attempted} checks in {wall:.3f} s; raw {_fmt(attempted / wall)} "
                        f"checks/s at host factor {speed:.3f} ({len(loop_probes)} probes)",
        "job_ms_p50": f"n={len(job_ms)} jobs; raw {_fmt(statistics.median(raw_ms))} ms",
        "job_ms_tail": f"p{tail_pct} of n={len(job_ms)} jobs, "
                       f"{sum(1 for v in job_ms if v > tail_ms)} beyond it; "
                       f"raw {_fmt(tail(raw_ms, tail_pct))} ms",
        "error_share": f"{len(errors)}/{len(results)} jobs"
                       + (f" ({', '.join(sorted(set(errors)))})" if errors else ""),
        "failed_share": f"of {attempted} checks",
        "undecided_share": f"of {attempted} checks",
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    return values, notes


def _share(part, whole) -> float:
    return part / whole if whole else 0.0


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def gate(workload: str, seed: int, results) -> list[str]:
    """Correctness checks on the program's verdicts."""
    problems = []
    if workload == "identity-sweep":
        failed = sum(r.failed for r in results)
        inconclusive = sum(r.inconclusive for r in results)
        errored = sum(r.errored for r in results)
        if failed or inconclusive or errored:
            problems.append(f"identity-sweep: {failed} checks failed, {inconclusive} "
                            f"inconclusive, {errored} jobs errored")
    if seed == wl.DEFAULT_SEED:
        want = json.loads(DIGESTS.read_text())["gate"].get(workload)
        got = wl.verdict_digest(results[:wl.GATE_JOBS[workload]])
        if got != want:
            problems.append(f"default-seed verdict digest {got} != recorded {want}")
    return problems


def job_rows(workload: str, jobs, results, phase: str) -> list[dict]:
    rows = []
    for job_id, (job, r) in enumerate(zip(jobs, results)):
        rows.append({
            "workload": workload, "job": job_id, "phase": phase, "config": job,
            "seconds": r.seconds, "checks": r.checks,
            "failed": r.failed, "inconclusive": r.inconclusive,
            "exit": r.error or r.exit, "detail": r.detail,
        })
    return rows


def write_jsonl(path: Path, rows) -> None:
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def run_untraced(cas, args, jobs, workdir):
    setup_times, setup_probes = measure_setup(args.workload, args.seed)
    host = HostSpeed()
    runner = wl.JobRunner(cas, args.seed, workdir, clock=host.clock)
    min_jobs = wl.GATE_JOBS[args.workload] if args.seed == wl.DEFAULT_SEED else 1
    with host:
        results, wall = timed_loop(runner, jobs, args.seconds, min_jobs,
                                   wl.CYCLE_JOBS[args.workload], host.clock)
    loop_probes = host.probes
    problems = gate(args.workload, args.seed, results) + runner.problems
    if args.workload == "identity-sweep":
        problems += emit_identity_reports(cas, runner, args.seed, workdir)
    values, notes = end_to_end(args.workload, results, wall, loop_probes,
                               setup_times, setup_probes)
    lines = [f"{name} {_fmt(values[name])} {unit}  ({notes.get(name, '')})"
             for name, unit in END_TO_END_UNITS.items()]
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END_UNITS.items() if name not in ZERO_ON_HEALTHY_RUN}
    rows = job_rows(args.workload, jobs, results, phase="timed")
    extra = {"setup_times": setup_times, "setup_probes": setup_probes,
             "loop_probes": loop_probes, "probe_reference_s": PROBE_REFERENCE_S,
             "verdict_digest": wl.verdict_digest(results)}
    return results, metrics, lines, problems, rows, extra, None


def run_traced(cas, args, jobs, workdir):
    count = max(math.ceil(args.seconds * TRACE_JOBS_PER_SECOND[args.workload]),
                wl.GATE_JOBS[args.workload])
    jobs = jobs[:count]
    tracer = Tracer()
    probe = LayerProbe(tracer, cas)
    runner = wl.JobRunner(cas, args.seed, workdir)
    problems = []
    try:
        probe.install()
        patched = tracer.patched_count()
        traced, traced_wall = fixed_loop(runner, jobs, tracer)
        if args.workload == "identity-sweep":
            problems += emit_identity_reports(cas, runner, args.seed, workdir)
    finally:
        tracer.restore()
    leftovers = find_wrapped()
    if leftovers:
        problems.append(f"tracer left wrapped attributes: {leftovers}")
    runner.reports = []
    plain, plain_wall = fixed_loop(runner, jobs)
    if wl.verdict_digest(traced) != wl.verdict_digest(plain):
        problems.append("traced and untraced verdicts differ")
    problems += gate(args.workload, args.seed, plain) + runner.problems

    by_label: dict = {}
    for r in plain:
        for label, seconds in r.timings:
            by_label.setdefault(label, []).append(seconds * 1000)
    values = layer_metrics(probe, by_label)
    checks = sum(r.checks for r in plain)
    values["trace.checks_per_s_traced"] = checks / traced_wall
    values["trace.checks_per_s_untraced"] = checks / plain_wall
    values["trace.overhead_ratio"] = traced_wall / plain_wall
    units = dict(metric_names())
    lines = [f"{name} {_fmt(values[name])} {unit}" for name, unit in units.items()]
    lines.append(f"tracing: {patched} attributes wrapped, {len(leftovers)} left after restore; "
                 f"{len(tracer.spans)} spans; {count} jobs traced then rerun untraced")
    budget = getattr(sys.modules["casorati.determinants"], "COEFF_BIT_BUDGET", None)
    lines.append(f"poly.peak_coeff_bits {probe.peak_coeff_bits} of COEFF_BIT_BUDGET {budget}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    rows = (job_rows(args.workload, jobs, traced, phase="traced")
            + job_rows(args.workload, jobs, plain, phase="untraced"))
    extra = {"patched_attributes": patched, "spans": len(tracer.spans)}
    return plain, metrics, lines, problems, rows, extra, tracer.spans


def run_benchmark(args) -> int:
    cas = load_package()
    jobs = wl.make_jobs(args.workload, args.seed, cas)
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = environment()
    with tempfile.TemporaryDirectory(dir=RESULTS) as workdir:
        mode = run_traced if args.trace else run_untraced
        results, metrics, lines, problems, rows, extra, spans = mode(cas, args, jobs, workdir)
    write_jsonl(stem.with_suffix(".jobs.jsonl"), rows)
    if spans is not None:
        write_jsonl(stem.with_suffix(".spans.jsonl"), spans)
    result = {"correct": not problems, "attempted": len(results),
              "failed": sum(1 for r in results if r.errored), "metrics": metrics}
    stem.with_suffix(".result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "environment": env, "problems": problems,
         **extra, **result}, indent=2) + "\n")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for line in lines:
        print(line)
    for problem in problems:
        print(f"GATE FAILED: {problem}")
    print(json.dumps(result))
    return 0 if not problems else 1


def run_golden() -> int:
    """Digest of the ROADMAP invariance run; slow, so never part of a run."""
    cas = load_package()
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as workdir:
        out = os.path.join(workdir, "golden.json")
        code = cas.cli.main(["identities", "--trials", "200", "--seed", "42", "--out", out])
        with open(out) as fh:
            got = wl.report_digest(json.load(fh))
    want = json.loads(DIGESTS.read_text())["golden_identities_trials200_seed42"]
    print(json.dumps({"exit": code, "digest": got, "recorded": want}))
    return 0 if code == 0 and got == want else 1


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, default="identity-sweep")
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--golden", action="store_true",
                        help="digest `casorati identities --trials 200 --seed 42`")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            print(setup_probe(args.workload, args.seed))
            return 0
        if args.golden:
            return run_golden()
        return run_benchmark(args)
    except PackageMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
