"""The benchmark's three workloads: seeded job lists and the one-job runner.

Every workload is a closed loop: one client, one job in flight, no threads.
A job list depends only on (workload, seed); the package receives only the
drawn inputs.  Lab job shapes (how many seeds, levels, ...) cycle in a fixed
order while the seed draws the values, so every run covers the same mix and
runs on different seeds stay comparable.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

DEFAULT_SEED = 42
WORKLOADS = ("identity-sweep", "meixner-lattice", "exact-darboux")

# run_identity_suite at its default 200 trials runs 50 classical-limit checks
# and one sum-formula check per 200 trials of the 18 checkers.
CLASSICAL_LIMIT_EVERY = 4
SUM_FORMULA_EVERY = 200
IDENTITY_ROUNDS = 1000

LAB_JOBS = 2000
RDQM_MAX_LEVEL = 6          # compared levels stay below the CLI's n_max = 8
RDQM_ENERGY_TENTHS = range(2, 31)   # virtual energies -0.2 ... -3.0
OQM_MAX_LEVEL = 5

# Jobs in one cycle of a workload's job shapes (for identity-sweep, of its
# classical-limit cadence).  A timed run ends on a whole cycle, so that every
# run has the same mix: rdqm jobs of nearly equal time carry 3 to 14 checks,
# by shape.
CYCLE_JOBS = {"identity-sweep": CLASSICAL_LIMIT_EVERY, "meixner-lattice": 16,
              "exact-darboux": 8}
# Jobs whose verdicts the default-seed digest covers; for meixner-lattice
# that is one full cycle of its job shapes, for exact-darboux 20 CLI runs.
GATE_JOBS = {"identity-sweep": 2, "meixner-lattice": CYCLE_JOBS["meixner-lattice"],
             "exact-darboux": 10}
# identity-sweep jobs whose reports are kept for the one emit at the end of
# a run; a fixed count keeps the run's memory independent of its speed.
EMIT_JOBS = 50


@dataclass
class JobResult:
    """What the benchmark keeps of one job: counts and a digest of its
    verdicts, not the checks themselves, so memory does not grow with the
    number of jobs a run completes."""
    seconds: float
    checks: int = 0
    failed: int = 0
    inconclusive: int = 0
    verdicts: str = ""                           # sha256 of the job's verdicts, a line per CLI run
    exit: int | list | None = None               # a list for an exact-darboux job
    error: str = ""                              # exception class, or "exit-2"
    detail: str = ""                             # the exception's message
    timings: list = field(default_factory=list)  # (checker or job kind, seconds)

    @property
    def errored(self) -> bool:
        return bool(self.error)


def job_result(seconds: float, checks: list[dict], **fields) -> JobResult:
    """Summarize a job's checks (``CheckReport.to_dict()`` forms)."""
    text = json.dumps([verdict(c) for c in checks], sort_keys=True)
    return JobResult(seconds, checks=len(checks),
                     failed=sum(1 for c in checks if not c["pass"]),
                     inconclusive=sum(1 for c in checks if c.get("inconclusive")),
                     verdicts=hashlib.sha256(text.encode()).hexdigest(), **fields)


# ---------------------------------------------------------------------------
# Job lists
# ---------------------------------------------------------------------------

def make_jobs(workload: str, seed: int, cas) -> list[dict]:
    """The seeded job list of a workload; ``cas`` is the imported package
    namespace (see ``load_package``)."""
    if workload == "identity-sweep":
        return identity_jobs()
    rng = random.Random(f"bench:{workload}:{seed}")
    if workload == "meixner-lattice":
        return [rdqm_job(rng, i, cas.seeds.krein_adler_check) for i in range(LAB_JOBS)]
    if workload == "exact-darboux":
        # One oqm run, then one idqm run: a 1:1 mix of single runs puts the
        # median job between the two kinds' latencies, where few jobs lie.
        return [{"kind": "darboux",
                 "runs": [oqm_job(rng, i, cas.seeds.krein_adler_check),
                          {"kind": "idqm", "seed": rng.randrange(2 ** 31)}]}
                for i in range(LAB_JOBS // 2)]
    raise ValueError(f"unknown workload {workload!r}")


def identity_jobs() -> list[dict]:
    """One job per trial index: that trial of each of the 18 checkers, plus
    the suite extras at the proportion ``run_identity_suite`` uses.  The trial
    streams come from the package's own seeded sampler (master_seed = the
    workload seed)."""
    jobs = []
    for trial in range(IDENTITY_ROUNDS):
        job = {"kind": "identity", "trial": trial}
        if trial % CLASSICAL_LIMIT_EVERY == 0:
            job["classical_limit"] = trial // CLASSICAL_LIMIT_EVERY
        if trial % SUM_FORMULA_EVERY == 0:
            job["sum_formula"] = 10
        jobs.append(job)
    return jobs


def _de_pair(rng: random.Random, k_max: int, krein_adler_check) -> list[int]:
    k = rng.randint(0, k_max)
    de = [k, k + 1]
    if not krein_adler_check(de):
        raise AssertionError(f"drew an inadmissible deletion set {de}")
    return de


def rdqm_job(rng: random.Random, index: int, krein_adler_check) -> dict:
    """Shape index cycles (0-3 virtual seeds) x (1-2 levels) x (no / pair deletion)."""
    n_dv = index % 4
    n_levels = 1 + (index // 4) % 2
    de = _de_pair(rng, 4, krein_adler_check) if (index // 8) % 2 else []
    tenths = sorted(rng.sample(RDQM_ENERGY_TENTHS, n_dv))
    dv = [f"-{t // 10}.{t % 10}" for t in tenths]       # strictly decreasing
    survivors = [n for n in range(RDQM_MAX_LEVEL + 1) if n not in de]
    levels = sorted(rng.sample(survivors, n_levels))
    return {"kind": "rdqm", "dv": dv, "de": de, "n": levels}


def oqm_job(rng: random.Random, index: int, krein_adler_check) -> dict:
    """Shape index cycles (0-3 virtual labels from {0..3}) x (no / pair deletion)."""
    n_dv = index % 4
    de = _de_pair(rng, 3, krein_adler_check) if (index // 4) % 2 else []
    dv = sorted(rng.sample(range(4), n_dv))
    n = rng.choice([n for n in range(OQM_MAX_LEVEL + 1) if n not in de])
    return {"kind": "oqm", "dv": dv, "de": de, "n": n}


def job_argv(job: dict) -> list[str]:
    """CLI arguments of a lab job (``--out`` is appended by the runner)."""
    kind = job["kind"]
    if kind == "rdqm":
        return ["rdqm", "--dv=" + ",".join(job["dv"]),
                "--de=" + ",".join(map(str, job["de"])),
                "--n", ",".join(map(str, job["n"]))]
    if kind == "oqm":
        return ["oqm", "--dv", ",".join(map(str, job["dv"])),
                "--de", ",".join(map(str, job["de"])), "--n", str(job["n"])]
    if kind == "idqm":
        return ["idqm", "--trials", "1", "--seed", str(job["seed"])]
    raise ValueError(f"{kind} is not a lab job")


# ---------------------------------------------------------------------------
# Running one job
# ---------------------------------------------------------------------------

class JobRunner:
    """Runs jobs of one workload against the imported package."""

    def __init__(self, cas, seed: int, workdir: str, clock=time.perf_counter):
        self.cas = cas
        self.clock = clock         # times jobs; run.HostSpeed.clock leaves out its probes
        self.config = cas.sampling.SamplerConfig(master_seed=seed)
        self.workdir = workdir
        self.reports = []          # CheckReports of the first EMIT_JOBS identity jobs
        self.problems: list[str] = []   # correctness-gate failures seen so far

    def run(self, job_id: int, job: dict) -> JobResult:
        if job["kind"] == "identity":
            return self._run_identity(job_id, job)
        if job["kind"] == "darboux":
            return combined([self._run_lab(job_id, run) for run in job["runs"]])
        return self._run_lab(job_id, job)

    def _run_identity(self, job_id: int, job: dict) -> JobResult:
        ident = self.cas.identities
        clock = self.clock
        reports, timings = [], []
        start = clock()
        for identity_id in ident.IDENTITY_IDS:
            t0 = clock()
            reports.append(ident.run_single_trial(identity_id, self.config, job["trial"]))
            timings.append((identity_id, clock() - t0))
        if "classical_limit" in job:
            t0 = clock()
            rng = self.cas.sampling.trial_rng(self.config, "cas-imag.classical-limit",
                                              job["classical_limit"])
            fs = [self.cas.sampling.random_poly(rng, 3, self.config.coefficient_bound,
                                                nonzero=True) for _ in range(3)]
            rep = ident.check_classical_limit(fs, Fraction(1), 4)
            rep.params["trial"] = job["classical_limit"]
            reports.append(rep)
            timings.append(("cas-imag.classical-limit", clock() - t0))
        if "sum_formula" in job:
            t0 = clock()
            reports.append(ident.check_sum_formula(job["sum_formula"]))
            timings.append(("cas-imag.sum-formula", clock() - t0))
        seconds = clock() - start
        if job_id < EMIT_JOBS:
            self.reports.extend(reports)
        return job_result(seconds, [r.to_dict() for r in reports], timings=timings)

    def _run_lab(self, job_id: int, job: dict) -> JobResult:
        out = os.path.join(self.workdir, f"job-{job_id}.json")
        argv = job_argv(job) + ["--out", out]
        sink = io.StringIO()
        start = self.clock()
        try:
            with contextlib.redirect_stderr(sink), contextlib.redirect_stdout(sink):
                code = self.cas.cli.main(argv)
        except Exception as exc:  # an admissible config that raises is a measured error
            seconds = self.clock() - start
            return job_result(seconds, [], error=type(exc).__name__, detail=str(exc),
                              timings=[(job["kind"], seconds)])
        seconds = self.clock() - start
        timings = [(job["kind"], seconds)]
        if code == 2:
            return job_result(seconds, [], exit=code, error="exit-2", timings=timings)
        with open(out) as fh:
            payload = json.load(fh)
        os.remove(out)
        problem = report_inconsistency(payload, code)
        if problem:
            self.problems.append(f"job {job_id}: {problem}")
        return job_result(seconds, payload["checks"], exit=code, timings=timings)


def combined(parts: list[JobResult]) -> JobResult:
    """One job's result from its CLI runs' results, in run order.  The
    verdict lines are kept as they are, so the verdict digest of a run is
    the one its CLI runs would give as separate jobs."""
    return JobResult(
        sum(p.seconds for p in parts), checks=sum(p.checks for p in parts),
        failed=sum(p.failed for p in parts),
        inconclusive=sum(p.inconclusive for p in parts),
        verdicts="\n".join(p.verdicts for p in parts), exit=[p.exit for p in parts],
        error=",".join(p.error for p in parts if p.error),
        detail="; ".join(p.detail for p in parts if p.detail),
        timings=[t for p in parts for t in p.timings])


def report_inconsistency(payload: dict, code: int) -> str:
    """Why a CLI report does not count its own checks or match its exit
    code; empty when it does."""
    checks = payload["checks"]
    summary = payload["summary"]
    failed = sum(1 for c in checks if not c["pass"])
    inconclusive = sum(1 for c in checks if c.get("inconclusive"))
    if (summary["total"] != len(checks) or summary["failed"] != failed
            or summary["inconclusive"] != inconclusive):
        return f"report summary {summary} disagrees with its checks"
    expected = 1 if failed else 3 if inconclusive else 0
    if code != expected:
        return f"exit code {code} but the report implies {expected}"
    return ""


# ---------------------------------------------------------------------------
# Verdict digest
# ---------------------------------------------------------------------------

def verdict(check: dict) -> dict:
    """The digest's view of one check: timing and witness fields left out."""
    return {"pass": check["pass"], "inconclusive": bool(check.get("inconclusive")),
            "lhs": check["lhs"], "rhs": check["rhs"], "params": check["params"]}


def verdict_digest(results) -> str:
    """sha256 over the verdicts of a job sequence, in job order."""
    h = hashlib.sha256()
    for result in results:
        h.update(result.verdicts.encode() + b"\n")
    return h.hexdigest()


def report_digest(payload: dict) -> str:
    """sha256 of a whole CLI report minus its timestamp and wall-clock fields."""
    stripped = {k: v for k, v in payload.items()
                if k not in ("timestamp", "wall_clock_seconds")}
    return hashlib.sha256(json.dumps(stripped, indent=2, sort_keys=True).encode()).hexdigest()
