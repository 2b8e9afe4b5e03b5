"""Tests of the benchmark's own machinery (run: python3 -m pytest bench/tests)."""

import signal
import sys
import time

import pytest

import run
import workloads as wl
from layers import LayerProbe, job_overhead
from tracer import Tracer, find_wrapped, package_modules, self_times


@pytest.fixture(scope="module")
def cas():
    return run.load_package()


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_job_lists_repeat_for_a_seed(cas, workload):
    assert wl.make_jobs(workload, 7, cas) == wl.make_jobs(workload, 7, cas)


@pytest.mark.parametrize("workload", ["meixner-lattice", "exact-darboux"])
def test_job_lists_differ_across_seeds(cas, workload):
    assert wl.make_jobs(workload, 7, cas) != wl.make_jobs(workload, 8, cas)


@pytest.mark.parametrize("seed", [0, 1, 42, 12345])
def test_rdqm_configs_are_admissible(cas, seed):
    n_max = cas.cli.build_parser().parse_args(["rdqm"]).n_max
    for job in wl.make_jobs("meixner-lattice", seed, cas):
        energies = [cas.scalars.rational(e) for e in job["dv"]]
        assert len(energies) <= 3
        assert all(e < 0 for e in energies)
        assert all(a > b for a, b in zip(energies, energies[1:]))
        assert job["de"] == [] or (len(job["de"]) == 2 and job["de"][1] == job["de"][0] + 1)
        assert cas.seeds.krein_adler_check(job["de"])
        assert 1 <= len(job["n"]) <= 2
        assert all(0 <= n <= n_max and n not in job["de"] for n in job["n"])


@pytest.mark.parametrize("seed", [0, 1, 42, 12345])
def test_darboux_configs_are_admissible(cas, seed):
    for pair in wl.make_jobs("exact-darboux", seed, cas):
        assert pair["kind"] == "darboux"
        job, idqm = pair["runs"]
        assert idqm["kind"] == "idqm" and 0 <= idqm["seed"] < 2 ** 31
        assert job["kind"] == "oqm"
        assert job["dv"] == sorted(set(job["dv"])) and set(job["dv"]) <= {0, 1, 2, 3}
        assert cas.seeds.krein_adler_check(job["de"])
        assert job["n"] not in job["de"] and job["n"] >= 0


def test_identity_jobs_keep_the_suite_proportions(cas):
    jobs = wl.make_jobs("identity-sweep", 3, cas)[:200]
    assert [job["trial"] for job in jobs] == list(range(200))
    assert sorted(job["classical_limit"] for job in jobs if "classical_limit" in job) \
        == list(range(50))
    assert sum(1 for job in jobs if "sum_formula" in job) == 1


def _check(**overrides):
    check = {"identityId": "x.y", "params": {"trial": 1}, "lhs": "1", "rhs": "1", "pass": True}
    check.update(overrides)
    return check


def test_verdict_digest_ignores_timing_fields():
    a = wl.job_result(0.5, [_check()])
    b = wl.job_result(9.0, [_check(note="slow", witness={"w": 1})],
                      timings=[("x.y", 9.0)])
    assert wl.verdict_digest([a]) == wl.verdict_digest([b])
    for changed in (_check(lhs="2"), _check(params={"trial": 2}), _check(inconclusive=True),
                    _check(**{"pass": False})):
        assert wl.verdict_digest([a]) != wl.verdict_digest([wl.job_result(0.5, [changed])])


def test_darboux_job_keeps_the_digest_of_its_runs():
    oqm = wl.job_result(0.2, [_check(), _check(inconclusive=True)], exit=3)
    idqm = wl.job_result(0.1, [_check(lhs="2", rhs="2")], exit=0)
    pair = wl.combined([oqm, idqm])
    assert wl.verdict_digest([pair]) == wl.verdict_digest([oqm, idqm])
    assert (pair.seconds, pair.checks, pair.inconclusive, pair.exit) == (
        pytest.approx(0.3), 3, 1, [3, 0])


def test_job_result_keeps_counts_not_checks():
    result = wl.job_result(1.0, [_check(), _check(**{"pass": False}), _check(inconclusive=True)])
    assert (result.checks, result.failed, result.inconclusive) == (3, 1, 1)


def test_report_digest_ignores_timestamp_and_wall_clock():
    base = {"schema": 1, "checks": [_check()], "timestamp": "2026-01-01T00:00:00",
            "wall_clock_seconds": 1.0}
    later = dict(base, timestamp="2027-01-01T00:00:00", wall_clock_seconds=42.0)
    assert wl.report_digest(base) == wl.report_digest(later)
    assert wl.report_digest(base) != wl.report_digest(dict(base, checks=[_check(rhs="0")]))


def test_self_times_on_a_synthetic_tree():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 3.0, 5.0, 0, 0),      # overlaps a: the union [1, 5] is covered once
        ("c", 2.0, 3.0, 1, 0),
        ("d", 9.5, 12.0, 0, 0),     # runs past its parent: only [9.5, 10] counts
        ("other", 20.0, 21.0, -1, 1),
    ]
    assert self_times(spans) == pytest.approx([10 - 4 - 0.5, 2.0, 2.0, 1.0, 2.5, 1.0])


def test_job_overhead_subtracts_runner_spans():
    spans = [
        ("job.darboux", 0.0, 1.0, -1, 0),
        ("cli.run_oqm", 0.1, 0.5, 0, 0),
        ("cli.run_idqm", 0.5, 0.7, 0, 0),
        ("report.emit", 0.8, 0.9, 0, 0),
        ("job.identity", 1.0, 2.0, -1, 1),
    ]
    assert job_overhead(spans) == pytest.approx(0.4)


def test_tail_is_a_fixed_percentile():
    assert run.tail(list(range(101)), 90) == pytest.approx(90.0)
    assert run.tail(list(range(1001)), 90) == pytest.approx(900.0)
    assert run.tail([5.0], 90) == 5.0


def test_timed_loop_ends_on_a_whole_cycle():
    class Runner:
        def run(self, job_id, job):
            return wl.job_result(0.0, [_check()])

    jobs = [{"kind": "x"}] * 40
    for min_jobs, cycle, want in ((1, 1, 1), (1, 16, 16), (20, 16, 32), (2, 4, 4)):
        results, _ = run.timed_loop(Runner(), jobs, 1e-9, min_jobs, cycle, time.perf_counter)
        assert len(results) == want


def test_host_speed_clock_leaves_out_its_probes():
    before = signal.getsignal(signal.SIGALRM)
    host = run.HostSpeed()
    with host:
        start, wall_start = host.clock(), time.perf_counter()
        while time.perf_counter() - wall_start < 0.5:
            pass
        counted, wall = host.clock() - start, time.perf_counter() - wall_start
    assert len(host.probes) >= 5
    assert counted == pytest.approx(wall - host.spent, abs=1e-3)
    assert host.spent >= sum(host.probes)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_time_metrics_scale_to_the_reference_host_speed():
    """Twice the host factor and twice the raw times give the same metrics."""
    ref = run.PROBE_REFERENCE_S
    seconds = [0.1, 0.25, 0.3, 0.2]

    def metrics(factor):
        results = [wl.job_result(s * factor, [_check()]) for s in seconds]
        values, _ = run.end_to_end("exact-darboux", results, sum(seconds) * factor,
                                   [ref * factor] * 3, [0.1 * factor], [ref * factor])
        return values

    fast, slow = metrics(1.0), metrics(2.0)
    for name in ("setup_s", "checks_per_s", "job_ms_p50", "job_ms_tail"):
        assert slow[name] == pytest.approx(fast[name])
    assert fast["checks_per_s"] == pytest.approx(4 / sum(seconds))
    assert fast["setup_s"] == pytest.approx(0.1)


def _bindings():
    out = {}
    for mod in package_modules():
        for name, value in vars(mod).items():
            out[(mod.__name__, name)] = value
            if isinstance(value, type) and value.__module__.startswith("casorati"):
                for attr, member in vars(value).items():
                    out[(mod.__name__, name, attr)] = member
    return out


def test_tracer_restores_every_wrapped_attribute(cas, tmp_path):
    before = _bindings()
    tracer = Tracer()
    probe = LayerProbe(tracer, cas)
    try:
        probe.install()
        assert tracer.patched_count() > 50
        assert "casorati.determinants.fraction_free_det" in find_wrapped()
        assert "casorati.poly.Poly.__rmul__" in find_wrapped()
        runner = wl.JobRunner(cas, 1, str(tmp_path))
        for job_id, job in enumerate(wl.make_jobs("identity-sweep", 1, cas)[:2]):
            tracer.job_id = job_id
            span = tracer.open_span("job")
            runner.run(job_id, job)
            tracer.close_span(span)
    finally:
        tracer.restore()
    assert find_wrapped() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert tracer.counts["scalars.gr_new.calls"] > 0
    assert all(span[2] is not None and span[2] >= span[1] for span in tracer.spans)


def test_bench_imports_only_this_checkout(cas):
    assert run.SRC.resolve() in run.Path(sys.modules["casorati"].__file__).resolve().parents
