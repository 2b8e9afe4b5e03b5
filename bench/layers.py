"""Which package functions the traced run wraps, and the per-layer metrics
derived from its spans and counters.

Every layer is measured from outside the package: the tracer patches public
functions and methods, so the package source stays untouched.  ``seeds``,
``gridfn`` and ``sampling`` get no timing; each is a negligible share in every
profile of the three workloads.
"""

from __future__ import annotations

import statistics
import sys
from collections import defaultdict

from tracer import Tracer, self_times

BAREISS_SIZES = range(1, 9)          # n9p collects any larger matrix

# (span name, module, function) for module-level functions that get spans.
FUNCTION_SPANS = (
    ("poly.products_equal", "casorati.poly", "poly_products_equal"),
    ("oqm.build_model", "casorati.oqm", "build_harmonic_model"),
    ("oqm.two_path", "casorati.oqm", "two_path_compare"),
    ("oqm.degree_census", "casorati.oqm", "degree_census"),
    ("idqm.prefactor_gg", "casorati.idqm", "check_prefactor_gg"),
    ("idqm.potential_product", "casorati.idqm", "check_potential_product_identity"),
    ("idqm.two_path", "casorati.idqm", "two_path_compare_idqm"),
    ("rdqm.build_model", "casorati.rdqm", "build_meixner_model"),
    ("rdqm.seed_solve", "casorati.rdqm", "solve_seed_at_energy"),
    ("rdqm.two_path", "casorati.rdqm", "two_path_compare_rdqm"),
    ("rdqm.chain_replay", "casorati.rdqm", "darboux_chain_replay"),
    ("rdqm.deformed_potentials", "casorati.rdqm", "deformed_potentials_bd"),
    ("rdqm.deformed_eigenfunctions", "casorati.rdqm", "deformed_eigenfunctions"),
    ("rdqm.spectrum", "casorati.rdqm", "spectrum_check"),
    ("tridiag.count_below", "casorati.tridiag", "count_below"),
    ("tridiag.lowest_eigenvalues", "casorati.tridiag", "lowest_eigenvalues"),
    ("cli.run_identities", "casorati.cli", "run_identities"),
    ("cli.run_oqm", "casorati.cli", "run_oqm"),
    ("cli.run_idqm", "casorati.cli", "run_idqm"),
    ("cli.run_rdqm", "casorati.cli", "run_rdqm"),
    ("report.emit", "casorati.cli", "emit"),
)

# (counter name, module, function) for functions that are only counted.
FUNCTION_COUNTS = (
    ("determinants.wronskian", "casorati.determinants", "wronskian"),
    ("determinants.cas_imag", "casorati.determinants", "casoratian_imag"),
    ("determinants.cas_real", "casorati.determinants", "casoratian_real"),
)

# Methods that get spans: (span name, module, class, method).
METHOD_SPANS = (
    ("poly.mul", "casorati.poly", "Poly", "__mul__"),
    ("poly.divmod", "casorati.poly", "Poly", "__divmod__"),
    ("poly.shift", "casorati.poly", "Poly", "shift"),
    ("poly.reduce", "casorati.poly", "RationalFn", "reduce"),
)

# Arithmetic dunders of GaussianRational (``__radd__``/``__rmul__`` are
# aliases and are patched with their originals).
GR_OPS = ("__add__", "__sub__", "__rsub__", "__neg__", "__mul__",
          "__truediv__", "__rtruediv__")

# Spans of the code a CLI job exists to run; the rest of a job span is
# CLI and report overhead.
RUNNER_SPANS = ("cli.run_identities", "cli.run_oqm", "cli.run_idqm", "cli.run_rdqm")

EXTRA_CHECKS = ("cas-imag.classical-limit", "cas-imag.sum-formula")


class LayerProbe:
    """Installs the wrappers of every layer on one Tracer and keeps the
    per-call observations that are not spans."""

    def __init__(self, tracer: Tracer, cas):
        self.tracer = tracer
        self.cas = cas
        self.peak_coeff_bits = 0
        self.grid_calls = 0
        self.grid_repeats = 0
        self._grid_seen: set = set()
        self._grid_job = None

    def install(self) -> None:
        t = self.tracer
        for name, module, attr in FUNCTION_SPANS:
            t.patch_function(module, attr, lambda fn, name=name: t.span(name, fn))
        for name, module, attr in FUNCTION_COUNTS:
            t.patch_function(module, attr, lambda fn, name=name: t.counter(name, fn))
        t.patch_function("casorati.determinants", "fraction_free_det",
                         lambda fn: t.span("determinants.bareiss", fn,
                                           label=_bareiss_label, after=self._det_bits))
        t.patch_function("casorati.determinants", "cofactor_det",
                         lambda fn: t.span("determinants.cofactor", fn, after=self._det_bits))
        t.patch_function("casorati.determinants", "casoratian_real_grid",
                         lambda fn: t.span("determinants.cas_real_grid", fn,
                                           label=self._grid_label))
        for name, module, cls, attr in METHOD_SPANS:
            owner = getattr(sys.modules[module], cls)
            t.patch_method(owner, attr, lambda fn, name=name: t.span(name, fn))
        gr = self.cas.scalars.GaussianRational
        t.patch_method(gr, "__init__", lambda fn: t.counter("scalars.gr_new", fn))
        for attr in GR_OPS:
            t.patch_method(gr, attr, lambda fn: t.counter("scalars.gr_ops", fn))
        identities = self.cas.identities
        for attr in sorted(vars(identities)):
            if attr.startswith("check_") and callable(getattr(identities, attr)):
                t.patch_function("casorati.identities", attr,
                                 lambda fn: t.counter("identities.checker", fn,
                                                      count_raise=ZeroDivisionError))

    def _det_bits(self, result, args) -> None:
        poly = getattr(result, "p", result)
        bits = getattr(poly, "max_coeff_bits", None)
        if bits is not None:
            self.peak_coeff_bits = max(self.peak_coeff_bits, bits())

    def _grid_label(self, args) -> str:
        job = self.tracer.job_id
        if job != self._grid_job:
            self._grid_job = job
            self._grid_seen = set()
        key = tuple(tuple(f.values) for f in args[0])
        self.grid_calls += 1
        if key in self._grid_seen:
            self.grid_repeats += 1
        else:
            self._grid_seen.add(key)
        return "determinants.cas_real_grid"


def _bareiss_label(args) -> str:
    n = len(args[0])
    return f"determinants.bareiss.n{n}" if n in BAREISS_SIZES else "determinants.bareiss.n9p"


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in print order."""
    names = [("scalars.gr_ops", "count"), ("scalars.gr_new", "count")]
    names += [(f"poly.{op}.calls", "count") for op in ("mul", "divmod", "shift")]
    names += [(f"poly.{op}.self_s", "s")
              for op in ("mul", "divmod", "shift", "products_equal", "reduce")]
    names += [("poly.peak_coeff_bits", "bits"),
              ("determinants.bareiss.calls", "count"), ("determinants.bareiss.self_s", "s")]
    for size in [f"n{n}" for n in BAREISS_SIZES] + ["n9p"]:
        names += [(f"determinants.bareiss.{size}.calls", "count"),
                  (f"determinants.bareiss.{size}.self_s", "s")]
    names += [("determinants.cofactor.calls", "count"), ("determinants.cofactor.self_s", "s")]
    names += [(f"determinants.{fam}.calls", "count")
              for fam in ("wronskian", "cas_imag", "cas_real", "cas_real_grid")]
    names += [("determinants.cas_real_grid.self_s", "s"),
              ("determinants.cas_real_grid.repeat_share", "ratio")]
    names += [(f"identities.{ident}.p50_ms", "ms") for ident in identity_labels()]
    names += [("identities.redraw_share", "ratio")]
    names += [(f"oqm.{p}.self_s", "s") for p in ("two_path", "degree_census", "build_model")]
    names += [(f"idqm.{p}.self_s", "s")
              for p in ("prefactor_gg", "potential_product", "two_path")]
    names += [("idqm.draw_yield", "ratio")]
    names += [(f"rdqm.{p}.self_s", "s")
              for p in ("build_model", "seed_solve", "two_path", "chain_replay",
                        "deformed_potentials", "deformed_eigenfunctions", "spectrum")]
    names += [("tridiag.count_below.calls", "count"), ("tridiag.count_below.self_s", "s"),
              ("tridiag.lowest_eigenvalues.self_s", "s")]
    names += [("cli.job_overhead_s", "s"), ("report.emit.self_s", "s")]
    names += [("trace.checks_per_s_traced", "checks/s"),
              ("trace.checks_per_s_untraced", "checks/s"),
              ("trace.overhead_ratio", "ratio")]
    return names


def identity_labels() -> list[str]:
    families = ("cas-imag", "cas-real", "wronskian")
    kinds = ("corollary", "gauge", "nesting", "one-reduction", "quotient", "theorem")
    return sorted([f"{f}.{k}" for f in families for k in kinds] + list(EXTRA_CHECKS))


def layer_metrics(probe: LayerProbe, job_ms_by_label: dict) -> dict:
    """Per-layer metric values (without the trace.* overhead figures).

    ``job_ms_by_label`` holds the untraced job times of the same jobs, keyed
    by checker id, for the per-checker medians."""
    tracer = probe.tracer
    spans = tracer.spans
    counts = tracer.counts
    self_s = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        self_s[span[0]] += own

    out = {"scalars.gr_ops": counts["scalars.gr_ops.calls"],
           "scalars.gr_new": counts["scalars.gr_new.calls"]}
    for op in ("mul", "divmod", "shift"):
        out[f"poly.{op}.calls"] = counts[f"poly.{op}.calls"]
    for op in ("mul", "divmod", "shift", "products_equal", "reduce"):
        out[f"poly.{op}.self_s"] = self_s[f"poly.{op}"]
    out["poly.peak_coeff_bits"] = probe.peak_coeff_bits
    sizes = [f"n{n}" for n in BAREISS_SIZES] + ["n9p"]
    out["determinants.bareiss.calls"] = sum(
        counts[f"determinants.bareiss.{s}.calls"] for s in sizes)
    out["determinants.bareiss.self_s"] = sum(
        self_s[f"determinants.bareiss.{s}"] for s in sizes)
    for s in sizes:
        out[f"determinants.bareiss.{s}.calls"] = counts[f"determinants.bareiss.{s}.calls"]
        out[f"determinants.bareiss.{s}.self_s"] = self_s[f"determinants.bareiss.{s}"]
    out["determinants.cofactor.calls"] = counts["determinants.cofactor.calls"]
    out["determinants.cofactor.self_s"] = self_s["determinants.cofactor"]
    for fam in ("wronskian", "cas_imag", "cas_real", "cas_real_grid"):
        out[f"determinants.{fam}.calls"] = counts[f"determinants.{fam}.calls"]
    out["determinants.cas_real_grid.self_s"] = self_s["determinants.cas_real_grid"]
    out["determinants.cas_real_grid.repeat_share"] = _share(probe.grid_repeats,
                                                            probe.grid_calls)
    for label in identity_labels():
        times = job_ms_by_label.get(label)
        out[f"identities.{label}.p50_ms"] = statistics.median(times) if times else 0.0
    out["identities.redraw_share"] = _share(counts["identities.checker.raised"],
                                            counts["identities.checker.calls"])
    for p in ("two_path", "degree_census", "build_model"):
        out[f"oqm.{p}.self_s"] = self_s[f"oqm.{p}"]
    for p in ("prefactor_gg", "potential_product", "two_path"):
        out[f"idqm.{p}.self_s"] = self_s[f"idqm.{p}"]
    accepted = counts["idqm.two_path.calls"] - counts["idqm.two_path.raised"]
    out["idqm.draw_yield"] = _share(accepted, counts["idqm.prefactor_gg.calls"])
    for p in ("build_model", "seed_solve", "two_path", "chain_replay",
              "deformed_potentials", "deformed_eigenfunctions", "spectrum"):
        out[f"rdqm.{p}.self_s"] = self_s[f"rdqm.{p}"]
    out["tridiag.count_below.calls"] = counts["tridiag.count_below.calls"]
    out["tridiag.count_below.self_s"] = self_s["tridiag.count_below"]
    out["tridiag.lowest_eigenvalues.self_s"] = self_s["tridiag.lowest_eigenvalues"]
    out["cli.job_overhead_s"] = job_overhead(spans)
    out["report.emit.self_s"] = self_s["report.emit"]
    return out


def job_overhead(spans: list) -> float:
    """Sum over CLI job spans of the job's duration minus its runner spans."""
    runner_time = defaultdict(float)
    cli_jobs = {}
    for idx, (name, start, end, parent, job) in enumerate(spans):
        if name.startswith("job.") and name[4:] in ("darboux", "rdqm"):
            cli_jobs[idx] = end - start
        elif name in RUNNER_SPANS and parent >= 0:
            runner_time[parent] += end - start
    return sum(total - runner_time[idx] for idx, total in cli_jobs.items())


def _share(part, whole) -> float:
    return part / whole if whole else 0.0
