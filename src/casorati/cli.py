"""Command-line entry point: parse, run, print.

Subcommands: identities | oqm | idqm | rdqm | all.  Each ``run_<lab>``
validates its flags, builds the lab's model and calls the lab's checks; the
identity suite, the lab modules and ``identities.idqm_trial`` write every
report and witness, and ``--replay`` re-runs a witness through the check
registry.  Runs are reproducible from their configuration alone; the JSON
report echoes it, and ``rdqm --csv`` exports the spectrum.  Exit codes:
0 every check passed, 1 at least one failure, 2 configuration error (an
inadmissible witness, a missed residual gate or bit budget, a violated sign
premise), 3 inconclusive-only issues (sign samples, truncation sensitivity).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import sys
import time
from typing import Callable

import mpmath

from . import __version__
from .determinants import DeterminantBudgetError
from .identities import idqm_trial, replay_witness, run_identity_suite
from .oqm import census_check, harmonic_model_for, two_path_compare
from .rdqm import (NegativeRadicandError, ResidualGateError, SingularDeformationError,
                   build_meixner_model, darboux_chain_replay, sign_conjecture_check,
                   spectrum_report, tolerance_text, two_path_compare_rdqm)
from .report import CheckReport, sort_reports, summarize
from .sampling import MAX_DEGREE, MAX_TRIALS, SamplerConfig
from .scalars import DEFAULT_PRECISION_BITS, rational, require_at_most

SCHEMA_VERSION = 1


def parse_list(text: str, convert: Callable) -> list:
    """A comma-separated list, e.g. "0,1" or "-0.6,-1.7", each part converted."""
    text = text.strip().strip('"')
    if not text:
        return []
    return [convert(part.strip()) for part in text.split(",")]


def read_config_file(path: str) -> dict[str, str]:
    """Flat key = value lines; '#' starts a comment; values keep "p/q" form."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {line!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def build_parser(defaults: dict[str, str] | None = None) -> argparse.ArgumentParser:
    """The CLI's parser; ``defaults`` (flag dest -> text, as in a config
    file) replace the subcommands' defaults, and argparse converts each by
    its flag's type."""
    parser = argparse.ArgumentParser(
        prog="casorati",
        description="Exact determinant-identity suites and Darboux pipelines")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file (flags override)")
        p.add_argument("--out", help="write the JSON report here")
        p.add_argument("--replay", help="replay a witness file and exit")
        p.add_argument("--seed", type=int, default=42, help="master seed")

    p_id = sub.add_parser("identities", help="run the determinant identity suite")
    common(p_id)
    p_id.add_argument("--trials", type=int, default=200)
    p_id.add_argument("--max-degree", type=int, default=5)
    p_id.add_argument("--coeff-bound", type=int, default=9)

    p_oqm = sub.add_parser("oqm", help="harmonic-model Darboux pipeline")
    common(p_oqm)
    p_oqm.add_argument("--dv", default="", help="virtual seed labels, e.g. 0,1")
    p_oqm.add_argument("--de", default="", help="eigenstate labels, e.g. 1,2")
    p_oqm.add_argument("--n", type=int, default=0)
    p_oqm.add_argument("--n-max", type=int, default=6)
    p_oqm.add_argument("--v-max", type=int, default=3)

    p_idqm = sub.add_parser("idqm", help="imaginary-shift algebra checks")
    common(p_idqm)
    p_idqm.add_argument("--trials", type=int, default=50)
    p_idqm.add_argument("--gamma", default="1", help="shift parameter, p/q")
    p_idqm.add_argument("--l-max", type=int, default=2)
    p_idqm.add_argument("--m-max", type=int, default=2)
    p_idqm.add_argument("--max-degree", type=int, default=2)

    p_rdqm = sub.add_parser("rdqm", help="Meixner lattice pipeline")
    common(p_rdqm)
    p_rdqm.add_argument("--beta", default="2")
    p_rdqm.add_argument("--c", default="1/3")
    p_rdqm.add_argument("--dv", default="", help="virtual seed energies, e.g. -0.6,-1.7")
    p_rdqm.add_argument("--de", default="", help="deleted eigenstate labels, e.g. 1,2")
    p_rdqm.add_argument("--n", default="0", help="levels to compare, e.g. 0,3")
    p_rdqm.add_argument("--n-max", type=int, default=8)
    p_rdqm.add_argument("--window", type=int, default=80)
    p_rdqm.add_argument("--truncation", type=int, default=60)
    p_rdqm.add_argument("--eigen-count", type=int, default=5)
    p_rdqm.add_argument("--precision-bits", type=int, default=DEFAULT_PRECISION_BITS)
    p_rdqm.add_argument("--tolerance", default="1e-25")
    p_rdqm.add_argument("--csv", help="write spectra/grids as CSV here")

    p_all = sub.add_parser("all", help="run every suite with defaults")
    common(p_all)
    p_all.add_argument("--trials", type=int, default=200)

    for subparser in sub.choices.values():
        subparser.set_defaults(**(defaults or {}))
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser.  argparse objects form reference cycles, so
    a parser per call would leave garbage for the cyclic collector."""
    return build_parser()


def apply_config_file(argv, args: argparse.Namespace) -> argparse.Namespace:
    """``args`` re-parsed from ``argv`` with the config file's values as the
    subcommand's defaults, so that an explicit flag always beats the file.
    The parser is a fresh one: the process's parser keeps its own defaults."""
    if not args.config:
        return args
    defaults = {}
    for key, value in read_config_file(args.config).items():
        attr = key.replace("-", "_")
        if attr == "command" or not hasattr(args, attr):
            raise ValueError(f"unknown config key: {key}")
        defaults[attr] = value
    with contextlib.redirect_stderr(io.StringIO()) as usage:
        try:
            return build_parser(defaults).parse_args(argv)
        except SystemExit:
            pass
    raise ValueError(f"{args.config}: {usage.getvalue().rsplit('error: ', 1)[-1].strip()}")


# ---------------------------------------------------------------------------
# Suite runners
# ---------------------------------------------------------------------------

def run_identities(args) -> list[CheckReport]:
    return run_identity_suite(SamplerConfig(trials=args.trials, master_seed=args.seed,
                                            max_degree=args.max_degree,
                                            coefficient_bound=args.coeff_bound))


def run_oqm(args) -> list[CheckReport]:
    d_v = parse_list(args.dv, int)
    d_e = parse_list(args.de, int)
    for flag, labels in (("--n level", [args.n]), ("--dv label", d_v), ("--de label", d_e)):
        for label in labels:
            if label < 0:
                raise ValueError(f"{flag} {label} is negative")
    model = harmonic_model_for(d_v, d_e, max(args.n_max, args.n + 1), args.v_max)
    return [two_path_compare(model, d_v, d_e, args.n),
            census_check(model, d_v, d_e, args.n_max)]


def run_idqm(args) -> list[CheckReport]:
    gamma = rational(args.gamma)
    require_at_most("trials", args.trials, MAX_TRIALS)
    require_at_most("max_degree", args.max_degree, MAX_DEGREE)
    if args.l_max + args.m_max > 4:
        raise ValueError(f"--l-max {args.l_max} + --m-max {args.m_max} is above 4: five or "
                         f"more seeds of degree <= 3 have a vanishing Casoratian")
    return [report for trial in range(args.trials)
            for report in idqm_trial(args.seed, trial, gamma, args.l_max, args.m_max,
                                     args.max_degree)]


def run_rdqm(args) -> list[CheckReport]:
    dv = parse_list(args.dv, rational)
    de = parse_list(args.de, int)
    levels = parse_list(args.n, int)
    compare_up_to = min(40, args.window // 2)
    tolerance_text(args.tolerance, "--tolerance")   # a malformed one fails before any work
    for flag, labels in (("--n level", levels), ("--de label", de)):
        for label in labels:
            if not 0 <= label <= args.n_max:
                raise ValueError(f"{flag} {label} is outside 0..{args.n_max} (--n-max)")
    model = build_meixner_model(rational(args.beta), rational(args.c), n_max=args.n_max,
                                x_max=args.window, precision_bits=args.precision_bits)
    for energy in dv:       # a seed that misses its residual gate fails before any check
        model.seed(energy)
    reports = [two_path_compare_rdqm(model, dv, de, n, args.tolerance,
                                     compare_up_to=compare_up_to) for n in levels]
    for n in levels:
        reports += darboux_chain_replay(model, dv, de, n, args.tolerance, compare_up_to)
    reports.append(sign_conjecture_check(model, dv, de))
    report, spectrum = spectrum_report(model, dv, de, args.truncation, args.eigen_count)
    reports.append(report)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerows([[f"spectrum (bits={args.precision_bits})"],
                              ["index", "eigenvalue"], *enumerate(spectrum["eigenvalues"])])
            for label, grid in [("phi_0", model.eigen(0)), ("ground", model.ground)]:
                writer.writerows([[], ["x", f"{label} (bits={args.precision_bits})"],
                                  *([str(x), mpmath.nstr(v, 30)]
                                    for x, v in enumerate(grid.values))])
    return reports


def run_all(args) -> list[CheckReport]:
    """Every suite at the settings below, with the run's seed."""
    reports = []
    for argv in (["identities", "--trials", str(args.trials)],
                 ["oqm", "--dv", "0", "--de", "1,2", "--n", "0"],
                 ["idqm", "--trials", "25"],
                 ["rdqm", "--dv=-0.6,-1.7", "--de", "1,2", "--n", "0,3"]):
        suite_args = _parser().parse_args([*argv, "--seed", str(args.seed)])
        reports += globals()[f"run_{suite_args.command}"](suite_args)
    return reports


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def emit(args, reports: list[CheckReport], started: float, config_echo: dict) -> int:
    reports = sort_reports(reports)
    summary = summarize(reports)
    write_report(args, {
        "schema": SCHEMA_VERSION,
        "version": __version__,
        "command": args.command,
        "config": config_echo,
        "checks": [r.to_dict() for r in reports],
        "summary": summary,
        "wall_clock_seconds": round(time.time() - started, 3),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    })
    for rep in reports:
        if not rep.passed:
            print(f"FAIL {rep.identity_id} {rep.params}", file=sys.stderr)
    return exit_status(summary)


def write_report(args, payload: dict) -> None:
    """``payload`` as indented JSON to the --out file, or to stdout without one."""
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        print(json.dumps(payload, indent=2, sort_keys=True), file=fh)


def exit_status(summary: dict) -> int:
    """1 if any check failed, else 3 if any was inconclusive, else 0."""
    return 1 if summary["failed"] else 3 if summary["inconclusive"] else 0


def config_echo_from(args) -> dict:
    return {key: value for key, value in sorted(vars(args).items())
            if key not in {"command", "config", "out", "replay"}}


def run_replay(args) -> int:
    """Re-run the check of a witness file; write and exit as ``emit`` would."""
    with open(args.replay) as fh:
        report = replay_witness(json.load(fh))
    write_report(args, report.to_dict())
    return exit_status(summarize([report]))


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    started = time.time()
    try:
        args = apply_config_file(argv, args)
        if args.replay:
            return run_replay(args)
        # run_<command> is looked up at call time, so a patched runner runs
        reports = globals()[f"run_{args.command}"](args)
    except (ValueError, OSError, DeterminantBudgetError,
            ResidualGateError, NegativeRadicandError, SingularDeformationError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    return emit(args, reports, started, config_echo_from(args))


if __name__ == "__main__":
    sys.exit(main())
