"""Command-line front end.

Subcommands: simulate | scaling | mc | convergence | diag.  Exit codes:
0 success, 2 infeasible or invalid configuration, 3 numeric failure.
Failures are also written to ``errors.csv`` in the output directory.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import ExperimentConfig, build_problem, parse_config
from .errors import ConfigError, LrdExtremesError, NumericError
from .mc import (
    _marginal_refusal,
    _problem_and_bundle,
    _reduction_skip_reason,
    _run_replicate_loop,
    convergence_study,
    run_replicates,
    write_convergence_csv,
    write_errors_csv,
    write_summary_csv,
    write_z_samples_csv,
)
from .scaling import CASE_LABELS, check_condition_Dr, karamata_K, power_rank_integral
from .simulate import derive_seed, dump_path_csv, simulate_path

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_NUMERIC = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrdextremes",
        description="Simulation and verification of extreme-value sums of subordinated LRD moving averages",
    )
    parser.add_argument("command", choices=["simulate", "scaling", "mc", "convergence", "diag"])
    parser.add_argument("--config", required=True, help="path to a flat key=value config file")
    parser.add_argument("--out", default=None, help="output directory (default: config out_dir or '.')")
    parser.add_argument("--threads", type=int, default=1, help="worker processes; 0 means auto")
    return parser


def _cmd_simulate(config: ExperimentConfig, out_dir: str, threads: int) -> int:
    coeffs, dist, mx, ty = build_problem(config)
    seed = derive_seed(config.master_seed, 0)
    pp = simulate_path(coeffs, dist, mx, ty, config.n, seed)
    path = os.path.join(out_dir, "path.csv")
    dump_path_csv(pp, path)
    print(f"wrote {path} (n = {pp.n}, seed = {pp.seed})")
    return EXIT_OK


def _cmd_scaling(config: ExperimentConfig, out_dir: str, threads: int) -> int:
    (_, _, mx, ty), bundle = _problem_and_bundle(config, config.n, check_feasible=False)
    verdict = bundle.feasibility
    print(f"case = {bundle.case.name} {CASE_LABELS[bundle.case]}")
    print(f"n = {bundle.n}")
    print(f"k_n = {bundle.k_n}")
    print(f"xi = {bundle.xi!r}")
    print(f"p = {bundle.p}")
    if verdict.threshold is None:
        print(f"xi_threshold = infeasible ({verdict.refusal})")
    else:
        print(f"xi_threshold = {verdict.threshold!r}")
    print(f"feasible = {'yes' if verdict.refusal is None else 'no'}")
    print(f"sigma_n1 = {bundle.sigma_n1!r}")
    print(f"A_n = {bundle.A_n!r}")
    print(f"d_np = {bundle.d_np!r}")
    print(f"mu_n = {bundle.mu_n!r}")
    kn = karamata_K(mx, ty, bundle.n, bundle.k_n)
    print(f"K_n = {kn!r}")
    print(f"A_n_K_n = {bundle.A_n * kn!r}")
    return EXIT_OK


def _cmd_mc(config: ExperimentConfig, out_dir: str, threads: int) -> int:
    result = run_replicates(config, threads=threads)
    write_z_samples_csv(result, os.path.join(out_dir, "z_samples.csv"))
    write_summary_csv(result, os.path.join(out_dir, "summary.csv"))
    s = result.summary
    print(f"replicates = {len(result.z_samples)}")
    print(f"mean = {s['mean']!r}")
    print(f"variance = {s['variance']!r}")
    print(f"ks_d = {s['ks_d']!r}")
    print(f"ks_p = {s['ks_p']!r}")
    print(f"wrote {os.path.join(out_dir, 'z_samples.csv')} and {os.path.join(out_dir, 'summary.csv')}")
    return EXIT_OK


def _cmd_convergence(config: ExperimentConfig, out_dir: str, threads: int) -> int:
    if not config.n_grid:
        raise ConfigError("convergence requires the 'n_grid' key")
    rows = convergence_study(config, threads=threads)
    path = os.path.join(out_dir, "convergence.csv")
    write_convergence_csv(rows, path)
    for row in rows:
        print(
            f"n = {row['n']}: ks_d = {row['ks_d']:.4f}, z_var = {row['z_var']:.4f}, "
            f"med|I2| = {row['med_abs_i2']:.5f}, med|I3| = {row['med_abs_i3']:.5f}, "
            f"iid_contrast = {row['iid_contrast']:.4f}"
        )
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_diag(config: ExperimentConfig, out_dir: str, threads: int) -> int:
    problem, bundle = _problem_and_bundle(config, config.n, check_feasible=False)
    _, dist, mx, ty = problem
    pr = power_rank_integral(mx, ty)
    print(f"power_rank_integral = {pr!r}")
    print(f"power_rank_ok = {'yes' if pr != 0 else 'no'}")
    for r in range(1, bundle.p + 1):
        try:
            dr = check_condition_Dr(mx, ty, r)
            print(f"D_{r} = {dr!r}")
        except (LrdExtremesError, NotImplementedError) as exc:
            print(f"D_{r} = unavailable ({exc})")
    if (refusal := _marginal_refusal(mx, dist)) is not None:
        print(f"median_u_ratio = unavailable ({refusal})")
        print(f"median_reduction_sup = unavailable ({refusal})")
        return EXIT_OK
    R = min(config.replicates, 10)
    reps = _run_replicate_loop(problem, bundle, config.master_seed, R, threads, with_reduction=True)
    print(f"median_u_ratio = {float(np.median([rep.u_ratio for rep in reps]))!r}")
    skip = _reduction_skip_reason(bundle.p, with_reduction=True)
    if skip is not None:
        print(f"median_reduction_sup = unavailable ({skip})")
    else:
        sup = float(np.median([rep.reduction_sup for rep in reps]))
        print(f"median_reduction_sup = {sup!r} (over {R} replicates)")
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "scaling": _cmd_scaling,
    "mc": _cmd_mc,
    "convergence": _cmd_convergence,
    "diag": _cmd_diag,
}

# commands that must refuse configurations outside the theorem's hypotheses
_FEASIBILITY_COMMANDS = {"mc", "convergence"}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE

    out_dir = args.out
    errors: list[tuple[int, str]] = []

    try:
        config = parse_config(text, require_feasible=args.command in _FEASIBILITY_COMMANDS)
    except ConfigError as exc:
        out_dir = out_dir or "."
        os.makedirs(out_dir, exist_ok=True)
        errors = [(EXIT_INFEASIBLE, v) for v in exc.violations]
        write_errors_csv(errors, os.path.join(out_dir, "errors.csv"))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE

    out_dir = out_dir or config.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)

    if args.command in ("simulate", "scaling", "diag") and config.n is None:
        write_errors_csv([(EXIT_INFEASIBLE, f"{args.command} requires the 'n' key")], os.path.join(out_dir, "errors.csv"))
        print(f"error: {args.command} requires the 'n' key", file=sys.stderr)
        return EXIT_INFEASIBLE

    try:
        return _COMMANDS[args.command](config, out_dir, args.threads)
    except (NumericError, ArithmeticError) as exc:
        write_errors_csv([(EXIT_NUMERIC, str(exc))], os.path.join(out_dir, "errors.csv"))
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except LrdExtremesError as exc:
        violations = getattr(exc, "violations", None) or [str(exc)]
        write_errors_csv([(EXIT_INFEASIBLE, v) for v in violations], os.path.join(out_dir, "errors.csv"))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
