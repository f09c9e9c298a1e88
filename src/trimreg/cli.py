"""Command-line interface for the benchmark harness and bound curves.

Subcommands
-----------
run-setup-a   Gaussian-design benchmark over a contamination grid.
run-setup-b   Bernoulli-masked-design benchmark over a contamination grid.
compare-algs  The fixed algorithm-comparison grid (n in {120, 360},
              eps in {0.05, 0.2}, four error distributions).
bounds        Emit CSV curves of the closed-form constants and bounds.

Any subcommand accepts ``@FILE`` arguments: a flat config file with one
``key = value`` line per option, mirroring the long flags ('#' starts a
comment). Command-line flags given after the file override its values.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import List, Optional

import numpy as np

from . import bounds as bnd
from .harness import (
    COMPARISON_COLUMNS,
    INIT_RULES,
    METHODS,
    ExperimentConfig,
    comparison_rows,
    emit,
    run_experiment,
    summarize,
    table_grid_configs,
    write_table,
    write_text,
)
from .regression import THETA, GdConfig
from .synthdata import ErrorDist


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads 'key = value' lines from @FILE arguments."""

    def convert_arg_line_to_args(self, line: str) -> List[str]:
        line = line.split("#", 1)[0].strip()
        if not line:
            return []
        if "=" in line:
            key, value = line.split("=", 1)
        else:
            parts = line.split(None, 1)
            key, value = parts[0], parts[1] if len(parts) > 1 else ""
        key = key.strip().lstrip("-").replace("_", "-")
        value = value.strip()
        return ["--" + key] if value == "" else ["--" + key, value]


def _parse_eps_grid(text: str):
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad eps grid {text!r}: {exc}")
    if not values:
        raise argparse.ArgumentTypeError("eps grid must be nonempty")
    return values


def _parse_methods(text: str):
    names = tuple(tok.strip() for tok in text.split(",") if tok.strip() != "")
    unknown = [m for m in names if m not in METHODS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown methods {unknown}; choose from {', '.join(METHODS)}"
        )
    return names


def _parse_profile(text: str):
    pairs = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            p, v = tok.split(":")
            pairs.append((float(p), float(v)))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad moment entry {tok!r}: {exc}")
    try:
        return bnd.MomentProfile(tuple(pairs))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _add_common_run_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, required=True, help="sample size per trial")
    sub.add_argument(
        "--d", type=int, default=ExperimentConfig.d, help="covariate dimension"
    )
    sub.add_argument(
        "--eps-grid",
        type=_parse_eps_grid,
        default=ExperimentConfig.eps_grid,
        help="comma-separated contamination levels in [0, 0.5) (default: %s)"
        % ",".join("%g" % eps for eps in ExperimentConfig.eps_grid),
    )
    sub.add_argument(
        "--methods",
        type=_parse_methods,
        default=ExperimentConfig.methods,
        help=f"comma-separated subset of: {', '.join(METHODS)}",
    )
    sub.add_argument(
        "--trim-extra",
        type=int,
        default=ExperimentConfig.trim_extra,
        help="trimming rule k = floor(eps*n) + TRIM_EXTRA",
    )
    sub.add_argument(
        "--mom-blocks",
        type=int,
        default=ExperimentConfig.mom_blocks,
        help="bucket count in [1, n] for the plain MoM method "
        "(default: min(n, 2*floor(eps*n) + 5))",
    )
    sub.add_argument(
        "--max-iters", type=int, default=GdConfig.max_iters, help="descent iterations"
    )
    sub.add_argument(
        "--tol", type=float, default=GdConfig.tol_delta, help="descent stop tolerance"
    )
    sub.add_argument(
        "--plugin-iters",
        type=int,
        default=ExperimentConfig.plugin_iters,
        help="cap on plug-in rounds, at least 1; a round keeps a refit only "
        "if it moves the trimmed min-max objective its player's way (down "
        "for beta_m, up for beta_M), or leaves it equal with a smaller norm, "
        "and the loop stops early once a round changes neither iterate "
        f"(default: {ExperimentConfig.plugin_iters})",
    )
    sub.add_argument(
        "--init",
        choices=INIT_RULES,
        default=ExperimentConfig.init_rule,
        help="iterate initialization: seeded random pair or the zero pair",
    )
    _add_grid_run_flags(sub)


def _add_grid_run_flags(sub: argparse.ArgumentParser) -> None:
    """Flags of every subcommand that runs a grid: trials, seed and output."""
    sub.add_argument(
        "--trials", type=int, default=ExperimentConfig.trials, help="trials per cell"
    )
    sub.add_argument(
        "--seed", type=int, default=ExperimentConfig.base_seed, help="base seed"
    )
    sub.add_argument("--workers", type=int, default=1, help="parallel trial workers")
    sub.add_argument("--out", required=True, help="output directory")
    sub.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format"
    )


def build_parser() -> _Parser:
    parser = _Parser(
        prog="trimreg",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        fromfile_prefix_chars="@",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub_a = subs.add_parser(
        "run-setup-a", help="Gaussian AR(1) design with planted outlier rows"
    )
    _add_common_run_flags(sub_a)
    sub_a.add_argument(
        "--rho", type=float, default=ExperimentConfig.rho, help="AR(1) correlation"
    )
    sub_a.add_argument(
        "--error",
        choices=("normal", "t1", "t2", "t4"),
        default=ExperimentConfig.error_dist.label,
        help="noise distribution",
    )
    sub_a.add_argument(
        "--outlier-y",
        type=float,
        default=ExperimentConfig.outlier_response,
        help="planted response value of contaminated rows (finite)",
    )
    sub_a.set_defaults(
        run=_cmd_run_setup,
        setup_fields=lambda args: dict(
            setup="A",
            rho=args.rho,
            error_dist=ErrorDist.from_label(args.error),
            outlier_response=args.outlier_y,
        ),
    )

    sub_b = subs.add_parser(
        "run-setup-b",
        help="Bernoulli-masked isotropic design (missing-data caricature)",
    )
    _add_common_run_flags(sub_b)
    sub_b.add_argument(
        "--p", type=float, default=ExperimentConfig.p, help="mask rate in (0, 1]"
    )
    sub_b.set_defaults(
        run=_cmd_run_setup, setup_fields=lambda args: dict(setup="B", p=args.p)
    )

    sub_c = subs.add_parser(
        "compare-algs",
        help="fixed grid comparing the two trimmed-mean heuristics",
    )
    _add_grid_run_flags(sub_c)
    sub_c.set_defaults(run=_cmd_compare_algs)

    sub_d = subs.add_parser(
        "bounds",
        help="emit closed-form constant and bound curves as CSV",
        description=(
            "Writes four CSV files into --out:\n"
            "  c_epsilon_curve.csv      columns eps,c_epsilon\n"
            "  c_j_epsilon_curve.csv    columns eps,c_j_epsilon "
            "(single unbounded family, default per-family share)\n"
            "  phi_p_uniform_slice.csv  columns n,phi_p_uniform at fixed "
            "(--slice-eps, --slice-alpha, --slice-emp, --slice-nu)\n"
            "  phi_p_regression_slice.csv  columns n,r_q,r_m_bound,"
            "phi_p_regression using the closed-form linear radii at the "
            "default deltas for --theta0"
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub_d.add_argument("--out", required=True)
    sub_d.add_argument(
        "--eps-step", type=float, default=0.005, help="grid step over [0, 0.5)"
    )
    sub_d.add_argument("--slice-eps", type=float, default=0.05)
    sub_d.add_argument("--slice-alpha", type=float, default=0.05)
    sub_d.add_argument("--slice-emp", type=float, default=0.0)
    sub_d.add_argument(
        "--slice-nu",
        type=_parse_profile,
        default=bnd.MomentProfile(((2.0, 1.0),)),
        help="moment profile as p:value pairs, e.g. '2:1,4:1.5'",
    )
    sub_d.add_argument("--theta0", type=float, default=1.0)
    sub_d.add_argument("--trace-sigma", type=float, default=20.0)
    sub_d.add_argument("--sigma-noise", type=float, default=1.0)
    sub_d.add_argument(
        "--n-max", type=int, default=1000000, help="largest n in the slices"
    )
    sub_d.set_defaults(run=_cmd_bounds)
    return parser


def _config_metadata(config: ExperimentConfig) -> dict:
    meta = {
        "setup": config.setup,
        "n": config.n,
        "d": config.d,
        "rho_or_p": config.rho_or_p,
        "error_dist": config.error_dist.label,
        "eps_grid": list(config.eps_grid),
        "methods": list(config.methods),
        "trials": config.trials,
        "base_seed": config.base_seed,
        "trim_rule": f"k = floor(eps*n) + {config.trim_extra}",
        "initializer": config.init_rule,
        "plugin_iters": config.plugin_iters,
        "mom_blocks": config.mom_blocks,
        "descent": {
            "tol_delta": config.gd.tol_delta,
            "theta": THETA,
            "max_iters": config.gd.max_iters,
        },
        "notes": [
            "Best-MoM is an infeasible oracle baseline: it selects the bucket "
            "count using the true coefficients and population covariance.",
            "workers affect scheduling only; output is identical at any "
            "parallelism degree",
        ],
    }
    if config.setup == "A":
        meta["outlier_response"] = config.outlier_response
    return meta


def _report(written: List[str]) -> int:
    for path in written:
        print(f"wrote {path}")
    return 0


def _run_and_emit(args, configs, write_last) -> int:
    """Run the configs' trials as one task list, write the trials and
    summary tables, then the file ``write_last(stats)`` writes."""
    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    records = run_experiment(configs, workers=args.workers)
    stats = summarize(records)
    written = emit(records, stats, args.out, args.format)
    written.append(write_last(stats))
    return _report(written)


def _cmd_run_setup(args) -> int:
    config = ExperimentConfig(
        n=args.n,
        d=args.d,
        eps_grid=args.eps_grid,
        methods=args.methods,
        trials=args.trials,
        base_seed=args.seed,
        trim_extra=args.trim_extra,
        mom_blocks=args.mom_blocks,
        gd=GdConfig(tol_delta=args.tol, max_iters=args.max_iters),
        plugin_iters=args.plugin_iters,
        init_rule=args.init,
        **args.setup_fields(args),
    )
    meta = json.dumps(_config_metadata(config), indent=2, sort_keys=True) + "\n"
    path = os.path.join(args.out, "metadata.json")
    return _run_and_emit(args, [config], lambda stats: write_text(path, meta))


def _cmd_compare_algs(args) -> int:
    if args.trials < 2:
        # with one trial every std is 0, and delta_std_pct divides by it
        raise ValueError(f"compare-algs needs --trials >= 2, got {args.trials}")
    configs = table_grid_configs(trials=args.trials, base_seed=args.seed)
    path = os.path.join(args.out, f"comparison.{args.format}")
    return _run_and_emit(
        args,
        configs,
        lambda stats: write_table(
            path, COMPARISON_COLUMNS, comparison_rows(stats), args.format
        ),
    )


def _cmd_bounds(args) -> int:
    step = args.eps_step
    if not 0.0 < step < 0.5:
        raise ValueError(f"--eps-step must lie in (0, 0.5), got {step}")
    if args.n_max < 10:
        # the n grid of the slices starts at 10
        raise ValueError(f"--n-max must be at least 10, got {args.n_max}")
    eps_grid = [0.0]
    eps = step
    while eps < 0.5 - 1e-12:
        eps_grid.append(round(eps, 12))
        eps += step

    n_grid = sorted(
        {int(n) for n in np.logspace(1, math.log10(args.n_max), 61).round()}
    )

    def uniform_row(n):
        inputs = bnd.UniformBoundInputs(
            emp=args.slice_emp,
            nu=args.slice_nu,
            n=n,
            eps=args.slice_eps,
            alpha=args.slice_alpha,
        )
        return n, bnd.phi_p_uniform(inputs)

    def regression_row(n):
        radii = bnd.critical_radii_linear(
            args.trace_sigma,
            args.sigma_noise,
            n,
            bnd.delta_q_default(args.theta0),
            bnd.delta_m_default(args.theta0),
        )
        inputs = bnd.RegressionBoundInputs(
            theta0=args.theta0,
            r_q=radii.r_q,
            r_m=radii.r_m_bound,
            kappa=args.slice_nu,
            n=n,
            eps=args.slice_eps,
            alpha=args.slice_alpha,
        )
        return n, radii.r_q, radii.r_m_bound, bnd.phi_p_regression(inputs)

    # every row is computed before --out is created, so a bad setting
    # leaves no directory behind
    tables = [
        (
            "c_epsilon_curve.csv",
            ("eps", "c_epsilon"),
            [(e, bnd.c_epsilon(e)) for e in eps_grid],
        ),
        (
            "c_j_epsilon_curve.csv",
            ("eps", "c_j_epsilon"),
            bnd.c_j_epsilon_curve(eps_grid),
        ),
        (
            "phi_p_uniform_slice.csv",
            ("n", "phi_p_uniform"),
            [uniform_row(n) for n in n_grid],
        ),
        (
            "phi_p_regression_slice.csv",
            ("n", "r_q", "r_m_bound", "phi_p_regression"),
            [regression_row(n) for n in n_grid],
        ),
    ]
    os.makedirs(args.out, exist_ok=True)
    return _report([
        write_table(os.path.join(args.out, name), columns, rows)
        for name, columns, rows in tables
    ])


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
