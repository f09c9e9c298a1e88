"""One workload's set-up in a fresh interpreter.

Imports the CLI, parses the arguments given here and builds and validates
the experiment configs they describe: everything before the first trial
begins. Prints ``ready`` when done; run.py times the process from its
start to that line.

    python3 bench/setup_probe.py run-setup-a --n 360 ... --seed 0
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from trimreg import cli  # noqa: E402
from trimreg.harness import ExperimentConfig, table_grid_configs  # noqa: E402
from trimreg.regression import GdConfig  # noqa: E402
from trimreg.synthdata import ErrorDist  # noqa: E402


def configs(args):
    if args.command == "compare-algs":
        return table_grid_configs(trials=args.trials, base_seed=args.seed)
    common = dict(
        n=args.n, d=args.d, eps_grid=args.eps_grid, methods=args.methods,
        trials=args.trials, base_seed=args.seed, trim_extra=args.trim_extra,
        mom_blocks=args.mom_blocks,
        gd=GdConfig(tol_delta=args.tol, max_iters=args.max_iters),
        plugin_iters=args.plugin_iters, init_rule=args.init,
    )
    if args.command == "run-setup-a":
        return [ExperimentConfig(setup="A", rho=args.rho, outlier_response=args.outlier_y,
                                 error_dist=ErrorDist.from_label(args.error), **common)]
    return [ExperimentConfig(setup="B", p=args.p, **common)]


if __name__ == "__main__":
    configs(cli.build_parser().parse_args(sys.argv[1:] + ["--out", os.devnull]))
    print("ready", flush=True)
