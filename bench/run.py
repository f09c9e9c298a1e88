#!/usr/bin/env python3
"""trimreg benchmark: Monte Carlo workloads run through the ``trimreg`` CLI.

    python3 bench/run.py --workload heavy-tail-oracle --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20

Run from any directory; the package is imported from ``src/`` beside this
directory. A run repeats whole rounds of its workload's commands until
``--seconds`` of round time has passed, then checks every output against
computations made outside the program.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` spends half of
``--seconds`` on untraced rounds and then repeats the same rounds with spans
around the calls into each module, and reports the per-layer metrics and
the tracing overhead. ``--workload all`` runs every workload at both trace
settings. The last line of standard output is one JSON object; problems
found by the checks go to standard error.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")


def die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_package() -> None:
    """Import trimreg from this checkout's sources, and only from there."""
    if not os.path.isfile(os.path.join(SRC, "trimreg", "__init__.py")):
        die(f"no trimreg sources under {SRC}")
    sys.path.insert(0, SRC)
    import trimreg

    if not os.path.abspath(trimreg.__file__).startswith(SRC + os.sep):
        die(f"trimreg was imported from {trimreg.__file__}, not {SRC}")


def run_all(args, names) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    results = {}
    for name in names:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                status = 1
                continue
            result = json.loads(lines[-1])
            status |= not result["correct"]
            results[f"{name} trace={trace}"] = result
            print(f"{name} trace={trace}:")
            print(f"  attempted {result['attempted']}, failed {result['failed']}, "
                  f"correct {result['correct']}")
            for metric, m in result["metrics"].items():
                print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    load_package()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}, all")
    if args.seconds <= 0:
        die("--seconds must be positive")
    from measure import BenchError, measure

    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        die(str(exc))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
