"""Run one benchmark workload and print its result as a JSON line.

    python3 perfbench/run.py --workload {figures,sweep,analysis} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""
import os

# One BLAS/OpenMP thread, fixed before numpy loads anywhere in this process
# or its children; the program itself is called with threads=1.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

SCRIPT = os.path.abspath(__file__)
ROOT = os.path.dirname(os.path.dirname(SCRIPT))
WORKLOAD_NAMES = ("figures", "sweep", "analysis")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="do the workload's set-up, print the monotonic "
                             "clock and exit (used to time set-up)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "sivmdcs", "__init__.py")):
        print(f"error: no sivmdcs sources under {ROOT}/src", file=sys.stderr)
        return 2
    # the package and the program, in place of this script's own directory
    sys.path[0:1] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import harness

    if args.setup_only:
        harness.setup_only(ROOT, args.workload, args.seed)
        return 0
    try:
        result = harness.run(ROOT, SCRIPT, args.workload, args.seed,
                             args.seconds, bool(args.trace))
    except harness.BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
