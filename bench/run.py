"""Benchmark for flowprof: run one workload, check every output, print metrics.

    python3 bench/run.py --workload blind_walk --seed 0 --seconds 12 --trace 0

flowprof is imported from the `src/` directory of the checkout holding this
file.  `--workload all` runs every workload in turn in this process.  With
`--trace 0` the run times untraced passes of the workload's flowprof command
for `--seconds` and reports the end-to-end metrics of BENCHMARK.json; with
`--trace 1` it alternates untraced and traced passes and reports the
per-layer metrics.  Every metric is printed as `name = value unit`; the last
line is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`.  Exit status: 0 when every output checked out, 1 when any did
not, 2 when the benchmark could not run (then no result line is printed).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("blind_walk", "fleet", "extract_corpus", "wide_oracle")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_flowprof() -> float:
    """Import flowprof from the checkout; returns the import time in
    seconds of the reference machine (see refloop.py)."""
    import refloop  # standard library only

    sys.path.insert(0, str(SRC))
    before = refloop.time_reference()
    start = perf_counter()
    import flowprof.cli  # noqa: F401
    elapsed = perf_counter() - start
    after = refloop.time_reference()
    elapsed *= 2 * refloop.REFERENCE_S / (before + after)
    import flowprof
    if not Path(flowprof.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"flowprof was imported from {flowprof.__file__}, "
                          f"not from {SRC}")
    return elapsed


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_s = import_flowprof()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import harness  # imports flowprof, so only after the timed import

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    return harness.main(names, args.seed, args.seconds, args.trace, import_s)


if __name__ == "__main__":
    sys.exit(main())
