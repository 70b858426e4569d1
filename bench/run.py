"""Benchmark entry point: one workload, one seed, one process.

    python3 bench/run.py --workload codec --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` next to this directory, never from an installed copy.  BLAS is
pinned to one thread before numpy is imported.  The last line of standard
output is the result JSON; ``--trace 1`` reports per-layer metrics instead
of end-to-end ones.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

WORKLOADS = ("codec", "restore", "train")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def prepare() -> Path | None:
    """Pin BLAS to one thread and put the checkout's ``src/`` first on the path.

    Returns the checkout root, or None (with a message on stderr) when the
    sources are missing or another copy of mvcodec would be imported.
    """
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "mvcodec" / "__init__.py").is_file():
        print(f"error: no mvcodec sources under {src}", file=sys.stderr)
        return None
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import mvcodec  # numpy is first imported here, after the pinning

    if Path(mvcodec.__file__).resolve().parent != (src / "mvcodec").resolve():
        print(f"error: imported mvcodec from {mvcodec.__file__}, not {src}", file=sys.stderr)
        return None
    return root


def main(argv=None) -> int:
    args = parse_args(argv)
    root = prepare()
    if root is None:
        return 2
    import harness

    result = harness.run(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        spans_dir=root / ".bench_out" if args.trace else None,
    )
    harness.print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
