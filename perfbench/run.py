"""The repository's benchmark: one workload per invocation.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-burst-async --seed 1 \
        --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures
once untraced and once with per-layer span wrappers, and reports the
per-layer metrics.  The last line of the output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
non-zero when an output check fails.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("serve-burst-async", "serve-mqo-marts")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"program sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import serving
    from common import emit

    correct, attempted, failed, metrics = serving.run(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    emit(correct, attempted, failed, metrics, bool(args.trace))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
