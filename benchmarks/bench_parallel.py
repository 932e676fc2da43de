"""Wall-clock benchmark: the parallel sweep runner vs a serial sweep.

Times :func:`~repro.parallel.run_sweep` over a (joins x mode) grid of
independent QT measurements, serially and on a process pool across
worker counts.  Every parallel sweep must return exactly the serial
measurements (plan cost, simulated time, messages, rendered plan) in
job order before any number is trusted.  Writes ``BENCH_parallel.json``
at the repository root and appends the best speedup to the bench
history (recorded, not gated).

One untimed parallel sweep per worker count runs first: the executor
forks its workers lazily, so a cold pool would bill process start-up
to the first timed repeat.

Run with::

    PYTHONPATH=src python benchmarks/bench_parallel.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import time

from repro.bench.envelope import bench_envelope, history
from repro.parallel import SweepJob, run_sweep

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_parallel.json"

REPEATS = 3
WORKER_COUNTS = (2, 4)
SWEEP_JOINS = (3, 4, 5)


def _signature(measurements):
    return [
        (m.optimizer, m.plan_cost, m.optimization_time, m.messages,
         m.plan_explain)
        for m in measurements
    ]


def _timed(jobs, workers: int):
    start = time.perf_counter()
    measurements = run_sweep(jobs, workers=workers)
    return measurements, time.perf_counter() - start


def bench_sweep(worker_counts, repeats: int, joins_list) -> dict:
    """The parallel sweep runner over a (joins x mode) measurement grid."""
    jobs = [
        SweepJob(
            label=f"qt-{mode}-{joins}j",
            runner="qt",
            world={"nodes": 12, "n_relations": 7, "seed": 7},
            query={"n_relations": joins, "selection_cat": 3},
            run={"mode": mode, "offer_cache": None, "use_offer_cache": False},
        )
        for joins in joins_list
        for mode in ("dp", "idp")
    ]

    serial_best = float("inf")
    reference = None
    for _ in range(repeats):
        measurements, seconds = _timed(jobs, 1)
        serial_best = min(serial_best, seconds)
        reference = _signature(measurements)

    row = {
        "case": f"sweep-{len(jobs)}-jobs",
        "jobs": len(jobs),
        "serial_s": serial_best,
        "workers": {},
    }
    for workers in worker_counts:
        run_sweep(jobs, workers=workers)  # untimed: forks the workers
        best = float("inf")
        for _ in range(repeats):
            measurements, seconds = _timed(jobs, workers)
            best = min(best, seconds)
            assert _signature(measurements) == reference, (
                f"sweep measurements diverged (workers={workers})"
            )
        row["workers"][str(workers)] = {
            "best_s": best,
            "speedup": serial_best / best,
        }
    return row


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller grid and fewer repeats (for CI smoke runs)",
    )
    args = parser.parse_args()

    repeats = 2 if args.quick else REPEATS
    worker_counts = (2,) if args.quick else WORKER_COUNTS
    joins = (3, 4) if args.quick else SWEEP_JOINS

    sweep_row = bench_sweep(worker_counts, repeats, joins)
    best_workers, best = max(
        sweep_row["workers"].items(), key=lambda item: item[1]["speedup"]
    )

    envelope = bench_envelope()
    payload = {
        **envelope,
        "description": (
            "Wall-clock comparison: the parallel sweep runner vs a "
            "serial sweep (measurements asserted identical)."
        ),
        "cpus": os.cpu_count() or 1,
        "repeats_best_of": repeats,
        "quick": args.quick,
        "sweep": sweep_row,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    history(REPO_ROOT).append(
        "parallel",
        {
            "sweep_speedup": best["speedup"],
            "sweep_workers": int(best_workers),
        },
        envelope=envelope,
    )

    parts = "  ".join(
        f"w{workers} {entry['best_s'] * 1e3:8.1f} ms "
        f"({entry['speedup']:4.2f}x)"
        for workers, entry in sweep_row["workers"].items()
    )
    print(
        f"{sweep_row['case']}: serial {sweep_row['serial_s'] * 1e3:8.1f} ms"
        f"  {parts}"
    )
    print(f"cpus={payload['cpus']}; wrote {OUTPUT}")


if __name__ == "__main__":
    main()
