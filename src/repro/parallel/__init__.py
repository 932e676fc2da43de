"""Job-level parallelism: run independent measurements on a process pool.

* :func:`~repro.parallel.sweeps.run_sweep` — executes independent
  (world, query, runner) benchmark measurements concurrently, returning
  them in job order (identical to a serial run).
* :func:`~repro.parallel.pool.run_jobs` — the one pool path underneath
  it and ``repro experiment --workers N``: submission-order results, a
  loud serial fallback when the pool cannot start, and job exceptions
  that propagate.

A single trade, explain or served session always runs serially; the
simulator models the paper's concurrent sellers in simulated time.
"""

from repro.parallel.pool import run_jobs, shutdown_pools
from repro.parallel.sweeps import RUNNERS, SweepJob, run_sweep

__all__ = [
    "RUNNERS",
    "SweepJob",
    "run_jobs",
    "run_sweep",
    "shutdown_pools",
]
