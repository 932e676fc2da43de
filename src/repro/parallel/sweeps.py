"""Parallel execution of independent benchmark measurements.

The experiment suite is mostly a grid of *(world parameters, query,
runner)* points whose measurements never interact: each point builds a
fresh federation, a fresh network, and a fresh trader.  The only shared
mutable state is the module-global offer-id counter — which affects
``explain()`` strings, not measured quantities — so each job reseeds it
and becomes fully self-contained.  That makes the sweep embarrassingly
parallel *and* seed-stable: :func:`run_sweep` returns measurements in
job order regardless of worker count or completion order, and running
with ``workers=1`` executes the identical per-job code in-process.

Jobs must be picklable descriptions, not live objects: a
:class:`SweepJob` names a registered runner and carries plain kwargs for
``build_world`` and ``chain_query``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import repro.trading.commodity as commodity
from repro.bench import harness
from repro.parallel.pool import run_jobs
from repro.workload import chain_query

__all__ = ["SweepJob", "RUNNERS", "run_sweep"]

#: Runner name -> ``fn(world, query, **run) -> Measurement``.  Callers may
#: register more; pool workers are forked, so they see every runner
#: registered before the pool started.
RUNNERS: dict[str, Callable] = {
    "qt": harness.run_qt,
    "qt_faulty": harness.run_qt_faulty,
    "distdp": harness.run_distdp,
    "distidp": harness.run_distidp,
    "mariposa": harness.run_mariposa,
}


@dataclass(frozen=True)
class SweepJob:
    """One self-contained (world, query, runner) measurement point."""

    label: str
    runner: str  # key into RUNNERS
    world: dict = field(default_factory=dict)  # build_world kwargs
    query: dict = field(default_factory=dict)  # chain_query kwargs
    run: dict = field(default_factory=dict)  # runner kwargs

    def __post_init__(self) -> None:
        if self.runner not in RUNNERS:
            raise ValueError(
                f"unknown runner {self.runner!r}; "
                f"registered: {sorted(RUNNERS)}"
            )


def run_job(job: SweepJob):
    """Execute one job from scratch (fresh world, reseeded offer ids)."""
    commodity._offer_ids = itertools.count(1)
    # Clear any inherited offer-id scope: it would shadow the reseeded
    # counter above.
    commodity._scoped_offer_ids.set(None)
    world = harness.build_world(**job.world)
    query = chain_query(**job.query)
    measurement = RUNNERS[job.runner](world, query, **job.run)
    measurement.optimizer = job.label or measurement.optimizer
    return measurement


def run_sweep(jobs: Sequence[SweepJob], workers: int = 1) -> list:
    """All jobs' measurements, in job order.

    With ``workers > 1`` the jobs run concurrently through
    :func:`~repro.parallel.pool.run_jobs`; results are gathered in
    submission order, so the output is identical to the serial run
    (same jobs, same order, same values).
    """
    return run_jobs(run_job, jobs, workers)
