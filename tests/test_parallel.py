"""Tier-1 coverage of job-level parallelism (``repro.parallel``).

``run_sweep`` must return exactly the serial measurements in job order,
fall back to a serial run (loudly) only when the pool itself cannot
start, and let an exception raised by a job reach the caller.
"""

import os

import pytest

import repro.parallel.pool as pool_module
from repro.parallel import RUNNERS, SweepJob, run_jobs, run_sweep, shutdown_pools
from repro.trading.commodity import offer_id_scope


def _jobs(joins=(2, 3, 2)):
    return [
        SweepJob(
            label=f"qt-{n}j",
            runner="qt",
            world={"nodes": 8, "n_relations": 4, "seed": 7},
            query={"n_relations": n, "selection_cat": 3},
            run={"offer_cache": None, "use_offer_cache": False},
        )
        for n in joins
    ]


def _signature(measurements):
    return [
        (m.optimizer, m.plan_cost, m.optimization_time, m.messages,
         m.plan_explain)
        for m in measurements
    ]


def test_run_sweep_order_stable():
    jobs = _jobs()
    serial = run_sweep(jobs, workers=1)
    parallel = run_sweep(jobs, workers=2)
    assert [m.optimizer for m in parallel] == ["qt-2j", "qt-3j", "qt-2j"]
    assert _signature(serial) == _signature(parallel)


def test_run_sweep_inside_offer_id_scope_matches_serial():
    """Jobs reseed offer ids even when the caller holds an id scope.

    Pool workers forked inside an ``offer_id_scope`` inherit its
    ContextVar; uncleared, it would shadow the per-job reseed and shift
    the ``offer#N`` ids in every plan.
    """
    jobs = _jobs((2, 3))
    expected = _signature(run_sweep(jobs, workers=1))
    shutdown_pools()  # fork the pool below inside the scope
    with offer_id_scope(start=1000):
        assert _signature(run_sweep(jobs, workers=2)) == expected
    shutdown_pools()


def _raise_in_worker(world, query, parent_pid):
    if os.getpid() != parent_pid:
        raise RuntimeError("job failed in a pool worker")
    from repro.bench.harness import run_qt

    return run_qt(world, query, offer_cache=None, use_offer_cache=False)


def test_run_sweep_propagates_worker_exception():
    """A job that fails in a worker is an error, not a serial rerun."""
    RUNNERS["raise_in_worker"] = _raise_in_worker
    try:
        # Fork after registering so the workers see the runner.
        shutdown_pools()
        jobs = [
            SweepJob(
                label=f"job-{i}",
                runner="raise_in_worker",
                world={"nodes": 4, "n_relations": 2, "seed": 7},
                query={"n_relations": 2},
                run={"parent_pid": os.getpid()},
            )
            for i in range(2)
        ]
        assert len(run_sweep(jobs, workers=1)) == 2
        with pytest.raises(RuntimeError, match="pool worker"):
            run_sweep(jobs, workers=2)
    finally:
        del RUNNERS["raise_in_worker"]
        shutdown_pools()


def test_run_jobs_falls_back_loudly_when_pool_cannot_start(
    monkeypatch, capsys
):
    def no_pool(workers):
        raise OSError("cannot fork")

    monkeypatch.setattr(pool_module, "_get_pool", no_pool)
    assert run_jobs(_double, [1, 2, 3], workers=2) == [2, 4, 6]
    assert "running serially" in capsys.readouterr().err


def test_run_jobs_and_shutdown_idempotent():
    assert run_jobs(_double, [3, 4, 5], workers=2) == [6, 8, 10]
    shutdown_pools()
    shutdown_pools()  # idempotent
    # Pools come back after shutdown (atexit can run after manual calls).
    assert run_jobs(_double, [7, 8], workers=2) == [14, 16]
    shutdown_pools()


def _double(x):
    return 2 * x
