"""The process pool behind job-level parallelism.

One :class:`~concurrent.futures.ProcessPoolExecutor` per worker count,
created lazily and reused for the life of the process, so a caller that
runs several sweeps pays pool start-up once.  :func:`run_jobs` is the
only way in: :func:`repro.parallel.sweeps.run_sweep` and
``repro experiment --workers N`` both go through it.

The ``fork`` start method is preferred (cheap worker start, inherited
module state such as runner registrations); platforms without it fall
back to the default context.

Failure policy: if the pool cannot start or breaks (``OSError`` from
process creation, :class:`BrokenProcessPool` after a worker died), a
notice goes to stderr and the jobs run serially in-process.  An
exception raised *by a job* propagates to the caller unchanged — a bug
in a job is never hidden behind a serial rerun.  Every pool is shut
down at interpreter exit (:func:`shutdown_pools` is idempotent).
"""

from __future__ import annotations

import atexit
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, TypeVar

__all__ = ["run_jobs", "shutdown_pools"]

T = TypeVar("T")
R = TypeVar("R")

_POOLS: dict[int, ProcessPoolExecutor] = {}


def _context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _get_pool(workers: int) -> ProcessPoolExecutor:
    """The shared executor for *workers* processes (created on demand).

    A pool that has broken (worker death poisons the executor) is
    discarded and replaced, so one crashed worker does not disable the
    pool for the rest of the process.
    """
    pool = _POOLS.get(workers)
    if pool is not None and getattr(pool, "_broken", False):
        pool.shutdown(wait=False, cancel_futures=True)
        del _POOLS[workers]
        pool = None
    if pool is None:
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=_context())
        _POOLS[workers] = pool
    return pool


def _pool_unavailable(exc: BaseException) -> None:
    print(
        f"process pool unavailable ({exc!r}); running serially",
        file=sys.stderr,
    )


def run_jobs(
    fn: Callable[[T], R], items: Iterable[T], workers: int = 1
) -> list[R]:
    """``[fn(item) for item in items]``, on up to *workers* processes.

    Results come back in submission order whatever the completion
    order.  *fn* must be a module-level function and each item
    picklable.  With ``workers <= 1`` or fewer than two items the calls
    run in-process.
    """
    items = list(items)
    if workers > 1 and len(items) > 1:
        try:
            pool = _get_pool(min(workers, len(items)))
            futures = [pool.submit(fn, item) for item in items]
        except (OSError, BrokenProcessPool) as exc:
            _pool_unavailable(exc)
        else:
            try:
                return [future.result() for future in futures]
            except BrokenProcessPool as exc:
                _pool_unavailable(exc)
    return [fn(item) for item in items]


def shutdown_pools() -> None:
    """Shut down every pool created so far (idempotent)."""
    while _POOLS:
        _, pool = _POOLS.popitem()
        pool.shutdown(wait=False, cancel_futures=True)


atexit.register(shutdown_pools)
