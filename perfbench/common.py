"""Shared helpers: percentiles, the tail rule, peak memory, the result line."""

from __future__ import annotations

import json
import math
import pathlib
import resource
import statistics

SPEC = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: The tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of *values* (``q`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


def tail(values) -> tuple[float, float, int]:
    """The highest percentile with :data:`TAIL_BEYOND` samples beyond it.

    Returns ``(value, percentile, samples)``.  With too few samples for
    any such percentile the maximum is returned as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return (ordered[-1] if ordered else 0.0), 100.0, n
    index = n - 1 - TAIL_BEYOND
    return ordered[index], 100.0 * (index + 1) / n, n


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def emit(
    correct: bool, attempted: int, failed: int, values: dict, trace: bool
) -> None:
    """Print the one-line JSON result the benchmark ends with.

    Units come from ``BENCHMARK.json``; *values* must hold exactly its
    ``per_layer`` (traced) or ``end_to_end`` metrics.
    """
    spec = json.loads(SPEC.read_text())["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    if set(values) != set(units):
        raise ValueError(f"metrics differ from {SPEC.name}: {set(values) ^ set(units)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )


def note(*parts) -> None:
    """A human-readable line (never the last line of the output)."""
    print(*parts, flush=True)
