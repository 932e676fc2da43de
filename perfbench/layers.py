"""Per-layer wall-clock spans recorded around the program's public calls.

The traced run wraps public functions of each layer (buyer, seller,
optimizer, sql, cache, trader, protocol, net, obs, broker, mqo) from
this file; no program code changes.  Every call becomes a span with a
name, start, end, parent span and an operation id (the broker session).

* Spans go to per-thread buffers: the only lock is taken once per new
  thread, never per span, so tracing does not serialize the broker's
  worker threads.
* The operation id lives in a ContextVar set by the ``QueryTrader.optimize``
  wrapper.  Broker sessions run inside a copied context and asyncio
  callbacks inherit the context that scheduled them, so seller handlers
  running on the async clock's loop thread carry their session's id.
* A span's self time is its duration minus the durations of its direct
  children on the same thread.  A layer's time is the sum of its spans'
  self times across threads.
"""

from __future__ import annotations

import bisect
import contextvars
import functools
import inspect
import threading
import time

OP = contextvars.ContextVar("perfbench_op", default=None)

#: The thread that runs the async clock's callbacks (named by the broker).
LOOP_THREAD = "broker-loop"


class Recorder:
    """Installs span wrappers and folds the spans into layer figures."""

    def __init__(self):
        self._local = threading.local()
        self._threads: list[tuple[str, tuple]] = []
        self._register = threading.Lock()

    # -- recording --------------------------------------------------------
    def _state(self) -> tuple[list, list, dict]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], [], {})
            with self._register:
                self._threads.append((threading.current_thread().name, state))
        return state

    def count(self, key: str, n: float = 1) -> None:
        counts = self._state()[2]
        counts[key] = counts.get(key, 0) + n

    def sample(self, key: str, value: float) -> None:
        counts = self._state()[2]
        counts.setdefault(key, []).append(value)

    def peak(self, key: str, value: float) -> None:
        counts = self._state()[2]
        if value > counts.get(key, float("-inf")):
            counts[key] = value

    def wrap(
        self, owner, attr: str, name: str, after=None, op_of=None, before=None
    ):
        """Replace ``owner.attr`` by a span-recording wrapper.

        *after(recorder, result, args, seen, seconds)* records counts
        from the call's result, where *seen* is what *before(args)*
        returned ahead of the call and *seconds* the call's duration.
        *op_of(args)* names the operation the call starts; the id is
        visible to every span the call causes, on any thread.
        """
        raw = inspect.getattr_static(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else getattr(owner, attr)
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = OP.set(op_of(args)) if op_of is not None else None
            seen = before(args) if before is not None else None
            spans, stack, _ = recorder._state()
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, OP.get())
                if token is not None:
                    OP.reset(token)
            if after is not None:
                after(recorder, result, args, seen, end - start)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)

    # -- folding ----------------------------------------------------------
    def spans(self):
        """Yield ``(thread, spans, counts)`` per thread; a span still
        open when the run ends is ``None``."""
        with self._register:
            threads = list(self._threads)
        for thread, (spans, _stack, counts) in threads:
            yield thread, spans, counts

    def fold(self) -> dict:
        """Layer totals plus per-operation self time by span name.

        Returns ``{"self": {name: s}, "inclusive": {name: s},
        "calls": {name: n}, "counts": {...}, "by_op": {op: {name: s}},
        "wait": {...}}``.
        ``inclusive`` and ``calls`` count only outermost spans of a
        name, so recursion is not double counted.
        """
        self_s: dict[str, float] = {}
        inclusive: dict[str, float] = {}
        calls: dict[str, int] = {}
        counts: dict[str, float] = {}
        by_op: dict = {}
        waits: list[tuple[float, float, object]] = []
        loop_busy: list[tuple[float, float, object]] = []
        for thread, spans, thread_counts in self.spans():
            for key, value in thread_counts.items():
                if isinstance(value, list):
                    counts.setdefault(key, []).extend(value)
                elif key.endswith("_max"):
                    counts[key] = max(counts.get(key, value), value)
                else:
                    counts[key] = counts.get(key, 0) + value
            closed = [(i, s) for i, s in enumerate(spans) if s is not None]
            children = [0.0] * len(spans)
            for _i, (name, start, end, parent, _op) in closed:
                if parent >= 0:
                    children[parent] += end - start
            for i, (name, start, end, parent, op) in closed:
                own = end - start - children[i]
                self_s[name] = self_s.get(name, 0.0) + own
                if op is not None:
                    per = by_op.setdefault(op, {})
                    per[name] = per.get(name, 0.0) + own
                if parent < 0 or spans[parent] is None or spans[parent][0] != name:
                    inclusive[name] = inclusive.get(name, 0.0) + end - start
                    calls[name] = calls.get(name, 0) + 1
                if name == "net.async_wait":
                    waits.append((start, end, op))
                if thread == LOOP_THREAD and parent < 0:
                    loop_busy.append((start, end, op))
        return {
            "self": self_s,
            "inclusive": inclusive,
            "calls": calls,
            "counts": counts,
            "by_op": by_op,
            "wait": split_async_waits(waits, loop_busy),
        }


def _merge(intervals):
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return merged


def _covered(merged, starts, start, end) -> float:
    """Seconds of ``[start, end]`` covered by the merged intervals."""
    total = 0.0
    i = max(0, bisect.bisect_right(starts, start) - 1)
    while i < len(merged) and merged[i][0] < end:
        lo, hi = max(merged[i][0], start), min(merged[i][1], end)
        if hi > lo:
            total += hi - lo
        i += 1
    return total


def split_async_waits(waits, loop_busy) -> dict:
    """Split the time a session blocks on the async clock.

    While a session's worker thread blocks in ``AsyncClock.run_until_idle``
    the loop thread runs seller handlers.  The blocked time splits into
    time the loop thread was busy with this session's spans, busy with
    other sessions' spans, and ``idle``: the loop thread ran none of the
    wrapped layers, so the session waited on modelled network delay
    (plus unwrapped dispatch glue).  ``idle`` summed is ``net.wait_s``;
    ``by_op`` maps each session to ``[blocked, idle, own busy]``.
    """
    everyone = _merge((s, e) for s, e, _ in loop_busy)
    starts = [m[0] for m in everyone]
    by_op: dict = {}
    for s, e, op in loop_busy:
        by_op.setdefault(op, []).append((s, e))
    own_merged = {op: _merge(iv) for op, iv in by_op.items()}
    own_starts = {op: [m[0] for m in iv] for op, iv in own_merged.items()}
    idle = 0.0
    per_op: dict = {}
    for start, end, op in waits:
        busy_all = _covered(everyone, starts, start, end)
        busy_own = (
            _covered(own_merged[op], own_starts[op], start, end)
            if op in own_merged
            else 0.0
        )
        idle += end - start - busy_all
        entry = per_op.setdefault(op, [0.0, 0.0, 0.0])
        entry[0] += end - start
        entry[1] += end - start - busy_all
        entry[2] += busy_own
    return {"idle": idle, "by_op": per_op}


# ----------------------------------------------------------------------
# The trading stack's wrapped boundaries (the broker's own are in
# server.py).
# ----------------------------------------------------------------------
def _trader_after(rec, result, args, seen, seconds):
    rec.count("trader.rounds", result.iterations)
    rec.count("trader.offers", result.offers_considered)
    rec.count("net.messages", result.messages.messages)


def _generate_after(rec, result, args, seen, seconds):
    rec.count("buyer.enumerated", result.enumerated)


def _prepare_after(rec, result, args, seen, seconds):
    rec.count("seller.offers", len(result[0]))


def _solicit_after(rec, result, args, seen, seconds):
    rec.count("protocol.timeouts", result.timeouts_fired)
    rec.count("protocol.retries", result.retries)


def _lookup_after(rec, result, args, seen, seconds):
    cache, key = args[0], args[1]
    rec.count("cache.lookups")
    if result is not None:
        rec.count("cache.hits")
        if cache.interns is not None and cache.interns.contains(key):
            rec.count("cache.intern_hits")


def _store_after(rec, result, args, evictions_before, seconds):
    cache = args[0]
    rec.count("cache.stores")
    rec.count("cache.evictions", cache.stats.evictions - evictions_before)
    rec.peak("cache.entries_max", len(cache))


def _fold_after(rec, result, args, seen, seconds):
    rec.count("obs.records", len(args[1]))


def install_trading(rec: Recorder, op_of) -> None:
    """Wrap the trading stack's layer boundaries."""
    import repro.trading.seller as seller_module
    from repro.net import AsyncClock, Network, Simulator
    from repro.obs.ledger import NegotiationLedger
    from repro.obs.metrics import RunTelemetry
    from repro.optimizer.dp import DynamicProgrammingOptimizer
    from repro.optimizer.idp import IDPOptimizer
    from repro.trading import (
        BiddingProtocol,
        BuyerPlanGenerator,
        BuyerPredicatesAnalyser,
        OfferCache,
        QueryTrader,
        SellerAgent,
    )
    from repro.trading.protocols import NegotiationProtocol

    rec.wrap(QueryTrader, "optimize", "trader.optimize", _trader_after, op_of)
    rec.wrap(BuyerPlanGenerator, "generate", "buyer.generate", _generate_after)
    rec.wrap(BuyerPredicatesAnalyser, "derive", "buyer.derive")
    rec.wrap(SellerAgent, "prepare_offers", "seller.prepare", _prepare_after)
    rec.wrap(SellerAgent, "optimize_cached", "seller.optimize_cached")
    rec.wrap(DynamicProgrammingOptimizer, "optimize", "optimizer.local")
    rec.wrap(IDPOptimizer, "optimize", "optimizer.local")
    rec.wrap(seller_module, "rewrite_query", "sql.rewrite")
    rec.wrap(OfferCache, "lookup", "cache.lookup", _lookup_after)
    rec.wrap(
        OfferCache, "store", "cache.store", _store_after,
        before=lambda args: args[0].stats.evictions,
    )
    rec.wrap(BiddingProtocol, "solicit", "protocol.solicit", _solicit_after)
    rec.wrap(NegotiationProtocol, "award", "protocol.award")
    rec.wrap(Network, "run", "net.run")
    rec.wrap(Simulator, "run_until_idle", "net.sim_run")
    rec.wrap(AsyncClock, "run_until_idle", "net.async_wait")
    rec.wrap(NegotiationLedger, "from_records", "obs.ledger_fold", _fold_after)
    rec.wrap(RunTelemetry, "from_records", "obs.telemetry_fold", _fold_after)


#: Span names making up each layer's self time.
LAYER_SPANS = {
    "buyer.generate_s": ("buyer.generate",),
    "buyer.derive_s": ("buyer.derive",),
    "seller.prepare_s": ("seller.prepare", "seller.optimize_cached"),
    "optimizer.local_s": ("optimizer.local",),
    "sql.rewrite_s": ("sql.rewrite",),
    "sql.parse_s": ("sql.parse",),
    "cache.lookup_s": ("cache.lookup", "cache.store"),
    "trader.self_s": ("trader.optimize",),
    "protocol.solicit_self_s": ("protocol.solicit",),
    "net.run_self_s": ("net.run", "net.sim_run"),
    "obs.fold_s": ("obs.ledger_fold", "obs.telemetry_fold"),
    "broker.http_self_s": ("broker.dispatch", "broker.submit"),
}


def common_metrics(fold: dict, ops: int) -> dict[str, float]:
    """The per-layer metrics every workload reports, per operation."""
    counts = fold["counts"]
    calls = fold["calls"]
    inclusive = fold["inclusive"]
    lookups = counts.get("cache.lookups", 0)
    out = {
        metric: sum(fold["self"].get(n, 0.0) for n in names) / ops
        for metric, names in LAYER_SPANS.items()
    }
    out.update(
        {
            "buyer.generate_calls": calls.get("buyer.generate", 0) / ops,
            "buyer.enumerated": counts.get("buyer.enumerated", 0) / ops,
            "seller.prepare_calls": calls.get("seller.prepare", 0) / ops,
            "seller.offers": counts.get("seller.offers", 0) / ops,
            "optimizer.local_calls": calls.get("optimizer.local", 0) / ops,
            "cache.lookups": lookups / ops,
            "cache.hit_ratio": (
                counts.get("cache.hits", 0) / lookups if lookups else 0.0
            ),
            "cache.intern_hits": counts.get("cache.intern_hits", 0) / ops,
            "cache.stores": counts.get("cache.stores", 0) / ops,
            "cache.evictions": counts.get("cache.evictions", 0),
            "cache.entries": counts.get("cache.entries_max", 0),
            "trader.optimize_s": inclusive.get("trader.optimize", 0.0) / ops,
            "trader.rounds": counts.get("trader.rounds", 0) / ops,
            "trader.offers": counts.get("trader.offers", 0) / ops,
            "protocol.award_s": inclusive.get("protocol.award", 0.0) / ops,
            "protocol.timeouts": counts.get("protocol.timeouts", 0),
            "protocol.retries": counts.get("protocol.retries", 0),
            "net.wait_s": fold["wait"]["idle"] / ops,
            "net.messages": counts.get("net.messages", 0) / ops,
            "obs.records": counts.get("obs.records", 0) / ops,
        }
    )
    return out
