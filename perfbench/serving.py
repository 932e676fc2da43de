"""The serving workloads: an open-loop generator against ``repro serve``.

Both workloads start the broker as its own process (``server.py``) and
submit over HTTP on a fixed schedule: a ladder of offered rates, each
rung lasting ``--seconds / rungs``.  Requests go out when due whatever
the broker's state; a session's latency runs from the time it was due
to the time the broker finished it, so a late generator counts against
the broker, and the generator's own lateness is reported.

* ``serve-burst-async`` -- the broker's default async clock and
  admission settings, MQO off, bursty multi-tenant 2-4-relation
  queries over a 2-fragment federation.
* ``serve-mqo-marts`` -- ``--mqo`` on the sim clock, overlapping
  analytics waves over single-fragment replicated marts.  Every wave
  holds exactly one epoch's worth of sessions and waves never overlap,
  so epoch membership is fixed by the schedule; the check asserts it.
"""

from __future__ import annotations

import http.client
import json
import pathlib
import random
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace

import layers
from common import median, note, percentile, tail

HERE = pathlib.Path(__file__).resolve().parent
OFFER_ID = re.compile(r"offer#\d+")


@dataclass(frozen=True)
class Workload:
    #: ``build_world`` arguments; the broker gets the same as CLI flags.
    world: dict
    serve_args: tuple[str, ...]
    #: Offered rates (sessions per second), lowest first.
    rungs: tuple[float, ...]
    #: Sessions per burst (bursty) or per wave (= MQO epoch size).
    group: int
    #: Session latency limit (from due time to finish).
    limit_ms: float
    mqo: bool = False


def _world_flags(world: dict) -> tuple[str, ...]:
    return (
        "--nodes", str(world["nodes"]), "--relations", str(world["n_relations"]),
        "--rows", str(world["rows"]), "--fragments", str(world["fragments"]),
        "--replicas", str(world["replicas"]), "--seed", str(world["seed"]),
    )


BURST_WORLD = dict(nodes=8, n_relations=6, rows=1000, fragments=2, replicas=2, seed=7)
MART_WORLD = dict(nodes=8, n_relations=6, rows=1000, fragments=1, replicas=2, seed=7)

#: Sessions per MQO epoch; a wave is exactly one epoch.
EPOCH_SIZE = 8
#: Long enough that no epoch ever seals on its timer: waves seal by size.
EPOCH_WINDOW_S = 5.0

WORKLOADS = {
    "serve-burst-async": Workload(
        world=BURST_WORLD,
        serve_args=("--clock", "async") + _world_flags(BURST_WORLD),
        rungs=(3.0, 4.0, 5.0, 6.0, 8.0, 10.0),
        group=4,
        limit_ms=1000.0,
    ),
    "serve-mqo-marts": Workload(
        world=MART_WORLD,
        serve_args=(
            "--clock", "sim", "--mqo",
            "--mqo-epoch-size", str(EPOCH_SIZE),
            "--mqo-epoch-window", str(EPOCH_WINDOW_S),
        ) + _world_flags(MART_WORLD),
        rungs=(8.0, 12.0, 16.0, 24.0, 32.0, 40.0),
        group=EPOCH_SIZE,
        limit_ms=500.0,
        mqo=True,
    ),
}

#: Seed of the query pool each rung permutes (plus the rung's index).
POOL_SEED = 7100

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Bursts or waves served back to back by each set-up's warm-up.
WARMUP_GROUPS = 2
#: Warm-up arrivals are due (almost) at once.
WARMUP_RATE = 1000.0
#: Seconds the broker gets to finish every session after the last is due.
DRAIN_TIMEOUT_S = 90.0


@dataclass
class Arrival:
    due: float  # seconds from the schedule's start
    tenant: str
    sql: str
    query: object
    rung: int  # -1 for warm-up
    group: int  # burst or wave number (waves: the epoch it must seal)


@dataclass
class Sent:
    arrival: Arrival
    sent: float  # monotonic seconds
    status: int
    session: str | None
    result: dict = field(default_factory=dict)

    def finished(self) -> float | None:
        latency = self.result.get("latency_ms")
        return None if latency is None else self.sent + latency / 1e3


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def schedule(workload: Workload, seed: int, seconds: float) -> tuple[list, list]:
    """``(warm-up arrivals, ladder arrivals)`` drawn from *seed*."""
    rung_s = seconds / len(workload.rungs)
    warmup = _groups(workload, seed * 1000 + 999, rate=WARMUP_RATE,
                     count=WARMUP_GROUPS, offset=0.0, rung=-1, first_group=0)
    ladder = []
    groups = WARMUP_GROUPS
    for k, rate in enumerate(workload.rungs):
        count = max(2, round(rung_s * rate / workload.group))
        ladder.extend(_groups(workload, seed * 1000 + k, rate=rate, count=count,
                              offset=k * rung_s, rung=k, first_group=groups))
        groups += count
    return warmup, ladder


def _groups(workload, seed, rate, count, offset, rung, first_group):
    """*count* bursts/waves offered at *rate* sessions per second."""
    from repro.workload import (
        BurstConfig, OverlapConfig, build_bursty_workload,
        build_overlapping_analytics,
    )

    spacing = workload.group / rate
    jitter = min(0.05, spacing / 4)
    # Each rung serves a fixed multiset of queries drawn by the program's
    # workload builder; the seed decides which arrival gets which query,
    # so runs differ in burst or wave composition and in order but not
    # in total work.
    if workload.mqo:
        arrivals = build_overlapping_analytics(
            OverlapConfig(
                tenants=workload.group, queries_per_tenant=count,
                wave_spacing=spacing, jitter=jitter, seed=POOL_SEED + rung,
            )
        )
    else:
        arrivals = build_bursty_workload(
            BurstConfig(
                tenants=4, bursts=count, burst_size=workload.group,
                burst_spacing=spacing, jitter=jitter,
                seed=POOL_SEED + rung,
            )
        )
    queries = [a.query for a in arrivals]
    random.Random(seed).shuffle(queries)
    arrivals = [replace(a, query=q) for a, q in zip(arrivals, queries)]
    out = []
    for index, a in enumerate(arrivals):
        out.append(
            Arrival(
                due=offset + a.arrival, tenant=a.tenant, sql=a.query.sql(),
                query=a.query, rung=rung,
                group=first_group + index // workload.group,
            )
        )
    return out


# ----------------------------------------------------------------------
# The broker process and its HTTP API
# ----------------------------------------------------------------------
class Broker:
    """One ``repro serve`` process, stopped with SIGINT."""

    def __init__(self, workload: Workload, trace: bool):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), "--trace",
             "1" if trace else "0", "--", *workload.serve_args,
             "--port", "0"],
            stdout=subprocess.PIPE, text=True,
        )
        self.report: dict | None = None
        line = self.proc.stdout.readline()
        if not line.startswith("broker listening on http://"):
            self.stop()
            raise RuntimeError(f"broker did not start: {line!r}")
        host, port = line.split()[3][len("http://"):].rsplit(":", 1)
        self.address = (host, int(port))

    def request(self, method: str, path: str, payload=None):
        # A fresh connection per request, as curl or urllib clients make:
        # on a kept-alive connection each response stalls ~40 ms
        # (the broker writes headers and body separately; Nagle waits
        # for the client's delayed ACK), which would throttle the
        # generator rather than measure the sessions.
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        conn = http.client.HTTPConnection(*self.address, timeout=60)
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, json.loads(response.read().decode())
        finally:
            conn.close()

    def submit(self, arrival: Arrival) -> tuple[int, str | None]:
        status, body = self.request(
            "POST", "/sessions", {"sql": arrival.sql, "tenant": arrival.tenant}
        )
        return status, body.get("session")

    def get(self, path: str):
        return self.request("GET", path)

    def stop(self) -> None:
        """SIGINT the broker, wait for it and keep its final report."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            out, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        lines = [l for l in (out or "").splitlines() if l.startswith("{")]
        self.report = json.loads(lines[-1]) if lines else None


def send(broker: Broker, arrivals: list, start: float) -> list:
    """Submit each arrival when due (open loop); returns what was sent."""
    sent = []
    for arrival in arrivals:
        delay = start + arrival.due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        t = time.monotonic()
        try:
            status, session = broker.submit(arrival)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            note(f"submit failed: {type(exc).__name__}: {exc}")
            status, session = 0, None
        sent.append(Sent(arrival, t, status, session))
    return sent


def collect(broker: Broker, sent: list) -> None:
    """Wait until every accepted session is terminal; fetch results."""
    pending = {s.session for s in sent if s.session is not None}
    deadline = time.monotonic() + DRAIN_TIMEOUT_S
    while pending and time.monotonic() < deadline:
        _, body = broker.get("/sessions")
        done = {
            s["session"] for s in body["sessions"]
            if s["state"] not in ("queued", "running")
        }
        pending -= done
        if pending:
            time.sleep(0.1)
    for s in sent:
        if s.session is not None and s.session not in pending:
            status, body = broker.get(f"/sessions/{s.session}/result")
            s.result = body if status == 200 else {"state": f"http {status}"}


def start_and_warm(workload: Workload, warmup: list, trace: bool):
    """Start a broker and serve the warm-up back to back; timed."""
    started = time.perf_counter()
    broker = Broker(workload, trace)
    try:
        sent = send(broker, warmup, time.monotonic())
        collect(broker, sent)
    except BaseException:
        broker.stop()
        raise
    return broker, sent, time.perf_counter() - started


def serve_once(workload, warmup, ladder, seconds, trace: bool, setups: int):
    """Set up *setups* times (keeping the last broker), run the ladder."""
    times = []
    for i in range(setups):
        broker, warm_sent, took = start_and_warm(workload, warmup, trace)
        times.append(took)
        if i < setups - 1:
            broker.stop()
    try:
        start = time.monotonic()
        sent = send(broker, ladder, start)
        collect(broker, sent)
        _, metrics = broker.get("/metrics")
    finally:
        broker.stop()
    return {
        "setups": times, "start": start, "seconds": seconds,
        "sent": sent, "warm": warm_sent,
        "metrics": metrics, "report": broker.report or {},
    }


# ----------------------------------------------------------------------
# Output checks (untimed)
# ----------------------------------------------------------------------
class Checker:
    """Decides each session's outcome; caches work across runs."""

    def __init__(self, workload: Workload):
        from repro.bench.harness import build_world
        from repro.execution import FederationData

        self.workload = workload
        self.world = build_world(**workload.world)
        self.data = FederationData.build(self.world.catalog, seed=workload.world["seed"])
        self._plans: dict = {}  # sql -> serial library trade result
        self._verdicts: dict = {}
        self._expected: dict = {}  # sql -> centralized answer
        self._replay: dict | None = None

    def reference_plans(self, everything: list) -> dict:
        """Reference plan per arrival: serial library trades (burst) or
        an in-process replay of the same MQO epochs (marts)."""
        if self.workload.mqo:
            if self._replay is None:
                self._replay = self._replay_epochs(everything)
            return self._replay
        from repro.bench.harness import BUYER
        from repro.broker import OrderedBiddingProtocol
        from repro.net import Network
        from repro.trading import BuyerPlanGenerator, QueryTrader
        from repro.trading.commodity import offer_id_scope

        out = {}
        for a in everything:
            if a.sql in self._plans:
                out[id(a)] = self._plans[a.sql]
                continue
            with offer_id_scope():
                result = QueryTrader(
                    BUYER, self.world.seller_agents(), Network(self.world.model),
                    BuyerPlanGenerator(self.world.builder, BUYER),
                    protocol=OrderedBiddingProtocol(),
                ).optimize(a.query)
            self._plans[a.sql] = out[id(a)] = result
        return out

    def _replay_epochs(self, everything: list) -> dict:
        from repro.broker import AdmissionConfig, BrokerService
        from repro.broker.sessions import SessionSpec
        from repro.mqo import MQOConfig

        service = BrokerService(
            world_config=self.workload.world, clock="sim",
            admission=AdmissionConfig(queue_limit=len(everything) + 1),
            mqo=MQOConfig(epoch_size=EPOCH_SIZE, epoch_window=EPOCH_WINDOW_S),
        )
        try:
            sessions = [
                service.submit(SessionSpec(sql=a.sql, query=a.query, tenant=a.tenant))
                for a in everything
            ]
            if not service.drain(timeout=300.0):
                raise RuntimeError("replay broker did not drain")
        finally:
            service.close()
        return {id(a): s.result for a, s in zip(everything, sessions)}

    def check(self, run: dict) -> tuple[list[str], set[int]]:
        """Error messages for *run* (warm-up included) and the ids of
        the failed :class:`Sent` records."""
        everything = run["warm"] + run["sent"]
        references = self.reference_plans([s.arrival for s in everything])
        errors, failed = [], set()
        for s in everything:
            error = self._check_one(s, references.get(id(s.arrival)))
            if error:
                errors.append(f"{error} [{s.session} {s.arrival.sql}]")
                failed.add(id(s))
        if self.workload.mqo:
            errors.extend(self._check_epochs(run, everything))
        return errors, failed

    def _check_one(self, s: Sent, reference) -> str | None:
        from repro.execution import PlanExecutor, evaluate_query

        if s.status != 202:
            return "shed" if s.status == 429 else f"HTTP {s.status}"
        state = s.result.get("state")
        if state not in ("completed", "degraded"):
            return f"session {state}: {s.result.get('error', '')}"
        if not s.result.get("found"):
            return "no plan"
        if reference is None or not reference.found:
            return "no reference plan"
        if (s.result.get("plan_cost"), s.result.get("plan")) != (
            reference.plan_cost, reference.best.plan.explain()
        ):
            return "plan differs from the reference"
        # Offer ids are labels: plans differing only in them compute
        # the same answer, so one execution covers them all.
        key = (s.arrival.sql, OFFER_ID.sub("offer#", s.result["plan"]))
        if key not in self._verdicts:
            answer = PlanExecutor(self.data, s.arrival.query).run(reference.best.plan)
            if s.arrival.sql not in self._expected:
                self._expected[s.arrival.sql] = evaluate_query(s.arrival.query, self.data)
            self._verdicts[key] = answer.equals_unordered(self._expected[s.arrival.sql])
        return None if self._verdicts[key] else "wrong answer"

    def _check_epochs(self, run: dict, everything: list) -> list[str]:
        errors = []
        mqo = run["metrics"].get("mqo") or {}
        groups = len({s.arrival.group for s in everything})
        if mqo.get("epochs") != groups:
            errors.append(f"{mqo.get('epochs')} epochs sealed for {groups} waves")
        if mqo.get("sessions_batched") != len(everything):
            errors.append("not every session was batched into an epoch")
        for s in everything:
            epoch = s.result.get("epoch")
            if epoch is not None and epoch != f"e{s.arrival.group + 1}":
                errors.append(
                    f"session {s.session} in epoch {epoch}, "
                    f"wave {s.arrival.group + 1}"
                )
        if not (mqo.get("shared_pricing") or {}).get("reconciled", False):
            errors.append("shared-pricing shares do not reconcile")
        return errors

    def distinct_checked(self) -> int:
        return len(self._verdicts)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _latency(s: Sent, start: float) -> float | None:
    finished = s.finished()
    return None if finished is None else finished - (start + s.arrival.due)


def rung_table(workload: Workload, run: dict, failed: set) -> list[dict]:
    start = run["start"]
    rows = []
    for k, rate in enumerate(workload.rungs):
        members = [s for s in run["sent"] if s.arrival.rung == k]
        latencies = [_latency(s, start) for s in members if id(s) not in failed]
        latencies = [x for x in latencies if x is not None]
        errors = len(members) - len(latencies)
        p90 = percentile(latencies, 0.9) if latencies else float("inf")
        backlog_mid = _backlog(members, start, len(members) // 2)
        backlog = _backlog(members, start, len(members) - 1)
        ok = (
            errors == 0 and p90 * 1e3 <= workload.limit_ms
            and backlog <= backlog_mid + workload.group
        )
        rows.append({
            "rate": rate, "sessions": len(members), "errors": errors,
            "p50_ms": median(latencies) * 1e3 if latencies else float("inf"),
            "p90_ms": p90 * 1e3,
            "backlog": backlog, "ok": ok,
        })
    return rows


def _backlog(members: list, start: float, index: int) -> int:
    """Sessions of a rung still unfinished when the burst or wave holding
    ``members[index]`` begins (members are in due order)."""
    group = members[index].arrival.group
    t = start + min(s.arrival.due for s in members if s.arrival.group == group)
    return sum(
        1 for s in members
        if s.arrival.due < t - start and (s.finished() is None or s.finished() > t)
    )


def end_to_end(workload, run, failed: set, n_errors: int, attempted: int) -> dict:
    sent = run["sent"]
    start = run["start"]
    ok_sessions = [s for s in sent if id(s) not in failed]
    latencies = [x for x in (_latency(s, start) for s in ok_sessions) if x is not None]
    tail_value, tail_pct, samples = tail(latencies)
    rows = rung_table(workload, run, failed)
    slo = 0.0
    for row in rows:
        if not row["ok"]:
            break
        slo = row["rate"]
    good = sum(1 for x in latencies if x * 1e3 <= workload.limit_ms)
    late = [max(0.0, s.sent - (start + s.arrival.due)) for s in sent]
    for row in rows:
        note(
            f"  rung {row['rate']:>5.1f}/s: {row['sessions']:>3} sessions, "
            f"p50 {row['p50_ms']:.1f} ms, p90 {row['p90_ms']:.1f} ms, backlog {row['backlog']}, errors "
            f"{row['errors']} -> {'meets' if row['ok'] else 'misses'} "
            f"{workload.limit_ms:.0f} ms"
        )
    note(
        f"latency p50 {median(latencies) * 1e3:.1f} ms, tail p{tail_pct:.1f} "
        f"{tail_value * 1e3:.1f} ms over {samples} sessions; generator "
        f"late p50 {median(late) * 1e3:.2f} ms max {max(late) * 1e3:.2f} ms; "
        f"error_ratio {n_errors / attempted:.3f}"
    )
    results = [s.result for s in ok_sessions]
    return {
        "setup_s": median(run["setups"]),
        "latency_p50_ms": median(latencies) * 1e3,
        "latency_tail_ms": tail_value * 1e3,
        "throughput_per_s": good / run["seconds"],
        "slo_rate_max_per_s": slo,
        "ok_ratio": 1.0 - n_errors / attempted,
        "plan_cost_sum": sum(r["plan_cost"] for r in results),
        "sim_opt_time_s_sum": sum(r["optimization_time"] for r in results),
        "messages_sum": sum(r["messages"] for r in results),
        "peak_rss_mb": run["report"].get("rss_mb", 0.0),
    }


def run(name: str, seed: int, seconds: float, trace: bool):
    workload = WORKLOADS[name]
    warmup, ladder = schedule(workload, seed, seconds)
    checker = Checker(workload)
    runs = [serve_once(workload, warmup, ladder, seconds, False, 1 if trace else SETUPS)]
    if trace:
        runs.append(serve_once(workload, warmup, ladder, seconds, True, 1))
    check_started = time.perf_counter()
    errors, failed = [], set()
    for r in runs:
        run_errors, run_failed = checker.check(r)
        errors.extend(run_errors)
        failed |= run_failed
    attempted = sum(len(r["warm"]) + len(r["sent"]) for r in runs)
    note(
        f"{name}: {len(ladder)} sessions over {len(workload.rungs)} rungs "
        f"(+{len(warmup)} warm-up), {checker.distinct_checked()} distinct "
        f"(query, plan) pairs executed in "
        f"{time.perf_counter() - check_started:.1f}s, errors {len(errors)}"
    )
    for message in errors[:10]:
        note("  error:", message)
    if trace:
        metrics = per_layer(workload, runs)
    else:
        metrics = end_to_end(workload, runs[0], failed, len(errors), attempted)
    return not errors, attempted, len(errors), metrics


def per_layer(workload, runs) -> dict:
    untraced, traced = runs
    report = traced["report"]
    fold = report["fold"]
    sessions = report["sessions"]
    n = len(sessions)
    out = layers.common_metrics(fold, n)
    counts = fold["counts"]
    timed = [v for v in sessions.values() if v["started"] is not None and v["finished"] is not None]
    queue = [(v["started"] - v["submitted"]) for v in timed]
    runs_s = [(v["finished"] - v["started"]) for v in timed]
    queue_tail, _, _ = tail(queue)
    mqo = report.get("mqo") or {}
    start = traced["start"]
    late = [max(0.0, s.sent - (start + s.arrival.due)) for s in traced["sent"]]
    out.update({
        "broker.submit_ms_p50": median(counts.get("broker.submit_s", [])) * 1e3,
        "broker.queue_wait_ms_p50": median(queue) * 1e3,
        "broker.queue_wait_ms_tail": queue_tail * 1e3,
        "broker.run_ms_p50": median(runs_s) * 1e3,
        "broker.shed": sum(1 for v in sessions.values() if v["state"] == "shed"),
        "broker.queue_depth_max": counts.get("broker.queue_depth_max", 0),
        "mqo.flush_s": fold["inclusive"].get("mqo.flush", 0.0) / n,
        "mqo.epochs": mqo.get("epochs", 0),
        "mqo.seeded_ratio": (
            mqo["sessions_seeded"] / mqo["sessions_batched"]
            if mqo.get("sessions_batched") else 0.0
        ),
        "mqo.seeds": mqo.get("seeds_injected", 0),
        "loadgen.late_ms_max": max(late) * 1e3,
    })
    out["trace.overhead_ratio"] = _p50(traced) / _p50(untraced) - 1.0
    if not workload.mqo:
        note("mqo.* report 0: MQO is off on this workload")
    decompose(workload, traced)
    return out


def _p50(run: dict) -> float:
    latencies = [_latency(s, run["start"]) for s in run["sent"]]
    return median([x for x in latencies if x is not None])


def decompose(workload, run) -> None:
    """Split session latency by rung: queue wait, modelled-delay wait,
    loop contention and self time by layer (means per session)."""
    sessions = run["report"]["sessions"]
    groups = {
        "buyer": ("buyer.generate", "buyer.derive"),
        "seller": ("seller.prepare", "seller.optimize_cached", "optimizer.local", "sql.rewrite", "cache.lookup", "cache.store"),
        "trader+protocol": ("trader.optimize", "protocol.solicit", "protocol.award"),
        "net dispatch": ("net.run", "net.sim_run"),
        "obs": ("obs.ledger_fold", "obs.telemetry_fold"),
    }
    for k, rate in enumerate(workload.rungs):
        rows = []
        for s in run["sent"]:
            v = sessions.get(s.session) if s.arrival.rung == k else None
            if v is None or v["finished"] is None or v["started"] is None:
                continue
            latency = v["finished"] - v["submitted"]
            blocked, idle, own = v["wait"]
            row = {
                "latency": latency,
                "queue wait": v["started"] - v["submitted"],
                "net.wait": idle,
                "loop contention": blocked - idle - own,
            }
            for group, names in groups.items():
                row[group] = sum(v["layers"].get(n, 0.0) for n in names)
            row["other"] = row["latency"] - sum(x for key, x in row.items() if key != "latency")
            rows.append(row)
        if not rows:
            continue
        parts = ", ".join(
            f"{key} {sum(r[key] for r in rows) / len(rows) * 1e3:.1f}"
            for key in rows[0]
        )
        note(f"  decomposition at {rate:.0f}/s, mean ms per session: {parts}")
