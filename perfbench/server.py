"""The broker process of the serving workloads: ``repro serve`` itself.

    python3 perfbench/server.py --trace 0|1 -- <repro serve arguments>

Runs the ``repro serve`` command line in this process.  With
``--trace 1`` the layer boundaries are wrapped first (see
``layers.py``), each broker session being one operation.  After the
broker shuts down on SIGINT, the last output line is one JSON object:
the process's peak RSS and, when traced, the folded spans plus each
session's timestamps.
"""

from __future__ import annotations

import itertools
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
from common import peak_rss_mb  # noqa: E402


class BrokerProbe:
    """Wraps the broker's HTTP, submit and MQO boundaries."""

    def __init__(self, recorder: layers.Recorder):
        import repro.broker.service as service_module
        from repro.broker import BrokerService, Router
        from repro.mqo import EpochScheduler

        self.recorder = recorder
        self.service = None
        self.sessions: dict[int, object] = {}
        self._ops_by_query: dict[int, int] = {}
        self._ops = itertools.count()
        layers.install_trading(recorder, op_of=self._op_of_trade)
        recorder.wrap(Router, "dispatch", "broker.dispatch", self._dispatched)
        recorder.wrap(
            BrokerService, "submit", "broker.submit", self._submitted,
            before=self._submitting,
        )
        recorder.wrap(EpochScheduler, "flush", "mqo.flush")
        # The service binds parse_query at import; wrap that binding.
        recorder.wrap(service_module, "parse_query", "sql.parse")

    def _op_of_trade(self, args):
        return self._ops_by_query.get(id(args[1]))

    def _submitting(self, args):
        # Registered before the call: an MQO submit can seal the epoch
        # and start the session's trade before submit returns.
        op = next(self._ops)
        self._ops_by_query[id(args[1].query)] = op
        return op

    def _submitted(self, rec, session, args, op, seconds):
        self.service = args[0]
        self.sessions[op] = session
        rec.peak("broker.queue_depth_max", args[0].controller.occupancy()["queued"])

    def _dispatched(self, rec, result, args, seen, seconds):
        if args[1] == "POST":
            rec.sample("broker.submit_s", seconds)

    def summary(self) -> dict:
        """Folded spans, per-session timestamps and MQO counters."""
        fold = self.recorder.fold()
        sessions = {}
        for op, session in self.sessions.items():
            sessions[session.session_id] = {
                "state": session.state,
                "submitted": session.submitted_at,
                "started": session.started_at,
                "finished": session.finished_at,
                "layers": fold["by_op"].get(op, {}),
                "wait": fold["wait"]["by_op"].get(op, [0.0, 0.0, 0.0]),
            }
        mqo = None
        if self.service is not None and self.service.mqo is not None:
            metrics = self.service.mqo.metrics()
            mqo = {
                key: metrics[key]
                for key in (
                    "epochs", "sessions_batched", "sessions_seeded",
                    "seeds_injected",
                )
            }
        fold.pop("by_op")
        fold["wait"].pop("by_op")
        return {"fold": fold, "sessions": sessions, "mqo": mqo}


def main() -> int:
    args = sys.argv[1:]
    if len(args) < 3 or args[0] != "--trace" or args[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    probe = BrokerProbe(layers.Recorder()) if args[1] == "1" else None
    from repro.cli import main as repro_main

    code = repro_main(["serve", *args[3:]])
    report = {"rss_mb": peak_rss_mb()}
    if probe is not None:
        report.update(probe.summary())
    print(json.dumps(report), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
