"""The federation broker: long-lived concurrent trading sessions.

The paper assumes a standing marketplace — buyers continuously solicit
offers from seller nodes.  This package turns the run-one-trade library
into that marketplace: a daemon that multiplexes many concurrent
negotiations over one shared world and offer cache, behind a
zero-dependency HTTP API (``repro serve``).

Layering (bottom up):

* :mod:`repro.broker.admission` — admit/queue/shed decisions + budgets
* :mod:`repro.broker.sessions`  — session lifecycle + worker pool
* :mod:`repro.broker.service`   — the negotiations themselves (clock
  selection, per-session isolation, metrics, explain)
* :mod:`repro.broker.router`    — HTTP route table (pure dispatch)
* :mod:`repro.broker.server`    — stdlib ``http.server`` binding

See ``docs/BROKER.md`` for the architecture and curl examples.
"""

from repro.broker.admission import (
    AdmissionConfig,
    AdmissionController,
    SessionBudget,
)
from repro.broker.server import BrokerHTTPServer, start_server
from repro.broker.service import (
    BrokerError,
    BrokerService,
    OrderedBiddingProtocol,
)
from repro.broker.sessions import (
    COMPLETED,
    DEGRADED,
    FAILED,
    QUEUED,
    RUNNING,
    SHED,
    BrokerSession,
    SessionManager,
    SessionSpec,
)
from repro.broker.router import Router

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "SessionBudget",
    "BrokerError",
    "BrokerService",
    "OrderedBiddingProtocol",
    "BrokerHTTPServer",
    "start_server",
    "Router",
    "BrokerSession",
    "SessionManager",
    "SessionSpec",
    "QUEUED",
    "RUNNING",
    "COMPLETED",
    "DEGRADED",
    "FAILED",
    "SHED",
]
