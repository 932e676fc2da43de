"""Golden byte-identity: fixed trades against recorded outputs.

``tests/golden/`` holds the deterministic JSONL trace, the ``trade``
stdout (plan and contracts) and the ``explain --json`` audit of three
trades, plus the full candidate list of one 12-join buyer DP, recorded
once (see ``tests/golden/README.md``). Every refactor of the trading
stack must reproduce them byte for byte.
"""

from __future__ import annotations

import gzip
import itertools
import json
from pathlib import Path

import pytest

import repro.trading.commodity as commodity
from repro.bench.harness import build_world
from repro.cli import main
from repro.obs import diff_json, diff_rows, load_trace
from repro.optimizer import IDPOptimizer
from repro.trading import BuyerPlanGenerator, RequestForBids, SellerAgent
from repro.workload import chain_query

GOLDEN = Path(__file__).parent / "golden"
FAULT_PLAN = str(Path(__file__).parents[1] / "examples" / "fault_plan.json")

CHAIN3 = (
    "SELECT * FROM R0 r0, R1 r1, R2 r2 "
    "WHERE r0.ref0 = r1.id AND r1.ref0 = r2.id AND r0.cat = 3"
)
CHAIN6 = (
    "SELECT * FROM R0 r0, R1 r1, R2 r2, R3 r3, R4 r4, R5 r5 "
    "WHERE r0.ref0 = r1.id AND r1.ref0 = r2.id AND r2.ref0 = r3.id "
    "AND r3.ref0 = r4.id AND r4.ref0 = r5.id"
)

TRADES = {
    "chain3": [CHAIN3, "--nodes", "8", "--relations", "4"],
    "idp6": [
        CHAIN6, "--nodes", "6", "--relations", "6", "--fragments", "2",
        "--plangen", "idp",
    ],
    "chain3_faults": [
        CHAIN3, "--nodes", "8", "--relations", "4",
        "--fault-plan", FAULT_PLAN,
    ],
}


@pytest.mark.parametrize("name", sorted(TRADES))
def test_trade_matches_golden(name, tmp_path, capsys):
    trace = tmp_path / f"{name}.jsonl.gz"
    assert main(["trade", *TRADES[name], "--trace-out", str(trace)]) == 0
    stdout = "".join(
        line for line in capsys.readouterr().out.splitlines(keepends=True)
        if not line.startswith("trace:")
    )

    golden_trace = GOLDEN / f"{name}.jsonl.gz"
    diff = diff_rows(load_trace(str(golden_trace)), load_trace(str(trace)))
    assert diff.identical, diff.render()
    # diff_rows skips exporter ids; the full lines must match too.
    assert gzip.decompress(trace.read_bytes()) == gzip.decompress(
        golden_trace.read_bytes()
    )
    assert stdout == (GOLDEN / f"{name}.trade.txt").read_text()


@pytest.mark.parametrize("name", sorted(TRADES))
def test_explain_json_matches_golden(name, capsys):
    assert main(["explain", *TRADES[name], "--json"]) == 0
    out = capsys.readouterr().out
    golden = (GOLDEN / f"{name}.explain.json").read_text()
    if out != golden:
        where = diff_json(json.loads(golden), json.loads(out))
        pytest.fail(f"explain JSON diverged from golden at {where}")


def test_twelve_join_buyer_dp_matches_golden():
    """The buyer's plan-space DP over a 12-join chain, candidate by
    candidate. Sellers use IDP so offer generation stays cheap."""
    commodity._offer_ids = itertools.count(1)
    world = build_world(nodes=6, n_relations=13, fragments=2, replicas=2,
                        seed=7)
    query = chain_query(13)
    rfb = RequestForBids(buyer="client", queries=(query,), round_number=1)
    offers = []
    for node in world.nodes:
        if node == "client":
            continue
        agent = SellerAgent(
            world.catalog.local(node), world.builder,
            optimizer=IDPOptimizer(world.builder), use_offer_cache=False,
        )
        offers.extend(agent.prepare_offers(rfb)[0])
    result = BuyerPlanGenerator(world.builder, "client").generate(
        query, offers
    )
    got = {
        "enumerated": result.enumerated,
        "candidates": [[c.value, c.plan.explain()] for c in result.candidates],
    }
    golden = json.loads((GOLDEN / "buyer_dp_12join.json").read_text())
    assert got == golden, diff_json(golden, got)
