"""Wall-clock benchmark: bitmask enumeration core vs the frozenset code.

Times the seller-side System-R DP (4–10 joins) and the buyer plan
generator (5 joins; the 12-join golden setup; an 8-join chain over 32
nodes) against the reference implementations kept in
:mod:`repro.optimizer.reference`, asserting the plans are identical
before trusting the numbers.  The buyer reference is self-contained:
frozenset rectangles, pairwise union scans and per-comparison leaf
walks.  Writes ``BENCH_enumeration.json`` at the repository root.

Run with::

    PYTHONPATH=src python benchmarks/bench_wallclock.py
"""

from __future__ import annotations

import json
import pathlib
import time

from repro.bench.envelope import bench_envelope, history
from repro.bench.harness import build_world
from repro.optimizer.dp import DynamicProgrammingOptimizer
from repro.optimizer.idp import IDPOptimizer
from repro.optimizer.reference import (
    ReferenceDynamicProgrammingOptimizer,
    reference_buyer_generate,
)
from repro.trading import BuyerPlanGenerator, RequestForBids, SellerAgent
from repro.workload import chain_query

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_enumeration.json"
REPEATS = 5


def best_of_pair(fn_a, fn_b, repeats: int = REPEATS):
    """Best wall-clock of *repeats* runs each, interleaved.

    Alternating the two implementations per repeat keeps allocator and
    CPU-cache warmth from favoring whichever runs second.
    """
    best_a = best_b = float("inf")
    result_a = result_b = None
    for _ in range(repeats):
        start = time.perf_counter()
        result_a = fn_a()
        best_a = min(best_a, time.perf_counter() - start)
        start = time.perf_counter()
        result_b = fn_b()
        best_b = min(best_b, time.perf_counter() - start)
    return best_a, result_a, best_b, result_b


def bench_seller_dp(world) -> list[dict]:
    site = next(n for n in world.nodes if n != "client")
    new = DynamicProgrammingOptimizer(world.builder)
    ref = ReferenceDynamicProgrammingOptimizer(world.builder)
    rows = []
    for joins in range(4, 11):
        query = chain_query(joins + 1)
        new_s, new_result, seed_s, ref_result = best_of_pair(
            lambda: new.optimize(query, site),
            lambda: ref.optimize(query, site),
        )
        assert new_result.plan.explain() == ref_result.plan.explain()
        assert new_result.enumerated == ref_result.enumerated
        rows.append(
            {
                "case": f"seller-dp-{joins}-joins",
                "joins": joins,
                "enumerated": new_result.enumerated,
                "seed_s": seed_s,
                "new_s": new_s,
                "speedup": seed_s / new_s,
            }
        )
    return rows


def buyer_offers(world, query, **seller_kwargs) -> list:
    """Every seller's round-one offers for *query*."""
    rfb = RequestForBids(buyer="client", queries=(query,), round_number=1)
    offers = []
    for node in world.nodes:
        if node == "client":
            continue
        agent = SellerAgent(
            world.catalog.local(node), world.builder, **seller_kwargs
        )
        node_offers, _work = agent.prepare_offers(rfb)
        offers.extend(node_offers)
    return offers


def bench_buyer_plangen(world, case: str, joins: int, **seller_kwargs) -> dict:
    """The buyer DP vs the self-contained reference generator, with the
    enumerated count, every candidate's value and plan, and the best
    plan asserted identical."""
    query = chain_query(joins + 1)
    offers = buyer_offers(world, query, **seller_kwargs)
    generator = BuyerPlanGenerator(world.builder, "client", mode="dp")
    new_s, new_result, seed_s, ref_result = best_of_pair(
        lambda: generator.generate(query, offers),
        lambda: reference_buyer_generate(generator, query, offers),
    )
    assert new_result.enumerated == ref_result.enumerated
    assert [(c.value, c.plan.explain()) for c in new_result.candidates] == [
        (c.value, c.plan.explain()) for c in ref_result.candidates
    ]
    assert (new_result.best is None) == (ref_result.best is None)
    if new_result.best is not None:
        assert new_result.best.plan.explain() == ref_result.best.plan.explain()
    return {
        "case": case,
        "joins": joins,
        "nodes": len(world.nodes),
        "offers": len(offers),
        "enumerated": new_result.enumerated,
        "seed_s": seed_s,
        "new_s": new_s,
        "speedup": seed_s / new_s,
    }


def bench_buyer_cases(world) -> list[dict]:
    twelve = build_world(
        nodes=6, n_relations=13, fragments=2, replicas=2, seed=7
    )
    chain32 = build_world(nodes=32, n_relations=9, fragments=2, replicas=2)
    return [
        bench_buyer_plangen(world, "buyer-plangen-5-joins", 5),
        # The golden 12-join setup (tests/test_golden.py): IDP sellers
        # keep offer generation cheap.
        bench_buyer_plangen(
            twelve, "buyer-plangen-12-joins", 12,
            optimizer=IDPOptimizer(twelve.builder), use_offer_cache=False,
        ),
        bench_buyer_plangen(chain32, "buyer-plangen-8-joins-32-nodes", 8),
    ]


def main() -> None:
    world = build_world(nodes=8, n_relations=11)
    cases = bench_seller_dp(world)
    cases.extend(bench_buyer_cases(world))
    eight_join = next(c for c in cases if c["case"] == "seller-dp-8-joins")
    envelope = bench_envelope()
    payload = {
        **envelope,
        "description": (
            "Wall-clock comparison: bitmask JoinGraph enumeration vs the "
            "reference frozenset implementation (plans asserted identical)."
        ),
        "repeats_best_of": REPEATS,
        "cases": cases,
        "eight_join_speedup": eight_join["speedup"],
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    speedups = {c["case"]: c["speedup"] for c in cases}
    history(REPO_ROOT).append(
        "enumeration",
        {
            "eight_join_speedup": eight_join["speedup"],
            "buyer_12_join_speedup": speedups["buyer-plangen-12-joins"],
            "buyer_8_join_32_node_speedup": speedups[
                "buyer-plangen-8-joins-32-nodes"
            ],
        },
        envelope=envelope,
    )
    for case in cases:
        print(
            f"{case['case']:>30}: seed {case['seed_s'] * 1e3:8.2f} ms  "
            f"new {case['new_s'] * 1e3:8.2f} ms  "
            f"speedup {case['speedup']:5.1f}x"
        )
    print(f"wrote {OUTPUT}")
    if eight_join["speedup"] < 3.0:
        raise SystemExit(
            f"8-join speedup {eight_join['speedup']:.2f}x below the 3x target"
        )


if __name__ == "__main__":
    main()
