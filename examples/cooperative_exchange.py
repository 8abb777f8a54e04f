#!/usr/bin/env python3
"""Controlled exchange of preliminary results (usage relationships).

Shows the AC level's data-exchange machinery from Sect.4.1/5.4:

* two sibling sub-DAs with a **usage relationship** (Require),
* **quality-gated propagation**: a DOV only becomes visible to the
  requiring DA once it was Propagated *and* fulfils the required
  feature set,
* the paper's ECA rule — ``WHEN Require IF (required DOV available)
  THEN Propagate`` — installed on the supporting DA,
* **invalidation with replacement** and **withdrawal** with the
  requiring DM's log analysis ("was the withdrawn DOV used?").

Run with:  python examples/cooperative_exchange.py
"""

from repro.scenario.delegation import chip_spec, make_vlsi_system
from repro.dc.rules import require_propagate_rule
from repro.dc.script import DopStep, Script, Sequence
from repro.repository.wal import LogRecordKind
from repro.util.errors import ScopeViolationError
from repro.vlsi.tools import vlsi_dots


def main() -> None:
    system = make_vlsi_system(("ws-1", "ws-2", "ws-3"))
    dots = vlsi_dots()
    noop = Script(Sequence(DopStep("structure_synthesis")), "noop")

    top = system.init_design(
        dots["Chip"], chip_spec(100, 100), "lead", noop, "ws-1",
        initial_data={"cell": "chip", "level": "chip",
                      "behavior": {"operations": ["a", "b"]}})
    system.start(top.da_id)
    supplier = system.create_sub_da(top.da_id, dots["Module"],
                                    chip_spec(50, 50), "sue", noop,
                                    "ws-2")
    consumer = system.create_sub_da(top.da_id, dots["Module"],
                                    chip_spec(50, 50), "carl", noop,
                                    "ws-3")
    system.start(supplier.da_id)
    system.start(consumer.da_id)

    # the supplier derives two versions: a bad one and a good one
    bad = system.repository.checkin(
        supplier.da_id, "Module",
        {"cell": "m", "level": "module", "width": 80.0, "height": 80.0,
         "area": 6400.0}, created_at=system.clock.now)
    good = system.repository.checkin(
        supplier.da_id, "Module",
        {"cell": "m", "level": "module", "width": 40.0, "height": 40.0,
         "area": 1600.0}, parents=(bad.dov_id,),
        created_at=system.clock.now)

    print("=== quality-gated propagation ===")
    # the consumer requires a version that fits 50x50
    delivered = system.cm.require(consumer.da_id, supplier.da_id,
                                  {"width-limit", "height-limit"})
    print(f"  Require before any Propagate -> delivered: {delivered}")

    receivers = system.cm.propagate(supplier.da_id, bad.dov_id)
    print(f"  Propagate({bad.dov_id}) [80x80, fails the features] -> "
          f"delivered to {receivers or 'nobody (quality too low)'}")
    receivers = system.cm.propagate(supplier.da_id, good.dov_id)
    print(f"  Propagate({good.dov_id}) [40x40, fulfils the features] -> "
          f"delivered to {receivers}")
    print(f"  {good.dov_id} in consumer scope: "
          f"{system.cm.in_scope(consumer.da_id, good.dov_id)}")
    print(f"  {bad.dov_id} in consumer scope:  "
          f"{system.cm.in_scope(consumer.da_id, bad.dov_id)}")

    # DAs without a usage relationship must not exchange data
    try:
        system.cm.propagate(consumer.da_id, good.dov_id)
    except ScopeViolationError as exc:
        print(f"  propagation of foreign DOVs rejected: {exc}")

    print("\n=== the paper's ECA rule on the supporting DA ===")
    dm = system.runtime(supplier.da_id).dm
    rule = require_propagate_rule(
        find_qualifying=lambda env: next(
            (d for d in supplier.propagated
             if supplier.quality[d].covers(env["features"])), None),
        propagate=lambda env, dov: system.cm.propagate(supplier.da_id,
                                                       dov))
    dm.rules.register(rule)
    firings = dm.rules.dispatch("Require",
                                {"features": {"area-limit"}})
    print(f"  WHEN Require IF (required DOV available) THEN Propagate "
          f"-> fired: {[f.rule for f in firings]}")

    print("\n=== withdrawal with DM log analysis ===")
    # the consumer actually *uses* the delivered DOV in a DOP
    consumer_tm = system.runtime(consumer.da_id).client_tm
    dop = consumer_tm.begin_dop(consumer.da_id, "chip_planner")
    consumer_tm.checkout(dop, good.dov_id)
    system.runtime(consumer.da_id).dm.log.append(
        LogRecordKind.DOV_USED,
        {"dop": dop.dop_id, "dov": good.dov_id}, force=True)
    consumer_tm.abort_dop(dop)

    affected = system.cm.withdraw(supplier.da_id, good.dov_id)
    consumer_dm = system.runtime(consumer.da_id).dm
    print(f"  withdraw({good.dov_id}) -> affected DAs: {affected}")
    print(f"  consumer DM stopped: {consumer_dm.stopped} "
          f"({consumer_dm.stop_reason})")
    consumer_dm.designer_continue()
    print(f"  designer decided the work is unaffected -> stopped: "
          f"{consumer_dm.stopped}")

    usage = system.cm.usage(consumer.da_id, supplier.da_id)
    print(f"\nusage relationship bookkeeping: delivered={usage.delivered}"
          f" withdrawn={usage.withdrawn}")


if __name__ == "__main__":
    main()
