#!/usr/bin/env python
"""Sharded serving: one platform, N dispatchers, one reproducible trace.

A single micro-batching dispatcher eventually saturates: every window
solves one matching over every queued task.  The fleet layer
(DESIGN.md §15) scales the platform *out* instead of up — N per-shard
dispatchers behind a deterministic router — without giving up the
property everything else here is built on: the whole run replays
byte-for-byte from a seed.  This example walks the full story:

1. **route** — a consistent-hash router splits one Poisson admission
   stream across 4 shards (same stream, same split, every run).  A
   full-shard outage mid-run forces deterministic failover: tasks whose
   home shard is dark re-route to the next shard on their hash ring
   preference order, and nothing is lost or double-served;
2. **observe** — each shard records its own shard-labeled JSONL log;
   the merged fleet view (``repro serve top --log ...``) sums them
   losslessly, and the fleet totals equal the sum of shard totals by
   construction;
3. **retrain** — the fleet-wide loop pools execution labels from every
   shard into one replay buffer, refits one candidate, canaries it on
   every shard's own traffic, and — only on a unanimous panel — lands
   the hot-swap on *every* shard at the same epoch with the same
   weights digest.  A degraded guard on any single shard rolls the
   whole fleet back;
4. **replay** — the per-shard logs alone rebuild the entire fleet run
   (router included) and verify counters, routing determinism and
   conservation.

Everything is keyed to simulated hours; re-running this file reproduces
the same routes, versions, digests, and the same fleet trace SHA.

Run:  python examples/fleet_platform.py
"""

from __future__ import annotations

import glob
import tempfile

from repro.fleet import FleetConfig, FleetController, FleetRetrainController
from repro.monitor import TraceReplay
from repro.retrain import RetrainConfig
from repro.serve import Outage, ServeConfig
from repro.serve.loadgen import make_load
from repro.utils.rng import as_generator

CONFIG = FleetConfig(
    n_shards=4,
    routing="hash",
    serve=ServeConfig(pool_size=48, seed=0, train_epochs=40,
                      solver_max_iters=300, max_batch=8,
                      max_wait_hours=0.25),
)


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. Route + dispatch: one stream, four shards, one outage.
    # ------------------------------------------------------------------ #
    controller = FleetController(CONFIG)
    events = make_load("poisson", controller.pool, 48.0).draw(
        8.0, as_generator(CONFIG.serve.seed + 3))
    # Every cluster dark over [2, 3): with a replicated partition each
    # shard is fully down there, so the router keeps each task at its
    # ring home and the shard's dispatcher queues it — zero loss.
    outages = [Outage(c.cluster_id, 2.0, 3.0)
               for c in controller.shard_clusters[0]]

    print("== 1. sharded dispatch ==")
    with tempfile.TemporaryDirectory() as tmp:
        stats = controller.run(events, outages=outages, telemetry="jsonl",
                               out_dir=tmp, run_prefix="fleet")
        print(f"  {stats.summary()}")
        for sid, shard in enumerate(stats.per_shard):
            print(f"  shard {sid}: arrived={shard.arrived:>3} "
                  f"windows={shard.windows:>3} completed={shard.completed:>3} "
                  f"shed={shard.shed}")
        assert stats.conserved and stats.arrived == len(events)
        print(f"  fleet trace sha256: {stats.trace_sha256()[:16]}…")

        # ---------------------------------------------------------------- #
        # 2. Merged observability: fleet totals == sum of shard totals.
        # ---------------------------------------------------------------- #
        print("\n== 2. merged fleet view ==")
        from repro.monitor import snapshot_from_logs

        logs = sorted(glob.glob(f"{tmp}/fleet-s*.jsonl"))
        snap = snapshot_from_logs(logs)
        arrived = sum(
            state["value"]
            for key, state in snap["aggregate"]["counters"].items()
            if key.split("{", 1)[0] == "serve/arrived")
        print(f"  merged {len(logs)} shard logs: arrived={arrived:.0f} "
              f"(fleet counted {stats.arrived})")
        assert arrived == stats.arrived

        # ---------------------------------------------------------------- #
        # 4. Replay: the logs alone rebuild and verify the whole run.
        # ---------------------------------------------------------------- #
        print("\n== 3. replay from per-shard logs ==")
        replay = TraceReplay.from_logs(logs)
        re_stats = replay.replay(stack=controller.stack)
        problems = replay.verify(re_stats)
        print(f"  replayed {re_stats.arrived} arrivals across "
              f"{re_stats.n_shards} shards: "
              f"{'OK' if not problems else problems}")
        assert not problems
        assert re_stats.trace_sha256() == stats.trace_sha256()

    # ------------------------------------------------------------------ #
    # 3. Fleet-wide retraining: one candidate, N canaries, one verdict.
    # ------------------------------------------------------------------ #
    print("\n== 4. fleet-wide retraining ==")
    with tempfile.TemporaryDirectory() as registry_root:
        frc = FleetRetrainController(
            CONFIG,
            RetrainConfig(trigger="manual", min_labels=24, sample_size=128,
                          epochs=8, canary_min_holdout=4, canary_windows=4,
                          guard_windows=3, min_cluster_labels=4),
            registry_root=registry_root,
        )
        frc.fleet = controller  # reuse the already-trained stack
        frc._base_method = controller.shard_methods[0]
        outcome = frc.run(events)
        print(f"  verdict: {outcome.verdict}")
        for v in outcome.canary:
            state = ("abstained" if v["abstained"]
                     else "passed" if v["passed"] else "failed")
            print(f"  canary shard {v['shard']}: {state}")
        if outcome.verdict == "promoted":
            swaps = outcome.final.fleet_swaps()
            print(f"  fleet swap @window {swaps[0]['window']} -> "
                  f"{swaps[0]['version']} "
                  f"(digest {swaps[0]['digest'][:12]}…) on all "
                  f"{outcome.final.n_shards} shards"
                  + (", rolled back" if outcome.rolled_back else ""))
        else:
            print(f"  candidate {outcome.version} saved for audit; "
                  f"live pointer stayed at {frc.registry.live()}")


if __name__ == "__main__":
    main()
