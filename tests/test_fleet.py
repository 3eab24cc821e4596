"""Tests for the sharded multi-dispatcher platform (repro.fleet).

Covers the routing layer (consistent-hash stability, load-aware
leveling, full-shard outage detection), the fleet controller's core
invariants (exact stream partition, per-shard conservation, 1-shard
trace equality with the plain dispatcher, byte-reproducible reruns),
the merged observability plane (shard-labeled logs summing losslessly,
snapshot merging), fleet replay through ``TraceReplay``, and the fleet-wide hot-swap protocol
(same epoch + same digest on every shard, any-shard-degraded rollback).
"""

from __future__ import annotations

import copy
import glob
import io

import numpy as np
import pytest

from repro.cli import main
from repro.clusters import make_specialist_pool, shard_pool
from repro.fleet import (
    FleetConfig,
    FleetController,
    FleetRetrainController,
    HashRing,
    HashRouter,
    LoadAwareRouter,
    full_down_intervals,
    make_router,
)
from repro.monitor import MonitorConfig, TraceReplay
from repro.retrain.loop import RetrainConfig
from repro.serve import (
    Dispatcher,
    ModelRegistry,
    Outage,
    ServeConfig,
    build_stack,
)
from repro.serve.loadgen import make_load
from repro.serve.registry import _pairs_of
from repro.utils.rng import as_generator
from repro.workloads.specs import Family

#: Small-but-real serving knobs shared by every fleet test: enough
#: arrivals for multi-window shards, fast to train.
SERVE = ServeConfig(pool_size=40, train_epochs=12, max_wait_hours=0.25,
                    solver_max_iters=300)


@pytest.fixture(scope="module")
def stack():
    """One trained replicate-partition stack shared by all fleet tests."""
    return build_stack(SERVE)


def fleet_events(pool, *, rate=40.0, horizon=6.0, seed=SERVE.seed):
    return make_load("poisson", pool, rate).draw(horizon,
                                                 as_generator(seed + 3))


# --------------------------------------------------------------------- #
# Routing layer.
# --------------------------------------------------------------------- #


def test_hash_ring_uniformity_and_determinism():
    ring = HashRing(4)
    owners = [ring.owner(str(k)) for k in range(2000)]
    assert owners == [ring.owner(str(k)) for k in range(2000)]
    counts = np.bincount(owners, minlength=4)
    # Virtual nodes keep the split near-uniform (each shard within a
    # factor ~2 of fair share at 64 replicas).
    assert counts.min() > 2000 / 4 / 2
    assert counts.max() < 2000 / 4 * 2


def test_hash_ring_stability_under_resharding():
    """Growing n -> n+1 shards remaps only ~1/(n+1) of the keys."""
    keys = [str(k) for k in range(3000)]
    for n in (2, 4, 8):
        before = HashRing(n)
        after = HashRing(n + 1)
        moved = sum(before.owner(k) != after.owner(k) for k in keys)
        fair = len(keys) / (n + 1)
        assert moved < 2.0 * fair, (
            f"{moved} keys moved going {n}->{n + 1} shards; "
            f"consistent hashing should move ~{fair:.0f}")
        # Every moved key must have moved TO the new shard.
        for k in keys:
            if before.owner(k) != after.owner(k):
                assert after.owner(k) == n


def test_hash_ring_preference_order():
    ring = HashRing(4)
    for k in ("a", "b", "task-17"):
        pref = ring.preference(k)
        assert sorted(pref) == [0, 1, 2, 3]
        assert pref[0] == ring.owner(k)


def test_hash_router_failover_deterministic():
    router = HashRouter(3)
    pref = router.ring.preference("7")
    all_up = {0, 1, 2}
    assert router.route(7, 0.0, all_up) == pref[0]
    assert router.rerouted == 0
    # Home down: next shard in ring order, counted as a re-route.
    assert router.route(7, 1.0, all_up - {pref[0]}) == pref[1]
    assert router.rerouted == 1
    # Everything down: home anyway (the dispatcher queues; never drop).
    assert router.route(7, 2.0, set()) == pref[0]


def test_load_aware_router_levels_bursts():
    router = LoadAwareRouter(2, window_hours=1.0)
    up = {0, 1}
    # Adversarial burst: every task's hash home is shard 0, so a pure
    # hash router would send all 40 to one shard.
    hot = [k for k in range(400) if router.ring.owner(str(k)) == 0][:40]
    assert len(hot) == 40
    routed = [router.route(tid, 0.1 * i, up) for i, tid in enumerate(hot)]
    counts = np.bincount(routed, minlength=2)
    # Least-loaded routing strictly alternates, splitting the burst.
    assert abs(int(counts[0]) - int(counts[1])) <= 1
    assert router.rerouted == counts[1]
    # The depth window forgets old arrivals: after a long quiet gap the
    # next task goes to its hash home again.
    tid = 1234
    home = router.ring.preference(str(tid))[0]
    assert router.route(tid, 100.0, up) == home


def test_make_router_validates():
    assert make_router("hash", 2).policy == "hash"
    assert make_router("load", 2).policy == "load"
    with pytest.raises(ValueError, match="routing policy"):
        make_router("random", 2)


def test_full_down_intervals():
    # One of two clusters down: shard still up.
    assert full_down_intervals([Outage(0, 1.0, 2.0)], 2) == []
    # Both down with overlap: only the intersection counts.
    got = full_down_intervals(
        [Outage(0, 1.0, 3.0), Outage(1, 2.0, 4.0)], 2)
    assert got == [(2.0, 3.0)]
    # Touching half-open intervals of one cluster merge; disjoint
    # full-down stretches stay separate.
    got = full_down_intervals(
        [Outage(0, 1.0, 2.0), Outage(0, 2.0, 5.0), Outage(1, 1.5, 2.5),
         Outage(1, 4.0, 6.0)], 2)
    assert got == [(1.5, 2.5), (4.0, 5.0)]


# --------------------------------------------------------------------- #
# Cluster-pool sharding.
# --------------------------------------------------------------------- #


def test_shard_pool_exact_partition():
    clusters = make_specialist_pool(8)
    shards = shard_pool(clusters, 4)
    assert [len(s) for s in shards] == [2, 2, 2, 2]
    flat = sorted(c.cluster_id for s in shards for c in s)
    assert flat == [c.cluster_id for c in clusters]


def test_shard_pool_family_coherent():
    # One specialist per family x 2: family shards pair same-family
    # clusters (the specialist pool cycles families round-robin).
    clusters = make_specialist_pool(len(Family))
    shards = shard_pool(clusters, len(Family))
    for shard in shards:
        fams = {max(c.hardware.family_affinity,
                    key=c.hardware.family_affinity.get) for c in shard}
        assert len(fams) == 1


def test_shard_pool_validation():
    clusters = make_specialist_pool(4)
    with pytest.raises(ValueError, match="n_shards"):
        shard_pool(clusters, 0)
    with pytest.raises(ValueError, match="exceeds pool size"):
        shard_pool(clusters, 5)


# --------------------------------------------------------------------- #
# FleetConfig.
# --------------------------------------------------------------------- #


def test_fleet_config_roundtrip_and_validation():
    cfg = FleetConfig(n_shards=3, routing="load", serve=SERVE)
    again = FleetConfig.from_params(cfg.to_params())
    assert again == cfg
    # Per-shard stamped params round-trip back to the shard-agnostic
    # fleet config (the stamp is stripped).
    params = cfg.to_params()
    params["serve"]["shard"] = "2"
    assert FleetConfig.from_params(params) == cfg
    # A log another version wrote: a key this FleetConfig does not have.
    with pytest.raises(ValueError, match=r"fleet params have unknown keys \['replicas'\]"):
        FleetConfig.from_params({**params, "replicas": 64})
    params.pop("pool_m")
    with pytest.raises(ValueError, match="missing.*pool_m"):
        FleetConfig.from_params(params)
    with pytest.raises(ValueError, match="n_shards"):
        FleetConfig(n_shards=0)
    with pytest.raises(ValueError, match="routing"):
        FleetConfig(routing="rr")
    with pytest.raises(ValueError, match="partition"):
        FleetConfig(partition="hashmod")
    with pytest.raises(ValueError, match="pool_m"):
        FleetConfig(partition="family", n_shards=9, pool_m=8)
    with pytest.raises(ValueError, match="serve.shard"):
        FleetConfig(serve=SERVE.with_overrides(shard="0"))
    with pytest.raises(ValueError, match="serve.retrain"):
        FleetConfig(serve=SERVE.with_overrides(
            retrain=RetrainConfig(trigger="manual")))
    # Nothing the controller never wires may ride meta["serve"] as truth.
    with pytest.raises(ValueError, match="serve.monitor"):
        FleetConfig(serve=SERVE.with_overrides(monitor=MonitorConfig()))


def test_shard_config_stamps_identity():
    cfg = FleetConfig(n_shards=2, serve=SERVE)
    assert cfg.shard_config(1).shard == "1"
    assert cfg.shard_config(1).identity_labels() == {"shard": "1"}
    with pytest.raises(ValueError, match="shard must be in"):
        cfg.shard_config(2)


def test_serve_config_identity_roundtrip():
    cfg = SERVE.with_overrides(shard=0, instance="replica-a")
    assert cfg.shard == "0"  # normalized to str
    again = ServeConfig.from_params(cfg.to_params())
    assert again.shard == "0" and again.instance == "replica-a"
    assert again.identity_labels() == {"shard": "0", "instance": "replica-a"}


# --------------------------------------------------------------------- #
# FleetController: partition + conservation invariants.
# --------------------------------------------------------------------- #


def test_routes_exactly_partition_stream(stack):
    cfg = FleetConfig(n_shards=4, serve=SERVE)
    controller = FleetController(cfg, stack=stack)
    events = fleet_events(controller.pool)
    per_shard, routes, rerouted = controller.route(events)
    assert rerouted == 0  # no outages -> everyone at their hash home
    merged = sorted((t, task.task_id)
                    for shard in per_shard for t, task in shard)
    assert merged == sorted((t, task.task_id) for t, task in events)
    # Journeys are off: no routed-journey preamble is built.
    assert controller.last_route_journeys == [[], [], [], []]
    # Routing is a pure function of the stream: identical on re-route.
    per_shard2, routes2, _ = controller.route(events)
    assert routes2 == routes


def test_fleet_conserves_and_sums(stack):
    cfg = FleetConfig(n_shards=2, serve=SERVE)
    controller = FleetController(cfg, stack=stack)
    events = fleet_events(controller.pool)
    stats = controller.run(events)
    assert stats.conserved
    assert stats.arrived == len(events)
    for s in stats.per_shard:
        assert s.conserved
        assert s.matched == s.completed + s.failed + s.requeued
    assert stats.arrived == sum(s.arrived for s in stats.per_shard)
    assert stats.completed + stats.failed + stats.shed + stats.unserved \
        == stats.arrived
    # Equal-seed rerun: byte-identical fleet trace.
    again = FleetController(cfg, stack=stack).run(events)
    assert again.trace_bytes() == stats.trace_bytes()


def test_one_shard_fleet_equals_plain_dispatcher(stack):
    """The fleet layer at n=1 is the unsharded platform, byte for byte."""
    cfg = FleetConfig(n_shards=1, serve=SERVE)
    controller = FleetController(cfg, stack=stack)
    events = fleet_events(controller.pool)
    fleet_stats = controller.run(events)
    pool, clusters, method, spec, dcfg = stack
    plain = Dispatcher(clusters, method, spec, dcfg).run(
        events, rng=SERVE.seed + 4)
    assert fleet_stats.trace_bytes() == plain.trace_bytes()
    assert fleet_stats.windows == plain.windows


def test_family_partition_trains_per_shard():
    cfg = FleetConfig(n_shards=2, partition="family", pool_m=4,
                      serve=SERVE.with_overrides(train_epochs=4))
    controller = FleetController(cfg)
    assert len(controller.shard_clusters) == 2
    ids = sorted(c.cluster_id for s in controller.shard_clusters for c in s)
    assert ids == list(range(4))
    assert controller.shard_methods[0] is not controller.shard_methods[1]
    events = fleet_events(controller.pool, rate=20.0, horizon=3.0)
    stats = controller.run(events)
    assert stats.conserved
    with pytest.raises(ValueError, match="replicate"):
        FleetController(cfg, stack=build_stack(cfg.serve))


def test_outage_conservation_no_task_lost(stack):
    """A full-shard outage re-routes; no arrival is dropped or doubled."""
    cfg = FleetConfig(n_shards=2, serve=SERVE)
    controller = FleetController(cfg, stack=stack)
    events = fleet_events(controller.pool)
    # Every cluster down for a mid-run stretch: both shards (replicate
    # partition) are fully down in [2, 3) -> router falls back to home.
    outages = [Outage(c.cluster_id, 2.0, 3.0)
               for c in controller.shard_clusters[0]]
    per_shard, routes, rerouted = controller.route(events, outages)
    merged = sorted((t, task.task_id)
                    for shard in per_shard for t, task in shard)
    assert merged == sorted((t, task.task_id) for t, task in events)
    stats = controller.run(events, outages=outages)
    assert stats.conserved
    assert stats.arrived == len(events)


def test_partial_outage_reroutes_to_up_shard():
    """With family shards, a fully-down shard's tasks go elsewhere."""
    cfg = FleetConfig(n_shards=2, partition="family", pool_m=4,
                      serve=SERVE.with_overrides(train_epochs=4))
    controller = FleetController(cfg)
    events = fleet_events(controller.pool, rate=30.0, horizon=4.0)
    # Shard 0 fully down over [1, 3); shard 1 untouched.
    outages = [Outage(c.cluster_id, 1.0, 3.0)
               for c in controller.shard_clusters[0]]
    per_shard, routes, rerouted = controller.route(events, outages)
    assert rerouted > 0
    for t, task in per_shard[0]:
        assert not (1.0 <= t < 3.0), "task routed into a dead shard"
    merged = sorted((t, task.task_id)
                    for shard in per_shard for t, task in shard)
    assert merged == sorted((t, task.task_id) for t, task in events)


# --------------------------------------------------------------------- #
# Merged observability.
# --------------------------------------------------------------------- #


def test_shard_logs_merge_losslessly(stack, tmp_path):
    """Fleet totals from merged per-shard logs == sum of shard totals."""
    from repro.telemetry import aggregate_runs

    cfg = FleetConfig(n_shards=2, serve=SERVE)
    controller = FleetController(cfg, stack=stack)
    events = fleet_events(controller.pool)
    stats = controller.run(events, telemetry="jsonl", out_dir=tmp_path,
                           run_prefix="fleet-test")
    logs = sorted(glob.glob(str(tmp_path / "fleet-test-s*.jsonl")))
    assert len(logs) == 2
    agg = aggregate_runs(logs)
    for name, want in (("serve/arrived", stats.arrived),
                       ("serve/windows", stats.windows),
                       ("serve/completed", stats.completed)):
        got = sum(state["value"] for key, state in agg["counters"].items()
                  if key.split("{", 1)[0] == name)
        assert got == want, f"{name}: merged {got} != fleet {want}"
    # Shard labels survive the merge (lossless, per-shard drill-down).
    shards = {state.get("labels", {}).get("shard")
              for key, state in agg["counters"].items()
              if key.split("{", 1)[0] == "serve/arrived"}
    assert shards == {"0", "1"}


def test_merge_snapshots_and_render(stack, tmp_path):
    from repro.monitor import merge_snapshots, render_top, snapshot_from_logs

    cfg = FleetConfig(n_shards=2, serve=SERVE)
    controller = FleetController(cfg, stack=stack)
    events = fleet_events(controller.pool)
    stats = controller.run(events, telemetry="jsonl", out_dir=tmp_path,
                           run_prefix="fleet-snap")
    logs = sorted(glob.glob(str(tmp_path / "fleet-snap-s*.jsonl")))
    snaps = [snapshot_from_logs([p]) for p in logs]
    merged = merge_snapshots(snaps)
    assert merged["merged_from"] == 2
    arrived = sum(
        state["value"]
        for key, state in merged["aggregate"]["counters"].items()
        if key.split("{", 1)[0] == "serve/arrived")
    assert arrived == stats.arrived
    text = render_top(merged)
    assert "shards (2)" in text
    assert f"arrived {stats.arrived:>6.0f}" in text
    # Offline log merge renders the same totals in one step.
    text2 = render_top(snapshot_from_logs(logs))
    assert "shards (2)" in text2


def _ref_merge_profiles(profiles: "list[dict]") -> dict:
    """The per-shard budget fold the dashboard ran before the budget became
    gauges of the aggregate, kept as the reference the fleet frame's budget
    rows are held to: totals and calls sum, p95 takes the worst shard,
    coverage the weakest."""
    def fold(dicts):
        out = {"total_s": 0.0, "calls": 0, "p95": 0.0}
        for s in dicts:
            out["total_s"] += s.get("total_s", 0.0)
            out["calls"] += s.get("calls", 0)
            out["p95"] = max(out["p95"], s.get("p95", 0.0))
        return out

    merged = {
        "windows": sum(p.get("windows", 0) for p in profiles),
        "e2e": fold([p.get("e2e", {}) for p in profiles]),
        "unattributed": fold([p.get("unattributed", {}) for p in profiles]),
        "coverage_p95": min((p.get("coverage_p95", 0.0) for p in profiles),
                            default=0.0),
    }
    stage_keys = []
    for p in profiles:
        stage_keys += [k for k in p.get("stages", {}) if k not in stage_keys]
    merged["stages"] = {k: fold([p["stages"][k] for p in profiles
                                 if k in p.get("stages", {})])
                        for k in stage_keys}
    sim_keys = []
    for p in profiles:
        sim_keys += [k for k in p.get("sim_stages", {}) if k not in sim_keys]
    merged["sim_stages"] = {}
    for k in sim_keys:
        entries = [p["sim_stages"][k] for p in profiles
                   if k in p.get("sim_stages", {})]
        merged["sim_stages"][k] = {
            "p50": max(e.get("p50", 0.0) for e in entries),
            "p95": max(e.get("p95", 0.0) for e in entries),
            "calls": sum(e.get("calls", 0) for e in entries),
        }
    return merged


def _ref_budget_rows(profile: dict) -> "list[str]":
    """The dashboard's budget section as drawn from a merged profile."""
    from repro.monitor.live import _bar

    e2e = profile["e2e"]
    rows = [f"latency budget over {profile['windows']} windows "
            f"(e2e p95 {1e3 * e2e['p95']:.2f} ms, "
            f"coverage {100 * profile['coverage_p95']:.1f}%):"]
    total_s = e2e["total_s"] or 1.0
    stages = {k: s for k, s in profile["stages"].items() if ";" not in k}
    for path, s in [*stages.items(), ("(unattr)", profile["unattributed"])]:
        frac = s["total_s"] / total_s
        rows.append(f"  {path:<10} {_bar(frac)} {1e3 * s['p95']:>8.3f} ms p95"
                    f" ({100 * frac:5.1f}%)")
    if profile["sim_stages"]:
        rows.append("  simulated-time stages (platform hours):")
        for name, s in profile["sim_stages"].items():
            rows.append(f"    {name:<16} p50 {s['p50']:.3f}  "
                        f"p95 {s['p95']:.3f}  calls {s['calls']}")
    return rows


def test_fleet_budget_rows_equal_the_per_shard_fold(stack, tmp_path):
    from repro.monitor import render_top, snapshot_from_logs

    cfg = FleetConfig(n_shards=4, serve=SERVE.with_overrides(profile=True))
    controller = FleetController(cfg, stack=stack)
    controller.run(fleet_events(controller.pool), telemetry="jsonl",
                   out_dir=tmp_path, run_prefix="fleet-budget")
    logs = sorted(glob.glob(str(tmp_path / "fleet-budget-s*.jsonl")))
    assert len(logs) == 4
    sections = render_top(snapshot_from_logs(logs)).split("\n\n")
    budget = next(s for s in sections if s.startswith("latency budget"))
    want = _ref_budget_rows(_ref_merge_profiles(
        [prof.budget() for prof in controller.last_profilers]))
    assert budget.splitlines() == want


def test_fleet_flamegraph_prefixes_shards(stack, tmp_path):
    cfg = FleetConfig(n_shards=2, serve=SERVE.with_overrides(profile=True))
    controller = FleetController(cfg, stack=stack)
    events = fleet_events(controller.pool, rate=20.0, horizon=2.0)
    controller.run(events)
    out = controller.write_flamegraph(tmp_path / "fleet_flame.txt")
    lines = out.read_text().splitlines()
    roots = {ln.split(";", 1)[0] for ln in lines}
    assert roots == {"shard0", "shard1"}
    assert all(ln.rsplit(" ", 1)[1].isdigit() for ln in lines)


# --------------------------------------------------------------------- #
# Fleet replay.
# --------------------------------------------------------------------- #


def test_fleet_replay_verifies(stack, tmp_path):
    cfg = FleetConfig(n_shards=2, serve=SERVE)
    controller = FleetController(cfg, stack=stack)
    events = fleet_events(controller.pool)
    outages = [Outage(0, 1.0, 2.0)]
    stats = controller.run(events, outages=outages, telemetry="jsonl",
                           out_dir=tmp_path, run_prefix="fleet-replay")
    logs = sorted(glob.glob(str(tmp_path / "fleet-replay-s*.jsonl")))
    replay = TraceReplay.from_logs(logs)
    assert replay.fleet == cfg
    assert replay.arrivals == sorted(
        (t, task.task_id) for t, task in events)
    assert replay.outages == outages
    re_stats = replay.replay(stack=stack)
    assert replay.verify(re_stats) == []
    assert re_stats.trace_sha256() == stats.trace_sha256()


def test_fleet_replay_rejects_mixed_logs(stack, tmp_path):
    cfg = FleetConfig(n_shards=2, serve=SERVE)
    controller = FleetController(cfg, stack=stack)
    events = fleet_events(controller.pool, rate=20.0, horizon=2.0)
    controller.run(events, telemetry="jsonl", out_dir=tmp_path / "a",
                   run_prefix="run")
    other = FleetConfig(n_shards=2, routing="load", serve=SERVE)
    FleetController(other, stack=stack).run(
        events, telemetry="jsonl", out_dir=tmp_path / "b", run_prefix="run")
    with pytest.raises(ValueError, match="fleet params differ"):
        TraceReplay.from_logs([tmp_path / "a" / "run-s0.jsonl",
                               tmp_path / "b" / "run-s1.jsonl"])
    three = FleetConfig(n_shards=3, serve=SERVE)
    FleetController(three, stack=stack).run(
        events, telemetry="jsonl", out_dir=tmp_path / "c", run_prefix="run")
    with pytest.raises(ValueError, match="needs logs for shards"):
        TraceReplay.from_logs([tmp_path / "c" / "run-s0.jsonl",
                               tmp_path / "c" / "run-s2.jsonl"])


def test_empty_shard_log_loads_for_fleet_replay_only(stack, tmp_path):
    """One parser, two policies: a shard that routed nothing is a valid
    slice of a fleet run, but not a serving run to replay on its own."""
    cfg = FleetConfig(n_shards=2, serve=SERVE)
    controller = FleetController(cfg, stack=stack)
    task = controller.pool.tasks[0]  # one task id hashes to one shard
    events = [(0.1 * (i + 1), task) for i in range(12)]
    stats = controller.run(events, telemetry="jsonl", out_dir=tmp_path,
                           run_prefix="lopsided")
    logs = sorted(glob.glob(str(tmp_path / "lopsided-s*.jsonl")))
    (empty,) = [sid for sid, s in enumerate(stats.per_shard) if not s.arrived]
    replay = TraceReplay.from_logs(logs)
    assert replay.shards[empty].arrivals == []
    assert replay.verify(replay.replay(stack=stack)) == []
    with pytest.raises(ValueError, match="nothing to replay"):
        TraceReplay.from_logs([logs[empty]])


def test_changed_checkpoint_fails_both_replays_alike(stack, tmp_path):
    cfg = FleetConfig(n_shards=2, serve=SERVE)
    controller = FleetController(cfg, stack=stack)
    registry = ModelRegistry(tmp_path / "registry")
    version = registry.save(stack[2], tag="deploy").version
    controller.run(fleet_events(controller.pool), registry=registry,
                   swap_schedule={1: version}, telemetry="jsonl",
                   out_dir=tmp_path, run_prefix="swapped")
    logs = sorted(glob.glob(str(tmp_path / "swapped-s*.jsonl")))
    # Same version name, different weights: retrained since the run.
    imposter = ModelRegistry(tmp_path / "imposter")
    imposter.save(build_stack(SERVE.with_overrides(seed=7, train_epochs=1))[2])
    messages = []
    for replay in (TraceReplay.from_logs(logs), TraceReplay.from_logs(logs[:1])):
        with pytest.raises(ValueError, match="digest") as exc:
            replay.replay(stack=stack,
                          registry_root=str(tmp_path / "imposter"))
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


#: ``serve run --shards 2`` flags of the CLI fleet runs below, minus routing.
CLI_FLEET = ["serve", "run", "--shards", "2", "--pool-size", "16",
             "--rate", "25", "--horizon", "1.5", "--train-epochs", "4"]


@pytest.fixture(scope="module")
def cli_fleet_logs(tmp_path_factory):
    """Per-shard logs of two small 2-shard fleet runs ('repro serve run
    --shards 2') that differ only in their routing policy."""
    root = tmp_path_factory.mktemp("cli-fleet")
    logs = {}
    for routing in ("hash", "load"):
        assert main([*CLI_FLEET, "--routing", routing, "--telemetry", "jsonl",
                     "--out-dir", str(root / routing)]) == 0
        logs[routing] = sorted(glob.glob(str(root / routing / "fleet-run-s*.jsonl")))
    return logs


def test_cli_replays_a_fleet_from_its_shard_logs(cli_fleet_logs, capsys):
    capsys.readouterr()
    argv = ["replay"] + [a for log in cli_fleet_logs["hash"] for a in ("--log", log)]
    assert main(argv) == 0
    assert "verified" in capsys.readouterr().out


def test_cli_fleet_logs_replay_to_a_direct_fleet_run(cli_fleet_logs):
    """``serve run --shards 2`` is ``FleetController.run`` of the config its
    flags build: the logs replay verified, to the direct run's fleet SHA."""
    replay = TraceReplay.from_logs(cli_fleet_logs["hash"])
    replayed = replay.replay()
    assert replay.verify(replayed) == []
    config = FleetConfig(n_shards=2,
                         serve=ServeConfig(pool_size=16, train_epochs=4))
    assert replay.fleet == config
    controller = FleetController(config)
    events = make_load("poisson", controller.pool, 25.0).draw(
        1.5, as_generator(config.serve.seed + 3))
    direct = controller.run(events)
    assert replayed.trace_sha256() == direct.trace_sha256()


def test_cli_fleet_subcommand_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fleet", "run"])
    assert exc.value.code == 2
    assert "invalid choice: 'fleet'" in capsys.readouterr().err


@pytest.mark.parametrize("flag, reason", [
    (["--monitor"], "serve.monitor must be None"),
    (["--alerts-out", "alerts.jsonl"], "serve.monitor must be None"),
    (["--retrain", "--registry", "registry"], "serve.retrain must be None"),
    (["--metrics-port", "0"], "--metrics-port serves one dispatcher"),
    (["--shard", "3"], "serve.shard must be unset"),
])
def test_cli_fleet_refuses_single_dispatcher_options(flag, reason, tmp_path,
                                                     monkeypatch, capsys):
    """Options that observe one dispatcher exit 2 with ``--shards 2``,
    before any predictor trains and without writing a file."""
    def no_training(config):
        raise AssertionError("build_stack ran")

    monkeypatch.setattr("repro.serve.config.build_stack", no_training)
    monkeypatch.setattr("repro.fleet.controller.build_stack", no_training)
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main([*CLI_FLEET, *flag, "--telemetry", "jsonl"]) == 2
    assert reason in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_refuses_logs_of_two_fleets(cli_fleet_logs, capsys):
    capsys.readouterr()
    assert main(["replay", "--log", cli_fleet_logs["hash"][0],
                 "--log", cli_fleet_logs["load"][1]]) == 2
    assert capsys.readouterr().err.startswith("cannot replay")


@pytest.mark.parametrize("flag", [["--monitor"], ["--alerts-out", "alerts.jsonl"]])
def test_cli_fleet_replay_takes_no_monitor(cli_fleet_logs, capsys, flag,
                                           tmp_path, monkeypatch):
    """A monitor observes one dispatcher: with several logs it is refused."""
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    argv = ["replay", *flag] + [a for log in cli_fleet_logs["hash"]
                                for a in ("--log", log)]
    assert main(argv) == 2
    assert "one dispatcher" in capsys.readouterr().err
    assert not (tmp_path / "alerts.jsonl").exists()


# --------------------------------------------------------------------- #
# Fleet-wide retraining: same-epoch hot-swap + global rollback.
# --------------------------------------------------------------------- #


def _corrupted_version(frc):
    """Register a noise-corrupted copy of the live pairs (canary bypass)."""
    pairs = copy.deepcopy(_pairs_of(frc._base_method))
    rng = np.random.default_rng(0)
    for p in pairs:
        for weight in p.time.params[::2]:
            weight += rng.normal(0.0, 5.0, weight.shape)
    return frc.registry.save(pairs, tag="corrupted",
                             parent=frc.registry.live())


def test_fleet_swap_same_epoch_same_digest(stack, tmp_path):
    cfg = FleetConfig(n_shards=2, serve=SERVE)
    frc = FleetRetrainController(cfg, RetrainConfig(trigger="manual"),
                                 registry_root=tmp_path / "registry")
    frc.fleet = FleetController(cfg, stack=stack)  # reuse trained stack
    frc._base_method = frc.fleet.shard_methods[0]
    events = fleet_events(frc.fleet.pool)
    info = frc.registry.save(_pairs_of(frc._base_method),
                             tag="candidate", parent=frc.registry.live())
    stats = frc.fleet.run(events, registry=frc.registry,
                          swap_schedule={3: info.version})
    swaps = stats.fleet_swaps()  # raises on any cross-shard divergence
    assert len(swaps) == 1
    assert swaps[0]["window"] == 3
    assert swaps[0]["version"] == info.version
    assert swaps[0]["digest"] == info.digest
    for shard_stats in stats.per_shard:
        assert shard_stats.swaps == 1
        assert shard_stats.swap_events[0]["digest"] == info.digest


def test_fleet_guard_rolls_back_all_shards(stack, tmp_path):
    """One degraded shard rolls the whole fleet back at one epoch."""
    cfg = FleetConfig(n_shards=2, serve=SERVE)
    retrain = RetrainConfig(trigger="manual", guard_windows=3)
    frc = FleetRetrainController(cfg, retrain,
                                 registry_root=tmp_path / "registry")
    frc.fleet = FleetController(cfg, stack=stack)
    frc._base_method = frc.fleet.shard_methods[0]
    events = fleet_events(frc.fleet.pool)
    bad = _corrupted_version(frc)
    final, guards, rolled_back, rollback_version = frc.swap_and_guard(
        events, bad.version, 4)
    assert any(g["degraded"] for g in guards)
    assert rolled_back
    assert rollback_version == "v0001"  # the bootstrap checkpoint
    swaps = final.fleet_swaps()
    assert [s["version"] for s in swaps] == [bad.version, "v0001"]
    assert swaps[0]["window"] == 4
    assert swaps[1]["window"] == 4 + retrain.guard_windows
    assert final.conserved


def test_fleet_retrain_cycle_runs(stack, tmp_path):
    """The full observe -> refit -> panel cycle reaches a verdict and,
    on promotion, lands the swap on every shard at one epoch."""
    cfg = FleetConfig(n_shards=2, serve=SERVE)
    frc = FleetRetrainController(
        cfg, RetrainConfig(trigger="manual", min_labels=16, sample_size=64,
                           epochs=8, canary_min_holdout=4, canary_windows=4,
                           guard_windows=3, min_cluster_labels=4),
        registry_root=tmp_path / "registry")
    frc.fleet = FleetController(cfg, stack=stack)
    frc._base_method = frc.fleet.shard_methods[0]
    outcome = frc.run(fleet_events(frc.fleet.pool))
    assert outcome.verdict in ("promoted", "rejected")
    assert outcome.observe.conserved
    assert outcome.refit is not None and outcome.refit["steps"] > 0
    assert [v["shard"] for v in outcome.canary] == [0, 1]
    if outcome.verdict == "promoted":
        assert outcome.digest is not None
        swaps = outcome.final.fleet_swaps()
        assert swaps[0]["version"] == outcome.version
        assert swaps[0]["digest"] == outcome.digest
    else:
        assert outcome.version in frc.registry
        assert frc.registry.live() == "v0001"  # live pointer never moved


def test_fleet_retrain_requires_replicate():
    with pytest.raises(ValueError, match="replicate"):
        FleetRetrainController(
            FleetConfig(partition="family", n_shards=2, pool_m=4,
                        serve=SERVE),
            registry_root="unused")
