"""Command-line interface: ``python -m repro <command>`` (``--help`` on
any command lists its flags).

A flag that sets a config field is declared by that field: its default,
type and allowed values come from :class:`~repro.serve.ServeConfig`,
:class:`~repro.fleet.FleetConfig` or :class:`~repro.retrain.RetrainConfig`
through :func:`_config_flag`; the parser holds only the flag's name and
help.  Exit codes: 0 on success; 1 when a replay fails verification, a
``trace show`` matches nothing or ``demo`` runs outside a source
checkout; 2 for flags or logs that are refused before anything runs.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from dataclasses import fields

from repro.utils.validation import FIELD_TYPES

__all__ = ["main", "build_parser"]

#: ``repro experiments`` artifact -> the module under ``repro.experiments``
#: whose ``main`` regenerates it.
_ARTIFACTS = {"fig2": "fig2", "table1": "table1", "fig4": "fig4", "fig5": "fig5",
              "table2": "table2", "dfl": "dfl_landscape"}


def _config_flag(parser: argparse.ArgumentParser, flag: str, cls: type,
                 **kw) -> None:
    """Add ``flag`` setting the field ``cls.<dest>`` (``dest`` defaults to
    the flag's name): the field gives the default, the type and the
    allowed values, and a bool field is a ``store_true`` switch."""
    dest = kw.setdefault("dest", flag[2:].replace("-", "_"))
    f = next(f for f in fields(cls) if f.name == dest)
    kw.setdefault("default", f.default)
    if f.type == "bool":
        parser.add_argument(flag, action="store_true", **kw)
        return
    kw.setdefault("type", FIELD_TYPES.get(f.type))
    kw.setdefault("choices", f.metadata.get("choices"))
    parser.add_argument(flag, **kw)


def build_parser() -> argparse.ArgumentParser:
    from repro.clusters import SETTINGS
    from repro.experiments.config import PROFILES
    from repro.fleet import FleetConfig
    from repro.retrain import RetrainConfig
    from repro.retrain.loop import TRIGGERS
    from repro.serve import ServeConfig
    from repro.serve.loadgen import LOAD_PATTERNS
    from repro.telemetry import MODES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="MFCP reproduction: joint prediction and matching for "
                    "computing resource exchange platforms (ICPP'25).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiments", help="regenerate a paper artifact")
    p_exp.add_argument("artifact", choices=_ARTIFACTS)
    p_exp.add_argument("--profile", choices=PROFILES, default=None,
                       help="override REPRO_PROFILE")
    p_exp.add_argument("--telemetry", choices=MODES, default=None,
                       help="override REPRO_TELEMETRY (jsonl writes one run "
                            "log per experiment under results/telemetry/)")
    p_exp.add_argument("--seeds", default=None, metavar="S0,S1,...",
                       help="override the config's seed list "
                            "(comma-separated ints; sets REPRO_SEEDS)")

    sub.add_parser("clusters", help="print the cluster archetype catalog")

    p_pool = sub.add_parser("pool", help="sample a task pool and summarize it")
    p_pool.add_argument("--size", type=int, default=20)
    p_pool.add_argument("--seed", type=int, default=0)

    p_trace = sub.add_parser(
        "trace", help="measurement-trace export and task journey queries")
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_texport = trace_sub.add_parser(
        "export", help="export a measurement trace (JSON)")
    p_texport.add_argument("output", help="path of the trace file to write")
    p_texport.add_argument("--setting", choices=SETTINGS, default="A")
    p_texport.add_argument("--tasks", type=int, default=24)
    p_texport.add_argument("--seed", type=int, default=0)
    trace_logs = argparse.ArgumentParser(add_help=False)
    trace_logs.add_argument("--log", required=True, action="append",
                            metavar="PATH",
                            help="JSONL run log with journeys (repeat per "
                                 "shard for the stitched fleet view)")
    p_tshow = trace_sub.add_parser(
        "show", parents=[trace_logs],
        help="waterfall of one task's journey across the fleet")
    p_tshow.add_argument("task", metavar="TASK",
                         help="task id or prefix of a 16-hex trace id "
                              "(every journey either matches)")
    p_ttop = trace_sub.add_parser(
        "top", parents=[trace_logs],
        help="slowest journeys by queue wait")
    p_ttop.add_argument("--slowest", type=int, default=10, metavar="K",
                        help="how many journeys to list")
    p_tgrep = trace_sub.add_parser(
        "grep", parents=[trace_logs],
        help="journeys passing through a state (or a failover route)")
    p_tgrep.add_argument("--state", required=True,
                         help="journey state (shed, requeued, unserved, "
                              "harvested, ...) or 'failover' for tasks "
                              "routed off their home shard")

    sub.add_parser("demo", help="run the quickstart comparison")

    p_serve = sub.add_parser("serve", help="online serving layer")
    serve_sub = p_serve.add_subparsers(dest="serve_command", required=True)
    p_run = serve_sub.add_parser(
        "run", help="run the dispatcher, or a fleet of N, once and summarize")
    _config_flag(p_run, "--setting", ServeConfig)
    p_run.add_argument("--pattern", choices=LOAD_PATTERNS, default="poisson")
    p_run.add_argument("--rate", type=float, default=60.0,
                       help="mean arrivals per hour")
    p_run.add_argument("--horizon", type=float, default=12.0,
                       help="arrival horizon in hours")
    _config_flag(p_run, "--pool-size", ServeConfig)
    _config_flag(p_run, "--max-batch", ServeConfig)
    _config_flag(p_run, "--max-wait", ServeConfig, dest="max_wait_hours",
                 metavar="MAX_WAIT",
                 help="time trigger: oldest job's max wait (hours)")
    _config_flag(p_run, "--queue-capacity", ServeConfig)
    _config_flag(p_run, "--seed", ServeConfig)
    # CLI-only default: one dispatcher unless asked (FleetConfig's default
    # describes a fleet).
    _config_flag(p_run, "--shards", FleetConfig, dest="n_shards", default=1,
                 metavar="N",
                 help="route the stream across N dispatcher shards "
                      "(N > 1 runs a fleet and logs fleet-run-s<k>.jsonl; "
                      "--monitor, --alerts-out, --retrain, "
                      "--metrics-port and --shard observe one "
                      "dispatcher and are refused)")
    _config_flag(p_run, "--routing", FleetConfig,
                 help="fleet routing: consistent-hash or load-aware")
    _config_flag(p_run, "--partition", FleetConfig,
                 help="fleet partition: replicate the setting's "
                      "cluster pool per shard, or family-shard a "
                      "specialist pool")
    _config_flag(p_run, "--pool-m", FleetConfig,
                 help="specialist pool size for --partition family")
    p_run.add_argument("--out-dir", default=None, metavar="DIR",
                       help="directory of the JSONL run log(s) "
                            "(default results/telemetry)")
    _config_flag(p_run, "--shed-policy", ServeConfig)
    _config_flag(p_run, "--warm-start", ServeConfig,
                 help="window seed source: last-window cache, or cold")
    _config_flag(p_run, "--solve-mode", ServeConfig,
                 help="dense per-window solve, or block-decomposed "
                      "batched solve for large windows")
    _config_flag(p_run, "--train-epochs", ServeConfig,
                 help="TSM predictor training epochs")
    p_run.add_argument("--monitor", action="store_true",
                       help="attach the online quality monitor "
                            "(drift + SLO + regret attribution)")
    p_run.add_argument("--alerts-out", default=None, metavar="PATH",
                       help="tail monitor alerts to this JSONL file as they "
                            "fire (implies --monitor)")
    p_run.add_argument("--retrain", action="store_true",
                       help="attach the closed-loop retraining controller "
                            "(label harvest, canary-gated refits, hot-swap)")
    _config_flag(p_run, "--retrain-mode", RetrainConfig, dest="mode",
                 help="warm-started or from-scratch candidate refits")
    # "manual" never self-triggers: it is the API-only setting of a
    # FleetRetrainController, which starts its refits centrally.
    _config_flag(p_run, "--retrain-trigger", RetrainConfig, dest="trigger",
                 choices=tuple(t for t in TRIGGERS if t != "manual"),
                 help="what arms a refit (drift wires the monitor's "
                      "retrain_suggested alerts to the controller)")
    _config_flag(p_run, "--retrain-period", RetrainConfig,
                 dest="period_windows", metavar="N",
                 help="periodic trigger cadence in dispatch windows "
                      "(required for --retrain-trigger periodic/both)")
    _config_flag(p_run, "--registry", ServeConfig, dest="registry_root",
                 metavar="DIR",
                 help="checkpoint registry directory (required with "
                      "--retrain; use a fresh directory for replayable "
                      "runs)")
    p_run.add_argument("--telemetry", choices=MODES, default="summary",
                       help="jsonl writes one replayable log per dispatcher")
    _config_flag(p_run, "--profile", ServeConfig,
                 help="attach the stage profiler and print the "
                      "per-window latency budget")
    p_run.add_argument("--flamegraph", default=None, metavar="PATH",
                       help="write the collapsed-stack profile here, one "
                            "shardK root per fleet shard (speedscope / "
                            "flamegraph.pl; implies --profile)")
    p_run.add_argument("--metrics-port", type=int, default=None, metavar="N",
                       help="serve live /metrics + /snapshot HTTP endpoints "
                            "on this port during the run (0 = ephemeral)")
    p_run.add_argument("--metrics-hold", type=float, default=0.0,
                       metavar="SECS",
                       help="keep the metrics endpoint up this long after "
                            "the run drains (for a final scrape / top)")
    _config_flag(p_run, "--shard", ServeConfig, metavar="ID",
                 help="label every recorded series with shard=ID "
                      "(hand-run shards merge losslessly via "
                      "'repro monitor --log a --log b')")
    _config_flag(p_run, "--instance", ServeConfig, metavar="NAME",
                 help="label every recorded series with instance=NAME "
                      "(distinguishes replicas of one shard)")
    _config_flag(p_run, "--journeys", ServeConfig, dest="journey_sample",
                 metavar="FRACTION",
                 help="per-task journey tracing: keep this fraction of "
                      "uneventful journeys (shed/requeued/long-wait "
                      "tasks are always kept; a fleet's open with their "
                      "routing decision; query with 'repro trace "
                      "show/top/grep')")

    p_top = serve_sub.add_parser(
        "top", help="terminal dashboard against one or more /snapshot "
                    "endpoints (several = merged fleet view)")
    p_top.add_argument("urls", metavar="URL", nargs="*",
                       help="metrics endpoint(s) (host:port or "
                            "http://host:port) of 'serve run --metrics-port' "
                            "processes; several merge into one fleet view")
    p_top.add_argument("--log", action="append", default=None, metavar="PATH",
                       help="render from JSONL run log(s) instead of live "
                            "endpoints (repeat per shard; implies --once)")
    p_top.add_argument("--interval", type=float, default=2.0,
                       help="refresh period in seconds")
    p_top.add_argument("--once", action="store_true",
                       help="render a single frame and exit (scriptable)")

    p_mon = sub.add_parser("monitor",
                           help="monitoring snapshot from JSONL run log(s)")
    p_mon.add_argument("--log", required=True, action="append", metavar="PATH",
                       help="telemetry run log (results/telemetry/*.jsonl); "
                            "repeat to merge shard-labeled runs into one "
                            "fleet-level exposition")
    p_mon.add_argument("--prometheus", default=None, metavar="PATH",
                       help="write the Prometheus text exposition here "
                            "(default: print to stdout)")

    p_replay = sub.add_parser(
        "replay", help="re-drive a serving run, or a whole fleet run, from "
                       "its JSONL log(s)")
    p_replay.add_argument("--log", required=True, action="append",
                          metavar="PATH",
                          help="run log written by 'repro serve run "
                               "--telemetry jsonl' (repeat once per shard "
                               "to replay a fleet run)")
    p_replay.add_argument("--registry", default=None, metavar="DIR",
                          help="original checkpoint registry (required when "
                               "the log(s) contain schedule-driven hot-swaps)")
    p_replay.add_argument("--monitor", action="store_true",
                          help="attach the quality monitor during the replay "
                               "(one log only)")
    p_replay.add_argument("--alerts-out", default=None, metavar="PATH",
                          help="write the replay monitor's alert log (JSONL)")
    p_replay.add_argument("--telemetry", choices=MODES, default="off",
                          help="record the replay itself (run 'serve-replay')")

    p_retrain = sub.add_parser(
        "retrain",
        help="offline closed-loop retraining over a logged serving run")
    p_retrain.add_argument("--log", required=True, metavar="PATH",
                           help="run log written by "
                                "'repro serve run --telemetry jsonl'")
    p_retrain.add_argument("--registry", required=True, metavar="DIR",
                           help="checkpoint registry directory to populate "
                                "(should be empty)")
    _config_flag(p_retrain, "--mode", RetrainConfig)
    # CLI-only default: an offline re-drive refits on a schedule, so it
    # needs a cadence (the field's 0 means never).
    _config_flag(p_retrain, "--period", RetrainConfig, dest="period_windows",
                 default=8, metavar="N",
                 help="periodic refit cadence in dispatch windows")
    _config_flag(p_retrain, "--epochs", RetrainConfig,
                 help="refit epochs over the sampled labels")
    return parser


def _cmd_experiments(args: argparse.Namespace) -> int:
    if args.profile:
        os.environ["REPRO_PROFILE"] = args.profile
    if args.telemetry:
        os.environ["REPRO_TELEMETRY"] = args.telemetry
    if args.seeds:
        from repro.experiments.config import parse_seeds

        try:
            parse_seeds(args.seeds)
        except ValueError as exc:
            print(f"invalid --seeds value: {exc}", file=sys.stderr)
            return 2
        os.environ["REPRO_SEEDS"] = args.seeds
    importlib.import_module(f"repro.experiments.{_ARTIFACTS[args.artifact]}").main()
    return 0


def _cmd_clusters(args: argparse.Namespace) -> int:
    from repro.clusters import ARCHETYPES, SETTINGS
    from repro.utils.tables import Table

    table = Table(
        ["Archetype", "Peak TFLOPs", "Mem (GB)", "Shape", "Base rel.", "Hazard/h"],
        title="Cluster archetype catalog",
    )
    for name, (hw, shape, util, strength) in ARCHETYPES.items():
        table.add_row([
            name, f"{hw.peak_tflops:g}", f"{hw.memory_gb:g}", shape.value,
            f"{hw.base_reliability:.3f}", f"{hw.hazard_per_hour:g}",
        ])
    print(table.render())
    print("\nSettings:")
    for s, triple in SETTINGS.items():
        print(f"  {s}: {', '.join(triple)}")
    return 0


def _cmd_pool(args: argparse.Namespace) -> int:
    from repro.utils.tables import Table
    from repro.workloads import TaskPool

    pool = TaskPool(args.size, rng=args.seed)
    table = Table(["Task", "Family", "Depth", "Width", "Batch", "Epoch FLOPs", "Mem GB"],
                  title=f"Task pool (size={args.size}, seed={args.seed})")
    for task in list(pool)[: min(args.size, 20)]:
        s = task.spec
        table.add_row([task.task_id, s.family.value, s.depth, s.width, s.batch_size,
                       f"{s.epoch_flops:.2e}", f"{s.memory_gb:.2f}"])
    print(table.render())
    if args.size > 20:
        print(f"... ({args.size - 20} more)")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.trace_command == "export":
        from repro.clusters import make_setting
        from repro.workloads import TaskPool, export_trace

        pool = TaskPool(args.tasks, rng=args.seed)
        clusters = make_setting(args.setting)
        trace = export_trace(clusters, pool.tasks, args.output, rng=args.seed)
        print(f"wrote {args.output}: {trace.n_tasks} tasks x "
              f"{trace.n_clusters} clusters")
        return 0
    from repro.telemetry.journey import stitch_journeys
    from repro.telemetry.jsonl import load_run

    journeys = stitch_journeys(load_run(path) for path in args.log)
    if not journeys:
        print("no journeys in the given log(s) — was the run started with "
              "--journeys (journey_sample > 0)?", file=sys.stderr)
        return 2
    if args.trace_command == "show":
        return _trace_show(args.task, journeys)
    if args.trace_command == "top":
        return _trace_top(args.slowest, journeys)
    return _trace_grep(args.state, journeys)


def _journey_wait(events: "list[dict]") -> float:
    return max((e.get("wait_hours", 0.0) for e in events
                if e["state"] == "dispatched"), default=0.0)


def _journey_line(trace: str, events: "list[dict]") -> str:
    first, last = events[0], events[-1]
    shards = sorted({str(e["shard"]) for e in events
                     if e.get("shard") is not None})
    states = "->".join(e["state"] for e in events)
    return (f"{trace}  task {first['task_id']:>5}  "
            f"arrival {first['arrival']:>8.3f}h  "
            f"wait {_journey_wait(events):6.3f}h  "
            f"shard {','.join(shards) or '-':<4} {last['state']:<9} {states}")


def _trace_show(needle: str, journeys: "dict[str, list[dict]]") -> int:
    from repro.telemetry.journey import render_waterfall

    tid = int(needle) if needle.isdigit() else None
    matches = {t: evs for t, evs in journeys.items()
               if t.startswith(needle.lower())
               or any(e["task_id"] == tid for e in evs)}
    if not matches:
        print(f"no journey matches {needle!r}", file=sys.stderr)
        return 1
    for i, trace in enumerate(sorted(matches)):
        if i:
            print()
        print(render_waterfall(trace, matches[trace]))
    return 0


def _trace_top(k: int, journeys: "dict[str, list[dict]]") -> int:
    ranked = sorted(journeys.items(),
                    key=lambda kv: (-_journey_wait(kv[1]), kv[0]))
    print(f"slowest {min(k, len(ranked))} of {len(ranked)} journeys "
          "by queue wait:")
    for trace, events in ranked[:k]:
        print(f"  {_journey_line(trace, events)}")
    return 0


def _trace_grep(state: str, journeys: "dict[str, list[dict]]") -> int:
    from repro.telemetry.journey import STATES

    if state == "failover":
        hits = {t: evs for t, evs in journeys.items()
                if any(e["state"] == "routed"
                       and e.get("reason") == "failover" for e in evs)}
    elif state in STATES:
        hits = {t: evs for t, evs in journeys.items()
                if any(e["state"] == state for e in evs)}
    else:
        print(f"unknown state {state!r}; one of "
              f"{', '.join(sorted(STATES))} or failover", file=sys.stderr)
        return 2
    print(f"{len(hits)} of {len(journeys)} journeys hit '{state}':")
    for trace in sorted(hits):
        print(f"  {_journey_line(trace, hits[trace])}")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    import importlib.util
    import pathlib

    script = pathlib.Path(__file__).resolve().parents[2] / "examples" / "quickstart.py"
    if script.exists():  # running from a source checkout
        spec = importlib.util.spec_from_file_location("quickstart", script)
        module = importlib.util.module_from_spec(spec)  # type: ignore[arg-type]
        spec.loader.exec_module(module)  # type: ignore[union-attr]
        module.main()
        return 0
    print("demo requires a source checkout with examples/quickstart.py", file=sys.stderr)
    return 1


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.serve_command == "top":
        from repro.monitor import render_top, snapshot_from_logs, top

        if args.log:
            if args.urls:
                print("serve top: give URLs or --log, not both",
                      file=sys.stderr)
                return 2
            print(render_top(snapshot_from_logs(args.log)))
            return 0
        if not args.urls:
            print("serve top: need at least one URL (or --log PATH)",
                  file=sys.stderr)
            return 2
        return top(args.urls, interval=args.interval,
                   iterations=1 if args.once else None)

    # serve run
    from repro.serve import ServeConfig, build_platform
    from repro.telemetry import recording
    from repro.utils.rng import as_generator

    monitor_cfg = retrain_cfg = None
    if args.monitor or args.alerts_out:
        from repro.monitor import MonitorConfig

        monitor_cfg = MonitorConfig()
    if args.retrain:
        from repro.retrain import RetrainConfig

        if args.registry_root is None:
            print("--retrain requires --registry DIR", file=sys.stderr)
            return 2
        try:
            retrain_cfg = RetrainConfig(
                trigger=args.trigger,
                period_windows=args.period_windows,
                mode=args.mode,
                seed=args.seed,
            )
        except ValueError as exc:
            print(f"invalid retrain flags: {exc}", file=sys.stderr)
            return 2
    config = ServeConfig(
        setting=args.setting,
        pool_size=args.pool_size,
        seed=args.seed,
        train_epochs=args.train_epochs,
        max_batch=args.max_batch,
        max_wait_hours=args.max_wait_hours,
        queue_capacity=args.queue_capacity,
        shed_policy=args.shed_policy,
        warm_start=args.warm_start,
        solve_mode=args.solve_mode,
        profile=args.profile or args.flamegraph is not None,
        monitor=monitor_cfg,
        retrain=retrain_cfg,
        registry_root=args.registry_root if args.retrain else None,
        shard=args.shard,
        instance=args.instance,
        journey_sample=args.journey_sample,
    )
    if args.n_shards != 1:
        return _run_fleet(args, config)
    # Shard-qualified run name: fleet members each get their own JSONL
    # log, merged later with 'repro monitor --log a --log b'.
    run_name = "serve-run" if args.shard is None else f"serve-run-{args.shard}"
    server = None
    if args.metrics_port is not None:
        from repro.monitor import MetricsServer, serve_snapshot

        try:  # bind before training: a busy port fails in a second, not minutes
            server = MetricsServer(
                lambda: serve_snapshot(
                    rec,
                    profiler=platform.profiler,
                    monitor=platform.monitor,
                    journeys=platform.dispatcher.journeys,
                    extra={"run": run_name},
                ),
                port=args.metrics_port,
            )
        except (OSError, OverflowError) as exc:  # taken, privileged, > 65535
            print(f"serve run: cannot serve metrics on port "
                  f"{args.metrics_port}: {getattr(exc, 'strerror', None) or exc}",
                  file=sys.stderr)
            return 2
    try:
        print(f"training TSM predictors ({args.train_epochs} epochs) ...")
        platform = build_platform(config)
        if platform.registry is not None and len(platform.registry) > 1:
            print(f"note: registry {args.registry_root} was not empty; version numbers "
                  "continue the existing sequence (replay assumes a fresh registry)")
        if args.alerts_out and platform.monitor is not None:
            from repro.monitor import FileTailSink

            platform.monitor.add_sink(FileTailSink(args.alerts_out))
        events = platform.load(args.pattern, args.rate).draw(
            args.horizon, as_generator(args.seed + 3)
        )
        # The meta["serve"] config plus the serve/arrival, serve/outage and
        # serve/hot_swap breadcrumbs make a jsonl log fully replayable
        # (``repro replay``), retrain-driven swaps included.
        labels = config.identity_labels() or None
        with recording(mode=args.telemetry, run=run_name,
                       out_dir=args.out_dir,
                       meta={"serve": config.to_params()},
                       labels=labels) as rec:
            if server is not None:
                server.start()
                print(f"metrics: {server.url}/metrics  "
                      f"(dashboard: repro serve top {server.url})")
            stats = platform.run(events)
            if server is not None and args.metrics_hold > 0:
                import time as _time

                print(f"holding metrics endpoint {args.metrics_hold:g}s ...")
                _time.sleep(args.metrics_hold)
    finally:
        if server is not None:
            server.stop()
    print(f"{len(events)} arrivals over {args.horizon:g}h ({args.pattern})")
    print(stats.summary())
    if stats.solver_iterations:
        print(f"mean solver iterations/window: {stats.mean_solver_iterations:.1f}")
    if stats.cache:
        print(f"warm-start cache: {stats.cache}")
    if stats.truth:
        print(f"ground-truth table: {stats.truth}")
    if stats.seed_sources:
        print(f"seed sources: {stats.seed_sources}")
    if stats.profile:
        budget = stats.profile
        print(f"latency budget ({budget['windows']} windows, coverage_p95 "
              f"{100 * budget['coverage_p95']:.1f}%):")
        for path, s in budget["stages"].items():
            if ";" in path:
                continue  # depth-1 view; nested paths go to the flamegraph
            print(f"  {path:<10} p95 {1e3 * s['p95']:8.3f} ms  "
                  f"total {s['total_s']:.3f} s  calls {s['calls']}")
        unattr = budget["unattributed"]
        print(f"  {'(unattr)':<10} p95 {1e3 * unattr['p95']:8.3f} ms  "
              f"total {unattr['total_s']:.3f} s")
        if args.flamegraph and platform.profiler is not None:
            out = platform.profiler.write_flamegraph(args.flamegraph)
            print(f"wrote {out} (collapsed stacks: speedscope / flamegraph.pl)")
    monitor = platform.monitor
    if monitor is not None:
        summary = monitor.summary()
        print(f"monitor: {summary['alerts']} alerts over "
              f"{summary['windows_seen']} windows "
              f"{summary['alerts_by_kind'] or ''}")
        for alert in monitor.alerts:
            print(f"  [{alert.kind}] window {alert.window} t={alert.time:.2f}h "
                  f"{alert.signal}/{alert.detector}: {alert.message}")
        if args.alerts_out:
            print(f"alerts tailed to {args.alerts_out}")
    if platform.controller is not None:
        _print_retrain_outcome(platform.controller, platform.registry, stats)
    return 0


def _print_retrain_outcome(controller, registry, stats) -> None:
    print(f"retrain: buffer {controller.buffer.stats()}")
    for ev in controller.events:
        kind = ev["kind"]
        if kind == "triggered":
            print(f"  window {ev['window']}: refit triggered ({ev['reason']}; "
                  f"{ev['n_train']} train / {ev['n_holdout']} holdout labels)")
        elif kind == "promoted":
            print(f"  window {ev['window']}: canary PASS -> {ev['version']} "
                  f"promoted (parent {ev['parent']})")
        elif kind == "rejected":
            print(f"  window {ev['window']}: canary FAIL -> {ev['version']} "
                  f"kept for audit ({', '.join(ev['reasons'])}); live unchanged")
        elif kind == "guard_passed":
            print(f"  window {ev['window']}: post-swap guard passed for "
                  f"{ev['version']}")
        elif kind == "rollback":
            print(f"  window {ev['window']}: guard degraded -> rolled back "
                  f"{ev['from_version']} to {ev['to_version']}")
    print(f"registry: {len(registry)} version(s), live={registry.live()}, "
          f"lineage={' <- '.join(registry.lineage())}, "
          f"{stats.swaps} hot-swap(s) applied")


def _run_fleet(args: argparse.Namespace, serve) -> int:
    """``serve run --shards N``: the same stack on N shards behind a router."""
    from repro.fleet import FleetConfig, FleetController
    from repro.serve.loadgen import make_load
    from repro.utils.rng import as_generator

    if args.metrics_port is not None:
        print("--metrics-port serves one dispatcher's endpoint; it cannot "
              "be used with --shards", file=sys.stderr)
        return 2
    try:
        config = FleetConfig(
            n_shards=args.n_shards,
            routing=args.routing,
            partition=args.partition,
            pool_m=args.pool_m,
            serve=serve,
        )
    except ValueError as exc:
        print(f"invalid fleet flags: {exc}", file=sys.stderr)
        return 2
    print(f"training predictors for {config.n_shards} shard(s) "
          f"({config.partition} partition, {args.train_epochs} epochs) ...")
    controller = FleetController(config)
    events = make_load(args.pattern, controller.pool, args.rate).draw(
        args.horizon, as_generator(args.seed + 3))
    stats = controller.run(events, telemetry=args.telemetry,
                           out_dir=args.out_dir)
    print(f"{len(events)} arrivals over {args.horizon:g}h ({args.pattern}), "
          f"{args.routing} routing")
    print(stats.summary())
    for sid, shard_stats in enumerate(stats.per_shard):
        print(f"  shard {sid}: {shard_stats.summary()}")
    print(f"fleet trace sha256: {stats.trace_sha256()}")
    if args.flamegraph:
        out = controller.write_flamegraph(args.flamegraph)
        print(f"wrote {out} (collapsed stacks: speedscope / flamegraph.pl)")
    if args.telemetry == "jsonl":
        print("per-shard logs replay with: repro replay "
              "--log <s0.jsonl> --log <s1.jsonl> ...")
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    from repro.monitor import prometheus_text
    from repro.telemetry import merge_aggregates
    from repro.telemetry.jsonl import aggregate_events, load_run, meta_of

    # One log renders directly; several merge into a fleet-level view
    # (shard-labeled series stay distinct, identical keys sum).
    runs = [load_run(path) for path in args.log]
    text = prometheus_text(merge_aggregates(
        [aggregate_events(events) for events in runs]))
    if args.prometheus:
        with open(args.prometheus, "w") as fh:
            fh.write(text)
        print(f"wrote {args.prometheus}")
    else:
        print(text, end="")
    for path, events in zip(args.log, runs):
        meta = meta_of(events)
        alerts = [ev for ev in events
                  if ev.get("type") == "event" and ev.get("name") == "alert"]
        label = f"run '{meta.get('run')}'"
        if len(runs) > 1:
            label += f" ({path})"
        print(f"# {label}: {len(alerts)} alert(s)")
        for ev in alerts:
            print(f"#   [{ev.get('kind')}] window {ev.get('window')} "
                  f"{ev.get('signal')}/{ev.get('detector')}: {ev.get('message')}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    import json

    from repro.monitor import QualityMonitor, TraceReplay
    from repro.telemetry import recording

    try:
        replay = TraceReplay.from_logs(args.log)
    except ValueError as exc:
        print(f"cannot replay: {exc}", file=sys.stderr)
        return 2
    monitor = QualityMonitor() if args.monitor or args.alerts_out else None
    source = (f"{len(replay.shards)} shard logs" if replay.shards
              else args.log[0])
    print(f"replaying {len(replay.arrivals)} arrivals "
          f"({len(replay.outages)} outage(s)) from {source} ...")
    try:
        with recording(mode=args.telemetry, run="serve-replay",
                       meta={"serve": replay.params,
                             "replay_of": " ".join(args.log)}):
            stats = replay.replay(callbacks=[monitor] if monitor else None,
                                  registry_root=args.registry)
    except ValueError as exc:
        print(f"cannot replay: {exc}", file=sys.stderr)
        return 2
    print(stats.summary())
    if monitor is not None:
        summary = monitor.summary()
        print(f"monitor: {summary['alerts']} alerts over "
              f"{summary['windows_seen']} windows")
    if args.alerts_out and monitor is not None:
        with open(args.alerts_out, "w") as fh:
            for entry in monitor.alert_log():
                fh.write(json.dumps(entry, sort_keys=True) + "\n")
        print(f"wrote {args.alerts_out} ({len(monitor.alerts)} alert(s))")
    problems = replay.verify(stats)
    if problems:
        print("replay verification FAILED:", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    print("replay verified: " + (
        "per-shard counters, routing determinism and fleet conservation "
        "match the logs" if replay.shards else
        "counters, conservation identity and hot-swap digests match the log"))
    return 0


def _cmd_retrain(args: argparse.Namespace) -> int:
    from repro.monitor import TraceReplay
    from repro.retrain import RetrainConfig
    from repro.serve import build_platform

    try:
        replay = TraceReplay.from_logs([args.log])
    except ValueError as exc:
        print(f"cannot retrain from log: {exc}", file=sys.stderr)
        return 2
    try:
        retrain = RetrainConfig(
            trigger="periodic",
            period_windows=args.period_windows,
            mode=args.mode,
            epochs=args.epochs,
            seed=replay.config.seed,
        )
    except ValueError as exc:
        print(f"invalid retrain flags: {exc}", file=sys.stderr)
        return 2
    config = replay.config.with_overrides(retrain=retrain,
                                          registry_root=args.registry)
    print(f"re-driving {len(replay.arrivals)} logged arrivals with "
          f"{args.mode} refits every {args.period_windows} window(s) ...")
    platform = build_platform(config)
    stats = platform.run(replay.events(platform.pool),
                         outages=replay.outages or None)
    print(stats.summary())
    _print_retrain_outcome(platform.controller, platform.registry, stats)
    print(f"registry persisted at {args.registry}")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "experiments": _cmd_experiments,
        "clusters": _cmd_clusters,
        "pool": _cmd_pool,
        "trace": _cmd_trace,
        "demo": _cmd_demo,
        "serve": _cmd_serve,
        "monitor": _cmd_monitor,
        "replay": _cmd_replay,
        "retrain": _cmd_retrain,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
