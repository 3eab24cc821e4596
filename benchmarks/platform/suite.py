"""``run``, ``selfcheck``, ``compare`` and ``report``: sets of runs and their history.

A *set* is what ``run`` measures: after a short warm-up pass, K untraced
runs of every workload, interleaved round-robin so that a slow minute of
the machine lands on all workloads and not on one, then one traced run of
each.  Every run is its own process running the exact command
``BENCHMARK.json`` names, one at a time, so ``peak_rss_mb`` is that
workload's alone and the numbers are the ones the driver will see.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import platform
import subprocess
import sys
from pathlib import Path

from benchmarks.platform.contract import HISTORY, OUT, README, ROOT, Contract, Metric
from benchmarks.platform.timing import median

#: A run whose reference kernel reads this far from its set's median is
#: repeated once, and flagged.  The issue's 10 % would repeat every other
#: run on this machine (the kernel reads 11-20 ms within one set, and the
#: calibration already takes that out); 25 % repeats the outliers.
DRIFT_LIMIT = 0.25
#: Bound on a metric that repeats exactly for one seed, compared on that seed.
DETERMINISTIC_BOUND = 0.01
REPORT_BEGIN = "<!-- report:begin (rewritten by `python -m benchmarks.platform report`) -->"
REPORT_END = "<!-- report:end -->"


# --------------------------------------------------------------------- #
# One set of runs.
# --------------------------------------------------------------------- #


def _invoke(contract: Contract, workload: str, args, *, trace: bool, smoke: bool) -> dict:
    cmd = [sys.executable, *contract.command[1:],
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(int(trace))]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    return {
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "detail": detail,
        "values": {name: m["value"] for name, m in result["metrics"].items()},
    }


def _git(*argv: str) -> str:
    try:
        out = subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def _fingerprint() -> dict:
    """What a calibrated figure is only comparable within."""
    import numpy

    return {"node": platform.node(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "system": platform.release()}


def measure_set(contract: Contract, workloads, args, kind: str = "run") -> dict:
    """Warm-up, K interleaved untraced runs, drift re-runs, one traced pass."""
    if not args.smoke:
        for w in workloads:  # page cache and bytecode, not measured
            _invoke(contract, w, args, trace=False, smoke=True)
    runs = {w: [] for w in workloads}
    for k in range(args.repeats):
        for w in workloads:
            print(f"  run {k + 1}/{args.repeats} {w}", file=sys.stderr)
            runs[w].append(_invoke(contract, w, args, trace=False, smoke=args.smoke))
    calib = median([r["detail"]["calib_ms"] for rs in runs.values() for r in rs])
    for w, rs in runs.items():
        for i, r in enumerate(rs):
            if abs(r["detail"]["calib_ms"] / calib - 1.0) > DRIFT_LIMIT:
                print(f"  re-run {w} #{i + 1}: kernel {r['detail']['calib_ms']:.1f} ms "
                      f"against the set's {calib:.1f} ms", file=sys.stderr)
                rs[i] = _invoke(contract, w, args, trace=False, smoke=args.smoke)
                rs[i]["rerun"] = True
    traced = {}
    for w in workloads:
        print(f"  traced {w}", file=sys.stderr)
        traced[w] = _invoke(contract, w, args, trace=True, smoke=args.smoke)

    entry = {
        "kind": kind,
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "git_sha": _git("rev-parse", "HEAD") or "unknown",
        "dirty": bool(_git("status", "--porcelain")),
        "seed": args.seed, "smoke": args.smoke, "seconds": args.seconds,
        "machine": _fingerprint(),
        "calib_ms": calib,
        "workloads": {},
        "problems": [],
    }
    for w in workloads:
        rs, t = runs[w], traced[w]
        shas = rs[0]["detail"]["shas"]
        traced_shas = t["detail"]["shas"]  # the traced pass may stop its panel early
        if (any(r["detail"]["shas"] != shas for r in rs)
                or traced_shas != shas[:len(traced_shas)]):
            entry["problems"].append(
                f"{w}: trace digests differ across the repeats and the traced pass")
        for r in rs + [t]:
            if not r["correct"]:
                entry["problems"] += [f"{w}: {p}" for p in r["detail"]["problems"]]
        entry["workloads"][w] = {
            "end_to_end": {
                m.name: _summary([r["values"][m.name] for r in rs])
                for m in contract.end_to_end},
            "per_layer": t["values"],
            "sha": hashlib.sha256("".join(shas).encode()).hexdigest(),
            "windows": rs[0]["detail"]["windows"],
            "passes": [r["detail"]["passes"] for r in rs],
            "attempted": sum(r["attempted"] for r in rs),
            "failed": sum(r["failed"] for r in rs),
            "reruns": sum(1 for r in rs if r.get("rerun")),
            "raw": {name: _summary([r["detail"]["raw"][name] for r in rs])
                    for name in rs[0]["detail"]["raw"]},
        }
    entry["ok"] = not entry["problems"]
    return entry


def _summary(values: "list[float]") -> dict:
    return {"median": median(values), "min": min(values), "max": max(values),
            "n": len(values), "values": values}


def _append_history(entry: dict) -> None:
    with open(HISTORY, "a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")


def _print_set(contract: Contract, entry: dict) -> None:
    print(f"\nset at {entry['git_sha'][:12]}{' (dirty)' if entry['dirty'] else ''}  "
          f"seed {entry['seed']}  "
          f"kernel {entry['calib_ms']:.1f} ms")
    for w, data in entry["workloads"].items():
        print(f"\n== {w}: {data['windows']} windows in the panel, passes per run "
              f"{data['passes']}, failed {data['failed']}/{data['attempted']}, "
              f"digest {data['sha'][:12]}"
              + (f", {data['reruns']} re-run for drift" if data["reruns"] else ""))
        print("  end to end (calibrated wall clock): median [min .. max] n, bound")
        for m in contract.end_to_end:
            s = data["end_to_end"][m.name]
            print(f"    {m.name:<22}{s['median']:>12.4f} {m.unit:<7}"
                  f"[{s['min']:.4f} .. {s['max']:.4f}] n={s['n']}  "
                  f"{m.better} is better, bound {m.bound:.0%}")
        print("  raw wall clock of the same runs (not gated)")
        for name, s in data["raw"].items():
            print(f"    {name:<22}{s['median']:>12.4f}        "
                  f"[{s['min']:.4f} .. {s['max']:.4f}] n={s['n']}")
        print("  per layer (traced pass, raw seconds)")
        for m in contract.per_layer:
            value = data["per_layer"][m.name]
            if value:
                print(f"    {m.name:<32}{value:>14.6g} {m.unit}")
    for problem in entry["problems"]:
        print(f"check failed: {problem}")
    print("\nverification " + ("passed" if entry["ok"] else "FAILED"))


def run(contract: Contract, workloads, args) -> int:
    """One set: printed, kept as ``out/last-run.json`` (a result file
    ``compare`` reads) and, unless it is a smoke set, added to the history."""
    entry = measure_set(contract, workloads, args)
    _print_set(contract, entry)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "last-run.json").write_text(json.dumps(entry, sort_keys=True) + "\n")
    if not args.smoke:
        _append_history(entry)
    return 0 if entry["ok"] else 1


# --------------------------------------------------------------------- #
# Comparing two sets.
# --------------------------------------------------------------------- #


def effective_bound(metric: Metric, a: "list[float]", b: "list[float]",
                    same_seed: bool) -> float:
    """The metric's declared bound, unless the figure is deterministic.

    A figure that repeats exactly over the runs of both sides, on one
    seed, has no spread to allow for (``cost_hours_per_task``).  Its
    declared bound covers the spread *between* seeds and would pass a
    matching a quarter worse; compared on the same seed it is held to
    ``DETERMINISTIC_BOUND``.
    """
    exact = same_seed and min(len(a), len(b)) > 1 and len(set(a)) == len(set(b)) == 1
    return min(metric.bound, DETERMINISTIC_BOUND) if exact else metric.bound


def verdict(metric: Metric, a: "list[float]", b: "list[float]",
            bound: float) -> "tuple[str, float]":
    """``better`` / ``worse`` / ``unchanged`` / ``unresolved`` for B against A,
    and how far B's median is worse than A's as a share of A's.

    ``unresolved`` means the runs of one side disagree among themselves by
    more than the bound, so a difference of the size of the bound cannot
    be read off these runs; it is not a pass.
    """
    worse_by = metric.worse_by(median(a), median(b))
    spread = max((max(v) - min(v)) / abs(median(v)) for v in (a, b) if median(v))
    if spread > bound:
        every_b_better = all(metric.worse_by(x, y) < 0 for x in a for y in b)
        every_b_worse = all(metric.worse_by(x, y) > 0 for x in a for y in b)
        if every_b_better:
            return "better", worse_by
        if every_b_worse and worse_by > bound:
            return "worse", worse_by
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < -bound:
        return "better", worse_by
    return "unchanged", worse_by


def _rows(contract: Contract, a: dict, b: dict) -> "list[tuple]":
    rows = []
    for w in a["workloads"]:
        if w not in b["workloads"]:
            continue
        for m in contract.end_to_end:
            va = a["workloads"][w]["end_to_end"][m.name]["values"]
            vb = b["workloads"][w]["end_to_end"][m.name]["values"]
            bound = effective_bound(m, va, vb, a["seed"] == b["seed"])
            word, worse_by = verdict(m, va, vb, bound)
            rows.append((w, m, median(va), median(vb), worse_by, bound, word))
    return rows


def _print_rows(rows) -> None:
    print(f"{'workload':<19}{'metric':<22}{'A':>12}{'B':>12}{'B worse by':>12}"
          f"{'bound':>7}  verdict")
    for w, m, ma, mb, worse_by, bound, word in rows:
        print(f"{w:<19}{m.name:<22}{ma:>12.4f}{mb:>12.4f}{worse_by:>+12.1%}"
              f"{bound:>7.0%}  {word}")


def _entries() -> "list[dict]":
    if not HISTORY.exists():
        return []
    with open(HISTORY) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _resolve(ref: str) -> dict:
    """A result file, or the latest full set recorded at a git SHA prefix."""
    if Path(ref).is_file():
        with open(ref) as fh:
            return json.loads(fh.readline())
    found = [e for e in _entries()
             if e.get("git_sha", "").startswith(ref) and "workloads" in e]
    if not found:
        raise SystemExit(f"no set recorded at {ref!r} in {HISTORY.name}")
    return found[-1]


def compare(contract: Contract, ref_a: str, ref_b: str) -> int:
    a, b = _resolve(ref_a), _resolve(ref_b)
    print(f"A = {a['git_sha'][:12]} at {a['time']}   B = {b['git_sha'][:12]} at {b['time']}")
    if a["machine"] != b["machine"]:
        print(f"warning: the sets were measured on different machines or toolchains "
              f"({a['machine']} and {b['machine']}); calibrated timings do not compare")
    rows = _rows(contract, a, b)
    _print_rows(rows)
    return 1 if any(word == "worse" for *_, word in rows) else 0


def selfcheck(contract: Contract, workloads, args) -> int:
    """Two sets of the same code must agree within the benchmark's own bounds."""
    print("set A", file=sys.stderr)
    a = measure_set(contract, workloads, args, kind="selfcheck-a")
    print("set B", file=sys.stderr)
    b = measure_set(contract, workloads, args, kind="selfcheck-b")
    rows = _rows(contract, a, b)
    _print_rows(rows)
    apart = [f"{w} {m.name}: medians {ma:.4f} and {mb:.4f} differ by more than {bound:.0%}"
             for w, m, ma, mb, worse_by, bound, _ in rows if abs(worse_by) > bound]
    ok = a["ok"] and b["ok"] and not apart
    for entry in (a, b):
        _append_history(entry)
    _append_history({
        "kind": "selfcheck", "time": b["time"], "git_sha": b["git_sha"],
        "dirty": b["dirty"], "seed": args.seed,
        "ok": ok, "apart": apart, "problems": a["problems"] + b["problems"],
        "worse_by": {f"{w}/{m.name}": worse_by for w, m, _, _, worse_by, _, _ in rows},
    })
    for line in apart + a["problems"] + b["problems"]:
        print(f"check failed: {line}")
    print("\nselfcheck " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


# --------------------------------------------------------------------- #
# The generated table.
# --------------------------------------------------------------------- #

_SERVE_SHARES = (
    ("relaxed solve", "matching.relaxed_s"),
    ("rounding", "matching.rounding_s"),
    ("predict", "predictors.predict_s"),
    ("cluster truth", "clusters.truth_s"),
    ("warm-start cache", "serve.seed_s"),
    ("retrain", "retrain.callback_s"),
    ("monitor", "monitor.callback_s"),
    ("route", "fleet.route_s"),
    ("loop self", "serve.loop_self_s"),
)
_TRAIN_SHARES = (
    ("pretrain", "predictors.pretrain_s"),
    ("batch solve", "matching.batch_solve_s"),
    ("KKT VJP", "matching.kkt_vjp_s"),
    ("ZO VJP", "matching.zo_vjp_s"),
)


def _share_rows(entry: dict, wall_keys, shares, wall_head: str, rest_head: str):
    """One table: the workloads whose wall (the sum of ``wall_keys``) is
    not 0, each layer's share of it, and the rest."""
    rows = [(w, d["per_layer"], sum(d["per_layer"][k] for k in wall_keys))
            for w, d in entry["workloads"].items()]
    rows = [(w, layer, wall) for w, layer, wall in rows if wall]
    if not rows:
        return []
    heads = [h for h, _ in shares] + [rest_head]
    lines = [f"| workload | {wall_head} | " + " | ".join(heads) + " |",
             "|---|---|" + "---|" * len(heads)]
    for w, layer, wall in rows:
        parts = [layer[key] / wall for _, key in shares]
        cells = [f"{p:.0%}" for p in parts] + [f"{1.0 - sum(parts):.0%}"]
        lines.append(f"| `{w}` | {wall:.2f} | " + " | ".join(cells) + " |")
    return lines + [""]


def _share_table(entry: dict) -> str:
    lines = [f"From the set recorded at `{entry['git_sha'][:12]}` on {entry['time']} "
             f"(seed {entry['seed']}); "
             "shares of the traced pass's raw wall clock per stream, `other` is what "
             "no named layer metric covers.", ""]
    lines += _share_rows(entry, ("serve.run_wall_s",), _SERVE_SHARES, "wall s", "other")
    lines += _share_rows(entry, ("methods.fit_ad_s", "methods.fit_fg_s"), _TRAIN_SHARES,
                         "fit s", "optimizer + validation + other")
    return "\n".join(lines)


def report(contract: Contract) -> int:
    """Rewrite README.md's generated table from the latest full set."""
    sets = [e for e in _entries() if "workloads" in e and not e.get("smoke")]
    if not sets:
        raise SystemExit(f"no set in {HISTORY.name}; run `python -m benchmarks.platform run`")
    text = README.read_text()
    head, _, rest = text.partition(REPORT_BEGIN)
    _, _, tail = rest.partition(REPORT_END)
    if not rest:
        raise SystemExit(f"{README.name} has no {REPORT_BEGIN!r} marker")
    table = _share_table(sets[-1])
    README.write_text(f"{head}{REPORT_BEGIN}\n{table}\n{REPORT_END}{tail}")
    print(table)
    return 0
