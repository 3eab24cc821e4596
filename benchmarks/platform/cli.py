"""Command line of the platform benchmark."""

from __future__ import annotations

import argparse

from benchmarks.platform.contract import DEFAULT_SEED, load_contract


def main(argv: "list[str] | None" = None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(
        prog="python3 -m benchmarks.platform",
        description="Platform benchmark: six workloads, end-to-end and per-layer metrics.")
    parser.add_argument("command", nargs="?", default="one",
                        choices=("one", "run", "selfcheck", "compare", "report"),
                        help="one = a single run (the form BENCHMARK.json names); "
                             "run = every workload, K repeats and a traced pass")
    parser.add_argument("refs", nargs="*",
                        help="compare: two git SHAs from history.jsonl, or two result files")
    parser.add_argument("--workload", choices=contract.workloads)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="load, dispatcher, outages, training draws")
    parser.add_argument("--seconds", type=float, default=float(contract.run_seconds))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=3, help="run: K untraced repeats")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one episode: checks the plumbing, not the speed")
    args = parser.parse_args(argv)

    if args.command == "one":
        if args.workload is None:
            parser.error("--workload is required for a single run")
        from benchmarks.platform.measure import measure

        return measure(contract, args.workload, args.seed, args.seconds,
                       bool(args.trace), args.smoke)

    from benchmarks.platform import suite

    if args.command == "compare":
        if len(args.refs) != 2:
            parser.error("compare takes two references")
        return suite.compare(contract, *args.refs)
    if args.command == "report":
        return suite.report(contract)
    workloads = (args.workload,) if args.workload else contract.workloads
    if args.command == "selfcheck":
        return suite.selfcheck(contract, workloads, args)
    return suite.run(contract, workloads, args)
