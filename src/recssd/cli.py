"""Command-line front end.

Exit codes: 0 success, 2 configuration error, 3 infeasible kernel search,
1 internal error.
"""

import argparse
import json
import os
import sys

from .config import ConfigError, build_scenario, default_config_text, load_config
from .kernel_search import search
from .sim import InfeasibleSearchError, compare, metrics_json, run, spans_to_csv

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="recssd",
                                description="In-storage recommendation inference simulator")
    p.add_argument("--print-defaults", action="store_true",
                   help="print the default config document and exit")
    sub = p.add_subparsers(dest="command")

    def seed(sp):
        sp.add_argument("--seed", type=nonnegative_int, default=0, help="workload seed")

    def report(sp, formats):
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--format", choices=formats, default="text",
                        help="stdout report format")
        sp.add_argument("--quiet", action="store_true", help="suppress stdout report")

    sp = sub.add_parser("run", help="run one scenario, write metrics.json + trace.csv")
    sp.add_argument("config")
    seed(sp)
    report(sp, ("json", "csv", "text"))

    sp = sub.add_parser("search", help="run only the kernel search, print its JSON")
    sp.add_argument("config")
    seed(sp)

    sp = sub.add_parser("compare", help="run scenarios and report ratios vs the first")
    sp.add_argument("configs", nargs="+")
    seed(sp)
    report(sp, ("json", "text"))

    sp = sub.add_parser("validate", help="schema and invariant checks only")
    sp.add_argument("config")
    return p


def _metrics_text(m) -> str:
    lines = [
        f"mode                 {m.mode}",
        f"queries completed    {m.completed}",
        f"horizon              {m.horizon_ns} ns",
        f"throughput           {m.throughput_qps:.1f} q/s",
        f"latency p50/p95/p99  {m.latency_p50_ns}/{m.latency_p95_ns}/{m.latency_p99_ns} ns",
        f"latency max          {m.latency_max_ns} ns",
        f"events               {m.event_count}",
    ]
    return "\n".join(lines)


def cmd_run(args) -> int:
    result = run(build_scenario(load_config(args.config)), args.seed)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "metrics.json"), "w") as f:
        f.write(metrics_json(result.metrics))
    with open(os.path.join(args.out, "trace.csv"), "w") as f:
        f.write(spans_to_csv(result.spans))
    if not args.quiet:
        if args.format == "json":
            print(metrics_json(result.metrics), end="")
        elif args.format == "csv":
            m = result.metrics.to_dict()
            print("key,value")
            for k in ("mode", "completed", "horizon_ns", "throughput_qps"):
                print(f"{k},{m[k]}")
        else:
            print(_metrics_text(result.metrics))
    return EXIT_OK


def cmd_search(args) -> int:
    outcome = search(build_scenario(load_config(args.config)), args.seed)
    print(json.dumps(outcome.to_dict(), indent=2, sort_keys=True))
    if not outcome.feasible:
        raise InfeasibleSearchError(outcome)
    return EXIT_OK


def cmd_compare(args) -> int:
    scenarios = [build_scenario(load_config(c)) for c in args.configs]
    try:
        report, _ = compare(scenarios, args.seed)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "compare.json"), "w") as f:
        f.write(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    if not args.quiet:
        if args.format == "json":
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        else:
            hdr = f"{'mode':16} {'throughput':>14} {'x':>8} {'p99 ns':>12} {'p99 red %':>10}"
            print(hdr)
            for r in report.rows:
                print(f"{r.mode:16} {r.throughput_qps:>14.1f} {r.throughput_x:>8.2f} "
                      f"{r.latency_p99_ns:>12} {r.p99_reduction_pct:>10.1f}")
    return EXIT_OK


def cmd_validate(args) -> int:
    build_scenario(load_config(args.config))
    print("ok")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.print_defaults:
        print(default_config_text(), end="")
        return EXIT_OK
    if args.command is None:
        parser.print_help()
        return EXIT_CONFIG
    handler = {"run": cmd_run, "search": cmd_search, "compare": cmd_compare,
               "validate": cmd_validate}[args.command]
    try:
        return handler(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleSearchError as e:
        print(f"error: infeasible kernel search (binding constraint: "
              f"{e.outcome.binding_constraint})", file=sys.stderr)
        return EXIT_INFEASIBLE
    except MemoryError as e:
        print(f"error: the scenario is too large to materialise on this host "
              f"({str(e) or 'out of memory'})", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
