"""Command-line interface: run scenarios, suites, and plot-data extraction."""

from __future__ import annotations

import argparse
import json
import sys

from .harness import (AGENT_KINDS, PLOT_KINDS, PRICE_KINDS, Scenario, SuiteConfig,
                      emit_plot_data, run_scenario, run_suite, scenario_from_ini,
                      suite_from_ini)
from .mdp import ComfortBand


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatbench",
        description="Space-heating control benchmark: emulator, baselines and RL agents.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario (plus the RBC baseline)")
    run.add_argument("--scenario", help="INI scenario file; flags override it")
    run.add_argument("--agent", choices=AGENT_KINDS)
    run.add_argument("--price", choices=PRICE_KINDS)
    run.add_argument("--days", type=int)
    run.add_argument("--seed", type=int)
    run.add_argument("--name")
    run.add_argument("--out", required=True, help="output directory")

    suite = sub.add_parser("suite", help="run every agent on shared traces")
    suite.add_argument("--config", help="INI suite file")
    suite.add_argument("--days", type=int)
    suite.add_argument("--seed", type=int)
    suite.add_argument("--price", choices=PRICE_KINDS)
    suite.add_argument("--name", help="prefix of the suite's files")
    suite.add_argument("--out", required=True)

    plot = sub.add_parser("plot", help="derive plot-ready CSVs from a log")
    plot.add_argument("--kind", required=True, choices=PLOT_KINDS)
    plot.add_argument("--log", required=True)
    plot.add_argument("--band-low", type=float, default=19.0)
    plot.add_argument("--band-high", type=float, default=23.0)
    plot.add_argument("--out", required=True)
    return parser


def _overrides(args) -> dict:
    """The Scenario/SuiteConfig fields set on the command line."""
    out = {k: getattr(args, k, None) for k in ("agent", "days", "seed", "name")}
    out = {k: v for k, v in out.items() if v is not None}
    if args.price:
        out["tariff_kind"] = PRICE_KINDS[args.price]
    return out


def _cmd_run(args) -> int:
    overrides = _overrides(args)
    if args.scenario:
        scenario = scenario_from_ini(args.scenario, overrides)
    else:
        scenario = Scenario(**overrides)

    report = run_scenario(scenario, args.out)
    print(f"scenario {report.scenario_name}: agent={report.agent} "
          f"consumption={report.consumption_change_pct:+.2f}% "
          f"cost={report.cost_change_pct:+.2f}% "
          f"comfort_loss={report.comfort_loss_eur:.2f} EUR "
          f"({report.wall_seconds:.1f}s)")
    print(f"logs: {report.agent_log_path} | {report.baseline_log_path}")
    return 0


def _cmd_suite(args) -> int:
    overrides = _overrides(args)
    if args.config:
        cfg = suite_from_ini(args.config, overrides)
    else:
        cfg = SuiteConfig(**overrides)

    rows = run_suite(cfg, args.out)
    width = max(len(r["agent"]) for r in rows)
    print(f"{'agent':<{width}}  consumption%  cost%     comfort EUR  status")
    for r in rows:
        if r["status"] == "ok":
            print(f"{r['agent']:<{width}}  {r['consumption_change_pct']:+11.2f}  "
                  f"{r['cost_change_pct']:+8.2f}  {r['comfort_loss_eur']:11.2f}  ok")
        else:
            print(f"{r['agent']:<{width}}  {'-':>11}  {'-':>8}  {'-':>11}  {r['status']}")
    return 0 if all(r["status"] == "ok" for r in rows) else 1


def _cmd_plot(args) -> int:
    band = ComfortBand(args.band_low, args.band_high)
    dest = emit_plot_data(args.log, args.kind, args.out, band)
    print(f"wrote {dest}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "suite":
            return _cmd_suite(args)
        return _cmd_plot(args)
    except (ValueError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
