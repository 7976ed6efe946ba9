#!/usr/bin/env python3
"""Robustness experiments for the two learning agents.

Scenario A (changing constraints): the comfort band is raised, lowered and
restored in ten-day phases; per-phase comfort loss shows how quickly each
agent adapts.

Scenario B (changed environment): the heat pump's backup filter is switched
on, silently overriding commands outside the trip band; weekly comfort loss
shows whether the agent copes with dynamics its model never sees.
"""

import argparse

from heatbench.harness import Scenario, run_scenario
from heatbench.mdp import BandSchedule, ComfortBand, EpisodeLog


def setpoint_schedule():
    return BandSchedule((
        (0, ComfortBand(19.0, 23.0)),
        (264, ComfortBand(21.0, 25.0)),
        (504, ComfortBand(17.0, 21.0)),
        (744, ComfortBand(19.0, 23.0)),
    ))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="results/robustness")
    args = parser.parse_args()

    print("== setpoint changes (10-day phases: base, raised, lowered, restored) ==")
    phases = [(24, 264), (264, 504), (504, 744), (744, 984)]
    for agent in ("mbrl", "mfrl"):
        scenario = Scenario(name=f"setpoint_{agent}", days=41, agent=agent,
                            seed=args.seed, band_schedule=setpoint_schedule())
        report = run_scenario(scenario, args.out)
        log = EpisodeLog.read_csv(report.agent_log_path)
        losses = [round(log.slice_hours(lo, hi).total_comfort_eur(), 1) for lo, hi in phases]
        print(f"  {agent}: per-phase comfort loss {losses} EUR")

    print("== backup filter on (weekly comfort loss) ==")
    for agent in ("mbrl", "mfrl"):
        scenario = Scenario(name=f"backup_{agent}", days=36, agent=agent,
                            seed=args.seed, backup_enabled=True)
        report = run_scenario(scenario, args.out)
        log = EpisodeLog.read_csv(report.agent_log_path)
        weekly = [round(log.slice_hours(lo, lo + 168).total_comfort_eur(), 1)
                  for lo in range(24, 24 + 5 * 168, 168)]
        print(f"  {agent}: weekly comfort loss {weekly} EUR")


if __name__ == "__main__":
    main()
