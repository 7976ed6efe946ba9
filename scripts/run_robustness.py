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

SETPOINT_SCHEDULE = BandSchedule((
    (0, ComfortBand(19.0, 23.0)),
    (264, ComfortBand(21.0, 25.0)),
    (504, ComfortBand(17.0, 21.0)),
    (744, ComfortBand(19.0, 23.0)),
))
PHASES = [(24, 264), (264, 504), (504, 744), (744, 984)]
WEEKS = [(lo, lo + 168) for lo in range(24, 24 + 5 * 168, 168)]


def _comfort_losses(scenario: Scenario, out, windows) -> list[float]:
    """The agent's comfort loss (EUR, to 0.1) in each [lo, hi) hour window of the run."""
    log = EpisodeLog.read_csv(run_scenario(scenario, out).agent_log_path)
    return [round(log.slice_hours(lo, hi).total_comfort_eur(), 1) for lo, hi in windows]


def setpoint_phase_losses(agent: str, seed: int, out) -> list[float]:
    """Scenario A: per-phase comfort loss of a 41-day run under SETPOINT_SCHEDULE."""
    return _comfort_losses(Scenario(name=f"setpoint_{agent}", days=41, agent=agent, seed=seed,
                                    band_schedule=SETPOINT_SCHEDULE), out, PHASES)


def backup_weekly_losses(agent: str, seed: int, out) -> list[float]:
    """Scenario B: weekly comfort loss of a 36-day run with the backup filter on."""
    return _comfort_losses(Scenario(name=f"backup_{agent}", days=36, agent=agent, seed=seed,
                                    backup_enabled=True), out, WEEKS)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="results/robustness")
    args = parser.parse_args()

    print("== setpoint changes (10-day phases: base, raised, lowered, restored) ==")
    for agent in ("mbrl", "mfrl"):
        losses = setpoint_phase_losses(agent, args.seed, args.out)
        print(f"  {agent}: per-phase comfort loss {losses} EUR")

    print("== backup filter on (weekly comfort loss) ==")
    for agent in ("mbrl", "mfrl"):
        weekly = backup_weekly_losses(agent, args.seed, args.out)
        print(f"  {agent}: weekly comfort loss {weekly} EUR")


if __name__ == "__main__":
    main()
