"""The benchmark's workloads: one agent on one tariff, at a fixed run length.

Each workload stresses different layers of heatbench; `why` says which.  The
run lengths are fixed because cost per simulated hour depends on them (MF-RL
spends its first days in warm-up, when no training cycle does work).  The
emulator, the harness loop and the RBC baseline run inside every workload and
are timed per layer there; there is no RBC-only workload, so that each of the
three can measure for longer within the same total benchmark time.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    agent: str
    tariff_kind: str
    days: int
    why: str

    def scenario(self, hb, seed: int):
        """The workload's Scenario, built with the given heatbench package."""
        return hb.Scenario(name=self.name, days=self.days, agent=self.agent,
                           seed=seed, tariff_kind=self.tariff_kind)

    def expected_calls(self, scenario) -> dict[str, int]:
        """Analytic call counts of one run_scenario call, agent plus RBC baseline."""
        hours = scenario.horizon_hours()
        controlled = hours - scenario.warmup_hours
        # agents update at every controlled hour that starts a day
        updates = sum(1 for t in range(scenario.warmup_hours, hours) if t % 24 == 0)
        agent = self.agent
        return {
            "harness.run_scenario": 1,
            "emulator.step": hours if agent == "rbc" else 2 * hours,
            "baselines.MpcController.decide": controlled if agent == "mpc" else 0,
            "planners.plan_cem": {"mpc": controlled, "mbrl": updates}.get(agent, 0),
            "model_based.train_transition_model": updates if agent == "mbrl" else 0,
            "model_free.ModelFreeAgent.train_cycle":
                scenario.mfrl.train_cycles_per_update * updates if agent == "mfrl" else 0,
        }


WORKLOADS = {w.name: w for w in (
    Workload("mpc_dual", "mpc", "dual", 10,
             "MPC on the dual tariff: the CEM planner (exact rollouts, categorical "
             "sampling, best-sequence tracker) takes ~80% of the time; no neural layer"),
    Workload("mbrl_flat", "mbrl", "flat", 40,
             "MB-RL on the flat tariff: batch-256 model training and learned-model "
             "rollouts through the CEM planner; shares planners with mpc_dual, neural "
             "with mfrl_flat"),
    Workload("mfrl_flat", "mfrl", "flat", 20,
             "MF-RL on the flat tariff: per-sample encode and Normalizer.apply, "
             "batch-1 forwards, 96-row train steps and prioritized replay; no planner"),
)}
