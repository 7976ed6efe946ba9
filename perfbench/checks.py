"""Correctness checks on the files one run_scenario call writes.

`output_digest` fingerprints an output directory, so repeats of the same
(workload, seed) can be compared byte for byte.  `check_outputs` checks one
run's files in full: the expected set, finite numbers, metrics that follow
from the logs, and logs that follow from the emulator, the reward functions,
the generated traces and, for the baseline, the RBC rule.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path


def output_digest(out_dir) -> str:
    """SHA-256 over every file's name and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(Path(out_dir).iterdir()):
        data = path.read_bytes()
        h.update(f"{path.name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def expected_files(scenario) -> set[str]:
    stem = scenario.name
    names = {f"{stem}_{scenario.agent}.csv", f"{stem}_rbc_baseline.csv",
             f"{stem}_metrics.csv"}
    extra = {"mbrl": "model_mae", "mfrl": "qtrace"}.get(scenario.agent)
    if extra:
        names.add(f"{stem}_{extra}.csv")
    return names


def _non_finite_fields(path: Path) -> list[str]:
    """Numeric CSV fields that are not finite; the metrics file's agent name is text."""
    bad = []
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    for row, line in enumerate(lines, start=1):
        for value in line.split(","):
            try:
                if not math.isfinite(float(value)):
                    bad.append(f"{path.name} row {row}: {value}")
            except ValueError:
                if not path.name.endswith("_metrics.csv"):
                    bad.append(f"{path.name} row {row}: {value!r} is not a number")
    return bad


def _log_problems(hb, scenario, log, traces, is_baseline: bool) -> list[str]:
    """Replay the logged hours through the emulator and the reward functions."""
    ambient, tariff = traces
    problems = []
    if len(log) != scenario.horizon_hours():
        return [f"log has {len(log)} hours, expected {scenario.horizon_hours()}"]
    backup = scenario.backup_config()
    levels = scenario.grid.levels_w
    state = hb.BuildingState(scenario.initial_temp_c, scenario.initial_temp_c, 0)
    for r in log.steps:
        t = r.hour
        controlled = t >= scenario.warmup_hours
        if is_baseline:
            want = hb.rbc_action(state.indoor_temp, scenario.band_schedule.band_at(t),
                                 scenario.rbc, scenario.grid) if controlled else 0
            ok_action = r.power_w == levels[want]
        else:
            ok_action = r.power_w in levels and (controlled or r.power_w == 0.0)
        state, applied = hb.step(state, scenario.building, ambient[t], r.power_w, backup)
        expected = (t, ambient[t], state.indoor_temp, state.envelope_temp, applied,
                    tariff[t], hb.consumption_reward(applied, tariff[t]),
                    hb.comfort_reward(state.indoor_temp, scenario.band_schedule.band_at(t + 1)))
        got = (r.hour, r.t_a, r.t_i, r.t_mass, r.power_w, r.price, r.r_cons, r.r_comfort)
        if not ok_action or got != expected:
            problems.append(f"hour {t}: logged {got}, replay gives {expected}")
            break  # later hours follow from a wrong state; one line says enough
    return problems


def check_outputs(hb, scenario, report, out_dir, traces) -> list[str]:
    """Problems found in one run's outputs; an empty list means correct."""
    out = Path(out_dir)
    names = {p.name for p in out.iterdir()}
    want = expected_files(scenario)
    if names != want:
        return [f"output files {sorted(names)}, expected {sorted(want)}"]
    problems = []
    for name in sorted(names):
        problems += _non_finite_fields(out / name)
    paper = (report.consumption_change_pct, report.cost_change_pct, report.comfort_loss_eur)
    if not all(math.isfinite(v) for v in paper):
        problems.append(f"non-finite paper metrics {paper}")

    agent_log = hb.EpisodeLog.read_csv(report.agent_log_path)
    base_log = hb.EpisodeLog.read_csv(report.baseline_log_path)
    problems += _log_problems(hb, scenario, agent_log, traces, scenario.agent == "rbc")
    problems += _log_problems(hb, scenario, base_log, traces, True)
    if not problems:
        start = scenario.warmup_hours
        recomputed = hb.log_metrics(agent_log.slice_hours(start), base_log.slice_hours(start))
        if recomputed != paper:
            problems.append(f"report metrics {paper} differ from the logs' {recomputed}")
        row = (out / f"{scenario.name}_metrics.csv").read_text(encoding="utf-8")
        if row.splitlines()[1] != f"{scenario.agent},{paper[0]!r},{paper[1]!r},{paper[2]!r}":
            problems.append("metrics CSV disagrees with the run report")
    return problems


def comfort_hours_pct(hb, report, warmup_hours: int) -> float:
    """Share of controlled hours the agent ended inside the comfort band."""
    steps = hb.EpisodeLog.read_csv(report.agent_log_path).steps[warmup_hours:]
    return 100.0 * sum(1 for r in steps if r.r_comfort == 0.0) / len(steps)
