import filecmp
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from heatbench.cli import main as cli_main
from heatbench.harness import (Scenario, SuiteConfig, build_traces, emit_plot_data,
                               estimate_convergence, run_scenario, run_suite,
                               scenario_from_ini, simulate, suite_from_ini)
from heatbench.mdp import ComfortBand, EpisodeLog, StepRecord


def test_run_scenario_rbc_self_metrics(tmp_path):
    report = run_scenario(Scenario(name="self", days=3, agent="rbc", seed=0), tmp_path)
    assert report.consumption_change_pct == 0.0
    assert report.cost_change_pct == 0.0
    assert report.comfort_loss_eur >= 0.0


def test_run_scenario_mpc_smoke_row_count(tmp_path):
    report = run_scenario(Scenario(name="smoke", days=2, agent="mpc", seed=0), tmp_path)
    log = EpisodeLog.read_csv(report.agent_log_path)
    assert len(log) == 48
    assert Path(report.baseline_log_path).exists()


def test_run_scenario_deterministic_bytes(tmp_path):
    scenario = Scenario(name="det", days=4, agent="mfrl", seed=5)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    run_scenario(scenario, dir_a)
    run_scenario(scenario, dir_b)
    names = sorted(p.name for p in dir_a.iterdir())
    assert names == sorted(p.name for p in dir_b.iterdir())
    for name in names:
        assert filecmp.cmp(dir_a / name, dir_b / name, shallow=False), name


def test_flat_tariff_cost_equals_consumption_change(tmp_path):
    report = run_scenario(Scenario(name="id", days=5, agent="mfrl", seed=2), tmp_path)
    assert report.cost_change_pct == pytest.approx(report.consumption_change_pct,
                                                   rel=1e-12, abs=1e-12)


def test_real_time_log_reads_back(tmp_path):
    scenario = Scenario(name="rtp", days=2, agent="rbc", tariff_kind="real_time", seed=7)
    report = run_scenario(scenario, tmp_path)
    log = EpisodeLog.read_csv(report.agent_log_path)
    prices = build_traces(scenario)[1].prices
    assert [r.price for r in log.steps] == list(prices)
    assert len(set(prices)) > 1


def test_run_scenario_validates_before_simulating(tmp_path):
    with pytest.raises(ValueError):
        run_scenario(Scenario(days=0), tmp_path)
    with pytest.raises(ValueError):
        run_scenario(Scenario(agent="dqn"), tmp_path)
    with pytest.raises(ValueError):
        run_scenario(Scenario(warmup_hours=999, days=1), tmp_path)


def test_suite_runs_all_agents_on_shared_traces(tmp_path):
    rows = run_suite(SuiteConfig(name="mini", days=3, seed=0,
                                 agents=("rbc", "mpc")), tmp_path)
    assert [r["agent"] for r in rows] == ["rbc", "mpc"]
    assert all(r["status"] == "ok" for r in rows)
    rbc_row = rows[0]
    assert rbc_row["consumption_change_pct"] == 0.0
    assert rbc_row["cost_change_pct"] == 0.0
    table = (tmp_path / "mini_table.csv").read_text(encoding="utf-8")
    assert table.splitlines()[0].startswith("agent,consumption_change_pct")
    # both runs consumed bit-identical traces
    a = EpisodeLog.read_csv(tmp_path / "mini_rbc_rbc.csv")
    b = EpisodeLog.read_csv(tmp_path / "mini_mpc_mpc.csv")
    assert [r.t_a for r in a.steps] == [r.t_a for r in b.steps]
    assert [r.price for r in a.steps] == [r.price for r in b.steps]


def test_suite_single_agent(tmp_path):
    rows = run_suite(SuiteConfig(name="one", days=2, agents=("rbc",)), tmp_path)
    assert len(rows) == 1


def test_suite_four_agent_table_shape(tmp_path):
    rows = run_suite(SuiteConfig(name="all4", days=3, seed=1), tmp_path)
    assert [r["agent"] for r in rows] == ["rbc", "mpc", "mbrl", "mfrl"]
    assert rows[0]["consumption_change_pct"] == 0.0
    assert rows[0]["cost_change_pct"] == 0.0
    table = (tmp_path / "all4_table.csv").read_text(encoding="utf-8")
    assert len(table.splitlines()) == 5  # header + one row per agent


def test_suite_records_partial_failure(tmp_path):
    cfg = SuiteConfig(name="broken", days=2, agents=("rbc", "mpc"),
                      base=Scenario(warmup_hours=400))
    rows = run_suite(cfg, tmp_path)
    assert all(r["status"].startswith("error") for r in rows)


def _log_with_comfort(days, dirty_days, penalty=-1.0):
    log = EpisodeLog()
    for h in range(days * 24):
        r_comfort = penalty if (h // 24) in dirty_days else 0.0
        log.append(StepRecord(h, 5.0, 21.0, 20.0, 0.0, 0.24, 0.0, r_comfort))
    return log


def test_convergence_clean_log_is_day_one():
    est = estimate_convergence(_log_with_comfort(8, dirty_days=()))
    assert est.converged and est.day == 1 and est.hours_of_experience == 0


def test_convergence_never_converged_sentinel():
    est = estimate_convergence(_log_with_comfort(8, dirty_days=range(8)))
    assert not est.converged and est.day == -1


def test_convergence_day_ten_boundary():
    # violations on days 1-9 only (1-based): the clean tail starts on day 10
    est = estimate_convergence(_log_with_comfort(14, dirty_days=range(9)))
    assert est.converged and est.day == 10
    assert est.hours_of_experience == 9 * 24


def test_convergence_requires_week_of_data():
    with pytest.raises(ValueError):
        estimate_convergence(_log_with_comfort(5, dirty_days=()))


def _episode_csv(tmp_path, powers):
    log = EpisodeLog()
    for h, p in enumerate(powers):
        log.append(StepRecord(h, 5.0, 21.0, 20.0, p, 0.24, 0.0, 0.0))
    path = tmp_path / "episode.csv"
    log.write_csv(path)
    return path


def test_plot_action_histogram_single_bin(tmp_path):
    path = _episode_csv(tmp_path, [0.0] * 48)
    dest = emit_plot_data(path, "action_histogram", tmp_path)
    lines = Path(dest).read_text(encoding="utf-8").splitlines()
    assert lines[0] == "level_w,count"
    assert len(lines) == 2
    assert lines[1].endswith(",48")


def test_plot_temperature_trace_columns(tmp_path):
    path = _episode_csv(tmp_path, [0.0, 400.0, 800.0])
    dest = emit_plot_data(path, "temperature_trace", tmp_path,
                          band=ComfortBand(19.0, 23.0))
    lines = Path(dest).read_text(encoding="utf-8").splitlines()
    assert lines[0] == "hour,t_i,t_a,band_low,band_high"
    assert len(lines) == 4


def test_plot_heatmap_conserves_counts(tmp_path):
    rng = np.random.default_rng(0)
    powers = [float(rng.choice([0, 400, 800, 1200, 1600, 2000])) for _ in range(72)]
    path = _episode_csv(tmp_path, powers)
    dest = emit_plot_data(path, "hourly_action_heatmap", tmp_path)
    rows = Path(dest).read_text(encoding="utf-8").splitlines()[1:]
    total = sum(sum(int(v) for v in row.split(",")[1:]) for row in rows)
    assert len(rows) == 24
    assert total == 72


def test_plot_rejects_unknown_kind(tmp_path):
    path = _episode_csv(tmp_path, [0.0])
    with pytest.raises(ValueError):
        emit_plot_data(path, "sankey", tmp_path)


def test_plot_model_mae_pass_through(tmp_path):
    src = tmp_path / "mae.csv"
    src.write_text("day,holdout_mae_c\n2,0.7\n3,0.5\n", encoding="utf-8")
    dest = emit_plot_data(src, "model_mae", tmp_path)
    assert Path(dest).read_text(encoding="utf-8").splitlines()[1] == "2,0.7"


SCENARIO_INI = """
[scenario]
name = from_file
days = 2
agent = rbc
seed = 9
price = dual
warmup_hours = 24

[tariff]
day_price = 0.30
night_price = 0.18

[building]
cop = 2.5

[band]
t_min = 20.0
t_max = 24.0

[cem]
population = 32
iterations = 5
"""


def test_scenario_from_ini(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(SCENARIO_INI, encoding="utf-8")
    scenario = scenario_from_ini(path)
    assert scenario.name == "from_file"
    assert scenario.tariff_kind == "dual"
    assert scenario.tariff.day_price == 0.30
    assert scenario.building.cop == 2.5
    assert scenario.band_schedule.band_at(0) == ComfortBand(20.0, 24.0)
    assert scenario.mpc.cem.population == 32

    overridden = scenario_from_ini(path, {"agent": "mpc", "days": 1, "seed": 1})
    assert overridden.agent == "mpc" and overridden.days == 1 and overridden.seed == 1


def test_scenario_from_ini_band_phases(tmp_path):
    path = tmp_path / "phases.ini"
    path.write_text("[scenario]\ndays = 2\n\n[band]\n"
                    "phases = 0:19:23, 24:21:25\n", encoding="utf-8")
    scenario = scenario_from_ini(path)
    assert scenario.band_schedule.band_at(0).t_min == 19.0
    assert scenario.band_schedule.band_at(24).t_min == 21.0


def test_scenario_from_ini_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[scenario]\nfoo = bar\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown key"):
        scenario_from_ini(path)


def _ini(tmp_path, text):
    path = tmp_path / "config.ini"
    path.write_text(text, encoding="utf-8")
    return path


def test_scenario_from_ini_round_trips_every_default(tmp_path):
    # every key the parser derives from the dataclasses, set to its default
    def render(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, tuple):
            return ", ".join(str(v) for v in value)
        return str(value)

    base = Scenario()
    sections = {"scenario": {k: v for k, v in vars(base).items()
                             if isinstance(v, (int, float, str))},
                "band": vars(base.band_schedule.band_at(0))}
    for name in ("building", "ambient", "tariff", "rbc", "mbrl", "mfrl", "mpc"):
        sections[name] = {k: v for k, v in vars(getattr(base, name)).items()
                          if isinstance(v, (int, float, str, tuple))}
    sections["cem"], sections["ga"] = vars(base.mpc.cem), vars(base.mpc.ga)
    sections["scenario"]["price"] = sections["scenario"].pop("tariff_kind")
    sections["scenario"]["backup"] = sections["scenario"].pop("backup_enabled")
    text = "".join(f"[{name}]\n" + "".join(f"{k} = {render(v)}\n" for k, v in keys.items())
                   for name, keys in sections.items())
    assert scenario_from_ini(_ini(tmp_path, text)) == base


@pytest.mark.parametrize("section, key, raw, field, value", [
    ("cem", "seed_bias", "0.25", lambda s: s.mpc.cem.seed_bias, 0.25),
    ("cem", "explore_floor", "0.1", lambda s: s.mbrl.cem.explore_floor, 0.1),
    ("ga", "immigrants", "4", lambda s: s.mpc.ga.immigrants, 4),
    ("scenario", "price", "rtp", lambda s: s.tariff_kind, "real_time"),
    ("scenario", "backup_low_trip", "18.5", lambda s: s.backup_low_trip, 18.5),
    ("scenario", "ambient_csv", "weather.csv", lambda s: s.ambient_csv, "weather.csv"),
])
def test_scenario_from_ini_sets_dataclass_fields(tmp_path, section, key, raw, field, value):
    scenario = scenario_from_ini(_ini(tmp_path, f"[{section}]\n{key} = {raw}\n"))
    assert field(scenario) == value
    assert type(field(scenario)) is type(value)


@pytest.mark.parametrize("text, match", [
    ("[band]\nt_low = 21\n", "unknown key 't_low'"),
    ("[band]\nphases = 0:19:23\nt_min = 20\n", "either phases or t_min"),
    ("[tariff]\nrtp_seed = 5\n", "unknown key 'rtp_seed'"),
    ("[mbrl]\nhistory_length = 2\n", "unknown key 'history_length'"),
    ("[mfrl]\nhistory_length = 2\n", "unknown key 'history_length'"),
    ("[scenario]\ntariff_kind = dual\n", "unknown key 'tariff_kind'"),
    ("[scenario]\nprice = hourly\n", "expected a price"),
    ("[scenario]\ndays = many\n", r"\[scenario\] days"),
    ("[mpc]\nwarm_start = maybe\n", "expected a boolean"),
    ("[mfrl_typo]\ngamma = 0.5\n", r"unknown section \[mfrl_typo\]"),
    ("[suite]\ndays = 2\n", r"unknown section \[suite\]"),
    ("[mfrl]\nselection_by_target = true\n", "unknown key 'selection_by_target'"),
    ("[mfrl]\nrandom_until_warmup = false\n", "unknown key 'random_until_warmup'"),
])
def test_scenario_from_ini_rejects_bad_entries(tmp_path, text, match):
    with pytest.raises(ValueError, match=match):
        scenario_from_ini(_ini(tmp_path, text))


def test_scenario_history_length_reaches_both_agents(tmp_path):
    path = _ini(tmp_path, "[scenario]\nhistory_length = 1\n")
    scenario = replace(scenario_from_ini(path), days=2)
    trace, tariff = build_traces(scenario)
    for kind, n_inputs in (("mbrl", 1 + 3), ("mfrl", 1 + 2)):
        log, agent = simulate(scenario, kind, trace, tariff)
        net = agent.model.mlp if kind == "mbrl" else agent.pair.online
        assert net.spec.layer_sizes[0] == n_inputs
        assert len(log) == 48


def test_suite_from_ini(tmp_path):
    path = tmp_path / "suite.ini"
    path.write_text("[suite]\nname = table\ndays = 2\nseed = 4\nprice = dual\n"
                    "agents = rbc,mpc\n", encoding="utf-8")
    cfg = suite_from_ini(path)
    assert cfg.name == "table"
    assert cfg.tariff_kind == "dual"
    assert cfg.agents == ("rbc", "mpc")

    with pytest.raises(ValueError, match="unknown agent"):
        suite_from_ini(_ini(tmp_path, "[suite]\nagents = rbc, dqn\n"))
    with pytest.raises(ValueError, match="unknown key 'tariff_kind'"):
        suite_from_ini(_ini(tmp_path, "[suite]\ntariff_kind = dual\n"))
    with pytest.raises(ValueError, match=r"unknown section \[mfrl_typo\]"):
        suite_from_ini(_ini(tmp_path, "[suite]\ndays = 2\n[mfrl_typo]\ngamma = 0.5\n"))


def test_suite_from_ini_scenario_sections_set_the_base(tmp_path):
    cfg = suite_from_ini(_ini(tmp_path, "[suite]\ndays = 2\nseed = 4\n"
                                        "[mfrl]\ngamma = 0.5\n"))
    assert cfg.base.mfrl.gamma == 0.5
    assert (cfg.base.days, cfg.base.seed) == (2, 4)


def test_cli_run_and_plot(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli_main(["run", "--agent", "rbc", "--price", "flat", "--days", "2",
                     "--seed", "0", "--name", "clirun", "--out", str(out)])
    assert code == 0
    assert (out / "clirun_rbc.csv").exists()
    captured = capsys.readouterr()
    assert "clirun" in captured.out

    code = cli_main(["plot", "--kind", "action_histogram",
                     "--log", str(out / "clirun_rbc.csv"), "--out", str(out)])
    assert code == 0


def test_cli_suite(tmp_path, capsys):
    out = tmp_path / "suite_out"
    path = tmp_path / "suite.ini"
    path.write_text("[suite]\ndays = 2\nagents = rbc\n", encoding="utf-8")
    code = cli_main(["suite", "--config", str(path), "--out", str(out)])
    assert code == 0
    assert (out / "suite_table.csv").exists()


def test_cli_suite_price_alias_without_config(tmp_path, capsys):
    out = tmp_path / "rtp_out"
    code = cli_main(["suite", "--days", "2", "--seed", "3", "--price", "rtp",
                     "--out", str(out)])
    assert code == 0
    rows = (out / "suite_rbc_rbc.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert len({row.split(",")[5] for row in rows}) > 1  # a real-time walk, not flat


def test_cli_machine_readable_error(tmp_path, capsys):
    code = cli_main(["run", "--agent", "rbc", "--days", "0", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err.strip()
    payload = json.loads(err.splitlines()[-1])
    assert "error" in payload
