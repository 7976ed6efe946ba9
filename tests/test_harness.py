import collections
import csv
import filecmp
import functools
import json
import math
import operator
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from heatbench import harness
from heatbench.cli import main as cli_main
from heatbench.harness import (AGENT_KINDS, INI_SECTIONS, Scenario, SuiteConfig, build_traces,
                               emit_plot_data, estimate_convergence, run_scenario, run_suite,
                               scenario_from_ini, simulate, suite_from_ini)
from heatbench.mdp import ActionGrid, ComfortBand, EpisodeLog
from heatbench.baselines import MpcConfig
from heatbench.model_based import MbrlConfig
from heatbench.model_free import MfrlConfig, ModelFreeAgent
from heatbench.planners import CemConfig


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
    prices = build_traces(scenario)[1]
    assert [r.price for r in log.steps] == prices.tolist()
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
    # the base fails with a message that contains a comma
    base = Scenario(ambient_csv="/nonexistent, file.csv")
    rows = run_suite(SuiteConfig(name="broken", days=2, agents=("rbc", "mpc"), base=base),
                     tmp_path)
    assert all(r["status"].startswith("error") for r in rows)
    with open(tmp_path / "broken_table.csv", newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    assert [len(r) for r in table] == [7] * 3
    assert [r[-1] for r in table[1:]] == [r["status"] for r in rows]


def test_suite_rejects_an_invalid_base_at_entry(tmp_path, capsys):
    with pytest.raises(ValueError, match="warmup_hours"):
        SuiteConfig(days=2, base=Scenario(warmup_hours=400))
    out = tmp_path / "never"
    assert cli_main(["suite", "--days", "1", "--out", str(out)]) == 2
    assert "warmup_hours" in json.loads(capsys.readouterr().err.strip())["error"]
    assert not out.exists()


def test_suite_error_row_names_the_exception_type(tmp_path, monkeypatch):
    def failing_act(self, obs, hour=None, epsilon=None):
        raise ValueError("no action")

    monkeypatch.setattr(ModelFreeAgent, "act", failing_act)
    rows = run_suite(SuiteConfig(name="fail", days=2, agents=("rbc", "mfrl")), tmp_path)
    assert [r["status"] for r in rows] == ["ok", "error: ValueError: no action"]
    with open(tmp_path / "fail_table.csv", newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh))[2][-1] == "error: ValueError: no action"


def test_suite_simulates_the_rbc_baseline_once(tmp_path, monkeypatch):
    kinds = collections.Counter()

    def counting_simulate(scenario, agent_kind, trace, tariff):
        kinds[agent_kind] += 1
        return simulate(scenario, agent_kind, trace, tariff)

    monkeypatch.setattr(harness, "simulate", counting_simulate)
    rows = run_suite(SuiteConfig(name="once", days=2, seed=1), tmp_path)
    assert [r["status"] for r in rows] == ["ok"] * 4
    assert kinds == {"rbc": 1, "mpc": 1, "mbrl": 1, "mfrl": 1}


def test_suite_files_equal_those_of_lone_runs(tmp_path):
    cfg = SuiteConfig(name="same", days=2, seed=3, tariff_kind="dual")
    run_suite(cfg, tmp_path / "suite")
    for agent in cfg.agents:
        scenario = replace(cfg.base, name=f"same_{agent}", agent=agent, days=cfg.days,
                           seed=cfg.seed, tariff_kind=cfg.tariff_kind)
        run_scenario(scenario, tmp_path / agent)
        names = sorted(p.name for p in (tmp_path / agent).iterdir())
        _, differ, missing = filecmp.cmpfiles(tmp_path / agent, tmp_path / "suite", names,
                                              shallow=False)
        assert (differ, missing) == ([], [])

def _log_with_comfort(days, dirty_days, penalty=-1.0):
    return EpisodeLog([(h, 5.0, 21.0, 20.0, 0.0, 0.24, 0.0,
                        penalty if (h // 24) in dirty_days else 0.0)
                       for h in range(days * 24)])


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


@pytest.mark.parametrize("day", [
    [-1.0, -1e100, -1.0, 1e100] + [0.0] * 20,  # left to right 0.0; compensated 2.0
    (-4.0 * 1.35 ** np.random.default_rng(0).uniform(0.0, 3.0, 24)).tolist(),  # np.sum differs
], ids=["cancelling", "seeded"])
def test_convergence_sums_each_day_left_to_right(day):
    comfort = [0.0] * 96 + day + [0.0] * 72  # the fifth of eight days
    log = EpisodeLog([(h, 5.0, 21.0, 20.0, 0.0, 0.24, 0.0, c) for h, c in enumerate(comfort)])
    daily = -functools.reduce(operator.add, day, 0.0)
    # every window holds that day's sum or zero, so the largest one is dirty at
    # exactly that day's sum and clean just above it
    assert estimate_convergence(log, threshold_eur=daily).day != 1
    assert estimate_convergence(log, threshold_eur=np.nextafter(daily, np.inf)).day == 1


def _episode_csv(tmp_path, powers):
    path = tmp_path / "episode.csv"
    EpisodeLog([(h, 5.0, 21.0, 20.0, p, 0.24, 0.0, 0.0)
                for h, p in enumerate(powers)]).write_csv(path)
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


def test_plot_model_mae_writes_each_value_as_its_repr(tmp_path):
    src = tmp_path / "mae.csv"
    src.write_text("day,holdout_mae_c\n2,0.70\n3,5e-1\n", encoding="utf-8")
    dest = emit_plot_data(src, "model_mae", tmp_path / "out")
    assert Path(dest).read_text(encoding="utf-8") == "day,holdout_mae_c\n2,0.7\n3,0.5\n"


@pytest.mark.parametrize("line, reason", [
    ("3", "1 fields, not 2"),
    ("3,abc", "could not convert string to float"),
    ("3,inf", "non-finite or out-of-range value"),
    ("5,0.5", "day 5 after 2"),
])
def test_cli_plot_rejects_malformed_mae_log(tmp_path, capsys, line, reason):
    path = tmp_path / "mae.csv"
    path.write_text(f"day,holdout_mae_c\n2,0.7\n{line}\n", encoding="utf-8")
    code = cli_main(["plot", "--kind", "model_mae", "--log", str(path),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert error.startswith(f"{path} line 3: {reason}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("agent", AGENT_KINDS)
def test_extra_paths_are_the_agents_tables_plus_metrics(tmp_path, agent):
    scenario = Scenario(name="tab", days=3, agent=agent, seed=1)
    _, controller = simulate(scenario, agent, *build_traces(scenario))
    tables = {**controller.tables(), "metrics": (("agent", "consumption_change_pct",
                                                  "cost_change_pct", "comfort_loss_eur"), ())}
    report = run_scenario(scenario, tmp_path)
    assert report.extra_paths == {name: str(tmp_path / f"tab_{name}.csv") for name in tables}
    for name, (header, rows) in tables.items():
        lines = Path(report.extra_paths[name]).read_text(encoding="utf-8").splitlines()
        assert lines[0] == ",".join(header)
        if name != "metrics":
            assert lines[1:] == [",".join(map(repr, row)) for row in rows]


@pytest.mark.parametrize("scenario, field", [
    (lambda: Scenario(mbrl=MbrlConfig(holdout_fraction=0.99)), "holdout_fraction"),
    (lambda: Scenario(days=2, warmup_hours=22, mbrl=MbrlConfig(min_train_samples=2)),
     "holdout_fraction"),
    (lambda: Scenario(mfrl=MfrlConfig(batch_size=1, warmup_samples=1, capacity=1)),
     "warmup_samples"),
    (lambda: Scenario(agent="mpc", mpc=MpcConfig(planner="exhaustive")), "mpc.horizon"),
], ids=["holdout_099", "min_train_2", "warmup_samples_1", "exhaustive_horizon_24"])
def test_in_range_configs_that_failed_mid_run_are_rejected_at_entry(tmp_path, scenario, field):
    with pytest.raises(ValueError, match=re.escape(field)):
        run_scenario(scenario(), tmp_path)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("scenario", [
    Scenario(days=2, agent="mbrl", warmup_hours=21, mbrl=MbrlConfig(min_train_samples=3)),
    Scenario(days=2, agent="mfrl", mfrl=MfrlConfig(batch_size=1, warmup_samples=2, capacity=2)),
    Scenario(days=2, agent="mpc", warmup_hours=44, mpc=MpcConfig(planner="exhaustive")),
], ids=["min_train_3", "warmup_samples_2", "exhaustive_lookahead_4"])
def test_configs_at_the_new_entry_rules_run_to_the_end(tmp_path, scenario):
    report = run_scenario(scenario, tmp_path)
    assert all(map(math.isfinite, (report.consumption_change_pct, report.cost_change_pct,
                                   report.comfort_loss_eur)))


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

    overridden = scenario_from_ini(path, {"agent": "mpc", "days": 2, "seed": 1})
    assert overridden.agent == "mpc" and overridden.days == 2 and overridden.seed == 1


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

    # each section's default is its dataclass's, wherever it occurs in Scenario()
    sections = {name: {k: v for k, v in vars(cls()).items()
                       if isinstance(v, (int, float, str, tuple))}
                for name, cls in INI_SECTIONS.items()}
    sections["scenario"]["price"] = sections["scenario"].pop("tariff_kind")
    sections["scenario"]["backup"] = sections["scenario"].pop("backup_enabled")
    text = "".join(f"[{name}]\n" + "".join(f"{k} = {render(v)}\n" for k, v in keys.items())
                   for name, keys in sections.items())
    assert scenario_from_ini(_ini(tmp_path, text)) == Scenario()


def test_a_section_sets_the_config_field_of_its_name_wherever_it_occurs(tmp_path):
    scenario = scenario_from_ini(_ini(tmp_path, "[grid]\nlevels_w = 0, 500, 1000\n"
                                                "[cem]\npopulation = 16\n"))
    assert scenario.grid == ActionGrid((0.0, 500.0, 1000.0))
    assert scenario.mpc.cem == scenario.mbrl.cem == CemConfig(population=16)


@pytest.mark.parametrize("raw", ["a%b", "a%%b", "%(days)s"])
def test_scenario_from_ini_reads_a_percent_sign_as_itself(tmp_path, raw):
    assert scenario_from_ini(_ini(tmp_path, f"[scenario]\nname = {raw}\n")).name == raw


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
    ("[mfrl]\npriority_offset = 0\n", "priority_offset must be finite and > 0"),
    ("[mfrl]\npriority_alpha = nan\n", "priority_alpha must be finite"),
    ("[mfrl]\nlearning_rate = -1\n", "learning_rate must be finite and > 0"),
    ("[mbrl]\nlearning_rate = 0\n", "learning_rate must be finite and > 0"),
    ("[tariff]\nflat_price = inf\n", "flat_price must be finite"),
    ("[tariff]\nrtp_min = 0.5\nrtp_max = 0.1\n", "rtp_min must not exceed rtp_max"),
    ("[tariff]\nrtp_step = inf\n", "rtp_step must be finite"),
    ("[tariff]\nrtp_step = -0.5\n", "rtp_step must be finite and >= 0"),
    ("[building]\nindoor_capacitance = 1e5\nsubstep_seconds = 3600\n", "unstable sub-step"),
    ("[scenario]\nhistory_length = -1\n", "history_length must be >= 0"),
    ("[scenario]\ninitial_temp_c = nan\n", "initial_temp_c must be finite"),
    ("[scenario]\nbackup_low_trip = -inf\n", "low_trip must be finite"),
    ("[scenario]\nbackup_high_trip = inf\n", "high_trip must be finite"),
    ("[grid]\nlevels_w = 0, 5000\n", "action grid exceeds the heat pump's max power"),
    ("[scenario]\ndays = 2\ndays = 3\n", r"config\.ini, line 3: a key repeats"),
    ("[scenario]\ndays = 2\n[scenario]\nseed = 1\n",
     r"config\.ini, line 3: a section header repeats"),
    ("days = 2\n[scenario]\n", r"config\.ini, line 1: a key before the first \[section\]"),
    ("[scenario]\ndays\n", r"config\.ini, line 2: neither a \[section\] header"),
])
def test_scenario_from_ini_rejects_bad_entries(tmp_path, capsys, text, match):
    path = _ini(tmp_path, text)
    with pytest.raises(ValueError, match=match):
        scenario_from_ini(path)
    out = tmp_path / "out"
    assert cli_main(["run", "--scenario", str(path), "--out", str(out)]) == 2
    [line] = capsys.readouterr().err.strip().splitlines()
    assert re.search(match, json.loads(line)["error"])
    assert not out.exists()


def test_scenario_history_length_reaches_both_agents(tmp_path):
    path = _ini(tmp_path, "[scenario]\nhistory_length = 1\n")
    scenario = replace(scenario_from_ini(path), days=2)
    trace, tariff = build_traces(scenario)
    for kind, n_inputs in (("mbrl", 1 + 3), ("mfrl", 1 + 2)):
        log, agent = simulate(scenario, kind, trace, tariff)
        net = agent.model.mlp if kind == "mbrl" else agent.pair.online
        assert net.spec.layer_sizes[0] == n_inputs
        assert len(log) == 48


@pytest.mark.parametrize("kind", ["mbrl", "mfrl"])
def test_agents_store_one_chained_transition_per_controlled_hour(kind):
    scenario = Scenario(days=3, agent=kind, seed=2)
    trace, tariff = build_traces(scenario)
    log, agent = simulate(scenario, kind, trace, tariff)
    store = agent.memory if kind == "mbrl" else agent.replay
    controlled = log.steps[scenario.warmup_hours:]
    assert len(store) == len(controlled) == 48
    # each hour starts from the observation that ended the hour before
    assert np.array_equal(store.rows(store.s)[1:], store.rows(store.s_next)[:-1])
    assert store.rows(store.r).tolist() == [r.r_cons + r.r_comfort for r in controlled]


def test_mfrl_replay_rows_hold_normalised_features_after_warmup(monkeypatch):
    raw_s, raw_next = [], []

    class RecordingAgent(ModelFreeAgent):
        def observe(self, obs, action, reward, obs_next):
            raw_s.append(obs)
            raw_next.append(obs_next)
            super().observe(obs, action, reward, obs_next)

    monkeypatch.setattr("heatbench.harness.ModelFreeAgent", RecordingAgent)
    # 72 controlled hours into a 60-slot ring: fitted at hour 24, wrapped at
    # hour 61; hours 13-24 were filed raw and normalised in place
    scenario = Scenario(days=4, agent="mfrl", seed=3,
                        mfrl=MfrlConfig(warmup_samples=24, batch_size=24, capacity=60))
    trace, tariff = build_traces(scenario)
    _, agent = simulate(scenario, "mfrl", trace, tariff)
    store, norm = agent.replay, agent.normalizer
    assert norm is not None and len(raw_s) == 72 and len(store) == 60
    assert np.array_equal(store.rows(store.s), norm.apply(np.array(raw_s[-60:])))
    assert np.array_equal(store.rows(store.s_next), norm.apply(np.array(raw_next[-60:])))

def test_suite_from_ini(tmp_path):
    path = tmp_path / "suite.ini"
    path.write_text("[suite]\nname = table\ndays = 2\nseed = 4\nprice = dual\n"
                    "agents = rbc,mpc\n", encoding="utf-8")
    cfg = suite_from_ini(path)
    assert cfg.name == "table"
    assert cfg.tariff_kind == "dual"
    assert cfg.agents == ("rbc", "mpc")

    with pytest.raises(ValueError, match="agents must be one of"):
        suite_from_ini(_ini(tmp_path, "[suite]\nagents = rbc, dqn\n"))
    with pytest.raises(ValueError, match="unknown key 'tariff_kind'"):
        suite_from_ini(_ini(tmp_path, "[suite]\ntariff_kind = dual\n"))
    with pytest.raises(ValueError, match=r"unknown section \[mfrl_typo\]"):
        suite_from_ini(_ini(tmp_path, "[suite]\ndays = 2\n[mfrl_typo]\ngamma = 0.5\n"))


@pytest.mark.parametrize("agents, match", [
    ((), "at least one agent"),
    (("mpc", "mpc"), "name an agent twice"),
    (("rbc", "dqn"), "agents must be one of"),
], ids=["empty", "repeated", "unknown"])
def test_suite_rejects_bad_agent_lists(tmp_path, capsys, agents, match):
    with pytest.raises(ValueError, match=match):
        SuiteConfig(agents=agents)
    path = _ini(tmp_path, f"[suite]\nagents = {', '.join(agents)}\n")
    with pytest.raises(ValueError, match=match):
        suite_from_ini(path)
    out = tmp_path / "out"
    assert cli_main(["suite", "--config", str(path), "--out", str(out)]) == 2
    assert match in json.loads(capsys.readouterr().err.splitlines()[-1])["error"]
    assert not out.exists()


@pytest.mark.parametrize("name", ["../escaped", "sub/x", "a\0b"])
def test_scenario_and_suite_names_must_prefix_a_file(name):
    with pytest.raises(ValueError, match="name must not contain a path separator or NUL"):
        Scenario(name=name).validate()
    with pytest.raises(ValueError, match="name must not contain a path separator or NUL"):
        SuiteConfig(name=name)


@pytest.mark.parametrize("name", ["../escaped", "sub/x"])
@pytest.mark.parametrize("form", ["run", "suite", "run-ini", "suite-ini"])
def test_cli_rejects_a_name_that_cannot_prefix_a_file_before_running(tmp_path, capsys,
                                                                    form, name):
    work = tmp_path / "work"
    work.mkdir()
    command = form.removesuffix("-ini")
    section, flag = ("scenario", "--scenario") if command == "run" else ("suite", "--config")
    args = [command, "--days", "2", "--out", str(work / "out")]
    if command == "run":
        args += ["--agent", "rbc"]
    if form.endswith("-ini"):
        args += [flag, str(_ini(tmp_path, f"[{section}]\nname = {name}\n"))]
    else:
        args += ["--name", name]
    assert cli_main(args) == 2
    [line] = capsys.readouterr().err.strip().splitlines()
    assert json.loads(line)["error"].startswith("name must not contain")
    assert not any(work.iterdir())


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


@pytest.mark.parametrize("args, ini, message", [
    (["run", "--seed", "-1"], None, "seed must be >= 0"),
    (["run"], "[cem]\nelite_fraction = inf\n", "elite_fraction must be in (0, 1]"),
    (["run"], "[cem]\nelite_fraction = -inf\n", "elite_fraction must be in (0, 1]"),
    (["plot", "--kind", "temperature_trace", "--band-high", "inf"], None,
     "t_max must be finite"),
    (["suite", "--seed", "-1", "--days", "2"], None, "seed must be >= 0"),
    (["suite", "--days", "0"], None, "days must be >= 1"),
    (["run", "--agent", "rbc", "--days", "1"], None, "warmup_hours must be < days * 24"),
], ids=["negative-seed", "inf-elite-fraction", "minus-inf-elite-fraction", "inf-band",
        "suite-negative-seed", "suite-zero-days", "warmup-fills-the-run"])
def test_cli_rejects_out_of_range_values_naming_the_field(tmp_path, capsys, args, ini,
                                                           message):
    if args[0] == "plot":
        log = tmp_path / "episode.csv"
        log.write_text("hour,t_a,t_i,t_mass,power_w,price,r_cons,r_comfort\n"
                       "0,5.0,21.0,20.0,0.0,0.24,0.0,0.0\n", encoding="utf-8")
        args = [*args, "--log", str(log)]
    if ini is not None:
        args = [*args, "--scenario", str(_ini(tmp_path, ini))]
    out = tmp_path / "out"
    assert cli_main([*args, "--out", str(out)]) == 2
    [line] = capsys.readouterr().err.strip().splitlines()
    assert message in json.loads(line)["error"]
    assert not out.exists()


def test_cli_suite(tmp_path, capsys):
    out = tmp_path / "suite_out"
    path = tmp_path / "suite.ini"
    path.write_text("[suite]\ndays = 2\nagents = rbc\n", encoding="utf-8")
    code = cli_main(["suite", "--config", str(path), "--out", str(out)])
    assert code == 0
    assert (out / "suite_table.csv").exists()


@pytest.mark.parametrize("price", ["flat", "dual"])
def test_cli_suite_name_prefixes_every_file(tmp_path, capsys, price):
    out = tmp_path / price
    code = cli_main(["suite", "--name", price, "--price", price, "--days", "2",
                     "--out", str(out)])
    assert code == 0
    extras = {"mbrl": ("model_mae",), "mfrl": ("qtrace",)}
    expected = {f"{price}_table.csv",
                *(f"{price}_{a}_{f}.csv" for a in AGENT_KINDS
                  for f in (a, "rbc_baseline", "metrics", *extras.get(a, ())))}
    assert {p.name for p in out.iterdir()} == expected


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


@pytest.mark.parametrize("line, reason", [
    ("1,5.0,21.0", "3 fields, not 8"),
    ("1.5,5.0,21.0,20.0,0.0,0.24,0.0,0.0", "invalid literal for int()"),
    ("1,5.0,warm,20.0,0.0,0.24,0.0,0.0", "could not convert string to float"),
    ("1,5.0,nan,20.0,0.0,0.24,0.0,0.0", "non-finite or out-of-range value"),
    (f"{2**63},5.0,21.0,20.0,0.0,0.24,0.0,0.0", "non-finite or out-of-range value"),
    ("2,5.0,21.0,20.0,0.0,0.24,0.0,0.0", "hour 2 after 0"),
])
def test_cli_plot_rejects_malformed_log(tmp_path, capsys, line, reason):
    path = tmp_path / "episode.csv"
    path.write_text("hour,t_a,t_i,t_mass,power_w,price,r_cons,r_comfort\n"
                    f"0,5.0,21.0,20.0,0.0,0.24,0.0,0.0\n{line}\n", encoding="utf-8")
    code = cli_main(["plot", "--kind", "temperature_trace", "--log", str(path),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert f"{path} line 3: " in error and reason in error
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind, line, reason", [
    ("model_mae", "3,x", "line 3: could not convert string to float"),
    ("temperature_trace", "1,5.0,21.0", "line 3: 3 fields, not 8"),
    ("action_histogram", "1,5.0,21.0", "line 3: 3 fields, not 8"),
    ("hourly_action_heatmap", "1,5.0,21.0", "line 3: 3 fields, not 8"),
    ("hourly_action_heatmap", "1,5.0,21.0,20.0,300.0,0.24,0.0,0.0",
     "power 300.0 W not on the action grid"),
])
def test_cli_plot_creates_no_directory_for_a_rejected_log(tmp_path, capsys, kind, line, reason):
    header = ("day,holdout_mae_c\n2,0.7\n" if kind == "model_mae" else
              "hour,t_a,t_i,t_mass,power_w,price,r_cons,r_comfort\n"
              "0,5.0,21.0,20.0,0.0,0.24,0.0,0.0\n")
    path = tmp_path / "log.csv"
    path.write_text(f"{header}{line}\n", encoding="utf-8")
    out = tmp_path / "plots"
    assert cli_main(["plot", "--kind", kind, "--log", str(path), "--out", str(out)]) == 2
    assert reason in json.loads(capsys.readouterr().err.strip())["error"]
    assert not out.exists()


@pytest.mark.parametrize("text, hour", [("[ambient]\nmean_c = 10000\n", 3),
                                        ("[building]\ncop = 1e300\n", 24)])
def test_cli_names_the_hour_and_temperature_of_a_comfort_overflow(tmp_path, capsys, text,
                                                                   hour):
    path = _ini(tmp_path, text)
    out = tmp_path / "out"
    assert cli_main(["run", "--scenario", str(path), "--days", "3", "--out", str(out)]) == 2
    [line] = capsys.readouterr().err.strip().splitlines()
    assert re.fullmatch(rf"hour {hour}: indoor temperature \S+ degC is too far from the "
                        "comfort band to score", json.loads(line)["error"])
    assert not out.exists()


def test_episode_csv_round_trips_byte_for_byte(tmp_path):
    scenario = Scenario(name="trip", days=2, agent="mfrl", tariff_kind="real_time", seed=7)
    text = Path(run_scenario(scenario, tmp_path).agent_log_path).read_text(encoding="utf-8")
    again = tmp_path / "again.csv"
    EpisodeLog.read_csv(tmp_path / "trip_mfrl.csv").write_csv(again)
    assert again.read_text(encoding="utf-8") == text
    assert not [f for line in text.splitlines() for f in line.split(",") if f.startswith("np.")]
