import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from heatbench.mdp import (ActionGrid, BandSchedule, ComfortBand, EpisodeLog,
                           ObservedState, RewardComponents, StepRecord, TariffConfig,
                           comfort_reward, comfort_reward_batch, consumption_reward,
                           encode_state, log_metrics, make_tariff)

BAND = ComfortBand(19.0, 23.0)


def test_encode_state_windows_newest_first():
    obs = encode_state([21.0, 20.0, 19.0, 18.0], ambient_c=5.0, n=2)
    assert obs.indoor_history == (21.0, 20.0, 19.0)
    assert obs.ambient_now == 5.0


def test_encode_state_degenerate_window():
    obs = encode_state([20.0], ambient_c=3.0, n=0)
    assert obs.indoor_history == (20.0,)
    assert obs.ambient_now == 3.0


def test_encode_state_short_history_rejected():
    with pytest.raises(ValueError):
        encode_state([20.0, 19.0], ambient_c=3.0, n=2)


def test_consumption_reward_values():
    assert consumption_reward(2000.0, 0.05) == pytest.approx(-0.10)
    assert consumption_reward(0.0, 0.31) == 0.0
    assert consumption_reward(400.0, 0.28) == pytest.approx(-0.112)
    with pytest.raises(ValueError):
        consumption_reward(-1.0, 0.2)
    with pytest.raises(ValueError):
        consumption_reward(100.0, 0.0)


def test_comfort_reward_values():
    assert comfort_reward(21.0, BAND) == 0.0
    assert comfort_reward(19.0, BAND) == 0.0  # boundary is inside
    assert comfort_reward(23.0, BAND) == 0.0
    assert comfort_reward(18.0, BAND) == pytest.approx(-5.4)
    assert comfort_reward(24.0, BAND) == pytest.approx(-3.9)


def test_comfort_asymmetry_below_band_hurts_more():
    assert abs(comfort_reward(18.0, BAND)) > abs(comfort_reward(24.0, BAND))


@given(t=st.floats(19.0, 23.0))
def test_comfort_zero_inside_band(t):
    assert comfort_reward(t, BAND) == 0.0


@given(t=st.floats(-30.0, 18.999))
def test_comfort_negative_below_band(t):
    assert comfort_reward(t, BAND) < 0.0


@given(t=st.floats(23.001, 60.0))
def test_comfort_negative_above_band(t):
    assert comfort_reward(t, BAND) < 0.0


@given(t=st.floats(-20.0, 18.5), d=st.floats(0.1, 5.0))
def test_comfort_monotone_away_from_band(t, d):
    assert comfort_reward(t - d, BAND) < comfort_reward(t, BAND)
    above = 42.0 - t  # mirror into the above-band region
    assert comfort_reward(above + d, BAND) < comfort_reward(above, BAND)


@given(t=st.floats(-30.0, 60.0, allow_nan=False))
def test_comfort_batch_matches_scalar(t):
    batch = comfort_reward_batch(np.array([t]), BAND)
    assert batch[0] == pytest.approx(comfort_reward(t, BAND), rel=1e-12, abs=1e-12)


def test_comfort_batch_non_finite_is_minus_infinity():
    temps = np.array([np.nan, np.inf, -np.inf, 21.0])
    assert comfort_reward_batch(temps, BAND).tolist() == [-np.inf] * 3 + [0.0]


def test_action_grid_validation():
    with pytest.raises(ValueError):
        ActionGrid((400.0, 800.0))  # must start at 0
    with pytest.raises(ValueError):
        ActionGrid((0.0, 400.0, 400.0))  # strictly increasing
    assert ActionGrid().levels_w == (0.0, 400.0, 800.0, 1200.0, 1600.0, 2000.0)


def test_make_tariff_flat():
    tariff = make_tariff("flat", 3, TariffConfig(flat_price=0.24))
    assert tariff.prices == (0.24, 0.24, 0.24)


def test_make_tariff_dual_day_boundary():
    cfg = TariffConfig(day_price=0.28, night_price=0.20, day_start_hour=7, day_end_hour=22)
    tariff = make_tariff("dual", 48, cfg)
    assert tariff[6] == 0.20
    assert tariff[7] == 0.28
    assert tariff[21] == 0.28
    assert tariff[22] == 0.20
    assert tariff[31] == 0.28  # hour 7 of day 2


def test_make_tariff_real_time_deterministic():
    cfg = TariffConfig()
    a = make_tariff("real_time", 24, cfg, seed=11)
    b = make_tariff("real_time", 24, cfg, seed=11)
    assert a.prices == b.prices
    assert a.prices != make_tariff("real_time", 24, cfg, seed=12).prices
    assert all(cfg.rtp_min <= p <= cfg.rtp_max for p in a.prices)


def test_tariff_rejects_bad_config():
    with pytest.raises(ValueError):
        TariffConfig(flat_price=-0.1)
    with pytest.raises(ValueError):
        make_tariff("flat", 0)
    with pytest.raises(ValueError):
        make_tariff("hourly", 24)


def test_reward_components_invariants():
    r = RewardComponents(-0.1, -5.4)
    assert r.total == pytest.approx(-5.5)
    with pytest.raises(ValueError):
        RewardComponents(0.1, 0.0)


def _make_log(powers, price=0.24, t_i=21.0):
    log = EpisodeLog()
    for hour, p in enumerate(powers):
        r_cons = consumption_reward(p, price)
        r_comf = comfort_reward(t_i, BAND)
        log.append(StepRecord(hour, 5.0, t_i, 20.0, p, price, r_cons, r_comf))
    return log


def test_log_metrics_self_comparison_is_zero():
    log = _make_log([400.0, 800.0, 0.0, 1200.0])
    cons, cost, comfort = log_metrics(log, log)
    assert cons == 0.0 and cost == 0.0
    assert comfort == 0.0


def test_log_metrics_arithmetic():
    base = _make_log([1000.0] * 100)  # 100 kWh
    agent = _make_log([912.0] * 100)  # 91.2 kWh
    cons, cost, comfort = log_metrics(agent, base)
    assert cons == pytest.approx(-8.8)
    assert cost == pytest.approx(-8.8)
    assert comfort == 0.0


def test_log_metrics_flat_tariff_identity():
    base = _make_log([1000.0, 400.0, 800.0, 1600.0, 0.0, 2000.0])
    agent = _make_log([800.0, 400.0, 400.0, 1200.0, 400.0, 1600.0])
    cons, cost, _ = log_metrics(agent, base)
    assert cost == pytest.approx(cons, rel=1e-12)


def test_log_metrics_comfort_is_agent_side():
    base = _make_log([1000.0] * 4)
    agent = _make_log([1000.0] * 4, t_i=18.0)
    _, _, comfort = log_metrics(agent, base)
    assert comfort == pytest.approx(4 * 5.4)


def test_log_metrics_rejects_mismatched_traces():
    a = _make_log([400.0] * 3)
    b = _make_log([400.0] * 4)
    with pytest.raises(ValueError):
        log_metrics(a, b)
    c = _make_log([400.0] * 3, price=0.30)
    with pytest.raises(ValueError):
        log_metrics(a, c)


def test_episode_log_requires_contiguous_hours():
    log = _make_log([0.0, 400.0])
    with pytest.raises(ValueError):
        log.append(StepRecord(5, 5.0, 21.0, 20.0, 0.0, 0.24, 0.0, 0.0))


def test_episode_log_csv_round_trip(tmp_path):
    log = _make_log([0.0, 400.0, 2000.0])
    path = tmp_path / "log.csv"
    log.write_csv(path)
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == "hour,t_a,t_i,t_mass,power_w,price,r_cons,r_comfort"
    again = EpisodeLog.read_csv(path)
    assert again.steps == log.steps


def test_band_schedule_lookup():
    schedule = BandSchedule(((0, ComfortBand(19, 23)), (100, ComfortBand(21, 25))))
    assert schedule.band_at(0).t_min == 19
    assert schedule.band_at(99).t_min == 19
    assert schedule.band_at(100).t_min == 21
    assert schedule.band_at(5000).t_min == 21
    with pytest.raises(ValueError):
        BandSchedule(((5, ComfortBand(19, 23)),))


def test_observed_state_rejects_non_finite():
    with pytest.raises(ValueError):
        ObservedState((float("nan"),), 5.0)
