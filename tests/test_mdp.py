import functools
import math
import operator
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from heatbench.emulator import load_ambient_csv
from heatbench.mdp import (_ABOVE_GROWTH, _ABOVE_SCALE, _BELOW_GROWTH, _BELOW_SCALE,
                           ActionGrid, BandSchedule, ComfortBand, EpisodeLog,
                           TariffConfig, comfort_reward, comfort_reward_batch,
                           consumption_reward, encode_state, log_metrics, make_tariff,
                           read_rows, write_rows)

BAND = ComfortBand(19.0, 23.0)


def test_encode_state_windows_newest_first():
    obs = encode_state([21.0, 20.0, 19.0, 18.0], ambient_c=5.0, n=2)
    assert obs.tolist() == [21.0, 20.0, 19.0, 5.0]


def test_encode_state_degenerate_window():
    obs = encode_state([20.0], ambient_c=3.0, n=0)
    assert obs.tolist() == [20.0, 3.0]


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


def _masked_comfort(temps, band):
    """Reference batch penalty: boolean-mask gathers and scatters."""
    out = np.zeros_like(temps, dtype=float)
    above = temps > band.t_max
    below = temps < band.t_min
    out[above] = -_ABOVE_SCALE * _ABOVE_GROWTH ** (temps[above] - band.t_max)
    out[below] = -_BELOW_SCALE * _BELOW_GROWTH ** (band.t_min - temps[below])
    out[np.isnan(temps)] = -np.inf
    return out


def _comfort_inputs():
    """C-ordered, transposed and strided 2-D arrays and 1-D arrays over the band
    edges, one ulp either side of them, non-finite values and random ones."""
    edges = [BAND.t_min, BAND.t_max]
    special = edges + [np.nextafter(t, d) for t in edges for d in (-np.inf, np.inf)]
    special += [np.nan, np.inf, -np.inf, 21.0]
    rng = np.random.default_rng(0)
    grid = rng.uniform(10.0, 32.0, size=(12, 10))
    grid.flat[rng.permutation(grid.size)[:len(special) * 4]] = np.repeat(special, 4)
    return {"c_order": grid, "f_order": grid.T, "strided": grid[::2, ::3],
            "one_d": grid.ravel(), "one_d_strided": grid.ravel()[::3]}


@pytest.mark.parametrize("layout", ["c_order", "f_order", "strided", "one_d", "one_d_strided"])
def test_comfort_batch_equals_masked_reference_bit_for_bit(layout):
    temps = _comfort_inputs()[layout]
    got = comfort_reward_batch(temps, BAND)
    want = _masked_comfort(temps, BAND)
    assert got.shape == temps.shape
    bits = [np.ascontiguousarray(a).view(np.int64) for a in (got, want)]
    assert np.array_equal(*bits)
    assert (temps < BAND.t_min).any() and (temps > BAND.t_max).any()


def test_action_grid_validation():
    with pytest.raises(ValueError):
        ActionGrid((400.0, 800.0))  # must start at 0
    with pytest.raises(ValueError):
        ActionGrid((0.0, 400.0, 400.0))  # strictly increasing
    assert ActionGrid().levels_w == (0.0, 400.0, 800.0, 1200.0, 1600.0, 2000.0)


@pytest.mark.parametrize("level", [math.nan, math.inf])
def test_action_grid_rejects_non_finite_levels(level):
    with pytest.raises(ValueError, match="levels_w must be finite"):
        ActionGrid((0.0, level))


def test_make_tariff_flat():
    tariff = make_tariff("flat", 3, TariffConfig(flat_price=0.24))
    assert tariff.tolist() == [0.24, 0.24, 0.24]


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
    assert np.array_equal(a, b)
    assert not np.array_equal(a, make_tariff("real_time", 24, cfg, seed=12))
    assert np.all((cfg.rtp_min <= a) & (a <= cfg.rtp_max))


def test_tariff_rejects_bad_config():
    with pytest.raises(ValueError):
        TariffConfig(flat_price=-0.1)
    with pytest.raises(ValueError):
        make_tariff("flat", 0)
    with pytest.raises(ValueError):
        make_tariff("hourly", 24)


@given(price=st.one_of(st.sampled_from([math.inf, -math.inf, math.nan, 0.0]),
                       st.floats(max_value=0.0)),
       field=st.sampled_from(["flat_price", "day_price", "night_price", "rtp_base",
                              "rtp_min", "rtp_max"]))
def test_tariff_rejects_non_finite_or_non_positive_prices(price, field):
    with pytest.raises(ValueError, match=field):
        TariffConfig(**{field: price})



@given(low=st.floats(0.01, 1.0), gap=st.floats(1e-6, 1.0))
def test_tariff_rejects_inverted_rtp_bounds(low, gap):
    with pytest.raises(ValueError, match="rtp_min must not exceed rtp_max"):
        TariffConfig(rtp_min=low + gap, rtp_max=low)
    TariffConfig(rtp_min=low, rtp_max=low)  # a constant real_time price is allowed


@given(step=st.one_of(st.sampled_from([math.inf, -math.inf, math.nan]),
                      st.floats(max_value=-1e-300)))
def test_tariff_rejects_negative_or_non_finite_rtp_step(step):
    with pytest.raises(ValueError, match=r"rtp_step must be in \[0, 100\]"):
        TariffConfig(rtp_step=step)

def _make_log(powers, price=0.24, t_i=21.0):
    r_comf = comfort_reward(t_i, BAND)
    return EpisodeLog([(hour, 5.0, t_i, 20.0, p, price, consumption_reward(p, price), r_comf)
                       for hour, p in enumerate(powers)])


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
    rows = _make_log([0.0, 400.0]).steps.tolist()
    with pytest.raises(ValueError, match="contiguous"):
        EpisodeLog(rows + [(5, 5.0, 21.0, 20.0, 0.0, 0.24, 0.0, 0.0)])
    with pytest.raises(ValueError, match="one row per hour"):  # lists broadcast to 2-D
        EpisodeLog([list(row) for row in rows])


def test_episode_log_csv_round_trip(tmp_path):
    log = _make_log([0.0, 400.0, 2000.0])
    path = tmp_path / "log.csv"
    log.write_csv(path)
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == "hour,t_a,t_i,t_mass,power_w,price,r_cons,r_comfort"
    again = EpisodeLog.read_csv(path)
    assert np.array_equal(again.steps, log.steps)


def test_slice_hours_without_end_runs_through_the_last_hour():
    tail = _make_log([0.0] * 48).slice_hours(24)
    assert tail.steps.hour.tolist() == list(range(24, 48))
    assert tail.slice_hours(30).steps.hour.tolist() == list(range(30, 48))
    assert tail.slice_hours(30, 40).steps.hour.tolist() == list(range(30, 40))


def _left_to_right(terms):
    return functools.reduce(operator.add, terms, 0.0)


# left to right this sums to 0.0; compensated summation (3.12 sum(), fsum) gives 2.0
CANCELLING = np.array([1.0, 1e100, 1.0, -1e100])
# a comfort column on which np.sum's pairwise order differs from left to right
SEEDED_COMFORT = -4.0 * 1.35 ** np.random.default_rng(0).uniform(0.0, 3.0, 1000)


@pytest.mark.parametrize("column", [CANCELLING, SEEDED_COMFORT], ids=["cancelling", "seeded"])
def test_totals_sum_hours_left_to_right(column):
    log = EpisodeLog([(h, 5.0, 21.0, 20.0, -1000.0 * c, 1.0, 0.0, c)
                      for h, c in enumerate(column.tolist())])
    kwh = (log.steps.power_w / 1000.0).tolist()
    for terms, total in ((kwh, log.total_kwh()), (kwh, log.total_cost_eur()),
                         (column.tolist(), -log.total_comfort_eur())):
        assert _left_to_right(terms) != math.fsum(terms)  # the orders are told apart
        assert type(total) is float and total == _left_to_right(terms)
    assert _left_to_right(SEEDED_COMFORT.tolist()) != float(np.sum(SEEDED_COMFORT))


def test_comfort_total_of_a_clean_log_is_positive_zero():
    clean = EpisodeLog([(h, 5.0, 21.0, 20.0, 400.0, 0.2, -0.08, 0.0) for h in range(3)])
    assert math.copysign(1.0, clean.total_comfort_eur()) == 1.0
    assert math.copysign(1.0, EpisodeLog([]).total_comfort_eur()) == 1.0
    penalised = EpisodeLog([(0, 5.0, 18.0, 20.0, 0.0, 0.2, 0.0, -4.5),
                            (1, 5.0, 21.0, 20.0, 0.0, 0.2, 0.0, 0.0)])
    assert penalised.total_comfort_eur() == 4.5


def test_band_schedule_lookup():
    schedule = BandSchedule(((0, ComfortBand(19, 23)), (100, ComfortBand(21, 25))))
    assert schedule.band_at(0).t_min == 19
    assert schedule.band_at(99).t_min == 19
    assert schedule.band_at(100).t_min == 21
    assert schedule.band_at(5000).t_min == 21
    with pytest.raises(ValueError):
        BandSchedule(((5, ComfortBand(19, 23)),))


@pytest.mark.parametrize("history, ambient", [
    ([math.nan, 20.0], 5.0), ([20.0, math.inf], 5.0), ([-math.inf, 20.0], 5.0),
    ([20.0, 20.0], math.nan), ([20.0, 20.0], math.inf), ([20.0, 20.0], -math.inf),
], ids=["nan_now", "inf_past", "neg_inf_now", "nan_ambient", "inf_ambient",
        "neg_inf_ambient"])
def test_encode_state_rejects_non_finite(history, ambient):
    with pytest.raises(ValueError, match="must be finite"):
        encode_state(history, ambient, n=1)


@pytest.mark.parametrize("ambient_line, episode_line, reason", [
    ("1", "1", "1 fields, not "),
    ("1,warm", "1,warm,21.0,20.0,0.0,0.24,0.0,0.0", "could not convert string to float: 'warm'"),
    ("1,nan", "1,nan,21.0,20.0,0.0,0.24,0.0,0.0",
     "non-finite or out-of-range value in ['1', 'nan'"),
    ("2,5.0", "2,5.0,21.0,20.0,0.0,0.24,0.0,0.0", "hour 2 after 0"),
], ids=["short_row", "not_a_number", "nan", "skipped_hour"])
def test_ambient_and_episode_readers_report_a_bad_line_alike(tmp_path, ambient_line,
                                                             episode_line, reason):
    ambient = tmp_path / "ambient.csv"
    ambient.write_text(f"hour,temp_c\n0,5.0\n{ambient_line}\n", encoding="utf-8")
    episode = tmp_path / "episode.csv"
    episode.write_text("hour,t_a,t_i,t_mass,power_w,price,r_cons,r_comfort\n"
                       f"0,5.0,21.0,20.0,0.0,0.24,0.0,0.0\n{episode_line}\n", encoding="utf-8")
    for read, path in ((load_ambient_csv, ambient), (EpisodeLog.read_csv, episode)):
        with pytest.raises(ValueError) as info:
            read(path)
        assert str(info.value).startswith(f"{path} line 3: {reason}")


def test_ambient_hours_start_at_zero(tmp_path):
    path = tmp_path / "late.csv"
    path.write_text("hour,temp_c\n1,5.0\n2,4.5\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path} line 2: hour 1, not 0")):
        load_ambient_csv(path)


def test_write_rows_quotes_only_text_that_needs_it(tmp_path):
    path = tmp_path / "rows.csv"
    write_rows(path, ("hour", "value", "note"), [(0, 0.1, "ok"), (1, 1e-300, "a, b")])
    assert path.read_text(encoding="utf-8") == 'hour,value,note\n0,0.1,ok\n1,1e-300,"a, b"\n'
    write_rows(path, ("hour", "value"), [(0, 0.1), (1, -2.5)])
    assert read_rows(path, ("hour", "value")) == [(0, 0.1), (1, -2.5)]
