"""Traces are read-only float64 arrays whose bits match the tuples they were
once built as, and `simulate` is the one place that checks the traces it is
given: their length, finiteness and, for prices, sign."""

import math
import re

import numpy as np
import pytest

from heatbench.emulator import AmbientGenParams, make_synthetic_ambient
from heatbench.harness import Scenario, build_traces, run_scenario, simulate
from heatbench.mdp import TariffConfig, make_tariff

_DAILY_PHASE_HOUR = 9.0


def _tuple_tariff(kind, hours, config, seed):
    """Prices as the tuple construction built them."""
    if kind == "flat":
        return (config.flat_price,) * hours
    if kind == "dual":
        return tuple(config.day_price
                     if config.day_start_hour <= (h % 24) < config.day_end_hour
                     else config.night_price
                     for h in range(hours))
    rng = np.random.default_rng(seed)
    walk = np.empty(hours)
    p = config.rtp_base
    for h in range(hours):
        p = float(np.clip(p + rng.uniform(-config.rtp_step, config.rtp_step),
                          config.rtp_min, config.rtp_max))
        walk[h] = p
    return tuple(walk.tolist())


def _tuple_ambient(seed, days, g):
    """Ambient temperatures as the tuple construction built them."""
    hours = days * 24
    rng = np.random.default_rng(seed)
    h = np.arange(hours, dtype=float)
    frac = h / (hours - 1) if hours > 1 else np.zeros(1)
    drift = g.drift_start_c + (g.drift_end_c - g.drift_start_c) * frac
    daily = g.daily_amplitude_c * np.sin(
        2.0 * np.pi * (np.mod(h, 24.0) - _DAILY_PHASE_HOUR) / 24.0)
    noise = np.zeros(hours)
    if g.noise_sigma_c > 0.0:
        innovations = rng.normal(0.0, g.noise_sigma_c, size=hours)
        x = 0.0
        for k in range(hours):
            x = g.ar1_coeff * x + innovations[k]
            noise[k] = x
    return tuple(float(t) for t in g.mean_c + drift + daily + noise)


def _assert_same_bits(trace, values):
    assert trace.dtype == np.float64 and trace.shape == (len(values),)
    assert np.array_equal(trace.view(np.int64), np.array(values).view(np.int64))
    assert not trace.flags.writeable  # a suite hands one pair to every agent
    with pytest.raises(ValueError):
        trace[0] = 0.0


@pytest.mark.parametrize("kind, config, seed", [
    ("flat", TariffConfig(), 0),
    ("flat", TariffConfig(flat_price=0.1 + 0.2), 0),
    ("dual", TariffConfig(), 0),
    ("dual", TariffConfig(day_start_hour=0, day_end_hour=24), 0),
    ("real_time", TariffConfig(), 3),
    ("real_time", TariffConfig(rtp_step=0.07), 11),
], ids=["flat", "flat-inexact", "dual-7-22", "dual-0-24", "real-time-3", "real-time-11"])
def test_make_tariff_keeps_the_bits_of_the_tuple_construction(kind, config, seed):
    _assert_same_bits(make_tariff(kind, 24 * 9 + 5, config, seed),
                      _tuple_tariff(kind, 24 * 9 + 5, config, seed))


@pytest.mark.parametrize("params", [AmbientGenParams(), AmbientGenParams(noise_sigma_c=0.0),
                                    AmbientGenParams(ar1_coeff=0.0, daily_amplitude_c=-2.5)],
                         ids=["default", "no-noise", "white-noise"])
@pytest.mark.parametrize("seed, days", [(0, 1), (7, 31)])
def test_synthetic_ambient_keeps_the_bits_of_the_tuple_construction(params, seed, days):
    _assert_same_bits(make_synthetic_ambient(seed, days, params),
                      _tuple_ambient(seed, days, params))


def test_simulate_takes_any_float_sequences():
    scenario = Scenario(days=2, agent="rbc", seed=4, tariff_kind="dual")
    ambient, prices = build_traces(scenario)
    log, _ = simulate(scenario, "rbc", ambient, prices)
    from_lists, _ = simulate(scenario, "rbc", ambient.tolist(), tuple(prices.tolist()))
    assert log.steps.tobytes() == from_lists.steps.tobytes()


@pytest.mark.parametrize("name, keep, value, message", [
    ("ambient", 48, None, "ambient trace must hold at least 49 hourly values, got shape (48,)"),
    ("prices", 47, None, "prices trace must hold at least 48 hourly values, got shape (47,)"),
    ("ambient", None, math.nan, "ambient trace must be in [-90, 60], got nan at hour 30"),
    ("ambient", None, math.inf, "ambient trace must be in [-90, 60], got inf at hour 30"),
    ("ambient", None, -math.inf, "ambient trace must be in [-90, 60], got -inf at hour 30"),
    ("ambient", None, 200.0, "ambient trace must be in [-90, 60], got 200.0 at hour 30"),
    ("ambient", None, -90.5, "ambient trace must be in [-90, 60], got -90.5 at hour 30"),
    ("prices", None, math.nan, "prices trace must be in [1e-6, 100], got nan at hour 30"),
    ("prices", None, math.inf, "prices trace must be in [1e-6, 100], got inf at hour 30"),
    ("prices", None, 0.0, "prices trace must be in [1e-6, 100], got 0.0 at hour 30"),
    ("prices", None, -0.24, "prices trace must be in [1e-6, 100], got -0.24 at hour 30"),
    ("prices", None, 1e300, "prices trace must be in [1e-6, 100], got 1e+300 at hour 30"),
    ("prices", None, 5e-324, "prices trace must be in [1e-6, 100], got 5e-324 at hour 30"),
    ("prices", None, 100.5, "prices trace must be in [1e-6, 100], got 100.5 at hour 30"),
], ids=["short-ambient", "short-prices", "nan-ambient", "inf-ambient", "minus-inf-ambient",
        "hot-ambient", "cold-ambient", "nan-price", "inf-price", "zero-price",
        "negative-price", "huge-price", "subnormal-price", "over-cap-price"])
def test_simulate_rejects_bad_traces_naming_them(name, keep, value, message):
    scenario = Scenario(days=2, agent="rbc", seed=0)
    traces = dict(zip(("ambient", "prices"), build_traces(scenario)))
    trace = traces[name] = traces[name].tolist()[:keep]
    if value is not None:
        trace[30] = value
    with pytest.raises(ValueError, match=re.escape(message)):
        simulate(scenario, "rbc", **traces)


def test_run_scenario_rejects_an_ambient_csv_without_an_hour_beyond_the_run(tmp_path):
    path = tmp_path / "ambient.csv"
    path.write_text("hour,temp_c\n" + "".join(f"{h},5.0\n" for h in range(48)),
                    encoding="utf-8")
    with pytest.raises(ValueError, match="ambient trace must hold at least 49 hourly values"):
        run_scenario(Scenario(days=2, ambient_csv=str(path)), tmp_path / "out")
    assert not (tmp_path / "out").exists()
