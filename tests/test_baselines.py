import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from heatbench.baselines import MpcConfig, MpcController, RbcConfig, rbc_action
from heatbench.emulator import BuildingParams, BuildingState, step
from heatbench.harness import Scenario, build_traces, simulate
from heatbench.mdp import ActionGrid, ComfortBand, ObservedState, log_metrics

PARAMS = BuildingParams()
GRID = ActionGrid()
BAND = ComfortBand(19.0, 23.0)

# Largest dip below t_min ever produced by the hourly zero-hysteresis
# thermostat on the canonical 60-day trace; measured once and frozen.
RBC_UNDERSHOOT_BOUND_C = 3.2


def test_rbc_triggers_below_hysteresis_threshold():
    cfg = RbcConfig(hysteresis_c=0.5)
    assert rbc_action(18.4, BAND, cfg, GRID) == GRID.max_index  # 18.4 < 18.5
    assert rbc_action(18.6, BAND, cfg, GRID) == 0


def test_rbc_no_cooling_above_band():
    assert rbc_action(25.0, BAND, RbcConfig(0.5), GRID) == 0


def test_rbc_rejects_negative_hysteresis():
    with pytest.raises(ValueError):
        RbcConfig(hysteresis_c=-0.1)


@given(t=st.floats(-10.0, 40.0), h=st.floats(0.0, 2.0))
def test_rbc_output_is_bang_bang(t, h):
    action = rbc_action(t, BAND, RbcConfig(h), GRID)
    assert GRID.levels_w[action] in (0.0, PARAMS.max_power_w)


def test_rbc_undershoot_regression_bound():
    scenario = Scenario(days=60, agent="rbc", seed=0, rbc=RbcConfig(hysteresis_c=0.0))
    trace, tariff = build_traces(scenario)
    log, _ = simulate(scenario, "rbc", trace, tariff)
    coldest = min(r.t_i for r in log.slice_hours(24).steps)
    assert coldest >= BAND.t_min - RBC_UNDERSHOOT_BOUND_C


def _controller(planner="exhaustive", horizon=3):
    return MpcController(PARAMS, GRID, MpcConfig(planner=planner, horizon=horizon),
                         np.random.default_rng(0))


def test_mpc_idles_when_warm_and_mild():
    mpc = _controller(horizon=3)
    state = BuildingState(22.5, 22.5, 0)
    obs = ObservedState((22.5,) * 4, 14.0)
    action = mpc.decide(state, obs, [0.24] * 3, [14.0] * 3, BAND)
    assert action == 0


def test_mpc_preheats_before_expensive_block():
    # last cheap hour before a long expensive block, building near the
    # lower bound: the oracle shifts heating into the cheap hour
    mpc = _controller(horizon=4)
    state = BuildingState(19.3, 20.0, 0)
    obs = ObservedState((19.3,) * 4, 0.0)
    action = mpc.decide(state, obs, [0.20, 0.45, 0.45, 0.45], [0.0] * 4, BAND)
    assert action > 0


def test_mpc_full_power_when_only_that_avoids_violation():
    mpc = _controller(horizon=1)
    state = BuildingState(14.0, 15.0, 0)
    obs = ObservedState((14.0,) * 4, -15.0)
    action = mpc.decide(state, obs, [0.24], [-15.0], BAND)
    assert action == GRID.max_index


def test_mpc_requires_lookahead():
    mpc = _controller()
    state = BuildingState(20.0, 20.0, 0)
    obs = ObservedState((20.0,) * 4, 5.0)
    with pytest.raises(ValueError):
        mpc.decide(state, obs, [], [], BAND)


def test_mpc_config_validation():
    with pytest.raises(ValueError):
        MpcConfig(planner="dp")
    with pytest.raises(ValueError):
        MpcConfig(horizon=0)


def test_mpc_cost_at_most_rbc_cost():
    # MPC can always reproduce the thermostat's feasible behaviour, so on
    # a shared trace it never pays more
    scenario = Scenario(days=10, agent="rbc", seed=4)
    trace, tariff = build_traces(scenario)
    rbc_log, _ = simulate(scenario, "rbc", trace, tariff)
    mpc_log, _ = simulate(scenario, "mpc", trace, tariff)
    cons, cost, comfort = log_metrics(mpc_log.slice_hours(24), rbc_log.slice_hours(24))
    assert cost <= 0.0
    assert comfort == pytest.approx(0.0, abs=1e-9)


def test_mpc_warm_start_keeps_determinism():
    scenario = Scenario(days=3, agent="mpc", seed=11)
    trace, tariff = build_traces(scenario)
    a, _ = simulate(scenario, "mpc", trace, tariff)
    b, _ = simulate(scenario, "mpc", trace, tariff)
    assert np.array_equal(a.steps, b.steps)
