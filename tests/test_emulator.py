import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatbench.emulator import (AmbientGenParams, BackupConfig, BuildingParams,
                                BuildingState, hour_affine_map, load_ambient_csv,
                                make_synthetic_ambient, step)

DEFAULT = BuildingParams()

# Frozen reference for one hour at (T_i=20, T_m=20), ambient 5 C, 2000 W:
# computed once with an independent 1 s explicit-Euler integrator and
# cross-checked against the closed-form matrix-exponential solution.
REFERENCE_TI_NEXT = 26.26448940131419


def fine_step_oracle(t_i, t_m, ambient, power, params=DEFAULT, dt=1.0):
    """Independent reference integrator at 1 s resolution."""
    heat = params.cop * power
    for _ in range(int(3600 / dt)):
        d_i = (params.ambient_conductance * (ambient - t_i)
               + params.envelope_conductance * (t_m - t_i) + heat) / params.indoor_capacitance
        d_m = params.envelope_conductance * (t_i - t_m) / params.envelope_capacitance
        t_i += dt * d_i
        t_m += dt * d_m
    return t_i, t_m


def closed_form_oracle(t_i, t_m, ambient, power, params=DEFAULT):
    """Exact continuous-time solution via the matrix exponential."""
    from scipy.linalg import expm

    a = np.array([
        [-(params.ambient_conductance + params.envelope_conductance) / params.indoor_capacitance,
         params.envelope_conductance / params.indoor_capacitance],
        [params.envelope_conductance / params.envelope_capacitance,
         -params.envelope_conductance / params.envelope_capacitance],
    ])
    b = np.array([(params.ambient_conductance * ambient + params.cop * power)
                  / params.indoor_capacitance, 0.0])
    e = expm(a * 3600.0)
    x = e @ np.array([t_i, t_m]) + np.linalg.solve(a, (e - np.eye(2)) @ b)
    return x[0], x[1]


def test_equilibrium_is_fixed_point():
    state = BuildingState(20.0, 20.0, 0)
    nxt, applied = step(state, DEFAULT, ambient_c=20.0, power_w=0.0)
    assert nxt.indoor_temp == 20.0
    assert nxt.envelope_temp == 20.0
    assert applied == 0.0
    assert nxt.clock == 1


def test_cooling_toward_cold_ambient():
    nxt, _ = step(BuildingState(21.0, 21.0, 0), DEFAULT, ambient_c=0.0, power_w=0.0)
    assert nxt.indoor_temp < 21.0


def test_heating_step_matches_frozen_reference():
    oracle_ti, _ = fine_step_oracle(20.0, 20.0, 5.0, 2000.0)
    assert oracle_ti == pytest.approx(REFERENCE_TI_NEXT, abs=1e-9)
    exact_ti, _ = closed_form_oracle(20.0, 20.0, 5.0, 2000.0)
    assert exact_ti == pytest.approx(REFERENCE_TI_NEXT, abs=1e-3)

    nxt, _ = step(BuildingState(20.0, 20.0, 0), DEFAULT, ambient_c=5.0, power_w=2000.0)
    assert nxt.indoor_temp == pytest.approx(REFERENCE_TI_NEXT, abs=0.01)


def test_backup_overrides_to_full_power_below_low_trip():
    backup = BackupConfig(enabled=True, low_trip=19.0, high_trip=23.0)
    _, applied = step(BuildingState(18.0, 19.0, 0), DEFAULT, 5.0, 0.0, backup)
    assert applied == DEFAULT.max_power_w


def test_backup_overrides_to_zero_above_high_trip():
    backup = BackupConfig(enabled=True, low_trip=19.0, high_trip=23.0)
    _, applied = step(BuildingState(24.0, 22.0, 0), DEFAULT, 5.0, 2000.0, backup)
    assert applied == 0.0


def test_step_rejects_bad_inputs():
    state = BuildingState(20.0, 20.0, 0)
    with pytest.raises(ValueError):
        step(state, DEFAULT, float("nan"), 0.0)
    with pytest.raises(ValueError):
        step(state, DEFAULT, 5.0, -1.0)
    with pytest.raises(ValueError):
        step(state, DEFAULT, 5.0, DEFAULT.max_power_w + 1.0)
    with pytest.raises(ValueError):
        BuildingState(float("inf"), 20.0, 0)


def test_params_validation():
    with pytest.raises(ValueError):
        BuildingParams(indoor_capacitance=0.0)
    with pytest.raises(ValueError):
        BuildingParams(cop=0.5)
    with pytest.raises(ValueError):
        BuildingParams(substep_seconds=7)  # does not divide 3600
    with pytest.raises(ValueError, match="unstable sub-step"):
        BuildingParams(indoor_capacitance=1e5, substep_seconds=3600)
    with pytest.raises(ValueError):
        BackupConfig(enabled=True, low_trip=23.0, high_trip=19.0)


@settings(max_examples=60, deadline=None)
@given(c_i=st.floats(4.0, 7.0).map(lambda e: 10.0 ** e),
       c_m=st.floats(5.0, 8.0).map(lambda e: 10.0 ** e),
       u_a=st.floats(10.0, 500.0), h_m=st.floats(10.0, 1000.0),
       dt=st.sampled_from([10, 60, 300, 900, 3600]), ambient=st.floats(-20.0, 40.0))
def test_params_accepted_only_where_euler_stays_bounded(c_i, c_m, u_a, h_m, dt, ambient):
    kwargs = dict(indoor_capacitance=c_i, envelope_capacitance=c_m,
                  ambient_conductance=u_a, envelope_conductance=h_m, substep_seconds=dt)
    if not (dt * (u_a + h_m) < c_i and dt * h_m < c_m):
        with pytest.raises(ValueError, match="unstable sub-step"):
            BuildingParams(**kwargs)
        return
    params = BuildingParams(**kwargs)
    # a monotone update never leaves the box spanned by the start and the
    # full-power equilibrium
    lo = min(20.0, ambient)
    hi = max(20.0, ambient + params.cop * params.max_power_w / u_a)
    state = BuildingState(20.0, 20.0, 0)
    for _ in range(24):
        state, _ = step(state, params, ambient, params.max_power_w)
        assert lo - 1e-6 <= state.indoor_temp <= hi + 1e-6
        assert lo - 1e-6 <= state.envelope_temp <= hi + 1e-6


def test_affine_map_matches_loop_integrator():
    p_mat, s_vec = hour_affine_map(DEFAULT)
    for t_i, t_m, ambient, power in ((20.0, 20.0, 5.0, 2000.0), (15.0, 22.0, -10.0, 800.0)):
        drive = DEFAULT.ambient_conductance * ambient + DEFAULT.cop * power
        fast = p_mat @ np.array([t_i, t_m]) + s_vec * drive
        nxt, _ = step(BuildingState(t_i, t_m, 0), DEFAULT, ambient, power)
        assert fast[0] == pytest.approx(nxt.indoor_temp, abs=1e-9)
        assert fast[1] == pytest.approx(nxt.envelope_temp, abs=1e-9)


@given(t=st.floats(-20.0, 40.0))
def test_fixed_point_property(t):
    nxt, _ = step(BuildingState(t, t, 0), DEFAULT, ambient_c=t, power_w=0.0)
    assert nxt.indoor_temp == t and nxt.envelope_temp == t


@given(
    t_i=st.floats(5.0, 30.0), t_m=st.floats(5.0, 30.0),
    ambient=st.floats(-20.0, 40.0),
    p_low=st.floats(0.0, 1999.0), extra=st.floats(1.0, 2000.0),
)
def test_monotone_in_power(t_i, t_m, ambient, p_low, extra):
    p_high = min(p_low + extra, DEFAULT.max_power_w)
    lo, _ = step(BuildingState(t_i, t_m, 0), DEFAULT, ambient, p_low)
    hi, _ = step(BuildingState(t_i, t_m, 0), DEFAULT, ambient, p_high)
    assert hi.indoor_temp > lo.indoor_temp


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_bounded_under_admissible_inputs(seed):
    rng = np.random.default_rng(seed)
    upper = 40.0 + DEFAULT.cop * DEFAULT.max_power_w / DEFAULT.ambient_conductance
    state = BuildingState(20.0, 20.0, 0)
    for _ in range(300):
        ambient = rng.uniform(-20.0, 40.0)
        power = rng.uniform(0.0, DEFAULT.max_power_w)
        state, _ = step(state, DEFAULT, ambient, power)
        assert -20.0 <= state.indoor_temp <= upper
        assert -20.0 <= state.envelope_temp <= upper


def test_substep_refinement_below_tolerance():
    half = BuildingParams(substep_seconds=DEFAULT.substep_seconds // 2)
    for t_i, ambient, power in ((20.0, 5.0, 2000.0), (25.0, -15.0, 0.0), (15.0, 30.0, 1000.0)):
        coarse, _ = step(BuildingState(t_i, t_i, 0), DEFAULT, ambient, power)
        fine, _ = step(BuildingState(t_i, t_i, 0), half, ambient, power)
        assert abs(coarse.indoor_temp - fine.indoor_temp) < 0.01


@given(t_i=st.floats(10.0, 18.9), requested=st.sampled_from([0.0, 400.0, 1200.0]))
def test_backup_filter_property(t_i, requested):
    backup = BackupConfig(enabled=True, low_trip=19.0, high_trip=23.0)
    _, applied = step(BuildingState(t_i, t_i, 0), DEFAULT, 5.0, requested, backup)
    assert applied == DEFAULT.max_power_w


def test_synthetic_ambient_deterministic():
    a = make_synthetic_ambient(seed=7, days=2)
    b = make_synthetic_ambient(seed=7, days=2)
    assert np.array_equal(a, b)
    assert a.shape == (48,)


def test_synthetic_ambient_degenerate_constant():
    flat = AmbientGenParams(mean_c=6.0, drift_start_c=0.0, drift_end_c=0.0,
                            daily_amplitude_c=0.0, noise_sigma_c=0.0)
    trace = make_synthetic_ambient(seed=0, days=2, gen_params=flat)
    assert np.all(trace == 6.0)


def test_synthetic_ambient_yearly_scan_within_bounds():
    temps = make_synthetic_ambient(seed=0, days=150)
    # mean 6, drift -4..+6, daily +-4, AR(1) stationary spread ~2.3 C
    assert temps.min() > -15.0
    assert temps.max() < 30.0
    assert abs(temps.mean() - 7.0) < 2.0


def test_synthetic_ambient_rejects_bad_days():
    with pytest.raises(ValueError):
        make_synthetic_ambient(seed=0, days=0)


def test_load_ambient_csv(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("hour,temp_c\n0,5.0\n1,4.5\n", encoding="utf-8")
    trace = load_ambient_csv(path)
    assert trace.tolist() == [5.0, 4.5]
    assert not trace.flags.writeable


def test_load_ambient_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError):
        load_ambient_csv(path)
    path.write_text("hour,temp_c\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no data rows"):
        load_ambient_csv(path)


def test_load_ambient_csv_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("hour,temp_c\n0,5.0\n1,abc\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 3"):
        load_ambient_csv(path)
    path.write_text("hour,temp_c\n0,nan\n", encoding="utf-8")
    with pytest.raises(ValueError, match="non-finite"):
        load_ambient_csv(path)
