"""Acceptance suite: one test per criterion, each printing a PASS line.

The 150-day comparison runs are expensive and shared through session
fixtures; run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines as they complete.
"""

import runpy
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from heatbench.baselines import MpcConfig, MpcController
from heatbench.emulator import BuildingParams, BuildingState, step
from heatbench.harness import Scenario, build_traces, run_scenario, simulate
from heatbench.mdp import ActionGrid, ComfortBand, encode_state, log_metrics
from heatbench.model_based import MbrlConfig, ModelBasedAgent
from heatbench.model_free import (MfrlConfig, ModelFreeAgent, PrioritizedReplay,
                                  QPair, q_target, replay_sample)
from heatbench.neural import MlpParams, MlpSpec, forward, forward_batch
from heatbench.planners import (CemConfig, ExactDynamicsModel, GaConfig, plan_cem,
                                plan_exhaustive, plan_ga)

from test_neural import gradient_check

GRID = ActionGrid()
BAND = ComfortBand(19.0, 23.0)
SEEDS = (0, 1, 2)
FULL_DAYS = 150
WARMUP = 24
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run_battery(seed, days, tariff_kind, agents):
    scenario = Scenario(days=days, agent="rbc", seed=seed, tariff_kind=tariff_kind)
    trace, tariff = build_traces(scenario)
    rbc_log, _ = simulate(scenario, "rbc", trace, tariff)
    rbc_ctrl = rbc_log.slice_hours(WARMUP)
    out = {"rbc": {"metrics": (0.0, 0.0, rbc_ctrl.total_comfort_eur()),
                   "log": rbc_log, "agent": None, "wall": 0.0}}
    for kind in agents:
        t0 = time.perf_counter()
        log, agent = simulate(scenario, kind, trace, tariff)
        wall = time.perf_counter() - t0
        metrics = log_metrics(log.slice_hours(WARMUP), rbc_ctrl)
        out[kind] = {"metrics": metrics, "log": log, "agent": agent, "wall": wall}
    return out


@pytest.fixture(scope="session")
def flat_battery():
    t0 = time.perf_counter()
    results = {seed: _run_battery(seed, FULL_DAYS, "flat", ("mpc", "mbrl", "mfrl"))
               for seed in SEEDS}
    return results, time.perf_counter() - t0


@pytest.fixture(scope="session")
def dual_battery():
    return _run_battery(0, FULL_DAYS, "dual", ("mpc", "mbrl"))


def test_criterion_1_cost_ordering_flat(flat_battery):
    """Flat tariff, 150 days, 3 seeds: MPC <= MB-RL <= RBC, MF-RL <= RBC,
    MPC savings within 4-15%."""
    results, elapsed = flat_battery
    for seed in SEEDS:
        res = results[seed]
        cost = {k: res[k]["metrics"][1] for k in ("mpc", "mbrl", "mfrl")}
        assert cost["mpc"] <= cost["mbrl"] <= 0.0, f"seed {seed}: {cost}"
        assert cost["mfrl"] <= 0.0, f"seed {seed}: {cost}"
        assert 4.0 <= -cost["mpc"] <= 15.0, f"seed {seed}: MPC saving {-cost['mpc']:.2f}%"
    assert elapsed < 1800.0, f"comparison suite took {elapsed:.0f}s"
    summary = {s: {k: round(results[s][k]["metrics"][1], 2)
                   for k in ("mpc", "mbrl", "mfrl")} for s in SEEDS}
    print(f"\nACCEPTANCE 1 PASS: cost ordering holds on {len(SEEDS)} seeds, "
          f"cost change vs RBC {summary}, suite wall {elapsed:.0f}s")


def test_criterion_2_dual_tariff_load_shifting(dual_battery):
    """Dual tariff: |cost %| > |consumption %| for MPC and MB-RL; MPC comfort 0."""
    res = dual_battery
    for kind in ("mpc", "mbrl"):
        cons, cost, _ = res[kind]["metrics"]
        assert abs(cost) > abs(cons), f"{kind}: cons {cons:.2f} cost {cost:.2f}"
    mpc_comfort = res["mpc"]["metrics"][2]
    assert mpc_comfort == pytest.approx(0.0, abs=0.01)
    print(f"\nACCEPTANCE 2 PASS: dual-tariff shifting, "
          f"MPC cons/cost {res['mpc']['metrics'][0]:.2f}/{res['mpc']['metrics'][1]:.2f}%, "
          f"MB-RL {res['mbrl']['metrics'][0]:.2f}/{res['mbrl']['metrics'][1]:.2f}%, "
          f"MPC comfort {mpc_comfort:.4f} EUR")


def test_criterion_3_model_learning_curve():
    """Transition-model holdout MAE at day 20 < 0.5x MAE at day 2, 3-seed mean."""
    t0 = time.perf_counter()
    day2, day20 = [], []
    for seed in SEEDS:
        scenario = Scenario(days=21, agent="mbrl", seed=seed)
        trace, tariff = build_traces(scenario)
        _, agent = simulate(scenario, "mbrl", trace, tariff)
        history = dict(agent.mae_history)
        day2.append(history[2])
        day20.append(history[20])
    mean2, mean20 = np.mean(day2), np.mean(day20)
    elapsed = time.perf_counter() - t0
    assert mean20 < 0.5 * mean2, f"day20 {mean20:.3f} vs day2 {mean2:.3f}"
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 3 PASS: holdout MAE day2 {mean2:.3f} C -> day20 {mean20:.3f} C "
          f"(3-seed mean, {elapsed:.0f}s)")


def test_criterion_4_planner_optimality():
    """CEM and GA within 1% of the exhaustive oracle on 50 random instances."""
    t0 = time.perf_counter()
    params = BuildingParams()
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        t_i = rng.uniform(15.0, 25.0)
        t_m = rng.uniform(15.0, 25.0)
        ambient = rng.uniform(-10.0, 15.0, size=3)
        prices = rng.uniform(0.1, 0.45, size=3)
        model = ExactDynamicsModel(params, BuildingState(t_i, t_m, 0))
        obs = encode_state((t_i,) * 4, ambient[0], 3)
        oracle = plan_exhaustive(model, obs, 3, GRID, prices, ambient, BAND)
        slack = max(0.01 * abs(oracle.expected_return), 1e-9)
        for planner, cfg in ((plan_cem, CemConfig()), (plan_ga, GaConfig())):
            plan = planner(model, obs, 3, GRID, prices, ambient, BAND, cfg,
                           np.random.default_rng(1000 + seed))
            assert plan.expected_return <= oracle.expected_return + 1e-9
            gap = oracle.expected_return - plan.expected_return
            assert gap <= slack, f"{planner.__name__} seed {seed}: gap {gap:.4f}"
            worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 4 PASS: CEM/GA within 1% of oracle on 50 instances "
          f"(worst gap {worst:.2e} EUR, {elapsed:.0f}s)")


def test_criterion_5_q_learning_correctness():
    """Toy-MDP convergence to value iteration within 1e-2 on 3 seeds; the
    double-Q target yields 0 where a plain max would give 9."""
    t0 = time.perf_counter()
    s0, s1 = encode_state((0.0,), 0.0, 0), encode_state((1.0,), 0.0, 0)
    transitions = [(s0, 0, s0, -1.0), (s0, 1, s1, -2.0),
                   (s1, 0, s1, -0.5), (s1, 1, s0, -1.5)]
    gamma = 0.9
    nxt = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}
    rew = {(0, 0): -1.0, (0, 1): -2.0, (1, 0): -0.5, (1, 1): -1.5}
    q = np.zeros((2, 2))
    for _ in range(600):
        v = q.max(axis=1)
        q = np.array([[rew[s, a] + gamma * v[nxt[s, a]] for a in (0, 1)]
                      for s in (0, 1)])

    grid2 = ActionGrid((0.0, 400.0))
    errs = []
    for seed in SEEDS:
        cfg = MfrlConfig(hidden=(32, 32), activation="tanh",
                         learning_rate=3e-3, gamma=gamma, tau=0.05, batch_size=8,
                         capacity=64, warmup_samples=8, train_cycles_per_update=1)
        agent = ModelFreeAgent(cfg, grid2, np.random.default_rng(seed), seed=seed,
                               history_length=0)
        for _ in range(4):
            for s, a, s2, r in transitions:
                agent.observe(s, a, r, s2)
        for _ in range(4000):
            agent.train_cycle()
        learned = np.array([forward(agent.pair.online, agent.encode(s)) for s in (s0, s1)])
        err = float(np.abs(learned - q).max())
        assert err < 1e-2, f"seed {seed}: max error {err:.4f}"
        errs.append(err)

    def bias_net(biases):
        spec = MlpSpec((2, 2))
        p = MlpParams.init(spec)
        p.weights[0][...] = 0.0
        p.biases[0][...] = biases
        return p

    pair = QPair(bias_net([1.0, 2.0]), bias_net([10.0, 0.0]), gamma=0.9)
    # one transition s0 -> s1 with reward 0
    batch = (s1[None, :], np.array([0.0]))
    x_next, rewards = batch
    plain_max = rewards + pair.gamma * forward_batch(pair.target, x_next).max(axis=1)
    assert q_target(*batch, pair)[0] == pytest.approx(0.0)
    assert plain_max[0] == pytest.approx(9.0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 5 PASS: toy-MDP Q errors {[f'{e:.4f}' for e in errs]} < 1e-2; "
          f"double-Q example 0 vs plain-max 9 ({elapsed:.0f}s)")


def test_criterion_6_numerical_core():
    """Gradient checks < 1e-4; sub-step refinement < 0.01 C; fixed-point and
    power-monotonicity hold across a building-parameter grid."""
    rng = np.random.default_rng(1)
    for spec in (MlpSpec((6, 32, 32, 1), "tanh", init_seed=1),
                 MlpSpec((5, 64, 64, 6), "relu", init_seed=1)):
        params = MlpParams.init(spec)
        x = rng.uniform(0.1, 1.0, size=spec.layer_sizes[0])
        t = rng.uniform(-1.0, 1.0, size=spec.layer_sizes[-1])
        err = gradient_check(params, x, t)
        assert err < 1e-4, f"{spec.layer_sizes}: {err:.2e}"

    default = BuildingParams()
    halved = BuildingParams(substep_seconds=default.substep_seconds // 2)
    for t_i, ambient, power in ((20.0, 5.0, 2000.0), (25.0, -15.0, 0.0),
                                (15.0, 30.0, 1000.0), (30.0, -20.0, 2000.0)):
        a, _ = step(BuildingState(t_i, t_i, 0), default, ambient, power)
        b, _ = step(BuildingState(t_i, t_i, 0), halved, ambient, power)
        assert abs(a.indoor_temp - b.indoor_temp) < 0.01

    checked = 0
    for c_i in (1.0e6, 2.0e6, 4.0e6):
        for u_a in (50.0, 100.0, 150.0):
            for h_m in (100.0, 200.0, 400.0):
                for cop in (2.0, 3.0):
                    params = BuildingParams(indoor_capacitance=c_i,
                                            ambient_conductance=u_a,
                                            envelope_conductance=h_m, cop=cop)
                    for t in (-5.0, 10.0, 21.0, 35.0):
                        fixed, _ = step(BuildingState(t, t, 0), params, t, 0.0)
                        assert fixed.indoor_temp == t and fixed.envelope_temp == t
                    lo, _ = step(BuildingState(20.0, 20.0, 0), params, 0.0, 400.0)
                    hi, _ = step(BuildingState(20.0, 20.0, 0), params, 0.0, 1200.0)
                    assert hi.indoor_temp > lo.indoor_temp
                    checked += 1
    print(f"\nACCEPTANCE 6 PASS: gradient checks < 1e-4, refinement < 0.01 C, "
          f"fixed-point/monotonicity on {checked} parameter combinations")


def test_criterion_7_robustness_scenarios(tmp_path):
    """(a) setpoint-change scenario reports per-phase comfort for MB vs MF;
    (b) backup-filter scenario: MF-RL weekly comfort strictly decreasing
    after week 2, MB-RL degradation reported."""
    robustness = runpy.run_path(str(SCRIPTS / "run_robustness.py"))
    phase_report = {kind: robustness["setpoint_phase_losses"](kind, 0, tmp_path / "setpoint")
                    for kind in ("mbrl", "mfrl")}
    print(f"\nACCEPTANCE 7a PASS: setpoint-change per-phase comfort loss (EUR) "
          f"MB-RL {phase_report['mbrl']} vs MF-RL {phase_report['mfrl']}")

    weekly = {kind: robustness["backup_weekly_losses"](kind, 1, tmp_path / "backup")
              for kind in ("mfrl", "mbrl")}
    mf = weekly["mfrl"]
    for k in range(1, len(mf) - 1):  # weeks 2,3,4,5 must strictly decrease
        assert mf[k + 1] < mf[k], f"MF-RL weekly comfort not decreasing: {mf}"
    print(f"ACCEPTANCE 7b PASS: backup scenario, MF-RL weekly comfort {mf} "
          f"strictly decreasing after week 2; MB-RL (reported, not asserted): "
          f"{weekly['mbrl']}")


def test_criterion_8_prioritized_replay_statistics():
    """Sampling frequencies match priority^alpha proportions (chi-square);
    alpha = 0 reduces to uniform."""
    s = encode_state((0.0,), 0.0, 0)
    mem = PrioritizedReplay(capacity=8, alpha=0.6)
    priorities = [3.0, 1.0, 0.5]
    for p in priorities:
        mem.add(s, 0, -1.0, s, p)
    weights = np.array(priorities) ** 0.6
    expected = 10_000 * weights / weights.sum()
    rng = np.random.default_rng(2)
    counts = np.zeros(3)
    for _ in range(10_000):
        idx = replay_sample(mem, 1, rng)
        counts[idx[0]] += 1
    chi2 = ((counts - expected) ** 2 / expected).sum()
    p_value = stats.chi2.sf(chi2, df=2)
    assert p_value > 0.01

    uniform = PrioritizedReplay(capacity=8, alpha=0.0)
    for p in (100.0, 0.01):
        uniform.add(s, 0, -1.0, s, p)
    assert uniform.probabilities() == pytest.approx([0.5, 0.5])
    print(f"\nACCEPTANCE 8 PASS: replay frequencies match priority^alpha "
          f"(chi-square p={p_value:.3f}); alpha=0 uniform")


def test_criterion_9_byte_determinism(tmp_path):
    """A (scenario, seed) pair produces byte-identical CSVs across two runs."""
    import filecmp
    checked = []
    for agent, days in (("mbrl", 20), ("mfrl", 10), ("mpc", 3)):
        scenario = Scenario(name=f"det_{agent}", days=days, agent=agent, seed=7)
        dir_a = tmp_path / f"{agent}_a"
        dir_b = tmp_path / f"{agent}_b"
        run_scenario(scenario, dir_a)
        run_scenario(scenario, dir_b)
        for name in sorted(p.name for p in dir_a.iterdir()):
            assert filecmp.cmp(dir_a / name, dir_b / name, shallow=False), name
            checked.append(name)
    print(f"\nACCEPTANCE 9 PASS: {len(checked)} output files byte-identical "
          f"across repeated runs")


def test_criterion_10_relative_compute_ordering():
    """MF-RL action selection is at least 10x cheaper than one MB-RL plan."""
    obs = encode_state((20.0,) * 4, 5.0, 3)
    tariff = np.full(24, 0.24)
    ambient = np.full(24, 5.0)
    # past warm-up, with a tiny exploration rate: every act is a greedy choice
    mf = ModelFreeAgent(MfrlConfig(epsilon_initial=1e-9), GRID, np.random.default_rng(0),
                        history_length=3)
    rng = np.random.default_rng(1)
    while mf.normalizer is None:
        mf.observe(encode_state(rng.uniform(15.0, 25.0, 4), 5.0, 3), 0, -0.1,
                   encode_state(rng.uniform(15.0, 25.0, 4), 5.0, 3))
    n_act = 300
    t0 = time.perf_counter()
    for t in range(n_act):
        mf.act(t, None, obs, tariff, ambient, BAND)
    act_seconds = (time.perf_counter() - t0) / n_act

    # an empty memory skips training: each daily update is one plan of the day
    mb = ModelBasedAgent(MbrlConfig(), GRID, np.random.default_rng(0), history_length=3,
                         cem=CemConfig(), ga=GaConfig())
    n_plan = 5
    t0 = time.perf_counter()
    for _ in range(n_plan):
        mb.daily_update(obs, tariff, ambient, BAND)
    plan_seconds = (time.perf_counter() - t0) / n_plan

    ratio = plan_seconds / act_seconds
    assert ratio >= 10.0, f"ratio {ratio:.1f}"
    print(f"\nACCEPTANCE 10 PASS: MF-RL decision {act_seconds * 1e6:.0f} us vs "
          f"MB-RL plan {plan_seconds * 1e3:.1f} ms ({ratio:.0f}x)")
