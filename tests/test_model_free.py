import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from heatbench.mdp import (ActionGrid, ObservedState, RewardComponents,
                           TransitionSample)
from heatbench.model_free import (MfrlConfig, ModelFreeAgent, PrioritizedReplay,
                                  QPair, compute_priority, q_target, replay_sample,
                                  soft_update)
from heatbench.neural import MlpParams, MlpSpec

GRID = ActionGrid()


def _bias_net(biases, n_inputs=1):
    """Network whose output is a constant vector regardless of input."""
    spec = MlpSpec((n_inputs, len(biases)))
    params = MlpParams.init(spec)
    params.weights[0][...] = 0.0
    params.biases[0][...] = np.asarray(biases, dtype=float)
    return params


def _sample(r=-1.0, terminal=False, a=0):
    s = ObservedState((0.0,), 0.0)
    s2 = ObservedState((1.0,), 0.0)
    return TransitionSample(s, a, s2, RewardComponents(r, 0.0), terminal)


def _next_batch(*samples):
    """q_target's inputs for unnormalised samples: next-state features,
    total rewards and terminal flags."""
    return (np.stack([s.s_next.features() for s in samples]),
            np.array([s.r.total for s in samples]),
            np.array([s.terminal for s in samples]))


def test_q_target_terminal_returns_reward():
    pair = QPair(_bias_net([0.0, 0.0], 2), _bias_net([0.0, 0.0], 2), gamma=0.9)
    sample = TransitionSample(ObservedState((0.0,), 0.0), 0,
                              ObservedState((1.0,), 0.0),
                              RewardComponents(0.0, -5.4), terminal=True)
    assert q_target(*_next_batch(sample), pair)[0] == pytest.approx(-5.4)


def test_q_target_gamma_zero_is_reward():
    pair = QPair(_bias_net([3.0, 7.0], 2), _bias_net([9.0, 2.0], 2), gamma=0.0)
    assert q_target(*_next_batch(_sample(r=-1.0)), pair)[0] == pytest.approx(-1.0)


def test_q_target_double_q_selection():
    # online prefers action 1, the target values it at 0: the double-Q
    # target is 0 where a plain max over the target net would give 9
    online = _bias_net([1.0, 2.0], 2)
    target = _bias_net([10.0, 0.0], 2)
    pair = QPair(online, target, gamma=0.9)
    batch = _next_batch(_sample(r=0.0))
    assert q_target(*batch, pair)[0] == pytest.approx(0.0)
    assert q_target(*batch, pair, selection_by_target=True)[0] == pytest.approx(9.0)


@settings(max_examples=50)
@given(q_on=st.lists(st.floats(-10, 10), min_size=2, max_size=2),
       q_tg=st.lists(st.floats(-10, 10), min_size=2, max_size=2),
       r=st.floats(-5, 0))
def test_double_q_never_exceeds_plain_max(q_on, q_tg, r):
    pair = QPair(_bias_net(q_on, 2), _bias_net(q_tg, 2), gamma=0.9)
    double = q_target(*_next_batch(_sample(r=r)), pair)[0]
    plain = r + 0.9 * max(q_tg)
    assert double <= plain + 1e-12


def test_compute_priority():
    assert compute_priority(1.0, 0.5, 0.001) == pytest.approx(0.501)
    assert compute_priority(0.7, 0.7, 0.001) == pytest.approx(0.001)
    assert compute_priority(1.0, 0.5, 0.001) == compute_priority(0.5, 1.0, 0.001)
    batch = compute_priority(np.array([1.0, 0.7]), np.array([0.5, 0.7]), 0.001)
    assert batch.tolist() == [compute_priority(1.0, 0.5, 0.001), 0.001]
    with pytest.raises(ValueError):
        compute_priority(1.0, 0.5, 0.0)


def test_replay_proportional_sampling_chi_square():
    mem = PrioritizedReplay(capacity=8, alpha=1.0)
    mem.add(_sample(a=0), priority=3.0)
    mem.add(_sample(a=1), priority=1.0)
    rng = np.random.default_rng(0)
    counts = np.zeros(2)
    for _ in range(10_000):
        idx = replay_sample(mem, 1, rng)
        counts[idx[0]] += 1
    expected = np.array([7500.0, 2500.0])
    chi2 = ((counts - expected) ** 2 / expected).sum()
    assert stats.chi2.sf(chi2, df=1) > 0.01


def test_replay_alpha_zero_is_uniform():
    mem = PrioritizedReplay(capacity=8, alpha=0.0)
    mem.add(_sample(a=0), priority=100.0)
    mem.add(_sample(a=1), priority=0.01)
    probs = mem.probabilities()
    assert probs == pytest.approx([0.5, 0.5])


def test_replay_equal_priorities_is_uniform():
    mem = PrioritizedReplay(capacity=8, alpha=0.6)
    for i in range(4):
        mem.add(_sample(a=i % 2), priority=2.5)
    assert mem.probabilities() == pytest.approx([0.25] * 4)


def test_replay_full_batch_is_permutation():
    mem = PrioritizedReplay(capacity=8, alpha=0.6)
    for i in range(5):
        mem.add(_sample(a=i % 2), priority=float(i + 1))
    idx = replay_sample(mem, 5, np.random.default_rng(1))
    assert sorted(idx) == list(range(5))


def test_replay_undersized_memory_rejected():
    mem = PrioritizedReplay(capacity=8)
    mem.add(_sample(), 1.0)
    with pytest.raises(ValueError):
        replay_sample(mem, 2, np.random.default_rng(0))


def test_replay_ring_eviction_and_priority_floor():
    mem = PrioritizedReplay(capacity=2, alpha=0.6, offset=1e-3)
    for i in range(5):
        mem.add(_sample(a=i % 2), priority=compute_priority(0.0, 0.0, 1e-3))
    assert len(mem) == 2
    assert mem.rows(mem.a).tolist() == [1, 0]  # samples 3 and 4, oldest first
    assert all(mem.priority(i) >= 1e-3 for i in range(2))
    with pytest.raises(ValueError):
        mem.add(_sample(), priority=0.0)


def test_soft_update_tau_one_copies():
    pair = QPair(_bias_net([1.0, 2.0], 2), _bias_net([5.0, 6.0], 2), tau=1.0)
    soft_update(pair)
    assert np.array_equal(pair.target.flat(), pair.online.flat())


def test_soft_update_tau_zero_is_identity():
    pair = QPair(_bias_net([1.0, 2.0], 2), _bias_net([5.0, 6.0], 2), tau=0.5)
    pair.tau = 0.0  # boundary value, disallowed by the constructor
    before = pair.target.flat()
    soft_update(pair)
    assert np.array_equal(pair.target.flat(), before)
    with pytest.raises(ValueError):
        QPair(_bias_net([1.0], 1), _bias_net([1.0], 1), tau=0.0)


def test_soft_update_fixed_point_when_equal():
    pair = QPair(_bias_net([1.0, 2.0], 2), _bias_net([1.0, 2.0], 2), tau=0.3)
    soft_update(pair)
    assert np.array_equal(pair.target.flat(), pair.online.flat())


def test_soft_update_gap_shrinks_by_one_minus_tau():
    pair = QPair.create(MlpSpec((2, 8, 2), init_seed=0), tau=0.25)
    pair.online.biases[-1][...] = 4.0  # open a gap while online stays fixed
    gap0 = np.linalg.norm(pair.online.flat() - pair.target.flat())
    soft_update(pair)
    gap1 = np.linalg.norm(pair.online.flat() - pair.target.flat())
    assert gap1 == pytest.approx(0.75 * gap0)


def _agent(seed=0, **overrides):
    defaults = dict(warmup_samples=4, batch_size=4, capacity=64)
    defaults.update(overrides)
    return ModelFreeAgent(MfrlConfig(**defaults), GRID,
                          np.random.default_rng(seed), seed=seed, history_length=0)


def test_act_argmax_and_tie_break():
    agent = _agent()
    agent.pair.online = _bias_net([0.0, 1.0, 5.0, 2.0, 2.0, 1.0], 2)
    agent.pair.target = _bias_net([0.0, 1.0, 5.0, 2.0, 2.0, 1.0], 2)
    obs = ObservedState((20.0,), 5.0)
    assert agent.act(obs, epsilon=0.0) == 2

    agent.pair.online = _bias_net([1.0] * 6, 2)
    assert agent.act(obs, epsilon=0.0) == 0  # ties resolve to lowest power


def test_act_greedy_invariant_under_constant_shift():
    agent = _agent()
    obs = ObservedState((20.0,), 5.0)
    agent.pair.online = _bias_net([0.0, 1.0, 5.0, 2.0, 2.0, 1.0], 2)
    base = agent.act(obs, epsilon=0.0)
    agent.pair.online = _bias_net([7.0, 8.0, 12.0, 9.0, 9.0, 8.0], 2)
    assert agent.act(obs, epsilon=0.0) == base


def test_act_uniform_at_full_exploration():
    agent = _agent()
    obs = ObservedState((20.0,), 5.0)
    draws = np.array([agent.act(obs, epsilon=1.0) for _ in range(10_000)])
    counts = np.bincount(draws, minlength=6)
    chi2 = ((counts - len(draws) / 6) ** 2 / (len(draws) / 6)).sum()
    assert stats.chi2.sf(chi2, df=5) > 0.01


def test_config_rejects_capacity_below_warmup():
    with pytest.raises(ValueError, match="capacity"):
        MfrlConfig(capacity=50, warmup_samples=96)
    MfrlConfig(capacity=96, warmup_samples=96)


def test_observe_stores_with_td_priority():
    agent = _agent()
    agent.observe(_sample(r=-2.0))
    assert len(agent.replay) == 1
    assert agent.replay.priority(0) >= agent.cfg.priority_offset


def test_train_cycle_skips_before_warmup_bit_identical():
    agent = _agent(warmup_samples=8, batch_size=4)
    for _ in range(3):
        agent.observe(_sample())
    before = agent.pair.online.flat()
    assert agent.train_cycle() is False
    assert np.array_equal(agent.pair.online.flat(), before)


def test_train_cycle_updates_priorities_in_place():
    agent = _agent()
    for i in range(6):
        agent.observe(_sample(r=-float(i)))
    priorities_before = [agent.replay.priority(i) for i in range(6)]
    assert agent.train_cycle() is True
    priorities_after = [agent.replay.priority(i) for i in range(6)]
    assert priorities_before != priorities_after
    assert all(p >= agent.cfg.priority_offset for p in priorities_after)


def test_toy_mdp_converges_to_value_iteration():
    s0 = ObservedState((0.0,), 0.0)
    s1 = ObservedState((1.0,), 0.0)
    transitions = [
        (s0, 0, s0, -1.0), (s0, 1, s1, -2.0),
        (s1, 0, s1, -0.5), (s1, 1, s0, -1.5),
    ]
    gamma = 0.9
    # value-iteration oracle on the exact two-state chain
    q = np.zeros((2, 2))
    nxt = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}
    rew = {(0, 0): -1.0, (0, 1): -2.0, (1, 0): -0.5, (1, 1): -1.5}
    for _ in range(600):
        v = q.max(axis=1)
        q = np.array([[rew[(s, a)] + gamma * v[nxt[(s, a)]] for a in (0, 1)]
                      for s in (0, 1)])
    assert q[1, 0] == pytest.approx(-5.0, abs=1e-9)

    grid2 = ActionGrid((0.0, 400.0))
    cfg = MfrlConfig(hidden=(32, 32), activation="tanh",
                     learning_rate=3e-3, gamma=gamma, tau=0.05, batch_size=8,
                     capacity=64, warmup_samples=8, train_cycles_per_update=1)
    agent = ModelFreeAgent(cfg, grid2, np.random.default_rng(0), seed=0, history_length=0)
    for _ in range(4):
        for s, a, s2, r in transitions:
            agent.observe(TransitionSample(s, a, s2, RewardComponents(r, 0.0)))
    for _ in range(4000):
        agent.train_cycle()
    learned = np.array([agent.q_values(s0), agent.q_values(s1)])
    assert np.abs(learned - q).max() < 1e-2


def test_daily_update_runs_cycles_and_decays_epsilon():
    agent = _agent(train_cycles_per_update=3)
    for _ in range(8):
        agent.observe(_sample())
    done = agent.daily_update()
    assert done == 3
    assert agent.schedule.day == 1
    agent.daily_update()
    assert agent.schedule.day == 2


def test_qpair_validation():
    with pytest.raises(ValueError):
        QPair(_bias_net([1.0], 1), _bias_net([1.0, 2.0], 2))
    with pytest.raises(ValueError):
        QPair(_bias_net([1.0], 1), _bias_net([1.0], 1), gamma=1.0)
