import threading

import numpy as np
import pytest
from scipy import stats

import phaselab as pl
from phaselab.flows import FlowSynthesisSpec, synthesize_flow
from phaselab.networks import FrapConfig, FrapNetwork
from phaselab.numerics import Tensor
from phaselab.replay import PrioritizedReplayBuffer
from phaselab.training import (
    Actor,
    EpsilonGreedyPolicy,
    GreedyPolicy,
    Learner,
    TrainConfig,
    Transition,
    bellman_targets,
    train,
)

from conftest import random_state


def _small_net(table):
    return FrapNetwork(table, FrapConfig(demand_dim=8, conv_channels=8))


def _random_transitions(table, rng, n, done_every=0):
    out = []
    for i in range(n):
        s = random_state(table, rng)
        s2 = random_state(table, rng)
        done = done_every > 0 and (i % done_every == done_every - 1)
        out.append(
            Transition(
                state=s,
                action=int(rng.integers(table.n_phases)),
                reward=-float(rng.uniform(0, 10)),
                next_state=s2,
                done=done,
            )
        )
    return out


def _env_factory(table, episode_length=200, rate=600.0):
    config = pl.SimConfig(episode_length=episode_length)

    def factory(actor_id: int, episode: int) -> pl.IntersectionSim:
        seed = 1000 * actor_id + episode
        flow = synthesize_flow(
            FlowSynthesisSpec(rates=(rate,) * 8, duration=float(episode_length)), seed
        )
        return pl.IntersectionSim(config, table, flow, seed)

    return factory


class TestBellmanTargets:
    def test_done_transition_target_is_reward(self, table4):
        net = _small_net(table4)
        params = net.init_params(0)
        rng = np.random.default_rng(0)
        batch = _random_transitions(table4, rng, 8, done_every=1)
        targets, td = bellman_targets(batch, net, params, params, gamma=0.9)
        assert np.allclose(targets, [t.reward for t in batch])

    def test_gamma_zero_target_is_reward(self, table4):
        net = _small_net(table4)
        params = net.init_params(1)
        rng = np.random.default_rng(1)
        batch = _random_transitions(table4, rng, 8)
        targets, _ = bellman_targets(batch, net, params, params, gamma=0.0)
        assert np.allclose(targets, [t.reward for t in batch])

    def test_matches_hand_bellman_evaluation(self, table4):
        net = _small_net(table4)
        online = net.init_params(2)
        target = net.init_params(3)
        rng = np.random.default_rng(2)
        batch = _random_transitions(table4, rng, 6, done_every=3)
        targets, td = bellman_targets(batch, net, online, target, gamma=0.9, double_dqn=False)
        for t, got_target, got_td in zip(batch, targets, td):
            if t.done:
                expected = t.reward
            else:
                expected = t.reward + 0.9 * net.q_values(target, t.next_state).max()
            assert got_target == pytest.approx(expected, abs=1e-12)
            q_sa = net.q_values(online, t.state)[t.action]
            assert got_td == pytest.approx(expected - q_sa, abs=1e-12)

    def test_double_dqn_uses_online_argmax(self, table4):
        net = _small_net(table4)
        online = net.init_params(4)
        target = net.init_params(5)
        rng = np.random.default_rng(3)
        batch = _random_transitions(table4, rng, 6)
        targets, _ = bellman_targets(batch, net, online, target, gamma=0.9, double_dqn=True)
        for t, got in zip(batch, targets):
            best = int(np.argmax(net.q_values(online, t.next_state)))
            expected = t.reward + 0.9 * net.q_values(target, t.next_state)[best]
            assert got == pytest.approx(expected, abs=1e-12)


class TestLearner:
    def _loaded_learner(self, table, config=None, seed=0):
        net = _small_net(table)
        cfg = config or TrainConfig(batch_size=8, max_learner_steps=100, target_sync=5)
        buf = PrioritizedReplayBuffer(256, cfg.alpha)
        rng = np.random.default_rng(seed)
        for t in _random_transitions(table, rng, 64, done_every=8):
            buf.add(t)
        return Learner(net, net.init_params(seed), cfg, buf, np.random.default_rng(seed + 1))

    def test_zero_td_batch_keeps_params(self, table4):
        net = _small_net(table4)
        cfg = TrainConfig(batch_size=8, max_learner_steps=10)
        buf = PrioritizedReplayBuffer(64, cfg.alpha)
        params = net.init_params(7)
        rng = np.random.default_rng(7)
        for _ in range(16):
            s = random_state(table4, rng)
            a = int(rng.integers(table4.n_phases))
            r = float(net.q_values(params, s)[a])  # done target equals prediction
            buf.add(Transition(state=s, action=a, reward=r, next_state=s, done=True))
        learner = Learner(net, params, cfg, buf, np.random.default_rng(8))
        before = {k: t.data.copy() for k, t in learner.online.items()}
        learner.step()
        for k in before:
            assert np.array_equal(learner.online[k].data, before[k])
        assert learner.adam.step == 1

    def test_step_updates_priorities(self, table4):
        learner = self._loaded_learner(table4)
        learner.step()
        pri = [t.priority for t in learner.buffer._items if t is not None]
        assert any(p != 1.0 for p in pri)

    def test_target_changes_only_at_sync_steps(self, table4):
        learner = self._loaded_learner(table4)
        sync = learner.config.target_sync
        initial = {k: t.data.copy() for k, t in learner.target.items()}
        for step in range(1, 2 * sync + 1):
            learner.step()
            same = all(
                np.array_equal(learner.target[k].data, initial[k]) for k in initial
            )
            if step < sync:
                assert same
            elif step == sync:
                assert not same
                initial = {k: t.data.copy() for k, t in learner.target.items()}

    def test_loss_decreases_on_fixed_buffer(self, table4):
        learner = self._loaded_learner(table4)
        first = np.mean([learner.step() for _ in range(5)])
        for _ in range(60):
            learner.step()
        last = np.mean([learner.step() for _ in range(5)])
        assert last < first


class TestActorPolicy:
    def test_epsilon_one_uniform_actions(self, table4):
        net = _small_net(table4)
        policy = EpsilonGreedyPolicy(net, net.init_params(0), 1.0, np.random.default_rng(5))
        s = random_state(table4, np.random.default_rng(0))
        picks = np.array([policy(s) for _ in range(10_000)])
        _, p = stats.chisquare(np.bincount(picks, minlength=8))
        assert p > 0.01

    def test_epsilon_zero_greedy_lowest_index_ties(self, table4):
        net = _small_net(table4)
        params = {k: Tensor(np.zeros_like(t.data)) for k, t in net.init_params(0).items()}
        policy = EpsilonGreedyPolicy(net, params, 0.0, np.random.default_rng(6))
        s = random_state(table4, np.random.default_rng(1))
        # all-zero parameters give identical Q values: ties break to index 0
        assert policy(s) == 0

    def test_greedy_tie_breaks_commute_with_symmetry(self, table4, group4):
        # All-equal Q with an asymmetric state: the evaluation greedy must
        # choose conjugately under every symmetry op.
        net = _small_net(table4)
        params = {k: Tensor(np.zeros_like(t.data)) for k, t in net.init_params(0).items()}
        greedy = GreedyPolicy(net, params)
        rng = np.random.default_rng(7)
        for _ in range(30):
            s = random_state(table4, rng)
            a = greedy(s)
            for op in group4:
                image = pl.apply_symmetry(op, s)
                assert greedy(image) == op.phase_perm[a]

    def test_greedy_prefers_loaded_then_current_phase(self, table4):
        net = _small_net(table4)
        params = {k: Tensor(np.zeros_like(t.data)) for k, t in net.init_params(0).items()}
        greedy = GreedyPolicy(net, params)
        counts = np.zeros(8, dtype=int)
        counts[4] = counts[5] = 3  # S approach queues: phase {S-T, S-L} max load
        s = pl.TrafficState(counts, np.array(table4.phases[0].bits), 0)
        assert greedy(s) == table4.phase_with_members([4, 5])
        empty = pl.TrafficState(np.zeros(8, dtype=int), np.array(table4.phases[3].bits), 3)
        assert greedy(empty) == 3  # everything ties: keep the current phase

    def test_per_actor_epsilon_schedule(self):
        cfg = TrainConfig(n_actors=1, epsilon=0.4)
        assert cfg.actor_epsilon(0) == pytest.approx(0.4)
        cfg4 = TrainConfig(n_actors=4, epsilon=0.4, alpha_eps=7.0)
        for i in range(4):
            assert cfg4.actor_epsilon(i) == pytest.approx(0.4 ** (1 + i * 7.0 / 3.0))
        assert cfg4.actor_epsilon(0) > cfg4.actor_epsilon(3)

    def test_actor_emits_transitions_across_episodes(self, table4):
        net = _small_net(table4)
        params = net.init_params(0)
        sink = []
        actor = Actor(
            actor_id=0,
            network=net,
            epsilon=0.5,
            env_factory=_env_factory(table4, episode_length=50),
            snapshot_fn=lambda: [params],
            sink=sink.extend,
            seed=1,
            snapshot_period=3,
        )
        for _ in range(12):  # 50 s episodes at 10 s decisions: 5 per episode
            actor.take_decision()
        assert len(sink) == 12
        assert actor.episode == 2
        dones = [t.done for t in sink]
        assert dones[4] and dones[9]
        assert all(t.reward <= 0 for t in sink)


class TestTrain:
    def test_zero_steps_emits_initial_eval(self, table4):
        net = _small_net(table4)
        cfg = TrainConfig(max_learner_steps=0, n_actors=1, sync=True)
        factory = _env_factory(table4, episode_length=100)
        result = train(net, cfg, factory, lambda: factory(9, 0), seed=0)
        assert len(result.curve) == 1
        assert result.curve[0].learner_step == 0
        assert result.best_step == 0
        assert set(result.best_params) == set(net.init_params(0))

    def test_sync_mode_bit_reproducible(self, table4):
        net = _small_net(table4)
        cfg = TrainConfig(
            max_learner_steps=12, batch_size=8, warmup_transitions=16,
            n_actors=2, eval_period=6, sync=True,
        )
        factory = _env_factory(table4, episode_length=100)
        r1 = train(net, cfg, factory, lambda: factory(9, 0), seed=3)
        r2 = train(net, cfg, factory, lambda: factory(9, 0), seed=3)
        assert r1.curve == r2.curve
        for k in r1.best_params:
            assert np.array_equal(r1.best_params[k].data, r2.best_params[k].data)
            assert np.array_equal(r1.final_params[k].data, r2.final_params[k].data)

    def test_threaded_mode_runs_and_evaluates(self, table4):
        net = _small_net(table4)
        cfg = TrainConfig(
            max_learner_steps=20, batch_size=8, warmup_transitions=16,
            n_actors=2, eval_period=10, sync=False, queue_capacity=64,
        )
        factory = _env_factory(table4, episode_length=100)
        result = train(net, cfg, factory, lambda: factory(9, 0), seed=4)
        steps = [p.learner_step for p in result.curve]
        assert steps == [0, 10, 20]
        assert all(np.isfinite(p.eval_travel_time) for p in result.curve)

    def test_threaded_actor_failure_is_raised(self, table4):
        net = _small_net(table4)
        cfg = TrainConfig(
            max_learner_steps=20, batch_size=8, warmup_transitions=16,
            n_actors=2, eval_period=10, sync=False,
        )
        factory = _env_factory(table4, episode_length=100)

        def failing(actor_id: int, episode: int):
            raise RuntimeError("no simulator today")

        raised = []

        def run() -> None:
            try:
                train(net, cfg, failing, lambda: factory(9, 0), seed=0)
            except RuntimeError as err:
                raised.append(err)

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=10.0)
        assert not runner.is_alive(), "train() blocked after its actors failed"
        assert [str(e) for e in raised] == ["no simulator today"]
